"""Command-line front end.

Subcommands: ``cv`` (cross-validated training), ``features export`` (write
augmented feature CSVs) and ``ablate`` (feature, depth or model-kind sweeps,
each cell's accuracy in ``ablation.csv`` and its precompute and median epoch
seconds in ``timing.csv``). Every run creates a fresh directory under
``--out`` holding its outputs plus a ``manifest.json`` that snapshots the
resolved configuration, so any number in any artifact can be re-derived.

Option precedence is CLI flag > ``--config`` JSON file > built-in default.
The feature cache location honors the ``GFNLAB_CACHE`` environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .features import FeatureSpec, export_csv, precompute_dataset
from .graphs import (
    DataError,
    Dataset,
    generate_dense_synthetic,
    generate_synthetic_dataset,
    stratified_kfold,
)
from .harness import (
    TIMING_FIELDS,
    TrainConfig,
    ablation_cells,
    ablation_sweep,
    run_cv,
    write_ablation_csv,
)
from .models import BATCH_NORM_KINDS, MODEL_KINDS, ModelConfig, default_feature_spec
from .tu import parse_tu_dataset


@dataclass(frozen=True)
class Option:
    """One option: its JSON type, its default, the subcommands that read it
    and the ablate axes that read it (None: every axis). A bool option
    defaults to on; its flag ``--no-<name>`` turns it off."""

    type: type
    default: object
    commands: tuple[str, ...]
    help: str | None = None
    choices: tuple[str, ...] | None = None
    axes: tuple[str, ...] | None = None


TRAINING = ("cv", "ablate")
EVERY = ("cv", "features", "ablate")

# The one declaration of every option: argparse flags, config-file keys and
# the manifest's config all come from it.
OPTIONS = {
    "model": Option(str, "gfn", TRAINING, choices=MODEL_KINDS, axes=("features", "depth")),
    "folds": Option(int, TrainConfig.folds, TRAINING),
    "epochs": Option(int, TrainConfig.epochs, TRAINING),
    "batch": Option(int, TrainConfig.batch_size, TRAINING),
    "lr": Option(float, TrainConfig.lr, TRAINING),
    "k": Option(int, None, ("cv", "features", "ablate"),
                "propagation depth; defaults to 3 (0 for gcn)", axes=("depth",)),
    "seed": Option(int, TrainConfig.seed, TRAINING),
    "jobs": Option(int, TrainConfig.jobs, TRAINING,
                   "fold-level worker processes (default 1, deterministic)"),
    "out": Option(str, "runs", EVERY, "output root directory"),
    "data_root": Option(str, "data", EVERY),
    "degree": Option(bool, True, ("features",), "omit the degree one-hot block"),
    "axis": Option(str, None, ("ablate",), "the swept axis (required)",
                   ("features", "depth", "model")),
    "grid": Option(str, None, ("ablate",),
                   "layer counts for the depth axis: '1..5' or '1,2,3'", axes=("depth",)),
}

# The built-in corpora: name -> (generator, graph count), built from a fixed
# seed independent of --seed so the graphs are stable across training seeds.
SYNTHETIC_SEED = 7
BUILTIN_CORPORA = {
    "synthetic": (generate_synthetic_dataset, 200),
    "synthetic-dense": (generate_dense_synthetic, 64),
}

# BLAS thread settings recorded in the manifest: float32 results, and so the
# report bytes, can depend on them.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class UsageError(Exception):
    """Bad option values or combinations found after argparse (maps to exit 2)."""


def _blas_library() -> str | None:
    """Name and version of the BLAS numpy was built against, read from its
    build configuration; None when numpy does not record one."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy: no mode argument
        return None
    return f"{blas['name']} {blas['version']}"


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def make_run_dir(out_root: Path, label: str) -> Path:
    """Timestamped directory under the output root; suffixed when a second
    run lands within the same second."""
    stamp = datetime.now().strftime("%Y%m%d-%H%M%S")
    base = out_root / f"{label}-{stamp}"
    path = base
    n = 1
    while path.exists():
        n += 1
        path = Path(f"{base}-{n}")
    try:
        path.mkdir(parents=True)
    except OSError as exc:
        raise UsageError(f"--out {out_root} cannot hold a run directory ({exc})") from exc
    return path


def resolve_dataset(name_or_path: str, data_root: str) -> Dataset:
    """Map a --dataset argument to a loaded dataset.

    Accepted forms: a name in BUILTIN_CORPORA, a path to a benchmark
    directory, or a bare name looked up under the data root (either
    <root>/<NAME>/<NAME>_A.txt or <root>/<NAME>/<NAME>/...).
    """
    if name_or_path in BUILTIN_CORPORA:
        generate, num_graphs = BUILTIN_CORPORA[name_or_path]
        return generate(num_graphs, seed=SYNTHETIC_SEED)
    direct = Path(name_or_path)
    candidates = []
    if direct.is_dir():
        candidates.append((direct, direct.name))
        candidates.append((direct / direct.name, direct.name))
    root_dir = Path(data_root) / name_or_path
    candidates.append((root_dir, name_or_path))
    candidates.append((root_dir / name_or_path, name_or_path))
    for directory, name in candidates:
        if (directory / f"{name}_A.txt").is_file():
            return parse_tu_dataset(directory, name)
    tried = ", ".join(dict.fromkeys(str(d) for d, _ in candidates))  # an absolute path repeats
    builtin = ", ".join(repr(name) for name in BUILTIN_CORPORA)
    raise DataError(
        f"dataset {name_or_path!r} not found (tried: {tried}). Use {builtin}, a benchmark "
        f"directory path, or place the files under {data_root}/<NAME>/"
    )


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise DataError(f"config file {path} does not exist")
    try:
        with open(p) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise DataError(f"config file {path} must hold a JSON object")
    return cfg


def _resolve(args: argparse.Namespace, config: dict) -> dict:
    """Flag > config file > default for each option the subcommand reads,
    each value checked against its entry in OPTIONS."""
    known = [key for key, opt in OPTIONS.items() if args.command in opt.commands]
    unknown = sorted(set(config) - set(known))
    if unknown:
        raise UsageError(f"unknown config key(s) {', '.join(unknown)} for {args.command}; "
                         f"known: {', '.join(known)}")
    out = {}
    for key in known:
        opt = OPTIONS[key]
        value = getattr(args, key)
        if value is None:
            value = config.get(key, opt.default)
        # refused, not converted: int(2.7) is 2, int(True) is 1, float("0.1") is 0.1
        allowed = (int, float) if opt.type is float else (opt.type,)
        if not (value is None and opt.default is None or type(value) in allowed):
            raise UsageError(f"{key} must be of type {opt.type.__name__}, got {value!r}")
        if opt.choices and value not in opt.choices:
            raise UsageError(f"{key} must be one of {', '.join(opt.choices)}, got {value!r}")
        out[key] = value
    axis = out.get("axis")  # an ablate run reads some options on one axis only
    for key in [key for key in out if axis and OPTIONS[key].axes and axis not in OPTIONS[key].axes]:
        if getattr(args, key) is not None or key in config:
            raise UsageError(f"--{key} is not read by --axis {axis}")
        del out[key]
    if "k" in out and out["k"] is None:  # the depth default depends on the model kind
        out["k"] = default_feature_spec(out.get("model", "gfn")).K
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gfnlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, _) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        if command == "features":
            p.add_argument("action", choices=["export"])
        p.add_argument("--dataset", required=True,
                       help="dataset name under --data-root, a directory path, or a "
                            f"built-in corpus: {', '.join(BUILTIN_CORPORA)}")
        p.add_argument("--config", help="JSON file of option values, keyed as in a "
                                        "manifest's config")
        for key, opt in OPTIONS.items():
            if command not in opt.commands:
                continue
            if opt.type is bool:
                p.add_argument(f"--no-{key}", dest=key, action="store_const", const=False,
                               help=opt.help)
            else:
                p.add_argument("--" + key.replace("_", "-"), dest=key, type=opt.type,
                               choices=opt.choices, help=opt.help)
    return parser


def parse_grid(text: str) -> list[int]:
    """Layer counts from '1..5' or '1,2,3'; ablation_cells judges them."""
    text = text.strip()
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            return list(range(int(lo_s), int(hi_s) + 1))
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise UsageError(
            f"--grid takes a range like 1..5 or a list like 1,2,3, got {text!r}") from None


def _train_config(resolved: dict, dataset: Dataset, models) -> TrainConfig:
    """The run's TrainConfig. ``models`` are the model configs the run
    trains on every fold."""
    named_alike = {key: resolved[key] for key in ("epochs", "lr", "folds", "seed", "jobs")}
    config = TrainConfig(batch_size=resolved["batch"], **named_alike)
    with warnings.catch_warnings():  # the run itself warns about a thin class
        warnings.simplefilter("ignore")
        plan = stratified_kfold(dataset, config.folds, config.seed)  # refuses too many folds
    normalizing = [model.kind for model in models if model.kind in BATCH_NORM_KINDS]
    if normalizing:
        for fold in range(config.folds):
            rows = int(dataset.sizes[plan.train_indices(fold)].sum())
            if rows < 2:
                raise UsageError(f"fold {fold} trains on {rows} node row(s), but batch norm in "
                                 f"{normalizing[0]} needs at least 2: use more graphs or fewer "
                                 "folds")
    return config


def _model_config(resolved: dict, num_classes: int) -> ModelConfig:
    spec = FeatureSpec(K=resolved["k"]) if "k" in resolved else None
    # the model axis reads no --model: its cells set every kind
    kind = resolved.get("model", MODEL_KINDS[0])
    return ModelConfig(kind=kind, num_classes=num_classes, feature_spec=spec)


def cmd_cv(resolved: dict, dataset: Dataset):
    model_config = _model_config(resolved, dataset.num_classes)
    train_config = _train_config(resolved, dataset, [model_config])

    def work(run_dir: Path):
        report = run_cv(dataset, model_config, train_config)
        report_path = run_dir / "report.json"
        report_path.write_text(report.to_json() + "\n")
        return [report_path], [report.summary()]

    return f"cv-{dataset.name}-{model_config.kind}", model_config.kind, work


def cmd_features(resolved: dict, dataset: Dataset):
    spec = FeatureSpec(use_degree=resolved["degree"], K=resolved["k"])

    def work(run_dir: Path):
        feats = precompute_dataset(dataset, spec)
        csv_dir = run_dir / "features"
        paths = export_csv(dataset, spec, feats, csv_dir)
        return [csv_dir], [f"wrote {len(paths)} feature files ({feats[0].shape[1]} columns each)"]

    return f"features-{dataset.name}", "", work


def cmd_ablate(resolved: dict, dataset: Dataset):
    axis = resolved["axis"]
    depth_values = None
    if axis == "depth":
        if not resolved["grid"]:
            raise UsageError("--axis depth requires --grid (e.g. 1..5)")
        depth_values = parse_grid(resolved["grid"])
    cells = ablation_cells(axis, _model_config(resolved, dataset.num_classes), depth_values)
    train_config = _train_config(resolved, dataset, [cfg for _, cfg in cells])

    def work(run_dir: Path):
        rows = ablation_sweep(dataset, axis, cells, train_config)
        ablation, timing = run_dir / "ablation.csv", run_dir / "timing.csv"
        write_ablation_csv(rows, train_config, ablation)
        write_ablation_csv(rows, train_config, timing, TIMING_FIELDS)
        return [ablation, timing], [f"{row['value']}: {100 * row['mean_acc']:.2f} ± {100 * row['std_acc']:.2f}, "
                       f"epoch {1e3 * row['epoch_s']:.1f} ms" for row in rows]

    kinds = dict.fromkeys(cfg.kind for _, cfg in cells)  # in cell order, each once
    return f"ablate-{dataset.name}-{axis}", ",".join(kinds), work


# subcommand -> (help, the function that validates its options and returns its work)
COMMANDS = {
    "cv": ("k-fold cross-validated training", cmd_cv),
    "features": ("feature matrix export", cmd_features),
    "ablate": ("feature, depth or model-kind sweep", cmd_ablate),
}


def _write_manifest(run_dir: Path, manifest: dict, **updates) -> None:
    manifest.update(updates)
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def run_command(args: argparse.Namespace) -> int:
    """The run lifecycle every subcommand shares.

    Resolves the options and the dataset and hands them to the subcommand,
    which validates them (a rejected value is a usage error, raised before the
    run dir exists) and returns (run label, model, work). ``work(run_dir)``
    writes the outputs and returns their paths and the lines to print. The
    manifest says ``running`` while it works, then ``ok``, or ``failed`` with
    the error text before the error propagates.
    """
    resolved = _resolve(args, _load_config_file(args.config))
    dataset = resolve_dataset(args.dataset, resolved["data_root"])
    try:
        label, model, work = COMMANDS[args.command][1](resolved, dataset)
    except (TypeError, ValueError) as exc:  # TrainConfig(epochs=0), FeatureSpec(K=-1), ...
        raise UsageError(str(exc)) from exc
    run_dir = make_run_dir(Path(resolved["out"]), label)
    manifest = {
        "command": f"{args.command} {getattr(args, 'action', '')}".strip(),
        "dataset": args.dataset,
        "dataset_sha256": dataset.fingerprint,
        "model": model,
        "config": resolved,
        "seeds": [resolved["seed"]] if "seed" in resolved else [],
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas_library(),
            **{var: os.environ.get(var) for var in THREAD_VARS},
        },
        "started": _now(),
    }
    _write_manifest(run_dir, manifest, status="running", error=None, finished=None, outputs=[])
    try:
        outputs, lines = work(run_dir)
    except BaseException as exc:
        _write_manifest(run_dir, manifest, status="failed", error=f"{type(exc).__name__}: {exc}",
                        finished=_now())
        raise
    _write_manifest(run_dir, manifest, status="ok", finished=_now(),
                    outputs=[str(path) for path in outputs])
    print(f"run dir: {run_dir}")
    for line in lines:
        print(line)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():  # a warning is one line too, not a source excerpt
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return run_command(args)
        except UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 2
        except DataError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
