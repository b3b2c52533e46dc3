"""Command-line front end.

Subcommands: ``cv`` (cross-validated training), ``features export`` (write
augmented feature CSVs), ``benchmark`` (per-epoch timing comparison), and
``ablate`` (feature or depth sweeps). Every run creates a fresh directory
under ``--out`` holding its outputs plus a ``manifest.json`` that snapshots
the resolved configuration, so any number in any artifact can be re-derived.

Option precedence is CLI flag > ``--config`` JSON file > built-in default.
The feature cache location honors the ``GFNLAB_CACHE`` environment variable.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from .features import FeatureSpec, export_csv, precompute_dataset
from .graphs import DataError, Dataset, generate_dense_synthetic, generate_synthetic_dataset
from .harness import (
    TrainConfig,
    ablation_sweep,
    benchmark_timing,
    run_cv,
    write_ablation_csv,
)
from .models import MODEL_KINDS, ModelConfig, default_feature_spec
from .tu import parse_tu_dataset

DEFAULTS = {
    "model": "gfn",
    "folds": 10,
    "epochs": 100,
    "batch": 128,
    "lr": 0.001,
    "k": None,  # resolved per model kind
    "seed": 0,
    "jobs": 1,
    "out": "runs",
    "data_root": "data",
}

# Fixed construction seeds for the built-in corpora, independent of --seed so
# the graphs themselves are stable across training seeds.
SYNTHETIC_SEED = 7
SYNTHETIC_SIZE = 200
SYNTHETIC_DENSE_SIZE = 64


class UsageError(Exception):
    """Bad flag combinations detected after argparse (maps to exit 2)."""


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
    path.mkdir(parents=True)
    return path


def resolve_dataset(name_or_path: str, data_root: str) -> Dataset:
    """Map a --dataset argument to a loaded dataset.

    Accepted forms: the built-in names 'synthetic' and 'synthetic-dense', a
    path to a benchmark directory, or a bare name looked up under the data
    root (either <root>/<NAME>/<NAME>_A.txt or <root>/<NAME>/<NAME>/...).
    """
    if name_or_path == "synthetic":
        return generate_synthetic_dataset(SYNTHETIC_SIZE, seed=SYNTHETIC_SEED)
    if name_or_path == "synthetic-dense":
        return generate_dense_synthetic(SYNTHETIC_DENSE_SIZE, seed=SYNTHETIC_SEED)
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
    tried = ", ".join(str(d) for d, _ in candidates)
    raise DataError(
        f"dataset {name_or_path!r} not found (tried: {tried}). Use 'synthetic', "
        f"'synthetic-dense', a benchmark directory path, or place the files under "
        f"{data_root}/<NAME>/"
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
    """CLI flag > config file > default, for each option the subcommand takes."""
    out = {}
    for key in DEFAULTS:
        if not hasattr(args, key):
            continue  # not an option of this subcommand
        cli_val = getattr(args, key)
        if cli_val is not None:
            out[key] = cli_val
        elif key in config:
            out[key] = config[key]
        else:
            out[key] = DEFAULTS[key]
    return out


def _resolve_k(k, model_kind: str) -> int:
    if k is not None:
        if k < 0:
            raise DataError("--k must be nonnegative")
        return int(k)
    return default_feature_spec(model_kind).K


def _add_common(parser: argparse.ArgumentParser, with_model: bool = True) -> None:
    parser.add_argument("--dataset", required=True,
                        help="dataset name under --data-root, a directory path, "
                             "'synthetic', or 'synthetic-dense'")
    if with_model:
        parser.add_argument("--model", choices=MODEL_KINDS, default=None)
    parser.add_argument("--folds", type=int, default=None)
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--batch", type=int, default=None)
    parser.add_argument("--lr", type=float, default=None)
    parser.add_argument("--k", type=int, default=None,
                        help="propagation depth; defaults to 3 (0 for gcn)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=None,
                        help="fold-level worker processes (default 1, deterministic)")
    parser.add_argument("--out", default=None, help="output root directory")
    parser.add_argument("--data-root", dest="data_root", default=None)
    parser.add_argument("--config", default=None, help="JSON file with default options")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gfnlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_cv = sub.add_parser("cv", help="k-fold cross-validated training")
    _add_common(p_cv)

    p_feat = sub.add_parser("features", help="feature matrix export")
    p_feat.add_argument("action", choices=["export"])
    _add_common(p_feat, with_model=False)
    p_feat.add_argument("--no-degree", action="store_true",
                        help="omit the degree one-hot block")

    p_bench = sub.add_parser("benchmark", help="per-epoch training time comparison")
    _add_common(p_bench, with_model=False)
    p_bench.add_argument("--models", default="gcn,gfn,gfn-light",
                         help="comma list of model kinds to time")
    p_bench.add_argument("--warmup", type=int, default=1,
                         help="epochs dropped before taking the median")

    p_abl = sub.add_parser("ablate", help="feature or depth sweep")
    _add_common(p_abl)
    p_abl.add_argument("--axis", choices=["features", "depth"], required=True)
    p_abl.add_argument("--grid", default=None,
                       help="layer counts for the depth axis: '1..5' or '1,2,3'")

    return parser


def parse_grid(text: str) -> list[int]:
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        values = list(range(int(lo_s), int(hi_s) + 1))
    else:
        values = [int(t) for t in text.split(",") if t.strip()]
    if not values:
        raise ValueError(f"grid {text!r} is empty")
    if min(values) < 0:
        raise ValueError(f"grid {text!r} has a negative layer count")
    return values


def _train_config(resolved: dict) -> TrainConfig:
    return TrainConfig(
        epochs=int(resolved["epochs"]),
        batch_size=int(resolved["batch"]),
        lr=float(resolved["lr"]),
        folds=int(resolved["folds"]),
        seed=int(resolved["seed"]),
        jobs=int(resolved["jobs"]),
    )


def _model_config(resolved: dict, num_classes: int) -> ModelConfig:
    kind = resolved["model"]
    k = _resolve_k(resolved["k"], kind)
    spec = FeatureSpec(use_degree=True, include_raw=True, K=k)
    return ModelConfig(kind=kind, num_classes=num_classes, feature_spec=spec)


def cmd_cv(args: argparse.Namespace, resolved: dict, dataset: Dataset):
    model_config = _model_config(resolved, dataset.num_classes)
    train_config = _train_config(resolved)
    resolved["k"] = model_config.feature_spec.K

    def work(run_dir: Path):
        report = run_cv(dataset, model_config, train_config)
        report_path = run_dir / "report.json"
        report_path.write_text(report.to_json() + "\n")
        return report_path, [report.summary()]

    return f"cv-{dataset.name}-{model_config.kind}", model_config.kind, work


def cmd_features(args: argparse.Namespace, resolved: dict, dataset: Dataset):
    k = _resolve_k(resolved["k"], "gfn")
    spec = FeatureSpec(use_degree=not args.no_degree, include_raw=True, K=k)
    resolved["k"] = spec.K
    resolved["degree"] = spec.use_degree

    def work(run_dir: Path):
        feats = precompute_dataset(dataset, spec)
        csv_dir = run_dir / "features"
        paths = export_csv(dataset, feats, csv_dir)
        return csv_dir, [f"wrote {len(paths)} feature files ({feats[0].width} columns each)"]

    return f"features-{dataset.name}", "", work


def cmd_benchmark(args: argparse.Namespace, resolved: dict, dataset: Dataset):
    kinds = [k.strip() for k in args.models.split(",") if k.strip()]
    if len(kinds) < 2:
        raise DataError("benchmark needs at least two model kinds to compare")
    for kind in kinds:
        if kind not in MODEL_KINDS:
            raise DataError(f"unknown model kind {kind!r} in --models")
    train_config = _train_config(resolved)
    resolved["models"] = kinds
    resolved["warmup"] = args.warmup

    def work(run_dir: Path):
        report = benchmark_timing(dataset, kinds, train_config, warmup=args.warmup)
        report_path = run_dir / "timing.json"
        report_path.write_text(report.to_json() + "\n")
        lines = [f"{'model':<12} {'epoch (s)':>12} {'speedup vs gcn':>16}"]
        for entry in report.entries:
            speed = f"{entry.speedup_vs_gcn:.2f}x" if entry.speedup_vs_gcn else "n/a"
            lines.append(f"{entry.model:<12} {entry.median_epoch_seconds:>12.4f} {speed:>16}")
        return report_path, lines

    return f"benchmark-{dataset.name}", ",".join(kinds), work


def cmd_ablate(args: argparse.Namespace, resolved: dict, dataset: Dataset):
    model_config = _model_config(resolved, dataset.num_classes)
    train_config = _train_config(resolved)
    depth_values = None
    if args.axis == "depth":
        if not args.grid:
            raise UsageError("--axis depth requires --grid (e.g. 1..5)")
        try:
            depth_values = parse_grid(args.grid)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    resolved["axis"] = args.axis
    resolved["grid"] = depth_values

    def work(run_dir: Path):
        rows = ablation_sweep(dataset, args.axis, model_config, train_config,
                              depth_values=depth_values)
        csv_path = run_dir / "ablation.csv"
        write_ablation_csv(rows, train_config, csv_path)
        return csv_path, [
            f"{row['value']}: {100 * row['mean_acc']:.2f} ± {100 * row['std_acc']:.2f}"
            for row in rows
        ]

    return f"ablate-{dataset.name}-{args.axis}", model_config.kind, work


COMMANDS = {
    "cv": cmd_cv,
    "features": cmd_features,
    "benchmark": cmd_benchmark,
    "ablate": cmd_ablate,
}


def run_command(args: argparse.Namespace) -> int:
    """The run lifecycle every subcommand shares.

    Loads the config file, resolves options and the dataset, then hands them
    to the subcommand, which validates them, records derived options in the
    resolved config and returns (run label, model, work). ``work(run_dir)``
    writes the one output and returns its path and the lines to print.
    """
    resolved = _resolve(args, _load_config_file(args.config))
    dataset = resolve_dataset(args.dataset, str(resolved["data_root"]))
    label, model, work = COMMANDS[args.command](args, resolved, dataset)
    run_dir = make_run_dir(Path(resolved["out"]), label)
    manifest = {
        "command": f"{args.command} {getattr(args, 'action', '')}".strip(),
        "dataset": args.dataset,
        "model": model,
        "config": resolved,
        "seeds": [int(resolved["seed"])],
        "started": _now(),
    }
    output, lines = work(run_dir)
    manifest["finished"] = _now()
    manifest["outputs"] = [str(output)]
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"run dir: {run_dir}")
    for line in lines:
        print(line)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
