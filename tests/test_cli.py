import ast
import json
import os
import platform
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from gfnlab.cli import build_parser, main, parse_grid, resolve_dataset
from gfnlab.graphs import DataError

from conftest import write_tu_files


def run(args):
    return main(args)


def single_run_dir(out_root):
    dirs = [p for p in out_root.iterdir() if p.is_dir()]
    assert len(dirs) == 1
    return dirs[0]


class TestCvCommand:
    def test_smoke_writes_report_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "runs"
        code = run(["cv", "--dataset", "synthetic", "--model", "gln",
                    "--epochs", "2", "--folds", "2", "--out", str(out)])
        assert code == 0
        run_dir = single_run_dir(out)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["command"] == "cv"
        assert manifest["model"] == "gln"
        assert manifest["config"]["epochs"] == 2
        assert manifest["seeds"] == [0]
        assert manifest["started"] and manifest["finished"]
        report = json.loads((run_dir / "report.json").read_text())
        assert len(report["per_fold_acc"]) == 2
        printed = capsys.readouterr().out
        assert "±" in printed and "@ epoch" in printed

    def test_unknown_model_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["cv", "--dataset", "synthetic", "--model", "mlp"])
        assert exc.value.code == 2

    def test_missing_dataset_exits_one(self, tmp_path, capsys):
        code = run(["cv", "--dataset", "NOPE", "--out", str(tmp_path / "r"),
                    "--data-root", str(tmp_path / "missing")])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_missing_absolute_path_is_listed_once(self, tmp_path, capsys):
        """Under the data root an absolute path is itself, so each form it
        was tried in is the same path: the message names it once."""
        missing = str(tmp_path / "no" / "such" / "set")
        assert run(["cv", "--dataset", missing, "--out", str(tmp_path / "r")]) == 1
        assert f"not found (tried: {missing}). Use" in capsys.readouterr().err

    def test_config_file_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 3, "folds": 2, "model": "gln"}))
        out = tmp_path / "runs"
        code = run(["cv", "--dataset", "synthetic", "--config", str(cfg),
                    "--epochs", "1", "--out", str(out)])
        assert code == 0
        manifest = json.loads((single_run_dir(out) / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 1  # flag beats file
        assert manifest["config"]["folds"] == 2   # file beats default
        assert manifest["model"] == "gln"

    def test_invalid_config_file(self, tmp_path, capsys, monkeypatch):
        def unreadable(path):  # the last case: every read after it is refused
            path.write_text("{}")

            def refuse(self, *args, **kwargs):
                raise PermissionError(13, "Permission denied", str(self))

            monkeypatch.setattr(Path, "read_text", refuse)

        cases = {
            "not-json": (lambda path: path.write_text("{not json"), "is not valid JSON: "),
            "not-utf8": (lambda path: path.write_bytes(b'\xff\xfe{"epochs": 1}'),
                         "cannot be read ('utf-8' codec can't decode byte 0xff"),
            "directory": (Path.mkdir, "is not a file\n"),
            "missing": (lambda path: None, "does not exist\n"),
            "unreadable": (unreadable, "cannot be read ([Errno 13] Permission denied"),
        }
        for case, (make, message) in cases.items():
            bad = tmp_path / case / "config.json"
            bad.parent.mkdir()
            make(bad)
            code = run(["cv", "--dataset", "synthetic", "--config", str(bad),
                        "--out", str(tmp_path / case / "r")])
            err = capsys.readouterr().err
            assert code == 1, case
            assert err.startswith(f"error: config file {bad} {message}") and err.count("\n") == 1
            assert sorted(p.name for p in bad.parent.iterdir()) == ["config.json"] * (case != "missing")

    def test_byte_identical_reports_across_runs(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code = run(["cv", "--dataset", "synthetic", "--model", "gfn-light",
                        "--epochs", "2", "--folds", "2", "--seed", "5",
                        "--jobs", "1", "--out", str(out)])
            assert code == 0
            outs.append((single_run_dir(out) / "report.json").read_bytes())
        assert outs[0] == outs[1]


class TestFeaturesCommand:
    def test_export_writes_one_csv_per_graph(self, tmp_path):
        out = tmp_path / "runs"
        code = run(["features", "export", "--dataset", "synthetic",
                    "--k", "1", "--out", str(out)])
        assert code == 0
        run_dir = single_run_dir(out)
        files = sorted((run_dir / "features").glob("*.csv"))
        assert len(files) == 200
        header = files[0].read_text().splitlines()[0]
        assert header.startswith("# deg_0") and "a1x_0" in header

    def test_k0_without_degree_equals_raw_features(self, tmp_path):
        d = write_tu_files(tmp_path / "raw", "raw",
                           indicator=["1", "1"],
                           edges=["1 2", "2 1"],
                           graph_labels=["1"],
                           node_attributes=["0.25 1.5", "2.0 -3.5"])
        out = tmp_path / "runs"
        code = run(["features", "export", "--dataset", str(d), "--k", "0",
                    "--no-degree", "--out", str(out)])
        assert code == 0
        csv = next((single_run_dir(out) / "features").glob("*.csv"))
        body = np.loadtxt(csv, delimiter=",", comments="#", ndmin=2)
        np.testing.assert_array_equal(body, [[0.25, 1.5], [2.0, -3.5]])


# argument lists that argparse accepts but the run must refuse as usage errors,
# each with the contents of the --config file it runs with (None: no file)
BAD_OPTION_CASES = {
    "zero-epochs": (["cv", "--epochs", "0"], None),
    "one-fold": (["cv", "--folds", "1"], None),
    "non-numeric-config": (["cv"], {"epochs": "ten"}),
    "negative-k": (["cv", "--k", "-1"], None),
    "fractional-config": (["cv"], {"epochs": 2.7, "folds": 2, "model": "gln"}),
    "boolean-config": (["cv"], {"epochs": True, "folds": 2, "model": "gln"}),
    "boolean-lr": (["cv"], {"lr": True, "epochs": 1, "folds": 2, "model": "gln"}),
    "string-lr": (["cv"], {"lr": "0.01", "epochs": 1, "folds": 2, "model": "gln"}),
    "unknown-config-key": (["cv"], {"epoch": 1}),
    "option-of-another-subcommand": (["features", "export"], {"epochs": 1}),
    "config-model-not-a-kind": (["cv"], {"model": "mlp"}),
    "nan-lr": (["cv", "--model", "gln", "--lr", "nan", "--epochs", "1", "--folds", "2"], None),
    "inf-lr": (["cv", "--model", "gln", "--lr", "inf", "--epochs", "1", "--folds", "2"], None),
    "negative-seed": (["cv", "--seed", "-1", "--epochs", "1", "--folds", "2"], None),
    "ablate-without-axis": (["ablate"], None),
    "config-k-on-features-axis": (["ablate", "--axis", "features", "--epochs", "1", "--folds",
                                   "2"], {"k": 3}),
    "model-on-model-axis": (["ablate", "--axis", "model", "--model", "gcn"], None),
    "k-on-model-axis": (["ablate", "--axis", "model", "--k", "1"], None),
    "grid-on-model-axis": (["ablate", "--axis", "model", "--grid", "1..2"], None),
}


@pytest.mark.parametrize("case", list(BAD_OPTION_CASES))
def test_bad_options_exit_two_before_any_run_dir(tmp_path, capsys, case):
    args, config = BAD_OPTION_CASES[case]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args = args + ["--config", str(cfg)]
    out = tmp_path / "runs"
    code = run(args + ["--dataset", "synthetic", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "usage error:" in err
    assert "Traceback" not in err
    assert not out.exists()
    if case == "negative-seed":
        assert "seed" in err


UNUSABLE_OUT_CASES = {
    "cv": ["cv", "--model", "gln", "--epochs", "1", "--folds", "2"],
    "features": ["features", "export", "--k", "1"],
    "ablate": ["ablate", "--axis", "features", "--model", "gln", "--epochs", "1", "--folds", "2"],
}


@pytest.mark.parametrize("where", ["file", "below-a-file", "nul-byte"])
@pytest.mark.parametrize("command", list(UNUSABLE_OUT_CASES))
def test_unusable_out_exits_two_with_nothing_written(tmp_path, capsys, command, where):
    blocker = tmp_path / "a-file"
    blocker.write_text("kept")
    argv = UNUSABLE_OUT_CASES[command] + ["--dataset", "synthetic"]
    if where == "nul-byte":  # argv cannot carry a NUL byte; a config file can
        out = tmp_path / "a\0b"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out": str(out)}))
        argv += ["--config", str(config)]
    else:
        out = blocker / "runs" if where == "below-a-file" else blocker
        argv += ["--out", str(out)]
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert f"usage error: --out {out} " in err and "Traceback" not in err
    assert blocker.read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-file"] + ["config.json"] * (
        where == "nul-byte")


# The interpreter's default filter shows a UserWarning; the suite's raises it.
@pytest.mark.filterwarnings("default:feature cache directory:UserWarning")
def test_unwritable_feature_cache_warns_and_the_run_ends_ok(tmp_path, monkeypatch, capsys):
    argv = ["cv", "--dataset", "synthetic", "--model", "gfn", "--epochs", "1", "--folds", "2"]
    assert run(argv + ["--out", str(tmp_path / "cached")]) == 0
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    monkeypatch.setenv("GFNLAB_CACHE", str(blocker / "sub"))
    capsys.readouterr()
    assert run(argv + ["--out", str(tmp_path / "uncached")]) == 0
    sub = re.escape(str(blocker / "sub"))
    assert re.fullmatch(f"warning: feature cache directory {sub} is not writable "
                        rf"\(\[Errno \d+\] [^\n]*\); features not cached\n",
                        capsys.readouterr().err)
    run_dir = single_run_dir(tmp_path / "uncached")
    assert json.loads((run_dir / "manifest.json").read_text())["status"] == "ok"
    cached = single_run_dir(tmp_path / "cached") / "report.json"
    assert (run_dir / "report.json").read_bytes() == cached.read_bytes()


class TestAblateCommand:
    def test_depth_grid(self, tmp_path):
        out = tmp_path / "runs"
        code = run(["ablate", "--dataset", "synthetic", "--model", "gfn",
                    "--axis", "depth", "--grid", "0..1", "--epochs", "1",
                    "--folds", "2", "--out", str(out)])
        assert code == 0
        csv_path = single_run_dir(out) / "ablation.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("# seed=")
        assert len(lines) == 4  # comment + header + 2 rows

    def test_empty_grid_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "r"
        for grid in ("5..1", ","):
            code = run(["ablate", "--dataset", "synthetic", "--axis", "depth",
                        "--grid", grid, "--out", str(out)])
            assert code == 2
            err = capsys.readouterr().err
            assert "usage error:" in err and "empty" in err
        assert not out.exists()

    def test_negative_grid_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "r"
        code = run(["ablate", "--dataset", "synthetic", "--axis", "depth",
                    "--grid=-1..1", "--out", str(out)])
        assert code == 2
        assert "negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["1..", "a,2"])
    def test_malformed_grid_names_the_option(self, tmp_path, capsys, grid):
        out = tmp_path / "r"
        code = run(["ablate", "--dataset", "synthetic", "--axis", "depth",
                    "--grid", grid, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert (f"usage error: --grid takes a range like 1..5 or a list like 1,2,3, got '{grid}'"
                in err)
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--k", "1"], ["--grid", "7"]])
    def test_features_axis_rejects_depth_options(self, tmp_path, capsys, flags):
        out = tmp_path / "r"
        code = run(["ablate", "--dataset", "synthetic", "--axis", "features", "--epochs", "1",
                    "--folds", "2", "--out", str(out)] + flags)
        assert code == 2
        err = capsys.readouterr().err
        assert f"{flags[0]} " in err and "--axis features" in err
        assert not out.exists()

    @pytest.mark.parametrize("model", ["gln", "gfn-light"])
    def test_depth_axis_needs_a_conv_stack(self, tmp_path, capsys, model):
        out = tmp_path / "r"
        code = run(["ablate", "--dataset", "synthetic", "--axis", "depth", "--grid", "0..3",
                    "--model", model, "--epochs", "1", "--folds", "2", "--out", str(out)])
        assert code == 2
        assert model in capsys.readouterr().err
        assert not out.exists()

    def test_model_axis_trains_and_times_every_kind(self, tmp_path, capsys):
        out = tmp_path / "runs"
        code = run(["ablate", "--dataset", "synthetic", "--axis", "model", "--epochs", "2",
                    "--folds", "2", "--out", str(out)])
        assert code == 0
        run_dir = single_run_dir(out)
        ablation = (run_dir / "ablation.csv").read_text().splitlines()
        timing = (run_dir / "timing.csv").read_text().splitlines()
        assert ablation[1] == "axis,value,mean_acc,std_acc,best_epoch"
        assert [line.split(",")[1] for line in ablation[2:]] == ["gcn", "gfn", "gfn-light", "gln"]
        assert timing[0] == ablation[0] and timing[1] == "value,precompute_s,epoch_s"
        assert [line.split(",")[0] for line in timing[2:]] == ["gcn", "gfn", "gfn-light", "gln"]
        assert all(float(x) >= 0 for line in timing[2:] for x in line.split(",")[1:])
        manifest = json.loads((run_dir / "manifest.json").read_text())  # the rest: MANIFEST_CASES
        assert "model" not in manifest["config"] and "k" not in manifest["config"]
        assert capsys.readouterr().out.count(" ms\n") == 4

    def test_depth_without_grid_is_usage_error(self, tmp_path, capsys):
        code = run(["ablate", "--dataset", "synthetic", "--axis", "depth",
                    "--out", str(tmp_path / "r")])
        assert code == 2
        assert "--grid" in capsys.readouterr().err


TRAIN_FLAGS = ["--epochs", "2", "--folds", "2", "--seed", "3"]

ABLATE_OUTPUTS = ("ablation.csv", "timing.csv")
# subcommand -> (its own flags, manifest command, manifest model, seeds, output names)
MANIFEST_CASES = {
    "cv": (["cv", "--model", "gln"] + TRAIN_FLAGS, "cv", "gln", [3], ("report.json",)),
    "features": (["features", "export", "--k", "1"], "features export", "", [], ("features",)),
    "ablate-model": (["ablate", "--axis", "model"] + TRAIN_FLAGS, "ablate",
                     "gcn,gfn,gfn-light,gln", [3], ABLATE_OUTPUTS),
    "ablate": (["ablate", "--model", "gfn", "--axis", "depth", "--grid", "0"] + TRAIN_FLAGS,
               "ablate", "gfn", [3], ABLATE_OUTPUTS),
    "ablate-features": (["ablate", "--model", "gln", "--axis", "features"] + TRAIN_FLAGS,
                        "ablate", "gln", [3], ABLATE_OUTPUTS),
}
MANIFEST_KEYS = {"command", "dataset", "dataset_sha256", "model", "config", "seeds", "env",
                 "started", "finished", "outputs", "status", "error"}


def _subcommand_flags() -> dict[str, set[str]]:
    parser = build_parser()
    subparsers = next(a for a in parser._actions if a.choices and "cv" in a.choices).choices
    return {name: {opt for action in p._actions for opt in action.option_strings}
            - {"-h", "--help"} for name, p in subparsers.items()}


def test_each_subcommand_has_only_the_flags_it_reads():
    flags = _subcommand_flags()
    assert sum(len(f) for f in flags.values()) == 32
    assert "--epochs" not in flags["features"] and "--lr" not in flags["features"]
    assert "--axis" not in flags["cv"] and "--grid" not in flags["cv"]
    for argv in (["features", "export", "--epochs", "3"], ["cv", "--axis", "model"],
                 ["benchmark"]):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--dataset", "synthetic"])
        assert exc.value.code == 2


EMPTY_DATASET_CASES = {
    f"{name}{suffix}": (argv, node_files)
    for name, argv in (("features", ["features", "export"]), ("cv", ["cv"]))
    for suffix, node_files in (("", {}), ("-node-labels", {"node_labels": []}),
                               ("-node-attributes", {"node_attributes": []}))
}


@pytest.mark.parametrize("argv, node_files", EMPTY_DATASET_CASES.values(),
                         ids=EMPTY_DATASET_CASES.keys())
def test_empty_dataset_exits_one_before_any_run_dir(tmp_path, capsys, argv, node_files):
    d = write_tu_files(tmp_path / "empty", "empty", indicator=[], edges=[], graph_labels=[],
                       **node_files)
    out = tmp_path / "runs"
    code = run(argv + ["--dataset", str(d), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: dataset empty holds no graphs" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_attribute_exits_one_before_any_run_dir(tmp_path, capsys, value):
    indicator = [str(1 + i // 2) for i in range(8)]
    attributes = ["0.5"] * 7 + [value]
    d = write_tu_files(tmp_path / "nf", "nf", indicator=indicator,
                       edges=[f"{u} {u + 1}" for u in range(1, 9, 2)],
                       graph_labels=["1", "2", "1", "2"], node_attributes=attributes)
    out = tmp_path / "runs"
    code = run(["cv", "--dataset", str(d), "--model", "gfn", "--epochs", "2", "--folds", "2",
                "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: nf_node_attributes.txt contains a non-finite value" in err
    assert "Traceback" not in err and not out.exists()


UNREADABLE_NUMBER_CASES = {
    f"{part}-{what}": (part, token, message)
    for part in ("graph_labels", "A", "node_labels")
    for what, token, message in (
        ("above-int64", b"99999999999999999999", "contains an integer outside int64"),
        ("non-utf8", b"\xff", "contains non-numeric data"))
}


@pytest.mark.parametrize("case", UNREADABLE_NUMBER_CASES)
def test_unreadable_number_exits_one_before_any_run_dir(tmp_path, capsys, case):
    part, token, message = UNREADABLE_NUMBER_CASES[case]
    d = write_tu_files(tmp_path / "num", "num", indicator=[str(1 + i // 2) for i in range(8)],
                       edges=[f"{u} {u + 1}" for u in range(1, 9, 2)],
                       graph_labels=["1", "2", "1", "2"], node_labels=["1", "2"] * 4)
    path = d / f"num_{part}.txt"
    path.write_bytes(path.read_bytes().replace(b"2", token, 1))
    out = tmp_path / "runs"
    code = run(["cv", "--dataset", str(d), "--model", "gfn", "--epochs", "2", "--folds", "2",
                "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"num_{part}.txt {message}" in err
    assert "Traceback" not in err and not out.exists()


README = Path(__file__).resolve().parents[1] / "README.md"
SHARED_FLAGS = {"--dataset", "--config", "--out", "--data-root"}  # named in the README's prose


def test_readme_names_exactly_the_subcommands_and_flags_the_parser_builds():
    """The README's subcommand table lists every subcommand with exactly the
    flags it takes beyond the shared ones, every flag the README names in
    backticks exists, and every ``gfnlab`` example line parses."""
    text = README.read_text()
    flags = _subcommand_flags()
    rows = text.split("| subcommand | flags |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    table = {re.match(r"\| `(\w+)", row).group(1): set(re.findall(r"`(--[a-z-]+)", row))
             for row in rows.splitlines()}
    assert table == {name: names - SHARED_FLAGS for name, names in flags.items()}
    assert all(SHARED_FLAGS <= names for names in flags.values())
    assert set(re.findall(r"`(--[a-z-]+)", text)) <= set().union(*flags.values())
    examples = re.findall(r"^gfnlab (.*)$", text, re.M)
    assert {line.split()[0] for line in examples} == set(flags)
    for line in examples:
        build_parser().parse_args(shlex.split(line, comments=True))


def test_readme_layout_names_exactly_the_modules():
    """The README's Layout table has one row per module of the package."""
    rows = README.read_text().split("| module | what it does |\n| --- | --- |\n", 1)[1]
    table = re.findall(r"^\| `gfnlab\.(\w+)` \|", rows.split("\n\n", 1)[0], re.M)
    package = README.parent / "src" / "gfnlab"
    modules = {p.stem for p in package.glob("*.py")} - {"__init__"}
    assert sorted(table) == sorted(modules)


def _names_read(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name a piece of code outside ``skip`` reads: bare names,
    attributes, imported names and string constants (perfbench patches
    functions by name)."""
    read, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        todo.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def _defined_names(statement: ast.stmt) -> list[str]:
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = statement.targets if isinstance(statement, ast.Assign) else (
        [statement.target] if isinstance(statement, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_every_public_name_has_a_reader_outside_the_tests():
    """Each public module-level function, class or constant of the package,
    and each public method or property of its classes, is read by another of
    its modules, by the rest of its own module or by perfbench: public API
    that only tests use belongs in the tests."""
    root = README.parent
    trees = {p.stem: ast.parse(p.read_text()) for p in (root / "src" / "gfnlab").glob("*.py")}
    perfbench = [ast.parse(p.read_text()) for p in (root / "perfbench").glob("*.py")]
    unread = []
    for module, tree in trees.items():
        outside = set().union(*map(_names_read, perfbench),
                              *(_names_read(t) for m, t in trees.items() if m != module))
        defined = [(statement, name) for statement in tree.body
                   for name in _defined_names(statement)]
        defined += [(member, f"{cls.name}.{member.name}") for cls in tree.body
                    if isinstance(cls, ast.ClassDef) for member in cls.body
                    if isinstance(member, ast.FunctionDef)]
        unread += [f"{module}.{name}" for statement, name in defined
                   if not name.split(".")[-1].startswith("_")
                   and name.split(".")[-1] not in outside | _names_read(tree, skip=statement)]
    assert unread == []


def test_folds_above_graph_count_exit_two_before_any_run_dir(tmp_path, capsys):
    d = write_tu_files(tmp_path / "three", "three",
                       indicator=["1", "1", "2", "2", "3", "3"],
                       edges=["1 2", "2 1", "3 4", "4 3", "5 6", "6 5"],
                       graph_labels=["1", "2", "1"])
    out = tmp_path / "runs"
    for model in ("gln", "gcn"):
        code = run(["cv", "--dataset", str(d), "--model", model, "--epochs", "1",
                    "--folds", "4", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "usage error:" in err and "Traceback" not in err
        assert "at most the 3 graphs of three" in err and "no test graph" in err
    assert not out.exists()


def _one_and_two_node_graphs(tmp_path, labels=("1", "2")):
    """A one-node graph and a two-node graph. Each class has one graph, so with
    two folds the one-node graph is the whole training split of one fold:
    fold 1 with the default labels, fold 0 with them swapped."""
    return write_tu_files(tmp_path / "tiny", "tiny", indicator=["1", "2", "2"],
                          edges=["2 3", "3 2"], graph_labels=list(labels))


SHORT_SPLIT_CASES = {
    "cv-gfn": (["cv", "--model", "gfn"], ("1", "2"), 1),
    "cv-gcn": (["cv", "--model", "gcn"], ("1", "2"), 1),
    "cv-gfn-light": (["cv", "--model", "gfn-light"], ("1", "2"), 1),
    "ablate": (["ablate", "--axis", "features"], ("1", "2"), 1),
    "ablate-model": (["ablate", "--axis", "model"], ("2", "1"), 0),
}


@pytest.mark.parametrize("case", SHORT_SPLIT_CASES)
def test_train_split_below_two_node_rows_exits_two_before_any_run_dir(tmp_path, capsys, case):
    argv, labels, fold = SHORT_SPLIT_CASES[case]
    out = tmp_path / "runs"
    code = run(argv + ["--dataset", str(_one_and_two_node_graphs(tmp_path, labels)),
                       "--epochs", "2", "--folds", "2", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"usage error: fold {fold} trains on 1 node row" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["cv", "--model", "gln"],                      # no batch norm
], ids=["cv-gln"])
@pytest.mark.filterwarnings(r"default:class \d+ has:UserWarning")
def test_split_below_two_node_rows_trains_where_nothing_normalizes_it(tmp_path, capsys, argv):
    out = tmp_path / "runs"
    assert run(argv + ["--dataset", str(_one_and_two_node_graphs(tmp_path)),
                       "--epochs", "2", "--folds", "2", "--out", str(out)]) == 0
    assert len(list(single_run_dir(out).glob("*.json"))) == 2  # manifest and the output
    # each class has one graph
    assert capsys.readouterr().err.splitlines() == [
        f"warning: class {c} has 1 graphs, fewer than k=2; stratification is best-effort"
        for c in (0, 1)]


class TestManifest:
    @pytest.mark.parametrize("subcommand", list(MANIFEST_CASES))
    def test_every_subcommand_writes_the_same_manifest(self, tmp_path, subcommand):
        flags, command, model, seeds, outputs = MANIFEST_CASES[subcommand]
        out = tmp_path / "runs"
        code = run(flags + ["--dataset", "synthetic", "--out", str(out)])
        assert code == 0
        run_dir = single_run_dir(out)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert set(manifest) == MANIFEST_KEYS
        assert manifest["status"] == "ok" and manifest["error"] is None
        assert manifest["env"]["python"] == platform.python_version()
        assert manifest["env"]["numpy"] == np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["env"]["blas"] == f"{blas['name']} {blas['version']}"
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            assert manifest["env"][var] == os.environ.get(var)
        assert manifest["command"] == command
        assert manifest["dataset_sha256"] == resolve_dataset("synthetic", "data").fingerprint
        assert manifest["model"] == model
        assert manifest["seeds"] == seeds
        assert manifest["outputs"] == [str(run_dir / name) for name in outputs]
        assert all((run_dir / name).exists() for name in outputs)

    @pytest.mark.parametrize("subcommand", list(MANIFEST_CASES))
    def test_config_replays(self, tmp_path, subcommand):
        flags = MANIFEST_CASES[subcommand][0]
        command = flags[:2] if subcommand == "features" else flags[:1]
        first = self._run_manifest(flags, tmp_path / "first")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(first["config"]))
        second = self._run_manifest(command + ["--config", str(cfg)], tmp_path / "second")
        assert second["config"].pop("out") == str(tmp_path / "second")
        assert first["config"].pop("out") == str(tmp_path / "first")
        assert second["config"] == first["config"]
        assert second["model"] == first["model"] and second["seeds"] == first["seeds"]

    def test_dataset_sha256_follows_the_content(self, tmp_path):
        def sha256(directory, graph_labels):
            d = write_tu_files(directory / "tiny", "tiny", indicator=["1", "1", "2", "3", "3"],
                               edges=["1 2", "2 1", "4 5", "5 4"], graph_labels=graph_labels)
            out = directory / "runs"
            assert run(["features", "export", "--dataset", str(d), "--out", str(out)]) == 0
            return json.loads((single_run_dir(out) / "manifest.json").read_text())["dataset_sha256"]

        first = sha256(tmp_path / "a", ["1", "2", "1"])
        assert sha256(tmp_path / "b", ["1", "2", "1"]) == first
        assert sha256(tmp_path / "c", ["2", "2", "1"]) != first

    def test_features_axis_records_neither_k_nor_grid(self, tmp_path):
        manifest = self._run_manifest(MANIFEST_CASES["ablate-features"][0], tmp_path / "runs")
        assert manifest["config"]["axis"] == "features"
        assert "k" not in manifest["config"] and "grid" not in manifest["config"]

    @staticmethod
    def _run_manifest(flags, out):
        assert run(flags + ["--dataset", "synthetic", "--out", str(out)]) == 0
        return json.loads((single_run_dir(out) / "manifest.json").read_text())

    def test_failed_run_records_status_and_error(self, tmp_path, monkeypatch):
        def broken_run_cv(*args, **kwargs):
            raise RuntimeError("fold 0 diverged")

        monkeypatch.setattr("gfnlab.cli.run_cv", broken_run_cv)
        out = tmp_path / "runs"
        with pytest.raises(RuntimeError, match="diverged"):
            run(["cv", "--dataset", "synthetic", "--model", "gln", "--out", str(out)])
        manifest = json.loads((single_run_dir(out) / "manifest.json").read_text())
        assert set(manifest) == MANIFEST_KEYS
        assert manifest["status"] == "failed"
        assert manifest["error"] == "RuntimeError: fold 0 diverged"
        assert manifest["finished"] and manifest["outputs"] == []


class TestGridParser:
    def test_range_form(self):
        assert parse_grid("1..5") == [1, 2, 3, 4, 5]

    def test_comma_form(self):
        assert parse_grid("1, 3,7") == [1, 3, 7]

    def test_empty_forms_parse_to_nothing(self):
        # ablation_cells refuses an empty grid, and ModelConfig a negative count
        assert parse_grid("5..1") == []
        assert parse_grid(",") == []


class TestDatasetResolution:
    def test_builtin_names(self):
        assert len(resolve_dataset("synthetic", "data")) == 200
        dense = resolve_dataset("synthetic-dense", "data")
        assert all(g.graph.edge_count >= 5 * g.graph.num_nodes for g in dense.graphs)

    def test_directory_path(self, tmp_path):
        d = write_tu_files(tmp_path / "mini", "mini", ["1", "1"], ["1 2", "2 1"], ["1"])
        ds = resolve_dataset(str(d), "data")
        assert ds.name == "mini" and len(ds) == 1

    def test_name_under_data_root(self, tmp_path):
        write_tu_files(tmp_path / "root" / "mini", "mini",
                       ["1", "1"], ["1 2", "2 1"], ["1"])
        ds = resolve_dataset("mini", str(tmp_path / "root"))
        assert len(ds) == 1

    def test_nested_layout_under_data_root(self, tmp_path):
        write_tu_files(tmp_path / "root" / "mini" / "mini", "mini",
                       ["1", "1"], ["1 2", "2 1"], ["1"])
        ds = resolve_dataset("mini", str(tmp_path / "root"))
        assert len(ds) == 1

    def test_missing_everywhere(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            resolve_dataset("ghost", str(tmp_path))
