import json
import os
import platform

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

    def test_invalid_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run(["cv", "--dataset", "synthetic", "--config", str(bad),
                    "--out", str(tmp_path / "r")])
        assert code == 1
        assert "valid JSON" in capsys.readouterr().err

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
    "epochs-not-above-warmup": (["benchmark", "--epochs", "1"], None),
    "negative-warmup": (["benchmark", "--epochs", "3", "--warmup", "-1"], None),
    "negative-k": (["cv", "--k", "-1"], None),
    "fractional-config": (["cv"], {"epochs": 2.7, "folds": 2, "model": "gln"}),
    "boolean-config": (["cv"], {"epochs": True, "folds": 2, "model": "gln"}),
    "boolean-lr": (["cv"], {"lr": True, "epochs": 1, "folds": 2, "model": "gln"}),
    "string-lr": (["cv"], {"lr": "0.01", "epochs": 1, "folds": 2, "model": "gln"}),
    "unknown-config-key": (["cv"], {"epoch": 1}),
    "option-of-another-subcommand": (["benchmark"], {"k": 1}),
    "config-model-not-a-kind": (["cv"], {"model": "mlp"}),
    "nan-lr": (["cv", "--model", "gln", "--lr", "nan", "--epochs", "1", "--folds", "2"], None),
    "inf-lr": (["cv", "--model", "gln", "--lr", "inf", "--epochs", "1", "--folds", "2"], None),
    "ablate-without-axis": (["ablate"], None),
    "config-k-on-features-axis": (["ablate", "--axis", "features", "--epochs", "1", "--folds",
                                   "2"], {"k": 3}),
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


class TestBenchmarkCommand:
    def test_speedup_table(self, tmp_path, capsys):
        out = tmp_path / "runs"
        code = run(["benchmark", "--dataset", "synthetic", "--epochs", "3",
                    "--folds", "2", "--models", "gcn,gfn-light", "--out", str(out)])
        assert code == 0
        timing = json.loads((single_run_dir(out) / "timing.json").read_text())
        by_model = {e["model"]: e for e in timing["entries"]}
        assert by_model["gcn"]["speedup_vs_gcn"] == 1.0
        assert timing["seed"] == 0
        printed = capsys.readouterr().out
        assert "speedup vs gcn" in printed

    def test_single_model_rejected(self, tmp_path, capsys):
        code = run(["benchmark", "--dataset", "synthetic", "--models", "gcn",
                    "--out", str(tmp_path / "r")])
        assert code == 2
        assert "at least two" in capsys.readouterr().err

    def test_unknown_model_rejected(self, tmp_path, capsys):
        out = tmp_path / "r"
        code = run(["benchmark", "--dataset", "synthetic", "--models", "gcn,magic",
                    "--out", str(out)])
        assert code == 2
        assert "usage error: unknown model kind 'magic'" in capsys.readouterr().err
        assert not out.exists()


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

    def test_depth_without_grid_is_usage_error(self, tmp_path, capsys):
        code = run(["ablate", "--dataset", "synthetic", "--axis", "depth",
                    "--out", str(tmp_path / "r")])
        assert code == 2
        assert "--grid" in capsys.readouterr().err


TRAIN_FLAGS = ["--epochs", "2", "--folds", "2", "--seed", "3"]

# subcommand -> (its own flags, manifest command, manifest model, seeds, output name)
MANIFEST_CASES = {
    "cv": (["cv", "--model", "gln"] + TRAIN_FLAGS, "cv", "gln", [3], "report.json"),
    "features": (["features", "export", "--k", "1"], "features export", "", [], "features"),
    "benchmark": (["benchmark", "--models", "gcn,gln"] + TRAIN_FLAGS, "benchmark",
                  "gcn,gln", [3], "timing.json"),
    "ablate": (["ablate", "--model", "gfn", "--axis", "depth", "--grid", "0"] + TRAIN_FLAGS,
               "ablate", "gfn", [3], "ablation.csv"),
    "ablate-features": (["ablate", "--model", "gln", "--axis", "features"] + TRAIN_FLAGS,
                        "ablate", "gln", [3], "ablation.csv"),
}
MANIFEST_KEYS = {"command", "dataset", "model", "config", "seeds", "env", "started",
                 "finished", "outputs", "status", "error"}


def test_each_subcommand_has_only_the_flags_it_reads():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if a.choices and "cv" in a.choices).choices
    flags = {name: {opt for action in p._actions for opt in action.option_strings}
             - {"-h", "--help"} for name, p in subparsers.items()}
    assert sum(len(f) for f in flags.values()) == 43
    assert "--epochs" not in flags["features"] and "--lr" not in flags["features"]
    assert "--k" not in flags["benchmark"] and "--jobs" not in flags["benchmark"]
    for argv in (["features", "export", "--epochs", "3"], ["benchmark", "--k", "1"]):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--dataset", "synthetic"])
        assert exc.value.code == 2


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
    "benchmark": (["benchmark", "--models", "gln,gfn-light"], ("2", "1"), 0),
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
    ["benchmark", "--models", "gln,gfn-light"],    # trains fold 0 only, which has 2 rows
], ids=["cv-gln", "benchmark-fold-0"])
def test_split_below_two_node_rows_trains_where_nothing_normalizes_it(tmp_path, argv):
    out = tmp_path / "runs"
    with pytest.warns(UserWarning, match="fewer than k"):  # each class has one graph
        assert run(argv + ["--dataset", str(_one_and_two_node_graphs(tmp_path)),
                           "--epochs", "2", "--folds", "2", "--out", str(out)]) == 0
    assert len(list(single_run_dir(out).glob("*.json"))) == 2  # manifest and the output


class TestManifest:
    @pytest.mark.parametrize("subcommand", list(MANIFEST_CASES))
    def test_every_subcommand_writes_the_same_manifest(self, tmp_path, subcommand):
        flags, command, model, seeds, output = MANIFEST_CASES[subcommand]
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
        assert manifest["model"] == model
        assert manifest["seeds"] == seeds
        assert manifest["outputs"] == [str(run_dir / output)]
        assert (run_dir / output).exists()

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
