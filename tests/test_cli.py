import json

import numpy as np
import pytest

from gfnlab.cli import main, parse_grid, resolve_dataset
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
        assert code == 1
        assert "at least two" in capsys.readouterr().err

    def test_unknown_model_rejected(self, tmp_path, capsys):
        code = run(["benchmark", "--dataset", "synthetic", "--models", "gcn,magic",
                    "--out", str(tmp_path / "r")])
        assert code == 1
        assert "unknown model kind" in capsys.readouterr().err


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
        code = run(["ablate", "--dataset", "synthetic", "--axis", "depth",
                    "--grid", "5..1", "--out", str(tmp_path / "r")])
        assert code == 2
        assert "empty" in capsys.readouterr().err

    def test_negative_grid_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "r"
        code = run(["ablate", "--dataset", "synthetic", "--axis", "depth",
                    "--grid=-1..1", "--out", str(out)])
        assert code == 2
        assert "negative" in capsys.readouterr().err
        assert not out.exists()

    def test_depth_without_grid_is_usage_error(self, tmp_path, capsys):
        code = run(["ablate", "--dataset", "synthetic", "--axis", "depth",
                    "--out", str(tmp_path / "r")])
        assert code == 2
        assert "--grid" in capsys.readouterr().err


# subcommand -> (its own flags, manifest command, manifest model, output name)
MANIFEST_CASES = {
    "cv": (["cv", "--model", "gln"], "cv", "gln", "report.json"),
    "features": (["features", "export"], "features export", "", "features"),
    "benchmark": (["benchmark", "--models", "gcn,gln"], "benchmark",
                  "gcn,gln", "timing.json"),
    "ablate": (["ablate", "--model", "gln", "--axis", "depth", "--grid", "0"], "ablate",
               "gln", "ablation.csv"),
}


class TestManifest:
    @pytest.mark.parametrize("subcommand", list(MANIFEST_CASES))
    def test_every_subcommand_writes_the_same_manifest(self, tmp_path, subcommand):
        flags, command, model, output = MANIFEST_CASES[subcommand]
        out = tmp_path / "runs"
        code = run(flags + ["--dataset", "synthetic", "--epochs", "2", "--folds", "2",
                            "--seed", "3", "--out", str(out)])
        assert code == 0
        run_dir = single_run_dir(out)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert set(manifest) == {"command", "dataset", "model", "config", "seeds",
                                 "started", "finished", "outputs"}
        assert manifest["command"] == command
        assert manifest["model"] == model
        assert manifest["seeds"] == [3]
        assert manifest["outputs"] == [str(run_dir / output)]
        assert (run_dir / output).exists()


class TestGridParser:
    def test_range_form(self):
        assert parse_grid("1..5") == [1, 2, 3, 4, 5]

    def test_comma_form(self):
        assert parse_grid("1, 3,7") == [1, 3, 7]

    def test_empty_forms_raise(self):
        with pytest.raises(ValueError):
            parse_grid("5..1")
        with pytest.raises(ValueError):
            parse_grid(",")


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
