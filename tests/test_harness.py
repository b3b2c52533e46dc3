import json
import warnings

import numpy as np
import pytest

from gfnlab.graphs import (
    AttributedGraph,
    Dataset,
    Graph,
    generate_dense_synthetic,
    generate_synthetic_dataset,
)
from gfnlab import harness
from gfnlab.harness import (
    CVReport,
    FoldTrace,
    TimingEntry,
    TimingReport,
    TrainConfig,
    ablation_sweep,
    benchmark_timing,
    feature_ablation_cells,
    prepare_dataset,
    run_cv,
    select_best_epoch,
    train_fold,
    write_ablation_csv,
)
from gfnlab.models import ModelConfig, make_batch


def tiny_config(**kw):
    base = dict(epochs=2, batch_size=16, lr=0.001, folds=2, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(folds=1)
        with pytest.raises(ValueError):
            TrainConfig(lr=-0.1)
        for lr in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                TrainConfig(lr=lr)


class TestPrepare:
    def test_adjacency_only_for_aggregating_models(self):
        ds = generate_synthetic_dataset(8, seed=0)
        gcn, _ = prepare_dataset(ds, ModelConfig(kind="gcn", num_classes=2))
        gfn, _ = prepare_dataset(ds, ModelConfig(kind="gfn", num_classes=2))
        assert gcn.adjacencies is not None and len(gcn.adjacencies) == 8
        assert gfn.adjacencies is None
        assert gcn.features[0].dtype == np.float32

    def test_feature_timing_reported(self):
        ds = generate_synthetic_dataset(8, seed=0)
        _, seconds = prepare_dataset(ds, ModelConfig(kind="gfn", num_classes=2))
        assert seconds >= 0


class TestEpochSelection:
    def test_earliest_argmax_wins(self):
        traces = [
            FoldTrace(0, 9, 3, test_acc=[0.5, 0.8, 0.8, 0.7]),
            FoldTrace(1, 9, 3, test_acc=[0.5, 0.8, 0.8, 0.7]),
        ]
        best, mean, std, per_fold = select_best_epoch(traces)
        assert best == 1
        assert mean == pytest.approx(0.8)
        assert std == 0.0
        assert per_fold == [0.8, 0.8]

    def test_mean_across_folds_decides(self):
        traces = [
            FoldTrace(0, 9, 3, test_acc=[0.9, 0.4]),
            FoldTrace(1, 9, 3, test_acc=[0.1, 0.8]),
        ]
        best, mean, std, _ = select_best_epoch(traces)
        assert best == 1  # mean .6 beats .5
        assert mean == pytest.approx(0.6)
        assert std == pytest.approx(0.2)


class TestTrainFold:
    def test_zero_lr_freezes_metrics(self):
        ds = generate_synthetic_dataset(24, seed=1)
        cfg = ModelConfig(kind="gfn", num_classes=2, hidden_dim=16)
        prepared, _ = prepare_dataset(ds, cfg)
        idx = np.arange(24)
        trace = train_fold(prepared, cfg, tiny_config(epochs=4, lr=0.0),
                           fold=0, train_idx=idx[:18], test_idx=idx[18:])
        assert len(set(trace.test_acc)) == 1  # parameters never move
        assert len(trace.epoch_seconds) == 4

    def test_metrics_can_be_skipped(self):
        ds = generate_synthetic_dataset(16, seed=1)
        cfg = ModelConfig(kind="gln", num_classes=2)
        prepared, _ = prepare_dataset(ds, cfg)
        idx = np.arange(16)
        trace = train_fold(prepared, cfg, tiny_config(), 0, idx[:12], idx[12:],
                           record_metrics=False)
        assert trace.test_acc == [] and trace.train_acc == []
        assert len(trace.epoch_seconds) == 2

    def test_one_row_tail_batch_joins_the_previous_batch(self, monkeypatch):
        """Ten single-node training graphs in batches of 9 leave a one-row
        tail, which batch norm cannot normalize in train mode."""
        graphs = [AttributedGraph(Graph.from_edges(1, []), [[float(i % 2)]], i % 2)
                  for i in range(20)]
        ds = Dataset("singletons", graphs, num_classes=2, feature_dim=1)
        sizes = []

        def recording_make_batch(features, labels, adjacencies=None):
            sizes.append(len(features))
            return make_batch(features, labels, adjacencies)

        monkeypatch.setattr(harness, "make_batch", recording_make_batch)
        train_config = TrainConfig(epochs=1, batch_size=9, folds=2)
        report = run_cv(ds, ModelConfig("gfn-light", 2), train_config)
        assert len(report.per_fold_acc) == 2
        assert sizes == [10, 9, 1] * 2  # one merged train batch, then the eval batches per fold

    def test_one_row_batch_joins_the_next_batch(self, monkeypatch):
        """Single-node graphs in batches of one: each one-row batch takes in
        the batch after it, so every train batch has two rows."""
        graphs = [AttributedGraph(Graph.from_edges(1, []), [[float(i % 2)]], i % 2)
                  for i in range(20)]
        ds = Dataset("singletons", graphs, num_classes=2, feature_dim=1)
        sizes = []

        def recording_make_batch(features, labels, adjacencies=None):
            sizes.append(len(features))
            return make_batch(features, labels, adjacencies)

        monkeypatch.setattr(harness, "make_batch", recording_make_batch)
        run_cv(ds, ModelConfig("gfn", 2), TrainConfig(epochs=1, batch_size=1, folds=2))
        assert sizes == ([2] * 5 + [1] * 10) * 2  # train batches, then eval batches per fold

    def test_trace_json_form_has_no_timings(self):
        """Epoch wall times stay out of report.json at any depth but stay in
        every timing.json entry."""
        trace = FoldTrace(0, 5, 5, test_acc=[0.5], epoch_seconds=[0.123])
        report = CVReport("d", "gln", {}, {}, 0, 0.5, 0.0, [0.5], [trace, trace])
        assert "epoch_seconds" not in report.to_json()
        assert trace.epoch_seconds == [0.123]
        timing = TimingReport("d", 2, 1, 0, [TimingEntry("gcn", 0.0, [0.3, 0.2], 0.2),
                                             TimingEntry("gln", 0.0, [0.1, 0.1], 0.1)])
        entries = json.loads(timing.to_json())["entries"]
        assert [e["epoch_seconds"] for e in entries] == [[0.3, 0.2], [0.1, 0.1]]


class TestRunCV:
    def test_learns_the_synthetic_task(self):
        ds = generate_synthetic_dataset(60, seed=2)
        report = run_cv(ds, ModelConfig(kind="gfn", num_classes=2, hidden_dim=32),
                        TrainConfig(epochs=15, batch_size=32, folds=4, seed=0))
        assert report.mean_acc >= 0.95

    def test_reports_are_deterministic(self):
        ds = generate_synthetic_dataset(20, seed=3)
        cfg = ModelConfig(kind="gfn", num_classes=2, hidden_dim=8)
        a = run_cv(ds, cfg, tiny_config(seed=11))
        b = run_cv(ds, cfg, tiny_config(seed=11))
        assert a.to_json() == b.to_json()

    def test_different_seed_changes_folds(self):
        ds = generate_synthetic_dataset(20, seed=3)
        cfg = ModelConfig(kind="gln", num_classes=2)
        a = run_cv(ds, cfg, tiny_config(seed=1))
        b = run_cv(ds, cfg, tiny_config(seed=2))
        assert a.to_json() != b.to_json()

    def test_parallel_folds_match_serial(self):
        ds = generate_synthetic_dataset(16, seed=4)
        cfg = ModelConfig(kind="gln", num_classes=2)
        serial = json.loads(run_cv(ds, cfg, tiny_config(epochs=1)).to_json())
        parallel = json.loads(run_cv(ds, cfg, tiny_config(epochs=1, jobs=2)).to_json())
        # the config echo records the jobs knob; the numbers must not move
        assert serial.pop("train_config")["jobs"] == 1
        assert parallel.pop("train_config")["jobs"] == 2
        assert serial == parallel

    def test_report_fields(self):
        ds = generate_synthetic_dataset(16, seed=5)
        cfg = ModelConfig(kind="gfn-light", num_classes=2, hidden_dim=8)
        report = run_cv(ds, cfg, tiny_config())
        payload = json.loads(report.to_json())
        assert payload["model"] == "gfn-light"
        assert payload["train_config"]["seed"] == 0
        assert len(payload["per_fold_acc"]) == 2
        assert len(payload["folds"][0]["test_acc"]) == 2
        assert "± " in report.summary() and "@ epoch" in report.summary()


class TestAblation:
    def test_feature_cells_cover_the_grid(self):
        cells = feature_ablation_cells()
        names = [name for name, _ in cells]
        assert len(cells) == 8
        assert names == ["none", "a1x", "a12x", "a123x", "d", "d+a1x", "d+a12x", "d+a123x"]
        for name, spec in cells:
            assert "x_0" in spec.column_names(degree_cap=1, feature_dim=1)  # X always enters
            assert spec.use_degree == name.startswith("d")

    def test_depth_sweep_rows(self, tmp_path):
        ds = generate_synthetic_dataset(16, seed=9)
        cfg = ModelConfig(kind="gfn", num_classes=2, hidden_dim=8)
        rows = ablation_sweep(ds, "depth", cfg, tiny_config(epochs=1),
                              depth_values=[0, 1])
        assert [r["value"] for r in rows] == [0, 1]
        csv_path = tmp_path / "out.csv"
        write_ablation_csv(rows, tiny_config(epochs=1), csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("# seed=0")
        assert lines[1] == "axis,value,mean_acc,std_acc,best_epoch"
        assert len(lines) == 4

    def test_unknown_axis_rejected(self):
        ds = generate_synthetic_dataset(8, seed=9)
        cfg = ModelConfig(kind="gfn", num_classes=2)
        with pytest.raises(ValueError, match="axis"):
            ablation_sweep(ds, "width", cfg, tiny_config())
        with pytest.raises(ValueError, match="layer count"):
            ablation_sweep(ds, "depth", cfg, tiny_config(), depth_values=[])

    def test_negative_depth_rejected_before_any_cell_trains(self, monkeypatch):
        def train(*args, **kwargs):
            raise AssertionError("a cell trained before the grid was validated")

        monkeypatch.setattr(harness, "run_cv", train)
        ds = generate_synthetic_dataset(8, seed=9)
        cfg = ModelConfig(kind="gfn", num_classes=2)
        with pytest.raises(ValueError, match="nonnegative"):
            ablation_sweep(ds, "depth", cfg, tiny_config(), depth_values=[1, -1])


class TestBenchmark:
    def test_speedup_relative_to_gcn(self):
        ds = generate_synthetic_dataset(24, seed=10)
        report = benchmark_timing(ds, ["gcn", "gfn-light"],
                                  tiny_config(epochs=3, folds=2), warmup=1)
        by_model = {e.model: e for e in report.entries}
        assert by_model["gcn"].speedup_vs_gcn == 1.0
        assert by_model["gfn-light"].speedup_vs_gcn > 0
        assert report.seed == 0

    def test_no_gcn_entry_leaves_speedups_unset_without_a_warning(self):
        ds = generate_synthetic_dataset(16, seed=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = benchmark_timing(ds, ["gln", "gfn-light"], tiny_config(epochs=2, folds=2),
                                      warmup=1)
        assert [e.speedup_vs_gcn for e in report.entries] == [None, None]

    def test_median_excludes_warmup(self):
        ds = generate_synthetic_dataset(16, seed=10)
        report = benchmark_timing(ds, ["gcn", "gln"], tiny_config(epochs=4, folds=2),
                                  warmup=2)
        for e in report.entries:
            assert len(e.epoch_seconds) == 4
            assert e.median_epoch_seconds == pytest.approx(
                float(np.median(e.epoch_seconds[2:])))

    def test_needs_post_warmup_epochs(self):
        ds = generate_synthetic_dataset(8, seed=10)
        with pytest.raises(ValueError):
            benchmark_timing(ds, ["gcn", "gln"], tiny_config(epochs=1), warmup=1)
        with pytest.raises(ValueError):
            benchmark_timing(ds, ["gcn", "gln"], tiny_config(epochs=3), warmup=-1)

    def test_deeper_stacks_cost_more_time(self):
        """Workload monotonicity: tripling the aggregating layers must not
        come for free. Uses the edge-dense corpus so compute dominates noise."""
        ds = generate_dense_synthetic(32, seed=11)
        shallow = ModelConfig(kind="gcn", num_classes=2, num_conv_layers=1)
        deep = ModelConfig(kind="gcn", num_classes=2, num_conv_layers=3)
        cfg = TrainConfig(epochs=5, batch_size=16, folds=2, seed=0)
        medians = []
        for model_cfg in (shallow, deep):
            prepared, _ = prepare_dataset(ds, model_cfg)
            idx = np.arange(len(ds))
            trace = train_fold(prepared, model_cfg, cfg, 0, idx[:24], idx[24:],
                               record_metrics=False)
            medians.append(float(np.median(trace.epoch_seconds[1:])))
        assert medians[1] > medians[0]
