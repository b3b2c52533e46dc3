import hashlib
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from gfnlab.graphs import (
    AttributedGraph,
    Dataset,
    Graph,
    generate_dense_synthetic,
    generate_synthetic_dataset,
    normalized_adjacency,
)
from gfnlab import graphs, harness
from gfnlab.features import FeatureSpec
from gfnlab.harness import (
    TIMING_FIELDS,
    CVReport,
    FoldTrace,
    TrainConfig,
    ablation_cells,
    ablation_sweep,
    prepare_dataset,
    run_cv,
    select_best_epoch,
    train_fold,
    write_ablation_csv,
)
from gfnlab.models import MODEL_KINDS, ModelConfig, default_feature_spec, make_batch
from gfnlab.tu import parse_tu_dataset

from conftest import assert_same_csr, random_tu_files


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

    def test_timing_covers_the_adjacencies(self, monkeypatch):
        real = harness.normalized_adjacency

        def slow(graph, epsilon=1.0):
            time.sleep(0.08)  # one call builds every graph's adjacency
            return real(graph, epsilon)

        monkeypatch.setattr(harness, "normalized_adjacency", slow)
        ds = generate_synthetic_dataset(8, seed=0)
        _, seconds = prepare_dataset(ds, ModelConfig(kind="gcn", num_classes=2))
        assert seconds >= 0.08


def _gcn_config(epsilon):
    return ModelConfig("gcn", 2, feature_spec=replace(default_feature_spec("gcn"), epsilon=epsilon))


def _assert_adjacencies_graph_by_graph(dataset, epsilon):
    prepared, _ = prepare_dataset(dataset, _gcn_config(epsilon))
    assert len(prepared.adjacencies) == len(dataset)
    for got, g in zip(prepared.adjacencies, dataset.graphs):
        assert_same_csr(got, normalized_adjacency(g.graph, epsilon).matrix.astype(np.float32))


class TestAdjacencies:
    """gcn's per-graph adjacencies, cut from one normalization of the union,
    equal each graph's own normalization bit for bit."""

    @pytest.mark.parametrize("epsilon", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("generate", [generate_synthetic_dataset, generate_dense_synthetic])
    def test_generated_corpora(self, generate, epsilon):
        _assert_adjacencies_graph_by_graph(generate(24, seed=3), epsilon)

    @pytest.mark.parametrize("epsilon", [0.5, 2.0])
    def test_random_tu_directories(self, tmp_path, epsilon):
        rng = np.random.default_rng(29)
        for trial in range(15):
            d, _, _ = random_tu_files(rng, tmp_path / str(trial))
            _assert_adjacencies_graph_by_graph(parse_tu_dataset(d, "rnd"), epsilon)

    @pytest.mark.parametrize("epsilon", [0.5, 2.0])
    def test_a_graph_without_nodes(self, epsilon):
        sizes_edges = [(3, [(0, 1), (1, 2)]), (0, []), (1, []), (4, [(0, 3)])]
        graphs = [AttributedGraph(Graph.from_edges(n, e), np.ones((n, 1)), i % 2)
                  for i, (n, e) in enumerate(sizes_edges)]
        ds = Dataset("empty-graph", graphs, num_classes=2, feature_dim=1)
        _assert_adjacencies_graph_by_graph(ds, epsilon)  # the empty graph's is (0, 0)

    def test_one_normalization_per_prepare(self, monkeypatch):
        calls = []
        real = harness.normalized_adjacency

        def counting(graph, epsilon=1.0):
            calls.append(graph.num_nodes)
            return real(graph, epsilon)

        monkeypatch.setattr(harness, "normalized_adjacency", counting)
        ds = generate_dense_synthetic(16, seed=1)
        prepare_dataset(ds, ModelConfig(kind="gcn", num_classes=2))
        assert calls == [sum(g.graph.num_nodes for g in ds.graphs)]
        prepare_dataset(ds, ModelConfig(kind="gfn", num_classes=2))
        assert len(calls) == 1  # gfn aggregates nothing: no adjacency

    def test_a_dataset_is_stacked_and_hashed_once(self, monkeypatch):
        """gcn cold and warm, then gfn, gfn-light and gln: one union, one content hash."""
        ds = generate_dense_synthetic(12, seed=2)
        stacks, hashed = [], []
        real_stack, real_sha256 = graphs.stack_diagonal, hashlib.sha256

        class CountingSha256:
            def __init__(self, data=b""):
                self.inner = real_sha256()
                self.update(data)

            def update(self, data):
                hashed.append(memoryview(data).nbytes)
                self.inner.update(data)

            def hexdigest(self):
                return self.inner.hexdigest()

        monkeypatch.setattr(graphs, "stack_diagonal", lambda p: stacks.append(1) or real_stack(p))
        monkeypatch.setattr(hashlib, "sha256", CountingSha256)
        for kind in ("gcn", "gcn", "gfn", "gfn-light", "gln"):
            prepare_dataset(ds, ModelConfig(kind=kind, num_classes=2))
        content = ds.labels.nbytes + sum(g.graph.indptr.nbytes + g.graph.indices.nbytes
                                         + g.node_features.nbytes for g in ds.graphs)
        assert len(stacks) == 1
        assert content < sum(hashed) < 2 * content


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
        assert sizes == [9, 1, 10] * 2  # the eval batches, then one merged train batch per fold

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
        assert sizes == ([1] * 10 + [2] * 5) * 2  # eval batches, then train batches per fold

    def test_each_folds_test_batches_are_built_once(self, monkeypatch):
        """A fold batches its test split before the first epoch and scores
        the same batches every epoch; only the train batches are rebuilt."""
        ds = generate_synthetic_dataset(40, seed=3)  # 20 train and 20 test graphs a fold
        sizes = []

        def recording_make_batch(features, labels, adjacencies=None):
            sizes.append(len(features))
            return make_batch(features, labels, adjacencies)

        monkeypatch.setattr(harness, "make_batch", recording_make_batch)
        run_cv(ds, ModelConfig("gcn", 2, hidden_dim=8), tiny_config(epochs=3, batch_size=8))
        train_batches = test_batches = [8, 8, 4]
        assert sizes == (test_batches + train_batches * 3) * 2

    def test_trace_json_form_has_no_timings(self):
        """Epoch and precompute wall times stay out of report.json at any
        depth but stay on the report, for timing.csv."""
        trace = FoldTrace(0, 5, 5, test_acc=[0.5], epoch_seconds=[0.123])
        report = CVReport("d", "gln", {}, {}, 0, 0.5, 0.0, [0.5], [trace, trace], 0.25)
        text = report.to_json()
        for word in ("epoch_seconds", "precompute", "feature_seconds"):
            assert word not in text
        assert trace.epoch_seconds == [0.123] and report.precompute_seconds == 0.25
        ds = generate_synthetic_dataset(8, seed=1)
        real = run_cv(ds, ModelConfig("gfn", 2, hidden_dim=8), tiny_config(epochs=1))
        assert real.precompute_seconds > 0
        assert "precompute" not in real.to_json() and "feature_seconds" not in real.to_json()

    def test_deeper_stacks_cost_more_time(self):
        """Workload monotonicity: tripling the aggregating layers must not
        come for free. Uses the edge-dense corpus so compute dominates noise.
        A process's first BLAS work can run ten times slower than later work,
        so the depths alternate for three rounds and each keeps its fastest
        epoch after the first."""
        ds = generate_dense_synthetic(32, seed=11)
        shallow = ModelConfig(kind="gcn", num_classes=2, num_conv_layers=1)
        deep = ModelConfig(kind="gcn", num_classes=2, num_conv_layers=3)
        cfg = TrainConfig(epochs=5, batch_size=16, folds=2, seed=0)
        idx = np.arange(len(ds))
        runs = [(model_cfg, prepare_dataset(ds, model_cfg)[0]) for model_cfg in (shallow, deep)]
        fastest = [float("inf")] * 2
        for _ in range(3):
            for i, (model_cfg, prepared) in enumerate(runs):
                trace = train_fold(prepared, model_cfg, cfg, 0, idx[:24], idx[24:])
                fastest[i] = min(fastest[i], *trace.epoch_seconds[1:])
        assert fastest[1] > fastest[0]


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

    def test_jobs_above_the_fold_count_start_one_worker_per_fold(self, monkeypatch):
        started = []

        class InProcessPool:  # records the pool size and maps in this process
            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(harness, "_WORKER_STATE", {})
        ds = generate_synthetic_dataset(16, seed=4)
        cfg = ModelConfig(kind="gln", num_classes=2)
        for jobs in (64, 2):
            run_cv(ds, cfg, tiny_config(epochs=1, folds=3, jobs=jobs))
        assert started == [3, 2]

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
        cells = ablation_cells("features", ModelConfig(kind="gfn", num_classes=2))
        names = [name for name, _ in cells]
        assert len(cells) == 8
        assert names == ["none", "a1x", "a12x", "a123x", "d", "d+a1x", "d+a12x", "d+a123x"]
        for name, cfg in cells:
            spec = cfg.feature_spec
            assert "x_0" in spec.column_names(degree_cap=1, feature_dim=1)  # X always enters
            assert spec.use_degree == name.startswith("d")

    def test_model_cells_give_each_kind_its_default_features(self):
        base = ModelConfig(kind="gfn", num_classes=3, hidden_dim=8, feature_spec=FeatureSpec(K=1))
        cells = ablation_cells("model", base)
        assert [value for value, _ in cells] == list(MODEL_KINDS)
        for value, cfg in cells:
            assert cfg.kind == value and cfg.num_classes == 3 and cfg.hidden_dim == 8
            assert cfg.feature_spec == default_feature_spec(value)

    def test_model_sweep_times_every_cell(self, tmp_path):
        ds = generate_synthetic_dataset(12, seed=9)
        cells = ablation_cells("model", ModelConfig(kind="gln", num_classes=2, hidden_dim=8))
        rows = ablation_sweep(ds, "model", cells, tiny_config(epochs=3))
        assert [r["value"] for r in rows] == list(MODEL_KINDS)
        assert all(r["precompute_s"] > 0 and r["epoch_s"] > 0 for r in rows)
        csv_path = tmp_path / "timing.csv"
        write_ablation_csv(rows, tiny_config(epochs=3), csv_path, TIMING_FIELDS)
        lines = csv_path.read_text().splitlines()
        assert lines[1] == "value,precompute_s,epoch_s"
        assert lines[2] == f"gcn,{rows[0]['precompute_s']!r},{rows[0]['epoch_s']!r}"
        assert len(lines) == 6

    def test_depth_sweep_rows(self, tmp_path):
        ds = generate_synthetic_dataset(16, seed=9)
        cfg = ModelConfig(kind="gfn", num_classes=2, hidden_dim=8)
        rows = ablation_sweep(ds, "depth", ablation_cells("depth", cfg, [0, 1]),
                              tiny_config(epochs=1))
        assert [r["value"] for r in rows] == [0, 1]
        csv_path = tmp_path / "out.csv"
        write_ablation_csv(rows, tiny_config(epochs=1), csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("# seed=0")
        assert lines[1] == "axis,value,mean_acc,std_acc,best_epoch"
        assert len(lines) == 4

    def test_unknown_axis_rejected(self):
        cfg = ModelConfig(kind="gfn", num_classes=2)
        with pytest.raises(ValueError, match="axis"):
            ablation_cells("width", cfg)
        with pytest.raises(ValueError, match="empty: it needs at least one layer count"):
            ablation_cells("depth", cfg, [])

    def test_negative_depth_rejected_before_any_cell_trains(self, monkeypatch):
        def train(*args, **kwargs):
            raise AssertionError("a cell trained before the grid was validated")

        monkeypatch.setattr(harness, "run_cv", train)
        ds = generate_synthetic_dataset(8, seed=9)
        cfg = ModelConfig(kind="gfn", num_classes=2)
        with pytest.raises(ValueError, match="nonnegative"):
            ablation_sweep(ds, "depth", ablation_cells("depth", cfg, [1, -1]), tiny_config())
