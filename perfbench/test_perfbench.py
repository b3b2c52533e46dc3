"""Tests of the benchmark's own machinery: self-time arithmetic, patch
restoration, and seeded corpus generation.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gfnlab  # noqa: E402
from gfnlab import graphs, models, tu  # noqa: E402
from gfnlab.graphs import DatasetMeta  # noqa: E402

import corpus  # noqa: E402
import layers  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402


def span(name, start, end, parent):
    s = Span(name, start, parent)
    s.end = end
    return s


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", 0, 100, -1),
        span("a", 10, 40, 0),
        span("a.inner", 15, 25, 1),
        span("b", 50, 90, 0),
    ]
    assert self_times(spans).tolist() == [30, 20, 10, 40]
    assert self_times(spans).sum() == 100


def test_tail_keeps_ten_samples_beyond_it():
    pct, value = layers.tail(list(range(1, 101)))
    assert pct == pytest.approx(90.0)
    assert value == pytest.approx(np.percentile(range(1, 101), 90))
    assert layers.tail([1.0, 2.0, 3.0])[0] == 50.0


def _gfnlab_bindings() -> dict[tuple[str, str], object]:
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "gfnlab" or name.startswith("gfnlab."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
    for cls in (gfnlab.nn.Affine, gfnlab.nn.BatchNorm, gfnlab.nn.ReLU, models.GraphConv, models.ModelInstance):
        for attr, value in vars(cls).items():
            out[(cls.__qualname__, attr)] = value
    return out


def _gcn_step(tracer: Tracer):
    root = tracer.open("bench.cv")
    rng = np.random.default_rng(0)
    ds = graphs.generate_dense_synthetic(4, seed=1)
    adjs = [graphs.normalized_adjacency(g.graph).matrix.astype(np.float32) for g in ds.graphs]
    feats = [rng.standard_normal((g.graph.num_nodes, 3)).astype(np.float32) for g in ds.graphs]
    model = models.ModelInstance(models.ModelConfig("gcn", 2, hidden_dim=8, num_conv_layers=2), 3)
    batch = models.make_batch(feats, ds.labels, adjs)
    logits = model.forward(batch, train=True)
    _, grad = gfnlab.nn.softmax_cross_entropy(logits, batch.labels)
    model.backward(grad)
    tracer.close(root)


def test_install_then_restore_leaves_every_binding_as_it_was():
    before = _gfnlab_bindings()
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert models.spmm is not before[("gfnlab.sparse", "spmm")]
        assert gfnlab.harness.prepare_dataset is not before[("gfnlab.harness", "prepare_dataset")]
        assert "forward" in vars(models.GraphConv)
    finally:
        tracer.restore()
    after = _gfnlab_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_graphconv_nesting_and_full_coverage():
    tracer = Tracer()
    layers.install(tracer)
    try:
        _gcn_step(tracer)
    finally:
        tracer.restore()
    spans = tracer.spans
    own = self_times(spans)
    convs = [i for i, s in enumerate(spans) if s.name in ("models.graphconv_fwd", "models.graphconv_bwd")]
    assert len(convs) == 4
    for i in convs:
        kids = sorted(spans[j].name for j, s in enumerate(spans) if s.parent == i)
        if spans[i].name == "models.graphconv_fwd":
            assert kids == ["nn.affine_fwd", "sparse.spmm.train"]
        else:
            assert kids == ["nn.affine_bwd", "sparse.spmm.train"]
        covered = sum(spans[j].end - spans[j].start for j, s in enumerate(spans) if s.parent == i)
        assert own[i] == spans[i].end - spans[i].start - covered >= 0
    assert own.sum() == spans[0].end - spans[0].start
    metrics = layers.layer_metrics(spans)
    assert metrics["sparse.block_diag_calls"] == 1
    assert metrics["sparse.spmm_calls"] == 4
    assert metrics["models.graphconv_fwd_self_s"] >= 0


def test_corpus_is_a_function_of_the_seed(tmp_path):
    def files(directory):
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    a = corpus.write_tu_corpus(tmp_path / "a", corpus.NCI1, 40, seed=3)
    b = corpus.write_tu_corpus(tmp_path / "b", corpus.NCI1, 40, seed=3)
    c = corpus.write_tu_corpus(tmp_path / "c", corpus.NCI1, 40, seed=4)
    assert files(tmp_path / "a") == files(tmp_path / "b")
    assert a == b
    assert files(tmp_path / "a") != files(tmp_path / "c")
    assert (a.nodes, a.edges, a.size_max) == (c.nodes, c.edges, c.size_max)  # the layout is seed-free


@pytest.mark.parametrize("shape", [corpus.NCI1, corpus.DD])
def test_corpus_parses_with_the_real_shape(tmp_path, shape):
    n = 30
    stats = corpus.write_tu_corpus(tmp_path, shape, n, seed=0)
    ds = tu.parse_tu_dataset(tmp_path, shape.name, DatasetMeta(n, 2, shape.node_labels))
    sizes = np.array([g.graph.num_nodes for g in ds.graphs])
    assert sizes.min() >= shape.min_nodes and sizes.max() <= shape.max_nodes
    assert sizes.sum() == stats.nodes
    assert sum(g.graph.edge_count for g in ds.graphs) == stats.edges
    assert np.bincount(ds.labels).tolist() == [n // 2, n // 2]
    density = [g.graph.edge_count / g.graph.num_nodes for g in ds.graphs]
    by_class = [np.mean([d for d, y in zip(density, ds.labels) if y == k]) for k in (0, 1)]
    assert by_class[1] > by_class[0]
