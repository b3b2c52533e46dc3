"""End-to-end acceptance checks.

Each test prints one verdict line (run pytest with ``-s`` to see them):

    [PASS] check 3 (permutation invariance): worst |delta| 4.8e-07 over 120 graphs

Checks 5 and 6 reproduce published benchmark numbers and therefore need the
MUTAG and ENZYMES graph-classification benchmark directories on disk; they
fail with download/placement instructions when the files are absent. Every
other check is self-contained.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import collapse_linear_gcn, finite_difference_grad, lexsort_from_coo
from gfnlab.cli import main as cli_main
from gfnlab.cli import resolve_dataset
from gfnlab.features import FeatureSpec, augment
from gfnlab.graphs import (
    DataError,
    Graph,
    generate_dense_synthetic,
    generate_synthetic_dataset,
    node_degrees,
    normalized_adjacency,
    stratified_kfold,
)
from gfnlab.harness import TrainConfig, prepare_dataset, run_cv, train_fold
from gfnlab.models import (
    GraphConv,
    ModelConfig,
    ModelInstance,
    make_batch,
)
from gfnlab.nn import (
    Affine,
    BatchNorm,
    ReLU,
    SegmentIndex,
    segment_sum,
    segment_sum_backward,
    softmax_cross_entropy,
)
from gfnlab.sparse import spmm

# reports from benchmark cv runs, shared between checks 5 and 6 so the suite
# never trains the same configuration twice
_CV_MEMO: dict = {}


def _verdict(num, name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] check {num} ({name}): {detail}")
    assert ok, f"check {num} ({name}): {detail}"


def _data_root() -> str:
    return os.environ.get("GFNLAB_DATA", "data")


def _missing_data(num, name, dataset):
    msg = (
        f"the {dataset} benchmark files are not on disk. Place the standard "
        f"distribution under {_data_root()}/{dataset}/ (files {dataset}_A.txt, "
        f"{dataset}_graph_indicator.txt, {dataset}_graph_labels.txt, plus node "
        f"label/attribute files where published), or set GFNLAB_DATA to a "
        f"directory containing {dataset}/. Parsed counts are validated before "
        f"any training starts."
    )
    print(f"\n[FAIL] check {num} ({name}): {msg}")
    pytest.fail(f"check {num}: {msg}", pytrace=False)


def _have_dataset(name: str) -> bool:
    try:
        resolve_dataset(name, _data_root())
        return True
    except DataError:
        return False


def _cli_cv(tmp_path: Path, dataset: str, model: str) -> tuple[dict, float]:
    """Run the cv command as a user would and parse its report."""
    key = (dataset, model)
    if key in _CV_MEMO:
        return _CV_MEMO[key]
    out = tmp_path / f"{dataset}-{model}"
    t0 = time.perf_counter()
    code = cli_main([
        "cv", "--dataset", dataset, "--model", model,
        "--data-root", _data_root(), "--out", str(out), "--jobs", "1",
    ])
    elapsed = time.perf_counter() - t0
    assert code == 0, f"cv exited {code} for {dataset}/{model}"
    run_dirs = [p for p in out.iterdir() if p.is_dir()]
    payload = json.loads((run_dirs[0] / "report.json").read_text())
    _CV_MEMO[key] = (payload, elapsed)
    return _CV_MEMO[key]


def _random_graph(rng, n, p=0.5):
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    return Graph.from_edges(n, np.stack([iu[keep], ju[keep]], axis=1))


def test_c1_gradient_suite():
    """Every differentiable kernel vs central finite differences: relative
    error <= 1e-4 (batch norm <= 1e-3), 50 random instances per kernel,
    under 30 seconds wall time."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = {}

    def rel(analytic, numeric):
        scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-8)
        return float(np.abs(analytic - numeric).max() / scale)

    def update(kernel, *pairs):
        for analytic, numeric in pairs:
            worst[kernel] = max(worst.get(kernel, 0.0), rel(analytic, numeric))

    for _ in range(50):
        n = int(rng.integers(2, 6))
        din = int(rng.integers(1, 5))
        dout = int(rng.integers(1, 5))

        # affine
        layer = Affine(din, dout, rng, dtype=np.float64)
        x = rng.standard_normal((n, din))
        proj = rng.standard_normal((n, dout))
        layer.forward(x)
        dx = layer.backward(proj.copy())
        loss = lambda: float((layer.forward(x) * proj).sum())
        num_w, num_b, num_x = finite_difference_grad(
            loss, [layer.weight.value, layer.bias.value, x])
        update("affine", (layer.weight.grad, num_w), (layer.bias.grad, num_b),
               (dx, num_x))

        # relu, nudged off the kink so the finite difference is one-sided-safe
        act = ReLU()
        xr = rng.standard_normal((n, din))
        xr += np.sign(xr) * 0.05
        pr = rng.standard_normal(xr.shape)
        act.forward(xr)
        dxr = act.backward(pr)
        loss = lambda: float((act.forward(xr) * pr).sum())
        (num_xr,) = finite_difference_grad(loss, [xr])
        update("relu", (dxr, num_xr))

        # batch norm (train mode, population statistics)
        rows = int(rng.integers(3, 8))
        bn = BatchNorm(din, dtype=np.float64)
        bn.gamma.value[...] = rng.uniform(0.5, 1.5, din)
        bn.beta.value[...] = rng.standard_normal(din)
        xb = rng.standard_normal((rows, din)) * 2.0
        pb = rng.standard_normal((rows, din))
        bn.gamma.grad[...] = 0
        bn.beta.grad[...] = 0
        bn.forward(xb, train=True)
        dxb = bn.backward(pb)
        loss = lambda: float((bn.forward(xb, train=True) * pb).sum())
        num_g, num_be, num_xb = finite_difference_grad(
            loss, [bn.gamma.value, bn.beta.value, xb])
        update("batchnorm", (bn.gamma.grad, num_g), (bn.beta.grad, num_be),
               (dxb, num_xb))

        # segment sum
        sizes = rng.integers(0, 4, size=3)
        seg = SegmentIndex.from_sizes(sizes)
        xs = rng.standard_normal((int(sizes.sum()), din))
        ps = rng.standard_normal((3, din))
        dxs = segment_sum_backward(ps, seg)
        loss = lambda: float((segment_sum(xs, seg) * ps).sum())
        if xs.size:
            (num_xs,) = finite_difference_grad(loss, [xs])
            update("segment-sum", (dxs, num_xs))

        # softmax cross-entropy
        c = int(rng.integers(2, 5))
        logits = rng.standard_normal((n, c)) * 2.0
        labels = rng.integers(0, c, n)
        _, dlog = softmax_cross_entropy(logits, labels)
        loss = lambda: softmax_cross_entropy(logits, labels)[0]
        (num_log,) = finite_difference_grad(loss, [logits])
        update("softmax-ce", (dlog, num_log))

        # aggregating layer
        g = _random_graph(rng, n + 1)
        adj = normalized_adjacency(g).matrix
        conv = GraphConv(din, dout, rng, dtype=np.float64)
        xg = rng.standard_normal((n + 1, din))
        pg = rng.standard_normal((n + 1, dout))
        conv.forward(xg, adj)
        dxg = conv.backward(pg)
        loss = lambda: float((conv.forward(xg, adj) * pg).sum())
        num_wg, num_bg, num_xg = finite_difference_grad(
            loss, [conv.weight.value, conv.bias.value, xg])
        update("gcn-layer", (conv.weight.grad, num_wg), (conv.bias.grad, num_bg),
               (dxg, num_xg))

    elapsed = time.perf_counter() - t0
    tol = {"batchnorm": 1e-3}
    breaches = {k: v for k, v in worst.items() if v > tol.get(k, 1e-4)}
    detail = (
        ", ".join(f"{k}={v:.2e}" for k, v in sorted(worst.items()))
        + f"; {elapsed:.1f}s"
    )
    _verdict(1, "gradient suite", not breaches and elapsed < 30.0, detail)


def test_c2_linear_collapse_oracle():
    """Identity-activation aggregation stacks equal their single-linear-map
    collapse within 1e-10 at 64-bit precision, over 100 random graphs."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        g = _random_graph(rng, n)
        adj = normalized_adjacency(g).matrix
        X = rng.standard_normal((n, int(rng.integers(1, 5))))
        depth = int(rng.integers(1, 4))
        dims = [X.shape[1]] + [int(d) for d in rng.integers(1, 6, size=depth)]
        Ws = [rng.standard_normal((dims[i], dims[i + 1])) for i in range(depth)]
        layered = X
        for W in Ws:
            conv = GraphConv(W.shape[0], W.shape[1], rng, dtype=np.float64)
            conv.weight.value[...] = W
            layered = conv.forward(layered, adj)
        collapsed = collapse_linear_gcn(Ws, adj, X)
        worst = max(worst, float(np.abs(layered - collapsed).max()))
    _verdict(2, "linear collapse oracle", worst <= 1e-10,
             f"max abs diff {worst:.3e} over 100 graphs (tol 1e-10)")


def test_c3_permutation_invariance():
    """Eval-mode logits are unchanged by node relabeling for all four model
    kinds, within 1e-5, on 30 random graphs per kind."""
    rng = np.random.default_rng(303)
    worst = 0.0
    graphs_checked = 0
    for kind in ("gcn", "gfn", "gfn-light", "gln"):
        cfg = ModelConfig(kind=kind, num_classes=3, hidden_dim=16)
        for trial in range(30):
            n = int(rng.integers(3, 12))
            iu, ju = np.triu_indices(n, k=1)
            keep = rng.random(iu.size) < 0.5
            edges = np.stack([iu[keep], ju[keep]], axis=1)
            g = Graph.from_edges(n, edges)
            X = rng.standard_normal((n, 2))
            perm = rng.permutation(n)
            inv = np.empty(n, dtype=np.int64)
            inv[perm] = np.arange(n)
            g2 = Graph.from_edges(
                n, np.stack([inv[edges[:, 0]], inv[edges[:, 1]]], axis=1)
                if edges.size else edges)
            model = None
            outs = []
            for graph, x in ((g, X), (g2, X[perm])):
                feats = augment(graph, [x], cfg.feature_spec, n).astype(np.float32)
                adj = normalized_adjacency(graph).matrix.astype(np.float32)
                if model is None:
                    model = ModelInstance(cfg, feats.shape[1], seed=trial)
                batch = make_batch([feats], np.array([0]),
                                   [adj] if kind == "gcn" else None)
                outs.append(model.forward(batch, train=False))
            worst = max(worst, float(np.abs(outs[0] - outs[1]).max()))
            graphs_checked += 1
    _verdict(3, "permutation invariance", worst <= 1e-5,
             f"worst |delta| {worst:.3e} over {graphs_checked} graphs (tol 1e-5)")


def test_c4_sparse_kernel_oracle():
    """spmm equals the dense product to 1e-12 on random graphs of up to 12
    nodes, and normalized-adjacency eigenvalues stay inside [-1, 1]."""
    rng = np.random.default_rng(404)
    worst_prod = 0.0
    worst_ev = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        g = _random_graph(rng, n)
        at = normalized_adjacency(g).matrix
        X = rng.standard_normal((n, int(rng.integers(1, 6))))
        worst_prod = max(worst_prod,
                         float(np.abs(spmm(at, X) - at.to_dense() @ X).max()))
        # arbitrary weighted sparse matrix, not just adjacencies
        mask = rng.random((n, n)) < 0.4
        rows, cols = np.nonzero(mask)
        m = lexsort_from_coo((n, n), rows, cols, rng.standard_normal(rows.size))
        worst_prod = max(worst_prod,
                         float(np.abs(spmm(m, X) - m.to_dense() @ X).max()))
        ev = np.linalg.eigvalsh(at.to_dense())
        worst_ev = max(worst_ev, float(max(-1.0 - ev.min(), ev.max() - 1.0, 0.0)))
    ok = worst_prod <= 1e-12 and worst_ev <= 1e-9
    _verdict(4, "sparse kernel oracle", ok,
             f"max product diff {worst_prod:.3e} (tol 1e-12), "
             f"eigenvalue excursion {worst_ev:.3e} (tol 1e-9)")


def test_c5_mutag_accuracy(tmp_path):
    """`cv --dataset MUTAG --model gfn` at defaults reaches mean test
    accuracy >= 83% in under 5 minutes."""
    if not _have_dataset("MUTAG"):
        _missing_data(5, "MUTAG accuracy", "MUTAG")
    report, elapsed = _cli_cv(tmp_path, "MUTAG", "gfn")
    mean = report["mean_acc"]
    ok = mean >= 0.83 and elapsed < 300.0
    _verdict(5, "MUTAG accuracy", ok,
             f"mean {100 * mean:.2f}% ± {100 * report['std_acc']:.2f} "
             f"@ epoch {report['best_epoch']} (floor 83%), {elapsed:.0f}s")


def test_c6_dissection_ordering(tmp_path):
    """ENZYMES: the nonlinear set function beats the linear one by >= 15
    accuracy points. MUTAG: moving the graph filtering into features costs
    at most 6 points against the aggregating model. Under 15 minutes."""
    for name in ("ENZYMES", "MUTAG"):
        if not _have_dataset(name):
            _missing_data(6, "dissection ordering", name)
    t_total = 0.0
    enz_gfn, dt = _cli_cv(tmp_path, "ENZYMES", "gfn")
    t_total += dt
    enz_gln, dt = _cli_cv(tmp_path, "ENZYMES", "gln")
    t_total += dt
    mut_gfn, dt = _cli_cv(tmp_path, "MUTAG", "gfn")
    t_total += dt
    mut_gcn, dt = _cli_cv(tmp_path, "MUTAG", "gcn")
    t_total += dt
    gap = enz_gfn["mean_acc"] - enz_gln["mean_acc"]
    closeness = abs(mut_gfn["mean_acc"] - mut_gcn["mean_acc"])
    ok = gap >= 0.15 and closeness <= 0.06 and t_total < 900.0
    _verdict(6, "dissection ordering", ok,
             f"ENZYMES gfn-gln gap {100 * gap:.1f}pts (floor 15), "
             f"MUTAG |gfn-gcn| {100 * closeness:.1f}pts (ceiling 6), "
             f"{t_total:.0f}s of new training")


def test_c7_timing_claim():
    """Median per-epoch training time: the single-transform model is at least
    1.2x faster than the aggregating model under identical seeds and batches.
    Uses IMDB-BINARY when present, otherwise the edge-dense synthetic corpus
    (>= 5x more edges than nodes)."""
    if _have_dataset("IMDB-BINARY"):
        dataset = resolve_dataset("IMDB-BINARY", _data_root())
    else:
        dataset = generate_dense_synthetic(64, seed=7)
        ratio = (sum(g.graph.edge_count for g in dataset.graphs)
                 / sum(g.graph.num_nodes for g in dataset.graphs))
        assert ratio >= 5.0, f"synthetic fallback too sparse ({ratio:.1f}x)"
    config = TrainConfig(epochs=6, batch_size=128, lr=0.001, folds=10, seed=0)
    plan = stratified_kfold(dataset, config.folds, config.seed)
    median = {}
    for kind in ("gcn", "gfn-light"):  # fold 0, the median of the epochs after the first
        model = ModelConfig(kind=kind, num_classes=dataset.num_classes)
        prepared, _ = prepare_dataset(dataset, model)
        trace = train_fold(prepared, model, config, 0, plan.train_indices(0), plan.test_indices(0))
        median[kind] = float(np.median(trace.epoch_seconds[1:]))
    speedup = median["gcn"] / median["gfn-light"]
    _verdict(7, "timing claim", speedup >= 1.2,
             f"gfn-light {speedup:.1f}x vs gcn on {dataset.name} (floor 1.2x); "
             f"medians gcn {1e3 * median['gcn']:.1f}ms, "
             f"gfn-light {1e3 * median['gfn-light']:.1f}ms")


def test_c8_synthetic_end_to_end():
    """Cycles vs stars, 200 graphs: degree-aware features reach >= 95% CV
    accuracy in 20 epochs while the blinded input stays at chance (50 ± 10),
    all in under a minute."""
    t0 = time.perf_counter()
    dataset = generate_synthetic_dataset(200, seed=7)

    # the degree signal alone separates the classes; a hub of degree n-1
    # exists exactly in the star graphs, so the learned 95% floor is sound
    hub = np.array([int(node_degrees(g.graph).max() == g.graph.num_nodes - 1)
                    for g in dataset.graphs])
    oracle_acc = float((hub == dataset.labels).mean())
    assert oracle_acc == 1.0, f"degree oracle broke: {oracle_acc}"

    config = TrainConfig(epochs=20, batch_size=128, lr=0.001, folds=10, seed=0)
    informed = run_cv(dataset, ModelConfig(kind="gfn", num_classes=2), config)
    blinded_spec = FeatureSpec(use_degree=False, K=0)
    blinded = run_cv(
        dataset,
        ModelConfig(kind="gfn", num_classes=2, feature_spec=blinded_spec),
        config,
    )
    elapsed = time.perf_counter() - t0
    ok = (informed.mean_acc >= 0.95
          and abs(blinded.mean_acc - 0.5) <= 0.10
          and elapsed < 60.0)
    _verdict(8, "synthetic end-to-end", ok,
             f"informed {100 * informed.mean_acc:.1f}% (floor 95), "
             f"blinded {100 * blinded.mean_acc:.1f}% (50 ± 10), {elapsed:.0f}s")


def test_c9_determinism(tmp_path):
    """Two cv runs with the same seed and --jobs 1 write byte-identical
    report JSON."""
    blobs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        code = cli_main([
            "cv", "--dataset", "synthetic", "--model", "gfn",
            "--epochs", "3", "--folds", "3", "--seed", "9",
            "--jobs", "1", "--out", str(out),
        ])
        assert code == 0
        run_dir = next(p for p in out.iterdir() if p.is_dir())
        blobs.append((run_dir / "report.json").read_bytes())
    ok = blobs[0] == blobs[1]
    _verdict(9, "determinism", ok,
             f"report bytes {'identical' if ok else 'differ'} "
             f"({len(blobs[0])} bytes)")
