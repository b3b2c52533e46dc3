"""Which gfnlab functions the traced run wraps, and the per-layer metrics
computed from the spans they leave.

Each wrapper is installed at every module that bound the function, so a call
is traced wherever it is made from; ``spmm`` is named by its call site because
the training path (``gfnlab.models``, float32, width 128) and the feature
precompute (``gfnlab.features``, float64, narrow) are one kernel used two ways.
``block_diag`` is patched only in ``gfnlab.sparse`` because ``make_batch``
imports it at call time.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from gfnlab import features, graphs, harness, models, nn, sparse, tu
from tracer import Span, Tracer, self_times

ROOT_SPANS = ("bench.setup", "bench.cv")


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value.

    Fewer than twenty samples fall back to the median.
    """
    pct = max(50.0, 100.0 * (1.0 - 10.0 / max(len(values), 1)))
    return pct, float(np.percentile(values, pct))


def _spmm_note(span: Span, args, kwargs, result) -> None:
    adj, dense = args[0], args[1]
    span.attrs = (adj.nnz, adj.shape[0], dense.shape[0], dense.shape[1], dense.dtype.itemsize)


def _affine_fwd_note(span: Span, args, kwargs, result) -> None:
    layer, x = args[0], args[1]
    span.attrs = 2 * x.shape[0] * layer.weight.value.size


def _affine_bwd_note(span: Span, args, kwargs, result) -> None:
    layer, grad_out = args[0], args[1]
    span.attrs = 4 * grad_out.shape[0] * layer.weight.value.size  # weight and input gradients


def _make_batch_note(span: Span, args, kwargs, result) -> None:
    sizes = result.seg.sizes
    span.attrs = (int((sizes**2).sum()), int(sizes.size), int(sizes.max()))


def _cache_files(cache_dir) -> dict[str, int]:
    path = Path(cache_dir) if cache_dir is not None else features.default_cache_dir()
    return {p.name: p.stat().st_size for p in path.glob("*")} if path.is_dir() else {}


def _precompute_wrapper(tracer: Tracer):
    def make(original, site):
        def precompute(dataset, spec, cache_dir=None):
            before = _cache_files(cache_dir)
            span = tracer.open("features.precompute")
            try:
                result = original(dataset, spec, cache_dir)
            finally:
                tracer.close(span)
            after = _cache_files(cache_dir)
            span.name = "features.precompute_warm" if after == before else "features.precompute_cold"
            span.attrs = sum(after.values())
            return result

        return precompute

    return make


def _plain(tracer: Tracer, name: str, note=None):
    return lambda original, site: tracer.wrap(original, name, note)


def _spmm_name(site: str) -> str:
    return {"gfnlab.models": "sparse.spmm.train", "gfnlab.features": "sparse.spmm.precompute"}.get(
        site, "sparse.spmm.other"
    )


def _forward_name(args, kwargs) -> str:
    train = args[2] if len(args) > 2 else kwargs.get("train", True)
    return "models.forward" if train else "models.forward_eval"


def install(tracer: Tracer) -> None:
    """Wrap every traced gfnlab function; undo with ``tracer.restore()``."""
    functions = [
        (tu, "parse_tu_dataset", _plain(tracer, "tu.parse")),
        (graphs, "normalized_adjacency", _plain(tracer, "graphs.normalized_adjacency")),
        (graphs, "stratified_kfold", _plain(tracer, "graphs.stratified_kfold")),
        (features, "precompute_dataset", _precompute_wrapper(tracer)),
        (sparse, "spmm", lambda original, site: tracer.wrap(original, _spmm_name(site), _spmm_note)),
        (models, "make_batch", _plain(tracer, "models.make_batch", _make_batch_note)),
        (nn, "segment_sum", _plain(tracer, "nn.segment_sum")),
        (nn, "segment_sum_backward", _plain(tracer, "nn.segment_sum_bwd")),
        (nn, "softmax_cross_entropy", _plain(tracer, "nn.softmax_ce")),
        (nn, "adam_step", _plain(tracer, "nn.adam_step")),
        (harness, "prepare_dataset", _plain(tracer, "harness.prepare_dataset")),
        (harness, "train_fold", _plain(tracer, "harness.train_fold")),
        (harness, "evaluate", _plain(tracer, "harness.evaluate")),
    ]
    for module, attr, make in functions:
        if tracer.patch_everywhere(module, attr, make) == 0:
            raise RuntimeError(f"{module.__name__}.{attr} is bound nowhere; the trace plan is stale")
    tracer.patch(sparse, "block_diag", tracer.wrap(sparse.block_diag, "sparse.block_diag"))
    methods = [
        (nn.Affine, "forward", "nn.affine_fwd", _affine_fwd_note),
        (nn.Affine, "backward", "nn.affine_bwd", _affine_bwd_note),
        (nn.BatchNorm, "forward", "nn.batchnorm_fwd", None),
        (nn.BatchNorm, "backward", "nn.batchnorm_bwd", None),
        (nn.ReLU, "forward", "nn.relu_fwd", None),
        (nn.ReLU, "backward", "nn.relu_bwd", None),
        (models.GraphConv, "forward", "models.graphconv_fwd", None),
        (models.GraphConv, "backward", "models.graphconv_bwd", None),
        (models.ModelInstance, "forward", _forward_name, None),
        (models.ModelInstance, "backward", "models.backward", None),
    ]
    for cls, attr, name, note in methods:
        tracer.patch(cls, attr, tracer.wrap(getattr(cls, attr), name, note))


# Per-layer metric names and units, in report order. ``*_s`` is inclusive time
# summed over spans of that name, ``*_self_s`` excludes child spans. The
# percentile behind each ``*_tail`` is reported beside it as ``*_tail_pct``.
PER_LAYER = {
    "tu.parse_s": "s",
    "tu.input_mb": "MB",
    "graphs.normalized_adjacency_s": "s",
    "graphs.normalized_adjacency_calls": "count",
    "graphs.stratified_kfold_s": "s",
    "features.precompute_cold_s": "s",
    "features.precompute_warm_s": "s",
    "features.cache_hits": "count",
    "features.cache_misses": "count",
    "features.cache_mb": "MB",
    "sparse.spmm.train_s": "s",
    "sparse.spmm.precompute_s": "s",
    "sparse.spmm_calls": "count",
    "sparse.spmm_ms_p50": "ms",
    "sparse.spmm_ms_tail": "ms",
    "sparse.spmm_nnz": "count",
    "sparse.spmm_gflop_computed": "GFLOP",
    "sparse.spmm_gb_computed": "GB",
    "sparse.block_diag_s": "s",
    "sparse.block_diag_calls": "count",
    "models.make_batch_s": "s",
    "models.make_batch_calls": "count",
    "models.forward_s": "s",
    "models.backward_s": "s",
    "models.forward_eval_s": "s",
    "models.graphconv_fwd_self_s": "s",
    "models.graphconv_bwd_self_s": "s",
    "models.pad_fill_ratio": "ratio",
    "nn.affine_fwd_s": "s",
    "nn.affine_bwd_s": "s",
    "nn.affine_gflop_computed": "GFLOP",
    "nn.batchnorm_fwd_s": "s",
    "nn.batchnorm_bwd_s": "s",
    "nn.relu_fwd_s": "s",
    "nn.relu_bwd_s": "s",
    "nn.segment_sum_s": "s",
    "nn.segment_sum_bwd_s": "s",
    "nn.softmax_ce_s": "s",
    "nn.adam_step_s": "s",
    "nn.adam_calls": "count",
    "harness.prepare_dataset_s": "s",
    "harness.train_fold_s": "s",
    "harness.train_fold_self_s": "s",
    "harness.evaluate_s": "s",
    "harness.steps": "count",
    "harness.step_ms_p50": "ms",
    "harness.step_ms_tail": "ms",
    "trace.self_cover_frac": "ratio",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}


def _steps_ns(spans: list[Span], children: dict[int, list[int]]) -> list[int]:
    """Train steps: from a fold's own make_batch entry to the next adam_step return."""
    steps = []
    for i, s in enumerate(spans):
        if s.name != "harness.train_fold":
            continue
        start = None
        for c in children.get(i, ()):
            kid = spans[c]
            if kid.name == "models.make_batch":
                start = kid.start
            elif kid.name == "nn.adam_step" and start is not None:
                steps.append(kid.end - start)
                start = None
    return steps


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (all except ``tu.input_mb``
    and ``trace.overhead_frac``, which need data from outside the spans)."""
    own = self_times(spans)
    total: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        total[s.name] = total.get(s.name, 0) + (s.end - s.start)
        self_ns[s.name] = self_ns.get(s.name, 0) + int(own[i])
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)

    def sec(name: str) -> float:
        return total.get(name, 0) / 1e9

    spmm = [s for s in spans if s.name.startswith("sparse.spmm.")]
    spmm_ms = [(s.end - s.start) / 1e6 for s in spmm] or [0.0]
    nnz = sum(s.attrs[0] for s in spmm)
    flop = sum(2 * a[0] * a[3] for a in (s.attrs for s in spmm))
    # Compulsory traffic: the CSR arrays, the dense operand and the output once.
    moved = sum(
        a[0] * (a[4] + 8) + (a[1] + 1) * 8 + (a[2] + a[1]) * a[3] * a[4] for a in (s.attrs for s in spmm)
    )
    train_batches = [
        s.attrs
        for s in spans
        if s.name == "models.make_batch" and (s.parent < 0 or spans[s.parent].name != "harness.evaluate")
    ]
    padded = sum(b * n_max**2 for _, b, n_max in train_batches)
    steps = [ns / 1e6 for ns in _steps_ns(spans, children)]
    step_ms = steps or [0.0]
    precompute = [s for s in spans if s.name.startswith("features.precompute_")]
    roots = [i for i, s in enumerate(spans) if s.name in ROOT_SPANS]
    root_ns = sum(spans[i].end - spans[i].start for i in roots)
    spmm_pct, spmm_tail = tail(spmm_ms)
    step_pct, step_tail = tail(step_ms)
    return {
        "tu.parse_s": sec("tu.parse"),
        "graphs.normalized_adjacency_s": sec("graphs.normalized_adjacency"),
        "graphs.normalized_adjacency_calls": calls.get("graphs.normalized_adjacency", 0),
        "graphs.stratified_kfold_s": sec("graphs.stratified_kfold"),
        "features.precompute_cold_s": sec("features.precompute_cold"),
        "features.precompute_warm_s": sec("features.precompute_warm"),
        "features.cache_hits": calls.get("features.precompute_warm", 0),
        "features.cache_misses": calls.get("features.precompute_cold", 0),
        "features.cache_mb": max((s.attrs for s in precompute), default=0) / 2**20,
        "sparse.spmm.train_s": sec("sparse.spmm.train"),
        "sparse.spmm.precompute_s": sec("sparse.spmm.precompute"),
        "sparse.spmm_calls": len(spmm),
        "sparse.spmm_ms_p50": float(np.median(spmm_ms)),
        "sparse.spmm_ms_tail": spmm_tail,
        "sparse.spmm_tail_pct": spmm_pct,
        "sparse.spmm_nnz": nnz,
        "sparse.spmm_gflop_computed": flop / 1e9,
        "sparse.spmm_gb_computed": moved / 1e9,
        "sparse.block_diag_s": sec("sparse.block_diag"),
        "sparse.block_diag_calls": calls.get("sparse.block_diag", 0),
        "models.make_batch_s": sec("models.make_batch"),
        "models.make_batch_calls": calls.get("models.make_batch", 0),
        "models.forward_s": sec("models.forward"),
        "models.backward_s": sec("models.backward"),
        "models.forward_eval_s": sec("models.forward_eval"),
        "models.graphconv_fwd_self_s": self_ns.get("models.graphconv_fwd", 0) / 1e9,
        "models.graphconv_bwd_self_s": self_ns.get("models.graphconv_bwd", 0) / 1e9,
        "models.pad_fill_ratio": sum(b[0] for b in train_batches) / padded if padded else 0.0,
        "nn.affine_fwd_s": sec("nn.affine_fwd"),
        "nn.affine_bwd_s": sec("nn.affine_bwd"),
        "nn.affine_gflop_computed": sum(s.attrs for s in spans if s.name.startswith("nn.affine_")) / 1e9,
        "nn.batchnorm_fwd_s": sec("nn.batchnorm_fwd"),
        "nn.batchnorm_bwd_s": sec("nn.batchnorm_bwd"),
        "nn.relu_fwd_s": sec("nn.relu_fwd"),
        "nn.relu_bwd_s": sec("nn.relu_bwd"),
        "nn.segment_sum_s": sec("nn.segment_sum"),
        "nn.segment_sum_bwd_s": sec("nn.segment_sum_bwd"),
        "nn.softmax_ce_s": sec("nn.softmax_ce"),
        "nn.adam_step_s": sec("nn.adam_step"),
        "nn.adam_calls": calls.get("nn.adam_step", 0),
        "harness.prepare_dataset_s": sec("harness.prepare_dataset"),
        "harness.train_fold_s": sec("harness.train_fold"),
        "harness.train_fold_self_s": self_ns.get("harness.train_fold", 0) / 1e9,
        "harness.evaluate_s": sec("harness.evaluate"),
        "harness.steps": len(steps),
        "harness.step_ms_p50": float(np.median(step_ms)),
        "harness.step_ms_tail": step_tail,
        "harness.step_tail_pct": step_pct,
        "trace.self_cover_frac": (root_ns - sum(int(own[i]) for i in roots)) / root_ns if root_ns else 0.0,
        "trace.spans": len(spans),
    }


def self_time_table(spans: list[Span]) -> list[tuple[str, float]]:
    """Self time per span name in seconds, largest first."""
    own = self_times(spans)
    by_name: dict[str, int] = {}
    for i, s in enumerate(spans):
        by_name[s.name] = by_name.get(s.name, 0) + int(own[i])
    return sorted(((n, ns / 1e9) for n, ns in by_name.items()), key=lambda kv: -kv[1])
