"""The benchmark's workloads: their inputs, set-up, cross-validation runs and
correctness checks, all through gfnlab's public API.

Each workload trains the paper's architecture (hidden width 128) with two
stratified folds, the cheapest split per graph, and small batches so that a
few epochs give enough Adam steps for the batch-norm running statistics to
settle and accuracy to sit well above chance.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gfnlab import graphs, harness, models, sparse, tu
from gfnlab.graphs import Dataset, DatasetMeta
from gfnlab.harness import CVReport, PreparedDataset, TrainConfig
from gfnlab.models import ModelConfig

import corpus

# Training seed (parameter init, fold split, batch order), the same for every
# benchmark seed so that runs on different seeds batch graphs of the same sizes
# together; the benchmark seed varies the inputs.
TRAIN_SEED = 0
# A run's inputs are this many corpora made from its seed; repetitions cycle
# through them, so a run's medians do not hang on one corpus's training
# dynamics (how soon the loss saturates sets how much gradient arithmetic runs
# on float32 subnormals, which moves gcn-dense's time from seed to seed).
CORPORA_PER_RUN = 3
# A workload's mean accuracy must beat the majority-class share by this much.
CHANCE_MARGIN = 0.15
# spmm on float32 operands against a float64 dense product of the same values.
SPMM_RTOL = 1e-5
SPMM_ATOL = 1e-5
ORACLE_WIDTH = 128


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kinds: tuple[str, ...]
    num_graphs: int
    shape: corpus.Shape | None  # None: in-memory generate_dense_synthetic corpus
    epochs: int
    batch_size: int
    lr: float = 0.01
    folds: int = 2

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs, batch_size=self.batch_size, lr=self.lr, folds=self.folds, seed=TRAIN_SEED, jobs=1
        )

    def model_config(self, kind: str) -> ModelConfig:
        return ModelConfig(kind=kind, num_classes=2)


WORKLOADS = {
    w.name: w
    for w in (
        # 192 graphs, 2 folds: 96 training graphs make 12 full batches of 8.
        Workload(
            "gcn-dense",
            "gcn on an in-memory edge-dense corpus (24-40 nodes, >=5 edges per node): aggregation-bound training, no parse, trivial precompute",
            ("gcn",),
            192,
            None,
            epochs=3,
            batch_size=8,
            lr=0.03,
        ),
        Workload(
            "gfn-nci1",
            "NCI1-shaped TU corpus parsed from disk, K=3 features precomputed cold, then gfn, gfn-light and gln CV on the warm cache: the feature path",
            ("gfn", "gfn-light", "gln"),
            600,
            corpus.NCI1,
            epochs=5,
            batch_size=32,
        ),
        Workload(
            "gcn-skewed",
            "gcn on a DD-shaped TU corpus with a size tail past 1000 nodes: large skewed graphs, where padding wastes cells and batches exceed the cache",
            ("gcn",),
            40,
            corpus.DD,
            epochs=2,
            batch_size=4,
            lr=0.03,
        ),
    )
}


@dataclass
class Inputs:
    """What a workload starts from: a TU directory or an in-memory corpus."""

    stats: corpus.CorpusStats
    directory: Path | None = None
    dataset: Dataset | None = None


def make_inputs(w: Workload, seed: int, tmp: Path) -> list[Inputs]:
    """The run's ``CORPORA_PER_RUN`` corpora; corpus ``k`` of seed ``s`` is made
    from generator seed ``CORPORA_PER_RUN * s + k``."""
    inputs = []
    for k in range(CORPORA_PER_RUN):
        corpus_seed = CORPORA_PER_RUN * seed + k
        if w.shape is None:
            ds = graphs.generate_dense_synthetic(w.num_graphs, corpus_seed)
            sizes = [g.graph.num_nodes for g in ds.graphs]
            edges = sum(g.graph.edge_count for g in ds.graphs)
            inputs.append(Inputs(corpus.describe(np.array(sizes), edges, 0.0), dataset=ds))
        else:
            directory = tmp / f"corpus-{k}"
            stats = corpus.write_tu_corpus(directory, w.shape, w.num_graphs, corpus_seed)
            inputs.append(Inputs(stats, directory=directory))
    return inputs


def setup(w: Workload, inputs: Inputs, cache_dir: Path) -> tuple[Dataset, PreparedDataset]:
    """From the workload's inputs to a prepared dataset: parse (TU inputs only)
    and ``prepare_dataset`` for the first model kind."""
    dataset = inputs.dataset
    if dataset is None:
        meta = DatasetMeta(w.num_graphs, 2, w.shape.node_labels)
        dataset = tu.parse_tu_dataset(inputs.directory, w.shape.name, meta)
    prepared, _ = harness.prepare_dataset(dataset, w.model_config(w.kinds[0]), cache_dir)
    return dataset, prepared


def chance_floor(dataset: Dataset) -> float:
    return float(np.bincount(dataset.labels).max()) / len(dataset) + CHANCE_MARGIN


def check_report(
    report: CVReport, w: Workload, floor: float, reference: str | None
) -> tuple[list[str], dict[int, list[str]]]:
    """Problems with one CV report: report-level ones, and per-fold ones by fold."""
    problems = []
    if len(report.folds) != w.folds:
        problems.append(f"{len(report.folds)} folds, expected {w.folds}")
    if not report.mean_acc >= floor:
        problems.append(f"mean_acc {report.mean_acc:.4f} below chance floor {floor:.4f}")
    if reference is not None and report.to_json() != reference:
        problems.append("report differs from the first same-seed run")
    fold_problems = {}
    for f in report.folds:
        if len(f.train_loss) != w.epochs or not np.all(np.isfinite(f.train_loss)):
            fold_problems[f.fold] = [f"train loss {f.train_loss} is not {w.epochs} finite values"]
    return problems, fold_problems


def spmm_oracle(w: Workload, dataset: Dataset, seed: int) -> str | None:
    """Compare ``spmm`` on one real training batch against ``to_dense() @ x``.

    The batch is the first ``batch_size`` graphs of fold 0's training split,
    assembled by ``make_batch`` from float32 normalized adjacencies. The
    matrix is block diagonal, so the dense product is taken one graph block at
    a time; each block is checked to hold every entry of its rows.
    """
    plan = graphs.stratified_kfold(dataset, w.folds, TRAIN_SEED)
    idx = plan.train_indices(0)[: w.batch_size]
    adjs = [graphs.normalized_adjacency(dataset.graphs[i].graph).matrix.astype(np.float32) for i in idx]
    feats = [dataset.graphs[i].node_features.astype(np.float32) for i in idx]
    batch = models.make_batch(feats, dataset.labels[idx], adjs)
    adj = batch.adjacency
    x = np.random.default_rng(seed).standard_normal((adj.shape[1], ORACLE_WIDTH)).astype(np.float32)
    got = sparse.spmm(adj, x)
    for lo, hi in zip(batch.seg.offsets[:-1], batch.seg.offsets[1:]):
        a, b = adj.indptr[lo], adj.indptr[hi]
        block = sparse.CSRMatrix((hi - lo, hi - lo), adj.indptr[lo : hi + 1] - a, adj.indices[a:b] - lo, adj.data[a:b])
        want = block.to_dense().astype(np.float64) @ x[lo:hi].astype(np.float64)
        if not np.allclose(got[lo:hi], want, rtol=SPMM_RTOL, atol=SPMM_ATOL):
            err = float(np.abs(got[lo:hi] - want).max())
            return f"spmm differs from to_dense() @ x by up to {err:.3g} in rows {lo}..{hi}"
    return None


def cv_phase(w: Workload, kind: str, dataset: Dataset, cache_dir: Path) -> CVReport:
    return harness.run_cv(dataset, w.model_config(kind), w.train_config(), cache_dir)

