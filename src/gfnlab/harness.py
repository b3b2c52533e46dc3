"""Cross-validation training loop and ablation sweeps.

Determinism contract: every random draw is routed through
``np.random.SeedSequence`` keyed on (seed, fold) for parameter init and
(seed, fold, epoch) for batch shuffling, so a rerun with the same seed
reproduces parameters, batch order, and therefore metrics bit for bit.
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .features import FeatureSpec, precompute_dataset
from .graphs import Dataset, normalized_adjacency, stratified_kfold
from .models import (CONV_STACK_KINDS, MODEL_KINDS, BatchedGraphs, ModelConfig, ModelInstance,
                     make_batch)
from .nn import adam_step, softmax_cross_entropy
from .sparse import CSRMatrix, split_diagonal


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 128
    lr: float = 0.001
    folds: int = 10
    seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.folds < 2 or self.jobs < 1:
            raise ValueError("epochs/batch_size/jobs must be >= 1 and folds >= 2")
        if not 0 <= self.lr < float("inf"):  # also false for nan
            raise ValueError("lr must be finite and nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class PreparedDataset:
    """Dataset lowered to training tensors: float32 feature matrices per graph,
    plus per-graph normalized adjacencies when the model aggregates."""

    features: list[np.ndarray]
    labels: np.ndarray
    sizes: np.ndarray  # node count per graph
    adjacencies: list[CSRMatrix] | None = None


def prepare_dataset(
    dataset: Dataset,
    model_config: ModelConfig,
    cache_dir: Path | str | None = None,
) -> tuple[PreparedDataset, float]:
    """Precompute model inputs; returns the prepared dataset and the seconds
    the whole of it took: the feature precompute (a cache hit makes that part
    near zero) and, when the model aggregates, the per-graph adjacencies."""
    spec = model_config.feature_spec
    t0 = time.perf_counter()
    adjacencies = _adjacencies(dataset, spec.epsilon) if model_config.needs_adjacency else None
    features = [f.astype(np.float32) for f in precompute_dataset(dataset, spec, cache_dir)]
    prepared = PreparedDataset(features, dataset.labels, dataset.sizes, adjacencies)
    return prepared, time.perf_counter() - t0


def _adjacencies(dataset: Dataset, epsilon: float) -> list[CSRMatrix]:
    """Each graph's float32 normalized adjacency, cut from one normalization of
    the disjoint union: the same degrees, so the same bits as graph by graph."""
    whole = normalized_adjacency(dataset.union, epsilon).matrix
    blocks = split_diagonal(dataset.sizes.tolist(), whole.indptr, whole.indices)
    return [CSRMatrix((n, n), indptr, indices, whole.data[entries].astype(np.float32))
            for n, indptr, indices, entries in blocks]


@dataclass
class FoldTrace:
    """Per-epoch record for one fold. ``epoch_seconds`` is wall-clock data:
    ``CVReport.to_json`` leaves it out so reports are byte-stable across
    reruns; an ablation's timing.csv reads it."""

    fold: int
    train_size: int
    test_size: int
    train_acc: list[float] = field(default_factory=list)
    test_acc: list[float] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)


def _gather_batch(prepared: PreparedDataset, idx: np.ndarray) -> BatchedGraphs:
    adjs = None
    if prepared.adjacencies is not None:
        adjs = [prepared.adjacencies[i] for i in idx]
    return make_batch([prepared.features[i] for i in idx], prepared.labels[idx], adjs)


def _batched_indices(indices: np.ndarray, batch_size: int):
    for start in range(0, indices.size, batch_size):
        yield indices[start : start + batch_size]


def evaluate(model: ModelInstance, batches: list[BatchedGraphs]) -> float:
    """Accuracy over the graphs of ``batches`` in eval mode."""
    correct = 0
    for batch in batches:
        logits = model.forward(batch, train=False)
        correct += int((logits.argmax(axis=1) == batch.labels).sum())
    return correct / sum(batch.labels.size for batch in batches)


def train_fold(
    prepared: PreparedDataset,
    model_config: ModelConfig,
    train_config: TrainConfig,
    fold: int,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
) -> FoldTrace:
    """Train one fold. Train accuracy/loss come from the training passes
    themselves (no second sweep); test accuracy from an eval-mode pass over
    test batches built once per fold. Epoch timing covers the update loop only."""
    model = ModelInstance(
        model_config,
        prepared.features[0].shape[1],
        seed=np.random.SeedSequence((train_config.seed, fold)),
    )
    trace = FoldTrace(fold=fold, train_size=int(train_idx.size), test_size=int(test_idx.size))
    test_batches = [_gather_batch(prepared, idx)
                    for idx in _batched_indices(test_idx, train_config.batch_size)]
    for epoch in range(train_config.epochs):
        shuffle = np.random.default_rng(np.random.SeedSequence((train_config.seed, fold, epoch)))
        order = train_idx[shuffle.permutation(train_idx.size)]
        # batch norm needs two node rows in train mode: a batch with fewer
        # takes in the batch after it, or joins the one before when it is last
        batches = []
        for idx in _batched_indices(order, train_config.batch_size):
            if batches and prepared.sizes[batches[-1]].sum() < 2:
                batches[-1] = np.concatenate([batches[-1], idx])
            else:
                batches.append(idx)
        if len(batches) > 1 and prepared.sizes[batches[-1]].sum() < 2:
            batches[-2:] = [np.concatenate(batches[-2:])]
        correct = 0
        loss_sum = 0.0
        t0 = time.perf_counter()
        for idx in batches:
            batch = _gather_batch(prepared, idx)
            logits = model.forward(batch, train=True)
            loss, grad = softmax_cross_entropy(logits, batch.labels)
            model.backward(grad)
            adam_step(model.params, train_config.lr)
            loss_sum += loss * idx.size
            correct += int((logits.argmax(axis=1) == batch.labels).sum())
        trace.epoch_seconds.append(time.perf_counter() - t0)
        trace.train_acc.append(correct / train_idx.size)
        trace.train_loss.append(loss_sum / train_idx.size)
        trace.test_acc.append(evaluate(model, test_batches))
    return trace


@dataclass
class CVReport:
    dataset: str
    model: str
    model_config: dict
    train_config: dict
    best_epoch: int
    mean_acc: float
    std_acc: float
    per_fold_acc: list[float]
    folds: list[FoldTrace]
    precompute_seconds: float  # wall-clock, left out of to_json like epoch_seconds

    def to_json(self) -> str:
        payload = asdict(self)
        del payload["precompute_seconds"]
        for fold in payload["folds"]:
            del fold["epoch_seconds"]
        return json.dumps(payload, indent=2, sort_keys=True)

    def summary(self) -> str:
        return (
            f"{self.dataset} {self.model}: "
            f"{100 * self.mean_acc:.2f} ± {100 * self.std_acc:.2f} @ epoch {self.best_epoch}"
        )


_WORKER_STATE: dict = {}


def _init_worker(prepared, model_config, train_config):
    _WORKER_STATE["args"] = (prepared, model_config, train_config)


def _run_worker(task):
    fold, train_idx, test_idx = task
    prepared, model_config, train_config = _WORKER_STATE["args"]
    return train_fold(prepared, model_config, train_config, fold, train_idx, test_idx)


def select_best_epoch(traces: list[FoldTrace]) -> tuple[int, float, float, list[float]]:
    """Pick the epoch with the highest mean test accuracy across folds
    (earliest epoch on ties) and report mean/std/per-fold accuracy there."""
    acc = np.array([t.test_acc for t in traces])
    mean_per_epoch = acc.mean(axis=0)
    best = int(np.argmax(mean_per_epoch))
    at_best = acc[:, best]
    return best, float(at_best.mean()), float(at_best.std(ddof=0)), [float(a) for a in at_best]


def run_cv(
    dataset: Dataset,
    model_config: ModelConfig,
    train_config: TrainConfig,
    cache_dir: Path | str | None = None,
) -> CVReport:
    """Stratified k-fold cross-validation of one model on one dataset."""
    prepared, precompute_seconds = prepare_dataset(dataset, model_config, cache_dir)
    plan = stratified_kfold(dataset, train_config.folds, train_config.seed)
    tasks = [(f, plan.train_indices(f), plan.test_indices(f)) for f in range(train_config.folds)]
    if train_config.jobs > 1:
        with ProcessPoolExecutor(
            # under fork, every worker starts up front: no more than one per fold
            max_workers=min(train_config.jobs, train_config.folds),
            initializer=_init_worker,
            initargs=(prepared, model_config, train_config),
        ) as pool:
            traces = list(pool.map(_run_worker, tasks))
    else:
        traces = [
            train_fold(prepared, model_config, train_config, f, tr, te) for f, tr, te in tasks
        ]
    best, mean_acc, std_acc, per_fold = select_best_epoch(traces)
    return CVReport(
        dataset=dataset.name,
        model=model_config.kind,
        model_config=asdict(model_config),
        train_config=asdict(train_config),
        best_epoch=best,
        mean_acc=mean_acc,
        std_acc=std_acc,
        per_fold_acc=per_fold,
        folds=traces,
        precompute_seconds=precompute_seconds,
    )


def ablation_cells(axis: str, model_config: ModelConfig, depth_values=None) -> list[tuple]:
    """The (value, model config) cells of a sweep, each one validated, so a
    bad cell is refused before any cell trains. The features axis has eight:
    raw features always on, degrees on or off, propagation depth 0 to 3. The
    model axis has one per kind, each at its own default feature spec."""
    if axis == "features":
        cells = []
        for use_degree in (False, True):
            for K in (0, 1, 2, 3):
                parts = ["d"] if use_degree else []
                if K:
                    parts.append("a" + "".join(str(i) for i in range(1, K + 1)) + "x")
                spec = FeatureSpec(use_degree=use_degree, K=K)
                cells.append(("+".join(parts) or "none", replace(model_config, feature_spec=spec)))
        return cells
    if axis == "model":
        return [(kind, replace(model_config, kind=kind, feature_spec=None)) for kind in MODEL_KINDS]
    if axis != "depth":
        raise ValueError(f"unknown ablation axis {axis!r}")
    if not depth_values:
        raise ValueError("the depth grid is empty: it needs at least one layer count")
    if model_config.kind not in CONV_STACK_KINDS:
        raise ValueError(f"the depth axis sweeps the layers that {', '.join(CONV_STACK_KINDS)} "
                         f"stack; {model_config.kind} has none")
    return [(int(depth), replace(model_config, num_conv_layers=int(depth)))
            for depth in depth_values]


def ablation_sweep(
    dataset: Dataset,
    axis: str,
    cells: list[tuple],
    train_config: TrainConfig,
) -> list[dict]:
    """Cross-validate each (value, model config) cell that ``ablation_cells``
    built for ``axis``; returns one result row per cell, with its accuracy
    (``ABLATION_FIELDS``) and its wall-clock seconds (``TIMING_FIELDS``):
    the feature precompute, and the median epoch over every fold."""
    rows = []
    for value, cfg in cells:
        report = run_cv(dataset, cfg, train_config)
        rows.append(
            {
                "axis": axis,
                "value": value,
                "mean_acc": report.mean_acc,
                "std_acc": report.std_acc,
                "best_epoch": report.best_epoch,
                "precompute_s": report.precompute_seconds,
                "epoch_s": float(np.median([t.epoch_seconds for t in report.folds])),
            }
        )
    return rows


ABLATION_FIELDS = ("axis", "value", "mean_acc", "std_acc", "best_epoch")
TIMING_FIELDS = ("value", "precompute_s", "epoch_s")


def write_ablation_csv(rows: list[dict], train_config: TrainConfig, path: Path | str,
                       fields=ABLATION_FIELDS) -> None:
    """Write ``fields`` of each sweep row under a comment line with the seed,
    epochs and folds."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# seed={train_config.seed} epochs={train_config.epochs} folds={train_config.folds}\n")
        writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
