"""Repetition loop, correctness tally, metric assembly and output of one
benchmark run. ``run.py`` is the entry point; it fixes the thread count
before this module imports numpy."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gfnlab
import layers
import workloads
from tracer import Span, Tracer

# Untraced repetitions run set-up this many times, each on a fresh cache.
SETUPS_PER_REP = 3
# Repetitions (untraced, or untraced+traced pairs) before time may end a run.
MIN_ROUNDS = {False: workloads.CORPORA_PER_RUN, True: 2}


class Tally:
    """Operations attempted and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problems=()) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")


@dataclass
class Rep:
    """One repetition: its set-up times, CV wall time, reports and spans."""

    traced: bool
    corpus: int
    setup_s: list[float] = field(default_factory=list)
    cv_s: float = 0.0
    reports: list = field(default_factory=list)
    spans: list[Span] | None = None


def _error() -> str:
    return traceback.format_exc(limit=-1).strip().replace("\n", " | ")


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        if (git / ref[5:]).is_file():
            return (git / ref[5:]).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, thread_vars) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": {v: os.environ.get(v) for v in thread_vars},
        "commit": git_commit(root),
        "loadavg_at_start": list(os.getloadavg()),
    }


def measure(w, inputs: list, seed: int, seconds: float, trace: bool, tmp: Path, tally: Tally) -> list[Rep]:
    """Run repetitions until another would overrun ``seconds``, after a minimum.

    Round ``r`` uses corpus ``r % len(inputs)``. An untraced repetition sets up
    ``SETUPS_PER_REP`` times on fresh caches and then runs every CV phase on
    the last, now warm, cache. In the traced run each untraced repetition is
    followed by a traced one of the same corpus that sets up once. Every
    report is checked against the first report of its corpus and model; the
    first failure ends the run.
    """
    reps: list[Rep] = []
    reference: dict[tuple[int, str], str] = {}
    floor = None
    start = time.perf_counter()
    rounds = caches = 0
    while True:
        k = rounds % len(inputs)
        for traced in (False, True) if trace else (False,):
            rep = Rep(traced, k)
            tracer = Tracer() if traced else None
            if tracer is not None:
                layers.install(tracer)
            try:
                for _ in range(1 if traced else SETUPS_PER_REP):
                    caches += 1
                    cache_dir = tmp / f"cache-{caches}"
                    span = tracer.open("bench.setup") if tracer else None
                    t0 = time.perf_counter()
                    try:
                        dataset, _ = workloads.setup(w, inputs[k], cache_dir)
                    except Exception:
                        tally.record("setup", [_error()])
                        return reps
                    rep.setup_s.append(time.perf_counter() - t0)
                    if span is not None:
                        tracer.close(span)
                    tally.record("setup")
                span = tracer.open("bench.cv") if tracer else None
                t0 = time.perf_counter()
                for kind in w.kinds:
                    try:
                        rep.reports.append(workloads.cv_phase(w, kind, dataset, cache_dir))
                    except Exception:
                        tally.record(f"{kind} cv", [_error()])
                        for fold in range(w.folds):
                            tally.record(f"{kind} fold {fold}", ["not run"])
                        return reps
                rep.cv_s = time.perf_counter() - t0
                if span is not None:
                    tracer.close(span)
            finally:
                if tracer is not None:
                    tracer.restore()
                    rep.spans = tracer.spans
            if floor is None:
                floor = workloads.chance_floor(dataset)
                try:
                    problem = workloads.spmm_oracle(w, dataset, seed)
                except Exception:
                    problem = _error()
                tally.record("spmm oracle", [problem] if problem else [])
            for report in rep.reports:
                key = (k, report.model)
                problems, fold_problems = workloads.check_report(report, w, floor, reference.get(key))
                reference.setdefault(key, report.to_json())
                tally.record(f"{report.model} cv", problems)
                for fold in range(w.folds):
                    tally.record(f"{report.model} fold {fold}", fold_problems.get(fold, []))
            reps.append(rep)
            if tally.failures:
                return reps
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS[trace] and elapsed * (rounds + 1) / rounds > seconds:
            return reps


def end_to_end(untraced: list[Rep]) -> tuple[dict, dict]:
    setups = [s for r in untraced for s in r.setup_s]
    cv = [r.cv_s for r in untraced]
    # One sample per (repetition, phase, epoch): the epoch time averaged over
    # folds. With two folds of a skewed corpus, a median pooled over folds
    # falls between the two folds' modes and measures the split, not the code.
    epochs = [
        statistics.fmean(f.epoch_seconds[e] for f in rep.folds)
        for r in untraced
        for rep in r.reports
        for e in range(len(rep.folds[0].epoch_seconds))
    ]
    rates = []
    for r in untraced:
        folds = [f for rep in r.reports for f in rep.folds]
        rates.append(sum(f.train_size * len(f.epoch_seconds) for f in folds) / sum(sum(f.epoch_seconds) for f in folds))
    # The first repetition of each corpus; their reports fix mean_acc.
    by_corpus: dict[int, list] = {}
    for r in untraced:
        by_corpus.setdefault(r.corpus, r.reports)
    first = [report for reports in by_corpus.values() for report in reports]
    pct, epoch_tail = layers.tail(epochs)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "cv_s": {"value": statistics.median(cv), "unit": "s"},
        "train_graphs_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "epoch_ms_p50": {"value": 1000 * statistics.median(epochs), "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        "mean_acc": {"value": statistics.fmean(r.mean_acc for r in first), "unit": "ratio"},
    }
    notes = [
        f"samples: setup_s {len(setups)}, cv_s {len(cv)}, train_graphs_per_s {len(rates)}, "
        f"epoch_ms {len(epochs)} (tail p{pct:.1f} = {1000 * epoch_tail:.6g} ms)"
    ] + [f"  {r.summary()}" for r in first]
    extra = {
        "samples": {"setup_s": setups, "cv_s": cv, "train_graphs_per_s": rates, "epoch_s": epochs},
        "epoch_tail": {"percentile": pct, "ms": 1000 * epoch_tail, "samples": len(epochs)},
        "reports": [r.summary() for r in first],
    }
    return metrics, {**extra, "notes": notes}


def per_layer(untraced: list[Rep], traced: list[Rep], inputs: list) -> tuple[dict, dict]:
    per_rep = [layers.layer_metrics(r.spans) for r in traced]
    for m, r in zip(per_rep, traced):
        m["tu.input_mb"] = inputs[r.corpus].stats.input_mb
    values = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
    values["trace.overhead_frac"] = (
        statistics.median(r.cv_s for r in traced) / statistics.median(r.cv_s for r in untraced) - 1
    )
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in layers.PER_LAYER.items()}
    table = layers.self_time_table(traced[-1].spans)
    wall = sum(s.end - s.start for s in traced[-1].spans if s.name in layers.ROOT_SPANS) / 1e9
    notes = [
        f"tails: sparse.spmm_ms_tail is p{values['sparse.spmm_tail_pct']:.1f} of {values['sparse.spmm_calls']:.0f} calls, "
        f"harness.step_ms_tail is p{values['harness.step_tail_pct']:.1f} of {values['harness.steps']:.0f} steps; "
        f"per-layer values are medians over {len(traced)} traced repetitions",
        f"self time in the last traced repetition ({wall:.4g} s traced wall):",
    ] + [f"  {name:34s} {sec:9.4f} s {100 * sec / wall:5.1f}%" for name, sec in table[:12]]
    extra = {
        "cv_s": {"traced": [r.cv_s for r in traced], "untraced": [r.cv_s for r in untraced]},
        "self_time_s": dict(table),
    }
    return metrics, {**extra, "notes": notes}


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path, thread_vars) -> int:
    if workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if Path(gfnlab.__file__).resolve().parent != (root / "src" / "gfnlab").resolve():
        print(f"perfbench: imported gfnlab from {gfnlab.__file__}, not this checkout", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[workload]
    env = environment(root, thread_vars)
    out = root / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=out))
    # Anything that falls back to the default feature cache stays in this run.
    os.environ["GFNLAB_CACHE"] = str(tmp / "default-cache")
    tally = Tally()
    try:
        inputs = workloads.make_inputs(w, seed, tmp)
        reps = measure(w, inputs, seed, seconds, trace, tmp, tally)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    untraced = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    tag = f"{w.name}-seed{seed}-trace{int(trace)}"
    print(f"perfbench {tag}: {len(untraced)} untraced and {len(traced)} traced repetitions")
    print("env " + json.dumps(env, sort_keys=True))
    corpora = [i.stats.to_dict() for i in inputs]
    for stats in corpora:
        print("corpus " + json.dumps(stats, sort_keys=True))
    details = {"workload": w.name, "seed": seed, "trace": int(trace), "env": env, "corpora": corpora}
    metrics = {}
    if not tally.failures:
        metrics, extra = per_layer(untraced, traced, inputs) if trace else end_to_end(untraced)
        details.update(extra)
        for name, m in metrics.items():
            print(f"{name:36s} {m['value']:>14.6g} {m['unit']}")
        print("\n".join(extra["notes"]))
    failed = len(tally.failures)
    print(f"{'failed_frac':36s} {failed / tally.attempted:>14.6g} ratio ({failed} of {tally.attempted} operations)")
    for failure in tally.failures:
        print(f"FAILED {failure}")
    if traced:
        spans_file = out / f"spans-{tag}.json"
        spans_file.write_text(json.dumps([s.to_list() for s in traced[-1].spans]))
        details["spans_file"] = spans_file.name
    details.update(attempted=tally.attempted, failures=tally.failures, metrics=metrics)
    (out / f"result-{tag}.json").write_text(json.dumps(details, indent=1))
    print(json.dumps({"correct": not tally.failures, "attempted": tally.attempted, "failed": failed, "metrics": metrics}))
    return 1 if tally.failures else 0
