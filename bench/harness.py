"""Measurement loop, statistics and set-up timing for the benchmark.

Standard library only, so that `setup_probe.py` can import it before numpy
and chen3 are loaded.
"""

from __future__ import annotations

import gc
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable

# One thread per process: numpy's BLAS would otherwise start a pool.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def pin_threads() -> None:
    os.environ.update(THREAD_ENV)


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    k = (len(xs) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


MIN_QUERY_SAMPLES = 100  # a query workload's percentiles need this many queries


def latency_samples(items, runs) -> tuple[str, list[float]]:
    """Latencies in ms that query_p50_ms and query_p90_ms are taken over.

    Each item's latency is first reduced to its median over the repetitions.
    A workload with queries uses only those, and needs MIN_QUERY_SAMPLES of
    them; one without (its few jobs) uses each job's time."""
    queries = [i for i, item in enumerate(items) if item.query]
    if queries and len(queries) < MIN_QUERY_SAMPLES:
        raise ValueError(f"{len(queries)} queries, need at least {MIN_QUERY_SAMPLES}")
    kind = "query" if queries else "job"
    return kind, [median(it.latencies[i] for it in runs) * 1e3
                  for i in (queries or range(len(items)))]


# ---- set-up ------------------------------------------------------------------


def import_chen3(src: Path):
    """Import chen3 from `src` and nowhere else."""
    if not (src / "chen3" / "__init__.py").is_file():
        raise FileNotFoundError(f"no chen3 package under {src}")
    sys.path.insert(0, str(src))
    import chen3

    if Path(chen3.__file__).resolve().parent != (src / "chen3").resolve():
        raise ImportError(f"chen3 imported from {chen3.__file__}, not from {src}")
    return chen3


def timed_setup(src: Path) -> float:
    """Seconds for a fresh process to import chen3 and run its one-time lazy
    builds: the linear-sieve integrator and the S1 product used by the
    major-arc model and the transference weights."""
    t0 = time.perf_counter()
    chen3 = import_chen3(src)
    chen3.rosser_sieve.default_linear_sieve()
    chen3.arith_core.singular_series_S1(10**6)
    return time.perf_counter() - t0


# ---- the measured loop -------------------------------------------------------


@dataclass
class Item:
    """One job or query: `run` is timed, `check` inspects its output later
    and returns a description of what is wrong, or None.  `known_error` is
    an exception type the item is known to raise today: such a raise is
    counted as failed but does not make the run incorrect.  Any other raise,
    and any output that fails its check, does."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    query: bool = False
    known_error: type | None = None


@dataclass
class Iteration:
    wall_s: float
    latencies: list[float]
    failures: list[str] = field(default_factory=list)
    wrong: int = 0  # failures other than an item's known error
    spans: list | None = None


def run_iteration(items: list[Item], tracer=None) -> Iteration:
    """Run every item once; outputs are checked after the clock stops."""
    outputs = []
    latencies = []
    gc.collect()
    t0 = time.perf_counter()
    for job, item in enumerate(items):
        span = tracer.open_job(job, item.name) if tracer else None
        t = time.perf_counter()
        try:
            outputs.append((item.run(), None))
        except Exception as exc:  # a failed job is counted, not fatal
            outputs.append((None, exc))
        latencies.append(time.perf_counter() - t)
        if span:
            tracer.close_job(span)
    wall = time.perf_counter() - t0
    it = Iteration(wall_s=wall, latencies=latencies)
    for item, (out, exc) in zip(items, outputs):
        if exc is None:
            try:
                error = item.check(out)
            except Exception:
                error = "check raised:\n" + traceback.format_exc()
        else:
            error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            it.failures.append(f"{item.name}: {error}")
            it.wrong += exc is None or type(exc) is not item.known_error
    return it


def verdict(runs: list[Iteration], items: list[Item]) -> dict:
    """The result's `correct`, `attempted` and `failed` over all repetitions."""
    return {
        "correct": all(it.wrong == 0 for it in runs),
        "attempted": len(items) * len(runs),
        "failed": sum(len(it.failures) for it in runs),
    }


def measure(items, seconds: float, reset: Callable[[], None]) -> list[Iteration]:
    """Repeat the item list while the next repetition still fits in `seconds`
    (at least once); `reset` drops the program's caches between repetitions."""
    runs = []
    start = time.perf_counter()
    while True:
        reset()
        runs.append(run_iteration(items))
        if time.perf_counter() - start + runs[-1].wall_s > seconds:
            return runs


def measure_traced(items, seconds: float, reset: Callable[[], None], tracer):
    """Alternate untraced and traced repetitions while the next pair still
    fits in `seconds` (at least one pair), so that host drift falls on both
    alike.  The wrappers are installed only for the traced repetition of
    each pair.  Returns (untraced, traced) lists of equal length."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        reset()
        untraced.append(run_iteration(items))
        reset()
        tracer.reset()
        tracer.install()
        try:
            traced.append(run_iteration(items, tracer))
        finally:
            tracer.remove()
        traced[-1].spans = tracer.spans
        pair = untraced[-1].wall_s + traced[-1].wall_s
        if time.perf_counter() - start + pair > seconds:
            return untraced, traced
