"""chen3 benchmark: one seeded workload per invocation.

    python3 bench/run.py --workload transfer --seed 1 --seconds 24 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): transfer,
ground_truth, sieve_sums.  The process runs on one thread.  It

1. times SETUP_PROBES fresh processes that import chen3 and run its lazy
   builds (`setup_s` is their median);
2. repeats the workload's job list while the next repetition fits in
   --seconds, dropping chen3's evaluator cache between repetitions, and
   checks every output after the clock stops;
3. prints each metric by name and unit, then, as the last line, one JSON
   object {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones: setup_s, wall_s (median
repetition), peak_rss_mb, query_p50_ms and query_p90_ms (latency of each
exp-sum or major-arc query on sieve_sums, of each job on the workloads that
have no queries; each latency is the median over the repetitions).  With
--trace 1 untraced repetitions alternate with repetitions that have every
chen3 layer function wrapped (tracer.py); the metrics are per-layer self
times, call counts, work counters and the tracing overhead, and the spans of
the last traced repetition go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median

import harness

harness.pin_threads()  # before anything imports numpy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 21
WORKLOADS = ("transfer", "ground_truth", "sieve_sums")
UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "query_p50_ms": "ms", "query_p90_ms": "ms"}


def setup_samples() -> list[float]:
    probe = BENCH / "setup_probe.py"
    samples = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run([sys.executable, str(probe)], capture_output=True, text=True,
                             timeout=120, check=True)
        samples.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_fraction", ".share")):
        return "ratio"
    return "count"


def end_to_end(runs, setups, items) -> dict:
    kind, lat_ms = harness.latency_samples(items, runs)
    metrics = {
        "setup_s": median(setups),
        "wall_s": median(it.wall_s for it in runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "query_p50_ms": harness.percentile(lat_ms, 50),
        "query_p90_ms": harness.percentile(lat_ms, 90),
    }
    over = f"over {len(lat_ms)} {kind} latencies, each the median of its {len(runs)} repetitions"
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes {[round(s, 4) for s in setups]}",
        "wall_s": f"median of {len(runs)} repetitions {[round(it.wall_s, 4) for it in runs]}",
        "peak_rss_mb": "peak RSS of this process",
        "query_p50_ms": over,
        "query_p90_ms": over,
    }
    for name, value in metrics.items():
        print(f"{name:12s} {value:10.4f} {UNITS[name]:2s}  {notes[name]}")
    for i, item in enumerate(items):
        if not item.query:
            print(f"  job {item.name}: {[round(it.latencies[i], 4) for it in runs]} s")
    return metrics


def per_layer(untraced, traced, tracer_mod, oracle) -> dict:
    per_iter = []
    counts = None
    for it in traced:
        times = tracer_mod.layer_times(it.spans)
        for layer in tracer_mod.LAYERS:
            times[f"{layer}.share"] = times[f"{layer}.self_s"] / it.wall_s
        per_iter.append(times)
        c = tracer_mod.work_counts(it.spans, oracle.primes_upto)
        if counts is not None and c != counts:
            raise RuntimeError(f"work counters differ between repetitions: {counts} vs {c}")
        counts = c
    metrics = tracer_mod.summarize(per_iter, per_iter[0].keys())
    metrics.update(counts)
    metrics["trace.wall_s"] = median(it.wall_s for it in traced)
    metrics["trace.untraced_wall_s"] = median(it.wall_s for it in untraced)
    # each traced repetition ran right after its untraced twin
    metrics["trace.overhead_s"] = median(t.wall_s - u.wall_s for u, t in zip(untraced, traced))
    names = tracer_mod.metric_names()
    if set(metrics) != set(names):
        raise RuntimeError(f"per-layer metrics {sorted(set(metrics) ^ set(names))} are unlisted or missing")
    metrics = {name: metrics[name] for name in names}
    for name, value in metrics.items():
        print(f"{name:42s} {value:.6g} {unit_of(name)}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "chen3" / "__init__.py").is_file():
        print(f"error: chen3 sources not found under {SRC}", file=sys.stderr)
        return 2
    setups = [] if args.trace else setup_samples()
    harness.timed_setup(SRC)  # this process's own set-up, untimed
    chen3 = sys.modules["chen3"]
    import oracle
    import tracer as tracer_mod
    import workloads

    wl = workloads.build(args.workload, chen3, args.seed)
    print(f"workload {wl.name}  seed {args.seed}  inputs {json.dumps(wl.inputs)}  "
          f"{len(wl.items)} jobs and queries per repetition")

    if args.trace:
        tracer = tracer_mod.Tracer()
        untraced, traced = harness.measure_traced(wl.items, args.seconds, wl.reset, tracer)
        print(f"{len(traced)} pairs of untraced and traced repetitions "
              f"({len(traced[-1].spans)} spans in the last traced one)")
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{wl.name}-seed{args.seed}.json")
        runs = untraced + traced
        metrics = per_layer(untraced, traced, tracer_mod, oracle)
    else:
        runs = harness.measure(wl.items, args.seconds, wl.reset)
        metrics = end_to_end(runs, setups, wl.items)

    result = harness.verdict(runs, wl.items)
    wrong = sum(it.wrong for it in runs)
    print(f"error_rate   {result['failed'] / result['attempted']:.6f}   {result['failed']} of "
          f"{result['attempted']} jobs and queries raised or failed their check "
          f"({wrong} of them not a known error)")
    for line in sorted(set(f for it in runs for f in it.failures))[:8]:
        print(f"  failed: {line.splitlines()[0][:200]}")
    result["metrics"] = {k: {"value": v, "unit": unit_of(k) if args.trace else UNITS[k]}
                         for k, v in metrics.items()}
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main())
