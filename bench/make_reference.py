"""Write bench/reference.json, the stored outputs the benchmark checks against.

    python3 bench/make_reference.py

Ground-truth values (survey rows, representation counts, Chen primes, the
representation counts inside `transfer`) come from the independent routes in
`oracle.py`.  Values with no cheap independent route (transference stage
sizes, triple sums, Pollard counts, Selberg bound terms, Rosser support
sizes) are recorded from chen3 itself, so that later changes must reproduce
them.  Takes a few minutes on one core.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import harness

harness.pin_threads()
ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    chen3 = harness.import_chen3(ROOT / "src")
    import oracle
    import workloads as wl

    pools = wl.pools()
    ref: dict = {"_provenance": __doc__.strip().splitlines()[0]}
    t0 = time.perf_counter()

    def log(msg):
        print(f"[{time.perf_counter() - t0:7.1f}s] {msg}", flush=True)

    top = max(pools["chen_primes"]) + 2
    omega = oracle.big_omega(max(top, max(pools["representation_count"]) + 2))
    log("Omega table")
    ref["chen_primes"] = {}
    for bound in pools["chen_primes"]:
        chens = oracle.chen_from_omega(omega, bound)
        ref["chen_primes"][str(bound)] = {"count": int(chens.size), "digest": oracle.digest(chens)}
    log("Chen primes")

    n_max = max(pools["representation_count"])
    pairs = oracle.unordered_pair_counts(oracle.chen_from_omega(omega, n_max - 4), n_max)
    ref["representation_count"] = {
        str(n): oracle.representation_count(n, omega, pairs) for n in pools["representation_count"]}
    log("representation counts")

    hi_max = max(pools["survey"])
    pairs = oracle.unordered_pair_counts(oracle.chen_from_omega(omega, hi_max - 4), hi_max)
    rows = oracle.survey_rows(hi_max, omega, pairs)
    ref["survey"] = {}
    for hi in pools["survey"]:
        part = rows[rows[:, 0] <= hi]
        failures = [int(n) for n, count, k in part if count == 0 or k > 2]
        ref["survey"][str(hi)] = {"rows": int(len(part)), "digest": oracle.digest(part),
                                  "failures": failures}
    log("survey rows")

    ref["transfer"] = {}
    for n in pools["transfer"]:
        rep = chen3.transference.run_transference(n, profile="desk", ground_truth=False)
        st = {s["stage"]: s for s in rep["stages"]}
        hi = n - 4
        pairs = oracle.unordered_pair_counts(oracle.chen_from_omega(omega, hi), n)
        ref["transfer"][str(n)] = {
            "N": rep["ledger"]["N"],
            "spectrum_sizes": st["spectra"]["sizes"],
            "bohr_sizes": st["bohr_sets"]["sizes"],
            "level_set_sizes": st["level_sets"]["sizes"],
            "pollard_count": st["pollard"].get("count"),
            "raw_triple_sum": rep["raw_triple_sum"],
            "smoothed_triple_sum": st["threesum_comparison"]["smoothed"],
            "representations": oracle.representation_count(n, omega, pairs),
        }
        log(f"transfer {n}")

    pc = chen3.selberg_sieve.pair_count_bound(*wl.PAIR_ARGS)
    ref["pair_count_bound"] = {k: getattr(pc, k) for k in
                               ("sieve_bound", "main_term", "remainder_tally", "pointwise_qf")}
    ref["rosser_support"] = {
        s: len(chen3.rosser_sieve.build_rosser(wl.ROSSER_D, s).support) for s in "+-"}
    ref["selberg_lambda_support"] = len(chen3.selberg_sieve.build_selberg(**wl.SELBERG_ARGS).lam)
    log("sieve_sums references")

    with open(wl.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
