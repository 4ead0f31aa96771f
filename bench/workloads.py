"""The three seeded workloads: their inputs, job lists and output checks.

The seed only picks exact inputs inside fixed sizes; chen3 receives the
generated n values and rationals (and, for `minor_major_contrast`, which
draws its own minor-arc rationals, a Generator made from the seed).

Exact integers are compared exactly.  Floats are compared to REL_TOL times a
stated scale, against an independent route in `oracle.py` or against
`reference.json` (written by `make_reference.py`).
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np

import oracle
from harness import Item

REL_TOL = 1e-9
REFERENCE = Path(__file__).with_name("reference.json")

# Seed-drawn input pools: base + step * k for 0 <= k < POOL.
POOL = 8
TRANSFER_BASES = (30003, 60003, 99999)  # odd multiples of 3; step 6
SURVEY_HI = 200001  # step 6
REPCOUNT_N = 3000003  # odd multiple of 3; step 6
CHEN_BOUND = 10**7
CHEN_STEP = 1000

# sieve_sums contexts and sizes
ARC_N, ARC_B, ARC_Q_MAX = 10**6, 2, 40
# major_arc_model raises DomainError at the centres with this q, although
# mu(25) = 0 makes the model 0 there: counted as failed, not as incorrect.
KNOWN_ERROR_Q = 25
CONTRAST_CTX = dict(n=10**6, W=6, b=5, k0=4)
CONTRAST_SAMPLES = 300
SPM_CTX = dict(n=2 * 10**5, W=6, b=5, k0=3)
SPM_QUERIES, SPM_Q_MAX = 200, 1000
PAIR_ARGS = (10**6, 2, 1, 5, 30, 60)  # n, W, b, M, z0, z1
ROSSER_D = ROSSER_LIMIT = 10**6
SELBERG_ARGS = dict(stage=1, M=5, W=2, n=10**6, k0=8, z0=300)
ROSSER_SPOT_CHECKS = 64

def pools() -> dict[str, list[int]]:
    return {
        "transfer": [b + 6 * k for b in TRANSFER_BASES for k in range(POOL)],
        "survey": [SURVEY_HI + 6 * k for k in range(POOL)],
        "representation_count": [REPCOUNT_N + 6 * k for k in range(POOL)],
        "chen_primes": [CHEN_BOUND + CHEN_STEP * k for k in range(POOL)],
    }


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def close(got, want, scale) -> bool:
    return abs(got - want) <= REL_TOL * scale


def problems(*pairs) -> str | None:
    """Join the descriptions whose condition failed."""
    bad = [msg for ok, msg in pairs if not ok]
    return "; ".join(bad) if bad else None


class Workload:
    """A named job list; `reset` drops chen3's caches between repetitions."""

    def __init__(self, name: str, items: list[Item], inputs: dict, reset=lambda: None):
        self.name, self.items, self.inputs, self.reset = name, items, inputs, reset


def build(name: str, chen3, seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    ref = load_reference()
    return {"transfer": transfer, "ground_truth": ground_truth, "sieve_sums": sieve_sums}[name](
        chen3, rng, ref)


# ---- transfer -----------------------------------------------------------------


def transfer(chen3, rng, ref) -> Workload:
    ns = [base + 6 * int(rng.integers(POOL)) for base in TRANSFER_BASES]

    def check(n, rep):
        want = ref["transfer"][str(n)]
        st = {s["stage"]: s for s in rep["stages"]}
        lift = rep["lift_check"]
        scale = abs(want["raw_triple_sum"])
        return problems(
            (rep["ledger"]["N"] == want["N"], f"N {rep['ledger']['N']} != {want['N']}"),
            (st["spectra"]["sizes"] == want["spectrum_sizes"], f"spectrum sizes {st['spectra']['sizes']}"),
            (st["bohr_sets"]["sizes"] == want["bohr_sizes"], f"Bohr sizes {st['bohr_sets']['sizes']}"),
            (st["level_sets"]["sizes"] == want["level_set_sizes"], f"level sets {st['level_sets']['sizes']}"),
            (st["pollard"].get("count") == want["pollard_count"], f"Pollard count {st['pollard'].get('count')}"),
            (rep["ground_truth_representations"] == want["representations"],
             f"representations {rep['ground_truth_representations']} != {want['representations']}"),
            (close(rep["raw_triple_sum"], want["raw_triple_sum"], scale), f"raw triple sum {rep['raw_triple_sum']}"),
            (close(st["threesum_comparison"]["smoothed"], want["smoothed_triple_sum"], scale),
             f"smoothed triple sum {st['threesum_comparison']['smoothed']}"),
            (lift is None or (lift["lifts_to_integers"] and sum(lift["primes"]) == n), f"lift {lift}"),
        )

    items = [
        Item(f"run_transference({n})",
             lambda n=n: chen3.transference.run_transference(n, profile="desk", ground_truth=True),
             lambda rep, n=n: check(n, rep))
        for n in ns
    ]
    return Workload("transfer", items, {"n": ns})


# ---- ground_truth -------------------------------------------------------------


def ground_truth(chen3, rng, ref) -> Workload:
    hi = SURVEY_HI + 6 * int(rng.integers(POOL))
    n = REPCOUNT_N + 6 * int(rng.integers(POOL))
    bound = CHEN_BOUND + CHEN_STEP * int(rng.integers(POOL))
    gv, ac = chen3.goldbach_verify, chen3.arith_core

    def check_survey(rep):
        want = ref["survey"][str(hi)]
        rows = np.array([(r.n, r.rep_count, r.min_k) for r in rep.rows], dtype=np.int64)
        return problems(
            (len(rows) == want["rows"], f"{len(rows)} rows != {want['rows']}"),
            (oracle.digest(rows) == want["digest"], "rows differ from the reference survey"),
            (list(rep.failures) == want["failures"], f"failures {list(rep.failures)[:10]}"),
        )

    def check_count(got):
        want = ref["representation_count"][str(n)]
        return problems((got == want, f"count {got} != {want}"))

    def check_chen(arr):
        want = ref["chen_primes"][str(bound)]
        return problems(
            (arr.size == want["count"], f"{arr.size} Chen primes != {want['count']}"),
            (oracle.digest(arr) == want["digest"], "Chen primes differ from the reference"),
        )

    items = [
        Item(f"range_survey(9, {hi})", lambda: gv.range_survey(9, hi), check_survey),
        Item(f"representation_count({n})", lambda: gv.representation_count(n), check_count),
        Item(f"chen_primes({bound})", lambda: ac.chen_primes(bound), check_chen),
    ]
    return Workload("ground_truth", items, {"survey_hi": hi, "representation_n": n, "chen_bound": bound})


# ---- sieve_sums ---------------------------------------------------------------


def draw_rationals(rng, count: int, q_max: int) -> list[tuple[int, int]]:
    out = []
    while len(out) < count:
        q = int(rng.integers(2, q_max + 1))
        a = int(rng.integers(1, q))
        if gcd(a, q) == 1:
            out.append((a, q))
    return out


def sieve_sums(chen3, rng, ref) -> Workload:
    cm, rs, ss = chen3.circle_method, chen3.rosser_sieve, chen3.selberg_sieve
    contrast_seed = int(rng.integers(2**32))
    spm_alphas = draw_rationals(rng, SPM_QUERIES, SPM_Q_MAX)
    spot_qs = [int(q) for q in rng.integers(1, ROSSER_LIMIT + 1, size=ROSSER_SPOT_CHECKS)]

    ctx_a = cm.SieveContext(**CONTRAST_CTX)
    ctx_b = cm.SieveContext(**SPM_CTX)
    dissection = cm.ArcDissection(ARC_N, ARC_B)
    centres = [(a, q) for a, q in dissection.rationals if q <= ARC_Q_MAX]

    # independent routes, computed once per run
    sums_a = oracle.ExpSums.sieve_indicator(ctx_a.n, ctx_a.W, ctx_a.b, ctx_a.z0)
    s0_a = sums_a.at_zero()
    s1 = oracle.twin_series(10**6)
    small_b = [int(p) for p in oracle.primes_upto(int(ctx_b.z0) + 1) if p < ctx_b.z0]
    sums_b = {"moebius": oracle.ExpSums.sieve_indicator(ctx_b.n, ctx_b.W, ctx_b.b, ctx_b.z0)}
    for mode, sign in (("rosser_plus", "+"), ("rosser_minus", "-")):
        lam = dict(rs.build_rosser(ctx_b.D, sign, primes=np.array(small_b, dtype=np.int64)).support)
        if sign == "-":  # lambda^-(p) = -1 for every prime p, also p >= D
            lam.update({p: -1 for p in small_b if p >= ctx_b.D})
        sums_b[mode] = oracle.ExpSums.divisor_weights(ctx_b.n, ctx_b.W, ctx_b.b, lam)
    s0_b = {mode: s.at_zero() for mode, s in sums_b.items()}
    bound_plus = s0_b["rosser_plus"] - s0_b["moebius"]
    bound_minus = s0_b["moebius"] - s0_b["rosser_minus"]
    exact_pairs = oracle.pair_counts(*PAIR_ARGS)
    divisor_sums = {}
    for sign in "+-":
        support = rs.build_rosser(ROSSER_D, sign).support
        for q in spot_qs:
            divisor_sums[sign, q] = oracle.squarefree_divisor_sum(
                q, support, ROSSER_D if sign == "-" else None)

    # expected values are computed once and reused by every repetition's check
    @functools.cache
    def contrast_major():
        return sorted(abs(sums_a.at(a, q)) / s0_a
                      for q in range(1, 11) for a in range(1, q + 1) if gcd(a, q) == 1)

    @functools.cache
    def centre(a, q):
        return sums_a.at(a, q), oracle.major_arc_model(ctx_a.n, ctx_a.W, ctx_a.b, ctx_a.k0, a, q, s1)

    @functools.cache
    def spm_sums(a, q):
        return {mode: sums.at(a, q) for mode, sums in sums_b.items()}

    def check_contrast(rep):
        want = contrast_major()
        got = sorted(rep.major_ratios)
        minor = rep.minor_ratios
        return problems(
            (len(minor) == CONTRAST_SAMPLES, f"{len(minor)} minor samples"),
            (all(0.0 <= r <= 1.0 + REL_TOL for r in minor), "a minor ratio outside [0, 1]"),
            (len(got) == len(want) and all(close(g, w, 1.0) for g, w in zip(got, want)),
             "major-arc ratios differ from the direct sums"),
            (rep.median_minor == float(np.median(minor)) and rep.max_minor == max(minor),
             "summary statistics disagree with the samples"),
        )

    def check_centre(a, q, res):
        actual, model = centre(a, q)
        return problems(
            (close(res.actual, actual, s0_a), f"S({a}/{q}) = {res.actual}, direct {actual}"),
            (close(res.model, model, s0_a), f"model {res.model}, expected {model}"),
            (close(res.rel_err, abs(model - actual) / s0_a, 1.0), f"rel_err {res.rel_err}"),
        )

    def check_spm_build(rep):
        return problems(
            (close(rep.bound_plus, bound_plus, s0_b["moebius"]), f"S+(0) - S(0) = {rep.bound_plus}"),
            (close(rep.bound_minus, bound_minus, s0_b["moebius"]), f"S(0) - S-(0) = {rep.bound_minus}"),
            (rep.ok and not rep.rows, "empty comparison not ok"),
        )

    def check_spm(a, q, rep):
        s = spm_sums(a, q)
        slack_plus = bound_plus - abs(s["rosser_plus"] - s["moebius"])
        slack_minus = bound_minus - abs(s["moebius"] - s["rosser_minus"])
        row = rep.rows[0]
        scale = s0_b["moebius"]
        return problems(
            (len(rep.rows) == 1, f"{len(rep.rows)} rows"),
            (close(row.slack_plus, slack_plus, scale), f"slack+ {row.slack_plus}, direct {slack_plus}"),
            (close(row.slack_minus, slack_minus, scale), f"slack- {row.slack_minus}, direct {slack_minus}"),
            (row.ok and rep.ok, f"sandwich |S+-S| <= S+(0)-S(0) fails at {a}/{q}"),
        )

    def check_pairs(rep):
        want = ref["pair_count_bound"]
        return problems(
            ((rep.exact_count, rep.exact_count_above_z1) == exact_pairs,
             f"exact counts {(rep.exact_count, rep.exact_count_above_z1)} != {exact_pairs}"),
            *((close(getattr(rep, k), want[k], abs(want[k])), f"{k} {getattr(rep, k)} != {want[k]}")
              for k in ("sieve_bound", "main_term", "remainder_tally", "pointwise_qf")),
            (rep.ok, "Selberg bound below the exact count"),
        )

    def rosser_job():
        weights = {s: rs.build_rosser(ROSSER_D, s) for s in "+-"}
        return weights, {s: rs.divisor_sum_table(w, ROSSER_LIMIT) for s, w in weights.items()}

    def check_rosser(out):
        weights, tables = out
        mid = np.zeros(ROSSER_LIMIT + 1, dtype=np.int64)
        mid[1] = 1  # sum of mu(d) over d | q is [q = 1]
        lo, hi = tables["-"][1:], tables["+"][1:]
        spot = [(s, q) for s in "+-" for q in spot_qs if tables[s][q] != divisor_sums[s, q]]
        return problems(
            (len(weights["+"].support) == ref["rosser_support"]["+"], f"|supp+| {len(weights['+'].support)}"),
            (len(weights["-"].support) == ref["rosser_support"]["-"], f"|supp-| {len(weights['-'].support)}"),
            (bool(np.all(lo <= mid[1:]) and np.all(mid[1:] <= hi)), "Moebius sandwich fails"),
            (not spot, f"divisor sums differ from direct sums at {spot[:4]}"),
        )

    def selberg_job():
        system = ss.build_selberg(**SELBERG_ARGS)
        return system, ss.quadratic_form(system)

    def check_selberg(out):
        system, qf = out
        return problems(
            (qf == 1 / system.G1, f"quadratic form {qf} != 1/G1"),
            (system.lam[1] == 1, f"lambda(1) = {system.lam[1]}"),
            (len(system.lam) == ref["selberg_lambda_support"], f"|lambda| {len(system.lam)}"),
        )

    items = [Item(f"minor_major_contrast({CONTRAST_SAMPLES})",
                  lambda: cm.minor_major_contrast(ctx_a, dissection, samples=CONTRAST_SAMPLES,
                                                  rng=np.random.default_rng(contrast_seed)),
                  check_contrast)]
    items += [Item(f"major_arc_model({a}/{q})",
                   lambda a=a, q=q: cm.major_arc_model(ctx_a, a, q, a / q, dissection=dissection),
                   lambda res, a=a, q=q: check_centre(a, q, res), query=True,
                   known_error=chen3.DomainError if q == KNOWN_ERROR_Q else None)
              for a, q in centres]
    items.append(Item("spm_comparison([])", lambda: cm.spm_comparison(ctx_b, []), check_spm_build))
    items += [Item(f"spm_comparison({a}/{q})",
                   lambda a=a, q=q: cm.spm_comparison(ctx_b, [Fraction(a, q)]),
                   lambda rep, a=a, q=q: check_spm(a, q, rep), query=True)
              for a, q in spm_alphas]
    items.append(Item("pair_count_bound", lambda: ss.pair_count_bound(*PAIR_ARGS), check_pairs))
    items.append(Item("build_rosser(1e6, +-) + divisor_sum_table", rosser_job, check_rosser))
    items.append(Item("build_selberg + quadratic_form", selberg_job, check_selberg))

    clear = cm.get_evaluator.cache_clear
    inputs = {"contrast_seed": contrast_seed, "major_arc_centres": len(centres),
              "spm_rationals": len(spm_alphas)}
    return Workload("sieve_sums", items, inputs, reset=clear)
