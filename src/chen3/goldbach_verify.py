"""Ground-truth verification: odd multiples of 3 as p1 + p2 + p3 with p1, p2
Chen primes and p3 a prime whose shift p3 + 2 has few prime factors.

Exhaustive at desk scale.  The range survey is FFT convolutions: the
unordered Chen pair counts u come from one self-convolution of the Chen-prime
indicator, every representation count from u * 1_P over the primes P, and the
smallest Omega(p3 + 2) from u * 1_{P_k} over the classes
P_k = {p : Omega(p + 2) = k} in order of k, until every n is resolved.
All of them come from arith_core's one kernel, _fft_convolutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith_core import FactorTable, _fft_convolutions, _indicator, build_factor_table, chen_primes
from .errors import DomainError


def _check_n(n: int) -> None:
    if n < 9 or n % 2 == 0 or n % 3 != 0:
        raise DomainError(f"n must be an odd multiple of 3 with n >= 9, got {n}")


def _pair_counts(chens: np.ndarray, n: int) -> np.ndarray:
    """u[s] = #{p1 <= p2 in chens : p1 + p2 = s} for 0 <= s <= n, from the
    ordered counts of one squared transform."""
    ind = _indicator(chens, chens.max(initial=-1) + 1)
    (counts,) = _fft_convolutions(ind, (ind,), n + 1)
    doubled = 2 * chens
    counts[doubled[doubled <= n]] += 1  # p1 = p2 is counted once among ordered pairs
    counts //= 2
    return counts


def find_representations(
    n: int,
    variant: str = "basic",
    z: float | None = None,
    limit: int | None = None,
    table: FactorTable | None = None,
) -> np.ndarray:
    """All representations n = p1 + p2 + p3 (p1 <= p2 Chen, p3 prime with
    Omega(p3 + 2) <= 2) as the rows (p1, p2, p3, Omega(p3 + 2)) of an
    (m, 4) int64 array, ordered by (p1, p2), optionally truncated to the
    first limit >= 0 rows.  For each p1 one mask over the Chen primes p2 in
    [p1, n - p1 - 2] picks the p3 = n - p1 - p2 that qualify."""
    _check_n(n)
    if limit is not None and limit < 0:
        raise DomainError(f"limit must be >= 0, got {limit}")
    if table is None:
        table = build_factor_table(n + 2)
    chens = chen_primes(n - 4, variant=variant, z=z, table=table)
    spf = table.smallest_prime_factor
    om = table.omega_big
    blocks = [np.empty((0, 4), dtype=np.int64)]
    found = 0
    for i, p1 in enumerate(chens.tolist()):
        if 2 * p1 > n - 2 or (limit is not None and found >= limit):
            break
        p2 = chens[i : np.searchsorted(chens, n - p1 - 2, side="right")]
        p3 = n - p1 - p2
        k = om[p3 + 2]
        hit = (spf[p3] == p3) & (k <= 2)
        blocks.append(np.column_stack((np.full(p2.size, p1), p2, p3, k))[hit])
        found += blocks[-1].shape[0]
    return np.concatenate(blocks)[:limit]


def representation_count(n: int, table: FactorTable | None = None) -> int:
    """Number of representations with all three of p1, p2, p3 Chen primes
    (p1 <= p2), via one FFT pair-count instead of pair enumeration."""
    _check_n(n)
    if table is None:
        table = build_factor_table(n + 2)
    chens = chen_primes(n - 4, table=table)
    unordered = _pair_counts(chens, n)
    p3s = chens[chens <= n - 4]
    return int(np.sum(unordered[n - p3s]))


def _survey_counts(
    u: np.ndarray, primes: np.ndarray, om_shift: np.ndarray, ns: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For each n in ns (all below u.size, as are the primes): the count
    sum_p u[n - p] over the primes p <= n, and the smallest om_shift of a
    prime p with u[n - p] > 0, or -1 when there is none.

    The counts are u * 1_P, and the minimum takes one more product
    u * 1_{P_k} per class P_k = {p : om_shift(p) = k}, in increasing k, all
    from one transform of u, and stops once every n with a positive count is
    resolved.  u >= 0, so a class count at n is positive exactly when some p
    in the class is.
    """
    top = u.size
    ks = np.unique(om_shift).tolist()
    classes = [primes] + [primes[om_shift == k] for k in ks]
    counts = _fft_convolutions(u, (_indicator(c, top) for c in classes), top)
    rep = next(counts)[ns]
    min_k = np.full(ns.size, -1, dtype=np.int64)
    open_ = rep > 0
    for k in ks:
        if not open_.any():
            break
        hit = open_ & (next(counts)[ns] > 0)
        min_k[hit] = k
        open_ &= ~hit
    return rep, min_k


@dataclass(frozen=True, eq=False)
class SurveyReport:
    """rows: one record per n, fields n, rep_count, min_k (int64), has_all_chen (bool)."""

    n_lo: int
    n_hi: int
    variant: str
    rows: np.recarray

    @property
    def failures(self) -> list[int]:
        return self.rows.n[~self.rows.has_all_chen].tolist()

    @property
    def all_ok(self) -> bool:
        return bool(self.rows.has_all_chen.all())


def range_survey(
    n_lo: int,
    n_hi: int,
    variant: str = "basic",
    z: float | None = None,
) -> SurveyReport:
    """Survey every odd multiple of 3 in [n_lo, n_hi].

    For each n: the number of unordered Chen pairs (p1, p2) with n - p1 - p2
    prime, and the minimum Omega(p3 + 2) over those p3.  A failure is any n
    with min_k > 2 (no representation with all three shifts almost-prime) or
    with no representation at all.  Both columns come from FFT convolutions
    (_survey_counts), O(n_hi log n_hi) for each Omega class reached.
    """
    if n_hi < n_lo:
        raise DomainError(f"need n_lo <= n_hi, got [{n_lo}, {n_hi}]")
    n_lo = max(n_lo, 9)
    table = build_factor_table(n_hi + 2)
    chens = chen_primes(n_hi - 4, variant=variant, z=z, table=table)
    unordered = _pair_counts(chens, n_hi)

    primes = table.primes(n_hi)
    om_shift = table.omega_big[primes + 2]

    ns = np.arange(n_lo + (3 - n_lo) % 6, n_hi + 1, 6)
    rep, min_k = _survey_counts(unordered, primes, om_shift, ns)
    ok = (rep > 0) & (min_k <= 2)
    rows = np.rec.fromarrays((ns, rep, min_k, ok), names=("n", "rep_count", "min_k", "has_all_chen"))
    return SurveyReport(n_lo=n_lo, n_hi=n_hi, variant=variant, rows=rows)
