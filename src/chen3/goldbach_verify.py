"""Ground-truth verification: odd multiples of 3 as p1 + p2 + p3 with p1, p2
Chen primes and p3 a prime whose shift p3 + 2 has few prime factors.

Exhaustive at desk scale, on the residue classes mod 6 (the W-trick with
W = 6).  Every prime above 3 is 1 or 5 mod 6 and n is 3 mod 6, so three such
primes sum to n only in the classes (1, 1, 1) and (5, 5, 5): the mixed
triples sum to 1 or 5 mod 6.  Each class c sits on the grid x = (p - c)/6,
about n/6 long.  The count at one n reads the triples of each class grid
that sum to t = (n - 3c)/6 as one coefficient of a cube
(arith_core._fft_triple_count); the survey's pair counts are one
self-convolution on each grid (_class_pair_counts).  The rest goes through
2 or 3: 2 only as 2 + 2 + (n - 4), in any order, and 3 only as 3 + 3 + 3
or as 3 plus one prime of each class.

The range survey puts the pairs (3, p) and (2, 2) on the pair grids as
shifted indicators, so each prime class P_c meets one grid u.  It counts
u * 1_{P_c} and finds the smallest Omega(p3 + 2) from u * 1_{P_c,k} over the
subclasses P_c,k = {p in P_c : Omega(p + 2) = k} in order of k, each formed
only when reached, until no n can lower its best k so far.  p3 = 3 reads
the (1, 5) cross count and p3 = 2 the pair (2, n - 4); these seed the best
k, then class 5 runs, then class 1, whose Omega(p + 2) is at least 2.  All
its products come from arith_core's kernel of linear products,
_fft_convolutions, one call for the counts and one per class formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith_core import (
    FactorTable,
    _fft_convolutions,
    _fft_triple_count,
    _indicator,
    build_factor_table,
    chen_primes,
)
from .errors import DomainError, InvariantError, ResourceBudgetError

SURVEY_HI_BUDGET = 30_000_000  # grids of 31-33 bytes per unit of n_hi (300 MB at 10^7): 1 GB
REPRESENTATION_ROW_BUDGET = 10_000_000  # rows of about 90 bytes at the peak: 0.9 GB, as the grids


def _check_n(n: int) -> None:
    if n < 9 or n % 2 == 0 or n % 3 != 0:
        raise DomainError(f"n must be an odd multiple of 3 with n >= 9, got {n}")


def _class_pair_counts(xs: np.ndarray, length: int, ys: np.ndarray | None = None) -> tuple:
    """Pair counts on one class grid, for 0 <= t < length (empty when
    length <= 0): the unordered self-count u[t] = #{x <= x' in xs : x + x' =
    t} from one squared transform of xs, preceded, when ys is given, by the
    cross count #{(x, y) in xs x ys : x + y = t} from the same transform.
    Returns (u,) or (cross, u)."""
    length = max(length, 0)
    xs = xs[xs < length]
    ind = _indicator(xs, length)
    gs = (ind,) if ys is None else (_indicator(ys[ys < length], length), ind)
    *cross, u = _fft_convolutions(ind, gs, length)
    doubled = 2 * xs
    u[doubled[doubled < length]] += 1  # x = x' is counted once among ordered pairs
    u //= 2
    return (*cross, u)


def _pair_witnesses(t: int, xs: np.ndarray, in_z: np.ndarray, limit: int | None = None) -> np.ndarray:
    """The rows (x, y, t - x - y) of an (m, 3) int64 array for the pairs
    x <= y in xs (sorted int64) with in_z[t - x - y], in_z a bool indicator
    covering [0, t], ordered by (x, y) and stopped after the first limit >= 0
    rows.  One gather of in_z per x, over the y in [x, t - x]."""
    blocks = [np.empty((0, 3), dtype=np.int64)]
    found = 0
    for i, x in enumerate(xs.tolist()):
        if 2 * x > t or (limit is not None and found >= limit):
            break
        ys = xs[i : np.searchsorted(xs, t - x, side="right")]
        ys = ys[in_z[t - x - ys]]
        blocks.append(np.column_stack((np.full(ys.size, x), ys, t - x - ys)))
        found += ys.size
    return np.concatenate(blocks)[:limit]


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
    first limit >= 0 rows: the pair witnesses of n in the Chen primes
    against the basic Chen indicator, which picks the p3 that qualify.  More
    than REPRESENTATION_ROW_BUDGET rows is a ResourceBudgetError, raised
    before any row is built."""
    _check_n(n)
    if limit is not None and limit < 0:
        raise DomainError(f"limit must be >= 0, got {limit}")
    if table is None:
        table = build_factor_table(n + 2)
    # the basic count bounds the rows of every variant
    cap = REPRESENTATION_ROW_BUDGET
    if (limit is None or limit > cap) and (count := representation_count(n, table=table)) > cap:
        raise ResourceBudgetError(f"{count} representations of {n} exceed the budget of {cap} "
                                  f"rows: ask for at most {cap} with --limit")
    chens = chen_primes(n - 4, variant=variant, z=z, table=table)
    # p3 <= n - 4 qualifies exactly when it is a basic Chen prime
    basic = chens if variant == "basic" else chen_primes(n - 4, table=table)
    rows = _pair_witnesses(n, chens, _indicator(basic, n + 1), limit)
    return np.column_stack((rows, table.omega(rows[:, 2] + 2)))


def representation_count(n: int, table: FactorTable | None = None) -> int:
    """Number of representations with all three of p1, p2, p3 Chen primes
    (p1 <= p2): for each class c in {1, 5}, the ordered triples on its grid
    that sum to t = (n - 3c)/6, one coefficient of a cube
    (_fft_triple_count), made unordered in (p1, p2) as (ordered + #{p1 =
    p2})/2, or InvariantError when that sum is odd; plus the terms through
    2 and 3 (both Chen primes) as gathers of the Chen indicator."""
    _check_n(n)
    if table is None:
        table = build_factor_table(n + 2)
    chens = chen_primes(n - 4, table=table)
    is_chen = _indicator(chens, n - 3)
    ordered = sum(_fft_triple_count((chens[chens % 6 == c] - c) // 6, (n - 3 * c) // 6)
                  for c in (1, 5))
    # p1 = p2 = p in either class: 2p + p3 = n, and then p3 is in p's class
    halves = chens[(chens > 3) & (2 * chens < n)]
    doubles = np.count_nonzero(is_chen[n - 2 * halves])
    if (ordered + doubles) % 2:
        raise InvariantError(f"{ordered} ordered triples and {doubles} with p1 = p2 do not pair up")
    # 3 + p + p' with p = 1, p' = 5 mod 6 counts once per place of the 3;
    # 2 + 2 + (n - 4) twice: (2, 2; n - 4) and (2, n - 4; 2)
    cross = np.count_nonzero(is_chen[n - 3 - chens[chens % 6 == 1]])
    return int((ordered + doubles) // 2 + 3 * cross + (n == 9) + 2 * is_chen[n - 4])


def _survey_counts(
    u: np.ndarray, primes: np.ndarray, in_class, ns: np.ndarray, best: np.ndarray
) -> np.ndarray:
    """For each n in ns (all below u.size, as are the primes): the count
    sum_p u[n - p] over the primes p <= n, returned, and the smallest k with
    u[n - p] > 0 for some p in the class in_class(k) (a bool mask over
    primes), folded into best (the running minimum per n, lowered in place).

    The counts are u * 1_P, and the minimum takes one more product
    u * 1_{P_k} per nonempty class P_k, for k = 1, 2, ..., each one more
    kernel call, which transforms u again.  A class is formed only when its
    k is reached, and the classes stop at the first k where no n with a
    positive count and best above k is left open.  u >= 0, so a class count
    at n is positive exactly when some p in the class is.
    """
    top = u.size
    (counts,) = _fft_convolutions(u, (_indicator(primes, top),), top)
    rep = counts[ns]
    open_ = rep > 0
    for k in range(1, 64):  # Omega(x) <= log2(x) < 64
        open_ &= best > k
        if not open_.any():
            break
        members = primes[in_class(k)]
        if members.size:
            (conv,) = _fft_convolutions(u, (_indicator(members, top),), top)
            hit = open_ & (conv[ns] > 0)
            best[hit] = k
            open_ &= ~hit
    return rep


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
    on grids of about n_hi/6 points (_class_pair_counts, then
    _survey_counts once per prime class), O(n_hi log n_hi) for each Omega
    class reached.  n_hi above SURVEY_HI_BUDGET is a ResourceBudgetError.
    """
    if n_hi < n_lo:
        raise DomainError(f"need n_lo <= n_hi, got [{n_lo}, {n_hi}]")
    if n_hi > SURVEY_HI_BUDGET:  # before the table and the grids
        raise ResourceBudgetError(f"survey to {n_hi} exceeds budget {SURVEY_HI_BUDGET}")
    n_lo, hi = max(n_lo, 9), max(n_hi, 9)  # a range below 9 holds no n: an empty survey
    table = build_factor_table(hi + 2)
    chens = chen_primes(hi - 4, variant=variant, z=z, table=table)
    two, three = np.isin((2, 3), chens)
    x1, x5 = ((chens[chens % 6 == c] - c) // 6 for c in (1, 5))
    ns = np.arange(n_lo + (3 - n_lo) % 6, n_hi + 1, 6)
    ms = (ns - 9) // 6
    top = (hi - 9) // 6 + 1

    # n = 6m + 9, and each pair sum s meets one class of p3 = n - s:
    # s = 6t + 6 (the pairs (1, 5)) meets p3 = 3 at t = m; s = 6t + 2 (the
    # pairs (1, 1) and (3, 6y + 5)) meets 6w + 1 at t + w = m + 1; s = 6t + 4
    # (the pairs (5, 5) from t = 1 on, (3, 6x + 1) and (2, 2)) meets 6w + 5
    # at t + w = m
    cross, u1 = _class_pair_counts(x1, top + 1, x5)
    (u5,) = _class_pair_counts(x5, top - 1)
    v5 = np.concatenate(([int(two)], u5))[:top]
    if three:
        u1[x5[x5 < top] + 1] += 1
        v5[x1[x1 < top]] += 1

    primes = table.primes(hi - 4)
    p1, p5 = (primes[primes % 6 == c] for c in (1, 5))
    # the p3 = 3 and p3 = 2 terms seed the best Omega(p3 + 2) per n; class 5
    # (Omega(p + 2) = 1 is possible) runs before class 1 (3 | p + 2)
    rep3 = cross[ms] + three * (ns == 9)  # p3 = 3; 3 + 3 + 3 at n = 9
    rep2 = two * np.isin(ms, x5)  # p3 = 2, with the pair (2, n - 4 = 6m + 5)
    none = np.iinfo(np.int64).max
    min_k = np.full(ns.size, none)
    for count, k in zip((rep3, rep2), table.omega([5, 4]).tolist()):
        np.minimum(min_k, np.where(count > 0, k, none), out=min_k)
    rep = rep3 + rep2
    rep += _survey_counts(v5, (p5 - 5) // 6, lambda k: table.omega(p5 + 2) == k, ms, min_k)
    rep += _survey_counts(u1, (p1 - 1) // 6, lambda k: table.omega(p1 + 2) == k, ms + 1, min_k)
    min_k[min_k == none] = -1
    ok = (rep > 0) & (min_k <= 2)
    rows = np.rec.fromarrays((ns, rep, min_k, ok), names=("n", "rep_count", "min_k", "has_all_chen"))
    return SurveyReport(n_lo=n_lo, n_hi=n_hi, variant=variant, rows=rows)
