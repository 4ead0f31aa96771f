"""Ground-truth verification: odd multiples of 3 as p1 + p2 + p3 with p1, p2
Chen primes and p3 a prime whose shift p3 + 2 has few prime factors.

Exhaustive at desk scale; the range survey vectorizes the pair counts with a
single FFT self-convolution of the Chen-prime indicator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith_core import FactorTable, build_factor_table, chen_primes
from .errors import DomainError, InvariantError


def _check_n(n: int) -> None:
    if n < 9 or n % 2 == 0 or n % 3 != 0:
        raise DomainError(f"n must be an odd multiple of 3 with n >= 9, got {n}")


def _sum_counts(xs: np.ndarray, ys: np.ndarray, length: int) -> np.ndarray:
    """c[s] = #{(x, y) in xs x ys : x + y = s} for 0 <= s < length, from one
    FFT product of the indicators of xs and ys (nonnegative indices without
    repeats).  Passing ys is xs squares a single transform.

    Raises InvariantError unless every convolution value lies within 0.25 of
    the integer it is rounded to.
    """
    top = max(int(xs.max()), int(ys.max())) + 1
    size = 1
    while size < max(2 * top, length):  # no index wraps around
        size <<= 1

    def transform(idx):
        ind = np.zeros(top)
        ind[idx] = 1.0
        return np.fft.rfft(ind, size)

    # squaring and the rounding error are done in place, and the FFT buffers
    # dropped early, so the guard adds no array at the memory peak
    ft = transform(xs)
    if ys is xs:
        ft *= ft
    else:
        ft *= transform(ys)
    conv = np.fft.irfft(ft, size)[:length]
    del ft
    counts = np.rint(conv)
    conv -= counts
    err = float(np.max(np.abs(conv, out=conv)))
    del conv
    if not err < 0.25:
        raise InvariantError(f"FFT pair counts are {err:.3g} from the nearest integers")
    return counts.astype(np.int64)


def _pair_counts(chens: np.ndarray, n: int) -> np.ndarray:
    """u[s] = #{p1 <= p2 in chens : p1 + p2 = s} for 0 <= s <= n, from the
    ordered counts of _sum_counts."""
    counts = _sum_counts(chens, chens, n + 1)
    doubled = 2 * chens
    counts[doubled[doubled <= n]] += 1  # p1 = p2 is counted once among ordered pairs
    counts //= 2
    return counts


@dataclass(frozen=True)
class Representation:
    """n = p1 + p2 + p3 with p1 <= p2 Chen primes and Omega(p3 + 2) <= k."""

    n: int
    p1: int
    p2: int
    p3: int
    k_of_p3: int

    def validate(self, table: FactorTable, variant: str = "basic", z: float | None = None) -> bool:
        if self.p1 + self.p2 + self.p3 != self.n or self.p1 > self.p2:
            return False
        for p in (self.p1, self.p2):
            if not table.is_prime(p) or table.omega(p + 2) > 2:
                return False
            if variant == "strict" and table.spf(p + 2) < (z or 2):
                return False
        return table.is_prime(self.p3) and table.omega(self.p3 + 2) == self.k_of_p3


def find_representations(
    n: int,
    variant: str = "basic",
    z: float | None = None,
    k_cap: int = 2,
    limit: int | None = None,
    table: FactorTable | None = None,
) -> list[Representation]:
    """All representations n = p1 + p2 + p3 (p1 <= p2 Chen, p3 prime with
    Omega(p3 + 2) <= k_cap), ordered by (p1, p2), optionally truncated."""
    _check_n(n)
    if table is None:
        table = build_factor_table(n + 2)
    chens = chen_primes(n - 4, variant=variant, z=z, table=table)
    spf = table.smallest_prime_factor
    om = table.omega_big
    out: list[Representation] = []
    for p1 in chens:
        p1 = int(p1)
        if 2 * p1 > n - 2:
            break
        for p2 in chens[chens >= p1]:
            p2 = int(p2)
            p3 = n - p1 - p2
            if p3 < 2:
                break
            if spf[p3] == p3 and om[p3 + 2] <= k_cap:
                out.append(Representation(n=n, p1=p1, p2=p2, p3=p3, k_of_p3=int(om[p3 + 2])))
                if limit is not None and len(out) >= limit:
                    return out
    return out


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


@dataclass(frozen=True)
class SurveyRow:
    n: int
    rep_count: int
    min_k: int
    has_all_chen: bool


@dataclass(frozen=True)
class SurveyReport:
    n_lo: int
    n_hi: int
    variant: str
    rows: list[SurveyRow]
    failures: list[int]

    @property
    def all_ok(self) -> bool:
        return not self.failures


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
    with no representation at all.
    """
    if n_hi < n_lo:
        raise DomainError(f"need n_lo <= n_hi, got [{n_lo}, {n_hi}]")
    n_lo = max(n_lo, 9)
    table = build_factor_table(n_hi + 2)
    chens = chen_primes(n_hi - 4, variant=variant, z=z, table=table)
    unordered = _pair_counts(chens, n_hi)

    primes = table.primes(n_hi)
    om_shift = table.omega_big[primes + 2]

    rows: list[SurveyRow] = []
    failures: list[int] = []
    start = n_lo + (3 - n_lo) % 6
    for n in range(start, n_hi + 1, 6):
        p3s = primes[primes <= n - 4]
        cnts = unordered[n - p3s]
        hit = cnts > 0
        rep_count = int(np.sum(cnts[hit]))
        if rep_count == 0:
            rows.append(SurveyRow(n=n, rep_count=0, min_k=-1, has_all_chen=False))
            failures.append(n)
            continue
        min_k = int(np.min(om_shift[: p3s.size][hit]))
        ok = min_k <= 2
        rows.append(SurveyRow(n=n, rep_count=rep_count, min_k=min_k, has_all_chen=ok))
        if not ok:
            failures.append(n)
    return SurveyReport(n_lo=n_lo, n_hi=n_hi, variant=variant, rows=rows, failures=failures)
