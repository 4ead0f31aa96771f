"""Prime generation, factor tables and prime-type predicates.

Everything downstream (sieve weights, exponential sums, the transference
pipeline) consumes the objects built here.  All counts of prime factors are
with multiplicity (big Omega), so the almost-prime classes include prime
powers: 49 = 7^2 is a 2-almost-prime and hence 7 is a Chen prime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import numpy as np

from .errors import DomainError, ResourceBudgetError

# Segment size for the segmented factor sieve (entries per chunk).
DEFAULT_SEGMENT = 1 << 20
# Hard cap on the total number of table entries built in one call.
DEFAULT_TABLE_BUDGET = 1 << 27

EULER_GAMMA = 0.5772156649015329


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (plain Eratosthenes)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve)[0].astype(np.int64)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime_u64(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3 * 10^24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FactorTable:
    """Smallest prime factor and Omega (with multiplicity) over [lo, hi]."""

    lo: int
    hi: int
    smallest_prime_factor: np.ndarray
    omega_big: np.ndarray

    def _idx(self, x: int) -> int:
        if not (self.lo <= x <= self.hi):
            raise DomainError(f"x={x} outside table range [{self.lo}, {self.hi}]")
        return x - self.lo

    def spf(self, x: int) -> int:
        """Smallest prime factor of x (1 for x = 1)."""
        return int(self.smallest_prime_factor[self._idx(x)])

    def omega(self, x: int) -> int:
        """Number of prime factors of x counted with multiplicity."""
        return int(self.omega_big[self._idx(x)])

    def is_prime(self, x: int) -> bool:
        return x >= 2 and self.spf(x) == x


def build_factor_table(
    lo: int,
    hi: int,
    segment_size: int = DEFAULT_SEGMENT,
    budget: int = DEFAULT_TABLE_BUDGET,
) -> FactorTable:
    """Build the spf/Omega table for [lo, hi] with a segmented sieve.

    Deterministic; raises ResourceBudgetError when hi - lo + 1 > budget.
    """
    if not (1 <= lo <= hi):
        raise DomainError(f"need 1 <= lo <= hi, got lo={lo}, hi={hi}")
    size = hi - lo + 1
    if size > budget:
        raise ResourceBudgetError(
            f"table of {size} entries exceeds budget of {budget} entries"
        )
    base = primes_up_to(isqrt(hi))
    spf = np.zeros(size, dtype=np.int64)
    omega = np.zeros(size, dtype=np.int16)
    for seg_lo in range(lo, hi + 1, segment_size):
        seg_hi = min(seg_lo + segment_size - 1, hi)
        a, b = seg_lo - lo, seg_hi - lo
        rem = np.arange(seg_lo, seg_hi + 1, dtype=np.int64)
        for p in base:
            first = -(-seg_lo // p) * p
            if first > seg_hi:
                continue
            pos = np.arange(first, seg_hi + 1, p, dtype=np.int64) - seg_lo + a
            unset = spf[pos] == 0
            spf[pos[unset]] = p
            while pos.size:
                rem[pos - a] //= p
                omega[pos] += 1
                pos = pos[rem[pos - a] % p == 0]
        left = rem > 1
        omega[a : b + 1][left] += 1
        tail = spf[a : b + 1]
        tail[tail == 0] = np.where(left, rem, 1)[tail == 0]
        spf[a : b + 1] = tail
    if lo == 1:
        spf[0] = 1
    return FactorTable(lo=lo, hi=hi, smallest_prime_factor=spf, omega_big=omega)


def primorial(w: float) -> int:
    """P(w) = product of primes < w."""
    out = 1
    for p in primes_up_to(max(0, math.ceil(w) - 1)):
        if p < w:
            out *= int(p)
    return out


def is_pk(x: int, k: int, table: FactorTable) -> bool:
    """x in P_k: at most k prime factors with multiplicity.  P_k(1) is True."""
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    return table.omega(x) <= k


@dataclass(frozen=True)
class ChenClassification:
    p: int
    variant: str  # "basic" or "strict"
    z: float | None
    is_chen: bool


def classify_chen(p: int, table: FactorTable, variant: str = "basic", z: float | None = None) -> ChenClassification:
    """Chen predicate for a prime p: Omega(p+2) <= 2, plus for the strict
    variant no prime factor of p+2 below z."""
    if not table.is_prime(p):
        raise DomainError(f"{p} is not prime")
    ok = table.omega(p + 2) <= 2
    if variant == "strict":
        if z is None or z < 2:
            raise DomainError("strict variant needs z >= 2")
        ok = ok and table.spf(p + 2) >= z
    elif variant != "basic":
        raise DomainError(f"unknown variant {variant!r}")
    return ChenClassification(p=p, variant=variant, z=z, is_chen=ok)


def chen_primes(
    bound: int,
    variant: str = "basic",
    z: float | None = None,
    table: FactorTable | None = None,
) -> np.ndarray:
    """Sorted array of Chen primes p <= bound.

    basic: Omega(p+2) <= 2.  strict: additionally gcd(p+2, P(z)) = 1.
    """
    if bound < 2:
        raise DomainError(f"bound must be >= 2, got {bound}")
    if variant == "strict" and (z is None or not (2 <= z <= bound)):
        raise DomainError("strict variant needs 2 <= z <= bound")
    if table is None:
        table = build_factor_table(1, bound + 2)
    if table.lo > 1 or table.hi < bound + 2:
        raise DomainError("table does not cover [1, bound + 2]")
    xs = np.arange(1, bound + 1, dtype=np.int64)
    spf = table.smallest_prime_factor[: bound]
    is_p = spf == xs
    is_p[: 1] = False  # x = 1
    omega_p2 = table.omega_big[2 : bound + 2]
    cond = is_p & (omega_p2 <= 2)
    if variant == "strict":
        spf_p2 = table.smallest_prime_factor[2 : bound + 2]
        cond &= spf_p2 >= z
    return xs[cond]


def factorize(x: int) -> list[tuple[int, int]]:
    """Trial-division factorization of x >= 1 as (prime, exponent) pairs."""
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    out = []
    n = x
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    f = 5
    while f * f <= n:
        for q in (f, f + 2):
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            if e:
                out.append((q, e))
        f += 6
    if n > 1:
        out.append((n, 1))
    return out


@dataclass(frozen=True)
class MultFunctions:
    """Exact values of the classical multiplicative functions at one point."""

    x: int
    mu: int
    tau: int
    phi: int
    phi2: Fraction
    factors: tuple[tuple[int, int], ...]

    def tau_k(self, k: int) -> int:
        """Number of ordered k-tuples with product x."""
        if k < 1:
            raise DomainError(f"k must be >= 1, got {k}")
        out = 1
        for _, e in self.factors:
            out *= math.comb(e + k - 1, k - 1)
        return out


def mult_functions(x: int) -> MultFunctions:
    """mu, tau, phi and phi2 at x, all exact.

    phi2(x) = x * prod_{2 < p | x} (1 - 2/p); the p = 2 factor is absent by
    definition, so phi2 of a power of two equals that power of two.
    """
    fac = factorize(x)
    mu = 0 if any(e > 1 for _, e in fac) else (-1) ** len(fac)
    tau = math.prod(e + 1 for _, e in fac)
    phi = math.prod((p - 1) * p ** (e - 1) for p, e in fac)
    phi2 = Fraction(x)
    for p, _ in fac:
        if p > 2:
            phi2 *= Fraction(p - 2, p)
    return MultFunctions(x=x, mu=mu, tau=tau, phi=phi, phi2=phi2, factors=tuple(fac))


@lru_cache(maxsize=32)
def singular_series_S1(prime_bound: int) -> float:
    """Partial twin-prime-type product prod_{2 < p <= bound} (1 - 1/(p-1)^2).

    Nonincreasing in the bound; approaches 0.6601618... from above.
    """
    if prime_bound < 3:
        raise DomainError(f"prime_bound must be >= 3, got {prime_bound}")
    ps = primes_up_to(prime_bound)
    ps = ps[ps > 2].astype(np.float64)
    return float(np.exp(np.sum(np.log1p(-1.0 / (ps - 1.0) ** 2))))
