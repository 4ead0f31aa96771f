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

# Hard cap on the number of table entries built in one call.  It keeps every
# x below 2^31 and every Omega(x) below 2^8, so int32 spf and uint8 Omega
# cannot wrap.
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
    """Smallest prime factor (int32) and Omega with multiplicity (uint8) of
    every x in [1, hi], both indexed by x itself; entry 0 is unused."""

    hi: int
    smallest_prime_factor: np.ndarray
    omega_big: np.ndarray

    @property
    def lo(self) -> int:
        """First covered x; always 1."""
        return 1

    def _idx(self, x: int) -> int:
        if not (1 <= x <= self.hi):
            raise DomainError(f"x={x} outside table range [1, {self.hi}]")
        return x

    def spf(self, x: int) -> int:
        """Smallest prime factor of x (1 for x = 1)."""
        return int(self.smallest_prime_factor[self._idx(x)])

    def omega(self, x: int) -> int:
        """Number of prime factors of x counted with multiplicity."""
        return int(self.omega_big[self._idx(x)])

    def is_prime(self, x: int) -> bool:
        return x >= 2 and self.spf(x) == x

    def primes(self, bound: int) -> np.ndarray:
        """All primes <= bound (bound <= hi), as the int64 x with spf(x) = x."""
        spf = self.smallest_prime_factor[: bound + 1]
        xs = np.flatnonzero(spf == np.arange(spf.size, dtype=np.int32))
        return xs[xs >= 2].astype(np.int64, copy=False)


def build_factor_table(hi: int) -> FactorTable:
    """Build the spf/Omega table for [1, hi].

    One strided smallest-prime-factor sieve, then Omega(x) = Omega(x / spf(x))
    + 1 filled one block [2^k, 2^(k+1)) at a time: x / spf(x) < 2^k there, so
    each block reads only finished entries.  Raises ResourceBudgetError, before
    allocating, when hi > DEFAULT_TABLE_BUDGET.
    """
    if hi < 1:
        raise DomainError(f"need hi >= 1, got {hi}")
    if hi > DEFAULT_TABLE_BUDGET:
        raise ResourceBudgetError(
            f"table of {hi} entries exceeds budget of {DEFAULT_TABLE_BUDGET} entries"
        )
    spf = np.zeros(hi + 1, dtype=np.int32)
    for p in primes_up_to(isqrt(hi)):
        s = spf[p * p :: p]
        s[s == 0] = p
    unset = np.flatnonzero(spf == 0)
    spf[unset] = unset  # the primes, and spf(1) = 1
    omega = np.zeros(hi + 1, dtype=np.uint8)
    start = 2
    while start <= hi:
        stop = min(2 * start, hi + 1)
        cofactor = np.arange(start, stop, dtype=np.int32)
        cofactor //= spf[start:stop]
        omega[start:stop] = omega[cofactor] + 1
        start = stop
    return FactorTable(hi=hi, smallest_prime_factor=spf, omega_big=omega)


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
        table = build_factor_table(bound + 2)
    if table.hi < bound + 2:
        raise DomainError("table does not cover [1, bound + 2]")
    ps = table.primes(bound)
    cond = table.omega_big[ps + 2] <= 2
    if variant == "strict":
        cond &= table.smallest_prime_factor[ps + 2] >= z
    return ps[cond]


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
