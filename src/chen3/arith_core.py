"""Prime generation, factor tables, prime-type predicates and the one FFT
convolution kernel.

Everything downstream (sieve weights, exponential sums, the transference
pipeline) consumes the objects built here; every zero-padded real FFT of the
package is `_fft_convolutions`.  All counts of prime factors are
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

from .errors import DomainError, InvariantError, ResourceBudgetError

# Hard cap on the number of table entries built in one call.  It keeps every
# x below 2^31 and every Omega(x) below 2^8, so int32 spf and uint8 Omega
# cannot wrap.
DEFAULT_TABLE_BUDGET = 1 << 27

# Hard cap on the bound of one prime sieve (a bool array of that length).
DEFAULT_SIEVE_BUDGET = 200_000_000

EULER_GAMMA = 0.5772156649015329

# Prime bound of the partial singular series S1 in every weight and model.
S1_PRIME_BOUND = 10 ** 6


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (plain Eratosthenes).  Raises
    ResourceBudgetError, before allocating, when n > DEFAULT_SIEVE_BUDGET."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    if n > DEFAULT_SIEVE_BUDGET:
        raise ResourceBudgetError(f"prime sieve to {n} exceeds budget {DEFAULT_SIEVE_BUDGET}")
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

    def primes(self, bound: int) -> np.ndarray:
        """All primes <= bound (bound <= hi), as the int64 x with Omega(x) = 1."""
        return np.flatnonzero(self.omega_big[: max(bound + 1, 0)] == 1).astype(np.int64, copy=False)


def build_factor_table(hi: int) -> FactorTable:
    """Build the spf/Omega table for [1, hi].

    One strided smallest-prime-factor sieve over the primes <= sqrt(hi) in
    descending order, so that the smallest factor of each x writes last;
    then Omega(x) = Omega(x / spf(x)) + 1 filled one block [2^k, 2^(k+1)) at
    a time: x / spf(x) < 2^k there, so each block reads only finished
    entries.  Raises ResourceBudgetError, before allocating, when
    hi > DEFAULT_TABLE_BUDGET.
    """
    if hi < 1:
        raise DomainError(f"need hi >= 1, got {hi}")
    if hi > DEFAULT_TABLE_BUDGET:
        raise ResourceBudgetError(
            f"table of {hi} entries exceeds budget of {DEFAULT_TABLE_BUDGET} entries"
        )
    spf = np.zeros(hi + 1, dtype=np.int32)
    for p in primes_up_to(isqrt(hi))[::-1].tolist():
        spf[p * p :: p] = p  # the smaller primes write later
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


def _fft_size(top: int, length: int) -> int:
    """The smallest 2^a 3^b 5^c >= max(2 top, length), so that no sum of two
    indices below top wraps around.  pocketfft runs these sizes about as
    fast per point as powers of two, and they lie much closer to the target.
    """
    target = max(2 * top, length, 1)
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two times p35 that reaches the target
            best = min(best, p35 << (-(-target // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _indicator(idx: np.ndarray, top: int) -> np.ndarray:
    """The bool indicator on [0, top) of the indices idx.  Built in place:
    an int64 np.bincount of the same length would raise the RSS peak of the
    FFTs that follow by its size, through the allocator."""
    ind = np.zeros(top, dtype=bool)
    ind[idx] = True
    return ind


def _fft_convolutions(f: np.ndarray, gs, length: int, fold: int = 0):
    """Yield, for each g in the iterable gs in turn, the linear convolution
    (f * g)[s] = sum_{x + y = s} f[x] g[y] for 0 <= s < length.

    f and g are 1-d arrays, no g longer than f; an index set enters as its
    _indicator.  One zero-padded real FFT of size _fft_size(f.size, length):
    f is transformed once, and each product is formed in place in g's
    transform (in f's when g is f, which squares it, so such a g comes
    last).  Bool or integer inputs give int64 counts, each within 0.25 of
    the float value it is rounded from, or InvariantError; float inputs
    give the float values.  fold > 0, with length <= 2 fold, folds the
    values (after rounding) mod fold: (f * g)[s] + (f * g)[s + fold] for
    0 <= s < fold.
    """
    size = _fft_size(f.size, length)
    ft = np.fft.rfft(f, size)
    for g in gs:
        prod = ft if g is f else np.fft.rfft(g, size)
        np.multiply(ft, prod, out=prod)
        conv = np.fft.irfft(prod, size)[:length]
        del prod  # freed before the counts are allocated
        if np.result_type(f, g).kind in "biu":
            counts = np.empty(length, dtype=np.int64)
            np.rint(conv, out=counts, casting="unsafe")
            conv -= counts  # the rounding error, in the irfft buffer
            err = float(np.max(np.abs(conv, out=conv), initial=0.0))
            if not err < 0.25:
                raise InvariantError(f"FFT counts are {err:.3g} from the nearest integers")
            conv = counts
        if fold:
            conv[: length - fold] += conv[fold:length]
            conv = conv[:fold]
        yield conv


@dataclass(frozen=True)
class MultFunctions:
    """Exact values of the classical multiplicative functions at one point."""

    x: int
    mu: int
    tau: int
    phi: int
    phi2: Fraction
    factors: tuple[tuple[int, int], ...]


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
