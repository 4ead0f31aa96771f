"""The one prime sieve, a factor table whose prime list primes_up_to
returns, prime-type predicates, the two FFT count kernels and the length-N
DFT pair.

Everything downstream (sieve weights, exponential sums, the transference
pipeline) consumes the objects built here; every FFT of the package is in
one of three kernels: `_fft_convolutions`, zero-padded linear products,
`_fft_triple_count`, one coefficient of a cube on a cyclic group, and
`_zn_dft` with its inverse `_zn_idft`, two real signals per length-N DFT.  All
counts of prime factors are with multiplicity (big Omega), so the
almost-prime classes include prime powers: 49 = 7^2 is a 2-almost-prime
and hence 7 is a Chen prime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import numpy as np

from .errors import DomainError, InvariantError, ResourceBudgetError

# Entries of the factor table sieved per block: 2^19 uint16 entries (1 MiB)
# stay in a 2 MiB L2 cache while every sieving prime strides through them.
# Blocks of 2^18 to 2^20 entries built the tables to 10^7 and 10^8 in about
# the same time on a 2-core x86 VM; 2^17 and 2^21 were up to 1.5 times slower.
_SIEVE_BLOCK = 1 << 19

# Hard cap on the bound hi of the one prime sieve, whichever entry reaches it:
# its table takes hi bytes.  A composite's spf is at most
# isqrt(DEFAULT_SIEVE_BUDGET) = 14142 < 2^16, so uint16 spf cannot wrap.
DEFAULT_SIEVE_BUDGET = 200_000_000

EULER_GAMMA = 0.5772156649015329

# Prime bound of the partial singular series S1 in every weight and model.
S1_PRIME_BOUND = 10 ** 6


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as a read-only int64 array: the prime list of
    build_factor_table(n), which raises ResourceBudgetError, before
    allocating, when n > DEFAULT_SIEVE_BUDGET."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    return build_factor_table(n).prime_list


def _root(n: int, k: int) -> float:
    """n^(1/k) as a sieving level, exact at a perfect k-th power n = r^k:
    there the float power can overshoot r (3125^(1/5) = 5.000000000000001),
    which would put r among the primes below the level."""
    r = round(n ** (1.0 / k))
    return float(r) if r ** k == n else n ** (1.0 / k)


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
    """Smallest prime factor of every odd x in [1, hi], entry i for
    x = 2i + 1 (uint16; 0 marks 1 and the primes), and the sorted int64
    primes <= hi, stored read-only since one table serves many calls."""

    hi: int
    smallest_prime_factor: np.ndarray
    prime_list: np.ndarray

    @property
    def lo(self) -> int:
        """First covered x; always 1."""
        return 1

    def primes(self, bound: int) -> np.ndarray:
        """All primes <= bound, a slice of the stored list.  Raises
        DomainError when bound > hi."""
        if bound > self.hi:
            raise DomainError(f"table to {self.hi} does not cover the primes to {bound}")
        return self.prime_list[: np.searchsorted(self.prime_list, bound, side="right")]

    def omega(self, xs) -> np.ndarray:
        """Omega with multiplicity of each x in xs (1 <= x <= hi, or
        DomainError) as int64: the power of 2, then the number of times spf
        divides out of the odd rest before 1 or a prime is left, and 1 more
        for a prime."""
        xs = np.asarray(xs, dtype=np.int64)
        if xs.size and not (xs.min() >= 1 and xs.max() <= self.hi):
            raise DomainError(f"table covers [1, {self.hi}], got x in [{xs.min()}, {xs.max()}]")
        rest = xs.astype(np.int32)  # x <= hi < 2^31; int32 divides faster
        out = np.zeros(rest.shape, dtype=np.uint8)  # Omega(x) <= log2(hi) < 2^8
        while (even := (rest & 1) == 0).any():
            out += even
            rest >>= even
        while (composite := (p := self.smallest_prime_factor[rest >> 1]) != 0).any():
            out += composite
            rest //= np.maximum(p, 1, out=p)  # 1 and the primes stay
        out += rest > 1
        return out.astype(np.int64)

    def sifted(self, xs, z: float) -> np.ndarray:
        """True where x in xs (2 <= x <= hi, or DomainError) has no prime
        factor below z: its least one, 2 for an even x, the entry for an odd
        composite and x itself for an odd prime, is >= z."""
        xs = np.asarray(xs, dtype=np.int64)
        if xs.size and not (xs.min() >= 2 and xs.max() <= self.hi):
            raise DomainError(f"table sifts [2, {self.hi}], got x in [{xs.min()}, {xs.max()}]")
        entry = self.smallest_prime_factor[(xs - 1) >> 1]  # an even x reads x - 1's
        return np.where(xs & 1, np.where(entry == 0, xs, entry), 2) >= z


def build_factor_table(hi: int) -> FactorTable:
    """Build the spf table and prime list for [1, hi].

    A smallest-prime-factor sieve on the odd x, over the odd primes <=
    sqrt(hi), segmented (Bays and Hudson, BIT 17 (1977) 121-127): block by
    block of _SIEVE_BLOCK entries, each prime strides from where it left the
    last block, in descending order, so that the smallest factor of each x
    writes last; the entries left unset are 1 and the odd primes.  The
    sieving primes come from primes_up_to(isqrt(hi)), a smaller table, down
    to hi < 4, which needs none.  Raises ResourceBudgetError, before
    allocating, when hi > DEFAULT_SIEVE_BUDGET.
    """
    if hi < 1:
        raise DomainError(f"need hi >= 1, got {hi}")
    if hi > DEFAULT_SIEVE_BUDGET:
        raise ResourceBudgetError(f"prime sieve to {hi} exceeds budget {DEFAULT_SIEVE_BUDGET}")
    spf = np.zeros((hi + 1) // 2, dtype=np.uint16)
    ps = primes_up_to(isqrt(hi))[:0:-1].tolist()
    nxt = [p * p // 2 for p in ps]  # the next entry each prime writes
    for lo in range(0, spf.size, _SIEVE_BLOCK):
        hi_entry = min(lo + _SIEVE_BLOCK, spf.size)
        block = spf[lo:hi_entry]
        for j, p in enumerate(ps):
            i = nxt[j]
            if i < hi_entry:
                block[i - lo :: p] = p  # the smaller primes write later
                nxt[j] = i + (hi_entry - i + p - 1) // p * p
    primes = 2 * np.flatnonzero(spf == 0) + 1  # 1 and the odd primes
    primes[0] = 2  # in place of 1
    primes = primes[: primes.size if hi > 1 else 0]
    primes.flags.writeable = False
    return FactorTable(hi=hi, smallest_prime_factor=spf, prime_list=primes)


def chen_primes(
    bound: int,
    variant: str = "basic",
    z: float | None = None,
    table: FactorTable | None = None,
) -> np.ndarray:
    """Sorted array of Chen primes p <= bound.

    basic: Omega(p+2) <= 2, read as a prime c = (p+2)/spf(p+2) (c = p + 2
    when p + 2 is prime), off the raw odd entries since p + 2 is odd for
    p > 2.  strict: additionally p + 2 has no prime factor below z (the
    table's sifted), for any z >= 2 (empty once z > bound + 2).
    """
    if bound < 2:
        raise DomainError(f"bound must be >= 2, got {bound}")
    if variant == "strict" and (z is None or not z >= 2):
        raise DomainError(f"strict variant needs z >= 2, got {z}")
    if table is None:
        table = build_factor_table(bound + 2)
    if table.hi < bound + 2:
        raise DomainError("table does not cover [1, bound + 2]")
    ps = table.primes(bound)  # 2, then the odd primes
    odd = ps[1:]
    spf = table.smallest_prime_factor
    entry = spf[(odd + 1) >> 1]  # p + 2 = 2i + 1 at i = (p + 1)/2
    cofactor = (odd + 2) // np.maximum(entry, 1)  # p + 2 itself when it is prime
    cond = spf[(cofactor - 1) >> 1] == 0  # a prime cofactor: Omega(p + 2) <= 2
    if variant == "strict":
        cond &= table.sifted(odd + 2, z)
    two = variant == "basic" or z <= 2  # 2 + 2 = 4 = 2^2
    return np.concatenate((ps[: int(two)], odd[cond]))


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


def _least_smooth(target: int, odd_primes: tuple[int, ...]) -> int:
    """The least 2^a times a product of powers of odd_primes that is >= target."""
    target = max(target, 1)
    best = 1 << (target - 1).bit_length()
    cofactors = [1]
    for q in odd_primes:
        for m in list(cofactors):
            while (m := m * q) < best:
                cofactors.append(m)
    # for each cofactor, the least power of two times it that reaches the target
    return min(m << (-(-target // m) - 1).bit_length() for m in cofactors)


def _fft_size(top: int, length: int) -> int:
    """The smallest 2^a 3^b 5^c >= max(2 top, length), so that no sum of two
    indices below top wraps around.  pocketfft runs these sizes about as
    fast per point as powers of two, and they lie much closer to the target.
    """
    return _least_smooth(max(2 * top, length, 1), (3, 5))


def _indicator(idx: np.ndarray, top: int) -> np.ndarray:
    """The bool indicator on [0, top) of the indices idx.  Built in place:
    an int64 np.bincount of the same length would raise the RSS peak of the
    FFTs that follow by its size, through the allocator."""
    ind = np.zeros(top, dtype=bool)
    ind[idx] = True
    return ind


def _fft_convolutions(f: np.ndarray, gs, length: int, fold: int = 0) -> list[np.ndarray]:
    """The linear convolutions (f * g)[s] = sum_{x + y = s} f[x] g[y] for
    0 <= s < length, one per g in gs, in order.

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
    out = []
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
        out.append(conv)
    return out


def _fft_triple_count(xs: np.ndarray, t: int) -> int:
    """#{(x1, x2, x3) in xs^3 : x1 + x2 + x3 = t}, ordered, for distinct
    xs >= 0 (those above t cannot take part), from one forward real FFT.

    On Z_M with M the least 2^a 5^b > 2t, so that 3 is invertible mod M,
    each x sits at (x + s) mod M with 3s = -t (mod M).  A triple then lands
    on 0 exactly when x1 + x2 + x3 = t (mod M), and since its sum lies in
    [0, 3t] with M > 2t, exactly when the sum is t.  That count is the
    constant term (1/M) sum_k H(k)^3 of the cube on Z_M, which the rfft bins
    give with weights 1, 2, ..., 2 (and 1 on the last bin when M is even).
    The value is within 0.25 of the integer it is rounded to, or
    InvariantError.
    """
    if t < 0:
        return 0
    size = _least_smooth(2 * t + 1, (5,))
    shift = -t * pow(3, -1, size) % size
    h = np.fft.rfft(_indicator((xs[xs <= t] + shift) % size, size))
    cube = h * h
    cube *= h
    re = cube.real
    value = (2 * float(np.sum(re)) - re[0] - (re[-1] if size % 2 == 0 else 0.0)) / size
    count = round(value)
    if not abs(value - count) < 0.25:
        raise InvariantError(f"FFT count {value!r} is {abs(value - count):.3g} from an integer")
    return count


def _zn_dft(*xs: np.ndarray) -> list[np.ndarray]:
    """The DFTs x~(r) = sum_t x(t) e(-tr/N) of one or two real arrays x, y
    of one length N, from one complex FFT Z of x + i y, in place:
    x~(r) = (Z(r) + conj Z(-r))/2 and y~(r) = (Z(r) - conj Z(-r))/2i, each
    rounded relative to the larger of the two.  The entries at r and -r come
    from the same two numbers, so each spectrum is exactly Hermitian,
    d(-r) = conj d(r) bit for bit, and so are products of them; np.fft.fft
    of a real array is not."""
    z = np.empty(xs[0].size, dtype=np.complex128)
    z.real, z.imag = xs[0], xs[1] if len(xs) > 1 else 0.0
    np.fft.fft(z, out=z)
    zc = np.conj(np.roll(z[::-1], 1))  # conj Z(-r)
    out = [z, (z - zc) * -0.5j] if len(xs) > 1 else [z]
    z += zc
    z *= 0.5
    return out


def _zn_idft(*specs: np.ndarray) -> list[np.ndarray]:
    """The real inverses s(t) = (1/N) sum_r S(r) e(tr/N) of one or two
    spectra S, T of one length N: the real and imaginary parts of one
    complex inverse FFT of S + i T.  A spectrum that is not exactly
    Hermitian is an InvariantError: its inverse is not real, and its
    imaginary part would land in the other output."""
    for S in specs:
        if S[:1].imag.any() or not np.array_equal(S[1:], np.conj(S[:0:-1])):
            raise InvariantError("inverse DFT of a spectrum that is not exactly Hermitian")
    w = np.fft.ifft(specs[0] + 1j * specs[1] if len(specs) > 1 else specs[0])
    return [w.real, w.imag][: len(specs)]


@dataclass(frozen=True)
class MultFunctions:
    """Exact values of the classical multiplicative functions at one point."""

    x: int
    mu: int
    tau: int
    phi: int
    phi2: Fraction
    factors: tuple[tuple[int, int], ...]


@lru_cache(maxsize=1024)
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
