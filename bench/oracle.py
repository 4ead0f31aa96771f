"""Independent routes for the benchmark's output checks.

Nothing here imports chen3.  Each function recomputes a quantity the program
also computes, by a different method: direct enumeration where the program
uses an FFT, a sparse divisor-sum kernel where it uses a subset table, brute
force where it uses the CRT.  Only numpy is shared.
"""

from __future__ import annotations

import cmath
import hashlib
import math
from math import gcd, isqrt

import numpy as np

EULER_GAMMA = 0.5772156649015329


def primes_upto(n: int) -> np.ndarray:
    """Primes <= n by Eratosthenes over the odd numbers."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    odd = np.ones((n - 1) // 2 + 1, dtype=bool)  # odd[i] <-> 2i + 1
    odd[0] = False
    for i in range(1, (isqrt(n) - 1) // 2 + 1):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    return np.concatenate(([2], 2 * np.nonzero(odd)[0] + 1)).astype(np.int64)


def big_omega(limit: int) -> np.ndarray:
    """Omega(x) with multiplicity for 0 <= x <= limit, by prime-power strides."""
    rem = np.arange(limit + 1, dtype=np.int64)
    omega = np.zeros(limit + 1, dtype=np.int8)
    for p in primes_upto(isqrt(limit)):
        p = int(p)
        pe = p
        while pe <= limit:
            rem[pe::pe] //= p
            omega[pe::pe] += 1
            pe *= p
    omega[rem > 1] += 1
    return omega


def chen_from_omega(omega: np.ndarray, bound: int) -> np.ndarray:
    """Primes p <= bound with Omega(p + 2) <= 2; omega must reach bound + 2."""
    xs = np.arange(bound + 1, dtype=np.int64)
    return xs[(omega[: bound + 1] == 1) & (omega[2 : bound + 3] <= 2)]


def digest(values) -> str:
    """sha256 of an integer array as little-endian int64."""
    arr = np.ascontiguousarray(np.asarray(values, dtype="<i8"))
    return hashlib.sha256(arr.tobytes()).hexdigest()


def unordered_pair_counts(chens: np.ndarray, limit: int) -> np.ndarray:
    """r[s] = #{p1 <= p2 in chens : p1 + p2 = s} for s <= limit, by direct
    enumeration over p1 (each row of sums has distinct indices)."""
    r = np.zeros(limit + 1, dtype=np.int64)
    for i in range(chens.size):
        sums = chens[i] + chens[i:]
        sums = sums[sums <= limit]
        if sums.size == 0:
            break
        r[sums] += 1
    return r


def representation_count(n: int, omega: np.ndarray, pairs: np.ndarray) -> int:
    """#{p1 <= p2, p3 all Chen, p1 + p2 + p3 = n}; pairs from Chen primes <= n - 4."""
    chens = chen_from_omega(omega, n - 4)
    return int(np.sum(pairs[n - chens]))


def survey_rows(hi: int, omega: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """(n, rep_count, min_k) for every odd multiple of 3 in [9, hi], the p3
    ranging over all primes <= n - 4; min_k = -1 when rep_count = 0."""
    primes = primes_upto(hi)
    om_shift = omega[primes + 2]
    rows = []
    for n in range(9, hi + 1, 6):
        k = int(np.searchsorted(primes, n - 4, side="right"))
        cnt = pairs[n - primes[:k]]
        hit = cnt > 0
        total = int(cnt.sum())
        rows.append((n, total, int(om_shift[:k][hit].min()) if total else -1))
    return np.array(rows, dtype=np.int64)


# ---- sieve-weighted exponential sums -------------------------------------


class ExpSums:
    """S(a/q) = sum_p w(p) log p e(a x_p / q) over primes p <= n, p = b mod W,
    x_p = (p - b)/W.  `sieve_indicator` takes w(p) = [p + 2 has no prime
    factor below z0]; `divisor_weights` takes w(p) = sum of lam(d) over the
    d | p + 2 in a sparse support."""

    def __init__(self, sel: np.ndarray, W: int, b: int, weights: np.ndarray):
        self.xs = (sel - b) // W
        self.w = weights * np.log(sel.astype(np.float64))

    @staticmethod
    def selected_primes(n: int, W: int, b: int) -> np.ndarray:
        ps = primes_upto(n)
        return ps[ps % W == b % W]

    @classmethod
    def sieve_indicator(cls, n: int, W: int, b: int, z0: float) -> "ExpSums":
        sel = cls.selected_primes(n, W, b)
        keep = np.ones(sel.size)
        for p in primes_upto(math.ceil(z0)):
            if p < z0:
                keep[(sel + 2) % p == 0] = 0.0
        return cls(sel, W, b, keep)

    @classmethod
    def divisor_weights(cls, n: int, W: int, b: int, lam: dict[int, int]) -> "ExpSums":
        sel = cls.selected_primes(n, W, b)
        w = np.zeros(sel.size)
        for d, v in lam.items():
            w[(sel + 2) % d == 0] += v
        return cls(sel, W, b, w)

    def at(self, a: int, q: int) -> complex:
        t = (a % q) * (self.xs % q) % q
        phase = 2.0 * np.pi * t / q
        return complex(float(np.dot(self.w, np.cos(phase))), float(np.dot(self.w, np.sin(phase))))

    def at_zero(self) -> float:
        return float(self.w.sum())


def factor(x: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= x:
        while x % p == 0:
            out[p] = out.get(p, 0) + 1
            x //= p
        p += 1
    if x > 1:
        out[x] = out.get(x, 0) + 1
    return out


def mobius(x: int) -> int:
    f = factor(x)
    return 0 if any(e > 1 for e in f.values()) else (-1) ** len(f)


def phi2(x: int) -> float:
    out = float(x)
    for p in factor(x):
        if p > 2:
            out *= (p - 2) / p
    return out


def twin_series(prime_bound: int) -> float:
    ps = primes_upto(prime_bound)
    ps = ps[ps > 2].astype(np.float64)
    return float(np.prod(1.0 - 1.0 / (ps - 1.0) ** 2))


def unitary_tau(a: int, q: int, W: int, b: int) -> complex:
    """sum over d | q of e(a r_d / q), r_d in [1, q] found by search with
    W r = -b (mod d) and W r = -b - 2 (mod q / d)."""
    total = 0j
    for d in range(1, q + 1):
        if q % d or gcd(d, q // d) != 1:
            continue
        e = q // d
        r = next(r for r in range(1, q + 1) if (W * r + b) % d == 0 and (W * r + b + 2) % e == 0)
        total += cmath.exp(2j * cmath.pi * a * r / q)
    return total


def major_arc_model(n: int, W: int, b: int, k0: int, a: int, q: int, S1: float) -> complex:
    """The documented main-term model at the centre alpha = a/q."""
    if gcd(W, q) > 1:
        return 0j
    mu = mobius(q)
    if mu == 0:
        return 0j
    m = (n - b) // W
    pref = 4.0 * math.exp(-EULER_GAMMA) * k0 * S1 * W / (phi2(W * q) * math.log(n))
    return mu * unitary_tau(a, q, W, b) * pref * m


def sieve_survivors(n: int, W: int, b: int, z0: float) -> np.ndarray:
    """Primes p <= n, p = b mod W, with p + 2 free of primes below z0."""
    sums = ExpSums.sieve_indicator(n, W, b, z0)
    return (sums.xs * W + b)[sums.w > 0]


def pair_counts(n: int, W: int, b: int, M: int, z0: float, z1: float) -> tuple[int, int]:
    """(#{p, p + WM both survivors}, the same restricted to p > z1)."""
    surv = sieve_survivors(n, W, b, z0)
    both = np.isin(surv + W * M, surv)
    return int(both.sum()), int((both & (surv > z1)).sum())


def squarefree_divisor_sum(q: int, lam: dict[int, int], minus_primes_from: float | None) -> int:
    """sum over d | rad(q) of lam(d); primes p >= minus_primes_from weigh -1."""
    divs = [1]
    for p in factor(q):
        divs += [d * p for d in divs]
    total = 0
    for d in divs:
        if d in lam:
            total += lam[d]
        elif minus_primes_from is not None and d >= minus_primes_from and len(factor(d)) == 1 and d > 1:
            total -= 1
    return total
