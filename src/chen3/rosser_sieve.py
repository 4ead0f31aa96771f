"""Rosser's combinatorial sieve weights and the linear-sieve limit functions.

The weights lambda_D^{+-} are +-1 on squarefree d = p_1...p_k (p_1 > ... > p_k)
below D whose prime chain passes the cube-condition checks: the '+' weight
checks p_1...p_{2l} * p_{2l+1}^3 < D at every odd position, the '-' weight
checks p_1...p_{2l-1} * p_{2l}^3 < D at every even position.  Their divisor
sums sandwich the Moebius divisor sum on every squarefree integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from math import isqrt
from typing import Callable, Iterable

import numpy as np

from .arith_core import DEFAULT_SIEVE_BUDGET, EULER_GAMMA, primes_up_to
from .errors import DomainError, ResourceBudgetError

DEFAULT_SUPPORT_CAP = 5_000_000


@dataclass(frozen=True, eq=False)
class RosserWeights:
    """lambda_D^sign on its stored support d < D, as arrays in level order.

    Entry i is d[i] = d[parent[i]] * prime[i] with lambda(d[i]) = value[i] =
    (-1)^k, k the length of its prime chain; the root d = 1 has parent -1 and
    prime 1.  The chains of length k (level k) follow those of length k - 1,
    so every parent precedes its children, the parent indices never decrease,
    and a chain is read by following the parent links.

    For the '-' weight the chain condition at k = 1 is vacuous, so
    lambda^-(p) = -1 for *every* prime p, including p >= D; _lambda_terms adds
    those (every composite d >= D is 0 automatically, since the last checked
    condition forces d < D).  This is what makes the Moebius sandwich hold
    for all squarefree q.
    """

    D: float
    sign: str  # "+" or "-"
    d: np.ndarray
    value: np.ndarray
    parent: np.ndarray
    prime: np.ndarray

    @cached_property
    def support(self) -> dict[int, int]:
        """The map d -> lambda(d) over the stored support, in level order."""
        return dict(zip(self.d.tolist(), self.value.tolist()))


def build_rosser(
    D: float,
    sign: str,
    primes: np.ndarray | None = None,
) -> RosserWeights:
    """Enumerate the full support of lambda_D^sign one chain length at a time
    (_squarefree_levels), checking the count against DEFAULT_SUPPORT_CAP
    before each level is allocated."""
    if not D > 1:  # nan too
        raise DomainError(f"D must be > 1, got {D}")
    if sign not in ("+", "-"):
        raise DomainError(f"sign must be '+' or '-', got {sign!r}")
    if D > 2.0 ** 62:
        raise DomainError(f"D must be at most 2^62 so that top // d and the cubes fit in int64, got {D}")
    if primes is None:
        primes = primes_up_to(math.ceil(D) - 1)  # the primes below D
    parity = int(sign == "+")  # '+' checks odd positions, '-' checks even positions
    return RosserWeights(D, sign, *_squarefree_levels(primes, D, parity, DEFAULT_SUPPORT_CAP))


def _squarefree_levels(primes, D: float, check_parity: int | None, cap: int) -> tuple[np.ndarray, ...]:
    """Every squarefree d = p_1...p_k < D (p_1 > ... > p_k from primes) whose
    chain passes the cube checks, as the arrays (d, value, parent, prime) of
    RosserWeights: value = (-1)^k, in level order.

    A position k with k % 2 == check_parity also needs p_1...p_{k-1} p_k^3
    < D; check_parity None checks no position, which gives every squarefree
    product below D.  The children of a level-k product d with last prime
    p_k are the d p with p < p_k, d p < D and, at a checked position k + 1,
    d p^3 < D.  Both conditions hold for every smaller p once they hold for
    one, so each node's admissible primes are a prefix of the ascending
    primes.  With top the largest integer below D, d p < D iff p <= top // d
    and d p^3 < D iff p^3 <= top // d, so one integer searchsorted of
    top // d, in the primes or in their cubes, finds each prefix's end
    exactly.  Raises ResourceBudgetError before a level would take the
    count past cap.
    """
    P = np.asarray(primes, dtype=np.int64)
    if np.any(P[1:] <= P[:-1]):  # primes_up_to's lists are sorted and distinct already
        P = np.unique(P)
    P = P[P < D]
    top = math.ceil(D) - 1
    cubes = P[P <= round(max(top, 0) ** (1 / 3)) + 1] ** 3  # the cube of every p with p^3 <= top
    d = np.ones(1, dtype=np.int64)
    nxt = np.array([P.size])  # the children of node i use the primes P[:nxt[i]]
    levels = [(d, np.ones(1, dtype=np.int64), np.full(1, -1), d)]
    total, k = 1, 1
    while d.size:
        fits = np.searchsorted(cubes if k % 2 == check_parity else P, top // d, side="right")
        cnt = np.minimum(nxt, fits)
        size = int(cnt.sum())
        if total + size > cap:
            raise ResourceBudgetError(f"squarefree support exceeds cap of {cap} entries")
        parent = np.repeat(np.arange(d.size), cnt)
        nxt = np.arange(size) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        d = d[parent] * P[nxt]
        levels.append((d, np.full(size, (-1) ** k), parent + total - cnt.size, P[nxt]))
        total += size
        k += 1
    return tuple(np.concatenate(a) for a in zip(*levels))


def _lambda_terms(weights: RosserWeights, pool: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    """(d, lambda(d)) over the stored support, then (p, -1) for the primes
    p >= D in pool: lambda^-(p) = -1 there although p is not stored."""
    if weights.sign == "+":
        return weights.d, weights.value
    pool = np.asarray(pool, dtype=np.int64)
    extra = pool[pool >= weights.D]
    return (np.concatenate((weights.d, extra)),
            np.concatenate((weights.value, np.full(extra.size, -1))))


def _form_roots(d, v, W: int, c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d, r, v) for the residue-class kernel, with d | W x + c exactly when
    x = r (mod d).

    When gcd(d, W) = 1, d | W x + c holds on the one class
    x = -c W^{-1} (mod d).  The d not prime to W are dropped with their
    values, which needs each of them to share no prime with gcd(c, W): then
    d divides no W x + c.
    """
    d, v = np.asarray(d, dtype=np.int64), np.asarray(v)
    keep = np.gcd(d, W) == 1
    d, v = d[keep], v[keep]
    # W r = k d - c with k = c d^{-1} mod W, read off per residue of d mod W,
    # and r = (k d - c) / W evaluated without forming k d
    res, which = np.unique(d % W, return_inverse=True)
    k = np.array([c * pow(t, -1, W) % W for t in res.tolist()], dtype=np.int64)[which]
    return d, (k * (d // W) + (k * (d % W) - c) // W) % d, v


def _class_sums(d: np.ndarray, r: np.ndarray, v: np.ndarray, size: int, dtype=None) -> np.ndarray:
    """T[x] = sum of v[i] over the i with x = r[i] (mod d[i]), for 0 <= x < size.

    Needs 0 <= r[i] <= d[i].  T has the caller's dtype, by default int64 for
    integer v and float64 for float v; the caller bounds every |T[x]| by it.
    Each d <= sqrt(size) adds its value by one strided slice, in input
    order.  The larger d have at most sqrt(size) class members each; sorted
    by member count, the d with an m-th member are a prefix, and one
    np.add.at adds all of their m-th members at once (two classes can meet
    at one x).
    """
    v = np.asarray(v)
    T = np.zeros(size, dtype=np.result_type(v.dtype, np.int64) if dtype is None else dtype)
    d, r, v = np.asarray(d, dtype=np.int64), np.asarray(r, dtype=np.int64), v.astype(T.dtype, copy=False)
    strided = d <= isqrt(size)
    for di, ri, vi in zip(d[strided].tolist(), r[strided].tolist(), v[strided].tolist()):
        T[ri::di] += vi
    d, x, v = d[~strided], r[~strided], v[~strided]
    count = np.where(x < size, (size - x + d - 1) // d, 0)
    order = np.argsort(-count, kind="stable")
    d, x, v, count = d[order], x[order], v[order], count[order]
    # ends[m] = #{count > m}: the prefix with an m-th member
    ends = np.searchsorted(-count, -np.arange(count[0] if count.size else 0), side="left")
    for n in ends.tolist():
        np.add.at(T, x[:n], v[:n])
        x[:n] += d[:n]
    return T


def divisor_sum_table(weights: RosserWeights, limit: int) -> np.ndarray:
    """T[q] = sum_{d | q} lambda(d) for all 0 <= q <= limit (T[0] = 0), by
    sieving; int64.  Raises ResourceBudgetError, before any allocation, when
    limit > DEFAULT_SIEVE_BUDGET.

    The terms at q are distinct divisors of q with |lambda| = 1, so |T[q]| <=
    tau(q) <= 2 isqrt(q) < 2^15 and the sieve accumulates in int16.  Each
    class starts at d: x = 0, which every d divides, is never met.
    """
    if limit > DEFAULT_SIEVE_BUDGET:
        raise ResourceBudgetError(f"divisor-sum table to {limit} exceeds budget {DEFAULT_SIEVE_BUDGET}")
    # lambda^-(p) = -1 for the primes D <= p <= limit; there are none otherwise
    pool = primes_up_to(limit) if weights.sign == "-" and limit >= weights.D else ()
    d, v = _lambda_terms(weights, pool)
    # int16: |T[q]| <= tau(q) <= 2 isqrt(DEFAULT_SIEVE_BUDGET) = 28284 < 2^15
    return _class_sums(d, d, v, limit + 1, np.int16).astype(np.int64)


def sandwich_check(
    weights_plus: RosserWeights, weights_minus: RosserWeights, limit: int
) -> tuple[int, np.ndarray]:
    """Check sum lambda^-(d) <= sum mu(d) <= sum lambda^+(d) over d | q at
    every squarefree q <= limit, from the two divisor-sum tables.

    Returns the number of squarefree q checked and the q where it fails.
    """
    if limit < 1:
        raise DomainError(f"limit must be >= 1, got {limit}")
    # first, so that divisor_sum_table checks the budget before any allocation
    lower = divisor_sum_table(weights_minus, limit)
    upper = divisor_sum_table(weights_plus, limit)
    squarefree = np.ones(limit + 1, dtype=bool)
    squarefree[0] = False
    for p in primes_up_to(isqrt(limit)):
        squarefree[p * p :: p * p] = False
    mid = np.zeros(limit + 1, dtype=np.int64)
    mid[1] = 1  # sum of mu(d) over d | q is [q = 1]
    bad = np.flatnonzero(squarefree & ((lower > mid) | (mid > upper)))
    return int(np.count_nonzero(squarefree)), bad


@dataclass(frozen=True)
class MainTermReport:
    value: float
    euler_product: float
    s: float
    F_s: float
    f_s: float


def sieve_main_term(
    weights: RosserWeights, omega: Callable[[int], float], z: float
) -> MainTermReport:
    """Exact sum over supported d | P_*(z) of lambda(d) * omega(d) / d.

    Also reports the Euler product prod_{p < z}(1 - omega(p)/p) and the
    linear-sieve values F(s), f(s) at s = log D / log z, so the caller can see
    the bracketing; nothing is assumed about it here.
    """
    if not (2 <= z <= weights.D):
        raise DomainError(f"need 2 <= z <= D, got z={z}, D={weights.D}")
    omega_cache: dict[int, float] = {}

    def om(p: int) -> float:
        if p not in omega_cache:
            v = float(omega(p))
            if v < 0 or v > p:
                raise DomainError(f"omega({p}) = {v} outside [0, {p}]")
            omega_cache[p] = v
        return omega_cache[p]

    # f(d) = prod of omega(p)/p over the chain of d, level by level along the
    # parent links; a prime p >= z contributes 0, which its descendants inherit
    last = weights.prime[1:]
    below = last < z
    used = np.unique(last[below])
    step = np.zeros(last.size)
    step[below] = np.array([om(p) / p for p in used.tolist()])[np.searchsorted(used, last[below])]
    f = np.ones(weights.d.size)
    lo = 1
    while lo < f.size:
        hi = int(np.searchsorted(weights.parent, lo))
        f[lo:hi] = f[weights.parent[lo:hi]] * step[lo - 1 : hi - 1]
        lo = hi
    value = math.fsum((weights.value * f).tolist())

    product = 1.0
    for p in primes_up_to(math.ceil(z) - 1).tolist():  # the primes below z
        if om(p) > 0:
            product *= 1.0 - om(p) / p
    s = math.log(weights.D) / math.log(z)
    F_s, f_s = linear_sieve_F_f(s)
    return MainTermReport(value=value, euler_product=product, s=s, F_s=F_s, f_s=f_s)


class LinearSieveFns:
    """The classical linear-sieve limit functions F(s) and f(s).

    Closed forms on the base intervals (F(s) = 2e^gamma/s on [1,3],
    f(s) = 2e^gamma ln(s-1)/s on [2,4], f = 0 below 2); beyond that the
    delay system (sF(s))' = f(s-1), (sf(s))' = F(s-1) is integrated with the
    trapezoid rule on a uniform grid, one unit interval at a time.
    """

    S_MAX = 24.0

    def __init__(self, steps_per_unit: int = 1024):
        self.h = 1.0 / steps_per_unit
        n = int(round((self.S_MAX - 1.0) * steps_per_unit)) + 1
        s = 1.0 + self.h * np.arange(n)
        two_eg = 2.0 * math.exp(EULER_GAMMA)
        F = np.where(s <= 3.0, two_eg / s, 0.0)
        f = np.where(s >= 2.0, two_eg * np.log(np.maximum(s - 1.0, 1.0)) / s, 0.0)
        # s g(s) = s' g(s') + the integral of the other function over [s'-1, s-1]:
        # each unit of F (s > 3), then of f (s > 4), is one cumsum off the unit before
        lag = steps_per_unit  # grid offset for s - 1
        i3, i4 = np.searchsorted(s, (3.0, 4.0), side="right")
        for a in range(i3, n, lag):
            b = min(a + lag, n)
            for g, other, lo in ((F, f, a), (f, F, max(a, i4))):
                if lo < b:
                    incr = 0.5 * self.h * (other[lo - lag : b - lag] + other[lo - 1 - lag : b - 1 - lag])
                    g[lo:b] = (s[lo - 1] * g[lo - 1] + np.cumsum(incr)) / s[lo:b]
        self.s_grid = s
        self.F_grid = F
        self.f_grid = f
        self._two_eg = two_eg

    def __call__(self, s: float) -> tuple[float, float]:
        if s < 1.0:
            raise DomainError(f"s must be >= 1, got {s}")
        if s <= 3.0:
            F = self._two_eg / s
        elif s >= self.S_MAX:
            F = float(self.F_grid[-1])
        else:
            F = float(np.interp(s, self.s_grid, self.F_grid))
        if s <= 2.0:
            f = 0.0
        elif s <= 4.0:
            f = self._two_eg * math.log(s - 1.0) / s
        elif s >= self.S_MAX:
            f = float(self.f_grid[-1])
        else:
            f = float(np.interp(s, self.s_grid, self.f_grid))
        return F, f


@cache
def default_linear_sieve() -> LinearSieveFns:
    return LinearSieveFns()


def linear_sieve_F_f(s: float) -> tuple[float, float]:
    """(F(s), f(s)) from the shared default-resolution integrator."""
    return default_linear_sieve()(s)
