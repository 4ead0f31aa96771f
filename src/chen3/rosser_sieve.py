"""Rosser's combinatorial sieve weights and the linear-sieve limit functions.

The weights lambda_D^{+-} are +-1 on squarefree d = p_1...p_k (p_1 > ... > p_k)
below D whose prime chain passes the cube-condition checks: the '+' weight
checks p_1...p_{2l} * p_{2l+1}^3 < D at every odd position, the '-' weight
checks p_1...p_{2l-1} * p_{2l}^3 < D at every even position.  Their divisor
sums sandwich the Moebius divisor sum on every squarefree integer.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from math import gcd, isqrt
from typing import Callable, Iterable, Iterator

import numpy as np

from .arith_core import EULER_GAMMA, primes_up_to
from .errors import DomainError, ResourceBudgetError

DEFAULT_SUPPORT_CAP = 5_000_000


@dataclass(frozen=True)
class RosserWeights:
    """Sparse map d -> lambda_D(d) together with each d's prime chain.

    The stored support covers d < D.  For the '-' weight the chain condition
    at k = 1 is vacuous, so lambda^-(p) = -1 for *every* prime p, including
    p >= D; _lambda_terms adds those (every composite d >= D is 0
    automatically, since the last checked condition forces d < D).  This is
    what makes the Moebius sandwich hold for all squarefree q.
    """

    D: float
    sign: str  # "+" or "-"
    support: dict[int, int]
    chains: dict[int, tuple[int, ...]]


def build_rosser(
    D: float,
    sign: str,
    primes: np.ndarray | None = None,
) -> RosserWeights:
    """Enumerate the full support of lambda_D^sign by descending-prime DFS.

    A branch is pruned as soon as either the running product reaches D or the
    cube condition at the position just filled fails; both conditions are
    inherited by every extension.  Products are compared to D exactly
    (integers vs. float via strict <).
    """
    if D <= 1:
        raise DomainError(f"D must be > 1, got {D}")
    if sign not in ("+", "-"):
        raise DomainError(f"sign must be '+' or '-', got {sign!r}")
    if primes is None:
        primes = primes_up_to(max(2, math.ceil(D) - 1))
    plist = [int(p) for p in primes if p < D]
    plist.sort(reverse=True)
    neg = [-p for p in plist]  # ascending, for bisecting the descending list

    support: dict[int, int] = {1: 1}
    chains: dict[int, tuple[int, ...]] = {1: ()}

    # '+' checks odd positions, '-' checks even positions.
    check_parity = 1 if sign == "+" else 0

    def extend(prefix: int, chain: tuple[int, ...], start: int) -> None:
        k = len(chain) + 1
        # skip ahead to the first prime small enough to pass both conditions
        # (conservative float bound; the exact integer checks below settle
        # boundary cases)
        lim = D / prefix
        if k % 2 == check_parity:
            lim = min(lim, lim ** (1.0 / 3.0))
        i0 = max(start, bisect.bisect_left(neg, -lim * (1.0 + 1e-9)))
        for i in range(i0, len(plist)):
            p = plist[i]
            if prefix * p >= D:
                continue
            if k % 2 == check_parity and prefix * p ** 3 >= D:
                continue
            d = prefix * p
            if len(support) >= DEFAULT_SUPPORT_CAP:
                raise ResourceBudgetError(
                    f"Rosser support exceeds cap of {DEFAULT_SUPPORT_CAP} entries"
                )
            new_chain = chain + (p,)
            support[d] = -1 if k % 2 else 1
            chains[d] = new_chain
            extend(d, new_chain, i + 1)

    extend(1, (), 0)
    return RosserWeights(D=D, sign=sign, support=support, chains=chains)


def _lambda_terms(weights: RosserWeights, pool: Iterable[int]) -> Iterator[tuple[int, int]]:
    """(d, lambda(d)) over the stored support, then (p, -1) for the primes
    p >= D in pool: lambda^-(p) = -1 there although p is not stored."""
    yield from weights.support.items()
    if weights.sign == "-":
        for p in pool:
            if p >= weights.D:
                yield int(p), -1


def _class_sums(terms: Iterable[tuple[int, int]], size: int, W: int = 1, c: int = 0) -> np.ndarray:
    """T[x] = sum of v over the pairs (d, v) in terms with d | W x + c, for
    0 <= x < size, by one strided add per d.

    Needs gcd(c, W) = 1: then d | W x + c holds on exactly the class
    x = -c W^{-1} (mod d) when gcd(d, W) = 1, and for no x otherwise.
    """
    T = np.zeros(size, dtype=np.int64)
    for d, val in terms:
        if gcd(d, W) == 1:
            T[-c * pow(W, -1, d) % d :: d] += val
    return T


def divisor_sum_table(weights: RosserWeights, limit: int) -> np.ndarray:
    """T[q] = sum_{d | q} lambda(d) for all 0 <= q <= limit, by sieving."""
    T = _class_sums(_lambda_terms(weights, primes_up_to(limit)), limit + 1)
    T[0] = 0
    return T


def sandwich_check(
    weights_plus: RosserWeights, weights_minus: RosserWeights, limit: int
) -> tuple[int, np.ndarray]:
    """Check sum lambda^-(d) <= sum mu(d) <= sum lambda^+(d) over d | q at
    every squarefree q <= limit, from the two divisor-sum tables.

    Returns the number of squarefree q checked and the q where it fails.
    """
    if limit < 1:
        raise DomainError(f"limit must be >= 1, got {limit}")
    squarefree = np.ones(limit + 1, dtype=bool)
    squarefree[0] = False
    for p in primes_up_to(isqrt(limit)):
        squarefree[p * p :: p * p] = False
    mid = np.zeros(limit + 1, dtype=np.int64)
    mid[1] = 1  # sum of mu(d) over d | q is [q = 1]
    lower = divisor_sum_table(weights_minus, limit)
    upper = divisor_sum_table(weights_plus, limit)
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

    value = 0.0
    for d, val in weights.support.items():
        chain = weights.chains[d]
        if any(p >= z for p in chain):
            continue
        term = val
        for p in chain:
            term *= om(p) / p
        value += term

    product = 1.0
    for p in primes_up_to(max(2, math.ceil(z) - 1)):
        p = int(p)
        if p < z and om(p) > 0:
            product *= 1.0 - om(p) / p
    s = math.log(weights.D) / math.log(z)
    F_s, f_s = linear_sieve_F_f(s)
    return MainTermReport(value=value, euler_product=product, s=s, F_s=F_s, f_s=f_s)


class LinearSieveFns:
    """The classical linear-sieve limit functions F(s) and f(s).

    Closed forms on the base intervals (F(s) = 2e^gamma/s on [1,3],
    f(s) = 2e^gamma ln(s-1)/s on [2,4], f = 0 below 2); beyond that the
    delay system (sF(s))' = f(s-1), (sf(s))' = F(s-1) is integrated with the
    trapezoid rule on a uniform grid.
    """

    S_MAX = 24.0

    def __init__(self, steps_per_unit: int = 1024):
        self.h = 1.0 / steps_per_unit
        n = int(round((self.S_MAX - 1.0) * steps_per_unit)) + 1
        s = 1.0 + self.h * np.arange(n)
        two_eg = 2.0 * math.exp(EULER_GAMMA)
        F = np.where(s <= 3.0, two_eg / s, 0.0)
        f = np.where(s >= 2.0, two_eg * np.log(np.maximum(s - 1.0, 1.0)) / s, 0.0)
        lag = steps_per_unit  # grid offset for s - 1
        for i in range(n):
            si = s[i]
            if si > 3.0 and F[i] == 0.0:
                incr = 0.5 * self.h * (f[i - lag] + f[i - 1 - lag])
                F[i] = (s[i - 1] * F[i - 1] + incr) / si
            if si > 4.0:
                incr = 0.5 * self.h * (F[i - lag] + F[i - 1 - lag])
                f[i] = (s[i - 1] * f[i - 1] + incr) / si
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


_default_fns: LinearSieveFns | None = None


def default_linear_sieve() -> LinearSieveFns:
    global _default_fns
    if _default_fns is None:
        _default_fns = LinearSieveFns()
    return _default_fns


def linear_sieve_F_f(s: float) -> tuple[float, float]:
    """(F(s), f(s)) from the shared default-resolution integrator."""
    return default_linear_sieve()(s)
