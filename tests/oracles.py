"""Direct O(N) per value and O(N^2) oracles on Z_N for the FFT routes in
chen3.transference, and the four-fold Selberg remainder sum.  They are
independent of the fast routes and slow by design."""

import math

import numpy as np

from chen3.errors import DomainError
from chen3.selberg_sieve import build_selberg


def dft_direct(values: np.ndarray, rs) -> np.ndarray:
    """f~(r) = sum_x f(x) e(-xr/N), one O(N) sum per frequency."""
    values = np.asarray(values, dtype=np.float64)
    N = values.size
    x = np.arange(N)
    return np.array(
        [np.sum(values * np.exp(-2j * np.pi * x * (r % N) / N)) for r in rs]
    )


def convolve_direct(f, g) -> np.ndarray:
    """(f*g)(x) = sum_y f(y) g(x - y) on Z_N, one O(N) sum per x."""
    if f.N != g.N:
        raise DomainError(f"mismatched N: {f.N} vs {g.N}")
    N = f.N
    out = np.zeros(N)
    idx = np.arange(N)
    for x in range(N):
        out[x] = float(np.dot(f.values, g.values[(x - idx) % N]))
    return out


def triple_sum_direct(f, g, h, target: int) -> float:
    """sum over x1 + x2 + x3 = target (mod N) of f(x1) g(x2) h(x3), one O(N)
    sum per x1."""
    if not (f.N == g.N == h.N):
        raise DomainError("mismatched N")
    N = f.N
    idx = np.arange(N)
    total = 0.0
    for x1 in range(N):
        total += float(f.values[x1] * np.dot(g.values, h.values[(target - x1 - idx) % N]))
    return total


def pollard_direct(N: int, X1, X2, X3, y: int) -> int:
    """#{(x1, x2, x3) in X1 x X2 x X3 : x1 + x2 + x3 = y (mod N)} for sets of
    residues mod N, one O(N) sum per x1."""
    X1, X2, X3 = (sorted({int(x) % N for x in X}) for X in (X1, X2, X3))
    ind2 = np.zeros(N)
    ind2[X2] = 1.0
    ind3 = np.zeros(N)
    ind3[X3] = 1.0
    idx = np.arange(N)
    count = 0
    for x1 in X1:
        count += int(round(float(np.dot(ind2, ind3[(y - x1 - idx) % N]))))
    return count


def selberg_remainder_direct(n: int, W: int, b: int, M: int, z0: float, z1: float) -> float:
    """The remainder tally of chen3.selberg_sieve.pair_count_bound as the
    four-fold sum of |lambda1(d1) lambda1(d2) lambda2(d3) lambda2(d4)|
    omega1([d1, d2]) omega2([d3, d4]) over both supports."""
    sys1 = build_selberg(1, M, W, n, k0=8, z0=z0, z1=z1)
    sys2 = build_selberg(2, M, W, n, k0=8, z0=z0, z1=z1)
    items1, items2 = list(sys1.lam_float().items()), list(sys2.lam_float().items())
    rem = 0.0
    for d1, v1 in items1:
        for d2, v2 in items1:
            u1 = set(sys1.chains[d1]) | set(sys1.chains[d2])
            om1 = math.prod(sys1.omega[p] for p in u1)
            for d3, v3 in items2:
                for d4, v4 in items2:
                    u2 = set(sys2.chains[d3]) | set(sys2.chains[d4])
                    om2 = math.prod(sys2.omega[p] for p in u2)
                    rem += abs(v1 * v2 * v3 * v4) * om1 * om2
    return rem
