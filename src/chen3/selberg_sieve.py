"""Two-stage Selberg weights for the prime-pair count and additive energy.

Stage 1 sieves primes below z0 = n^{1/k0} out of the four linear forms
(Wx+b)(Wx+WM+b)(Wx+b+2)(Wx+WM+b+2); stage 2 sieves primes in [z0, z1),
z1 = n^{1/10}, out of (Wx+b)(Wx+WM+b).  The local root counts are

    omega1(p) = 4 / 3 / 2 (generic / one collision mod p / p | M),
    omega2(p) = 2 / 1 analogously,

and zero whenever p | W.  Weights are computed exactly in rationals.  The
additive energy takes f*f from arith_core's FFT kernel of linear products,
_fft_convolutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith_core import _fft_convolutions, _root, _zn_dft, build_factor_table, primes_up_to
from .errors import DomainError
from .rosser_sieve import _class_sums, _squarefree_levels

# Caps the support of lambda: lambda, G1 and the quadratic form are exact
# Fractions whose denominators grow with it.  Stage 1 at M = 5, W = 2,
# n = 10^6 takes 4.4 s in quadratic_form at support 5,000 (z0 = 16451, a
# 2,178-digit G1 denominator) and 7.4 s at 6,077, on a 2-core VM.
DEFAULT_L_CAP = 5_000


def omega_stage1(p: int, W: int, M: int) -> int:
    if W % p == 0:
        return 0
    WM = W * M
    if (WM * (WM - 2) * (WM + 2)) % p != 0:
        return 4
    if ((WM - 2) * (WM + 2)) % p == 0:
        return 3
    return 2  # p | M


def omega_stage2(p: int, W: int, M: int) -> int:
    if W % p == 0:
        return 0
    if (W * M) % p != 0:
        return 2
    return 1  # p | M, p not dividing W


@dataclass
class SelbergSystem:
    stage: int
    omega: dict[int, int]
    G1: Fraction
    lam: dict[int, Fraction]
    chains: dict[int, tuple[int, ...]]
    skipped_primes: tuple[int, ...]

    def lam_float(self) -> dict[int, float]:
        return {d: float(v) for d, v in self.lam.items()}


def build_selberg(
    stage: int,
    M: int,
    W: int,
    n: int,
    k0: int,
    z0: float | None = None,
    z1: float | None = None,
) -> SelbergSystem:
    """Selberg weights lambda(d) = d/omega(d) * sum_{d | l < z} mu(l/d) mu(l) g(l) / G1.

    g(p) = omega(p) / (p - omega(p)); primes with omega(p) >= p cannot enter a
    Selberg system and are excluded (recorded in skipped_primes) - at the
    paper's scale every such prime divides W, so this only bites desk toys.
    """
    if stage not in (1, 2):
        raise DomainError(f"stage must be 1 or 2, got {stage}")
    if M < 1 or k0 < 1:
        raise DomainError(f"M and k0 must be >= 1, got M={M}, k0={k0}")
    if n < 0:  # n^{1/k0} would be complex
        raise DomainError(f"n must be >= 0, got {n}")
    if z0 is None:
        z0 = _root(n, k0)
    if z1 is None:
        z1 = _root(n, 10)
    if stage == 1:
        lo, hi = 2.0, z0
        om = lambda p: omega_stage1(p, W, M)
    else:
        lo, hi = z0, z1
        om = lambda p: omega_stage2(p, W, M)
    sieve_primes, skipped = [], []
    omega_map: dict[int, int] = {}
    for p in primes_up_to(math.ceil(hi) - 1).tolist():  # the primes below hi
        if p < lo:
            continue
        w = om(p)
        if w == 0:
            continue
        if w >= p:
            skipped.append(p)
            continue
        sieve_primes.append(p)
        omega_map[p] = w
    g = {p: Fraction(omega_map[p], p - omega_map[p]) for p in sieve_primes}

    # the squarefree l < hi of the sieving primes; a chain (ascending) is its
    # last prime followed by its parent's chain
    levels = _squarefree_levels(sieve_primes, hi, None, DEFAULT_L_CAP)
    ls, _, parent, last = (a.tolist() for a in levels)
    chain_of = [()]
    for i in range(1, len(ls)):
        chain_of.append((last[i],) + chain_of[parent[i]])
    chains = dict(zip(ls, chain_of))
    g_of = {l: math.prod((g[p] for p in chain), start=Fraction(1)) for l, chain in chains.items()}
    G1 = sum(g_of.values(), Fraction(0))

    # sum_{d | l} mu(l/d) mu(l) g(l) = (-1)^k y_d over the l in the support,
    # k the number of primes of d and y_d = sum_{d | l} g(l); every divisor
    # of such an l is itself in the support
    lam = {
        d: Fraction((-1) ** len(chains[d]) * d, _omega(omega_map, chains[d])) * y / G1
        for d, y in _multiples_sums(g_of, chains).items()
    }

    return SelbergSystem(
        stage=stage,
        omega=omega_map,
        G1=G1,
        lam=lam,
        chains=chains,
        skipped_primes=tuple(skipped),
    )


def _omega(omega: dict[int, int], chain) -> int:
    """omega(d) = prod of omega(p) over the prime chain of squarefree d."""
    return math.prod(omega[p] for p in chain)


def _multiples_sums(a: dict[int, Fraction], chains) -> dict[int, Fraction]:
    """y_k = sum of a(d) over the d in a's support with k | d, for every k
    dividing such a d: one exact addition per pair k | d."""
    y: dict[int, Fraction] = {}
    for d, ad in a.items():
        divisors = [1]
        for p in chains[d]:
            divisors += [k * p for k in divisors]
        for k in divisors:
            y[k] = y.get(k, 0) + ad
    return y


def _diagonal_form(
    system: SelbergSystem, a: dict[int, Fraction], h: dict[int, Fraction]
) -> Fraction:
    """sum_k h(k) y_k^2 with y = _multiples_sums(a), h multiplicative and
    given at the sieving primes."""
    y = _multiples_sums(a, system.chains)
    return sum((math.prod((h[p] for p in system.chains[k]), start=Fraction(1)) * yk * yk
                for k, yk in y.items()), Fraction(0))


def quadratic_form(system: SelbergSystem) -> Fraction:
    """sum_{d1, d2} lambda(d1) lambda(d2) omega([d1,d2]) / [d1,d2]; equals 1/G1.

    f(d) = omega(d)/d is multiplicative, so f([d1, d2]) = f(d1) f(d2) / f(g)
    with g = (d1, d2), and 1/f(g) = sum_{k | g} h(k) with h(p) = p/omega(p) - 1.
    The form is therefore diagonal, sum_k h(k) y_k^2 with
    y_k = sum_{k | d} lambda(d) f(d).
    """
    a = {d: lam * Fraction(_omega(system.omega, system.chains[d]), d)
         for d, lam in system.lam.items()}
    return _diagonal_form(system, a, {p: Fraction(p - w, w) for p, w in system.omega.items()})


def _remainder_sum(system: SelbergSystem) -> Fraction:
    """sum_{d1, d2} |lambda(d1) lambda(d2)| omega([d1, d2]) over the support.

    omega([d1, d2]) = omega(d1) omega(d2) / omega(g) with g = (d1, d2), and
    1/omega(g) = sum_{k | g} h(k) with h(p) = 1/omega(p) - 1, so this is the
    diagonal sum_k h(k) (sum_{k | d} |lambda(d)| omega(d))^2.
    """
    a = {d: abs(lam) * _omega(system.omega, system.chains[d]) for d, lam in system.lam.items()}
    return _diagonal_form(system, a, {p: Fraction(1 - w, w) for p, w in system.omega.items()})


def _lambda_class_sums(lam: dict[int, float], shifts, W: int, size: int) -> np.ndarray:
    """s[x - 1] = sum of lambda(d) over the d with d | prod_c (W x + c), for
    1 <= x <= size.  Whether d divides depends only on x mod d, so the roots
    r in [0, d) of the product are the classes handed to _class_sums, each
    shifted by one for the index x - 1."""
    ds, rs, vs = [], [], []
    for d, v in lam.items():
        r = np.arange(d, dtype=np.int64)
        prod = np.ones(d, dtype=np.int64)
        for c in shifts:
            prod = prod * ((W * r + c) % d) % d
        roots = np.flatnonzero(prod == 0)
        ds.append(np.full(roots.size, d))
        rs.append((roots - 1) % d)
        vs.append(np.full(roots.size, v))
    return _class_sums(np.concatenate(ds), np.concatenate(rs), np.concatenate(vs), size)


@dataclass(frozen=True)
class PairCountReport:
    exact_count: int
    exact_count_above_z1: int
    sieve_bound: float
    main_term: float
    remainder_tally: float
    pointwise_qf: float
    ok: bool


def pair_count_bound(
    n: int, W: int, b: int, M: int, z0: float, z1: float
) -> PairCountReport:
    """Exact count of prime pairs p2 - p1 = W*M (both = b mod W, both with
    gcd(p+2, P(z0)) = 1) against the two-stage Selberg upper bound.

    The pointwise form sum_x s1(x)^2 s2(x)^2 dominates every x that survives
    both sieves; primes <= z1 are invisible to the stage-2 sieve, so the
    asserted comparison uses the count restricted to p1 > z1.  The survivors,
    the primes p = b (mod W) up to n with no prime factor of p + 2 below z0,
    are read off one factor table to n + 2, under DEFAULT_SIEVE_BUDGET.
    """
    table = build_factor_table(n + 2)  # first: the budget is checked before any work
    sys1 = build_selberg(1, M, W, n, k0=8, z0=z0, z1=z1)
    sys2 = build_selberg(2, M, W, n, k0=8, z0=z0, z1=z1)

    ps = table.primes(n)
    ps = ps[ps % W == b % W]
    survivors = ps[table.sifted(ps + 2, z0)]
    paired = np.isin(survivors + W * M, survivors)
    exact = int(np.count_nonzero(paired))
    exact_above = int(np.count_nonzero(paired & (survivors > z1)))

    xmax = (n - b) // W
    s1 = _lambda_class_sums(sys1.lam_float(), (b, W * M + b, b + 2, W * M + b + 2), W, xmax)
    s2 = _lambda_class_sums(sys2.lam_float(), (b, W * M + b), W, xmax)
    pointwise = float(np.sum(s1 ** 2 * s2 ** 2))

    qf1 = float(quadratic_form(sys1))
    qf2 = float(quadratic_form(sys2))
    main = (n / W) * qf1 * qf2
    # the four-fold sum over (d1, d2) in stage 1 and (d3, d4) in stage 2
    # factors into the two pair sums
    rem = float(_remainder_sum(sys1) * _remainder_sum(sys2))
    bound = main + rem
    tol = 1e-9 * (abs(bound) + 1.0)
    ok = exact_above <= pointwise + tol and pointwise <= bound + tol
    return PairCountReport(
        exact_count=exact,
        exact_count_above_z1=exact_above,
        sieve_bound=bound,
        main_term=main,
        remainder_tally=rem,
        pointwise_qf=pointwise,
        ok=ok,
    )


@dataclass(frozen=True)
class EnergyReport:
    energy_count: float
    moment4: float
    rel_err: float


def additive_energy(weights) -> EnergyReport:
    """Additive energy sum_{x1+x4=x2+x3} f(x1)f(x2)f(x3)f(x4) = sum_s (f*f)(s)^2,
    with f*f from the zero-padded FFT kernel folded mod N, against the
    Fourier fourth moment sum_r |f~(r)|^4 = N * energy from the length-N DFT."""
    values = np.asarray(getattr(weights, "values", weights), dtype=np.float64)
    N = values.size
    (folded,) = _fft_convolutions(values, (values,), 2 * N - 1, N)
    energy = float(np.sum(folded ** 2))
    (ft,) = _zn_dft(values)
    moment4 = float(np.sum(np.abs(ft) ** 4))
    denom = max(abs(moment4), 1e-300)
    rel = abs(moment4 - N * energy) / denom
    return EnergyReport(energy_count=energy, moment4=moment4, rel_err=rel)
