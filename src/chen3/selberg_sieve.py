"""Two-stage Selberg weights for the prime-pair count and additive energy.

Stage 1 sieves primes below z0 = n^{1/k0} out of the four linear forms
(Wx+b)(Wx+WM+b)(Wx+b+2)(Wx+WM+b+2); stage 2 sieves primes in [z0, z1),
z1 = n^{1/10}, out of (Wx+b)(Wx+WM+b).  The local root counts are

    omega1(p) = 4 / 3 / 2 (generic / one collision mod p / p | M),
    omega2(p) = 2 / 1 analogously,

and zero whenever p | W.  Weights are computed exactly in rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .arith_core import primes_up_to
from .errors import DomainError, ResourceBudgetError

DEFAULT_L_CAP = 500_000


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
    z_lo: float
    z_hi: float
    omega: dict[int, int]
    g: dict[int, Fraction]
    G1: Fraction
    lam: dict[int, Fraction]
    chains: dict[int, tuple[int, ...]]
    skipped_primes: tuple[int, ...]

    def lam_float(self) -> dict[int, float]:
        return {d: float(v) for d, v in self.lam.items()}


def _enumerate_squarefree(primes: list[int], cap: float, l_cap: int):
    """All squarefree products < cap of the given primes, with their chains."""
    out = [(1, ())]
    def extend(prod, chain, start):
        for i in range(start, len(primes)):
            p = primes[i]
            if prod * p >= cap:
                continue
            if len(out) >= l_cap:
                raise ResourceBudgetError(f"squarefree support exceeds cap {l_cap}")
            out.append((prod * p, chain + (p,)))
            extend(prod * p, chain + (p,), i + 1)
    extend(1, (), 0)
    return out


def build_selberg(
    stage: int,
    M: int,
    W: int,
    n: int,
    k0: int,
    z0: float | None = None,
    z1: float | None = None,
    l_cap: int = DEFAULT_L_CAP,
) -> SelbergSystem:
    """Selberg weights lambda(d) = d/omega(d) * sum_{d | l < z} mu(l/d) mu(l) g(l) / G1.

    g(p) = omega(p) / (p - omega(p)); primes with omega(p) >= p cannot enter a
    Selberg system and are excluded (recorded in skipped_primes) - at the
    paper's scale every such prime divides W, so this only bites desk toys.
    """
    if stage not in (1, 2):
        raise DomainError(f"stage must be 1 or 2, got {stage}")
    if M < 1:
        raise DomainError(f"M must be >= 1, got {M}")
    if z0 is None:
        z0 = n ** (1.0 / k0)
    if z1 is None:
        z1 = n ** 0.1
    if stage == 1:
        lo, hi = 2.0, z0
        om = lambda p: omega_stage1(p, W, M)
        z_cap = z0
    else:
        lo, hi = z0, z1
        om = lambda p: omega_stage2(p, W, M)
        z_cap = z1
    sieve_primes, skipped = [], []
    omega_map: dict[int, int] = {}
    for p in primes_up_to(max(2, math.ceil(hi) - 1)):
        p = int(p)
        if not (lo <= p < hi):
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

    ls = _enumerate_squarefree(sieve_primes, z_cap, l_cap)
    g_of: dict[int, Fraction] = {}
    for l, chain in ls:
        val = Fraction(1)
        for p in chain:
            val *= g[p]
        g_of[l] = val
    G1 = sum(g_of.values(), Fraction(0))

    # accumulate sum_{d | l} mu(l/d) mu(l) g(l) into each divisor d of l;
    # mu(l/d) mu(l) = (-1)^{omega(d)} for squarefree l
    acc: dict[int, Fraction] = {}
    chains_of_d: dict[int, tuple[int, ...]] = {1: ()}
    for l, chain in ls:
        gl = g_of[l]
        divs = [(1, ())]
        for p in chain:
            divs += [(d * p, ch + (p,)) for d, ch in divs]
        for d, ch in divs:
            sgn = -1 if len(ch) % 2 else 1
            acc[d] = acc.get(d, Fraction(0)) + sgn * gl
            chains_of_d.setdefault(d, ch)

    lam: dict[int, Fraction] = {}
    for d, total in acc.items():
        omega_d = math.prod(omega_map[p] for p in chains_of_d[d])
        lam[d] = Fraction(d, omega_d) * total / G1

    return SelbergSystem(
        stage=stage,
        z_lo=lo,
        z_hi=hi,
        omega=omega_map,
        g=g,
        G1=G1,
        lam=lam,
        chains=chains_of_d,
        skipped_primes=tuple(skipped),
    )


def quadratic_form(system: SelbergSystem) -> Fraction:
    """sum_{d1, d2} lambda(d1) lambda(d2) omega([d1,d2]) / [d1,d2]; equals 1/G1."""
    items = list(system.lam.items())
    total = Fraction(0)
    for d1, l1 in items:
        for d2, l2 in items:
            m = d1 * d2 // gcd(d1, d2)
            total += l1 * l2 * Fraction(_omega_of_lcm(system, d1, d2), m)
    return total


def _omega_of_lcm(system: SelbergSystem, d1: int, d2: int) -> int:
    """omega([d1, d2]) for squarefree d1, d2 in the system's support."""
    union = set(system.chains[d1]) | set(system.chains[d2])
    return math.prod(system.omega[p] for p in union)


def _remainder_pair_sum(system: SelbergSystem) -> float:
    """sum_{d1, d2} |lambda(d1) lambda(d2)| omega([d1, d2]) over the support."""
    lam = system.lam_float()
    return sum(
        abs(v1 * v2) * _omega_of_lcm(system, d1, d2)
        for d1, v1 in lam.items()
        for d2, v2 in lam.items()
    )


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
    asserted comparison uses the count restricted to p1 > z1.
    """
    sys1 = build_selberg(1, M, W, n, k0=8, z0=z0, z1=z1)
    sys2 = build_selberg(2, M, W, n, k0=8, z0=z0, z1=z1)
    lam1 = sys1.lam_float()
    lam2 = sys2.lam_float()

    ps = primes_up_to(n)
    sel = ps[ps % W == b % W]
    small = [int(p) for p in primes_up_to(max(2, math.ceil(z0) - 1)) if p < z0]
    surv = np.ones(sel.size, dtype=bool)
    for sp in small:
        surv &= (sel + 2) % sp != 0
    survivors = set(int(p) for p in sel[surv])
    exact = sum(1 for p in survivors if p + W * M in survivors)
    exact_above = sum(1 for p in survivors if p > z1 and p + W * M in survivors)

    xmax = (n - b) // W
    xs = np.arange(1, xmax + 1, dtype=np.int64)
    f1, f2 = W * xs + b, W * xs + W * M + b
    f3, f4 = f1 + 2, f2 + 2

    def divisor_indicator(d: int, forms) -> np.ndarray:
        r = np.ones(xs.size, dtype=np.int64)
        for f in forms:
            r = (r * (f % d)) % d
        return r == 0

    s1 = np.zeros(xs.size)
    for d, v in lam1.items():
        s1 += v * divisor_indicator(d, (f1, f2, f3, f4))
    s2 = np.zeros(xs.size)
    for d, v in lam2.items():
        s2 += v * divisor_indicator(d, (f1, f2))
    pointwise = float(np.sum(s1 ** 2 * s2 ** 2))

    qf1 = float(quadratic_form(sys1))
    qf2 = float(quadratic_form(sys2))
    main = (n / W) * qf1 * qf2
    # the four-fold sum over (d1, d2) in stage 1 and (d3, d4) in stage 2
    # factors into the two pair sums
    rem = _remainder_pair_sum(sys1) * _remainder_pair_sum(sys2)
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
    """Additive energy sum_{x1+x4=x2+x3} f(x1)f(x2)f(x3)f(x4) (direct, via the
    self-convolution) against the Fourier fourth moment sum_r |f~(r)|^4 = N * energy."""
    values = np.asarray(getattr(weights, "values", weights), dtype=np.float64)
    N = values.size
    conv = np.zeros(N)
    for s in range(N):
        conv[s] = float(np.dot(values, values[(s - np.arange(N)) % N]))
    energy = float(np.sum(conv ** 2))
    ft = np.fft.fft(values)
    moment4 = float(np.sum(np.abs(ft) ** 4))
    denom = max(abs(moment4), 1e-300)
    rel = abs(moment4 - N * energy) / denom
    return EnergyReport(energy_count=energy, moment4=moment4, rel_err=rel)
