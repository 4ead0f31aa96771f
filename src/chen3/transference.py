"""Fourier-analytic transference apparatus on Z_N.

Normalized weights on Z_N, their DFTs, large spectra, Bohr sets, Bohr-set
smoothing, the three-fold convolution counts, the Pollard-type sumset bound,
and the parameter ledger tying everything together.  Every stage on Z_N
costs O(N log N) or less; the O(N^2) enumerations that check the FFT routes
are kept in the tests.

Every inequality whose hypotheses are asymptotic ("sufficiently large n",
"w >= C5^2") is only *asserted* under the paper profile when its stated
hypotheses hold numerically; under the desk profile it is computed and
reported with a status flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

import mpmath
import numpy as np

from .arith_core import (
    EULER_GAMMA,
    build_factor_table,
    chen_primes,
    is_prime_u64,
    mult_functions,
    primes_up_to,
    singular_series_S1,
)
from .errors import ConfigError, DomainError, InvariantError, PaperAssertionError
from .goldbach_verify import _sum_counts
from .rosser_sieve import linear_sieve_F_f

S1_PRIME_BOUND = 10 ** 6
DESK_K0_CAP = 88  # keeps s = k0/4 on the linear-sieve grid


@dataclass
class ZnWeight:
    """A nonnegative real weight on Z_N with a cached DFT."""

    N: int
    values: np.ndarray
    _dft: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.N,):
            raise DomainError(f"values must have length N={self.N}")
        if np.any(self.values < 0):
            raise DomainError("weights must be nonnegative")

    @property
    def dft(self) -> np.ndarray:
        """f~(r) = sum_x f(x) e(-xr/N) on the full frequency grid."""
        if self._dft is None:
            self._dft = np.fft.fft(self.values)
        return self._dft

    def total(self) -> float:
        return float(np.sum(self.values))

    @classmethod
    def point_mass(cls, N: int, x: int = 0) -> "ZnWeight":
        v = np.zeros(N)
        v[x % N] = 1.0
        return cls(N, v)

    @classmethod
    def uniform(cls, N: int) -> "ZnWeight":
        return cls(N, np.full(N, 1.0 / N))


@dataclass(frozen=True)
class Spectrum:
    delta: float
    members: tuple[int, ...]
    chebyshev_bound: float


def spectrum(f: ZnWeight, delta: float) -> Spectrum:
    """Large spectrum {r : |f~(r)| > delta} with the exact Chebyshev-type
    certificate |R| <= delta^-4 sum_r |f~(r)|^4."""
    mags = np.abs(f.dft)
    members = tuple(int(r) for r in np.nonzero(mags > delta)[0])
    bound = float(np.sum(mags ** 4)) / delta ** 4 if delta > 0 else math.inf
    if len(members) > bound:
        raise InvariantError("Chebyshev spectrum bound violated")
    return Spectrum(delta=delta, members=members, chebyshev_bound=bound)


@dataclass(frozen=True)
class BohrSet:
    frequencies: frozenset
    epsilon: float
    N: int
    members: np.ndarray

    @property
    def size(self) -> int:
        return int(self.members.size)


def bohr_set(frequencies, epsilon: float, N: int) -> BohrSet:
    """{x in Z_N : ||x r / N|| <= epsilon for all r in frequencies}.

    Membership is exact integer arithmetic: with t = x*r mod N,
    ||x r / N|| = min(t, N - t)/N <= epsilon iff min(t, N - t) <= floor(epsilon N),
    the floor taken of the exact rational value of epsilon.  The pigeonhole
    size bound |B| >= ceil(eps^{|R|} N) - 1 is checked on construction.
    """
    if not (0 < epsilon <= 0.5):
        raise DomainError(f"epsilon must be in (0, 1/2], got {epsilon}")
    freqs = frozenset(int(r) % N for r in frequencies)
    T = math.floor(Fraction(epsilon) * N)
    xs = np.arange(N, dtype=np.int64)
    mask = np.ones(N, dtype=bool)
    for r in freqs:
        if r == 0:
            continue
        t = (xs * r) % N
        mask &= np.minimum(t, N - t) <= T
    members = np.nonzero(mask)[0].astype(np.int64)
    lower = math.ceil(epsilon ** len(freqs - {0}) * N) - 1
    if members.size < lower:
        raise InvariantError(
            f"Bohr set of size {members.size} below pigeonhole bound {lower}"
        )
    return BohrSet(frequencies=freqs, epsilon=epsilon, N=N, members=members)


def bohr_indicator(bohr: BohrSet) -> ZnWeight:
    """Normalized indicator 1_B / |B|."""
    if bohr.size == 0:
        raise DomainError("cannot normalize an empty Bohr set")
    v = np.zeros(bohr.N)
    v[bohr.members] = 1.0 / bohr.size
    return ZnWeight(bohr.N, v)


def convolve(f: ZnWeight, g: ZnWeight) -> ZnWeight:
    """Cyclic convolution (f*g)(x) = sum_y f(y) g(x-y)."""
    if f.N != g.N:
        raise DomainError(f"mismatched N: {f.N} vs {g.N}")
    vals = np.fft.ifft(f.dft * g.dft).real
    return ZnWeight(f.N, np.maximum(vals, 0.0))


def triple_sum(f: ZnWeight, g: ZnWeight, h: ZnWeight, target: int) -> float:
    """sum over x1 + x2 + x3 = target (mod N) of f(x1) g(x2) h(x3).

    Two O(N log N) routes must agree to 1e-8 relative: the Fourier identity
    (1/N) sum_r f~ g~ h~ e(target r / N), read off one inverse DFT of the
    cached transforms, and the linear convolution f*g from a zero-padded real
    FFT, folded mod N and paired with h(target - s).  The second is returned.
    """
    if not (f.N == g.N == h.N):
        raise DomainError("mismatched N")
    N = f.N
    t = target % N
    fourier = float(np.fft.ifft(f.dft * g.dft * h.dft)[t].real)
    size = 1 << (2 * N - 2).bit_length()  # >= 2N - 1: f*g does not wrap
    fg = np.fft.irfft(np.fft.rfft(f.values, size) * np.fft.rfft(g.values, size), size)
    folded = fg[:N]
    folded[: N - 1] += fg[N : 2 * N - 1]
    linear = float(np.dot(folded, h.values[(t - np.arange(N)) % N]))
    scale = max(abs(linear), abs(fourier), f.total() * g.total() * h.total(), 1e-300)
    if abs(linear - fourier) / scale > 1e-8:
        raise InvariantError(
            f"triple_sum mismatch: linear={linear}, fourier={fourier}"
        )
    return linear


@dataclass(frozen=True)
class SmoothResult:
    weight: ZnWeight
    mass_in: float
    mass_out: float
    fourier_closeness_max: float
    fourier_closeness_ok: bool
    sup_value: float
    sup_bound: float
    sup_ok: bool
    sup_asserted: bool


def smooth_and_bound(
    a: ZnWeight,
    bohr: BohrSet,
    kappa: float,
    spec: Spectrum | None = None,
    sup_assert: bool = False,
) -> SmoothResult:
    """Smooth a by the normalized Bohr indicator twice: a' = a * b * b.

    Checks mass preservation exactly (b~(0) = 1), the Fourier closeness
    |1 - b~(r)| <= 16 eps^2 on the generating spectrum (asserted), and the
    sup bound sup a' <= (1 + 2 kappa)/N (asserted only when sup_assert, i.e.
    when the paper-profile hypotheses hold; recorded otherwise).
    """
    b = bohr_indicator(bohr)
    sm = convolve(convolve(a, b), b)
    mass_in, mass_out = a.total(), sm.total()
    if abs(mass_in - mass_out) > 1e-9 * max(mass_in, 1.0):
        raise InvariantError("smoothing did not preserve mass")
    closeness = 0.0
    freqs = spec.members if spec is not None else tuple(bohr.frequencies)
    for r in freqs:
        closeness = max(closeness, abs(1.0 - b.dft[int(r) % b.N]))
    closeness_ok = closeness <= 16.0 * bohr.epsilon ** 2 + 1e-12
    if not closeness_ok:
        raise InvariantError(
            f"|1 - b~(r)| = {closeness} exceeds 16 eps^2 = {16 * bohr.epsilon ** 2}"
        )
    sup_value = float(np.max(sm.values))
    sup_bound = (1.0 + 2.0 * kappa) / a.N
    sup_ok = sup_value <= sup_bound + 1e-15
    if sup_assert and not sup_ok:
        raise PaperAssertionError(
            f"sup a' = {sup_value} exceeds (1+2kappa)/N = {sup_bound}"
        )
    return SmoothResult(
        weight=sm,
        mass_in=mass_in,
        mass_out=mass_out,
        fourier_closeness_max=closeness,
        fourier_closeness_ok=closeness_ok,
        sup_value=sup_value,
        sup_bound=sup_bound,
        sup_ok=sup_ok,
        sup_asserted=sup_assert,
    )


@dataclass(frozen=True)
class ThreeSumComparison:
    raw: float
    smoothed: float
    diff: float
    budget: float
    ok: bool
    asserted: bool


def threesum_comparison(
    raw_weights, smooth_weights, target: int, ledger: "ParameterLedger"
) -> ThreeSumComparison:
    """|triple_sum(smoothed) - triple_sum(raw)| against the epsilon/delta
    budget (3072 eps^2 (C3^{12/5} d^{-12/5} + 5 C4 d^{-4}) + 72 C3^{24/13}
    C4^{3/13} d^{1/13}) / N."""
    a1, a2, a3 = raw_weights
    s1, s2, s3 = smooth_weights
    raw = triple_sum(a1, a2, a3, target)
    smoothed = triple_sum(s1, s2, s3, target)
    diff = abs(raw - smoothed)
    eps, delta = float(ledger.epsilon), float(ledger.delta)
    C3, C4 = ledger.C3, ledger.C4
    budget = (
        3072.0 * eps ** 2 * (C3 ** 2.4 * delta ** -2.4 + 5.0 * C4 * delta ** -4)
        + 72.0 * C3 ** (24 / 13) * C4 ** (3 / 13) * delta ** (1 / 13)
    ) / a1.N
    ok = diff <= budget
    asserted = ledger.profile == "paper"
    if asserted and not ok:
        raise PaperAssertionError(f"threesum diff {diff} exceeds budget {budget}")
    return ThreeSumComparison(
        raw=raw, smoothed=smoothed, diff=diff, budget=budget, ok=ok, asserted=asserted
    )


@dataclass(frozen=True)
class PollardResult:
    count: int
    theta: float
    bound: float
    ok: bool


def pollard_check(N: int, X1, X2, X3, y: int) -> PollardResult:
    """Exact triple-representation count against the theta^3 N^2 bound.

    The X_i are integer sequences or arrays read as sets of residues mod N:
    entries are reduced mod N and repeats dropped.  Hypotheses: N prime, theta_1 + theta_2 + theta_3 > 1 with
    theta_i = |X_i|/N, and N > 2 theta^-2 where
    theta = min(theta_1, theta_2, theta_3, (sum - 1)/4).  The count is
    sum over x1 in X1 of c(y - x1), with c = 1_{X2} * 1_{X3} on Z_N from one
    guarded FFT convolution.
    """
    sets = [np.unique(np.mod(np.asarray(X, dtype=np.int64), N)) for X in (X1, X2, X3)]
    th = [X.size / N for X in sets]
    theta = min(th[0], th[1], th[2], (sum(th) - 1.0) / 4.0)
    problems = []
    if not is_prime_u64(N):
        problems.append(f"N={N} is not prime")
    if sum(th) <= 1.0:
        problems.append(f"density sum {sum(th):.4f} <= 1")
    elif theta == 0.0 or N <= 2.0 / theta ** 2:
        problems.append(f"N={N} <= 2 theta^-2 with theta = {theta:.4f}")
    if problems:
        raise DomainError("Pollard hypotheses unmet: " + "; ".join(problems))
    lin = _sum_counts(sets[1], sets[2], 2 * N - 1)
    c = lin[:N]
    c[: N - 1] += lin[N:]
    count = int(np.sum(c[(y % N - sets[0]) % N]))
    bound = theta ** 3 * N ** 2
    return PollardResult(count=count, theta=theta, bound=bound, ok=count >= bound)


@dataclass
class ParameterLedger:
    """All pipeline constants with provenance (paper default vs desk override)."""

    n: int
    profile: str
    W: int
    w: int
    b1: int
    b2: int
    b3: int
    N: int
    R: float
    k0: int
    B: float
    kappa: float
    delta: float
    epsilon: float
    varpi: float
    C1: float = 1.0
    C2: float = 1.0
    C3: float = 1.0
    C4: float = 1.0
    C5: float = 1.0
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {}
        for k in ("n", "profile", "W", "w", "b1", "b2", "b3", "N", "R", "k0", "B",
                  "kappa", "delta", "epsilon", "varpi", "C1", "C2", "C3", "C4", "C5"):
            v = getattr(self, k)
            if isinstance(v, mpmath.mpf):
                v = mpmath.nstr(v, 8)
            out[k] = v
        out["provenance"] = dict(self.provenance)
        return out


def paper_kappa_delta_epsilon(varpi: float, C3: float, C4: float):
    """The explicit (delta, epsilon, kappa) of the paper's parameter lemma,
    evaluated in arbitrary precision (the float range cannot hold them).

    Verifies 3072 eps^2 (C3^{12/5} d^{-12/5} + 5 C4 d^{-4})
             + 72 C3^{24/13} C4^{3/13} d^{1/13} <= varpi^6.
    """
    with mpmath.workdps(60):
        vp = mpmath.mpf(varpi)
        c3, c4 = mpmath.mpf(C3), mpmath.mpf(C4)
        delta = min(vp ** 78 / (mpmath.mpf(144) ** 13 * c3 ** 24 * c4 ** 3), mpmath.mpf(1))
        epsilon = min(
            vp ** 3 * delta ** 2
            / (192 * mpmath.sqrt(c3 * delta ** mpmath.mpf("-2.4") + 5 * c4 * delta ** -4)),
            mpmath.mpf(1),
        )
        exponent = 6 * c3 ** mpmath.mpf("2.4") * delta ** mpmath.mpf("-2.4") + 60 * c4 * delta ** -4
        kappa = min(epsilon ** exponent, vp)
        lhs = (
            3072 * epsilon ** 2 * (c3 ** mpmath.mpf("2.4") * delta ** mpmath.mpf("-2.4") + 5 * c4 * delta ** -4)
            + 72 * c3 ** (mpmath.mpf(24) / 13) * c4 ** (mpmath.mpf(3) / 13) * delta ** (mpmath.mpf(1) / 13)
        )
        if not lhs <= vp ** 6:
            raise PaperAssertionError(
                f"parameter inequality failed: lhs={mpmath.nstr(lhs, 6)}, varpi^6={mpmath.nstr(vp ** 6, 6)}"
            )
        return delta, epsilon, kappa


def choose_k0(kappa: float, k0_cap: int = DESK_K0_CAP) -> int | None:
    """Smallest integer k0 >= 8 with 20 (F(k0/4) - f(k0/4)) <= kappa^2, or
    None if no k0 up to the cap passes (the paper-profile kappa is far below
    the integrator's resolution)."""
    target = kappa ** 2 / 20.0
    for k0 in range(8, k0_cap + 1):
        F, f = linear_sieve_F_f(k0 / 4.0)
        if F - f <= target:
            return k0
    return None


def select_W(n: int) -> tuple[int, int]:
    """Largest primorial W = P(w) with W <= log n, together with w."""
    logn = math.log(n)
    W, w = 1, 2
    ps = [int(p) for p in primes_up_to(64)]
    for i, p in enumerate(ps):
        if W * p <= logn:
            W *= p
            w = ps[i + 1]
        else:
            break
    if W < 2:
        raise ConfigError(f"log n = {logn:.3f} < 2: no primorial W fits")
    return W, w


def find_prime_in(lo: float, hi: float) -> int:
    start = math.ceil(lo)
    for cand in range(start, math.floor(hi) + 1):
        if is_prime_u64(cand):
            return cand
    raise ConfigError(f"no prime in [{lo:.2f}, {hi:.2f}]")


def split_residues(n: int, W: int) -> tuple[int, int, int]:
    """Lexicographically least (b1, b2, b3), each in [1, W] with
    gcd(b(b+2), W) = 1, with b1 + b2 + b3 = n (mod W)."""
    if n % 2 == 0 or n % 3 != 0:
        raise DomainError(f"n must be odd and divisible by 3, got {n}")
    admissible = [b for b in range(1, W + 1) if gcd(b * (b + 2), W) == 1]
    for b1 in admissible:
        for b2 in admissible:
            for b3 in admissible:
                if (b1 + b2 + b3 - n) % W == 0:
                    return (b1, b2, b3)
    raise InvariantError(f"no admissible residue triple mod W={W} for n={n}")


def choose_parameters(
    n: int,
    profile: str = "desk",
    C1: float = 1.0,
    C2: float = 1.0,
    C3: float = 1.0,
    C4: float = 1.0,
    C5: float = 1.0,
    overrides: dict | None = None,
) -> ParameterLedger:
    """Resolve every pipeline constant for n, with provenance flags.

    Paper profile: delta/epsilon/kappa from the explicit formulas (evaluated
    in arbitrary precision), B = 6^9.  Desk profile: finite stand-ins
    (kappa=0.5, delta=epsilon=0.05, B giving Q = (log n)^B in [10, 1000]),
    all overridable.
    """
    if profile not in ("paper", "desk"):
        raise ConfigError(f"profile must be 'paper' or 'desk', got {profile!r}")
    overrides = dict(overrides or {})
    prov: dict[str, str] = {}
    varpi = min(C1 * C2, 1.0) / 10000.0
    prov["varpi"] = "paper-formula"

    if profile == "paper":
        delta, epsilon, kappa = paper_kappa_delta_epsilon(varpi, C3, C4)
        prov.update(delta="paper-formula", epsilon="paper-formula", kappa="paper-formula")
        B = 6.0 ** 9
        prov["B"] = "paper-default"
        k0 = choose_k0_paper(kappa)
        prov["k0"] = "capped-desk-grid" if k0 == DESK_K0_CAP else "paper-rule"
    else:
        kappa = overrides.pop("kappa", 0.5)
        delta = overrides.pop("delta", 0.05)
        epsilon = overrides.pop("epsilon", 0.05)
        prov.update(delta="desk-default", epsilon="desk-default", kappa="desk-default")
        B = overrides.pop("B", max(1.0, round(math.log(100.0) / math.log(math.log(n)))))
        prov["B"] = "desk-default"
        k0 = choose_k0(kappa)
        if k0 is None:
            raise ConfigError(f"no k0 <= {DESK_K0_CAP} satisfies the F-f rule for kappa={kappa}")
        prov["k0"] = "derived"

    W, w = select_W(n)
    prov["W"] = prov["w"] = "derived"
    b1, b2, b3 = split_residues(n, W)
    kap_f = float(kappa) if float(kappa) > 0 else 1e-8
    lo = (1.0 + kap_f ** 2 / 20.0) * n / W
    hi = (1.0 + kap_f ** 2 / 10.0) * n / W
    N = find_prime_in(lo, hi)
    R = N ** 0.1
    ledger = ParameterLedger(
        n=n, profile=profile, W=W, w=w, b1=b1, b2=b2, b3=b3, N=N, R=R,
        k0=int(k0), B=float(B), kappa=kappa, delta=delta, epsilon=epsilon,
        varpi=varpi, C1=C1, C2=C2, C3=C3, C4=C4, C5=C5, provenance=prov,
    )
    for key, val in overrides.items():
        if not hasattr(ledger, key):
            raise ConfigError(f"unknown override {key!r}")
        setattr(ledger, key, val)
        prov[key] = "override"
    return ledger


def choose_k0_paper(kappa) -> int:
    """Paper-profile k0: the F-f rule at the true (astronomically small)
    kappa is far below the integrator's resolution, so the grid cap is
    returned and flagged in provenance."""
    k0 = choose_k0(float(kappa) if float(kappa) > 0 else 0.0)
    return k0 if k0 is not None else DESK_K0_CAP


@dataclass
class BuiltWeights:
    a1: ZnWeight
    a2: ZnWeight
    a3: ZnWeight
    support_sizes: tuple[int, int, int]
    sums: tuple[float, float, float]
    support_x: tuple[np.ndarray, np.ndarray, np.ndarray]


def build_weights(ledger: ParameterLedger, table=None) -> BuiltWeights:
    """The three normalized weights on Z_N.

    a1, a2: strict Chen primes W x + b_i (Omega(p+2) <= 2 and no factor of
    p+2 below n^{1/10}), x <= (n - b_i)/(2W), weight
    C2 S1^{-1}/1000 * phi2(W) log(Wx+b_i)^2 / n.
    a3: primes W x + b3 with no factor of p+2 below n^{1/k0},
    x <= (n - b3)/W, weight e^gamma phi2(W) log(Wx+b3) log(n) / (4 k0 S1 n).
    """
    n, W, N = ledger.n, ledger.W, ledger.N
    if table is None:
        table = build_factor_table(n + 2)
    S1 = singular_series_S1(S1_PRIME_BOUND)
    phi2_W = float(mult_functions(W).phi2)
    z1 = max(n ** 0.1, 2.0)  # every spf(p + 2) is >= 2
    z0 = n ** (1.0 / ledger.k0)
    kap = float(ledger.kappa)

    def support(ps: np.ndarray, b: int) -> np.ndarray:
        """The x >= 1 with W x + b in ps."""
        ps = ps[(ps % W == b % W) & (ps > b)]
        return (ps - b) // W

    weights = []
    sums = []
    sizes = []
    supports = []
    for i, b in enumerate((ledger.b1, ledger.b2, ledger.b3)):
        if i < 2:
            xmax = (n - b) // (2 * W)
            xs = support(chen_primes(W * xmax + b, "strict", z=z1, table=table), b)
            vals_at = (
                float(ledger.C2) / S1 / 1000.0
                * phi2_W * np.log(W * xs + b) ** 2 / n
            )
        else:
            xmax = (n - b) // W
            ps = table.primes(W * xmax + b)
            xs = support(ps[table.smallest_prime_factor[ps + 2] >= z0], b)
            vals_at = (
                math.exp(EULER_GAMMA) * phi2_W
                * np.log(W * xs + b) * math.log(n)
                / (4.0 * ledger.k0 * S1 * n)
            )
        v = np.zeros(N)
        np.add.at(v, xs % N, vals_at)
        zw = ZnWeight(N, v)
        weights.append(zw)
        sums.append(zw.total())
        sizes.append(int(xs.size))
        supports.append(xs)
    if ledger.profile == "paper" and not (1 - kap ** 2 <= sums[2] <= 1 + kap ** 2):
        raise PaperAssertionError(
            f"sum a3 = {sums[2]} outside [1 - kappa^2, 1 + kappa^2]"
        )
    return BuiltWeights(
        a1=weights[0], a2=weights[1], a3=weights[2],
        support_sizes=tuple(sizes), sums=tuple(sums),
        support_x=tuple(supports),
    )


def run_transference(
    n: int,
    profile: str = "desk",
    overrides: dict | None = None,
    ground_truth: bool = True,
) -> dict:
    """Execute the full pipeline and report every intermediate quantity.

    Stages: ledger -> residue split -> weights -> DFT -> spectra -> Bohr sets
    -> smoothing -> level sets -> Pollard count -> three-fold sums.  Exact
    identities are asserted; asymptotic inequalities are logged with an
    asserted/diagnostic status and never fail a desk run.
    """
    if n % 2 == 0 or n % 3 != 0:
        raise DomainError(f"n must be odd with 3 | n, got {n}")
    ledger = choose_parameters(n, profile=profile, overrides=overrides)
    N, W = ledger.N, ledger.W
    n_prime = (n - ledger.b1 - ledger.b2 - ledger.b3) // W
    report: dict = {
        "schema_version": 1,
        "profile": profile,
        "ledger": ledger.to_dict(),
        "n_prime": n_prime,
        "stages": [],
    }

    table = build_factor_table(n + 2)
    built = build_weights(ledger, table)
    report["stages"].append({
        "stage": "weights",
        "support_sizes": list(built.support_sizes),
        "sums": list(built.sums),
        "a3_sum_band": [1 - float(ledger.kappa) ** 2, 1 + float(ledger.kappa) ** 2],
        "a3_sum_status": "asserted" if profile == "paper" else "diagnostic",
    })

    delta, eps = float(ledger.delta), float(ledger.epsilon)
    specs = [spectrum(wt, delta) for wt in (built.a1, built.a2, built.a3)]
    report["stages"].append({
        "stage": "spectra",
        "delta": delta,
        "sizes": [len(s.members) for s in specs],
        "chebyshev_bounds": [s.chebyshev_bound for s in specs],
    })

    bohrs = [bohr_set(s.members, eps, N) for s in specs]
    report["stages"].append({
        "stage": "bohr_sets",
        "epsilon": eps,
        "sizes": [b.size for b in bohrs],
        "pigeonhole_lower": [
            math.ceil(eps ** len(b.frequencies - {0}) * N) - 1 for b in bohrs
        ],
    })

    w_val = ledger.w
    smooth = []
    sup_flags = []
    for i, (wt, bo, sp) in enumerate(zip((built.a1, built.a2, built.a3), bohrs, specs)):
        if i < 2:
            precond = eps ** len(sp.members) >= ledger.C5 / (float(ledger.kappa) * math.sqrt(w_val))
        else:
            precond = eps ** len(sp.members) >= (
                2.0 / (w_val - 2) + 0.9 * float(ledger.kappa) ** 2
            ) / float(ledger.kappa) if w_val > 2 else False
        sup_assert = profile == "paper" and precond
        res = smooth_and_bound(wt, bo, float(ledger.kappa), spec=sp, sup_assert=sup_assert)
        smooth.append(res)
        sup_flags.append({
            "sup_value": res.sup_value,
            "sup_bound": res.sup_bound,
            "sup_ok": res.sup_ok,
            "precondition_holds": bool(precond),
            "status": "asserted" if sup_assert else "diagnostic",
            "fourier_closeness_max": res.fourier_closeness_max,
        })
    report["stages"].append({"stage": "smoothing", "per_weight": sup_flags})

    varpi = float(ledger.varpi)
    level = [np.nonzero(r.weight.values >= varpi / N)[0] for r in smooth]
    a3_lower = (1.0 - 3.0 * varpi) * N
    report["stages"].append({
        "stage": "level_sets",
        "sizes": [int(ls.size) for ls in level],
        "A3_lower_bound": a3_lower,
        "A3_lower_ok": bool(level[2].size >= a3_lower),
        "A3_lower_status": "asserted" if profile == "paper" else "diagnostic",
    })

    thetas = [ls.size / N for ls in level]
    pollard_entry: dict = {"stage": "pollard", "thetas": thetas}
    try:
        pres = pollard_check(N, level[0], level[1], level[2], n_prime % N)
        pollard_entry.update(count=pres.count, theta=pres.theta,
                             bound=pres.bound, ok=pres.ok, status="computed")
    except DomainError as exc:
        pollard_entry.update(status="hypotheses-unmet", detail=str(exc))
    report["stages"].append(pollard_entry)

    cmp_res = threesum_comparison(
        (built.a1, built.a2, built.a3),
        tuple(r.weight for r in smooth),
        n_prime % N,
        ledger,
    )
    report["stages"].append({
        "stage": "threesum_comparison",
        "raw": cmp_res.raw,
        "smoothed": cmp_res.smoothed,
        "diff": cmp_res.diff,
        "budget": cmp_res.budget,
        "ok": cmp_res.ok,
        "status": "asserted" if cmp_res.asserted else "diagnostic",
    })
    report["raw_triple_sum"] = cmp_res.raw
    report["raw_triple_sum_positive"] = cmp_res.raw > 0.0

    # lift check: a Z_N solution on the raw supports must be a Z solution
    lift = None
    s1, s2, s3 = built.support_x
    set3 = set(int(x) % N for x in s3)
    found = None
    for x1 in s1[: 2000]:
        for x2 in s2[: 2000]:
            x3 = (n_prime - int(x1) - int(x2)) % N
            if x3 in set3:
                found = (int(x1), int(x2), x3)
                break
        if found:
            break
    if found:
        x1, x2, x3 = found
        p1, p2, p3 = W * x1 + ledger.b1, W * x2 + ledger.b2, W * x3 + ledger.b3
        lift = {
            "x": list(found),
            "primes": [p1, p2, p3],
            "lifts_to_integers": p1 + p2 + p3 == n,
        }
        if not lift["lifts_to_integers"]:
            raise InvariantError("Z_N solution failed to lift to the integers")
    report["lift_check"] = lift

    if ground_truth:
        from .goldbach_verify import representation_count
        report["ground_truth_representations"] = representation_count(n, table=table)
    return report
