"""Fourier-analytic transference apparatus on Z_N.

Normalized weights on Z_N, their DFTs, large spectra, Bohr sets, Bohr-set
smoothing, the three-fold convolution counts, the Pollard-type sumset bound,
and the parameter ledger tying everything together.  a2 is a1: the table
budget on N keeps W <= 6, where one residue is admissible, so b1 = b2 and
the weights are a1 and a3.  The DFTs on Z_N cost O(N log N): one per
distinct weight and Bohr indicator, one inverse per smoothing, from the
product of its factors' spectra; four forward and two inverse in all.  A
Bohr set filters Z_N by one frequency at a time, O(sum_k |B_k|) with B_k
the Bohr set of the first k frequencies.  The linear convolutions behind
triple_sum and the Pollard count are arith_core's one FFT kernel,
_fft_convolutions, folded mod N.
The O(N^2) enumerations that check these routes are kept in the tests.

The stage functions compute their inequalities and return the numbers with
an ok flag; none of them reads the profile.  `run_transference` alone decides
what is asserted: under the paper profile each asymptotic inequality whose
stated hypotheses hold numerically ("sufficiently large n", "w >= C5^2") is
asserted, and a failure raises PaperAssertionError; otherwise, and always
under the desk profile, it is reported with status "diagnostic".
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import gcd

import numpy as np

from .arith_core import (
    DEFAULT_TABLE_BUDGET,
    EULER_GAMMA,
    S1_PRIME_BOUND,
    _fft_convolutions,
    _indicator,
    build_factor_table,
    chen_primes,
    is_prime_u64,
    mult_functions,
    primes_up_to,
    singular_series_S1,
)
from .errors import ConfigError, DomainError, InvariantError, PaperAssertionError, ResourceBudgetError
from .rosser_sieve import _sifted, linear_sieve_F_f

DESK_K0_CAP = 88  # keeps s = k0/4 on the linear-sieve grid
OVERRIDABLE = ("kappa", "delta", "epsilon", "B", "C1", "C2", "C3", "C4", "C5")


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

    @property
    def pigeonhole_lower(self) -> int:
        """ceil(eps^|R| N) - 1 over the nonzero frequencies R: a lower bound
        on the size."""
        return math.ceil(self.epsilon ** len(self.frequencies - {0}) * self.N) - 1


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
    for r in freqs - {0}:
        t = (xs * r) % N
        xs = xs[np.minimum(t, N - t) <= T]
    bohr = BohrSet(frequencies=freqs, epsilon=epsilon, N=N, members=xs)
    if bohr.size < bohr.pigeonhole_lower:
        raise InvariantError(
            f"Bohr set of size {bohr.size} below pigeonhole bound {bohr.pigeonhole_lower}"
        )
    return bohr


def bohr_indicator(bohr: BohrSet) -> ZnWeight:
    """Normalized indicator 1_B / |B|."""
    if bohr.size == 0:
        raise DomainError("cannot normalize an empty Bohr set")
    v = np.zeros(bohr.N)
    v[bohr.members] = 1.0 / bohr.size
    return ZnWeight(bohr.N, v)


def convolve(f: ZnWeight, *gs: ZnWeight) -> ZnWeight:
    """Cyclic convolution f*g_1*...*g_k, (f*g)(x) = sum_y f(y) g(x-y), from
    one inverse DFT of the product spectrum f~ g_1~ ... g_k~, which it
    carries; the clip at 0 moves the values off it only by rounding."""
    spec = f.dft
    for g in gs:
        if f.N != g.N:
            raise DomainError(f"mismatched N: {f.N} vs {g.N}")
        spec = spec * g.dft
    return ZnWeight(f.N, np.maximum(np.fft.ifft(spec).real, 0.0), _dft=spec)


def triple_sum(f: ZnWeight, g: ZnWeight, h: ZnWeight, target: int) -> float:
    """sum over x1 + x2 + x3 = target (mod N) of f(x1) g(x2) h(x3).

    Two routes must agree to 1e-8 relative: the Fourier identity
    (1/N) sum_r f~ g~ h~ e(target r / N), one O(N) dot product of the cached
    transforms, and the linear convolution f*g from a zero-padded real FFT,
    folded mod N and paired with h(target - s).  The second is returned.
    """
    if not (f.N == g.N == h.N):
        raise DomainError("mismatched N")
    N = f.N
    t = target % N
    phases = np.exp(2j * np.pi * (t * np.arange(N, dtype=np.int64) % N) / N)
    fourier = float(np.dot(f.dft * g.dft * h.dft, phases).real) / N
    (folded,) = _fft_convolutions(f.values, (g.values,), 2 * N - 1, N)
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
    sup_value: float
    sup_bound: float
    sup_ok: bool


def smooth_and_bound(a: ZnWeight, bohr: BohrSet, kappa: float) -> SmoothResult:
    """Smooth a by the normalized Bohr indicator twice: a' = a * b * b.

    Checks mass preservation exactly (b~(0) = 1) and the Fourier closeness
    |1 - b~(r)| <= 16 eps^2 on the Bohr set's frequencies, raising
    InvariantError if either fails.  The sup bound sup a' <= (1 + 2 kappa)/N
    is computed and returned as sup_ok; whether it is asserted is the
    caller's decision.
    """
    b = bohr_indicator(bohr)
    sm = convolve(a, b, b)
    mass_in, mass_out = a.total(), sm.total()
    if abs(mass_in - mass_out) > 1e-9 * max(mass_in, 1.0):
        raise InvariantError("smoothing did not preserve mass")
    closeness = float(np.max(np.abs(1.0 - b.dft[list(bohr.frequencies)]), initial=0.0))
    if not closeness <= 16.0 * bohr.epsilon ** 2 + 1e-12:
        raise InvariantError(
            f"|1 - b~(r)| = {closeness} exceeds 16 eps^2 = {16 * bohr.epsilon ** 2}"
        )
    sup_value = float(np.max(sm.values))
    sup_bound = (1.0 + 2.0 * kappa) / a.N
    return SmoothResult(
        weight=sm,
        mass_in=mass_in,
        mass_out=mass_out,
        fourier_closeness_max=closeness,
        sup_value=sup_value,
        sup_bound=sup_bound,
        sup_ok=sup_value <= sup_bound + 1e-15,
    )


@dataclass(frozen=True)
class ThreeSumComparison:
    raw: float
    smoothed: float
    diff: float
    budget: float
    ok: bool


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
    return ThreeSumComparison(
        raw=raw, smoothed=smoothed, diff=diff, budget=budget, ok=diff <= budget
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
    guarded FFT convolution of the indicators, cut after max(X2 u X3).
    N above DEFAULT_TABLE_BUDGET is a ResourceBudgetError.
    """
    if N > DEFAULT_TABLE_BUDGET:  # before the length-N indicators
        raise ResourceBudgetError(f"N={N} exceeds the budget of {DEFAULT_TABLE_BUDGET} points on Z_N")
    inds = [_indicator(np.mod(np.asarray(X, dtype=np.int64), N), N) for X in (X1, X2, X3)]
    sets = [np.flatnonzero(ind) for ind in inds]
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
    top = int(max(sets[1][-1], sets[2][-1])) + 1
    (c,) = _fft_convolutions(inds[1][:top], (inds[2][:top],), 2 * N - 1, N)
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
        mpmath = sys.modules.get("mpmath")  # an mpf exists only once mpmath is loaded
        mpf = mpmath.mpf if mpmath is not None else ()
        return {k: mpmath.nstr(v, 8) if isinstance(v, mpf) else v for k, v in asdict(self).items()}


def paper_kappa_delta_epsilon(varpi: float, C3: float, C4: float):
    """The explicit (delta, epsilon, kappa) of the paper's parameter lemma,
    evaluated in arbitrary precision (the float range cannot hold them).

    Verifies 3072 eps^2 (C3^{12/5} d^{-12/5} + 5 C4 d^{-4})
             + 72 C3^{24/13} C4^{3/13} d^{1/13} <= varpi^6.
    """
    import mpmath  # the only arbitrary-precision step: loaded on the paper path alone

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


def choose_k0(kappa: float) -> int | None:
    """Smallest integer k0 >= 8 with 20 (F(k0/4) - f(k0/4)) <= kappa^2, or
    None if no k0 up to DESK_K0_CAP passes (the paper-profile kappa is far
    below the integrator's resolution)."""
    target = kappa ** 2 / 20.0
    for k0 in range(8, DESK_K0_CAP + 1):
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
    overrides: dict | None = None,
) -> ParameterLedger:
    """Resolve every pipeline constant for n, with provenance flags.

    Paper profile: delta/epsilon/kappa from the explicit formulas (evaluated
    in arbitrary precision), B = 6^9.  Desk profile: finite stand-ins
    (kappa=0.5, delta=epsilon=0.05, B giving Q = (log n)^B in [10, 1000]).
    overrides may set the inputs in OVERRIDABLE before anything is derived
    from them; any other key, or a value out of range, is a ConfigError.  A
    window for N above DEFAULT_TABLE_BUDGET is a ResourceBudgetError.
    """
    if profile not in ("paper", "desk"):
        raise ConfigError(f"profile must be 'paper' or 'desk', got {profile!r}")
    overrides = dict(overrides or {})
    unknown = sorted(set(overrides) - set(OVERRIDABLE))
    if unknown:
        raise ConfigError(f"cannot override {unknown}: only {', '.join(OVERRIDABLE)}")
    # every value reaches the payload and must be finite; kappa^2 widens the
    # prime window for N, delta enters the three-sum budget at negative
    # powers and epsilon is a Bohr radius
    ranges = {"kappa": lambda v: v > 0 and math.isfinite(v * v),
              "delta": lambda v: 0 < v < math.inf, "epsilon": lambda v: 0 < v <= 0.5}

    def check(values: dict) -> None:
        bad = [f"{key}={float(v)}" for key, v in values.items() if not ranges.get(key, math.isfinite)(float(v))]
        if bad:
            raise ConfigError(f"need finite values, kappa > 0 with kappa^2 finite, delta > 0 "
                              f"and 0 < epsilon <= 1/2: {', '.join(bad)}")
    check({key: overrides[key] for key in OVERRIDABLE if key in overrides})  # before the paper formula
    C1, C2, C3, C4, C5 = (overrides.get(f"C{i}", 1.0) for i in range(1, 6))
    varpi = min(C1 * C2, 1.0) / 10000.0
    prov: dict[str, str] = {"varpi": "paper-formula"}

    if profile == "paper":
        delta, epsilon, kappa = paper_kappa_delta_epsilon(varpi, C3, C4)
        B = 6.0 ** 9
        prov.update(dict.fromkeys(("delta", "epsilon", "kappa"), "paper-formula"), B="paper-default")
    else:
        kappa, delta, epsilon = 0.5, 0.05, 0.05
        B = max(1.0, round(math.log(100.0) / math.log(math.log(n))))
        prov.update(dict.fromkeys(("delta", "epsilon", "kappa", "B"), "desk-default"))
    prov.update(dict.fromkeys(overrides, "override"))
    kappa, delta, epsilon, B = (overrides.get(key, value) for key, value in
                                zip(("kappa", "delta", "epsilon", "B"), (kappa, delta, epsilon, B)))
    if profile == "paper":
        # a run at 0.0 fails late, or spends O(N^2) on a spectrum of every frequency
        underflow = [key for key, value in (("kappa", kappa), ("delta", delta), ("epsilon", epsilon))
                     if key not in overrides and float(value) == 0.0]
        if underflow:
            raise ConfigError(f"paper-profile values underflow to 0.0 as floats: "
                              f"{', '.join(underflow)}; override each with KEY=VALUE")
    check({"kappa": kappa, "delta": delta, "epsilon": epsilon})  # and the values it gave
    kf = float(kappa)
    k0 = choose_k0(kf)
    if profile == "paper":
        # the F-f rule at the true (astronomically small) kappa is far below
        # the integrator's resolution: the grid cap is used, and flagged
        k0 = DESK_K0_CAP if k0 is None else k0
        prov["k0"] = "capped-desk-grid" if k0 == DESK_K0_CAP else "paper-rule"
    elif k0 is None:
        raise ConfigError(f"no k0 <= {DESK_K0_CAP} satisfies the F-f rule for kappa={kappa}")
    else:
        prov["k0"] = "derived"

    W, w = select_W(n)
    prov["W"] = prov["w"] = "derived"
    b1, b2, b3 = split_residues(n, W)
    lo = (1.0 + kf ** 2 / 20.0) * n / W
    hi = (1.0 + kf ** 2 / 10.0) * n / W
    if lo > DEFAULT_TABLE_BUDGET:  # every weight is a length-N array
        raise ResourceBudgetError(f"N >= {lo:.4g} exceeds the budget of {DEFAULT_TABLE_BUDGET} "
                                  f"points on Z_N (kappa={kappa})")
    N = find_prime_in(lo, hi)
    return ParameterLedger(
        n=n, profile=profile, W=W, w=w, b1=b1, b2=b2, b3=b3, N=N,
        k0=int(k0), B=float(B), kappa=kappa, delta=delta, epsilon=epsilon,
        varpi=varpi, C1=C1, C2=C2, C3=C3, C4=C4, C5=C5, provenance=prov,
    )


@dataclass
class BuiltWeights:
    a1: ZnWeight
    a2: ZnWeight
    a3: ZnWeight
    support_sizes: tuple[int, int, int]
    sums: tuple[float, float, float]
    support_x: tuple[np.ndarray, np.ndarray, np.ndarray]


def build_weights(ledger: ParameterLedger, table=None) -> BuiltWeights:
    """The normalized weights on Z_N; a1 and a2 are one object.

    a1 = a2: strict Chen primes W x + b1 (Omega(p+2) <= 2 and no factor of
    p+2 below n^{1/10}), x <= (n - b1)/(2W), weight
    C2 S1^{-1}/1000 * phi2(W) log(Wx+b1)^2 / n.
    a3: primes W x + b3 with no factor of p+2 below n^{1/k0},
    x <= (n - b3)/W, weight e^gamma phi2(W) log(Wx+b3) log(n) / (4 k0 S1 n).

    b1 = b2 for every ledger choose_parameters returns: W = 30 needs
    log n >= 30, and then N > n/W > DEFAULT_TABLE_BUDGET, so W <= 6, where
    the one admissible residue (b = 1 mod 2, b = 5 mod 6) is every b_i.  A
    ledger with b1 != b2 is a DomainError.
    """
    if ledger.b1 != ledger.b2:
        raise DomainError(f"a1 and a2 are one weight: need b1 = b2, got {ledger.b1} and {ledger.b2}")
    n, W, N, b1, b3 = ledger.n, ledger.W, ledger.N, ledger.b1, ledger.b3
    if table is None:
        table = build_factor_table(n + 2)
    S1 = singular_series_S1(S1_PRIME_BOUND)
    phi2_W = float(mult_functions(W).phi2)
    z1 = max(n ** 0.1, 2.0)  # every spf(p + 2) is >= 2
    z0 = n ** (1.0 / ledger.k0)

    def support(ps: np.ndarray, b: int) -> np.ndarray:
        """The x >= 1 with W x + b in ps."""
        ps = ps[(ps % W == b % W) & (ps > b)]
        return (ps - b) // W

    def weight(xs: np.ndarray, vals_at: np.ndarray) -> ZnWeight:
        v = np.zeros(N)
        np.add.at(v, xs % N, vals_at)
        return ZnWeight(N, v)

    x1 = support(chen_primes(W * ((n - b1) // (2 * W)) + b1, "strict", z=z1, table=table), b1)
    a1 = weight(x1, float(ledger.C2) / S1 / 1000.0 * phi2_W * np.log(W * x1 + b1) ** 2 / n)
    m3 = (n - b3) // W
    x3 = support(table.primes(W * m3 + b3), b3)
    x3 = x3[_sifted(W, b3 + 2, z0, m3 + 1)[x3]]
    a3 = weight(x3, math.exp(EULER_GAMMA) * phi2_W * np.log(W * x3 + b3) * math.log(n)
                / (4.0 * ledger.k0 * S1 * n))
    return BuiltWeights(
        a1=a1, a2=a1, a3=a3,
        support_sizes=(int(x1.size), int(x1.size), int(x3.size)),
        sums=(a1.total(), a1.total(), a3.total()),
        support_x=(x1, x1, x3),
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
    identities are asserted by the stages themselves.  The four asymptotic
    inequalities (the a3 mass band, the sup bounds, the level-set bound and
    the three-sum budget) each get their status from `claim`, and never fail
    a desk run.
    """
    if n % 2 == 0 or n % 3 != 0:
        raise DomainError(f"n must be odd with 3 | n, got {n}")

    def claim(ok: bool, message: str, precondition: bool = True) -> str:
        """The status of one inequality: "asserted" under the paper profile
        when its precondition holds (raising PaperAssertionError(message) if
        ok is false), "diagnostic" otherwise."""
        if profile != "paper" or not precondition:
            return "diagnostic"
        if not ok:
            raise PaperAssertionError(message)
        return "asserted"

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
    kappa = float(ledger.kappa)
    band = [1 - kappa ** 2, 1 + kappa ** 2]
    a3_sum_status = claim(band[0] <= built.sums[2] <= band[1],
                          f"sum a3 = {built.sums[2]} outside [1 - kappa^2, 1 + kappa^2]")
    # x1 + x2 + x3 < n' + N on the supports: every Z_N solution is an integer one
    x_sum = sum(int(np.max(xs, initial=0)) for xs in built.support_x)
    if x_sum >= n_prime + N:
        raise InvariantError(f"support maxima sum to {x_sum} >= n' + N = {n_prime + N}")
    report["stages"].append({
        "stage": "weights",
        "support_sizes": list(built.support_sizes),
        "sums": list(built.sums),
        "a3_sum_band": band,
        "a3_sum_status": a3_sum_status,
    })

    # every stage runs once per distinct weight, (a1, a3); the report lists
    # a1, a2, a3, with a2 = a1
    weights, a123 = (built.a1, built.a3), (0, 0, 1)
    delta, eps = float(ledger.delta), float(ledger.epsilon)
    specs = [spectrum(wt, delta) for wt in weights]
    report["stages"].append({
        "stage": "spectra",
        "delta": delta,
        "sizes": [len(specs[i].members) for i in a123],
        "chebyshev_bounds": [specs[i].chebyshev_bound for i in a123],
    })

    bohrs = [bohr_set(s.members, eps, N) for s in specs]
    report["stages"].append({
        "stage": "bohr_sets",
        "epsilon": eps,
        "sizes": [bohrs[i].size for i in a123],
        "pigeonhole_lower": [bohrs[i].pigeonhole_lower for i in a123],
    })

    w_val = ledger.w
    preconds = (
        eps ** len(specs[0].members) >= ledger.C5 / (kappa * math.sqrt(w_val)),
        w_val > 2 and eps ** len(specs[1].members) >= (2.0 / (w_val - 2) + 0.9 * kappa ** 2) / kappa,
    )
    smooth = []
    sup_flags = []
    for wt, bo, precond in zip(weights, bohrs, preconds):
        res = smooth_and_bound(wt, bo, kappa)
        smooth.append(res)
        sup_flags.append({
            "sup_value": res.sup_value,
            "sup_bound": res.sup_bound,
            "sup_ok": res.sup_ok,
            "precondition_holds": bool(precond),
            "status": claim(res.sup_ok, f"sup a' = {res.sup_value} exceeds "
                            f"(1+2kappa)/N = {res.sup_bound}", precondition=precond),
            "fourier_closeness_max": res.fourier_closeness_max,
        })
    report["stages"].append({"stage": "smoothing", "per_weight": [sup_flags[i] for i in a123]})

    varpi = float(ledger.varpi)
    level = [np.nonzero(r.weight.values >= varpi / N)[0] for r in smooth]
    a3_lower = (1.0 - 3.0 * varpi) * N
    a3_lower_ok = bool(level[1].size >= a3_lower)
    report["stages"].append({
        "stage": "level_sets",
        "sizes": [int(level[i].size) for i in a123],
        "A3_lower_bound": a3_lower,
        "A3_lower_ok": a3_lower_ok,
        "A3_lower_status": claim(a3_lower_ok, f"|A3| = {level[1].size} below "
                                 f"(1 - 3 varpi) N = {a3_lower}"),
    })

    thetas = [level[i].size / N for i in a123]
    pollard_entry: dict = {"stage": "pollard", "thetas": thetas}
    try:
        pres = pollard_check(N, level[0], level[0], level[1], n_prime % N)
        pollard_entry.update(asdict(pres), status="computed")
    except DomainError as exc:
        pollard_entry.update(status="hypotheses-unmet", detail=str(exc))
    report["stages"].append(pollard_entry)

    cmp_res = threesum_comparison(
        (built.a1, built.a2, built.a3),
        tuple(smooth[i].weight for i in a123),
        n_prime % N,
        ledger,
    )
    report["stages"].append({
        "stage": "threesum_comparison",
        **asdict(cmp_res),
        "status": claim(cmp_res.ok, f"threesum diff {cmp_res.diff} exceeds budget {cmp_res.budget}"),
    })
    report["raw_triple_sum"] = cmp_res.raw
    report["raw_triple_sum_positive"] = cmp_res.raw > 0.0

    # lift check: the lexicographically least (x1, x2) with n' - x1 - x2 in
    # the a3 support; no wrap, so it is the least Z_N solution too
    lift = None
    s1, s2, s3 = built.support_x
    for x1 in s1:
        hit = np.isin(n_prime - x1 - s2, s3)
        if hit.any():
            x2 = s2[np.argmax(hit)]
            found = [int(x1), int(x2), int(n_prime - x1 - x2)]
            primes = [W * x + b for x, b in zip(found, (ledger.b1, ledger.b2, ledger.b3))]
            lift = {"x": found, "primes": primes, "lifts_to_integers": sum(primes) == n}
            break
    report["lift_check"] = lift

    if ground_truth:
        from .goldbach_verify import representation_count
        report["ground_truth_representations"] = representation_count(n, table=table)
    return report
