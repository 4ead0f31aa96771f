"""Fourier-analytic transference apparatus on Z_N.

Normalized weights on Z_N, their DFTs, large spectra, Bohr sets, Bohr-set
smoothing, the three-fold convolution counts, the Pollard-type sumset bound,
and the parameter ledger tying everything together.  a2 is a1: the table
budget on N keeps W <= 6, where one residue is admissible, so b1 = b2 and
the weights are a1 and a3, each support point x placed at x (x >= N is an
InvariantError, not a fold mod N).  The DFTs on Z_N cost O(N log N) and
carry two real signals each (arith_core's _zn_dft and _zn_idft): build_weights
makes the forward DFT of the distinct weights, and one smooth_and_bound call
makes one forward DFT of their Bohr indicators and one inverse for both
smoothings, from the products of their factors' spectra.  An index set on
Z_N (spectrum, Bohr frequencies and members, level and Pollard sets) is a
sorted int64 array.  A Bohr set filters Z_N by one frequency at a time,
O(sum_k |B_k|) over the passes that can change the set, with B_k the Bohr
set of the first k frequencies.  The linear convolutions behind triple_sum
and the Pollard count are arith_core's FFT kernel of linear products,
_fft_convolutions, folded mod N.  The O(N^2) enumerations that check these
routes are kept in the tests.

The stage functions compute their inequalities and return the numbers with
an ok flag; none of them reads the profile.  `run_transference` alone decides
what is asserted: under the paper profile each asymptotic inequality whose
stated hypotheses hold numerically ("sufficiently large n", "w >= C5^2") is
asserted, and a failure raises PaperAssertionError; otherwise, and always
under the desk profile, it is reported with status "diagnostic".
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import gcd

import numpy as np

from .arith_core import (
    EULER_GAMMA,
    S1_PRIME_BOUND,
    _fft_convolutions,
    _indicator,
    _root,
    _zn_dft,
    _zn_idft,
    build_factor_table,
    chen_primes,
    is_prime_u64,
    mult_functions,
    primes_up_to,
    singular_series_S1,
)
from .errors import ConfigError, DomainError, InvariantError, PaperAssertionError, ResourceBudgetError
from .goldbach_verify import _pair_witnesses, representation_count
from .rosser_sieve import linear_sieve_F_f

# Hard cap on the points of Z_N: every weight and indicator is a length-N array.
ZN_POINT_BUDGET = 1 << 27
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
        if self.N < 1 or self.values.shape != (self.N,):
            raise DomainError(f"need N >= 1 and values of length N, got N={self.N} and shape {self.values.shape}")
        if not np.all((self.values >= 0) & (self.values < np.inf)):
            raise DomainError("weights must be finite and nonnegative")

    @property
    def dft(self) -> np.ndarray:
        """f~(r) = sum_x f(x) e(-xr/N) on the full frequency grid, exactly
        Hermitian."""
        if self._dft is None:
            (self._dft,) = _zn_dft(self.values)
        return self._dft

    def total(self) -> float:
        return float(np.sum(self.values))


def _residue_indicator(X, N: int) -> np.ndarray:
    """The bool indicator on Z_N of the integers X, an array or any iterable,
    reduced mod N."""
    X = np.asarray(X, dtype=np.int64) if isinstance(X, np.ndarray) else np.fromiter(X, dtype=np.int64)
    return _indicator(np.mod(X, N), N)


@dataclass(frozen=True)
class Spectrum:
    delta: float
    members: np.ndarray
    chebyshev_bound: float


def spectrum(f: ZnWeight, delta: float) -> Spectrum:
    """Large spectrum {r : |f~(r)| > delta} with the exact Chebyshev-type
    certificate |R| <= delta^-4 sum_r |f~(r)|^4."""
    mags = np.abs(f.dft)
    members = np.flatnonzero(mags > delta)
    bound = float(np.sum(mags ** 4)) / delta ** 4 if delta > 0 else math.inf
    if members.size > bound:
        raise InvariantError("Chebyshev spectrum bound violated")
    return Spectrum(delta=delta, members=members, chebyshev_bound=bound)


@dataclass(frozen=True)
class BohrSet:
    frequencies: np.ndarray  # the distinct residues mod N, 0 kept when given
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
        return math.ceil(self.epsilon ** np.count_nonzero(self.frequencies) * self.N) - 1


def bohr_set(frequencies, epsilon: float, N: int) -> BohrSet:
    """{x in Z_N : ||x r / N|| <= epsilon for all r in frequencies}.

    Membership is exact integer arithmetic: with t = x*r mod N,
    ||x r / N|| = min(t, N - t)/N <= epsilon iff min(t, N - t) <= floor(epsilon N),
    the floor taken of the exact rational value of epsilon.  The pigeonhole
    size bound |B| >= ceil(eps^{|R|} N) - 1 is checked on construction.
    """
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    if not (0 < epsilon <= 0.5):
        raise DomainError(f"epsilon must be in (0, 1/2], got {epsilon}")
    freqs = np.flatnonzero(_residue_indicator(frequencies, N))
    T = math.floor(Fraction(epsilon) * N)
    xs = np.arange(N, dtype=np.int64)
    if T < N // 2:  # min(t, N - t) <= N // 2 for every t: at T >= N // 2 no pass removes a point
        for r in freqs[freqs > 0]:
            if xs.size == 1:  # only 0 is left, and 0 survives every pass
                break
            t = (xs * r) % N
            xs = xs[np.minimum(t, N - t) <= T]
    bohr = BohrSet(frequencies=freqs, epsilon=epsilon, N=N, members=xs)
    if bohr.size < bohr.pigeonhole_lower:
        raise InvariantError(f"Bohr set of size {bohr.size} below pigeonhole bound {bohr.pigeonhole_lower}")
    return bohr


def _from_spectra(*specs: np.ndarray) -> list[ZnWeight]:
    """The nonnegative weights with the exactly Hermitian spectra specs, one
    or two from one inverse DFT, each carrying its spectrum.  The clip at 0
    moves the values off it only by rounding: before it, the desk pipeline's
    smoothings dip to -1.3e-15 of their maximum at most (n = 30003, 99999,
    999999), so a dip below -1e-9 of it is a fault, such as a wrong spectrum
    or a leak between the paired outputs, and an InvariantError."""
    out = []
    for v, spec in zip(_zn_idft(*specs), specs):
        if np.min(v, initial=0.0) < -1e-9 * np.max(v, initial=0.0):
            raise InvariantError(f"inverse DFT dips to {np.min(v)}, below -1e-9 of its maximum")
        out.append(ZnWeight(v.size, np.maximum(v, 0.0), _dft=spec))
    return out


def convolve(f: ZnWeight, *gs: ZnWeight) -> ZnWeight:
    """Cyclic convolution f*g_1*...*g_k, (f*g)(x) = sum_y f(y) g(x-y), from
    one inverse DFT of the product spectrum f~ g_1~ ... g_k~, which it
    carries."""
    spec = f.dft
    for g in gs:
        if f.N != g.N:
            raise DomainError(f"mismatched N: {f.N} vs {g.N}")
        spec = spec * g.dft
    return _from_spectra(spec)[0]


def triple_sum(f: ZnWeight, g: ZnWeight, h: ZnWeight, target: int) -> float:
    """sum over x1 + x2 + x3 = target (mod N) of f(x1) g(x2) h(x3).

    Two routes must agree to 1e-8 relative: the Fourier identity
    (1/N) sum_r f~ g~ h~ e(target r / N), one O(N) dot product of the cached
    transforms, and the linear convolution f*g from a zero-padded real FFT,
    folded mod N and paired with h(target - s).  The second is returned.
    The cached spectra are exactly Hermitian: the first pairs r with -r.
    """
    if not (f.N == g.N == h.N):
        raise DomainError("mismatched N")
    N = f.N
    t = target % N
    k = N // 2 + 1
    P = f.dft[:k] * g.dft[:k] * h.dft[:k]
    P[1:(N + 1) // 2] *= 2
    fourier = float(np.dot(P, np.exp(2j * np.pi * (t * np.arange(k, dtype=np.int64) % N) / N)).real) / N
    (folded,) = _fft_convolutions(f.values, (g.values,), 2 * N - 1, N)
    linear = float(np.dot(folded, h.values[(t - np.arange(N)) % N]))
    scale = max(abs(linear), abs(fourier), f.total() * g.total() * h.total(), 1e-300)
    if abs(linear - fourier) / scale > 1e-8:
        raise InvariantError(f"triple_sum mismatch: linear={linear}, fourier={fourier}")
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


def smooth_and_bound(weights, bohrs, kappa: float) -> list[SmoothResult]:
    """a' = a * b * b for one or two weights a, with b = 1_B / |B| the
    normalized indicator of a's Bohr set B: the b are transformed together,
    each b~ becomes the spectrum b~^2 a~ in place, and the a' come from one
    inverse DFT.  One SmoothResult per weight, in order.

    Checks mass preservation exactly (b~(0) = 1) and the Fourier closeness
    max |1 - b~(r)| <= 16 eps^2 over B's frequencies, raising InvariantError
    if either fails.  The sup bound sup a' <= (1 + 2 kappa)/N is returned as
    sup_ok; whether it is asserted is the caller's decision.
    """
    if len(weights) != len(bohrs):
        raise DomainError(f"need one Bohr set per weight, got {len(weights)} and {len(bohrs)}")
    specs = _zn_dft(*(_indicator(bo.members, bo.N) / bo.size for bo in bohrs))
    closeness = [float(np.max(np.abs(1.0 - d[bo.frequencies]), initial=0.0)) for d, bo in zip(specs, bohrs)]
    for a, bo, d in zip(weights, bohrs, specs):
        if a.N != bo.N:
            raise DomainError(f"mismatched N: {a.N} vs {bo.N}")
        d *= d
        d *= a.dft
    out = []
    for a, bo, sm, close in zip(weights, bohrs, _from_spectra(*specs), closeness):
        mass_in, mass_out = a.total(), sm.total()
        if abs(mass_in - mass_out) > 1e-9 * max(mass_in, 1.0):
            raise InvariantError("smoothing did not preserve mass")
        if not close <= 16.0 * bo.epsilon ** 2 + 1e-12:
            raise InvariantError(f"|1 - b~(r)| = {close} exceeds 16 eps^2 = {16 * bo.epsilon ** 2}")
        sup_value = float(np.max(sm.values))
        sup_bound = (1.0 + 2.0 * kappa) / a.N
        out.append(SmoothResult(
            weight=sm, mass_in=mass_in, mass_out=mass_out, fourier_closeness_max=close,
            sup_value=sup_value, sup_bound=sup_bound, sup_ok=sup_value <= sup_bound + 1e-15,
        ))
    return out


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
    raw = triple_sum(*raw_weights, target)
    smoothed = triple_sum(*smooth_weights, target)
    diff = abs(raw - smoothed)
    eps, delta, C3, C4 = ledger.epsilon, ledger.delta, ledger.C3, ledger.C4
    budget = (
        3072.0 * eps ** 2 * (C3 ** 2.4 * delta ** -2.4 + 5.0 * C4 * delta ** -4)
        + 72.0 * C3 ** (24 / 13) * C4 ** (3 / 13) * delta ** (1 / 13)
    ) / raw_weights[0].N
    return ThreeSumComparison(raw=raw, smoothed=smoothed, diff=diff, budget=budget, ok=diff <= budget)


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
    guarded FFT convolution of the indicators.
    N below 1 is a DomainError, N above ZN_POINT_BUDGET a ResourceBudgetError.
    """
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    if N > ZN_POINT_BUDGET:  # before the length-N indicators
        raise ResourceBudgetError(f"N={N} exceeds the budget of {ZN_POINT_BUDGET} points on Z_N")
    inds = [_residue_indicator(X, N) for X in (X1, X2, X3)]
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
    (c,) = _fft_convolutions(inds[1], (inds[2],), 2 * N - 1, N)
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


def paper_logs(varpi: float, C3: float, C4: float) -> tuple[float, float, float, float]:
    """ln delta, ln epsilon, ln E and ln(lhs / varpi^6) <= 0 of the paper's
    parameter lemma, with d = delta and eps = epsilon:

        delta = min(varpi^78 / (144^13 C3^24 C4^3), 1),
        epsilon = min(varpi^3 d^2 / (192 sqrt(C3 d^{-12/5} + 5 C4 d^{-4})), 1),
        kappa = min(eps^E, varpi),  E = 6 C3^{12/5} d^{-12/5} + 60 C4 d^{-4},
        lhs = 3072 eps^2 (C3^{12/5} d^{-12/5} + 5 C4 d^{-4}) + 72 C3^{24/13} C4^{3/13} d^{1/13}.

    At C = 1, delta ~ 10^-340, epsilon ~ 10^-1375 and ln kappa ~ -3e1365 are
    far outside the float range, but their logs are sums of logs, with a
    log-sum-exp per two-term sum.  lhs > varpi^6 is a PaperAssertionError."""
    if not (varpi > 0 and C3 > 0 and C4 > 0):
        raise ConfigError(f"the paper profile needs C1 C2 > 0, C3 > 0 and C4 > 0, "
                          f"got varpi={varpi}, C3={C3}, C4={C4}")
    lv, l3, l4 = math.log(varpi), math.log(C3), math.log(C4)
    ld = min(78 * lv - 13 * math.log(144) - 24 * l3 - 3 * l4, 0.0)
    l5c4 = math.log(5) + l4 - 4 * ld  # ln(5 C4 d^-4)
    le = min(3 * lv + 2 * ld - math.log(192) - np.logaddexp(l3 - 2.4 * ld, l5c4) / 2, 0.0)
    lE = np.logaddexp(math.log(6) + 2.4 * (l3 - ld), math.log(60) + l4 - 4 * ld)
    margin = np.logaddexp(math.log(3072) + 2 * le + np.logaddexp(2.4 * (l3 - ld), l5c4),
                          math.log(72) + (24 * l3 + 3 * l4 + ld) / 13) - 6 * lv
    if margin > 0:
        raise PaperAssertionError(f"parameter inequality failed: ln(lhs / varpi^6) = {margin:.6g} > 0")
    return ld, le, lE, margin


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


def find_prime_in(lo: float, hi: float) -> int | None:
    for cand in range(math.ceil(lo), math.floor(hi) + 1):
        if is_prime_u64(cand):
            return cand
    return None


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
    in log space, paper_logs), B = 6^9.  Desk profile: finite stand-ins
    (kappa=0.5, delta=epsilon=0.05, B giving Q = (log n)^B in [10, 1000]).
    overrides may set the inputs in OVERRIDABLE before anything is derived
    from them; any other key, or a value out of range, is a ConfigError.  A
    window for N above ZN_POINT_BUDGET is a ResourceBudgetError.
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
        bad = [f"{key}={v}" for key, v in values.items() if not ranges.get(key, math.isfinite)(v)]
        if bad:
            raise ConfigError(f"need finite values, kappa > 0 with kappa^2 finite, delta > 0 "
                              f"and 0 < epsilon <= 1/2: {', '.join(bad)}")
    check({key: overrides[key] for key in OVERRIDABLE if key in overrides})  # before the paper formula
    C1, C2, C3, C4, C5 = (overrides.get(f"C{i}", 1.0) for i in range(1, 6))
    varpi = min(C1 * C2, 1.0) / 10000.0
    prov: dict[str, str] = {"varpi": "paper-formula"}

    if profile == "paper":
        log_delta, log_eps, log_E, _ = paper_logs(varpi, C3, C4)
        log_neg_log = log_E + math.log(-log_eps) if log_eps < 0 else -math.inf  # ln(-ln eps^E)
        delta, epsilon = math.exp(log_delta), math.exp(log_eps)
        kappa = min(math.exp(-math.exp(min(log_neg_log, 7.0))), varpi)  # e^-e^7 = 0.0: no OverflowError
        ln10 = math.log(10)
        log10s = {"kappa": f"log10(-log10 kappa) = {(log_neg_log - math.log(ln10)) / ln10:.6f}",
                  "delta": f"log10 delta = {log_delta / ln10:.6f}",
                  "epsilon": f"log10 epsilon = {log_eps / ln10:.6f}"}
        B = 6.0 ** 9
        prov.update(dict.fromkeys(("delta", "epsilon", "kappa"), "paper-formula"), B="paper-default")
    else:
        kappa, delta, epsilon = 0.5, 0.05, 0.05
        B = max(1.0, round(math.log(100.0) / math.log(math.log(n))))
        prov.update(dict.fromkeys(("delta", "epsilon", "kappa", "B"), "desk-default"))
    if not varpi > 0:  # the level sets {a' >= varpi/N} would be all of Z_N
        raise ConfigError(f"need C1 C2 > 0, got C1={C1}, C2={C2}")
    if C3 < 0 or C4 < 0:  # the three-sum budget raises them to fractional powers
        raise ConfigError(f"need C3 >= 0 and C4 >= 0, got C3={C3}, C4={C4}")
    prov.update(dict.fromkeys(overrides, "override"))
    kappa, delta, epsilon, B = (overrides.get(key, value) for key, value in
                                zip(("kappa", "delta", "epsilon", "B"), (kappa, delta, epsilon, B)))
    if profile == "paper":
        # a run at 0.0 fails late, or spends O(N^2) on a spectrum of every frequency
        underflow = [key for key, value in (("kappa", kappa), ("delta", delta), ("epsilon", epsilon))
                     if key not in overrides and value == 0.0]
        if underflow:
            raise ConfigError(f"paper-profile values underflow to 0.0 as floats: "
                              f"{', '.join(underflow)}; override each with KEY=VALUE "
                              f"({', '.join(log10s[key] for key in underflow)})")
    check({"kappa": kappa, "delta": delta, "epsilon": epsilon})  # and the values it gave
    k0 = choose_k0(kappa)
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
    lo = (1.0 + kappa ** 2 / 20.0) * n / W
    hi = (1.0 + kappa ** 2 / 10.0) * n / W
    if lo > ZN_POINT_BUDGET:  # every weight is a length-N array
        raise ResourceBudgetError(f"N >= {lo:.4g} exceeds the budget of {ZN_POINT_BUDGET} "
                                  f"points on Z_N (kappa={kappa})")
    N = find_prime_in(lo, hi)
    if N is None:
        raise ConfigError(f"no prime in [{lo:.2f}, {hi:.2f}]: kappa = {kappa:.6g} ({prov['kappa']}) "
                          f"makes the window (1 + kappa^2/20, 1 + kappa^2/10) n/W {hi - lo:.3g} wide")
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
    """The normalized weights on Z_N, each with its DFT: a1 and a3 are
    transformed together, and a1 and a2 are one object.

    a1 = a2: strict Chen primes W x + b1 (Omega(p+2) <= 2 and no factor of
    p+2 below n^{1/10}), x <= (n - b1)/(2W), weight
    C2 S1^{-1}/1000 * phi2(W) log(Wx+b1)^2 / n.
    a3: primes W x + b3 with no factor of p+2 below n^{1/k0},
    x <= (n - b3)/W, weight e^gamma phi2(W) log(Wx+b3) log(n) / (4 k0 S1 n).

    b1 = b2 for every ledger choose_parameters returns: W = 30 needs
    log n >= 30, and then N > n/W > ZN_POINT_BUDGET, so W <= 6, where
    the one admissible residue (b = 1 mod 2, b = 5 mod 6) is every b_i.  A
    ledger with b1 != b2 is a DomainError.  No x is folded mod N: x >= N is
    an InvariantError (choose_parameters' N exceeds n/W >= x).
    """
    if ledger.b1 != ledger.b2:
        raise DomainError(f"a1 and a2 are one weight: need b1 = b2, got {ledger.b1} and {ledger.b2}")
    n, W, N, b1, b3 = ledger.n, ledger.W, ledger.N, ledger.b1, ledger.b3
    if table is None:
        table = build_factor_table(n + 2)
    S1 = singular_series_S1(S1_PRIME_BOUND)
    phi2_W = float(mult_functions(W).phi2)
    z1 = max(_root(n, 10), 2.0)  # every spf(p + 2) is >= 2
    z0 = _root(n, ledger.k0)

    def support(ps: np.ndarray, b: int) -> np.ndarray:
        """The x >= 1 with W x + b in ps."""
        ps = ps[(ps % W == b % W) & (ps > b)]
        return (ps - b) // W

    x1 = support(chen_primes(W * ((n - b1) // (2 * W)) + b1, "strict", z=z1, table=table), b1)
    m3 = (n - b3) // W
    x3 = support(table.primes(W * m3 + b3), b3)
    x3 = x3[table.sifted(W * x3 + b3 + 2, z0)]
    x_max = max(int(np.max(xs, initial=0)) for xs in (x1, x3))
    if x_max >= N:  # before the length-N arrays
        raise InvariantError(f"support point x = {x_max} is not below N = {N}")
    w1 = ledger.C2 / S1 / 1000.0 * phi2_W * np.log(W * x1 + b1) ** 2 / n
    w3 = math.exp(EULER_GAMMA) * phi2_W * np.log(W * x3 + b3) * math.log(n) / (4.0 * ledger.k0 * S1 * n)
    values = [np.bincount(xs, weights=w, minlength=N) for xs, w in ((x1, w1), (x3, w3))]
    a1, a3 = (ZnWeight(N, v, _dft=d) for v, d in zip(values, _zn_dft(*values)))  # one DFT for both
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
    if n < 1 or n % 2 == 0 or n % 3 != 0:
        raise DomainError(f"n must be positive and odd with 3 | n, got {n}")

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
        "ledger": asdict(ledger),
        "n_prime": n_prime,
        "stages": [],
    }

    table = build_factor_table(n + 2)
    built = build_weights(ledger, table)
    kappa = ledger.kappa
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
    delta, eps = ledger.delta, ledger.epsilon
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
    smooth = smooth_and_bound(weights, bohrs, kappa)
    sup_flags = [{
        "sup_value": res.sup_value,
        "sup_bound": res.sup_bound,
        "sup_ok": res.sup_ok,
        "precondition_holds": bool(precond),
        "status": claim(res.sup_ok, f"sup a' = {res.sup_value} exceeds "
                        f"(1+2kappa)/N = {res.sup_bound}", precondition=precond),
        "fourier_closeness_max": res.fourier_closeness_max,
    } for res, precond in zip(smooth, preconds)]
    report["stages"].append({"stage": "smoothing", "per_weight": [sup_flags[i] for i in a123]})

    level = [np.nonzero(r.weight.values >= ledger.varpi / N)[0] for r in smooth]
    a3_lower = (1.0 - 3.0 * ledger.varpi) * N
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
    # the a3 support; no wrap, so it is the least Z_N solution too.  s1 = s2,
    # so a least solution has x1 <= x2: with x2 < x1, (x2, x1) would be less
    lift = None
    s1, _, s3 = built.support_x
    witness = _pair_witnesses(n_prime, s1, _indicator(s3[s3 <= n_prime], n_prime + 1), 1)
    if witness.size:
        found = witness[0].tolist()
        primes = [W * x + b for x, b in zip(found, (ledger.b1, ledger.b2, ledger.b3))]
        lift = {"x": found, "primes": primes, "lifts_to_integers": sum(primes) == n}
    report["lift_check"] = lift

    if ground_truth:
        report["ground_truth_representations"] = representation_count(n, table=table)
    return report
