"""Arc dissection, sieve-weighted exponential sums and major-arc models.

The central objects are the sums over primes p <= n with p = b (mod W)

    sum  w(p) * log(p) * e(alpha * (p - b) / W),

where w(p) is either the indicator of gcd(p+2, P(z0)) = 1 (mode "moebius")
or the Rosser divisor sum over d | (p+2, P(z0)) (modes "rosser_plus" /
"rosser_minus").  Rational alpha = a/q gets exact integer phase reduction,
and with q at most the number of terms it is a complete sum over the
residues mod q: S(a/q) = sum_{r mod q} c_q(r) e(ar/q), where c_q(r) sums the
weights of the terms with x = r (mod q).  c_q folds a mode's dense weight
grid on [0, m] (8(m + 1) bytes) mod q, O(m) per (mode, q); the phases
e(ar/q) cost O(q) per (a, q), shared by the modes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd

import numpy as np

from .arith_core import (
    EULER_GAMMA,
    S1_PRIME_BOUND,
    _root,
    build_factor_table,
    mult_functions,
    primes_up_to,
    singular_series_S1,
)
from .errors import DomainError, ResourceBudgetError
from .rosser_sieve import DEFAULT_SUPPORT_CAP, _class_sums, _form_roots, _lambda_terms, build_rosser


@dataclass(frozen=True)
class SieveContext:
    """Parameters of one exponential-sum experiment."""

    n: int
    W: int
    b: int
    k0: int = 8

    def __post_init__(self):
        if self.W < 2 or self.W % 2 != 0:
            raise DomainError(f"W must be even and >= 2, got {self.W}")
        if not (1 <= self.b <= self.W):
            raise DomainError(f"need 1 <= b <= W, got b={self.b}")
        if gcd(self.b * (self.b + 2), self.W) != 1:
            raise DomainError(f"gcd(b(b+2), W) != 1 for b={self.b}, W={self.W}")
        if self.k0 < 1:
            raise DomainError(f"k0 must be >= 1, got {self.k0}")
        if self.n < 0:  # n^{1/k0} would be complex
            raise DomainError(f"n must be >= 0, got {self.n}")

    @property
    def z0(self) -> float:
        """Inner sieving level n^{1/k0}: the weights sift p + 2 by the primes below it."""
        return _root(self.n, self.k0)

    @property
    def D(self) -> float:
        """Rosser level of distribution n^{0.32}."""
        return self.n ** 0.32

    @property
    def m(self) -> int:
        """Length of the x-range: floor((n - b) / W)."""
        return (self.n - self.b) // self.W


class ExpSumEvaluator:
    """Precomputes the weighted prime sequence for one context.

    Reusable across alphas and modes, each mode's weights kept as a grid on
    [0, m] with its sum S(0).  A rational a/q with q at most the number of
    terms is a complete sum over the class sums mod q, kept for the current q
    only (one per mode), and the phases of the last (a, q).  A float alpha, or
    a larger q, is one vectorized phase sum over the terms.
    """

    MODES = ("moebius", "rosser_plus", "rosser_minus")

    def __init__(self, ctx: SieveContext):
        self.ctx = ctx
        table = build_factor_table(ctx.n + 2)  # p + 2 <= n + 2
        ps = table.primes(ctx.n)
        ps = ps[ps % ctx.W == ctx.b % ctx.W]
        self.xs = (ps - ctx.b) // ctx.W
        self.small_primes = table.primes(math.ceil(ctx.z0) - 1).tolist()  # the primes below z0
        self._moebius = table.sifted(ps + 2, ctx.z0)  # the Moebius weight at the terms
        self._grids: dict[str, np.ndarray] = {}
        self._at_zero: dict[str, float] = {}
        self._q = 0
        self._class_sums: dict[str, np.ndarray] = {}
        self._phases_aq: tuple[int, int, np.ndarray | None] = (0, 0, None)

    def _grid(self, mode: str) -> np.ndarray:
        if mode not in self.MODES:
            raise DomainError(f"unknown mode {mode!r}")
        if mode not in self._grids:
            W, b, xs = self.ctx.W, self.ctx.b, self.xs
            if mode == "moebius":
                w = self._moebius
            else:  # d | p + 2 = W x + b + 2 on one residue class of the x-grid [0, m]
                rw = build_rosser(self.ctx.D, "+" if mode == "rosser_plus" else "-",
                                  primes=np.array(self.small_primes, dtype=np.int64))
                w = _class_sums(*_form_roots(*_lambda_terms(rw, self.small_primes), W, b + 2),
                                self.ctx.m + 1)[xs]
            self._grids[mode] = grid = np.zeros(self.ctx.m + 1)
            grid[xs] = np.log((W * xs + b).astype(np.float64)) * w
        return self._grids[mode]

    def inner_weights(self, mode: str) -> np.ndarray:
        return self._grid(mode)[self.xs]

    def exp_sum(self, alpha, mode: str) -> complex:
        if isinstance(alpha, Fraction) and alpha.denominator <= self.xs.size:
            q = alpha.denominator
            return self._complete_sum(alpha.numerator % q, q, mode)
        return complex(np.sum(self.inner_weights(mode) * np.exp(2j * np.pi * self._phases(alpha))))

    def _phases(self, alpha) -> np.ndarray:
        """alpha x mod 1 for each term x, reduced exactly in Python integers
        when alpha is a Fraction."""
        if not isinstance(alpha, Fraction):
            return (float(alpha) % 1.0) * self.xs % 1.0
        a, q = alpha.numerator, alpha.denominator
        return (self.xs.astype(object) * a % q / q).astype(np.float64)

    def _complete_sum(self, a: int, q: int, mode: str) -> complex:
        """sum_{r mod q} c_q(r) e(ar/q) for 0 <= a < q <= the number of terms."""
        if q != self._q:
            self._q, self._class_sums = q, {}
        if mode not in self._class_sums:
            self._class_sums[mode] = _fold(self._grid(mode), q)
        if self._phases_aq[:2] != (a, q):
            # a, r < q <= n < DEFAULT_SIEVE_BUDGET, which the table to n + 2
            # in __init__ enforces, so a r < 2^63
            t = (a * np.arange(q, dtype=np.int64)) % q / q
            self._phases_aq = (a, q, np.exp(2j * np.pi * t))
        return complex(np.dot(self._class_sums[mode], self._phases_aq[2]))

    def at_zero(self, mode: str) -> float:
        if mode not in self._at_zero:
            self._at_zero[mode] = float(np.sum(self.inner_weights(mode)))
        return self._at_zero[mode]


def _fold(grid: np.ndarray, q: int) -> np.ndarray:
    """c[r] = sum of grid[x] over x = r (mod q), q <= grid.size: rows of L =
    q floor(4096/q) or q entries summed, the tail added, then L/q blocks of q."""
    L = q * max(1, 4096 // q)
    rows = grid.size // L
    c = grid[: rows * L].reshape(rows, L).sum(axis=0)
    c[: grid.size - rows * L] += grid[rows * L:]
    return c.reshape(-1, q).sum(axis=0)


@lru_cache(maxsize=8)
def get_evaluator(ctx: SieveContext) -> ExpSumEvaluator:
    return ExpSumEvaluator(ctx)


def exp_sum(ctx: SieveContext, alpha, mode: str = "moebius") -> complex:
    return get_evaluator(ctx).exp_sum(alpha, mode)


@dataclass(frozen=True)
class SpmRow:
    alpha: float
    slack_plus: float
    slack_minus: float
    ok: bool


@dataclass(frozen=True)
class SpmReport:
    rows: tuple[SpmRow, ...]
    bound_plus: float
    bound_minus: float
    max_slack: float
    ok: bool


def spm_comparison(ctx: SieveContext, alphas) -> SpmReport:
    """Verify |S+(a) - S(a)| <= S+(0) - S(0) and |S(a) - S-(a)| <= S(0) - S-(0)."""
    ev = get_evaluator(ctx)
    sp0, s0, sm0 = ev.at_zero("rosser_plus"), ev.at_zero("moebius"), ev.at_zero("rosser_minus")
    bound_plus, bound_minus = sp0 - s0, s0 - sm0
    tol = 1e-9 * (abs(s0) + 1.0)
    rows = []
    for alpha in alphas:
        sp = ev.exp_sum(alpha, "rosser_plus")
        s = ev.exp_sum(alpha, "moebius")
        sm = ev.exp_sum(alpha, "rosser_minus")
        lp = abs(sp - s)
        lm = abs(s - sm)
        ok = lp <= bound_plus + tol and lm <= bound_minus + tol
        rows.append(SpmRow(alpha=float(alpha), slack_plus=bound_plus - lp, slack_minus=bound_minus - lm, ok=ok))
    max_slack = max((max(r.slack_plus, r.slack_minus) for r in rows), default=0.0)
    return SpmReport(
        rows=tuple(rows),
        bound_plus=bound_plus,
        bound_minus=bound_minus,
        max_slack=max_slack,
        ok=all(r.ok for r in rows),
    )


def tau_star(a: int, q: int, ctx: SieveContext) -> complex:
    """Unitary-divisor exponential sum sum_{d | q} e(a * r_d / q) with r_d the
    CRT solution of W r = -b (mod d), W r = -b - 2 (mod q/d).

    Returns 0 when gcd(W, q) > 1.  q must be squarefree.
    """
    if gcd(a, q) != 1:
        raise DomainError(f"need gcd(a, q) = 1, got a={a}, q={q}")
    fac = mult_functions(q).factors
    if any(e > 1 for _, e in fac):
        raise DomainError(f"q={q} is not squarefree")
    W, b = ctx.W, ctx.b
    if gcd(W, q) != 1:
        return 0j
    divisors = [1]
    for p, _ in fac:
        divisors += [d * p for d in divisors]
    total = 0j
    for d in divisors:
        e = q // d
        # r = -b * W^{-1} mod d, r = -(b+2) * W^{-1} mod e, combined by CRT
        # (d, e coprime; pow(x, -1, 1) = 0 covers d = 1 and e = 1)
        r1 = (-b * pow(W, -1, d)) % d
        r2 = (-(b + 2) * pow(W, -1, e)) % e
        r = (r1 + d * ((r2 - r1) * pow(d, -1, e) % e)) % q or q
        total += cmath.exp(2j * cmath.pi * a * r / q)
    return total


def geometric_phase_sum(theta: float, m: int) -> complex:
    """sum_{y=1}^{m} e(theta * y), stable near theta = 0."""
    t = theta % 1.0
    if t == 0.0:
        return complex(m)
    z = cmath.exp(2j * cmath.pi * t)
    return z * (z ** m - 1.0) / (z - 1.0)


@dataclass(frozen=True)
class MajorArcComparison:
    a: int
    q: int
    alpha: float
    model: complex
    actual: complex
    rel_err: float


def major_arc_model(
    ctx: SieveContext,
    a: int,
    q: int,
    alpha: float,
    dissection: "ArcDissection | None" = None,
) -> MajorArcComparison:
    """Compare S(alpha) against the major-arc main-term model

    1_{(W,q)=1} mu(q) tau*(a,q) 4 e^{-gamma} k0 S1 W / (phi2(Wq) log n)
        * sum_{y<=m} e(theta y),   theta = alpha - a/q.

    The model is 0 when gcd(W, q) > 1 or mu(q) = 0, so tau* is only
    evaluated at squarefree q.
    """
    if gcd(a, q) != 1:
        raise DomainError(f"need gcd(a, q) = 1, got a={a}, q={q}")
    if dissection is not None and abs(float(alpha) * q - a) > dissection.radius:
        raise DomainError(f"alpha={alpha} is not in the arc around {a}/{q}")
    ev = get_evaluator(ctx)
    theta = float(alpha) - a / q
    m = ctx.m
    mu = mult_functions(q).mu
    if gcd(ctx.W, q) > 1 or mu == 0:
        model = 0j
    else:
        S1 = singular_series_S1(S1_PRIME_BOUND)
        phi2_Wq = float(mult_functions(ctx.W * q).phi2)
        pref = 4.0 * math.exp(-EULER_GAMMA) * ctx.k0 * S1 * ctx.W / (phi2_Wq * math.log(ctx.n))
        model = mu * tau_star(a, q, ctx) * pref * geometric_phase_sum(theta, m)
    actual = ev.exp_sum(Fraction(a, q) if theta == 0.0 else alpha, "moebius")
    s0 = ev.at_zero("moebius")
    return MajorArcComparison(
        a=a, q=q, alpha=float(alpha), model=model, actual=actual,
        rel_err=abs(model - actual) / s0 if s0 > 0 else math.inf,
    )


class ArcDissection:
    """Major/minor dissection of [0,1) with Q = (log n)^B and radius Q/n."""

    def __init__(self, n: int, B_exponent: float):
        if n < 3:
            raise DomainError(f"n must be >= 3, got {n}")
        try:
            Q = math.log(n) ** B_exponent
        except OverflowError:
            Q = math.inf
        if not math.isfinite(Q):  # int(Q) and the arcs need a finite Q
            raise DomainError(f"Q = (log n)^B must be a finite float, got B={B_exponent} at n={n}")
        self.n = n
        self.B_exponent = B_exponent
        self.Q = Q
        self.radius = self.Q / n

    @cached_property
    def rationals(self) -> list[tuple[int, int]]:
        """Every (a, q) with 1 <= a <= q <= Q and gcd(a, q) = 1, built on
        first use.  Raises ResourceBudgetError, before building, when the
        Q (Q + 1)/2 pairs a <= q <= Q exceed DEFAULT_SUPPORT_CAP."""
        Q = int(self.Q)
        if Q * (Q + 1) // 2 > DEFAULT_SUPPORT_CAP:
            raise ResourceBudgetError(f"the rationals a/q with q <= Q = {Q} exceed the cap of "
                                      f"{DEFAULT_SUPPORT_CAP} entries")
        return [(a, q) for q in range(1, Q + 1) for a in range(1, q + 1) if gcd(a, q) == 1]

    def classify(self, alpha: float) -> tuple[str, int | None, int | None]:
        """('major', a, q) for the lowest-q arc containing alpha, else ('minor', None, None)."""
        alpha = alpha % 1.0
        for q in range(1, int(self.Q) + 1):
            a = round(alpha * q)
            aa = a if a != 0 else q  # torus: alpha near 0 sits in the arc of q/q
            if gcd(aa, q) == 1 and abs(alpha * q - a) <= self.radius:
                return ("major", aa, q)
        return ("minor", None, None)


def bv_delta(x: int, q: int) -> float:
    """max over reduced residues r of |theta(x; q, r) - x/phi(q)|."""
    if q < 1 or x < 2:
        raise DomainError(f"need q >= 1 and x >= 2, got q={q}, x={x}")
    primes = primes_up_to(x)
    logp = np.log(primes.astype(np.float64))
    sums = np.bincount(primes % q, weights=logp, minlength=q)
    reduced = np.gcd(np.arange(q), q) == 1  # r = 0 only at q = 1
    return float(np.max(np.abs(sums[reduced] - x / mult_functions(q).phi)))


@dataclass(frozen=True)
class ContrastReport:
    minor_ratios: tuple[float, ...]
    major_ratios: tuple[float, ...]
    median_minor: float
    median_major: float
    max_minor: float
    ok: bool


def minor_major_contrast(
    ctx: SieveContext,
    dissection: ArcDissection,
    samples: int = 50,
    major_q_max: int = 10,
    rng: np.random.Generator | None = None,
) -> ContrastReport:
    """Empirical contrast of |S(alpha)| / S(0) between sampled minor-arc
    rationals (prime q in [Q, 4Q]) and major-arc centers (q <= major_q_max).
    All minor (a, q) are drawn first, then evaluated with the centres in
    increasing (q, a), one fold per q; the ratios keep draw order."""
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    if rng is None:
        rng = np.random.default_rng(0)
    ev = get_evaluator(ctx)
    s0 = ev.at_zero("moebius")
    Q = dissection.Q
    qs = primes_up_to(int(4 * Q))
    qs = qs[qs >= Q]
    if qs.size == 0:
        raise DomainError("no primes in [Q, 4Q]; increase B_exponent")
    draws = []
    for _ in range(samples):
        q = int(qs[rng.integers(qs.size)])
        a = int(rng.integers(1, q))
        while gcd(a, q) != 1:
            a = int(rng.integers(1, q))
        draws.append((q, a))
    centres = [(q, a) for q in range(1, major_q_max + 1) for a in range(1, q + 1) if gcd(a, q) == 1]
    ratio = {(q, a): abs(ev.exp_sum(Fraction(a, q), "moebius")) / s0
             for q, a in sorted({*draws, *centres})}  # grouped by q: one fold per q
    minor, major = [ratio[d] for d in draws], [ratio[d] for d in centres]
    med_minor = float(np.median(minor))
    med_major = float(np.median(major))
    return ContrastReport(
        minor_ratios=tuple(minor),
        major_ratios=tuple(major),
        median_minor=med_minor,
        median_major=med_major,
        max_minor=float(max(minor)),
        ok=med_minor < med_major,
    )
