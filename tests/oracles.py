"""Direct oracles for the array and FFT routes of chen3, independent of them
and slow by design: O(N) per value and O(N^2) sums on Z_N for
chen3.transference and chen3.selberg_sieve, the Bohr set as one mask over
Z_N per frequency, the Selberg pair count with one
divisor indicator per d, the four-fold Selberg remainder sum and the
double-loop Selberg quadratic form and remainder pair sum, the per-n range
survey with its own Chen pair counts, the full-length count of all-Chen
representations from one self-convolution of the Chen indicator (the route
before the residue-class split), the same count from the pair counts of each
residue class grid (the route before one coefficient of a cube), the
odd-only spf table from one unblocked strided sieve, the double loop over
Chen pairs behind the representation rows, the per-term phase sum behind chen3.circle_method's
complete sums mod q, the Rosser support by depth-first search, the
divisor-class sums by one strided add per d and the residue-class sums by
one pass per x, and per-item trial-division checks of a Rosser weight, its
divisor sum, a Chen prime and a Goldbach representation.  Also the count of
squarefree q <= x as a Moebius sum over d^2, against the sandwich check, and
the point-mass and uniform weights on Z_N that the transference tests use,
and the linear-sieve delay system stepped one grid point at a time, the
primes from a bool Eratosthenes sieve, and the paper's parameter lemma
evaluated value by value in 60-digit decimal arithmetic."""

import bisect
import decimal
import math
from fractions import Fraction
from math import gcd

import numpy as np

from chen3.arith_core import (
    EULER_GAMMA,
    _fft_convolutions,
    _indicator,
    build_factor_table,
    chen_primes,
    factorize,
    is_prime_u64,
    mult_functions,
)
from chen3.errors import DomainError
from chen3.goldbach_verify import SurveyReport, _class_pair_counts
from chen3.rosser_sieve import LinearSieveFns
from chen3.selberg_sieve import PairCountReport, build_selberg
from chen3.transference import ZnWeight


def primes_direct(n: int) -> np.ndarray:
    """All primes <= n as an int64 array from a bool Eratosthenes sieve,
    sharing no code with chen3.arith_core's factor table."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).astype(np.int64)


def exp_sum_direct(ev, alpha: Fraction, mode: str) -> complex:
    """S(a/q) = sum over the terms of w(x) e(a x / q), one phase per term, with
    a x reduced mod q in Python integers."""
    a, q = alpha.numerator, alpha.denominator
    t = np.array([(a * int(x)) % q / q for x in ev.xs])
    return complex(np.sum(ev.inner_weights(mode) * np.exp(2j * np.pi * t)))


def dft_direct(values: np.ndarray, rs) -> np.ndarray:
    """f~(r) = sum_x f(x) e(-xr/N), one O(N) sum per frequency."""
    values = np.asarray(values, dtype=np.float64)
    N = values.size
    x = np.arange(N)
    return np.array(
        [np.sum(values * np.exp(-2j * np.pi * x * (r % N) / N)) for r in rs]
    )


def bohr_set_direct(frequencies, epsilon: float, N: int) -> np.ndarray:
    """The members of chen3.transference.bohr_set by one mask over all of Z_N,
    and-ed with ||x r / N|| <= epsilon for each r in turn, O(|R| N)."""
    T = math.floor(Fraction(epsilon) * N)
    xs = np.arange(N, dtype=np.int64)
    mask = np.ones(N, dtype=bool)
    for r in frequencies:
        t = (xs * (int(r) % N)) % N
        mask &= np.minimum(t, N - t) <= T
    return np.flatnonzero(mask)


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


def survey_direct(n_lo: int, n_hi: int, variant: str = "basic", z: float | None = None) -> SurveyReport:
    """chen3.goldbach_verify.range_survey with the unordered Chen pair counts
    from one bincount of p1 + p2 over the p2 >= p1 per Chen prime p1, and one
    gather of them at n - p3 over every prime p3 <= n - 4 per n,
    O(#n pi(n)), with Omega(p3 + 2) by trial division."""
    n_lo = max(n_lo, 9)
    chens = chen_primes(n_hi - 4, variant=variant, z=z)
    unordered = np.zeros(n_hi + 1, dtype=np.int64)
    for i, p1 in enumerate(chens.tolist()):
        sums = p1 + chens[i:]
        unordered += np.bincount(sums[sums <= n_hi], minlength=n_hi + 1)
    primes = primes_direct(n_hi)
    om_shift = np.array([omega_direct(p + 2) for p in primes.tolist()], dtype=np.int64)
    rows = []
    start = n_lo + (3 - n_lo) % 6
    for n in range(start, n_hi + 1, 6):
        p3s = primes[primes <= n - 4]
        cnts = unordered[n - p3s]
        hit = cnts > 0
        rep_count = int(np.sum(cnts[hit]))
        min_k = int(np.min(om_shift[: p3s.size][hit])) if rep_count else -1
        rows.append((n, rep_count, min_k, rep_count > 0 and min_k <= 2))
    dtype = [("n", np.int64), ("rep_count", np.int64), ("min_k", np.int64), ("has_all_chen", bool)]
    return SurveyReport(n_lo=n_lo, n_hi=n_hi, variant=variant, rows=np.array(rows, dtype=dtype).view(np.recarray))


def representation_count_full(n: int, table=None) -> int:
    """chen3.goldbach_verify.representation_count on the integers, with no
    residue classes: the unordered Chen pair counts u[s] for s <= n from one
    squared transform of the Chen indicator, gathered at n - p3 over every
    Chen prime p3 <= n - 4."""
    if table is None:
        table = build_factor_table(n + 2)
    chens = chen_primes(n - 4, table=table)
    ind = _indicator(chens, chens.max(initial=-1) + 1)
    (u,) = _fft_convolutions(ind, (ind,), n + 1)
    doubled = 2 * chens
    u[doubled[doubled <= n]] += 1  # p1 = p2 is counted once among ordered pairs
    u //= 2
    return int(np.sum(u[n - chens]))


def representation_count_pairs(n: int, table=None) -> int:
    """chen3.goldbach_verify.representation_count with the unordered pair
    counts of each residue class grid from _class_pair_counts (a squared
    transform and its inverse), gathered at t - x3 over the grid points
    x3 <= t: the route before one coefficient of a cube."""
    if table is None:
        table = build_factor_table(n + 2)
    chens = chen_primes(n - 4, table=table)
    count = 0
    for c in (1, 5):
        t = (n - 3 * c) // 6
        xs = (chens[chens % 6 == c] - c) // 6
        (u,) = _class_pair_counts(xs, t + 1)
        count += int(np.sum(u[t - xs[xs <= t]]))
    is_chen = _indicator(chens, n - 3)
    cross = np.count_nonzero(is_chen[n - 3 - chens[chens % 6 == 1]])
    return count + int(3 * cross + (n == 9) + 2 * is_chen[n - 4])


def spf_table_direct(hi: int) -> np.ndarray:
    """The odd-only uint16 spf entries of chen3.arith_core.build_factor_table
    (entry i for x = 2i + 1, 0 at 1 and the primes) from one strided pass
    per odd prime <= sqrt(hi) over the whole array, in descending order:
    the sieve with no blocks."""
    spf = np.zeros((hi + 1) // 2, dtype=np.uint16)
    for p in primes_direct(math.isqrt(hi))[:0:-1].tolist():
        spf[p * p // 2 :: p] = p
    return spf


def quadratic_form_direct(system) -> Fraction:
    """sum_{d1, d2} lambda(d1) lambda(d2) omega([d1, d2]) / [d1, d2] over every
    pair of the support, with omega([d1, d2]) from the union of the chains."""
    total = Fraction(0)
    for d1, l1 in system.lam.items():
        for d2, l2 in system.lam.items():
            union = set(system.chains[d1]) | set(system.chains[d2])
            omega = math.prod(system.omega[p] for p in union)
            total += l1 * l2 * Fraction(omega, d1 * d2 // gcd(d1, d2))
    return total


def remainder_pair_sum_direct(system) -> Fraction:
    """sum_{d1, d2} |lambda(d1) lambda(d2)| omega([d1, d2]) over every pair of
    the support, exactly, with omega([d1, d2]) from the union of the chains."""
    total = Fraction(0)
    for d1, l1 in system.lam.items():
        for d2, l2 in system.lam.items():
            union = set(system.chains[d1]) | set(system.chains[d2])
            total += abs(l1 * l2) * math.prod(system.omega[p] for p in union)
    return total


def pair_count_direct(
    n: int, W: int, b: int, M: int, z0: float, z1: float
) -> PairCountReport:
    """chen3.selberg_sieve.pair_count_bound with its own sieve of p + 2 by the
    primes below z0, a set of survivors, and one divisor indicator of length
    xmax = (n - b)/W per d in each Selberg support."""
    sys1 = build_selberg(1, M, W, n, k0=8, z0=z0, z1=z1)
    sys2 = build_selberg(2, M, W, n, k0=8, z0=z0, z1=z1)
    lam1 = sys1.lam_float()
    lam2 = sys2.lam_float()

    ps = primes_direct(n)
    sel = ps[ps % W == b % W]
    small = [int(p) for p in primes_direct(max(2, math.ceil(z0) - 1)) if p < z0]
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

    qf1 = float(quadratic_form_direct(sys1))
    qf2 = float(quadratic_form_direct(sys2))
    main = (n / W) * qf1 * qf2
    # the four-fold sum over (d1, d2) in stage 1 and (d3, d4) in stage 2
    # factors into the two pair sums
    rem = float(remainder_pair_sum_direct(sys1) * remainder_pair_sum_direct(sys2))
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


def energy_direct(weights) -> float:
    """Additive energy sum_s (f*f)(s)^2 on Z_N, one O(N) sum per s of the
    cyclic self-convolution."""
    values = np.asarray(getattr(weights, "values", weights), dtype=np.float64)
    N = values.size
    conv = np.zeros(N)
    for s in range(N):
        conv[s] = float(np.dot(values, values[(s - np.arange(N)) % N]))
    return float(np.sum(conv ** 2))


def rosser_weight(weights, d: int) -> int:
    """lambda(d): the stored value, else -1 at a prime d >= D for the '-'
    weight (Miller-Rabin), else 0."""
    if d in weights.support:
        return weights.support[d]
    if weights.sign == "-" and d >= weights.D and is_prime_u64(d):
        return -1
    return 0


def rosser_divisor_sum(weights, q: int) -> int:
    """sum of lambda(d) over d | q, one rosser_weight per squarefree divisor
    of q (lambda vanishes off the squarefree d)."""
    divs = [1]
    for p, _ in factorize(q):
        divs += [d * p for d in divs]
    return sum(rosser_weight(weights, d) for d in divs)


def omega_direct(x: int) -> int:
    """Omega(x) with multiplicity, by trial division."""
    return sum(e for _, e in factorize(x))


def is_chen_direct(p: int, variant: str = "basic", z: float | None = None) -> bool:
    """p prime and Omega(p + 2) <= 2, and for the strict variant no prime
    factor of p + 2 below z, by trial division."""
    fac = factorize(p + 2)
    ok = is_prime_u64(p) and sum(e for _, e in fac) <= 2
    return ok and (variant != "strict" or fac[0][0] >= (z or 2))


def representations_direct(n: int, variant: str = "basic", z: float | None = None,
                           limit: int | None = None) -> np.ndarray:
    """chen3.goldbach_verify.find_representations by a double loop over the
    Chen primes p1 <= p2, one trial-division check of p3 = n - p1 - p2 each:
    the rows (p1, p2, p3, Omega(p3 + 2)) as an (m, 4) int64 array."""
    chens = chen_primes(n - 4, variant=variant, z=z)
    out = []
    for p1 in chens.tolist():
        if 2 * p1 > n - 2:
            break
        for p2 in chens[chens >= p1].tolist():
            p3 = n - p1 - p2
            if p3 < 2 or (limit is not None and len(out) >= limit):
                break
            if is_prime_u64(p3) and (k := omega_direct(p3 + 2)) <= 2:
                out.append((p1, p2, p3, k))
    return np.array(out, dtype=np.int64).reshape(-1, 4)


def point_mass(N: int, x: int = 0):
    """The weight on Z_N with all of its mass at x mod N."""
    v = np.zeros(N)
    v[x % N] = 1.0
    return ZnWeight(N, v)


def uniform(N: int):
    """The weight 1/N at every point of Z_N."""
    return ZnWeight(N, np.full(N, 1.0 / N))


def representation_ok(n: int, row, variant: str = "basic", z: float | None = None) -> bool:
    """row = (p1, p2, p3, k): n = p1 + p2 + p3 with p1 <= p2 Chen primes and
    p3 a prime with Omega(p3 + 2) = k, by trial division."""
    p1, p2, p3, k = row
    if p1 + p2 + p3 != n or p1 > p2:
        return False
    if not (is_chen_direct(p1, variant, z) and is_chen_direct(p2, variant, z)):
        return False
    return is_prime_u64(p3) and omega_direct(p3 + 2) == k


def squarefree_count(x: int) -> int:
    """#{squarefree q <= x} = sum over d <= sqrt(x) of mu(d) floor(x / d^2)."""
    return sum(mult_functions(d).mu * (x // (d * d)) for d in range(1, math.isqrt(x) + 1))


def rosser_support_direct(D: float, sign: str, primes=None) -> tuple[dict, dict]:
    """(d -> lambda_D^sign(d), d -> prime chain of d) by depth-first search
    over descending primes, each product compared to D in Python integers."""
    if primes is None:
        primes = primes_direct(max(2, math.ceil(D) - 1))
    plist = sorted((int(p) for p in primes if p < D), reverse=True)
    neg = [-p for p in plist]  # ascending, for bisecting the descending list
    support, chains = {1: 1}, {1: ()}
    check_parity = 1 if sign == "+" else 0

    def extend(prefix: int, chain: tuple, start: int) -> None:
        k = len(chain) + 1
        lim = D / prefix
        if k % 2 == check_parity:
            lim = min(lim, lim ** (1.0 / 3.0))
        for i in range(max(start, bisect.bisect_left(neg, -lim * (1.0 + 1e-9))), len(plist)):
            p = plist[i]
            if prefix * p >= D or (k % 2 == check_parity and prefix * p ** 3 >= D):
                continue
            support[prefix * p] = -1 if k % 2 else 1
            chains[prefix * p] = chain + (p,)
            extend(prefix * p, chain + (p,), i + 1)

    extend(1, (), 0)
    return support, chains


def class_sums_direct(d, v, size: int, W: int = 1, c: int = 0) -> np.ndarray:
    """T[x] = sum of v[i] over the i with d[i] | W x + c, 0 <= x < size, by
    one strided add per d on the class x = -c W^{-1} (mod d)."""
    T = np.zeros(size, dtype=np.int64)
    for di, vi in zip(np.asarray(d).tolist(), np.asarray(v).tolist()):
        if gcd(di, W) == 1:
            T[-c * pow(W, -1, di) % di :: di] += vi
    return T


def residue_class_sums_direct(d, r, v, size: int) -> np.ndarray:
    """T[x] = sum of v[i] over the i with x = r[i] (mod d[i]), one masked sum
    per x."""
    d, r, v = np.asarray(d), np.asarray(r), np.asarray(v)
    return np.array([v[x % d == r].sum() for x in range(size)], dtype=v.dtype)


def linear_sieve_grids_direct(steps_per_unit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s, F, f) on the grid of chen3.rosser_sieve.LinearSieveFns, with
    (sF)' = f(s - 1) and (sf)' = F(s - 1) integrated by one trapezoid step
    per grid point, F beyond s = 3 and f beyond s = 4."""
    h = 1.0 / steps_per_unit
    n = int(round((LinearSieveFns.S_MAX - 1.0) * steps_per_unit)) + 1
    s = 1.0 + h * np.arange(n)
    two_eg = 2.0 * math.exp(EULER_GAMMA)
    F = np.where(s <= 3.0, two_eg / s, 0.0)
    f = np.where(s >= 2.0, two_eg * np.log(np.maximum(s - 1.0, 1.0)) / s, 0.0)
    lag = steps_per_unit
    for i in range(n):
        if s[i] > 3.0:
            F[i] = (s[i - 1] * F[i - 1] + 0.5 * h * (f[i - lag] + f[i - 1 - lag])) / s[i]
        if s[i] > 4.0:
            f[i] = (s[i - 1] * f[i - 1] + 0.5 * h * (F[i - lag] + F[i - 1 - lag])) / s[i]
    return s, F, f


def paper_logs_direct(varpi: float, C3: float, C4: float) -> tuple[float, float, float, float]:
    """chen3.transference.paper_logs from the formulas themselves: delta,
    epsilon, the exponent E of kappa = min(epsilon^E, varpi) and lhs / varpi^6
    as 60-digit decimals over the widest exponent range (delta ~ 10^-340 and
    E ~ 10^1362 at C = 1), with no log taken before the last step.
    Returns ln delta, ln epsilon, ln E and ln(lhs / varpi^6)."""
    context = decimal.Context(prec=60, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    with decimal.localcontext(context):
        D = decimal.Decimal
        vp, c3, c4 = D(varpi), D(C3), D(C4)
        delta = min(vp ** 78 / (D(144) ** 13 * c3 ** 24 * c4 ** 3), D(1))
        d24, d4 = delta ** D("-2.4"), delta ** -4
        epsilon = min(vp ** 3 * delta ** 2 / (192 * (c3 * d24 + 5 * c4 * d4).sqrt()), D(1))
        exponent = 6 * c3 ** D("2.4") * d24 + 60 * c4 * d4
        lhs = (3072 * epsilon ** 2 * (c3 ** D("2.4") * d24 + 5 * c4 * d4)
               + 72 * c3 ** (D(24) / 13) * c4 ** (D(3) / 13) * delta ** (D(1) / 13))
        return tuple(float(x.ln()) for x in (delta, epsilon, exponent, lhs / vp ** 6))
