import cmath
import collections
import functools
import math
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from chen3.arith_core import mult_functions, primes_up_to
from chen3 import arith_core, circle_method
from chen3.circle_method import (
    ArcDissection,
    ExpSumEvaluator,
    SieveContext,
    bv_delta,
    exp_sum,
    geometric_phase_sum,
    get_evaluator,
    major_arc_model,
    minor_major_contrast,
    spm_comparison,
    tau_star,
)
from chen3.errors import DomainError, ResourceBudgetError
from chen3.rosser_sieve import build_rosser
from oracles import exp_sum_direct, rosser_weight

CTX = SieveContext(n=3000, W=2, b=1, k0=4)  # z0 = 3000^{1/4} ~ 7.4


def brute_moebius_sum(ctx: SieveContext, alpha: float) -> complex:
    total = 0j
    small = [p for p in range(2, math.ceil(ctx.z0)) if all(p % q for q in range(2, p)) and p < ctx.z0]
    for p in primes_up_to(ctx.n):
        p = int(p)
        if p % ctx.W != ctx.b % ctx.W:
            continue
        if any((p + 2) % sp == 0 for sp in small):
            continue
        x = (p - ctx.b) // ctx.W
        total += math.log(p) * cmath.exp(2j * cmath.pi * alpha * x)
    return total


class TestExpSum:
    def test_context_validation(self):
        with pytest.raises(DomainError):
            SieveContext(n=100, W=3, b=1)
        with pytest.raises(DomainError):
            SieveContext(n=100, W=6, b=3)  # gcd(3*5, 6) = 3

    def test_against_brute_force(self):
        for alpha in (0.0, 0.1, 0.37, 2 / 7):
            got = exp_sum(CTX, alpha, "moebius")
            want = brute_moebius_sum(CTX, alpha)
            assert got == pytest.approx(want, abs=1e-8 * (abs(want) + 1))

    @pytest.mark.parametrize("n, k", [(5**5, 5), (5**10, 10)])
    def test_level_at_a_perfect_power(self, n, k):
        # n^(1/k) is 5.000000000000001 in floats; the weight sifts p + 2 by
        # exactly the primes q with q^k < n
        ctx = SieveContext(n=n, W=6, b=5, k0=k)
        ps = primes_up_to(n)
        small = [q for q in ps[:10].tolist() if q ** k < n]
        assert ctx.z0 == 5.0 and ExpSumEvaluator(ctx).small_primes == small == [2, 3]
        ps = ps[ps % 6 == 5]
        keep = np.all([(ps + 2) % q != 0 for q in small], axis=0)
        want = math.fsum(np.log(ps[keep].astype(np.float64)).tolist())
        assert exp_sum(ctx, 0.0).real == pytest.approx(want, rel=1e-12)

    def test_sieve_budget(self, monkeypatch):
        # the table reaches p + 2 <= n + 2, so n = budget - 2 is the last n that runs
        monkeypatch.setattr(arith_core, "DEFAULT_SIEVE_BUDGET", 3002)
        assert ExpSumEvaluator(CTX).xs.size > 0  # n = 3000
        with pytest.raises(ResourceBudgetError):
            ExpSumEvaluator(SieveContext(n=3001, W=2, b=1, k0=4))

    def test_one_table(self, monkeypatch):
        # one factor table to n + 2 gives the terms, the primes below z0 and
        # the Moebius weight; primes_up_to builds no second one
        sizes = []

        def counted(hi):
            sizes.append(hi)
            return arith_core.build_factor_table(hi)

        def refuse(*args, **kwargs):
            raise AssertionError("a second sieve")

        monkeypatch.setattr(circle_method, "build_factor_table", counted)
        monkeypatch.setattr(circle_method, "primes_up_to", refuse)
        ev = ExpSumEvaluator(CTX)
        assert sizes == [CTX.n + 2]
        assert ev.small_primes == [2, 3, 5, 7]
        assert ev.at_zero("moebius") == pytest.approx(brute_moebius_sum(CTX, 0.0).real, rel=1e-12)

    def test_periodicity(self):
        a = exp_sum(CTX, Fraction(2, 7), "moebius")
        b = exp_sum(CTX, Fraction(9, 7), "moebius")
        assert a == pytest.approx(b, abs=1e-12 * abs(a))

    def test_conjugate_symmetry(self):
        for alpha in (Fraction(1, 5), Fraction(3, 11)):
            s = exp_sum(CTX, alpha, "moebius")
            sc = exp_sum(CTX, 1 - alpha, "moebius")
            assert sc == pytest.approx(s.conjugate(), abs=1e-10 * (abs(s) + 1))

    def test_sandwich_at_zero(self):
        ev = get_evaluator(CTX)
        sm, s0, sp = (ev.at_zero(m) for m in ("rosser_minus", "moebius", "rosser_plus"))
        assert sm <= s0 + 1e-9 <= sp + 2e-9

    def test_rational_matches_float(self):
        a = exp_sum(CTX, Fraction(3, 11), "rosser_plus")
        b = exp_sum(CTX, 3 / 11, "rosser_plus")
        assert a == pytest.approx(b, abs=1e-6 * (abs(a) + 1))

    def test_spm_bounds(self):
        rep = spm_comparison(CTX, [0.13, 0.29, Fraction(1, 3), 0.481])
        assert rep.ok
        assert rep.bound_plus > 0 and rep.bound_minus > 0


# the contexts of the sieve_sums benchmark: the contrast and major-arc
# queries, and the S+/S/S- comparisons
BENCH_CONTEXTS = [dict(n=10**6, W=6, b=5, k0=4), dict(n=2 * 10**5, W=6, b=5, k0=3)]


class TestCompleteSums:
    """Rationals a/q with q at most the number of terms go through the class
    sums mod q; the per-term phase sum is the oracle."""

    @pytest.fixture(scope="class", params=BENCH_CONTEXTS, ids=("contrast", "spm"))
    def ev(self, request):
        return ExpSumEvaluator(SieveContext(**request.param))

    @pytest.mark.parametrize("mode", ExpSumEvaluator.MODES)
    def test_against_direct(self, ev, mode):
        m = ev.xs.size
        alphas = [Fraction(0), Fraction(1), Fraction(5), Fraction(-3),  # q = 1, a = 0 mod q
                  Fraction(1, 2), Fraction(7, 37), Fraction(-3, 7), Fraction(-1, 40),
                  Fraction(-998, 997), Fraction(1, m), Fraction(-1, m),  # q = terms
                  Fraction(1, m + 1), Fraction(-2, m + 1)]  # the direct fallback
        scale = 1e-12 * ev.at_zero("moebius")
        for alpha in alphas:
            got = ev.exp_sum(alpha, mode)
            assert abs(got - exp_sum_direct(ev, alpha, mode)) <= scale, alpha

    def test_route_by_q(self, ev):
        m = ev.xs.size
        ev.exp_sum(Fraction(5), "moebius")  # q = 1: one class, the sum of the weights
        assert ev._q == 1 and ev._class_sums["moebius"].size == 1
        ev.exp_sum(Fraction(1, m), "moebius")  # q = the number of terms: class sums
        assert ev._q == m
        # one more, and far more, stay on the direct phase sum
        for alpha in (Fraction(1, m + 1), Fraction(1, 10**15)):
            got = ev.exp_sum(alpha, "moebius")
            assert abs(got - exp_sum_direct(ev, alpha, "moebius")) <= 1e-12 * ev.at_zero("moebius")
        # the cache still holds q = m, and nothing of length q was built
        assert ev._q == m and "moebius" in ev._class_sums
        assert all(c.size == m for c in ev._class_sums.values())

    def test_cache_holds_current_q_only(self):
        ev = ExpSumEvaluator(SieveContext(**BENCH_CONTEXTS[1]))
        for q in range(1, 60):
            for mode in ExpSumEvaluator.MODES:
                ev.exp_sum(Fraction(1, q), mode)
            assert ev._q == q
            assert sorted(ev._class_sums) == sorted(ExpSumEvaluator.MODES)
            assert all(c.size == q for c in ev._class_sums.values())
        ev.exp_sum(Fraction(1, 61), "moebius")
        assert list(ev._class_sums) == ["moebius"] and ev._class_sums["moebius"].size == 61
        # one grid on [0, m] per mode asked for, which the terms gather from
        assert sorted(ev._grids) == sorted(ExpSumEvaluator.MODES)
        for mode, grid in ev._grids.items():
            assert grid.shape == (ev.ctx.m + 1,) and np.count_nonzero(grid[ev.xs]) == np.count_nonzero(grid)
            assert np.array_equal(ev.inner_weights(mode), grid[ev.xs])

    @pytest.mark.parametrize("mode", ExpSumEvaluator.MODES)
    def test_fold_against_bincount(self, ev, mode):
        grid = ev._grid(mode)
        w = ev.inner_weights(mode)
        L = 4096  # the fold's row length at q = 1, 2, 4, ..., 4096
        for q in [*range(1, 201), 4095, 4096, 4097, ev.xs.size]:
            want = np.bincount(ev.xs % q, weights=w, minlength=q)
            assert np.max(np.abs(circle_method._fold(grid, q) - want)) <= 1e-12 * ev.at_zero(mode), q
        # m + 1 a multiple of the row length L = q floor(4096/q), and not
        for size in (3 * L, 3 * L + 1, 3 * L - 1, 7 * 4095):
            for q in (1, 2, 3, 5, 64, 4095, 4096):
                want = np.bincount(np.arange(size) % q, weights=grid[:size], minlength=q)
                got = circle_method._fold(grid[:size], q)
                assert np.max(np.abs(got - want)) <= 1e-12 * ev.at_zero(mode), (size, q)


class TestInnerWeights:
    """Every mode against sum of lambda(d) over the divisors d of rad(p + 2)
    made of sieving primes, for each selected prime p.  The sizes are past an
    exponential subset table (25 primes) and a 63-bit prime mask (65 primes).
    Every context has sieving primes p >= D, where lambda^-(p) = -1 though p
    is not in the stored support."""

    @staticmethod
    def oracle(ev):
        """weight -> sum of weight(d) over the divisors d of rad(p + 2) made
        of sieving primes, times log p, for each selected prime p."""
        small = np.array(ev.small_primes)
        primes = ev.ctx.W * ev.xs + ev.ctx.b
        divides = (primes[:, None] + 2) % small == 0
        _, first, inverse = np.unique(np.packbits(divides, axis=1), axis=0,
                                      return_index=True, return_inverse=True)
        divisor_lists = []
        for row in divides[first]:
            divs = [1]
            for p in small[row]:
                divs += [d * int(p) for d in divs]
            divisor_lists.append(divs)

        def weights(weight) -> np.ndarray:
            weight = functools.cache(weight)
            sums = np.array([sum(weight(d) for d in divs) for divs in divisor_lists])
            return sums[inverse.ravel()] * np.log(primes.astype(np.float64))

        return weights

    @pytest.mark.parametrize("n, W, b, k0, nprimes", [
        (10**5, 2, 1, 2, 65),
        (10**6, 2, 1, 3, 25),
        (2 * 10**5, 6, 5, 3, 16),
    ])
    def test_against_divisor_oracle(self, n, W, b, k0, nprimes):
        ctx = SieveContext(n=n, W=W, b=b, k0=k0)
        ev = get_evaluator(ctx)
        assert len(ev.small_primes) == nprimes
        oracle = self.oracle(ev)
        assert np.array_equal(ev.inner_weights("moebius"), oracle(lambda d: mult_functions(d).mu))
        for mode, sign in (("rosser_plus", "+"), ("rosser_minus", "-")):
            rw = build_rosser(ctx.D, sign, primes=np.array(ev.small_primes))
            assert np.array_equal(ev.inner_weights(mode), oracle(lambda d: rosser_weight(rw, d))), mode


class TestTauStar:
    def _oracle(self, a: int, q: int, ctx: SieveContext) -> complex:
        total = 0j
        for d in range(1, q + 1):
            if q % d:
                continue
            e = q // d
            r = None
            for cand in range(1, q + 1):
                if (ctx.W * cand + ctx.b) % d == 0 and (ctx.W * cand + ctx.b + 2) % e == 0:
                    r = cand
                    break
            total += cmath.exp(2j * cmath.pi * a * r / q)
        return total

    def test_against_oracle(self):
        ctx = SieveContext(n=1000, W=6, b=5)
        for q in (1, 5, 7, 35, 143):
            for a in range(1, q + 1):
                if gcd(a, q) == 1:
                    got = tau_star(a, q, ctx)
                    assert got == pytest.approx(self._oracle(a, q, ctx), abs=1e-9)

    def test_magnitude_bound(self):
        ctx = SieveContext(n=1000, W=6, b=5)
        for q in (5, 7, 35, 77, 385):
            ndiv = mult_functions(q).tau
            assert abs(tau_star(1, q, ctx)) <= ndiv + 1e-9

    def test_zero_when_W_shares_factor(self):
        ctx = SieveContext(n=1000, W=6, b=5)
        assert tau_star(1, 2, ctx) == 0j
        assert tau_star(1, 15, ctx) == 0j

    def test_domain_errors(self):
        ctx = SieveContext(n=1000, W=6, b=5)
        with pytest.raises(DomainError):
            tau_star(2, 4, ctx)  # gcd != 1
        with pytest.raises(DomainError):
            tau_star(1, 25, ctx)  # not squarefree


class TestMajorArc:
    def test_model_zero_when_W_not_coprime(self):
        ctx = SieveContext(n=3000, W=6, b=5)
        cmp = major_arc_model(ctx, 1, 3, 1 / 3)
        assert cmp.model == 0j

    def test_model_zero_when_q_not_squarefree(self):
        ctx = SieveContext(n=3000, W=2, b=1)
        for q in (9, 25):
            for a in (1, 2, q - 1):
                cmp = major_arc_model(ctx, a, q, a / q)
                assert cmp.model == 0j
                assert cmp.actual == exp_sum(ctx, Fraction(a, q), "moebius")

    def test_geometric_sum(self):
        for theta, m in ((0.0, 7), (0.3, 5), (0.123, 11)):
            want = sum(cmath.exp(2j * cmath.pi * theta * y) for y in range(1, m + 1))
            assert geometric_phase_sum(theta, m) == pytest.approx(want, abs=1e-10)

    def test_model_tracks_actual_at_q1(self):
        ctx = SieveContext(n=100_000, W=6, b=5)
        cmp = major_arc_model(ctx, 1, 1, 0.0)
        assert cmp.rel_err < 0.25


class TestContrast:
    """The contrast draws every minor (a, q) first and then evaluates by q."""

    CTX = SieveContext(**BENCH_CONTEXTS[0])
    DISSECTION = ArcDissection(10**6, 2)  # Q ~ 190.9: 93 primes in [Q, 4Q]

    def draws(self, samples, seed):
        """The minor-arc (a, q) in the contrast's draw order."""
        rng = np.random.default_rng(seed)
        qs = primes_up_to(int(4 * self.DISSECTION.Q))
        qs = qs[qs >= self.DISSECTION.Q]
        out = []
        for _ in range(samples):
            q = int(qs[rng.integers(qs.size)])
            a = int(rng.integers(1, q))
            while gcd(a, q) != 1:
                a = int(rng.integers(1, q))
            out.append((a, q))
        return out

    def test_ratios_equal_one_by_one(self):
        rep = minor_major_contrast(self.CTX, self.DISSECTION, samples=300, rng=np.random.default_rng(4))
        ev = ExpSumEvaluator(self.CTX)
        s0 = ev.at_zero("moebius")
        minor = [abs(ev.exp_sum(Fraction(a, q), "moebius")) / s0 for a, q in self.draws(300, 4)]
        major = [abs(ev.exp_sum(Fraction(a, q), "moebius")) / s0
                 for q in range(1, 11) for a in range(1, q + 1) if gcd(a, q) == 1]
        assert rep.minor_ratios == tuple(minor) and rep.major_ratios == tuple(major)

    def test_one_fold_per_q(self, monkeypatch):
        folded = collections.Counter()

        def spy(grid, q):
            folded[q] += 1
            return fold(grid, q)

        fold = circle_method._fold
        monkeypatch.setattr(circle_method, "_fold", spy)
        get_evaluator.cache_clear()
        minor_major_contrast(self.CTX, self.DISSECTION, samples=300, rng=np.random.default_rng(4))
        get_evaluator.cache_clear()
        want = {q for _, q in self.draws(300, 4)} | set(range(1, 11))
        assert set(folded) == want and set(folded.values()) == {1}
        assert len(want) < 300 / 2  # far fewer folds than samples


class TestArcs:
    def test_classify_centers(self):
        dis = ArcDissection(10**4, 2.0)
        assert dis.classify(0.5) == ("major", 1, 2)
        assert dis.classify(1 / 3) == ("major", 1, 3)
        kind, a, q = dis.classify(0.0)
        assert (kind, a, q) == ("major", 1, 1)

    def test_minor_point(self):
        dis = ArcDissection(10**6, 1.0)  # Q ~ 13.8, radius ~ 1.4e-5
        kind, _, _ = dis.classify(math.sqrt(2) - 1)
        assert kind == "minor"

    def test_rationals_farey_count(self):
        dis = ArcDissection(10**4, 1.0)  # Q ~ 9.2
        Q = int(dis.Q)
        expect = sum(mult_functions(q).phi for q in range(1, Q + 1))
        assert len(dis.rationals) == expect

    def test_rationals_are_lazy_and_capped(self, monkeypatch):
        dis = ArcDissection(10**6, 4.0)  # Q ~ 36,400: about 4 * 10^8 fractions
        assert int(dis.Q) == 36430 and "rationals" not in vars(dis)
        assert dis.classify(0.5) == ("major", 1, 2)
        with pytest.raises(ResourceBudgetError):
            dis.rationals
        # at Q = 9 the cap is on the Q (Q + 1)/2 = 45 pairs a <= q
        monkeypatch.setattr(circle_method, "DEFAULT_SUPPORT_CAP", 45)
        assert len(ArcDissection(10**4, 1.0).rationals) == 28
        monkeypatch.setattr(circle_method, "DEFAULT_SUPPORT_CAP", 44)
        with pytest.raises(ResourceBudgetError):
            ArcDissection(10**4, 1.0).rationals


def bv_delta_direct(x: int, q: int) -> float:
    ps = [int(p) for p in primes_up_to(x)]
    phi = mult_functions(q).phi
    best = 0.0
    for r in range(1, q + 1):
        if gcd(r, q) != 1:
            continue
        theta = sum(math.log(p) for p in ps if p % q == r % q)
        best = max(best, abs(theta - x / phi))
    return best


class TestBVDelta:
    def test_oracle_small(self):
        assert bv_delta(1000, 7) == pytest.approx(bv_delta_direct(1000, 7), abs=1e-9)

    @pytest.mark.parametrize("x, q", [(2, 1), (3, 3), (10, 2), (1000, 30), (10**4, 1000)])
    def test_oracle_composite_and_edge_q(self, x, q):
        # r = 0 is a reduced residue only at q = 1; at composite q the
        # residues sharing a factor with q are left out
        assert bv_delta(x, q) == pytest.approx(bv_delta_direct(x, q), abs=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            bv_delta(1, 3)
