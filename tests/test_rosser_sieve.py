import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chen3.arith_core import (DEFAULT_SIEVE_BUDGET, EULER_GAMMA, build_factor_table, factorize,
                              mult_functions, primes_up_to)
from chen3 import rosser_sieve
from chen3.errors import DomainError, ResourceBudgetError
from oracles import (
    class_sums_direct,
    linear_sieve_grids_direct,
    residue_class_sums_direct,
    rosser_divisor_sum,
    rosser_support_direct,
    rosser_weight,
    squarefree_count,
)
from chen3.rosser_sieve import (
    LinearSieveFns,
    _class_sums,
    _form_roots,
    build_rosser,
    divisor_sum_table,
    linear_sieve_F_f,
    sandwich_check,
    sieve_main_term,
)


def chains_of(w) -> dict[int, tuple[int, ...]]:
    """d -> (p_1, ..., p_k), read from the parent links of every entry."""
    chains = {}
    for i, d in enumerate(w.d.tolist()):
        chain, j = [], i
        while j > 0:
            chain.append(int(w.prime[j]))
            j = int(w.parent[j])
        chains[d] = tuple(reversed(chain))
    return chains


PRIMES_BELOW_200 = [int(p) for p in primes_up_to(199)]


class TestSupport:
    def test_plus_D10(self):
        w = build_rosser(10, "+")
        assert w.support == {1: 1, 2: -1}

    def test_minus_D10(self):
        w = build_rosser(10, "-")
        assert w.support == {1: 1, 2: -1, 3: -1, 5: -1, 7: -1}

    def test_plus_D100_sample(self):
        w = build_rosser(100, "+")
        assert rosser_weight(w, 1) == 1 and rosser_weight(w, 6) == 1
        # chain (7, 2): odd position 1 needs 7^3 < 100 -- fails
        assert rosser_weight(w, 7) == 0 and rosser_weight(w, 14) == 0
        # chain (3,): 3^3 = 27 < 100
        assert rosser_weight(w, 3) == -1
        assert all(d < 100 for d in w.support)

    def test_support_is_squarefree_descending(self):
        for sign in "+-":
            w = build_rosser(500, sign)
            for d, chain in chains_of(w).items():
                assert list(chain) == sorted(chain, reverse=True)
                assert len(set(chain)) == len(chain)
                assert math.prod(chain) == d
                assert w.support[d] == (-1) ** len(chain)

    def test_support_budget(self, monkeypatch):
        # the '-' support at D = 10 has 5 entries, 1, 2, 3, 5, 7; the '+' has 2
        monkeypatch.setattr(rosser_sieve, "DEFAULT_SUPPORT_CAP", 4)
        assert len(build_rosser(10, "+").support) == 2
        with pytest.raises(ResourceBudgetError):
            build_rosser(10, "-")

    def test_D_above_the_sieve_budget(self):
        # the default primes below D would be a sieve of 10^10 entries
        with pytest.raises(ResourceBudgetError):
            build_rosser(1e10, "+")

    def test_bad_args(self):
        with pytest.raises(DomainError):
            build_rosser(1, "+")
        with pytest.raises(DomainError):
            build_rosser(10, "x")
        with pytest.raises(DomainError):  # d p^3 would not fit in int64
            build_rosser(2.0 ** 63, "+", primes=np.array([2, 3]))

    def test_unsorted_primes_with_duplicates(self):
        # np.unique runs only on a prime array that is not strictly increasing
        ps = primes_up_to(300)
        mixed = np.concatenate([ps[::-1], ps[:7], ps[10:20]])
        for sign in "+-":
            want, got = build_rosser(5000, sign, primes=ps), build_rosser(5000, sign, primes=mixed)
            for field in ("d", "value", "parent", "prime"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), (sign, field)

    def test_level_order(self):
        w = build_rosser(10**4, "-")
        chains = chains_of(w)
        length = np.array([len(chains[d]) for d in w.d.tolist()])
        assert np.all(np.diff(length) >= 0) and np.all(np.diff(w.parent) >= 0)
        assert np.all(w.parent[1:] < np.arange(1, w.d.size))
        assert np.array_equal(w.d[1:], w.d[w.parent[1:]] * w.prime[1:])
        assert np.array_equal(w.value, (-1) ** length)


class TestAgainstDepthFirst:
    """The level-by-level builder against the depth-first search it replaced."""

    @staticmethod
    def check(D, sign, primes=None):
        support, chains = rosser_support_direct(D, sign, primes)
        w = build_rosser(D, sign, primes=None if primes is None else np.array(primes, dtype=np.int64))
        assert w.support == support, (D, sign)
        assert chains_of(w) == chains, (D, sign)
        return w

    @pytest.mark.parametrize("D", [10, 100, 500, 10**4, 10**5, 10**6])
    def test_full_prime_range(self, D):
        for sign in "+-":
            self.check(D, sign)

    @given(st.integers(min_value=2, max_value=20_000), st.sampled_from("+-"))
    @settings(max_examples=60, deadline=None)
    def test_integer_D(self, D, sign):
        self.check(D, sign)

    @given(st.floats(min_value=1.01, max_value=20_000.0), st.sampled_from("+-"))
    @settings(max_examples=60, deadline=None)
    def test_float_D(self, D, sign):
        self.check(D, sign)

    @given(st.lists(st.sampled_from(PRIMES_BELOW_200), min_size=1, max_size=3, unique=True),
           st.booleans(), st.sampled_from("+-"))
    @settings(max_examples=80, deadline=None)
    def test_D_on_a_boundary(self, chain, cube, sign):
        # D = d p or d p^3 for a descending chain d p: the strict < bites
        chain = sorted(chain, reverse=True)
        D = math.prod(chain[:-1]) * chain[-1] ** (3 if cube else 1)
        if D > 2 and D <= 50_000:
            w = self.check(D, sign)
            assert all(d < D for d in w.d.tolist())
            self.check(D + 0.5, sign)
            self.check(D - 0.5, sign)

    @given(st.lists(st.sampled_from(PRIMES_BELOW_200), min_size=1, max_size=12, unique=True),
           st.integers(min_value=2, max_value=50_000), st.sampled_from("+-"))
    @settings(max_examples=80, deadline=None)
    def test_prime_subsets(self, primes, D, sign):
        # any subset, in any order, with primes >= D that the builder drops
        self.check(D, sign, primes)

    @pytest.mark.parametrize("n, k0", [(2 * 10**5, 3), (10**6, 4), (10**5, 2)])
    def test_evaluator_primes(self, n, k0):
        # the sieving primes below z0 = n^{1/k0} at D = n^{0.32}, as passed by
        # ExpSumEvaluator and the sieve_sums benchmark
        z0, D = n ** (1.0 / k0), n ** 0.32
        small = [int(p) for p in primes_up_to(math.ceil(z0)) if p < z0]
        for sign in "+-":
            self.check(D, sign, small)


class TestClassSums:
    @pytest.mark.parametrize("W", [1, 2, 6, 30])
    def test_matches_strided_oracle(self, W):
        rng = np.random.default_rng(W)
        for size in (1, 97, 5000):
            for c in (0, 1, 7, 11, 13, W + 1, 5 * W + 7, 31 * W - 1):
                if math.gcd(c, W) != 1:
                    continue
                # d from 1 to past size, with repeats and with gcd(d, W) > 1
                d = rng.integers(1, 3 * size + 3, size=400)
                v = rng.integers(-3, 4, size=400)
                assert np.array_equal(_class_sums(*_form_roots(d, v, W, c), size),
                                      class_sums_direct(d, v, size, W, c)), (size, W, c)

    @given(st.lists(st.integers(min_value=1, max_value=3000), max_size=60),
           st.integers(min_value=1, max_value=2000), st.sampled_from([1, 2, 6, 30]),
           st.integers(min_value=0, max_value=200))
    @settings(max_examples=150, deadline=None)
    def test_property(self, d, size, W, c):
        assume(math.gcd(c, W) == 1)
        v = [(-1) ** i * (i % 3 + 1) for i in range(len(d))]
        d = np.array(d, dtype=np.int64)
        assert np.array_equal(_class_sums(*_form_roots(d, np.array(v, dtype=np.int64), W, c), size),
                              class_sums_direct(d, v, size, W, c))

    @pytest.mark.parametrize("size", [1, 50, 997])
    def test_float_values_on_explicit_residues(self, size):
        # each d three times with its own residues, from d = 1 to past size;
        # the values are multiples of 1/8, so every sum is exact in float64
        rng = np.random.default_rng(size)
        root = math.isqrt(size)
        d = np.repeat(np.concatenate((rng.integers(1, root + 1, size=20),
                                      rng.integers(root + 1, 2 * size + 3, size=20))), 3)
        r = rng.integers(0, d)
        v = rng.integers(-20, 21, size=d.size) / 8
        T = _class_sums(d, r, v, size)
        assert T.dtype == np.float64
        assert np.array_equal(T, residue_class_sums_direct(d, r, v, size))

    def test_two_classes_meet_in_one_batch(self):
        # 6 x + 1 = 55 at x = 9 is divisible by both 11 and 55, both above
        # sqrt(100), and x = 9 is the first member of each class
        T = _class_sums(*_form_roots(np.array([11, 55]), np.array([1, 1]), 6, 1), 100)
        assert T[9] == 2
        assert np.array_equal(T, class_sums_direct([11, 55], [1, 1], 100, 6, 1))


class TestSifted:
    @pytest.mark.parametrize("W, c", [(2, 3), (6, 7), (6, 3), (30, 9)])
    @pytest.mark.parametrize("z", [1.5, 2, 30, 300])
    def test_matches_trial_division(self, W, c, z):
        # FactorTable.sifted on the progressions W x + c, x < 2000, that the
        # sieve weights sift (p + 2 = W x + b + 2); (6, 3) and (30, 9) share
        # the prime 3 with W, which divides every W x + c
        size = 2000
        small = [p for p in range(2, math.ceil(z)) if factorize(p) == [(p, 1)]]
        want = [all((W * x + c) % p for p in small) for x in range(size)]
        xs = W * np.arange(size) + c
        assert build_factor_table(int(xs[-1])).sifted(xs, z).tolist() == want


class TestSandwich:
    def test_example_q15(self):
        wp, wm = build_rosser(10, "+"), build_rosser(10, "-")
        assert divisor_sum_table(wm, 15)[15] == -1
        assert divisor_sum_table(wp, 15)[15] == 1
        checked, bad = sandwich_check(wp, wm, 15)
        assert checked == 11 and bad.size == 0  # 1 2 3 5 6 7 10 11 13 14 15

    def test_q1(self):
        wp, wm = build_rosser(10, "+"), build_rosser(10, "-")
        assert divisor_sum_table(wm, 1)[1] == divisor_sum_table(wp, 1)[1] == 1
        checked, bad = sandwich_check(wp, wm, 1)
        assert checked == 1 and bad.size == 0

    def test_rejects_limit_below_one(self):
        wp, wm = build_rosser(10, "+"), build_rosser(10, "-")
        with pytest.raises(DomainError):
            sandwich_check(wp, wm, 0)

    @given(st.integers(min_value=1, max_value=5000))
    @settings(max_examples=200, deadline=None)
    def test_sandwich_property_D100(self, limit):
        wp, wm = build_rosser(100, "+"), build_rosser(100, "-")
        checked, bad = sandwich_check(wp, wm, limit)
        assert checked == squarefree_count(limit) and bad.size == 0

    def test_limit_above_the_sieve_budget(self):
        # raised by primes_up_to before any array of length limit + 1 exists
        wp, wm = build_rosser(10, "+"), build_rosser(10, "-")
        with pytest.raises(ResourceBudgetError):
            sandwich_check(wp, wm, DEFAULT_SIEVE_BUDGET + 1)

    def test_reports_failures(self):
        # lambda^- in the upper slot fails exactly where sum lambda^- < sum mu
        wm = build_rosser(50, "-")
        checked, bad = sandwich_check(wm, wm, 2000)
        want = [q for q in range(1, 2001)
                if mult_functions(q).mu != 0 and rosser_divisor_sum(wm, q) < (q == 1)]
        assert checked == squarefree_count(2000)
        assert want and bad.tolist() == want

    def test_divisor_sum_table_matches_pointwise(self):
        squarefree = [(q, factorize(q)) for q in range(1, 2001)]
        squarefree = [(q, fac) for q, fac in squarefree if all(e == 1 for _, e in fac)]
        for D in (10, 50, 500):
            # q with a prime factor >= D, where lambda^-(p) is not stored
            assert any(fac[-1][0] >= D for q, fac in squarefree[1:])
            for sign in "+-":
                w = build_rosser(D, sign)
                T = divisor_sum_table(w, 2000)
                for q, _ in squarefree:
                    assert T[q] == rosser_divisor_sum(w, q), (D, sign, q)


class TestMainTerm:
    def test_unit_omega_example(self):
        w = build_rosser(10, "+")
        rep = sieve_main_term(w, lambda p: 1.0, z=10)
        assert rep.value == pytest.approx(0.5)

    def test_phi_weight_example(self):
        w = build_rosser(10, "-")
        # omega(p) = p / (p - 1) so lambda(d) omega(d)/d = lambda(d)/phi(d)
        rep = sieve_main_term(w, lambda p: p / (p - 1), z=10)
        expect = sum(
            val / mult_functions(d).phi for d, val in w.support.items()
        )
        assert rep.value == pytest.approx(expect)
        assert rep.value == pytest.approx(1 - 1 - 1 / 2 - 1 / 4 - 1 / 6)

    def test_rejects_bad_omega(self):
        w = build_rosser(10, "+")
        with pytest.raises(DomainError):
            sieve_main_term(w, lambda p: p + 1.0, z=10)
        with pytest.raises(DomainError):
            sieve_main_term(w, lambda p: -1.0, z=10)

    @pytest.mark.parametrize("D, z", [(10**6, 100), (10**4, 97.5), (1000, 100), (10**4, 10)])
    def test_matches_depth_first_terms(self, D, z):
        # the same product per chain, so the correctly rounded sums agree exactly
        def omega(p):
            return 2.0 if p > 2 else 1.0

        for sign in "+-":
            support, chains = rosser_support_direct(D, sign)
            terms = []
            for d, val in support.items():
                if all(p < z for p in chains[d]):
                    term = val
                    for p in chains[d]:
                        term *= omega(p) / p
                    terms.append(term)
            assert sieve_main_term(build_rosser(D, sign), omega, z).value == math.fsum(terms)

    def test_reports_s_and_limits(self):
        w = build_rosser(1000, "+")
        rep = sieve_main_term(w, lambda p: 1.0, z=10)
        assert rep.s == pytest.approx(3.0)
        assert rep.F_s == pytest.approx(2 * math.exp(EULER_GAMMA) / 3)


class TestLinearSieve:
    def test_closed_forms(self):
        two_eg = 2 * math.exp(EULER_GAMMA)
        F2, f2 = linear_sieve_F_f(2.0)
        assert F2 == pytest.approx(math.exp(EULER_GAMMA))
        assert f2 == 0.0
        F3, f3 = linear_sieve_F_f(3.0)
        assert F3 == pytest.approx(two_eg / 3)
        assert f3 == pytest.approx(two_eg * math.log(2) / 3)
        _, f4 = linear_sieve_F_f(4.0)
        assert f4 == pytest.approx(two_eg * math.log(3) / 4)

    def test_limits_and_ordering(self):
        # the true F - f gap decays below integrator resolution past s ~ 10,
        # so ordering is asserted to 1e-6
        for s in (2.5, 3.5, 5.0, 8.0, 12.0, 20.0):
            F, f = linear_sieve_F_f(s)
            assert F > f - 1e-6
            assert F >= 1.0 - 1e-6 and f <= 1.0 + 1e-6
        F, f = linear_sieve_F_f(20.0)
        assert abs(F - 1) < 1e-6 and abs(f - 1) < 1e-6

    def test_monotonicity(self):
        ss = np.linspace(1.5, 12.0, 80)
        Fs = [linear_sieve_F_f(float(s))[0] for s in ss]
        fs = [linear_sieve_F_f(float(s))[1] for s in ss]
        assert all(a >= b - 1e-6 for a, b in zip(Fs, Fs[1:]))
        assert all(a <= b + 1e-6 for a, b in zip(fs, fs[1:]))

    def test_grid_refinement_agrees(self):
        coarse = LinearSieveFns(steps_per_unit=256)
        fine = LinearSieveFns(steps_per_unit=2048)
        for s in (4.5, 6.0, 9.3):
            Fc, fc = coarse(s)
            Ff, ff = fine(s)
            assert Fc == pytest.approx(Ff, abs=1e-6)
            assert fc == pytest.approx(ff, abs=1e-6)

    @pytest.mark.parametrize("steps", [256, 1024, 2048])
    def test_grids_match_stepwise_integration(self, steps):
        fns = LinearSieveFns(steps_per_unit=steps)
        s, F, f = linear_sieve_grids_direct(steps)
        assert np.array_equal(fns.s_grid, s)
        np.testing.assert_allclose(fns.F_grid, F, rtol=1e-13, atol=0)
        np.testing.assert_allclose(fns.f_grid, f, rtol=1e-13, atol=0)

    def test_choose_k0_matches_stepwise_integration(self, monkeypatch):
        from chen3 import transference

        kappas = np.linspace(0.05, 1.5, 600).tolist()
        got = [transference.choose_k0(k) for k in kappas]
        direct = LinearSieveFns()
        _, direct.F_grid, direct.f_grid = linear_sieve_grids_direct(1024)
        monkeypatch.setattr(transference, "linear_sieve_F_f", direct)
        assert got == [transference.choose_k0(k) for k in kappas]

    def test_domain(self):
        with pytest.raises(DomainError):
            linear_sieve_F_f(0.5)
