import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from chen3 import arith_core, selberg_sieve
from chen3.arith_core import primes_up_to
from chen3.errors import DomainError, ResourceBudgetError
from chen3.rosser_sieve import _squarefree_levels
from chen3.selberg_sieve import (
    additive_energy,
    build_selberg,
    omega_stage1,
    omega_stage2,
    pair_count_bound,
    quadratic_form,
)
from chen3.transference import ZnWeight
from oracles import (
    energy_direct,
    pair_count_direct,
    quadratic_form_direct,
    remainder_pair_sum_direct,
    selberg_remainder_direct,
)

PAIR_CASES = [  # (n, W, b, M, z0, z1) and the exact count where it is pinned
    ((10**6, 2, 1, 5, 30, 60), 0),  # the sieve_sums benchmark's arguments
    ((10**6, 2, 1, 3, 30, 60), 658),
    ((3000, 2, 1, 3, 3.5, 8), None),
    ((5000, 6, 5, 2, 4, 10), None),
    ((2 * 10**5, 6, 1, 2, 10, 40), None),  # 3 divides every p + 2
    ((10**5, 30, 7, 1, 20, 40), None),
    ((20000, 2, 1, 3, 300, 1000), 15),  # stage-1 d above sqrt(xmax) go through np.add.at
]


def squarefree_products(primes, D) -> dict[int, tuple[int, ...]]:
    """d -> ascending chain, for every product d < D of distinct primes, by
    itertools.combinations one size at a time."""
    out = {1: ()}
    for k in itertools.count(1):
        found = {math.prod(c): c for c in itertools.combinations(sorted(primes), k)
                 if math.prod(c) < D}
        if not found:
            return out
        out.update(found)


class TestSquarefreeLevels:
    @pytest.mark.parametrize("kwargs, size", [
        (dict(stage=1, M=5, W=2, n=10**6, k0=8, z0=300), 91),  # the sieve_sums benchmark's system
        (dict(stage=2, M=5, W=2, n=10**6, k0=8, z0=30, z1=60), 8),
        (dict(stage=2, M=5, W=2, n=10**6, k0=8, z0=60, z1=30), 1),  # an empty window
        (dict(stage=1, M=5, W=2, n=10**6, k0=8, z0=0.5), 1),  # a level below 1
    ])
    def test_support_and_chains(self, kwargs, size):
        s = build_selberg(**kwargs)
        hi = kwargs["z0"] if kwargs["stage"] == 1 else kwargs["z1"]
        want = squarefree_products(s.omega, hi)
        assert len(want) == size
        d, value, parent, prime = _squarefree_levels(sorted(s.omega), hi, None, size)
        chains = {}
        for i in range(d.size):
            chain, j = [], i
            while j > 0:
                chain.append(int(prime[j]))
                j = int(parent[j])
            chains[int(d[i])] = tuple(sorted(chain))
        assert d.size == len(chains) and chains == want
        assert value.tolist() == [(-1) ** len(want[x]) for x in d.tolist()]
        assert s.chains == want and set(s.lam) == set(want)
        if size > 1:
            with pytest.raises(ResourceBudgetError):
                _squarefree_levels(sorted(s.omega), hi, None, size - 1)

    def test_deep_chains(self):
        primes = primes_up_to(100)
        d, _, parent, prime = _squarefree_levels(primes, 10**4, None, 10**5)
        want = squarefree_products(primes.tolist(), 10**4)
        assert sorted(d.tolist()) == sorted(want) and max(len(c) for c in want.values()) == 5
        assert np.array_equal(d[1:], d[parent[1:]] * prime[1:])


class TestOmega:
    def test_stage1_cases(self):
        # W = 6, M = 5: WM = 30, WM - 2 = 28, WM + 2 = 32
        assert omega_stage1(2, 6, 5) == 0
        assert omega_stage1(3, 6, 5) == 0
        assert omega_stage1(7, 6, 5) == 3  # 7 | 28
        assert omega_stage1(5, 6, 5) == 2  # 5 | M
        assert omega_stage1(11, 6, 5) == 4

    def test_stage2_cases(self):
        assert omega_stage2(3, 6, 5) == 0
        assert omega_stage2(5, 6, 5) == 1
        assert omega_stage2(7, 6, 5) == 2


class TestWeights:
    def test_lambda_one_is_exactly_one(self):
        for stage, M in ((1, 5), (1, 7), (2, 5)):
            s = build_selberg(stage, M=M, W=6, n=10**6, k0=8)
            assert s.lam[1] == Fraction(1)

    def test_lambda_bounded_by_one(self):
        s = build_selberg(1, M=5, W=2, n=10**6, k0=8)
        assert len(s.lam) > 1
        for v in s.lam.values():
            assert abs(v) <= 1

    def test_support_below_z(self):
        s = build_selberg(2, M=5, W=2, n=10**6, k0=8, z0=10.0, z1=40.0)
        for d in s.lam:
            assert d < 40.0**2 or d == 1
            for p in s.chains[d]:
                assert 10.0 <= p < 40.0

    def test_quadratic_form_equals_inverse_G1(self):
        for stage, M, W in ((1, 5, 2), (1, 3, 6), (2, 5, 2)):
            s = build_selberg(stage, M=M, W=W, n=10**5, k0=8)
            assert quadratic_form(s) == 1 / s.G1

    @pytest.mark.parametrize("kwargs", [
        dict(stage=1, M=5, W=2, n=10**6, k0=8, z0=300),  # the sieve_sums benchmark's system
        *(dict(stage=stage, M=M, W=W, n=n, k0=8, z0=z0, z1=z1)
          for stage in (1, 2)
          for n, W, M, z0, z1 in ((10**6, 2, 5, 30, 60), (3000, 2, 3, 3.5, 8), (5000, 6, 2, 4, 10))),
    ])
    def test_quadratic_form_matches_double_loop(self, kwargs):
        s = build_selberg(**kwargs)
        assert quadratic_form(s) == quadratic_form_direct(s) == 1 / s.G1

    @pytest.mark.parametrize("kwargs, k", [
        (dict(stage=1, M=1, W=2, n=5**5, k0=5), 5),  # z0 = n^(1/5) is 5.000000000000001 in floats
        (dict(stage=1, M=1, W=2, n=5**10, k0=10), 10),
        (dict(stage=2, M=1, W=2, n=5**10, k0=5, z0=3), 10),  # z1 = n^0.1 likewise
    ])
    def test_level_at_a_perfect_power(self, kwargs, k):
        # the window holds exactly the primes p >= its lower end with p^k < n,
        # and G1 sums g(l) over the squarefree l with l^k < n built from its
        # sieving primes
        s = build_selberg(**kwargs)
        n, W, M, lo = kwargs["n"], kwargs["W"], kwargs["M"], kwargs.get("z0", 2)
        om = omega_stage1 if kwargs["stage"] == 1 else omega_stage2
        window = [p for p in primes_up_to(100).tolist() if p >= lo and p ** k < n and om(p, W, M)]
        assert sorted([*s.omega, *s.skipped_primes]) == window
        g = {p: Fraction(w, p - w) for p, w in s.omega.items()}
        assert s.G1 == sum(math.prod(g[p] for p in c) for r in range(len(g) + 1)
                           for c in itertools.combinations(g, r) if math.prod(c) ** k < n)

    def test_skipped_primes_recorded(self):
        # W = 2, M = 1: WM - 2 = 0, so every odd p "divides" it -> omega = 3 = p at p = 3
        s = build_selberg(1, M=1, W=2, n=10**6, k0=8)
        assert 3 in s.skipped_primes

    def test_support_budget(self, monkeypatch):
        # stage 1 at W = 6, M = 5, z0 = 12: the squarefree l < 12 built from
        # 5, 7, 11 are 1, 5, 7, 11
        monkeypatch.setattr(selberg_sieve, "DEFAULT_L_CAP", 4)
        assert len(build_selberg(1, M=5, W=6, n=10**4, k0=8, z0=12.0).lam) == 4
        with pytest.raises(ResourceBudgetError):
            build_selberg(1, M=5, W=6, n=10**4, k0=8, z0=36.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            build_selberg(3, M=1, W=2, n=100, k0=8)
        with pytest.raises(DomainError):
            build_selberg(1, M=0, W=2, n=100, k0=8)


class TestPairCount:
    @pytest.mark.parametrize("args", [(0, 2, 1, 1, 2, 3), (100, 0, 1, 1, 2, 3), (100, -2, 1, 1, 2, 3)])
    def test_rejects_n_below_b_and_W_below_1(self, args, monkeypatch):
        # library errors in place of numpy's "negative dimensions" (n < b) and
        # a ZeroDivisionError (W = 0), before the factor table is built
        def refuse(hi):
            raise AssertionError("the factor table was built")

        monkeypatch.setattr(selberg_sieve, "build_factor_table", refuse)
        with pytest.raises(DomainError, match="need W >= 1 and n >= b"):
            pair_count_bound(*args)

    def test_brute_force_comparison(self):
        rep = pair_count_bound(n=3000, W=2, b=1, M=3, z0=3.5, z1=8.0)
        assert rep.ok
        assert rep.exact_count_above_z1 <= rep.pointwise_qf + 1e-6
        assert rep.pointwise_qf <= rep.sieve_bound + 1e-6

    def test_second_window(self):
        rep = pair_count_bound(n=5000, W=6, b=5, M=2, z0=4.0, z1=10.0)
        assert rep.ok
        assert rep.exact_count >= rep.exact_count_above_z1

    @pytest.mark.parametrize("args, exact", PAIR_CASES)
    def test_matches_direct(self, args, exact, monkeypatch):
        want = pair_count_direct(*args)

        def refuse(*args, **kwargs):
            raise AssertionError("Omega or the Chen test was called")

        # the survivors need only "no prime factor of p + 2 below z0", the
        # table's sifted: neither Omega nor the Chen test
        monkeypatch.setattr(arith_core.FactorTable, "omega", refuse)
        monkeypatch.setattr(arith_core, "chen_primes", refuse)
        assert not hasattr(selberg_sieve, "chen_primes")
        rep = pair_count_bound(*args)
        assert rep == want
        if exact is not None:
            assert rep.exact_count == exact

    def test_one_table(self, monkeypatch):
        # one factor table to n + 2 for the survivors; primes_up_to only
        # lists build_selberg's sieving primes, below z0 and z1
        sizes, bounds = [], []

        def counted(hi):
            sizes.append(hi)
            return arith_core.build_factor_table(hi)

        def listed(bound):
            bounds.append(bound)
            return arith_core.primes_up_to(bound)

        args = (20000, 2, 1, 3, 30, 60)
        want = pair_count_direct(*args)
        monkeypatch.setattr(selberg_sieve, "build_factor_table", counted)
        monkeypatch.setattr(selberg_sieve, "primes_up_to", listed)
        assert pair_count_bound(*args) == want
        assert sizes == [20002] and bounds == [29, 59]

    def test_sieve_budget(self, monkeypatch):
        # the table reaches p + 2 <= n + 2, so n = budget - 2 is the last n
        # that runs; the budget is checked before the Selberg systems are built
        monkeypatch.setattr(arith_core, "DEFAULT_SIEVE_BUDGET", 3002)
        assert pair_count_bound(3000, 2, 1, 3, 3.5, 8).ok
        monkeypatch.setattr(selberg_sieve, "build_selberg", None)
        with pytest.raises(ResourceBudgetError):
            pair_count_bound(3001, 2, 1, 3, 3.5, 8)

    @pytest.mark.parametrize("args", [
        (10**6, 2, 1, 5, 30, 60),  # the sieve_sums benchmark's arguments
        (3000, 2, 1, 3, 3.5, 8),
        (5000, 6, 5, 2, 4, 10),
    ])
    def test_remainder_factors_into_pair_sums(self, args):
        rem = pair_count_bound(*args).remainder_tally
        direct = selberg_remainder_direct(*args)
        assert rem > 0
        assert abs(rem - direct) <= 1e-12 * direct

    @pytest.mark.parametrize("args", [*(args for args, _ in PAIR_CASES),
                                      (10**6, 2, 1, 3, 300, 1000)])
    def test_remainder_is_the_exact_pair_sum(self, args):
        n, W, b, M, z0, z1 = args
        for stage in (1, 2):
            s = build_selberg(stage, M, W, n, k0=8, z0=z0, z1=z1)
            assert selberg_sieve._remainder_sum(s) == remainder_pair_sum_direct(s)


class TestEnergy:
    @pytest.mark.parametrize("weights", [np.zeros(0), [], np.ones((3, 3)), np.float64(1.0)])
    def test_rejects_empty_and_non_1d(self, weights):
        with pytest.raises(DomainError, match="nonempty 1-d array"):
            additive_energy(weights)

    def test_point_mass(self):
        e = additive_energy(np.eye(1, 7, 3).ravel())
        assert e.energy_count == pytest.approx(1.0)
        assert e.moment4 == pytest.approx(7.0)
        assert e.rel_err < 1e-12

    def test_uniform(self):
        N = 32
        e = additive_energy(np.full(N, 1.0 / N))
        assert e.energy_count == pytest.approx(1.0 / N)
        assert e.moment4 == pytest.approx(1.0)

    def test_random_weights_identity(self):
        rng = np.random.default_rng(7)
        for N in (17, 64, 101):
            w = ZnWeight(N, rng.random(N))
            e = additive_energy(w)
            assert e.rel_err < 1e-9
            # direct four-fold oracle on the smallest case
            if N == 17:
                v = w.values
                direct = sum(
                    v[x1] * v[x2] * v[x3] * v[(x2 + x3 - x1) % N]
                    for x1 in range(N)
                    for x2 in range(N)
                    for x3 in range(N)
                )
                assert e.energy_count == pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize("N", [17, 101, 509])
    def test_matches_direct(self, N):
        w = ZnWeight(N, np.random.default_rng(N).random(N))
        want = energy_direct(w)
        assert abs(additive_energy(w).energy_count - want) <= 1e-12 * want
