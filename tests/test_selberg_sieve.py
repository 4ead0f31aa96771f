from fractions import Fraction

import numpy as np
import pytest

from chen3.errors import DomainError
from chen3.selberg_sieve import (
    additive_energy,
    build_selberg,
    omega_stage1,
    omega_stage2,
    pair_count_bound,
    quadratic_form,
)
from chen3.transference import ZnWeight
from oracles import selberg_remainder_direct


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

    def test_skipped_primes_recorded(self):
        # W = 2, M = 1: WM - 2 = 0, so every odd p "divides" it -> omega = 3 = p at p = 3
        s = build_selberg(1, M=1, W=2, n=10**6, k0=8)
        assert 3 in s.skipped_primes

    def test_domain(self):
        with pytest.raises(DomainError):
            build_selberg(3, M=1, W=2, n=100, k0=8)
        with pytest.raises(DomainError):
            build_selberg(1, M=0, W=2, n=100, k0=8)


class TestPairCount:
    def test_brute_force_comparison(self):
        rep = pair_count_bound(n=3000, W=2, b=1, M=3, z0=3.5, z1=8.0)
        assert rep.ok
        assert rep.exact_count_above_z1 <= rep.pointwise_qf + 1e-6
        assert rep.pointwise_qf <= rep.sieve_bound + 1e-6

    def test_second_window(self):
        rep = pair_count_bound(n=5000, W=6, b=5, M=2, z0=4.0, z1=10.0)
        assert rep.ok
        assert rep.exact_count >= rep.exact_count_above_z1

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


class TestEnergy:
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
