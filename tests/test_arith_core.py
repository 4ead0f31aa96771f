import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chen3 import arith_core
from chen3.arith_core import (
    DEFAULT_TABLE_BUDGET,
    build_factor_table,
    chen_primes,
    classify_chen,
    factorize,
    is_pk,
    is_prime_u64,
    mult_functions,
    primes_up_to,
    primorial,
    singular_series_S1,
)
from chen3.errors import DomainError, ResourceBudgetError


def omega_oracle(x: int) -> int:
    """Independent trial-division Omega."""
    count, n, p = 0, x, 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            count += 1
        p += 1
    return count + (1 if n > 1 else 0)


def spf_oracle(x: int) -> int:
    if x == 1:
        return 1
    p = 2
    while p * p <= x:
        if x % p == 0:
            return p
        p += 1
    return x


class TestFactorTable:
    def test_against_trial_division(self, table_1e5):
        for x in list(range(1, 500)) + [9991, 30030, 65536, 99991, 100002]:
            assert table_1e5.omega(x) == omega_oracle(x), x
            assert table_1e5.spf(x) == spf_oracle(x), x

    def test_against_trial_division_at_block_seams(self):
        # Omega is filled one block [2^k, 2^(k+1)) at a time
        seams = {2**k + e for k in range(1, 18) for e in (-1, 0, 1)}
        t = build_factor_table(2**17 + 1)
        for x in sorted(set(range(1, 5001)) | seams):
            assert t.omega(x) == omega_oracle(x), x
            assert t.spf(x) == spf_oracle(x), x

    def test_prime_and_omega_identities(self):
        hi = 2**20 + 3
        t = build_factor_table(hi)
        xs = np.arange(2, hi + 1)
        ps = primes_up_to(hi)
        assert np.array_equal(xs[t.smallest_prime_factor[2:] == xs], ps)
        assert np.array_equal(t.primes(hi), ps)
        # sum_{x <= hi} Omega(x) = Omega(hi!) = sum_{p^k <= hi} floor(hi / p^k)
        legendre = 0
        for p in map(int, ps):
            pk = p
            while pk <= hi:
                legendre += hi // pk
                pk *= p
        assert int(np.sum(t.omega_big[1:], dtype=np.int64)) == legendre

    def test_dtypes(self, table_1e5):
        assert table_1e5.smallest_prime_factor.dtype == np.int32
        assert table_1e5.omega_big.dtype == np.uint8

    def test_out_of_range(self, table_1e5):
        with pytest.raises(DomainError):
            table_1e5.omega(0)
        with pytest.raises(DomainError):
            table_1e5.spf(100003)

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(arith_core, "np", None)  # any numpy call would fail
        with pytest.raises(ResourceBudgetError):
            build_factor_table(DEFAULT_TABLE_BUDGET + 1)

    @given(st.integers(min_value=2, max_value=100_000))
    @settings(max_examples=200, deadline=None)
    def test_spf_divides_and_is_prime(self, table_1e5, x):
        p = table_1e5.spf(x)
        assert x % p == 0 and is_prime_u64(p)


class TestPrimes:
    def test_small(self):
        assert list(primes_up_to(20)) == [2, 3, 5, 7, 11, 13, 17, 19]
        assert primes_up_to(1).size == 0

    def test_count_1e5(self):
        assert primes_up_to(100_000).size == 9592

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=300, deadline=None)
    def test_miller_rabin_matches_sieve(self, n):
        assert is_prime_u64(n) == (spf_oracle(n) == n if n >= 2 else False)

    def test_miller_rabin_large(self):
        assert is_prime_u64(2**61 - 1)
        assert not is_prime_u64(2**61 + 1)

    def test_primorial(self):
        assert primorial(2) == 1
        assert primorial(3) == 2
        assert primorial(7.1) == 210
        assert primorial(11) == 210


class TestChen:
    def test_census_50(self, table_1e5):
        got = list(chen_primes(50, table=table_1e5))
        assert got == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 47]

    def test_seven_is_chen(self, table_1e5):
        # 7 + 2 = 9 = 3^2 has Omega = 2
        assert classify_chen(7, table_1e5).is_chen

    def test_strict_variant(self, table_1e5):
        basic = set(chen_primes(200, table=table_1e5).tolist())
        strict = set(chen_primes(200, variant="strict", z=10, table=table_1e5).tolist())
        assert strict <= basic
        assert 3 in basic and 3 not in strict  # 3 + 2 = 5 < 10... spf(5)=5 < 10
        assert 17 in strict  # 19 is prime >= 10

    def test_classify_rejects_composite(self, table_1e5):
        with pytest.raises(DomainError):
            classify_chen(15, table_1e5)

    def test_is_pk(self, table_1e5):
        assert is_pk(1, 0, table_1e5)
        assert is_pk(49, 2, table_1e5)
        assert not is_pk(30, 2, table_1e5)


class TestMultFunctions:
    def test_point_values(self):
        m = mult_functions(15)
        assert (m.mu, m.tau, m.phi, m.phi2) == (1, 4, 8, Fraction(3))
        assert mult_functions(2).phi2 == 2
        assert mult_functions(12).mu == 0
        assert mult_functions(1).tau == 1

    def test_tau_k(self):
        assert mult_functions(12).tau_k(2) == 6  # = tau(12)
        assert mult_functions(8).tau_k(3) == 10

    @given(st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=200, deadline=None)
    def test_phi2_identity(self, q):
        m = mult_functions(q)
        expect = Fraction(q)
        for p, _ in m.factors:
            if p > 2:
                expect *= Fraction(p - 2, p)
        assert m.phi2 == expect

    @given(st.integers(min_value=1, max_value=50_000))
    @settings(max_examples=150, deadline=None)
    def test_factorize_reconstructs(self, x):
        assert math.prod(p**e for p, e in factorize(x)) == x


class TestSingularSeries:
    def test_hand_values(self):
        assert singular_series_S1(3) == pytest.approx(0.75)
        assert singular_series_S1(5) == pytest.approx(0.703125)

    def test_monotone_and_limit(self):
        vals = [singular_series_S1(b) for b in (10, 100, 10_000, 1_000_000)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.66016
