import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chen3
from chen3 import arith_core
from chen3.arith_core import (
    DEFAULT_SIEVE_BUDGET,
    DEFAULT_TABLE_BUDGET,
    _fft_convolutions,
    build_factor_table,
    chen_primes,
    factorize,
    is_prime_u64,
    mult_functions,
    primes_up_to,
    singular_series_S1,
)
from chen3.errors import DomainError, ResourceBudgetError
from oracles import is_chen_direct


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
            assert table_1e5.omega_big[x] == omega_oracle(x), x
            assert table_1e5.smallest_prime_factor[x] == spf_oracle(x), x

    def test_against_trial_division_at_block_seams(self):
        # Omega is filled one block [2^k, 2^(k+1)) at a time
        seams = {2**k + e for k in range(1, 18) for e in (-1, 0, 1)}
        t = build_factor_table(2**17 + 1)
        for x in sorted(set(range(1, 5001)) | seams):
            assert t.omega_big[x] == omega_oracle(x), x
            assert t.smallest_prime_factor[x] == spf_oracle(x), x

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

    def test_primes_read_omega(self, table_1e5):
        for bound in (-2, 0, 1, 2, 3, 4, 100_002):  # no primes below 0, not a slice from the end
            ps = table_1e5.primes(bound)
            assert ps.dtype == np.int64 and np.array_equal(ps, primes_up_to(bound)), bound
        assert np.array_equal(build_factor_table(100_003).primes(100_003), primes_up_to(100_003))

    def test_dtypes(self, table_1e5):
        assert table_1e5.smallest_prime_factor.dtype == np.int32
        assert table_1e5.omega_big.dtype == np.uint8

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(arith_core, "np", None)  # any numpy call would fail
        with pytest.raises(ResourceBudgetError):
            build_factor_table(DEFAULT_TABLE_BUDGET + 1)

    @given(st.integers(min_value=2, max_value=100_000))
    @settings(max_examples=200, deadline=None)
    def test_spf_divides_and_is_prime(self, table_1e5, x):
        p = int(table_1e5.smallest_prime_factor[x])
        assert x % p == 0 and is_prime_u64(p)


class TestPrimes:
    def test_small(self):
        assert list(primes_up_to(20)) == [2, 3, 5, 7, 11, 13, 17, 19]
        assert primes_up_to(1).size == 0

    def test_count_1e5(self):
        assert primes_up_to(100_000).size == 9592

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(arith_core, "np", None)  # any numpy call would fail
        with pytest.raises(ResourceBudgetError):
            primes_up_to(DEFAULT_SIEVE_BUDGET + 1)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=300, deadline=None)
    def test_miller_rabin_matches_sieve(self, n):
        assert is_prime_u64(n) == (spf_oracle(n) == n if n >= 2 else False)

    def test_miller_rabin_large(self):
        assert is_prime_u64(2**61 - 1)
        assert not is_prime_u64(2**61 + 1)


class TestChen:
    def test_census_50(self, table_1e5):
        got = list(chen_primes(50, table=table_1e5))
        assert got == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 47]

    def test_seven_is_chen(self, table_1e5):
        # 7 + 2 = 9 = 3^2 has Omega = 2
        assert table_1e5.omega_big[9] == 2
        assert 7 in chen_primes(7, table=table_1e5)

    def test_strict_variant(self, table_1e5):
        basic = set(chen_primes(200, table=table_1e5).tolist())
        strict = set(chen_primes(200, variant="strict", z=10, table=table_1e5).tolist())
        assert strict <= basic
        assert 3 in basic and 3 not in strict  # 3 + 2 = 5 < 10... spf(5)=5 < 10
        assert 17 in strict  # 19 is prime >= 10

    def test_matches_per_prime_predicate(self, table_1e5):
        ps = primes_up_to(20_000).tolist()
        for variant, z in (("basic", None), ("strict", 2), ("strict", 10), ("strict", 100)):
            want = [p for p in ps if is_chen_direct(p, variant, z)]
            assert chen_primes(20_000, variant=variant, z=z, table=table_1e5).tolist() == want

    def test_domain(self, table_1e5):
        for kwargs in ({"bound": 1}, {"bound": 100, "variant": "strict"},
                       {"bound": 100_001, "table": table_1e5}):
            with pytest.raises(DomainError):
                chen_primes(**kwargs)


class TestMultFunctions:
    def test_point_values(self):
        m = mult_functions(15)
        assert (m.mu, m.tau, m.phi, m.phi2) == (1, 4, 8, Fraction(3))
        assert mult_functions(2).phi2 == 2
        assert mult_functions(12).mu == 0
        assert mult_functions(1).tau == 1

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


# 5-smooth sizes, the boundaries at which _fft_size steps
SMOOTH = [s for s in range(1, 2049) if all(p <= 5 for p, _ in factorize(s))]
SMALL_PRIMES = [int(p) for p in primes_up_to(300)]


@st.composite
def index_sets(draw):
    """(top, length, [index sets below top]): top and length one either side
    of a smooth size or on it, the sets sparse, empty or single points."""
    s = draw(st.sampled_from(SMOOTH))
    top = max(s // 2 + draw(st.integers(-1, 1)), 0)
    length = max(s + draw(st.integers(-1, 1)), 1)
    one_set = st.sets(st.integers(0, max(top - 1, 0)), max_size=min(top, 12))
    return top, length, draw(st.lists(one_set, min_size=2, max_size=4))


def indicator(xs, top):
    return np.bincount(np.array(sorted(xs), dtype=np.int64), minlength=top) > 0


class TestFFTConvolutions:
    @given(index_sets())
    @settings(max_examples=200, deadline=None)
    def test_counts_equal_exact_convolution(self, case):
        top, length, sets = case
        f, *gs = (indicator(xs, top) for xs in sets)
        for g, got in zip(gs, _fft_convolutions(f, gs, length)):
            full = np.convolve(f.astype(np.int64), g.astype(np.int64)) if top else []
            want = np.zeros(length, dtype=np.int64)
            want[: min(length, len(full))] = full[:length]
            assert got.dtype == np.int64 and np.array_equal(got, want)
        (square,) = _fft_convolutions(f, (f,), length)
        (copy,) = _fft_convolutions(f, (f.copy(),), length)
        assert np.array_equal(square, copy)

    def test_length_zero_is_empty(self):
        ind = np.zeros(0, dtype=bool)
        (got,) = _fft_convolutions(ind, (ind,), 0)
        assert got.dtype == np.int64 and got.size == 0
        (got,) = _fft_convolutions(np.ones(3, dtype=bool), (np.ones(3, dtype=bool),), 0)
        assert got.dtype == np.int64 and got.size == 0

    @given(st.sampled_from(SMALL_PRIMES), st.data())
    @settings(max_examples=100, deadline=None)
    def test_folded_counts_equal_cyclic_count(self, N, data):
        X, Y = (data.draw(st.sets(st.integers(0, N - 1), max_size=N)) for _ in range(2))
        top = max(X | Y | {0}) + 1
        want = np.zeros(N, dtype=np.int64)
        for x in X:
            for y in Y:
                want[(x + y) % N] += 1
        (got,) = _fft_convolutions(indicator(X, top), (indicator(Y, top),), 2 * N - 1, N)
        assert np.array_equal(got, want)

    @given(st.integers(1, 300), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_float_fold_equals_cyclic_sum(self, N, seed, square):
        rng = np.random.default_rng(seed)
        f, g = (w / w.sum() for w in rng.random((2, N)) + 1e-3)
        if square:
            g = f
        idx = np.arange(N)
        want = np.array([np.dot(f, g[(s - idx) % N]) for s in range(N)])
        (got,) = _fft_convolutions(f, (g,), 2 * N - 1, N)
        assert got.dtype == np.float64 and np.max(np.abs(got - want)) <= 1e-12


def np_fft_sites() -> tuple[list, int]:
    """([(function, module.qualname)] for each np.fft.<function> in
    src/chen3, the number of np.fft references) from each module's syntax
    tree.  The two agree when np.fft is never held under another name."""
    sites, refs = [], 0

    def is_np_fft(node) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == "fft"
                and isinstance(node.value, ast.Name) and node.value.id == "np")

    def visit(node, scope):
        nonlocal refs
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            elif isinstance(child, ast.Attribute):
                refs += is_np_fft(child)
                if is_np_fft(child.value):
                    sites.append((child.attr, ".".join(scope)))
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                # numpy enters as np alone: no transform under another name
                names = [getattr(child, "module", None) or ""] + [a.name for a in child.names]
                assert not any(name.startswith(("numpy", "scipy")) for name in names) or (
                    ast.unparse(child) == "import numpy as np"), ast.unparse(child)
            visit(child, inner)

    for path in sorted(Path(chen3.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), [path.stem])
    return sites, refs


def test_np_fft_call_sites():
    # one real FFT kernel; length-N DFTs for the cached weight transforms and
    # the energy's independent route; one inverse DFT, per smoothing
    sites, refs = np_fft_sites()
    assert len(sites) == refs
    assert set(sites) == {
        ("rfft", "arith_core._fft_convolutions"),
        ("irfft", "arith_core._fft_convolutions"),
        ("fft", "transference.ZnWeight.dft"),
        ("fft", "selberg_sieve.additive_energy"),
        ("ifft", "transference.convolve"),
    }
