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
    _SIEVE_BLOCK,
    DEFAULT_SIEVE_BUDGET,
    _fft_convolutions,
    _fft_triple_count,
    _zn_dft,
    _zn_idft,
    build_factor_table,
    chen_primes,
    factorize,
    is_prime_u64,
    mult_functions,
    primes_up_to,
    singular_series_S1,
)
from chen3.circle_method import ExpSumEvaluator, SieveContext
from chen3.errors import DomainError, InvariantError, ResourceBudgetError
from chen3.goldbach_verify import range_survey, representation_count
from chen3.selberg_sieve import pair_count_bound
from oracles import is_chen_direct, primes_direct, spf_table_direct


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


def spf_read(t, xs) -> np.ndarray:
    """spf of each x off the table's odd-only array: 2 at an even x, and x
    itself at 1 and the odd primes, whose entries are 0."""
    xs = np.asarray(xs, dtype=np.int64)
    entry = t.smallest_prime_factor[(xs - 1) >> 1].astype(np.int64)
    return np.where(xs % 2 == 0, 2, np.where(entry == 0, xs, entry))


class TestFactorTable:
    def test_against_trial_division(self, table_1e5):
        # every x below 500 (Omega(1) = 0), 3^10 = 59049, a primorial and x = hi
        xs = list(range(1, 500)) + [9991, 30030, 59049, 65536, 99991, 100002]
        assert xs[-1] == table_1e5.hi
        got = table_1e5.omega(xs)
        assert got.dtype == np.int64 and got.tolist() == [omega_oracle(x) for x in xs]
        assert table_1e5.omega(np.empty(0, dtype=np.int64)).shape == (0,)
        assert spf_read(table_1e5, xs).tolist() == [spf_oracle(x) for x in xs]

    def test_against_trial_division_at_block_seams(self):
        # every x to 5000 and the points around each power of two, up to x = hi
        hi = 2**17 + 1
        t = build_factor_table(hi)
        seams = {2**k + e for k in range(1, 18) for e in (-1, 0, 1)}
        xs = sorted(set(range(1, 5001)) | seams)
        assert xs[-1] == hi
        assert t.omega(xs).tolist() == [omega_oracle(x) for x in xs]
        assert spf_read(t, xs).tolist() == [spf_oracle(x) for x in xs]

    def test_blocked_sieve_equals_one_pass(self):
        # four blocks, the last of 3 entries; spf and Omega at x = k 2^20 +- 0..3,
        # around the first x of each block (entry k 2^19 is x = k 2^20 + 1)
        edge = 2 * _SIEVE_BLOCK
        assert edge == 2**20
        hi = 3 * edge + 5
        t = build_factor_table(hi)
        assert np.array_equal(t.smallest_prime_factor, spf_table_direct(hi))
        xs = [k * edge + e for k in (1, 2, 3) for e in range(-3, 4) if k * edge + e <= hi]
        assert spf_read(t, xs).tolist() == [spf_oracle(x) for x in xs]
        assert t.omega(xs).tolist() == [omega_oracle(x) for x in xs]

    @pytest.mark.parametrize("hi", [2**20 - 1, 2**20, 2**21 - 1, 2**21])
    def test_table_ending_on_a_block_edge(self, hi):
        # (hi + 1)//2 entries fill exactly one or two blocks
        assert ((hi + 1) // 2) % _SIEVE_BLOCK == 0
        t = build_factor_table(hi)
        assert np.array_equal(t.smallest_prime_factor, spf_table_direct(hi))
        xs = [hi - 3, hi - 2, hi - 1, hi]
        assert spf_read(t, xs).tolist() == [spf_oracle(x) for x in xs]
        assert t.omega(xs).tolist() == [omega_oracle(x) for x in xs]

    @pytest.mark.parametrize("hi", [1, 2, 3, 4, 5, 2**17, 2**17 + 3])
    def test_odd_layout_edges(self, hi):
        # tiny tables, x = hi odd and even, and the even x: powers of two,
        # 2p and 4 = 2 + 2, which the odd-only array does not store
        t = build_factor_table(hi)
        xs = sorted({x for x in [1, 2, 3, 4, 5, hi - 1, hi] if 1 <= x <= hi}
                    | {2**k for k in range(18) if 2**k <= hi}
                    | {2 * p for p in (2, 3, 5, 11, 65521) if 2 * p <= hi}
                    | {2**k * 3**2 for k in range(1, 14) if 2**k * 9 <= hi})
        assert xs[-1] == hi
        assert spf_read(t, xs).tolist() == [spf_oracle(x) for x in xs]
        assert t.omega(xs).tolist() == [omega_oracle(x) for x in xs]

    def test_outside_the_table_raises(self, table_1e5):
        for xs in ([0], [-3], [table_1e5.hi + 1], [1, 2**32 + 3]):
            with pytest.raises(DomainError, match="covers"):
                table_1e5.omega(xs)

    @pytest.mark.parametrize("z", [1.5, 2, 2.5, 3, 7.4, 30, 31, 317, 100_003])
    def test_sifted_against_trial_division(self, table_1e5, z):
        # every x to 3000, the even x among them, x = hi (even) and hi - 1,
        # and the prime squares and products just around z
        hi = table_1e5.hi
        xs = list(range(2, 3001)) + [29 * 29, 29 * 31, 31 * 31, 313 * 313, 313 * 317, hi - 1, hi]
        got = table_1e5.sifted(xs, z)
        assert got.dtype == bool and got.tolist() == [spf_oracle(x) >= z for x in xs]
        assert table_1e5.sifted(np.empty(0, dtype=np.int64), z).shape == (0,)

    def test_sifted_edges(self, table_1e5):
        # an even x has least prime factor 2, so x = 2 as well; an odd prime
        # is its own least factor, free of the primes below z iff it is >= z
        evens = [2, 4, 6, 2**16, table_1e5.hi]
        assert table_1e5.sifted(evens, 2).all() and not table_1e5.sifted(evens, 2.01).any()
        assert table_1e5.sifted([29, 31, 37], 31).tolist() == [False, True, True]
        assert table_1e5.sifted([29, 31, 37], 30.5).tolist() == [False, True, True]
        assert table_1e5.sifted([29, 31, 37], 29).tolist() == [True, True, True]
        assert table_1e5.sifted([99991], 99991).tolist() == [True]  # the largest prime below hi
        assert table_1e5.sifted([99991], 99992).tolist() == [False]

    def test_sifted_outside_the_table_raises(self, table_1e5):
        for xs in ([1], [0], [-3], [2, table_1e5.hi + 1], [3, 2**32 + 3]):
            with pytest.raises(DomainError, match="sifts"):
                table_1e5.sifted(xs, 2)

    def test_prime_and_omega_identities(self):
        hi = 2**20 + 3
        t = build_factor_table(hi)
        xs = np.arange(2, hi + 1)
        ps = primes_direct(hi)
        assert np.array_equal(xs[spf_read(t, xs) == xs], ps)
        assert np.array_equal(t.primes(hi), ps)
        # sum_{x <= hi} Omega(x) = Omega(hi!) = sum_{p^k <= hi} floor(hi / p^k)
        legendre = 0
        for p in map(int, ps):
            pk = p
            while pk <= hi:
                legendre += hi // pk
                pk *= p
        assert int(np.sum(t.omega(np.arange(1, hi + 1)))) == legendre

    def test_primes_slice_the_list(self, table_1e5):
        for bound in (-2, 0, 1, 2, 3, 4, 100_002):  # no primes below 0, not a slice from the end
            ps = table_1e5.primes(bound)
            assert ps.dtype == np.int64 and np.array_equal(ps, primes_direct(bound)), bound
            assert not ps.flags.writeable  # one table serves many calls
        assert np.array_equal(build_factor_table(100_003).primes(100_003), primes_direct(100_003))
        for hi in range(1, 65):  # 2 stands in for the entry of 1
            assert np.array_equal(build_factor_table(hi).primes(hi), primes_direct(hi)), hi
        with pytest.raises(DomainError, match="does not cover"):  # not cut at hi = 100_002
            table_1e5.primes(table_1e5.hi + 1)

    def test_dtypes(self, table_1e5):
        assert table_1e5.smallest_prime_factor.dtype == np.uint16

    @pytest.mark.parametrize("hi", [1, 2, 3, 100_001, 100_002])
    def test_one_uint16_entry_per_odd_x(self, hi):
        t = build_factor_table(hi)
        assert t.smallest_prime_factor.shape == ((hi + 1) // 2,)
        assert t.smallest_prime_factor.nbytes == 2 * ((hi + 1) // 2)

    def test_spf_fits_uint16_under_the_budget(self):
        # a composite x <= hi has spf(x) <= isqrt(hi)
        assert math.isqrt(DEFAULT_SIEVE_BUDGET) < 2**16

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(arith_core, "np", None)  # any numpy call would fail
        with pytest.raises(ResourceBudgetError):
            build_factor_table(DEFAULT_SIEVE_BUDGET + 1)

    @pytest.mark.parametrize("entry", [
        lambda n: chen_primes(n),
        lambda n: range_survey(9, n),
        lambda n: representation_count(n),
        lambda n: ExpSumEvaluator(SieveContext(n=n, W=2, b=1)),
        lambda n: pair_count_bound(n, 2, 1, 3, 3.5, 8),
    ], ids=["chen_primes", "range_survey", "representation_count", "ExpSumEvaluator", "pair_count_bound"])
    def test_budget_covers_every_entry(self, monkeypatch, entry):
        # one sieve, so one budget: each entry that sieves to n raises before
        # the table allocates (n = DEFAULT_SIEVE_BUDGET + 1 is an odd
        # multiple of 3, as representation_count needs)
        monkeypatch.setattr(arith_core, "np", None)  # any numpy call would fail
        with pytest.raises(ResourceBudgetError):
            entry(DEFAULT_SIEVE_BUDGET + 1)

    @given(st.integers(min_value=2, max_value=100_000))
    @settings(max_examples=200, deadline=None)
    def test_spf_divides_and_is_prime(self, table_1e5, x):
        p = int(spf_read(table_1e5, [x])[0])
        assert x % p == 0 and is_prime_u64(p)


class TestPrimes:
    def test_small(self):
        assert list(primes_up_to(20)) == [2, 3, 5, 7, 11, 13, 17, 19]
        assert primes_up_to(1).size == 0

    def test_count_1e5(self):
        assert primes_up_to(100_000).size == 9592 == primes_direct(100_000).size

    def test_matches_direct(self):
        # every small n, and n at the block seams of the table's sieve
        for n in [*range(-1, 2001), 2**20 - 1, 2**20 + 1, 3 * 2**20 + 5]:
            ps = primes_up_to(n)
            assert ps.dtype == np.int64 and np.array_equal(ps, primes_direct(n)), n

    def test_read_only(self):
        # the table's own list, shared by every caller
        assert not primes_up_to(100).flags.writeable

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
        assert table_1e5.omega([9]).tolist() == [2]
        assert 7 in chen_primes(7, table=table_1e5)

    def test_strict_variant(self, table_1e5):
        basic = set(chen_primes(200, table=table_1e5).tolist())
        strict = set(chen_primes(200, variant="strict", z=10, table=table_1e5).tolist())
        assert strict <= basic
        assert 3 in basic and 3 not in strict  # 3 + 2 = 5 < 10... spf(5)=5 < 10
        assert 17 in strict  # 19 is prime >= 10

    def test_matches_per_prime_predicate(self, table_1e5):
        ps = primes_up_to(20_000).tolist()
        for variant, z in (("basic", None), ("strict", 2), ("strict", 10), ("strict", 100),
                           ("strict", 20_001), ("strict", 10**6), ("strict", math.inf)):
            want = [p for p in ps if is_chen_direct(p, variant, z)]
            assert chen_primes(20_000, variant=variant, z=z, table=table_1e5).tolist() == want

    @pytest.mark.parametrize("bound", [2, 3, 17, 29, 100])
    def test_strict_z_above_the_bound(self, table_1e5, bound):
        # any z >= 2 is allowed, and the set is empty once z > bound + 2
        ps = primes_up_to(bound).tolist()
        for z in (2, bound, bound + 1, bound + 2, bound + 3, 10 * bound):
            want = [p for p in ps if is_chen_direct(p, "strict", z)]
            assert chen_primes(bound, "strict", z=z, table=table_1e5).tolist() == want, z
        assert chen_primes(bound, "strict", z=bound + 3, table=table_1e5).size == 0
        if bound in (17, 29):  # bound + 2 is prime
            assert chen_primes(bound, "strict", z=bound + 2, table=table_1e5).tolist() == [bound]

    def test_domain(self, table_1e5):
        for kwargs in ({"bound": 1}, {"bound": 100, "variant": "strict"},
                       {"bound": 100, "variant": "strict", "z": 1.5},
                       {"bound": 100, "variant": "strict", "z": math.nan},
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


@st.composite
def triple_cases(draw):
    """(xs, t): t = 0 or any residue mod 3, and distinct xs in [0, t + 3],
    so that some lie above t."""
    t = draw(st.one_of(st.just(0), st.integers(1, 200)))
    xs = draw(st.sets(st.integers(0, t + 3), max_size=40))
    return np.array(sorted(xs), dtype=np.int64), t


class TestFFTTripleCount:
    @given(triple_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_triple_enumeration(self, case):
        xs, t = case
        members = set(xs.tolist())
        want = sum(t - a - b in members for a in members for b in members)
        assert _fft_triple_count(xs, t) == want

    def test_every_residue_of_t(self):
        for t in range(0, 40):  # odd sizes 1, 5, 25 and even ones, t = 0, 1, 2 mod 3
            xs = np.arange(0, t + 2, 2)
            want = sum(t - a - b in set(xs.tolist()) for a in xs.tolist() for b in xs.tolist())
            assert _fft_triple_count(xs, t) == want, t

    def test_negative_t_and_empty_set(self):
        assert _fft_triple_count(np.array([0, 1], dtype=np.int64), -1) == 0
        assert _fft_triple_count(np.empty(0, dtype=np.int64), 7) == 0
        assert _fft_triple_count(np.array([0], dtype=np.int64), 0) == 1


def _hermitian(d: np.ndarray) -> bool:
    """d(-r) = conj d(r) bit for bit, r = 0 included."""
    return not d[:1].imag.any() and np.array_equal(d[1:], np.conj(d[:0:-1]))


class TestZnDft:
    @pytest.mark.parametrize("N", [1, 2, 3, 101, 5077])
    @pytest.mark.parametrize("count", [1, 2])
    def test_matches_fft_and_is_hermitian(self, N, count):
        rng = np.random.default_rng(N)
        xs = [rng.random(N), rng.random(N) ** 4][:count]
        ds = _zn_dft(*xs)
        assert len(ds) == count
        for x, d in zip(xs, ds):
            assert np.max(np.abs(d - np.fft.fft(x))) <= 1e-12 * np.sum(np.abs(x))
            assert _hermitian(d)

    def test_products_stay_hermitian(self):
        # np.fft.fft of a real array is not exactly Hermitian at N = 16879
        rng = np.random.default_rng(16879)
        x, y = rng.random(16879), rng.random(16879)
        assert not _hermitian(np.fft.fft(x))
        d, e = _zn_dft(x, y)
        assert _hermitian(d * e * e) and _hermitian(d * d)

    @pytest.mark.parametrize("N", [1, 2, 3, 101, 5077])
    def test_inverse_of_two_matches_ifft(self, N):
        rng = np.random.default_rng(N + 1)
        d, e = _zn_dft(rng.random(N), rng.random(N))
        S, T = d * e, e * e
        s, t = _zn_idft(S, T)
        scale = (np.sum(np.abs(S)) + np.sum(np.abs(T))) / N
        assert np.max(np.abs(s - np.fft.ifft(S).real)) <= 1e-12 * scale
        assert np.max(np.abs(t - np.fft.ifft(T).real)) <= 1e-12 * scale
        (s1,) = _zn_idft(S)
        assert np.array_equal(s1, np.fft.ifft(S).real)

    @pytest.mark.parametrize("where", ["r", "zero"])
    def test_inverse_refuses_a_spectrum_not_exactly_hermitian(self, where):
        (S,) = _zn_dft(np.random.default_rng(7).random(101))
        bad = S.copy()
        if where == "r":
            bad[5] += 1e-15 * abs(bad[5])
        else:
            bad[0] += 1e-300j
        for specs in ((bad,), (S, bad), (bad, S)):
            with pytest.raises(InvariantError, match="not exactly Hermitian"):
                _zn_idft(*specs)


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
    # two real FFT kernels, the linear products and one coefficient of a
    # cube; the length-N DFT pair, forward and inverse, two real signals
    # per transform
    sites, refs = np_fft_sites()
    assert len(sites) == refs
    assert set(sites) == {
        ("rfft", "arith_core._fft_convolutions"),
        ("irfft", "arith_core._fft_convolutions"),
        ("rfft", "arith_core._fft_triple_count"),
        ("fft", "arith_core._zn_dft"),
        ("ifft", "arith_core._zn_idft"),
    }


def test_factor_table_arrays_read_in_arith_core_only():
    # the other modules go through FactorTable.primes, FactorTable.omega and
    # FactorTable.sifted
    names = {"smallest_prime_factor", "prime_list"}
    readers = set()
    for path in sorted(Path(chen3.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in names
                    or isinstance(node, ast.Constant) and node.value in names):
                readers.add(path.stem)
    assert readers == {"arith_core"}
