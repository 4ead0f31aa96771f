import numpy as np
import pytest

from chen3 import goldbach_verify
from chen3.arith_core import (
    FactorTable,
    _fft_convolutions,
    _fft_size,
    _least_smooth,
    build_factor_table,
)
from chen3.errors import DomainError, InvariantError, ResourceBudgetError
from chen3.goldbach_verify import (
    _pair_witnesses,
    _survey_counts,
    find_representations,
    range_survey,
    representation_count,
)
from oracles import (
    representation_count_full,
    representation_count_pairs,
    representation_ok,
    representations_direct,
    survey_direct,
)


RFFT = np.fft.rfft


def shift_cubes(monkeypatch, by: float) -> None:
    """Wrap np.fft.rfft so that each cube's constant term in
    _fft_triple_count moves by `by`: bin 0 of an indicator of h points on
    Z_M is h, with weight 1 in the M-scaled sum, so h + d with (h + d)^3 =
    h^3 + by M moves the term by exactly `by`, up to float rounding."""
    def shifted(a, n=None):
        out = RFFT(a, n)
        h = float(np.count_nonzero(a))
        out[0] += np.cbrt(h**3 + by * a.size) - h
        return out

    monkeypatch.setattr(np.fft, "rfft", shifted)


def count_fft(monkeypatch, name: str = "irfft") -> list[int]:
    """Wrap np.fft.<name>; the returned list gets one size per call."""
    transform = getattr(np.fft, name)
    sizes: list[int] = []

    def counted(a, n=None):
        sizes.append(n)
        return transform(a, n)

    monkeypatch.setattr(np.fft, name, counted)
    return sizes


MOD = 2**31 - 1  # a prime: r^s mod MOD times a value mod MOD stays below 2^62


def poly_mod(c: np.ndarray, r: int) -> int:
    """sum_s c[s] r^s mod MOD, with the powers of r formed in int64 blocks of
    1024: the powers within a block times the power at each block's start."""
    block = 1024
    head = np.ones(block, dtype=np.int64)
    for s in range(1, block):
        head[s] = head[s - 1] * r % MOD
    step = pow(r, block, MOD)
    starts = np.ones(-(-c.size // block), dtype=np.int64)
    for j in range(1, starts.size):
        starts[j] = starts[j - 1] * step % MOD
    powers = (starts[:, None] * head % MOD).ravel()[: c.size]
    return int(np.sum(np.asarray(c, dtype=np.int64) % MOD * powers % MOD) % MOD)


class TestFind:
    def test_n9(self):
        reps = find_representations(9)
        assert reps.tolist() == [[2, 2, 5, 1], [2, 5, 2, 2], [3, 3, 3, 1]]

    def test_n33_known_solution(self):
        reps = find_representations(33)
        assert reps.dtype == np.int64 and reps.shape[1] == 4
        assert (3, 7, 23) in {tuple(r) for r in reps[:, :3].tolist()}
        assert np.all(reps[:, :3].sum(axis=1) == 33) and np.all(reps[:, 0] <= reps[:, 1])

    def test_ordering_and_limit(self):
        reps = find_representations(99, limit=5)
        assert len(reps) == 5
        keys = reps[:, :2].tolist()
        assert keys == sorted(keys)

    def test_negative_limit_is_a_domain_error(self):
        with pytest.raises(DomainError, match="limit"):
            find_representations(99, limit=-1)
        assert len(find_representations(99, limit=0)) == 0

    def test_validate(self, table_1e5):
        reps = find_representations(45, table=table_1e5)
        assert len(reps) and all(representation_ok(45, r) for r in reps.tolist())
        assert not representation_ok(45, [5, 7, 33, 1])
        strict = find_representations(99, variant="strict", z=5, table=table_1e5)
        assert len(strict) and all(representation_ok(99, r, "strict", 5) for r in strict.tolist())
        basic = find_representations(99, table=table_1e5)
        assert [r for r in basic.tolist() if representation_ok(99, r, "strict", 5)] == strict.tolist()

    @pytest.mark.parametrize("n", [9, 33, 99, 3003])
    def test_matches_double_loop(self, n):
        assert np.array_equal(find_representations(n), representations_direct(n))
        strict = find_representations(n, variant="strict", z=5)
        assert np.array_equal(strict, representations_direct(n, variant="strict", z=5))
        for limit in (0, 1, 5, 10**6):
            assert np.array_equal(find_representations(n, limit=limit),
                                  representations_direct(n, limit=limit))

    def test_empty(self):
        reps = find_representations(27, variant="strict", z=23)
        assert reps.shape == (0, 4) and reps.dtype == np.int64

    def test_domain(self):
        for bad in (8, 10, 25, 3):
            with pytest.raises(DomainError):
                find_representations(bad)

    def test_fast_count_matches_enumeration(self, table_1e5):
        for n in (9, 15, 21, 27, 33, 99, 459, 999, 3003):
            assert representation_count(n, table=table_1e5) == len(
                find_representations(n, table=table_1e5)
            )


class TestRowBudget:
    def test_checked_before_any_row(self, monkeypatch):
        def no_rows(*args):
            raise AssertionError("_pair_witnesses reached")

        monkeypatch.setattr(goldbach_verify, "REPRESENTATION_ROW_BUDGET", 10)
        monkeypatch.setattr(goldbach_verify, "_pair_witnesses", no_rows)
        for limit in (None, 11):
            with pytest.raises(ResourceBudgetError, match="exceed the budget of 10 rows.*--limit"):
                find_representations(99, limit=limit)

    def test_a_limit_within_the_budget_passes(self, monkeypatch):
        monkeypatch.setattr(goldbach_verify, "REPRESENTATION_ROW_BUDGET", 10)
        assert np.array_equal(find_representations(99, limit=5), representations_direct(99, limit=5))


class TestPairWitnesses:
    @staticmethod
    def double_loop(t, xs, zs):
        return [[x, y, t - x - y] for x in xs for y in xs if x <= y and t - x - y in zs]

    @staticmethod
    def indicator(zs, t):
        in_z = np.zeros(t + 1, dtype=bool)
        in_z[sorted(zs)] = True
        return in_z

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_double_loop(self, seed):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(0, 300))
        xs = np.unique(rng.integers(0, t + 10, size=int(rng.integers(0, 60))))
        zs = set(rng.integers(0, t + 1, size=int(rng.integers(0, 60))).tolist())
        want = self.double_loop(t, xs.tolist(), zs)
        for limit in (None, 0, 1, 5):
            got = _pair_witnesses(t, xs, self.indicator(zs, t), limit)
            assert got.dtype == np.int64 and got.shape == (len(want[:limit]), 3)
            assert got.tolist() == want[:limit], (seed, limit)

    def test_least_x_without_a_partner(self):
        # x = 1 and x = 3 meet no z; x = 4 meets z = 2 and z = 0
        xs, zs = np.array([1, 3, 4, 6]), {0, 2}
        assert _pair_witnesses(10, xs, self.indicator(zs, 10)).tolist() == [[4, 4, 2], [4, 6, 0]]
        assert _pair_witnesses(10, xs, self.indicator(zs, 10), 1).tolist() == [[4, 4, 2]]

    def test_empty(self):
        for xs, zs in ((np.empty(0, dtype=np.int64), {3}), (np.array([5, 7]), {1})):
            got = _pair_witnesses(10, xs, self.indicator(zs, 10))
            assert got.shape == (0, 3) and got.dtype == np.int64


def test_count_matches_class_pair_counts(table_1e5):
    """One coefficient of a cube per class against the pair counts of each
    class grid at every n below 400, where t is negative, 0 or small and the
    cyclic size is odd or even, and at 99999."""
    for n in list(range(9, 400, 6)) + [99999]:
        got = representation_count(n, table=table_1e5)
        assert type(got) is int and got == representation_count_pairs(n, table_1e5), n


def test_count_at_the_scale_edge():
    """n = 3 10^7: cyclic sizes of about 10^7, and a class of 489,815 grid
    points whose cube has the coefficient 10,731,365,895 (read 5.7e-6 from
    it on x86-64)."""
    n = 30_000_003
    table = build_factor_table(n + 2)
    assert representation_count(n, table=table) == representation_count_pairs(n, table)


def test_count_matches_full_length_count():
    """The class-split count against the single full-length convolution,
    at small n, where 2 + 2 + (n - 4) and 3 + 3 + 3 matter and the (5, 5, 5)
    grid has at most one point, and at desk scale."""
    table = build_factor_table(3_000_005)
    for n in (9, 15, 21, 27, 33, 3003, 99999, 3000003):
        assert representation_count(n, table=table) == representation_count_full(n, table), n
    assert representation_count(9) == 3  # (2, 2; 5), (2, 5; 2), (3, 3; 3)


def test_fft_size_is_least_smooth_size():
    """Against a brute-force search: the least 2^a 3^b 5^c >= each target,
    and the least 2^a 5^b, prime to 3, of the cube's coefficient."""
    def smooth(s, primes):
        for p in primes:
            while s % p == 0:
                s //= p
        return s == 1

    limit = 2 * 10**4
    for primes in ((2, 3, 5), (2, 5)):
        least = np.zeros(limit + 1, dtype=np.int64)
        nxt = limit  # 2 * 10^4 = 2^5 5^4 is itself 5-smooth
        for s in range(limit, 0, -1):
            if smooth(s, primes):
                nxt = s
            least[s] = nxt
        if primes == (2, 5):
            for target in range(-1, limit + 1):
                assert _least_smooth(target, (5,)) == least[max(target, 1)], target
            continue
        for target in range(1, 10**4 + 1):
            assert _fft_size(0, target) == least[target], target
            assert _fft_size(target, 0) == least[2 * target], target
            assert _fft_size(target // 3, target) == least[target], target


class TestPairCountGuard:
    def test_perturbed_convolution_raises(self, monkeypatch):
        for by in (0.3, -0.3):  # each class's cube, past the 0.25 guard
            shift_cubes(monkeypatch, by)
            with pytest.raises(InvariantError):
                representation_count(999)
        monkeypatch.setattr(np.fft, "rfft", RFFT)
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda a, n: irfft(a, n) + 0.3)
        with pytest.raises(InvariantError):
            range_survey(9, 999)

    def test_unpaired_triples_raise(self, monkeypatch, table_1e5):
        # ordered triples + those with p1 = p2 is even when both counts are right
        kernel = goldbach_verify._fft_triple_count
        extra = iter([1, 0])  # one triple too many in class 1
        monkeypatch.setattr(goldbach_verify, "_fft_triple_count",
                            lambda xs, t: kernel(xs, t) + next(extra))
        with pytest.raises(InvariantError, match="pair up"):
            representation_count(999, table=table_1e5)

    def test_small_error_is_rounded_away(self, monkeypatch, table_1e5):
        want = representation_count(999, table=table_1e5)
        want_rows = range_survey(9, 999).rows
        # a relative error e in every bin moves a cube by about 3e
        monkeypatch.setattr(np.fft, "rfft", lambda a, n=None: RFFT(a, n) * (1 + 1e-6))
        assert representation_count(999, table=table_1e5) == want
        for by in (0.2, -0.2):  # each class's cube, near the 0.25 guard
            shift_cubes(monkeypatch, by)
            assert representation_count(999, table=table_1e5) == want
        monkeypatch.setattr(np.fft, "rfft", RFFT)
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda a, n: irfft(a, n) - 0.2)
        assert np.array_equal(range_survey(9, 999).rows, want_rows)


class TestSurvey:
    def test_small_range_consistent_with_enumeration(self, table_1e5):
        rep = range_survey(9, 200)
        by_n = {r.n: r for r in rep.rows}
        assert set(by_n) == set(range(9, 201, 6))
        for n in (9, 33, 45, 105, 195):
            count_all_p3 = by_n[n].rep_count
            chen_reps = len(find_representations(n, table=table_1e5))
            assert chen_reps <= count_all_p3
            assert by_n[n].has_all_chen == (chen_reps > 0)

    def test_min_k_values(self):
        rep = range_survey(9, 99)
        for row in rep.rows:
            assert row.min_k >= 1
            assert row.has_all_chen == (row.min_k <= 2)

    def test_no_failures_to_10k(self):
        rep = range_survey(9, 10_000)
        assert rep.all_ok
        assert len(rep.rows) == len(range(9, 10_001, 6))

    def test_domain(self):
        with pytest.raises(DomainError):
            range_survey(100, 50)

    def test_survey_budget_is_checked_before_the_table(self, monkeypatch):
        def no_table(hi):
            raise AssertionError("build_factor_table reached")

        monkeypatch.setattr(goldbach_verify, "build_factor_table", no_table)
        cap = goldbach_verify.SURVEY_HI_BUDGET
        assert cap >= 10**7  # every survey the README and the tests run
        with pytest.raises(ResourceBudgetError, match=f"^survey to {cap + 1} exceeds budget {cap}$"):
            range_survey(9, cap + 1)

    @pytest.mark.parametrize("n_lo, n_hi", [(-7, -3), (1, 1), (3, 5), (3, 8), (8, 8), (10, 14)])
    def test_ranges_without_an_n_are_empty(self, n_lo, n_hi):
        rep = range_survey(n_lo, n_hi)
        assert len(rep.rows) == 0 and rep.failures == [] and rep.all_ok
        assert rep.rows.dtype.names == ("n", "rep_count", "min_k", "has_all_chen")

    def test_empty_chen_set(self):
        # p + 2 has a prime factor below 23 for every prime p <= 23
        rep = range_survey(9, 27, "strict", 23)
        assert [r.n for r in rep.rows] == [9, 15, 21, 27]
        assert all(r.rep_count == 0 and r.min_k == -1 for r in rep.rows)
        assert rep.failures == [9, 15, 21, 27] and not rep.all_ok
        assert np.array_equal(rep.rows, survey_direct(9, 27, "strict", 23).rows)

    def test_rows_are_one_record_array(self):
        rep = range_survey(9, 20001, "strict", 50)
        assert isinstance(rep.rows, np.recarray)
        assert rep.rows.dtype.names == ("n", "rep_count", "min_k", "has_all_chen")
        assert [rep.rows.dtype[k] for k in range(4)] == [np.dtype(np.int64)] * 3 + [np.dtype(bool)]
        assert len(rep.failures) == 19
        assert all(type(n) is int for n in rep.failures)
        assert rep.failures == rep.rows.n[rep.rows.rep_count == 0].tolist()

    @pytest.mark.parametrize(
        "n_lo, n_hi, variant, z",
        [
            (9, 999, "basic", None),
            (9, 20001, "basic", None),
            (1000, 5003, "basic", None),  # n_lo = 4 (mod 6)
            (9, 20001, "strict", 50),
            (9, 30001, "strict", 7),
            # z = 3 keeps the Chen primes 1 mod 6, z = 5 leaves none of them
            (9, 27, "strict", 3),
            (9, 27, "strict", 5),
        ],
    )
    def test_matches_direct_survey(self, n_lo, n_hi, variant, z):
        got = range_survey(n_lo, n_hi, variant, z)
        want = survey_direct(n_lo, n_hi, variant, z)
        assert np.array_equal(got.rows, want.rows)
        assert got.failures == want.failures
        if z == 50:
            unrepresented = [r for r in got.rows if r.rep_count == 0]
            assert len(unrepresented) == 19 and all(r.min_k == -1 for r in unrepresented)

    def test_sixth_length_ffts_at_desk_scale(self, monkeypatch):
        # the (1, 5) and (1, 1) pair counts from one transform of class 1,
        # the (5, 5) pair counts, then for each prime class its counts; p3 =
        # 3 (Omega(5) = 1) already gives every n its least k, so no
        # Omega(p + 2) class is formed, let alone convolved
        sizes = count_fft(monkeypatch)
        forward = count_fft(monkeypatch, "rfft")
        read = []
        omega = FactorTable.omega
        monkeypatch.setattr(FactorTable, "omega",
                            lambda self, xs: read.append(len(xs)) or omega(self, xs))
        range_survey(9, 20001)
        # forward: the Chen indicator of class 1, that of class 5 for the
        # cross count and again for its square, then per prime class its
        # pair grid u and its prime indicator
        assert len(sizes) == 5 and len(forward) == 7
        assert max(sizes) <= _fft_size(20001 // 6 + 1, 0)
        assert read == [2]  # Omega(5) and Omega(4), for p3 = 3 and p3 = 2

    def test_strict_survey_forms_class_one(self, monkeypatch):
        # at z = 5 every strict Chen prime is 5 mod 6 and 2 is none, so p3 =
        # 3 and p3 = 2 seed no best k, and class 5 forms its Omega = 1
        # class: one more product, and one more transform of its grid, the
        # price of one kernel call per class formed
        sizes = count_fft(monkeypatch)
        forward = count_fft(monkeypatch, "rfft")
        range_survey(9, 10**5, "strict", 5)
        assert len(sizes) == 6 and len(forward) == 9

    def test_later_classes_and_stop(self, monkeypatch):
        """_survey_counts on a synthetic Omega(p + 2), where classes k >= 2
        are needed, against the direct minimum."""
        rng = np.random.default_rng(5)
        top = 400
        u = rng.integers(0, 4, size=top) * (rng.random(top) < 0.2)
        u[:4] = 0
        primes = np.flatnonzero(rng.random(top) < 0.3)
        om_shift = rng.choice([1, 2, 3], size=primes.size, p=[0.05, 0.5, 0.45])
        om_shift[-3:] = 9  # only the largest primes: never needed
        ns = np.arange(0, top, 3)

        want_rep, want_k = [], []
        for n in ns.tolist():
            ps = primes <= n
            cnts = u[n - primes[ps]]
            want_rep.append(int(cnts.sum()))
            want_k.append(int(om_shift[ps][cnts > 0].min()) if cnts.any() else -1)

        sizes = count_fft(monkeypatch)
        none = np.iinfo(np.int64).max
        best = np.full(ns.size, none)
        asked = []
        rep = _survey_counts(u, primes, lambda k: asked.append(k) or om_shift == k, ns, best)
        assert rep.tolist() == want_rep
        assert np.where(best == none, -1, best).tolist() == want_k

        assert -1 in want_k and max(want_k) == 3
        # the counts, then classes 1, 2 and 3; class 9 is never formed
        assert len(sizes) == 4 and asked == [1, 2, 3]

    def test_running_best_stops_across_grids(self, monkeypatch):
        """A best k already found on another grid stops the classes above it
        and is lowered only where this grid does better."""
        u = np.array([0, 1, 0, 1, 1, 0, 0, 1])
        primes = np.array([0, 2, 3])
        om_shift = np.array([1, 2, 3])
        ns = np.array([3, 5, 7])
        # n = 3: u[3], u[1] > 0 (p = 0, 2; k = 1, 2); n = 5: u[3] > 0 only
        # (p = 2, k = 2); n = 7: u[7], u[4] > 0 (p = 0, 3; k = 1, 3)
        sizes = count_fft(monkeypatch)
        best = np.array([2, 2, 0])
        asked = []
        rep = _survey_counts(u, primes, lambda k: asked.append(k) or om_shift == k, ns, best)
        assert rep.tolist() == [2, 1, 2]
        assert best.tolist() == [1, 2, 0]
        # the counts and class 1: no best is above k = 2
        assert len(sizes) == 2 and asked == [1]


    def test_empty_class_is_not_convolved(self, monkeypatch):
        """A k with no prime in its class is passed over with no product."""
        u = np.array([0, 1, 0, 1, 1, 0, 0, 1])
        primes = np.array([0, 2, 3])
        om_shift = np.array([2, 2, 3])  # class 1 is empty
        ns = np.array([3, 5, 7])
        sizes = count_fft(monkeypatch)
        best = np.full(ns.size, np.iinfo(np.int64).max)
        asked = []
        rep = _survey_counts(u, primes, lambda k: asked.append(k) or om_shift == k, ns, best)
        assert rep.tolist() == [2, 1, 2] and best.tolist() == [2, 2, 2]
        # the counts and class 2, which settles every n
        assert len(sizes) == 2 and asked == [1, 2]


class TestSurveyProductsExact:
    """Every FFT product of a survey to 10^6 checked exactly: the full
    product C = F G, recomputed at f.size + g.size - 1 on the same transform
    size, has the survey's counts as its prefix, and C(r) = F(r) G(r) mod a
    prime P at random r.  By Schwartz-Zippel a wrong C passes one trial
    with probability at most deg / P."""

    def test_every_product(self, monkeypatch):
        kernel = goldbach_verify._fft_convolutions
        products = []

        def recording(f, gs, length, fold=0):
            out = kernel(f, gs, length, fold)
            products.extend((f.copy(), g.copy(), c.copy()) for g, c in zip(gs, out))
            return out

        assert poly_mod(np.arange(3000), 5) == sum(s * pow(5, s, MOD) for s in range(3000)) % MOD
        monkeypatch.setattr(goldbach_verify, "_fft_convolutions", recording)
        range_survey(9, 10**6)
        assert len(products) == 5
        rng = np.random.default_rng(11)
        for f, g, c in products:
            assert _fft_size(f.size, f.size + g.size - 1) == _fft_size(f.size, c.size)
            (full,) = _fft_convolutions(f, (g,), f.size + g.size - 1)
            assert np.array_equal(full[: c.size], c)
            for r in rng.integers(2, MOD - 1, size=2).tolist():
                assert poly_mod(full, r) == poly_mod(f, r) * poly_mod(g, r) % MOD

        # not vacuous: one recorded count off by 1 fails both checks
        full[c.size // 2] += 1
        assert not np.array_equal(full[: c.size], c)
        assert poly_mod(full, r) != poly_mod(f, r) * poly_mod(g, r) % MOD
