import numpy as np
import pytest

from chen3.arith_core import _fft_size, build_factor_table
from chen3.errors import DomainError, InvariantError
from chen3.goldbach_verify import (
    _survey_counts,
    find_representations,
    range_survey,
    representation_count,
)
from oracles import representation_count_full, representation_ok, representations_direct, survey_direct


def count_irfft(monkeypatch) -> list[int]:
    """Wrap np.fft.irfft; the returned list gets one size per call."""
    irfft = np.fft.irfft
    sizes: list[int] = []

    def counted(a, n):
        sizes.append(n)
        return irfft(a, n)

    monkeypatch.setattr(np.fft, "irfft", counted)
    return sizes


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


def test_count_matches_full_length_count():
    """The class-split count against the single full-length convolution,
    at small n, where 2 + 2 + (n - 4) and 3 + 3 + 3 matter and the (5, 5, 5)
    grid has at most one point, and at desk scale."""
    table = build_factor_table(3_000_005)
    for n in (9, 15, 21, 27, 33, 3003, 99999, 3000003):
        assert representation_count(n, table=table) == representation_count_full(n, table), n
    assert representation_count(9) == 3  # (2, 2; 5), (2, 5; 2), (3, 3; 3)


def test_fft_size_is_least_smooth_size():
    """Against a brute-force search: the least 2^a 3^b 5^c >= each target."""
    def smooth(s):
        for p in (2, 3, 5):
            while s % p == 0:
                s //= p
        return s == 1

    limit = 2 * 10**4
    least = np.zeros(limit + 1, dtype=np.int64)
    nxt = limit  # 2 * 10^4 = 2^5 5^4 is itself 5-smooth
    for s in range(limit, 0, -1):
        if smooth(s):
            nxt = s
        least[s] = nxt
    for target in range(1, 10**4 + 1):
        assert _fft_size(0, target) == least[target], target
        assert _fft_size(target, 0) == least[2 * target], target
        assert _fft_size(target // 3, target) == least[target], target


class TestPairCountGuard:
    def test_perturbed_convolution_raises(self, monkeypatch):
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda a, n: irfft(a, n) + 0.3)
        with pytest.raises(InvariantError):
            representation_count(999)
        with pytest.raises(InvariantError):
            range_survey(9, 999)

    def test_small_error_is_rounded_away(self, monkeypatch, table_1e5):
        want = representation_count(999, table=table_1e5)
        want_rows = range_survey(9, 999).rows
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda a, n: irfft(a, n) - 0.2)
        assert representation_count(999, table=table_1e5) == want
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
        # the (5, 5) pair counts, then for each prime class its counts; only
        # class 5 needs an Omega(p + 2) class, Omega = 1, which resolves
        # every n, so class 1 (3 divides p + 2, Omega >= 2) needs none
        sizes = count_irfft(monkeypatch)
        range_survey(9, 20001)
        assert len(sizes) == 5
        assert max(sizes) <= _fft_size(20001 // 6 + 1, 0)

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

        sizes = count_irfft(monkeypatch)
        none = np.iinfo(np.int64).max
        best = np.full(ns.size, none)
        rep = _survey_counts(u, primes, om_shift, ns, best)
        assert rep.tolist() == want_rep
        assert np.where(best == none, -1, best).tolist() == want_k

        assert -1 in want_k and max(want_k) == 3
        # the counts, then classes 1, 2 and 3; class 9 is never convolved
        assert len(sizes) == 4

    def test_running_best_stops_across_grids(self, monkeypatch):
        """A best k already found on another grid stops the classes above it
        and is lowered only where this grid does better."""
        u = np.array([0, 1, 0, 1, 1, 0, 0, 1])
        primes = np.array([0, 2, 3])
        om_shift = np.array([1, 2, 3])
        ns = np.array([3, 5, 7])
        # n = 3: u[3], u[1] > 0 (p = 0, 2; k = 1, 2); n = 5: u[3] > 0 only
        # (p = 2, k = 2); n = 7: u[7], u[4] > 0 (p = 0, 3; k = 1, 3)
        sizes = count_irfft(monkeypatch)
        best = np.array([2, 2, 0])
        rep = _survey_counts(u, primes, om_shift, ns, best)
        assert rep.tolist() == [2, 1, 2]
        assert best.tolist() == [1, 2, 0]
        assert len(sizes) == 2  # the counts and class 1: no best is above k = 2
