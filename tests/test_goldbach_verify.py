import numpy as np
import pytest

from chen3.errors import DomainError, InvariantError
from chen3.goldbach_verify import (
    Representation,
    find_representations,
    range_survey,
    representation_count,
)


class TestFind:
    def test_n9(self):
        reps = find_representations(9)
        assert [(r.p1, r.p2, r.p3) for r in reps] == [(2, 2, 5), (2, 5, 2), (3, 3, 3)]

    def test_n33_known_solution(self):
        reps = find_representations(33)
        triples = {(r.p1, r.p2, r.p3) for r in reps}
        assert (3, 7, 23) in triples
        for r in reps:
            assert r.p1 + r.p2 + r.p3 == 33 and r.p1 <= r.p2

    def test_ordering_and_limit(self):
        reps = find_representations(99, limit=5)
        assert len(reps) == 5
        keys = [(r.p1, r.p2) for r in reps]
        assert keys == sorted(keys)

    def test_validate(self, table_1e5):
        reps = find_representations(45, table=table_1e5)
        assert all(r.validate(table_1e5) for r in reps)
        bogus = Representation(n=45, p1=5, p2=7, p3=33, k_of_p3=1)
        assert not bogus.validate(table_1e5)

    def test_domain(self):
        for bad in (8, 10, 25, 3):
            with pytest.raises(DomainError):
                find_representations(bad)

    def test_fast_count_matches_enumeration(self, table_1e5):
        for n in (9, 33, 99, 459, 999):
            assert representation_count(n, table=table_1e5) == len(
                find_representations(n, table=table_1e5)
            )


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
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda a, n: irfft(a, n) - 0.2)
        assert representation_count(999, table=table_1e5) == want


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
