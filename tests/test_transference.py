import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chen3.goldbach_verify
import chen3.transference
from chen3.arith_core import _zn_dft, build_factor_table, chen_primes, is_prime_u64
from chen3.errors import ConfigError, DomainError, InvariantError, PaperAssertionError, ResourceBudgetError
from chen3.transference import (
    ZN_POINT_BUDGET,
    ZnWeight,
    bohr_set,
    build_weights,
    choose_parameters,
    convolve,
    paper_logs,
    pollard_check,
    run_transference,
    select_W,
    smooth_and_bound,
    spectrum,
    split_residues,
    triple_sum,
)
from oracles import (bohr_set_direct, convolve_direct, dft_direct, paper_logs_direct, point_mass,
                     pollard_direct, triple_sum_direct, uniform)


class TestZnWeight:
    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            ZnWeight(4, np.array([1.0, -0.1, 0, 0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # a NaN would pass the spectrum's Chebyshev check, a comparison
        with pytest.raises(DomainError, match="finite and nonnegative"):
            ZnWeight(5, np.array([bad, 1.0, 1.0, 1.0, 1.0]))

    @pytest.mark.parametrize("N", [0, -1])
    def test_rejects_N_below_1(self, N):
        # on an empty Z_N, dft, spectrum, convolve and triple_sum would raise
        # numpy's ValueError or a ZeroDivisionError
        with pytest.raises(DomainError, match="need N >= 1"):
            ZnWeight(N, [])

    def test_dft_against_direct(self):
        rng = np.random.default_rng(3)
        w = ZnWeight(101, rng.random(101))
        want = dft_direct(w.values, range(101))
        assert np.max(np.abs(w.dft - want)) < 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(4)
        for N in (64, 101):
            w = ZnWeight(N, rng.random(N))
            assert np.sum(np.abs(w.dft) ** 2) == pytest.approx(
                N * np.sum(w.values**2), rel=1e-12
            )

    def test_point_mass_flat_spectrum(self):
        w = point_mass(11, 4)
        assert np.allclose(np.abs(w.dft), 1.0)


class TestConvolve:
    def test_matches_direct(self):
        rng = np.random.default_rng(5)
        f = ZnWeight(64, rng.random(64))
        g = ZnWeight(64, rng.random(64))
        got = convolve(f, g).values
        assert np.max(np.abs(got - convolve_direct(f, g))) < 1e-9

    def test_mismatched_N(self):
        with pytest.raises(DomainError):
            convolve(uniform(8), uniform(9))

    @pytest.mark.parametrize("N", [64, 101, 16879])
    def test_passes_the_product_spectrum(self, N):
        rng = np.random.default_rng(N)
        f = ZnWeight(N, rng.random(N) * (rng.random(N) < 0.1))
        g = ZnWeight(N, rng.random(N))
        fg = convolve(f, g)
        assert fg._dft is not None  # f~ g~, not recomputed from the values
        mass = f.total() * g.total()
        assert np.max(np.abs(fg.dft - np.fft.fft(fg.values))) <= 1e-9 * mass

    @pytest.mark.parametrize("dip, raises", [(-0.5, True), (-2e-9, True), (-5e-10, False)])
    def test_clip_at_0_is_guarded(self, dip, raises):
        # a planted spectrum whose inverse dips to dip times its maximum 1:
        # rounding is clipped to 0, a fault below -1e-9 raises
        (spec,) = _zn_dft(np.array([1.0, dip] + [0.0] * 99))
        f = ZnWeight(101, point_mass(101).values, _dft=spec)
        if raises:
            with pytest.raises(InvariantError, match="below -1e-9 of its maximum"):
                convolve(f)
        else:
            assert convolve(f).values[1] == 0.0

    def test_mass_multiplies(self):
        f, g = uniform(32), point_mass(32, 5)
        assert convolve(f, g).total() == pytest.approx(1.0)


class TestSpectrum:
    def test_point_mass_full(self):
        w = point_mass(11)
        sp = spectrum(w, 0.5)
        assert sp.members.tolist() == list(range(11))

    def test_uniform_only_zero(self):
        sp = spectrum(uniform(101), 0.5)
        assert sp.members.tolist() == [0]

    def test_members_are_a_sorted_int64_array(self):
        rng = np.random.default_rng(13)
        members = spectrum(ZnWeight(101, rng.random(101)), 1.0).members
        assert members.dtype == np.int64 and 1 < members.size < 101
        assert np.all(np.diff(members) > 0) and 0 <= members[0] and members[-1] < 101

    def test_chebyshev_bound_holds(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            w = ZnWeight(101, rng.random(101))
            for delta in (0.1, 1.0, 10.0):
                sp = spectrum(w, delta)
                assert len(sp.members) <= sp.chebyshev_bound


class TestBohr:
    def test_zero_frequency_is_everything(self):
        b = bohr_set({0}, 0.25, 101)
        assert b.size == 101

    def test_single_frequency_size(self):
        # N = 101, R = {1}, eps = 0.1: |x| <= 10.1 -> x in {-10..10}
        b = bohr_set({1}, 0.1, 101)
        assert b.size == 21
        assert 0 in b.members and 10 in b.members and 91 in b.members

    def test_boundary_exact(self):
        # eps = 1/4, N = 8, r = 1: ||x/8|| <= 1/4 iff min(x, 8-x) <= 2
        b = bohr_set({1}, 0.25, 8)
        assert sorted(b.members) == [0, 1, 2, 6, 7]

    def test_pigeonhole_bound(self):
        for N in (101, 509):
            for eps in (0.05, 0.1, 0.25):
                b = bohr_set({1, 3, 7}, eps, N)
                assert b.size >= math.ceil(eps**3 * N) - 1

    def test_domain(self):
        with pytest.raises(DomainError):
            bohr_set({1}, 0.7, 101)
        with pytest.raises(DomainError):
            bohr_set({1}, 0.0, 101)

    @pytest.mark.parametrize("N", [0, -3])
    def test_N_below_1(self, N):
        with pytest.raises(DomainError, match=f"N must be >= 1, got {N}"):
            bohr_set({1}, 0.1, N)

    def test_frequencies_are_distinct_residues(self):
        b = bohr_set([3, 104, -1, 0, 3, 3 + 5 * 101], 0.1, 101)
        assert b.frequencies.dtype == np.int64
        assert b.frequencies.tolist() == [0, 3, 100]
        assert b.pigeonhole_lower == math.ceil(0.1 ** 2 * 101) - 1

    @pytest.mark.parametrize("eps, passes, size", [
        (0.01, 169, 1),  # floor(eps N) + 1: x = 1 leaves at r = 169, and only 0 is left
        (0.5, 0, 16879),  # eps N >= N // 2: no pass can remove a point
    ])
    def test_filter_passes_over_every_frequency(self, monkeypatch, eps, passes, size):
        N = 16879
        calls = []
        minimum = np.minimum

        def counting(*args):
            calls.append(None)
            return minimum(*args)

        monkeypatch.setattr(chen3.transference.np, "minimum", counting)
        b = bohr_set(np.arange(N), eps, N)
        assert len(calls) == passes
        assert b.size == size

    @given(
        st.integers(min_value=1, max_value=100),
        st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.5]),
    )
    @settings(max_examples=100, deadline=None)
    def test_membership_oracle(self, r, eps):
        N = 101
        b = bohr_set({r}, eps, N)
        got = set(int(x) for x in b.members)
        want = {
            x for x in range(N)
            if min(x * r % N, (N - x * r % N) % N) / N <= eps
        }
        assert got == want

    @given(
        st.integers(min_value=2, max_value=300),
        st.sets(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=3),
        st.one_of(st.floats(min_value=1e-9, max_value=0.5),
                  st.sampled_from([0.1, 0.125, 0.25, 0.375, 0.5])),
    )
    @example(N=8, freqs={1}, eps=0.25)  # eps N = 2 exactly
    @example(N=240, freqs={7, 11}, eps=0.375)  # eps N = 90 exactly
    @example(N=10, freqs={1, 3}, eps=0.1)  # Fraction(0.1) is just above 1/10
    @example(N=1000, freqs={1}, eps=0.1)
    @example(N=10, freqs={1}, eps=0.3)  # 0.3 * 10 rounds to 3.0; the exact product is below 3
    @settings(max_examples=150, deadline=None)
    def test_membership_exact_fraction(self, N, freqs, eps):
        b = bohr_set(freqs, eps, N)
        want = [
            x for x in range(N)
            if all(Fraction(min(x * r % N, N - x * r % N), N) <= Fraction(eps) for r in freqs)
        ]
        assert b.members.tolist() == want

    @pytest.mark.parametrize("N, freqs, eps", [
        (101, [0], 0.1),
        (101, [0, 7, 7, 7], 0.1),  # repeated r
        (101, [3, 104, 3 + 5 * 101, 250], 0.1),  # r >= N
        (101, [-1, -103, 50, -50], 0.2),  # negative r
        (97, [1, 2, 3, 0], 0.5),  # eps = 1/2: all of Z_N
        (101, range(1, 101), 0.05),  # |R| = N - 1: {0}
        (101, range(1, 101), 0.5),
        (240, [7, 11, 0, 233], 0.375),  # eps N = 90 exactly
        (16879, [1, 4, 9, 16, 16874], 0.3),
    ])
    def test_filtering_matches_full_mask(self, N, freqs, eps):
        members = bohr_set(freqs, eps, N).members
        assert members.dtype == np.int64
        assert np.array_equal(members, bohr_set_direct(freqs, eps, N))


class TestSmoothing:
    def test_beta_one_on_spectrum(self):
        rng = np.random.default_rng(8)
        N = 257
        x = np.arange(N)
        noise = ZnWeight(N, rng.random(N) / N)  # spectrum {0}
        wave = ZnWeight(N, (1.0 + 0.5 * np.cos(2 * np.pi * 5 * x / N)) / N)  # {0, 5, N - 5}
        for w, size in ((noise, 1), (wave, 3)):
            sp = spectrum(w, 0.05)
            b = bohr_set(sp.members, 0.1, N)
            (res,) = smooth_and_bound([w], [b], kappa=0.5)
            ind = np.zeros(N)
            ind[b.members] = 1.0 / b.size
            want = np.max(np.abs(1.0 - dft_direct(ind, sp.members)))
            assert len(sp.members) == size
            assert res.fourier_closeness_max == pytest.approx(want, abs=1e-12)
            assert res.fourier_closeness_max <= 16 * 0.1**2 + 1e-12
            assert res.mass_out == pytest.approx(res.mass_in, rel=1e-12)

    def test_smoothing_flattens(self):
        N = 101
        w = point_mass(N, 3)
        b = bohr_set({0}, 0.25, N)  # all of Z_N
        (res,) = smooth_and_bound([w], [b], kappa=0.5)
        assert np.allclose(res.weight.values, 1.0 / N)

    @pytest.mark.parametrize("N", [257, 5077])
    def test_paired_call_matches_single_calls(self, N):
        # the two smoothings share their transforms; a leak between the
        # paired outputs would show as a difference from separate calls.
        # Both weights have mass 1: a paired transform rounds relative to
        # the larger of its two signals
        rng = np.random.default_rng(N)
        x = np.arange(N)
        sparse = rng.random(N) * (rng.random(N) < 0.2)
        ws = [ZnWeight(N, sparse / sparse.sum()), ZnWeight(N, (1.0 + 0.5 * np.cos(2 * np.pi * 5 * x / N)) / N)]
        bs = [bohr_set(spectrum(w, 0.05).members, 0.1, N) for w in ws]
        paired = smooth_and_bound(ws, bs, kappa=0.5)
        assert len(paired) == 2
        for res, w, b in zip(paired, ws, bs):
            (alone,) = smooth_and_bound([w], [b], kappa=0.5)
            scale = np.max(alone.weight.values)
            assert np.max(np.abs(res.weight.values - alone.weight.values)) <= 1e-12 * scale
            assert res.fourier_closeness_max == pytest.approx(alone.fourier_closeness_max, abs=1e-12)
            assert res.sup_value == pytest.approx(alone.sup_value, abs=1e-12 * scale)
            assert (res.mass_in, res.sup_bound, res.sup_ok) == (alone.mass_in, alone.sup_bound, alone.sup_ok)

    def test_one_bohr_set_per_weight(self):
        w = uniform(11)
        with pytest.raises(DomainError, match="one Bohr set per weight"):
            smooth_and_bound([w, w], [bohr_set([0], 0.25, 11)], kappa=0.5)


class TestTripleSum:
    def test_point_masses(self):
        N = 13
        f = point_mass(N, 2)
        g = point_mass(N, 3)
        h = point_mass(N, 4)
        assert triple_sum(f, g, h, 9) == pytest.approx(1.0)
        assert triple_sum(f, g, h, 10) == pytest.approx(0.0, abs=1e-12)

    def test_uniform(self):
        N = 17
        u = uniform(N)
        # N^2 ordered pairs (x1, x2), each contributing N^-3
        assert triple_sum(u, u, u, 5) == pytest.approx(1.0 / N, rel=1e-10)

    def test_random_against_enumeration(self):
        rng = np.random.default_rng(9)
        N = 23
        f, g, h = (ZnWeight(N, rng.random(N)) for _ in range(3))
        want = sum(
            f.values[x1] * g.values[x2] * h.values[(7 - x1 - x2) % N]
            for x1 in range(N)
            for x2 in range(N)
        )
        assert triple_sum(f, g, h, 7) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("N", [2, 23, 24, 101, 1009])  # even N has the real term r = N/2
    @pytest.mark.parametrize("kind", ["random", "chen", "point"])
    def test_matches_direct(self, N, kind):
        rng = np.random.default_rng(N)
        if kind == "random":
            f, g, h = (ZnWeight(N, rng.random(N)) for _ in range(3))
        elif kind == "chen":
            # 1 at x when 6x + b is a Chen prime, the shape of the pipeline weights
            ps = chen_primes(6 * N + 5)
            f, g, h = (
                ZnWeight(N, np.bincount((ps[ps % 6 == b] - b) // 6, minlength=N)[:N])
                for b in (1, 5, 5)
            )
        else:
            f, g, h = (point_mass(N, int(x)) for x in rng.integers(N, size=3))
        scale = f.total() * g.total() * h.total()  # bounds every triple sum
        for target in (0, 1, int(rng.integers(N)), N - 1):
            want = triple_sum_direct(f, g, h, target)
            assert abs(triple_sum(f, g, h, target) - want) <= 1e-12 * scale
        if kind == "point":
            hit = int(np.argmax(f.values) + np.argmax(g.values) + np.argmax(h.values))
            assert triple_sum(f, g, h, hit) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("shift, raises", [(2e-8, True), (-2e-8, True), (5e-9, False)])
    def test_route_mismatch_raises(self, shift, raises):
        # point masses hitting the target: both routes give 1, and a cached
        # f~ scaled by 1 + shift scales the Fourier route alone, so the
        # shift is its relative error
        N = 13
        f, g, h = (point_mass(N, x) for x in (2, 3, 4))
        f = ZnWeight(N, f.values, _dft=f.dft * (1.0 + shift))
        if raises:
            with pytest.raises(InvariantError):
                triple_sum(f, g, h, 9)
        else:
            assert triple_sum(f, g, h, 9) == pytest.approx(1.0, rel=1e-12)


class TestPollard:
    def test_exhaustive_small(self):
        # all triples of dense-enough subsets of Z_11
        N = 11
        rng = np.random.default_rng(10)
        for _ in range(50):
            sizes = rng.integers(5, N + 1, size=3)
            sets = [rng.choice(N, size=s, replace=False) for s in sizes]
            th = [s / N for s in sizes]
            theta = min(min(th), (sum(th) - 1) / 4)
            if sum(th) <= 1 or N <= 2 / theta**2:
                with pytest.raises(DomainError):
                    pollard_check(N, *sets, y=3)
                continue
            res = pollard_check(N, *sets, y=3)
            # independent exhaustive count
            count = sum(
                1
                for a in sets[0]
                for b in sets[1]
                for c in sets[2]
                if (int(a) + int(b) + int(c)) % N == 3
            )
            assert res.count == count
            assert res.ok

    def test_rejects_composite_N(self):
        with pytest.raises(DomainError):
            pollard_check(12, range(10), range(10), range(10), 0)

    def test_repeats_are_dropped(self):
        X = list(range(10))
        res = pollard_check(11, X + [0, 11, 22], X, X, 3)
        assert res.count == 91 == pollard_direct(11, X, X, X, 3)
        assert res.theta == pytest.approx(19 / 44)
        assert res == pollard_check(11, X, X, X, 3)

    def test_padded_small_sets_fail_hypotheses(self):
        # 7 of 11 residues each: theta = 5/22 and 2 theta^-2 > 11, however
        # often the entries repeat
        X = [0, 1, 2, 3, 4, 5, 6]
        with pytest.raises(DomainError):
            pollard_check(11, X + [0, 1, 2], X + [3, 4, 5], X + [6, 6, 6], 3)

    def test_representatives_outside_range(self):
        rng = np.random.default_rng(11)
        N = 101
        sets = [rng.choice(N, size=70, replace=False) for _ in range(3)]
        want = pollard_check(N, *sets, y=5)
        assert want.count == pollard_direct(N, *sets, y=5)
        moved = [s + N * rng.integers(-3, 4, size=s.size) for s in sets]
        assert pollard_check(N, *moved, y=5 + 2 * N) == want
        assert pollard_check(N, *moved, y=5 - N) == want

    def test_empty_set_fails_hypotheses(self):
        with pytest.raises(DomainError):
            pollard_check(11, [], range(11), range(11), 0)

    @pytest.mark.parametrize("N", [0, -5])
    def test_N_below_1(self, N):
        with pytest.raises(DomainError, match=f"N must be >= 1, got {N}"):
            pollard_check(N, [1], [1], [1], 0)

    def test_N_above_the_table_budget(self, monkeypatch):
        monkeypatch.setattr(chen3.transference, "np", None)  # any numpy call would fail
        with pytest.raises(ResourceBudgetError):
            pollard_check(ZN_POINT_BUDGET + 1, [0], [0], [0], 0)


class TestPollardGuard:
    @staticmethod
    def sets():
        rng = np.random.default_rng(12)
        return [rng.choice(101, size=70, replace=False) for _ in range(3)]

    def test_perturbed_convolution_raises(self, monkeypatch):
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda a, n: irfft(a, n) + 0.3)
        with pytest.raises(InvariantError):
            pollard_check(101, *self.sets(), y=5)

    def test_small_error_is_rounded_away(self, monkeypatch):
        want = pollard_check(101, *self.sets(), y=5)
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda a, n: irfft(a, n) - 0.2)
        assert pollard_check(101, *self.sets(), y=5) == want


class TestParameters:
    def test_varpi(self):
        led = choose_parameters(99_999)
        assert led.varpi == pytest.approx(1e-4)

    def test_W_at_1e6(self):
        led = choose_parameters(999_999)
        assert led.W == 6 and led.w == 5

    def test_N_in_window(self):
        led = choose_parameters(99_999)
        k2 = led.kappa**2
        lo = (1 + k2 / 20) * led.n / led.W
        hi = (1 + k2 / 10) * led.n / led.W
        assert lo <= led.N <= hi

    def test_desk_Q_band(self):
        for n in (9_999, 99_999, 999_999):
            led = choose_parameters(n)
            Q = math.log(n) ** led.B
            assert 10 <= Q <= 1000

    def test_k0_rule(self):
        from chen3.rosser_sieve import linear_sieve_F_f

        led = choose_parameters(99_999)
        F, f = linear_sieve_F_f(led.k0 / 4)
        assert 20 * (F - f) <= led.kappa**2
        Fp, fp = linear_sieve_F_f((led.k0 - 1) / 4)
        assert led.k0 == 8 or 20 * (Fp - fp) > led.kappa**2

    def test_paper_profile_inequality(self):
        # the parameter chain at C = 1 satisfies its budget, far outside the
        # float range: log10 delta, log10 epsilon and log10(-log10 kappa)
        log_delta, log_eps, log_E, margin = paper_logs(1e-4, 1.0, 1.0)
        ln10 = math.log(10)
        assert log_delta / ln10 == pytest.approx(-340.058712397238, rel=1e-12)
        assert log_eps / ln10 == pytest.approx(-1374.86763581982, rel=1e-12)
        log_neg_log10_kappa = (log_E + math.log(-log_eps) - math.log(ln10)) / ln10
        assert log_neg_log10_kappa == pytest.approx(1365.15126172819, rel=1e-12)
        assert margin == pytest.approx(-math.log(2), rel=1e-12)  # lhs = varpi^6 / 2
        # as floats all three underflow to 0.0: an honest configuration
        # failure before any stage runs, not a silent fallback, naming the logs
        with pytest.raises(ConfigError, match=re.escape(
                "kappa, delta, epsilon; override each with KEY=VALUE (log10(-log10 kappa) = "
                "1365.151262, log10 delta = -340.058712, log10 epsilon = -1374.867636)")):
            choose_parameters(99_999, profile="paper")

    def test_paper_logs_match_decimal_oracle(self):
        # C3, C4 in {1e-30, 1e-27, ..., 1e3} at two varpi, where the inequality
        # holds, and two points where it fails: the same verdict, and logs
        # equal to 1e-12
        grid = [10.0 ** i for i in range(-30, 4, 3)]
        points = [(v, c3, c4) for v in (1e-4, 5e-5) for c3 in grid for c4 in grid]
        held = 0
        for point in points + [(1e-4, 10.0, 1e-200), (1e-4, 1e4, 1e-200)]:
            want = paper_logs_direct(*point)
            if want[3] > 0:
                with pytest.raises(PaperAssertionError, match=r"^parameter inequality failed"):
                    paper_logs(*point)
            else:
                assert paper_logs(*point) == pytest.approx(want, rel=1e-12, abs=1e-12), point
                held += 1
        assert held == len(points) == 288

    @pytest.mark.parametrize("key, value", [("C1", 0.0), ("C1", -1.0), ("C3", 0.0), ("C4", -1.0)])
    def test_paper_formula_needs_positive_constants(self, key, value):
        with pytest.raises(ConfigError, match=r"^the paper profile needs C1 C2 > 0, C3 > 0 and C4 > 0"):
            choose_parameters(99_999, profile="paper", overrides={**PASSING, key: value})

    def test_overrides(self):
        led = choose_parameters(99_999, overrides={"kappa": 0.3})
        assert led.kappa == 0.3 and led.provenance["kappa"] == "override"
        assert led.provenance["delta"] == "desk-default"
        with pytest.raises(ConfigError):
            choose_parameters(99_999, overrides={"bogus": 1})

    @pytest.mark.parametrize("profile", ["desk", "paper"])
    @pytest.mark.parametrize("key, value", [
        ("kappa", 0.0), ("kappa", -0.5), ("delta", 0.0), ("delta", -1.0),
        ("epsilon", 0.0), ("epsilon", -0.05), ("epsilon", 0.6),
        # not finite, or kappa^2 not finite: overflow in k0 and N, or a
        # payload that is not JSON
        ("kappa", math.inf), ("kappa", 1e200), ("kappa", math.nan), ("delta", math.inf),
        ("epsilon", math.nan), ("B", math.inf), ("C1", math.nan), ("C3", -math.inf),
    ])
    def test_override_out_of_range(self, profile, key, value):
        overrides = {"kappa": 0.9, "delta": 0.05, "epsilon": 0.05, key: value}
        with pytest.raises(ConfigError, match=re.escape(f"{key}={value}") + "$"):
            choose_parameters(30_003, profile=profile, overrides=overrides)

    def test_paper_formula_value_out_of_range(self):
        # tiny C3 and C4 give delta = 1 and epsilon = 1 from the formula: the
        # check on the resolved values refuses it before any stage runs
        with pytest.raises(ConfigError, match=r"epsilon=1\.0$"):
            choose_parameters(30_003, profile="paper",
                              overrides={"kappa": 0.9, "delta": 0.2, "C3": 1e-30, "C4": 1e-30})

    @pytest.mark.parametrize("kappa", [1e4, 1e150])
    def test_N_above_the_table_budget(self, monkeypatch, kappa):
        # N = 8.3e10 would be np.zeros(N) in build_weights; at 8.3e302 the
        # prime search would run far outside is_prime_u64's range
        def no_search(lo, hi):
            raise AssertionError("find_prime_in reached")

        monkeypatch.setattr(chen3.transference, "find_prime_in", no_search)
        with pytest.raises(ResourceBudgetError, match=re.escape(f"kappa={kappa})")):
            choose_parameters(99_999, overrides={"kappa": kappa})

    def test_empty_N_window_names_kappa(self):
        # kappa = varpi = 1e-4 leaves a window 8.3e-6 wide around n/W
        with pytest.raises(ConfigError, match=re.escape(
                "no prime in [16666.50, 16666.50]: kappa = 0.0001 (paper-formula) makes the "
                "window (1 + kappa^2/20, 1 + kappa^2/10) n/W 8.33e-06 wide")):
            choose_parameters(99_999, profile="paper", overrides={
                "C3": 1e-30, "C4": 1e-30, "delta": 0.2, "epsilon": 0.05})

    def test_override_range_names_each_bad_key(self):
        with pytest.raises(ConfigError, match="kappa=0.0, delta=-1.0$"):
            choose_parameters(30_003, overrides={"kappa": 0.0, "delta": -1.0})

    def test_constant_override_reaches_varpi(self):
        led = choose_parameters(99_999, overrides={"C2": 0.5})
        assert led.C2 == 0.5 and led.provenance["C2"] == "override"
        assert led.varpi == pytest.approx(0.5e-4)

    def test_derived_values_cannot_be_overridden(self):
        for key, val in (("W", 30.0), ("b1", 7.0), ("N", 16880.0), ("varpi", 0.1)):
            with pytest.raises(ConfigError):
                choose_parameters(99_999, overrides={key: val})

    def test_bad_profile(self):
        with pytest.raises(ConfigError):
            choose_parameters(99_999, profile="galaxy")


class TestResidues:
    def test_examples(self):
        assert split_residues(33, 6) == (5, 5, 5)
        assert split_residues(99_999, 6) == (5, 5, 5)
        assert split_residues(9, 2) == (1, 1, 1)

    def test_admissibility(self):
        for n, W in ((45, 6), (105, 30)):
            bs = split_residues(n, W)
            assert sum(bs) % W == n % W
            for b in bs:
                assert math.gcd(b * (b + 2), W) == 1

    def test_domain(self):
        with pytest.raises(DomainError):
            split_residues(10, 6)


class TestOneChenWeight:
    """a1 and a2 are one weight: b1 = b2 for every ledger choose_parameters
    can return, since W = 30 would put N above ZN_POINT_BUDGET."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(7, (8 * 10**8 - 3) // 6))
    def test_one_residue_under_the_budget(self, k):
        n = 6 * k + 3  # the odd multiples of 3 in [45, 8e8]
        try:
            led = choose_parameters(n)
        except (ResourceBudgetError, ConfigError):
            return
        assert led.W in (2, 6)
        assert led.b1 == led.b2 == led.b3

    def test_W_30_is_over_the_budget(self):
        assert select_W(100_000_000_000_005)[0] == 30
        with pytest.raises(ResourceBudgetError):
            choose_parameters(100_000_000_000_005)

    def test_distinct_b1_b2_rejected(self):
        led = choose_parameters(9_999)
        with pytest.raises(DomainError, match="b1 = b2"):
            build_weights(replace(led, b2=1))

    def test_short_table_rejected(self):
        # a table to about n/2 covers the Chen primes of a1 but not the
        # primes of a3, which run to n: no a3 support cut at the table's end
        led = choose_parameters(30_003)
        assert build_weights(led, build_factor_table(30_005)).support_sizes[2] == 1632
        with pytest.raises(DomainError, match="does not cover"):
            build_weights(led, build_factor_table(18_001))

    @pytest.mark.parametrize("n", [30_003, 99_999, 999_999])
    def test_a2_entries_repeat_a1(self, n):
        built = build_weights(choose_parameters(n))
        assert built.a1 is built.a2 and built.support_x[0] is built.support_x[1]
        stages = {s["stage"]: s for s in run_transference(n, ground_truth=False)["stages"]}
        entries = [stages["weights"]["support_sizes"], stages["weights"]["sums"],
                   stages["spectra"]["sizes"], stages["spectra"]["chebyshev_bounds"],
                   stages["bohr_sets"]["sizes"], stages["bohr_sets"]["pigeonhole_lower"],
                   stages["smoothing"]["per_weight"], stages["level_sets"]["sizes"],
                   stages["pollard"]["thetas"]]
        for entry in entries:
            assert len(entry) == 3 and entry[0] == entry[1]

    @pytest.mark.parametrize("n", [30_003, 99_999, 300_003])
    def test_raw_triple_sum_is_the_integer_count(self, n):
        # no wrap on the supports: the Z_N sum is the weighted count of
        # x1 + x2 + x3 = n' over the integers, here one gather over s2 per x1
        rep = run_transference(n, ground_truth=False)
        led = choose_parameters(n)
        built = build_weights(led)
        s1, s2, s3 = built.support_x
        assert max(s1.max(), s3.max()) < led.N  # a_i(x) is values[x]
        a3_on_z = np.zeros(int(s3.max()) + 1)
        a3_on_z[s3] = built.a3.values[s3]
        total = 0.0
        for x1 in s1:
            x3 = rep["n_prime"] - x1 - s2
            ok = (x3 >= 0) & (x3 < a3_on_z.size)
            total += built.a1.values[x1] * np.dot(built.a2.values[s2[ok]], a3_on_z[x3[ok]])
        assert total > 0
        assert rep["raw_triple_sum"] == pytest.approx(total, rel=1e-12)


class TestPipeline:
    def test_one_factor_table(self, monkeypatch):
        calls = []

        def counting(hi):
            calls.append(hi)
            return build_factor_table(hi)

        for module in (chen3.transference, chen3.goldbach_verify):
            monkeypatch.setattr(module, "build_factor_table", counting)
        rep = run_transference(9999)
        assert calls == [10001]
        assert rep["ground_truth_representations"] > 0

    def test_weight_sums_recorded(self):
        led = choose_parameters(9_999)
        built = build_weights(led)
        assert all(s > 0 for s in built.sums)
        assert all(sz > 0 for sz in built.support_sizes)
        # every support point carries a prime of the right residue
        x = int(built.support_x[2][0])
        p = led.W * x + led.b3
        from chen3.arith_core import is_prime_u64

        assert is_prime_u64(p)

    def test_weights_carry_their_spectra(self):
        # build_weights transforms a1 and a3 together; run_transference and
        # the stages read the spectra it stored
        built = build_weights(choose_parameters(30003))
        assert built.a2 is built.a1
        for w in (built.a1, built.a3):
            assert w._dft is not None
            assert np.max(np.abs(w._dft - np.fft.fft(w.values))) <= 1e-12 * w.total()

    @pytest.mark.parametrize("n", [9999, 30003])
    def test_a3_support_by_trial_division(self, n):
        # the x >= 1 with W x + b3 prime and no prime below z0 dividing W x + b3 + 2
        led = choose_parameters(n)
        W, b3 = led.W, led.b3
        z0 = n ** (1.0 / led.k0)
        small = [p for p in range(2, math.ceil(z0)) if p < z0 and is_prime_u64(p)]
        want = [x for x in range(1, (n - b3) // W + 1)
                if is_prime_u64(W * x + b3) and all((W * x + b3 + 2) % p for p in small)]
        assert build_weights(led).support_x[2].tolist() == want

    @pytest.mark.parametrize("k0", [2, 3, 5])
    def test_a3_support_sifted_below_z0(self, k0):
        # the desk k0 puts z0 below 2, where nothing is sifted; a smaller k0
        # makes the condition on p + 2 bite
        n = 30003
        led = replace(choose_parameters(n), k0=k0)
        W, b3 = led.W, led.b3
        z0 = n ** (1.0 / k0)
        small = [p for p in range(2, math.ceil(z0)) if is_prime_u64(p)]
        want = [x for x in range(1, (n - b3) // W + 1)
                if is_prime_u64(W * x + b3) and all((W * x + b3 + 2) % p for p in small)]
        assert small and len(want) < build_weights(choose_parameters(n)).support_sizes[2]
        assert build_weights(led).support_x[2].tolist() == want

    def test_end_to_end_small(self):
        rep = run_transference(9_999)
        assert rep["raw_triple_sum_positive"]
        assert rep["lift_check"]["lifts_to_integers"]
        stages = {s["stage"]: s for s in rep["stages"]}
        assert stages["threesum_comparison"]["status"] == "diagnostic"
        assert rep["ground_truth_representations"] > 0

    def test_lift_is_least_witness(self):
        n = 30003
        rep = run_transference(n, ground_truth=False)
        led = choose_parameters(n)
        s1, s2, s3 = build_weights(led).support_x
        in_s3 = set(s3.tolist())
        want = next(
            [x1, x2, rep["n_prime"] - x1 - x2]
            for x1 in s1.tolist()
            for x2 in s2.tolist()
            if rep["n_prime"] - x1 - x2 in in_s3
        )
        lift = rep["lift_check"]
        assert lift["x"] == want
        assert sum(lift["primes"]) == n and lift["lifts_to_integers"]

    def test_wrapping_supports_raise(self, monkeypatch):
        # two checks, with N patched below choose_parameters' choice: a
        # support point x >= N (build_weights places x at x, never mod N),
        # and support maxima x1 + x2 + x3 >= n' + N (run_transference).  The
        # supports reach 827 + 827 + 1656 at n = 9999 and 38 + 38 + 76 at
        # n = 465, where N = 77 clears every x but not the sum n' + N = 152
        maxima = {9999: [827, 827, 1656], 465: [38, 38, 76]}
        for n, want in maxima.items():
            assert [int(xs.max()) for xs in build_weights(choose_parameters(n)).support_x] == want
        cases = ((9999, 1656, "support point x = 1656 is not below N = 1656"), (9999, 1657, None),
                 (465, 76, "support point x = 76 is not below N = 76"),
                 (465, 77, r"support maxima sum to 152 >= n' \+ N = 152"), (465, 78, None))
        for n, N, message in cases:
            monkeypatch.setattr(chen3.transference, "find_prime_in", lambda lo, hi, N=N: N)
            if message:
                with pytest.raises(InvariantError, match=f"^{message}$"):
                    run_transference(n, ground_truth=False)
            else:
                assert run_transference(n, ground_truth=False)["ledger"]["N"] == N

    def test_rejects_bad_n(self):
        with pytest.raises(DomainError):
            run_transference(100)

    @given(
        st.sampled_from([30003, 99999]),
        st.floats(min_value=-12.0, max_value=1.0).map(lambda e: 10.0 ** e),
        st.one_of(st.just(0.5),  # 10^-0.3 is above 1/2
                  st.floats(min_value=-12.0, max_value=-0.3).map(lambda e: min(10.0 ** e, 0.5))),
    )
    @example(n=99999, delta=1e-12, eps=0.5)  # every frequency, and no pass
    @example(n=99999, delta=1e-12, eps=1e-12)
    @settings(max_examples=25, deadline=None)
    def test_tiny_delta_and_epsilon(self, n, delta, eps):
        # each stage raises InvariantError on a broken identity
        rep = run_transference(n, overrides={"delta": delta, "epsilon": eps}, ground_truth=False)
        stages = {s["stage"]: s for s in rep["stages"]}
        spectra, bohrs = stages["spectra"], stages["bohr_sets"]
        for size, bound in zip(spectra["sizes"], spectra["chebyshev_bounds"]):
            assert size <= bound
        for size, lower in zip(bohrs["sizes"], bohrs["pigeonhole_lower"]):
            assert size >= lower

    def test_transform_count(self, monkeypatch):
        # two real signals per length-N DFT: one for the distinct weights
        # (a1 = a2, a3), one for their Bohr indicators, and one inverse for
        # both smoothings, of the product spectra a~ b~ b~
        calls = {"fft": 0, "ifft": 0}
        for name in calls:
            def counting(a, *args, fn=getattr(np.fft, name), name=name, **kwargs):
                calls[name] += 1
                return fn(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, counting)
        run_transference(30003)
        assert calls == {"fft": 2, "ifft": 1}

    def test_spectra_closed_under_negation(self, monkeypatch):
        # exactly Hermitian transforms: |f~(r)| = |f~(N - r)| bit for bit
        found = []
        spectrum = chen3.transference.spectrum
        monkeypatch.setattr(chen3.transference, "spectrum", lambda *a: found.append(spectrum(*a)) or found[-1])
        N = run_transference(99999, ground_truth=False)["ledger"]["N"]
        assert len(found) == 2 and max(sp.members.size for sp in found) > 1
        for sp in found:
            assert np.array_equal(np.sort(-sp.members % N), sp.members)

    def test_fft_routes_match_direct(self, monkeypatch):
        # N = 5077: the Pollard count and the raw triple sum of the pipeline
        # against their O(N^2) oracles, on the arguments the pipeline passes
        calls = {"pollard_check": [], "triple_sum": []}
        for name in calls:
            fn = getattr(chen3.transference, name)

            def spy(*args, fn=fn, name=name, **kwargs):
                out = fn(*args, **kwargs)
                calls[name].append((args, kwargs, out))
                return out

            monkeypatch.setattr(chen3.transference, name, spy)
        rep = run_transference(30003, ground_truth=False)
        assert rep["ledger"]["N"] == 5077
        [(args, kwargs, pres)] = calls["pollard_check"]
        assert pres.count == pollard_direct(*args, **kwargs)
        stages = {s["stage"]: s for s in rep["stages"]}
        assert stages["pollard"]["count"] == pres.count
        assert [len(x) for x in args[1:4]] == stages["level_sets"]["sizes"]
        (args, _, raw), _smoothed = calls["triple_sum"]
        assert raw == rep["raw_triple_sum"]
        assert raw == pytest.approx(triple_sum_direct(*args), rel=1e-12)


# n = 99999 under the paper profile with finite kappa, delta and epsilon.  At
# delta = 0.2 every inequality whose precondition holds is true (a3's sup
# precondition is false); at delta = 0.05 the level-set bound fails.
PAPER_N = 99_999
PASSING = {"kappa": 0.9, "delta": 0.2, "epsilon": 0.05}
FAILING = {"kappa": 0.9, "delta": 0.05, "epsilon": 0.05}


def _halved(res):
    """A smoothing result whose weight is zero at every even x."""
    N = res.weight.N
    return replace(res, weight=ZnWeight(N, res.weight.values * (np.arange(N) % 2)))


# stage -> (stage function to wrap, edit of its result, start of the message)
FORCED = {
    "weights": ("build_weights", lambda b: replace(b, sums=b.sums[:2] + (5.0,)), "sum a3 = 5.0"),
    "smoothing": ("smooth_and_bound", lambda rs: [replace(r, sup_ok=False) for r in rs], "sup a' = "),
    "level_sets": ("smooth_and_bound", lambda rs: [_halved(r) for r in rs], "|A3| = "),
    "threesum_comparison": ("threesum_comparison", lambda c: replace(c, ok=False), "threesum diff"),
}


def _claims(stage: dict) -> tuple[list, list]:
    """The statuses and ok flags of the claimed inequalities in one stage."""
    name = stage["stage"]
    if name == "weights":
        lo, hi = stage["a3_sum_band"]
        return [stage["a3_sum_status"]], [lo <= stage["sums"][2] <= hi]
    if name == "smoothing":
        per = stage["per_weight"]
        return [w["status"] for w in per], [w["sup_ok"] for w in per]
    if name == "level_sets":
        return [stage["A3_lower_status"]], [stage["A3_lower_ok"]]
    return [stage["status"]], [stage["ok"]]


def _stages(profile: str) -> dict:
    """The stages, by name, of the n = 99999 run with the PASSING overrides."""
    rep = run_transference(PAPER_N, profile, PASSING, ground_truth=False)
    return {s["stage"]: s for s in rep["stages"]}


class TestPaperClaims:
    def test_passing_run_asserts(self):
        stages = _stages("paper")
        assert [_claims(stages[name]) for name in FORCED] == [
            (["asserted"], [True]),
            (["asserted", "asserted", "diagnostic"], [True, True, True]),
            (["asserted"], [True]),
            (["asserted"], [True]),
        ]
        assert [w["precondition_holds"] for w in stages["smoothing"]["per_weight"]] == [
            True, True, False]

    def test_level_set_bound_fails(self):
        with pytest.raises(PaperAssertionError,
                           match=r"^\|A3\| = 13172 below \(1 - 3 varpi\) N = 17345\.79"):
            run_transference(PAPER_N, "paper", FAILING, ground_truth=False)

    @pytest.mark.parametrize("name", list(FORCED))
    def test_forced_failure(self, monkeypatch, name):
        fn_name, edit, message = FORCED[name]
        fn = getattr(chen3.transference, fn_name)
        monkeypatch.setattr(chen3.transference, fn_name, lambda *a: edit(fn(*a)))
        with pytest.raises(PaperAssertionError) as info:
            _stages("paper")
        assert str(info.value).startswith(message)
        statuses, oks = _claims(_stages("desk")[name])
        assert set(statuses) == {"diagnostic"} and not any(oks)

    def test_sup_without_precondition_is_diagnostic(self, monkeypatch):
        # a3's sup bound fails, but its precondition is false: no assertion
        a3 = []
        build, smooth = chen3.transference.build_weights, chen3.transference.smooth_and_bound

        def keep_a3(*args):
            built = build(*args)
            a3.append(built.a3)
            return built

        def a3_fails(weights, *args):
            return [replace(res, sup_ok=False) if a is a3[-1] else res
                    for a, res in zip(weights, smooth(weights, *args))]

        monkeypatch.setattr(chen3.transference, "build_weights", keep_a3)
        monkeypatch.setattr(chen3.transference, "smooth_and_bound", a3_fails)
        per_weight = _stages("paper")["smoothing"]["per_weight"]
        assert [(w["sup_ok"], w["precondition_holds"], w["status"]) for w in per_weight] == [
            (True, True, "asserted"), (True, True, "asserted"), (False, False, "diagnostic")]
