import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chen3.goldbach_verify
import chen3.transference
from chen3.arith_core import build_factor_table, chen_primes
from chen3.errors import ConfigError, DomainError, InvariantError
from chen3.transference import (
    ZnWeight,
    bohr_set,
    build_weights,
    choose_parameters,
    convolve,
    paper_kappa_delta_epsilon,
    pollard_check,
    run_transference,
    smooth_and_bound,
    spectrum,
    split_residues,
    triple_sum,
)
from oracles import convolve_direct, dft_direct, pollard_direct, triple_sum_direct


class TestZnWeight:
    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            ZnWeight(4, np.array([1.0, -0.1, 0, 0]))

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
        w = ZnWeight.point_mass(11, 4)
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
            convolve(ZnWeight.uniform(8), ZnWeight.uniform(9))

    def test_mass_multiplies(self):
        f, g = ZnWeight.uniform(32), ZnWeight.point_mass(32, 5)
        assert convolve(f, g).total() == pytest.approx(1.0)


class TestSpectrum:
    def test_point_mass_full(self):
        w = ZnWeight.point_mass(11)
        sp = spectrum(w, 0.5)
        assert sp.members == tuple(range(11))

    def test_uniform_only_zero(self):
        sp = spectrum(ZnWeight.uniform(101), 0.5)
        assert sp.members == (0,)

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


class TestSmoothing:
    def test_beta_one_on_spectrum(self):
        rng = np.random.default_rng(8)
        N = 257
        w = ZnWeight(N, rng.random(N) / N)
        sp = spectrum(w, 0.05)
        b = bohr_set(sp.members, 0.1, N)
        res = smooth_and_bound(w, b, kappa=0.5, spec=sp)
        assert res.fourier_closeness_max <= 16 * 0.1**2 + 1e-12
        assert res.mass_out == pytest.approx(res.mass_in, rel=1e-12)

    def test_smoothing_flattens(self):
        N = 101
        w = ZnWeight.point_mass(N, 3)
        b = bohr_set({0}, 0.25, N)  # all of Z_N
        res = smooth_and_bound(w, b, kappa=0.5)
        assert np.allclose(res.weight.values, 1.0 / N)


class TestTripleSum:
    def test_point_masses(self):
        N = 13
        f = ZnWeight.point_mass(N, 2)
        g = ZnWeight.point_mass(N, 3)
        h = ZnWeight.point_mass(N, 4)
        assert triple_sum(f, g, h, 9) == pytest.approx(1.0)
        assert triple_sum(f, g, h, 10) == pytest.approx(0.0, abs=1e-12)

    def test_uniform(self):
        N = 17
        u = ZnWeight.uniform(N)
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

    @pytest.mark.parametrize("N", [23, 101, 1009])
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
            f, g, h = (ZnWeight.point_mass(N, int(x)) for x in rng.integers(N, size=3))
        scale = f.total() * g.total() * h.total()  # bounds every triple sum
        for target in (0, 1, int(rng.integers(N)), N - 1):
            want = triple_sum_direct(f, g, h, target)
            assert abs(triple_sum(f, g, h, target) - want) <= 1e-12 * scale
        if kind == "point":
            hit = int(np.argmax(f.values) + np.argmax(g.values) + np.argmax(h.values))
            assert triple_sum(f, g, h, hit) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("shift, raises", [(2e-8, True), (-2e-8, True), (5e-9, False)])
    def test_route_mismatch_raises(self, monkeypatch, shift, raises):
        # point masses hitting the target: both routes give 1, so the shift
        # of the Fourier route is its relative error
        N = 13
        f, g, h = (ZnWeight.point_mass(N, x) for x in (2, 3, 4))
        ifft = np.fft.ifft
        monkeypatch.setattr(np.fft, "ifft", lambda a: ifft(a) + shift)
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
        assert led.R == pytest.approx(led.N**0.1)

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
        # the arbitrary-precision parameter chain must satisfy its budget
        delta, epsilon, kappa = paper_kappa_delta_epsilon(1e-4, 1.0, 1.0)
        assert delta < mpmath.mpf(10) ** -100  # far below float range
        assert epsilon <= delta and kappa <= 1e-4
        # at desk-sized n the paper window around n/W contains no integer:
        # an honest configuration failure, not a silent fallback
        with pytest.raises(ConfigError):
            choose_parameters(99_999, profile="paper")

    def test_overrides(self):
        led = choose_parameters(99_999, overrides={"kappa": 0.3})
        assert led.kappa == 0.3 and led.provenance["kappa"] == "desk-default"
        with pytest.raises(ConfigError):
            choose_parameters(99_999, overrides={"bogus": 1})

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

    def test_end_to_end_small(self):
        rep = run_transference(9_999)
        assert rep["raw_triple_sum_positive"]
        assert rep["lift_check"]["lifts_to_integers"]
        stages = {s["stage"]: s for s in rep["stages"]}
        assert stages["threesum_comparison"]["status"] == "diagnostic"
        assert rep["ground_truth_representations"] > 0

    def test_rejects_bad_n(self):
        with pytest.raises(DomainError):
            run_transference(100)

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
