import json
import math
import pathlib
import re

import numpy as np
import pytest

from resoforge.fourier import (
    ConfigError,
    OneDTrigPoly,
    TrigPoly,
    generators,
    l1,
    lacunary_potential,
    project_lattice,
)
from resoforge.genericity import (
    Failure,
    GenericityParams,
    MembershipReport,
    _BLOCK,
    _disks,
    _spawn_keys,
    check_low_mode_morse,
    check_lower_bound,
    check_membership,
    empirical_genericity,
    sample_product_measure,
    threshold_N,
)
from resoforge.morse import cosine_certificate, critical_points
from reference import reference_project_lattice


def _philox(seed) -> np.random.Generator:
    """numpy's own Philox stream for a seed or SeedSequence: the oracle of the keyed draws."""
    return np.random.Generator(np.random.Philox(seed))


def _key(seed) -> np.ndarray:
    """The one-row key array of the stream that _philox(seed) draws from."""
    return np.random.SeedSequence(seed).generate_state(2, np.uint64)[None]


class TestThreshold:
    def test_hand_value_n2_s1_delta1(self):
        # 2 (44 ln 2 + 2 ln(4/e)) evaluated independently
        want = 2.0 * (44.0 * math.log(2.0) + 2.0 * math.log(4.0 / math.e))
        assert threshold_N(2, 1.0, 1.0) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(62.54, abs=0.01)

    def test_always_at_least_two_c_s(self):
        for n in (1, 2, 3):
            for s in (0.1, 0.5, 1.0, 3.0):
                for delta in (1e-6, 0.01, 1.0):
                    assert threshold_N(n, s, delta) >= 2 * max(1.0, 1.0 / s) - 1e-12

    def test_monotone_in_delta_and_s(self):
        deltas = np.logspace(-6, 0, 12)
        for a, b in zip(deltas, deltas[1:]):
            assert threshold_N(2, 1.0, a) >= threshold_N(2, 1.0, b)
        widths = np.linspace(0.1, 4.0, 12)
        for a, b in zip(widths, widths[1:]):
            assert threshold_N(2, a, 0.3) >= threshold_N(2, b, 0.3)

    def test_halving_delta_adds_2log2_over_s(self):
        for s in (0.5, 1.0, 2.0):
            d = 0.25
            lhs = threshold_N(2, s, d / 2) - threshold_N(2, s, d)
            assert lhs == pytest.approx(2 * math.log(2.0) / s, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            threshold_N(0, 1.0, 0.5)
        with pytest.raises(ConfigError):
            threshold_N(2, 1.0, 1.5)


def small_window_params(n=2, s=1.0, delta=0.5, beta=1e-3, K_max=70):
    return GenericityParams(n=n, s=s, delta=delta, beta=beta, K_max=K_max)


class TestParams:
    @pytest.mark.parametrize("beta", [math.nan, math.inf, -1.0])
    def test_rejects_beta_not_finite_and_nonnegative(self, beta):
        # a NaN beta used to admit the lacunary potential: every comparison
        # with it is false, so no projection failed the Morse test
        with pytest.raises(ConfigError, match="^beta must be finite and nonnegative"):
            GenericityParams(n=2, s=4.0, delta=1.0, beta=beta, K_max=20)

    def test_beta_zero_is_admissible(self):
        assert GenericityParams(n=2, s=4.0, delta=1.0, beta=0.0, K_max=20).beta == 0.0


class TestLowerBound:
    def test_lacunary_passes_any_delta(self):
        params = small_window_params(delta=1.0)
        f = lacunary_potential(2, 1.0, k_max=params.K_max)
        failures, checked, margin = check_lower_bound(f, params)
        assert not failures and checked > 0
        assert margin >= 0.0

    def test_missing_mode_fails_with_witness(self):
        params = small_window_params(delta=1.0)
        f = lacunary_potential(2, 1.0, k_max=params.K_max)
        victim = next(k for k in generators(2, params.K_max)
                      if l1(k) >= params.N)
        coeffs = dict(f.coeffs)
        coeffs.pop(victim)
        g = TrigPoly(2, coeffs)  # no rule: missing coefficient is zero
        failures, _, _ = check_lower_bound(g, params)
        assert any(fail.k == victim and fail.reason == "lower-bound"
                   for fail in failures)

    def test_boundary_equality_passes(self):
        params = small_window_params(delta=0.5, K_max=66)
        n, s = 2, 1.0
        coeffs = {
            k: params.delta * l1(k) ** (-n) * math.exp(-l1(k) * s)
            for k in generators(n, params.K_max) if l1(k) >= params.N
        }
        f = TrigPoly(n, coeffs)
        failures, checked, margin = check_lower_bound(f, params)
        assert not failures and checked == len(coeffs)
        assert margin == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("case", ["sampled", "rule-backed"])
    def test_matches_per_generator_scan(self, case):
        # failures, count and margin equal, bit for bit, a scalar loop over
        # the window, with every fifth window mode damped to make failures;
        # rule-backed: the rule answers beyond the materialized support
        if case == "sampled":
            N = threshold_N(2, 5.0, 0.1)
            params = GenericityParams(n=2, s=5.0, delta=0.1, beta=0.0, K_max=N + 10.0)
            fs = [sample_product_measure(2, 5.0, N + 10.0, [101, 5, i]) for i in range(4)]
        else:
            params = small_window_params(delta=0.9, K_max=80)
            fs = [lacunary_potential(2, 1.0, k_max=70, amplitude=a) for a in (1.0, 0.8)]
        window = generators(2, params.K_max, min_order=math.ceil(params.N))
        for f in fs:
            damped = {k: 1e-6 * f.coeff(k) for k in window[::5]}
            for g in (f, TrigPoly(2, {**f.coeffs, **damped}, rule=f.rule, rule_cutoff=f.rule_cutoff)):
                want, worst = [], math.inf
                for k in window:
                    ratio = abs(g.coeff(k)) / (params.delta * l1(k) ** -2 * math.exp(-l1(k) * params.s))
                    worst = min(worst, ratio - 1.0)
                    want += [k] if ratio < 1.0 else []
                failures, checked, margin = check_lower_bound(g, params)
                assert ([fail.k for fail in failures], checked, margin) == (want, len(window), worst)
        assert want  # the damped modes fail

    def test_cutoff_below_threshold(self):
        params = GenericityParams(n=2, s=1.0, delta=1.0, beta=0.1, K_max=10)
        f = lacunary_potential(2, 1.0, k_max=10)
        with pytest.raises(ConfigError, match="cutoff below threshold"):
            check_lower_bound(f, params)


class TestLowModeMorse:
    def test_lacunary_beta_window(self):
        # every projection is 2 e^{-s|k|_1} cos: passes iff beta <= the minimum
        params = GenericityParams(n=2, s=4.0, delta=1.0, beta=1e-30, K_max=20)
        f = lacunary_potential(2, 4.0, k_max=params.N + 1)
        failures, checked, margin = check_low_mode_morse(f, params)
        assert not failures and checked > 0
        hi = math.floor(params.N)
        min_beta = 2 * math.exp(-4.0 * hi)
        tight = GenericityParams(n=2, s=4.0, delta=1.0, beta=2 * min_beta, K_max=20)
        failures, _, _ = check_low_mode_morse(f, tight)
        assert failures  # beta above the weakest projection's constant

    def test_vanishing_projection_recorded(self):
        params = GenericityParams(n=2, s=4.0, delta=1.0, beta=0.0, K_max=20)
        f = TrigPoly(2, {(1, 0): 1.0})
        failures, _, _ = check_low_mode_morse(f, params)
        assert any(fail.reason == "morse" for fail in failures)
        assert not any(fail.k == (1, 0) for fail in failures)

    def test_vanishing_derivative_between_others(self):
        # one projection in the middle of the batch has max|F'| < 1e-300; it
        # fails without aborting the census of the projections around it
        params = GenericityParams(n=2, s=4.0, delta=1.0, beta=1e-30, K_max=20)
        gens = generators(2, params.N)
        tiny = gens[len(gens) // 2]
        coeffs = {k: math.exp(-4.0 * l1(k)) for k in gens}
        f = TrigPoly(2, coeffs | {tiny: 1e-310})
        failures, checked, margin = check_low_mode_morse(f, params)
        assert failures == [Failure(tiny, "morse")] and checked == len(gens) > 2
        assert margin == -params.beta
        with pytest.raises(ConfigError):
            critical_points(project_lattice(f, tiny))
        # with a regular coefficient at tiny every projection passes, and the
        # margin is that of the weakest lone census
        g = TrigPoly(2, coeffs)
        failures, _, margin = check_low_mode_morse(g, params)
        assert not failures
        assert margin == min(critical_points(project_lattice(g, k)).beta for k in gens) - params.beta

    def test_beta_zero_trivially_passes_where_morse(self):
        params = GenericityParams(n=2, s=4.0, delta=1.0, beta=0.0, K_max=20)
        f = lacunary_potential(2, 4.0, k_max=params.N + 1)
        failures, _, _ = check_low_mode_morse(f, params)
        assert not failures

    def test_equal_critical_values_failure(self):
        # pi_k f = cos(theta) + a cos(2 theta + phi): an even function of
        # (theta - theta*) for phi = 0 has two equal-value saddles when a
        # is large enough; search a phase that forces an equal pair
        base = {1: 0.5}
        found = None
        for a in (0.6, 0.8):
            F = OneDTrigPoly({**base, 2: a / 2})
            rep = critical_points(F)
            values = np.sort([F.evaluate(t).real for t in rep.critical_points])
            if rep.count == 4 and np.diff(values).min() < 1e-9 * 2:
                found = F
                break
        assert found is not None
        rep = critical_points(found)
        assert not rep.distinct_values


class TestMembership:
    @pytest.mark.parametrize("mode, value", [((1, 17), complex(math.nan, 0.0)), ((0, 1), complex(0.0, math.inf))],
                             ids=["nan_in_lower_bound_window", "inf_low_mode"])
    def test_non_finite_coefficient_is_refused_before_any_census(self, mode, value):
        # f_(1,17) = NaN used to pass check_lower_bound, and so check_membership,
        # with margin 224.0, since fmin skips a NaN ratio: the potential refuses it
        # when it is built, so no check of the class ever sees it
        f = lacunary_potential(2, 4.0, 20)
        with pytest.raises(ConfigError, match=re.escape(f"mode {mode} needs a finite re and im, got {value}")):
            TrigPoly(2, {**f.coeffs, mode: value}, rule=f.rule, rule_cutoff=20.0)

    def test_lacunary_in_class(self):
        params = GenericityParams(n=2, s=4.0, delta=1.0, beta=1e-30, K_max=20)
        f = lacunary_potential(2, 4.0, k_max=20)
        report = check_membership(f, params)
        assert report.in_class
        assert report.proved_beyond_cutoff
        assert report.window == (params.N, 20)
        assert report.margins["lower_bound"] >= 0

    def test_openness_probe(self):
        # perturbations below the report margins keep the potential passing
        # (beta sits below the weakest low-mode projection constant 2e^{-2N})
        params = GenericityParams(n=2, s=4.0, delta=0.5, beta=1e-30, K_max=20)
        f = lacunary_potential(2, 4.0, k_max=20)
        report = check_membership(f, params)
        assert report.in_class
        rng = np.random.default_rng(8)
        # weighted-sup-ball perturbation small against both margins
        delta_prime = 1e-3 * min(1.0, report.margins["lower_bound"])
        for _ in range(10):
            pert = {}
            for k in generators(2, 6):
                w = rng.normal() + 1j * rng.normal()
                w /= max(1.0, abs(w))
                pert[k] = f.coeff(k) + delta_prime * w * math.exp(-4.0 * l1(k))
            g = TrigPoly(2, {**{k: f.coeff(k) for k in f.coeffs}, **pert})
            g = TrigPoly(2, g.coeffs, rule=f.rule, rule_cutoff=f.rule_cutoff)
            assert check_membership(g, params).in_class

    def test_high_mode_projections_morse_with_distinct_values(self):
        # the forward direction of the class decomposition: a sampled
        # potential passing both checks has Morse projections with distinct
        # values in the verified high-mode window
        params = GenericityParams(n=2, s=2.0, delta=0.2, beta=1e-30, K_max=33)
        rng_seed = 0
        f = sample_product_measure(2, 2.0, 33, rng_seed)
        lb_failures, _, _ = check_lower_bound(f, params)
        window = [k for k in generators(2, 33) if l1(k) >= params.N]
        for k in window:
            if any(fail.k == k for fail in lb_failures):
                continue
            from resoforge.fourier import project_lattice

            F = project_lattice(f, k)
            if not F.coeffs:
                continue
            rep = critical_points(F)
            assert rep.beta > 0
            assert rep.distinct_values


PINS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "pins.json"


@pytest.mark.parametrize("s", [5, 6, 8])
def test_membership_matches_benchmark_pins(s):
    # the verdicts pinned for the benchmark's certify pools (delta = 0.1,
    # window [N, N + 10], beta = 0.5 e^{-s floor(N)}), first 8 of each width
    pins = json.loads(PINS.read_text())["membership"][f"s={s}"]
    N = threshold_N(2, float(s), 0.1)
    params = GenericityParams(n=2, s=float(s), delta=0.1, beta=0.5 * math.exp(-s * math.floor(N)), K_max=N + 10.0)
    for i in range(8):
        report = check_membership(sample_product_measure(2, float(s), N + 10.0, [101, s, i]), params)
        got = [report.in_class, len(report.failures), report.n_checked_lower, report.n_checked_morse]
        assert got == pins[i], f"pool {i}"


def reference_check_membership(f, params):
    """check_membership with each low-mode projection from the per-mode scan."""
    lb_failures, n_lb, lb_margin = check_lower_bound(f, params)
    failures, worst = [], math.inf
    gens = generators(f.n, params.N)
    for k in gens:
        F = reference_project_lattice(f, k)
        try:
            report = None if not F.coeffs else critical_points(F)
        except ConfigError:
            report = None
        if report is None:
            failures.append(Failure(k, "morse"))
            worst = -params.beta
            continue
        worst = min(worst, report.beta - params.beta)
        if report.beta < params.beta:
            failures.append(Failure(k, "morse"))
        elif not report.distinct_values:
            failures.append(Failure(k, "distinct-values"))
    failures = lb_failures + failures
    proved = f.rule is not None and not lb_failures and f.rule.provable_lower_bound(params.delta)
    return MembershipReport(
        in_class=not failures, failures=failures, window=(params.N, params.K_max),
        delta=params.delta, beta=params.beta, n_checked_lower=n_lb,
        n_checked_morse=len(gens), proved_beyond_cutoff=proved,
        margins={"lower_bound": lb_margin, "morse_beta": worst},
    )


def reference_cosine_certificate(f, k):
    """(eta, gamma) with the support's order recomputed."""
    fk = f.coeff(k)
    fresh = max((l1(kp) for kp in f.coeffs), default=0)
    cutoff = f.rule_cutoff if f.rule_cutoff is not None else fresh
    j_max = max(1, int(cutoff // l1(k)) + 1)
    residual = 0.0
    for j in range(2, j_max + 1):
        c = f.coeff(tuple(j * v for v in k))
        if c != 0:
            residual += 2.0 * abs(c) * math.exp(j)
    eta = 2.0 * abs(fk)
    return eta, residual / eta


class TestOneRayTable:
    """Membership and cosine certificates read every projection from one ray
    table and the support's order from one memoised value; both must give
    what the per-mode scan and a fresh order give."""

    @pytest.mark.parametrize("s", [5, 6, 8])
    @pytest.mark.parametrize("i", range(2))
    def test_membership_matches_per_mode_scan(self, s, i):
        # the benchmark's membership setting: delta 0.1, window [N, N + 10]
        # and beta half the coefficient scale of the top low-mode shell
        N = threshold_N(2, float(s), 0.1)
        params = GenericityParams(n=2, s=float(s), delta=0.1,
                                  beta=0.5 * math.exp(-s * math.floor(N)), K_max=N + 10.0)
        f = sample_product_measure(2, float(s), params.K_max, [101, s, i])
        got = check_membership(f, params)
        assert got == reference_check_membership(f, params)
        assert got.n_checked_morse == len(generators(2, N))

    def test_rule_backed_membership_matches_per_mode_scan(self):
        params = GenericityParams(n=2, s=4.0, delta=1.0, beta=1e-30, K_max=20)
        f = lacunary_potential(2, 4.0, k_max=params.N - 3)
        assert check_membership(f, params) == reference_check_membership(f, params)

    def test_rule_backed_cosine_certificate(self):
        f = lacunary_potential(2, 1.0, k_max=12)
        for k in generators(2, 16):
            cert = cosine_certificate(f, k)
            assert (cert.eta, cert.gamma) == reference_cosine_certificate(f, k)

    @pytest.mark.parametrize("s", [6.0, 8.0])
    def test_cosine_certificate_unchanged_on_a_cosine_window(self, s):
        N = threshold_N(2, s, 0.1)
        lo, hi = math.ceil(N), N + 5.0
        f = sample_product_measure(2, s, 2.0 * hi + 2.0, [7, int(s)])
        window = generators(2, hi, min_order=lo)
        for _ in range(2):  # the second pass reads the memoised order
            for k in window:
                cert = cosine_certificate(f, k)
                assert (cert.eta, cert.gamma) == reference_cosine_certificate(f, k)
                assert cert.gamma < 2.0 ** -40


class TestProductMeasure:
    def test_determinism(self):
        a = sample_product_measure(2, 1.0, 6, 1234)
        b = sample_product_measure(2, 1.0, 6, 1234)
        assert a.coeffs == b.coeffs

    def test_disk_second_moment(self):
        w = _disks(_key(7), 10 ** 5)[0]
        assert np.mean(np.abs(w) ** 2) == pytest.approx(0.5, abs=0.01)

    def test_weighted_coefficients_in_disk(self):
        f = sample_product_measure(3, 0.7, 5, 99)
        for k, c in f.coeffs.items():
            assert abs(c) * math.exp(l1(k) * 0.7) <= 1.0 + 1e-12

    def test_every_half_lattice_mode_occupied(self):
        from resoforge.fourier import half_ball

        f = sample_product_measure(2, 1.0, 4, 5)
        modes = set(map(tuple, half_ball(2, 4).tolist()))
        assert set(f.coeffs) <= modes
        # probability of an exact zero draw is nil
        assert len(f.coeffs) == len(modes)


def reference_uniform_disk(rng: np.random.Generator, size: int) -> np.ndarray:
    """The per-stream rejection loop that `_disks` replays for many streams."""
    out = np.empty(size, dtype=complex)
    remaining = np.arange(size)
    while remaining.size:
        cand = rng.uniform(-1.0, 1.0, size=(remaining.size, 2))
        ok = cand[:, 0] ** 2 + cand[:, 1] ** 2 <= 1.0
        out[remaining[ok]] = cand[ok, 0] + 1j * cand[ok, 1]
        remaining = remaining[~ok]
    return out


class TestSpawnKeys:
    @pytest.mark.parametrize("count", [1, 64, 301])
    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 62 - 1, 2 ** 200]
                             + [[(7919 * j + 3) << (5 * j) for j in range(length)] for length in range(1, 8)])
    def test_equals_numpy_spawn(self, seed, count):
        # lists of 5 or more ints put the parent's entropy above the 4-word pool
        want = np.stack([ss.generate_state(2, np.uint64) for ss in np.random.SeedSequence(seed).spawn(count)])
        got = _spawn_keys(seed, count)
        assert got.dtype == np.uint64 and got.tobytes() == want.tobytes()


class TestDisks:
    @pytest.mark.parametrize("size", [1, 2, 24, 500, 1700])
    @pytest.mark.parametrize("streams, seeds", [(1, 20), (7, 20), (300, 3), (_BLOCK + 1, 3)])
    def test_equals_the_rejection_loop_byte_for_byte(self, size, streams, seeds):
        for seed in range(seeds):
            ss = np.random.SeedSequence([seed, size]).spawn(streams)
            got = _disks(_spawn_keys([seed, size], streams), size)
            want = np.stack([reference_uniform_disk(_philox(s), size) for s in ss])
            assert got.shape == (streams, size)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("size, seeds", [(1, [979]), (24, [1, 3425, 2, 3, 8255, 4])])
    def test_a_short_stream_is_extended_from_where_it_stopped(self, size, seeds):
        # 979, 3425 and 8255 keep fewer than `size` pairs of their first buffer
        cap = int(4.0 / math.pi * size + 2.0 * math.sqrt(size)) + 2
        first = [_philox(seed).uniform(-1.0, 1.0, size=(cap, 2)) for seed in seeds]
        assert [np.count_nonzero((b ** 2).sum(1) <= 1.0) < size for b in first] == [
            seed in (979, 3425, 8255) for seed in seeds]
        got = _disks(np.concatenate([_key(seed) for seed in seeds]), size)
        want = np.stack([reference_uniform_disk(_philox(seed), size) for seed in seeds])
        assert got.tobytes() == want.tobytes()

    def test_no_modes(self):
        assert _disks(_key(1), 0).shape == (1, 0)
        assert sample_product_measure(2, 1.0, 0.5, 1).coeffs == {}


class TestEmpiricalGenericity:
    @pytest.mark.parametrize("trials", [1, _BLOCK, 2 * _BLOCK + 3])
    def test_equals_the_per_trial_loop(self, trials):
        gens = [k for k in generators(2, 6) if l1(k) >= 1]
        for delta, seed in [(0.3, 5), (0.6, 6), (0.9, 7)]:
            thresholds = np.array([delta * l1(k) ** -2.0 for k in gens])
            want = sum(
                bool(np.all(np.abs(reference_uniform_disk(_philox(ss), len(gens))) >= thresholds))
                for ss in np.random.SeedSequence(seed).spawn(trials)
            )
            got = empirical_genericity(2, 1.0, delta, trials, seed, window=(1, 6))
            assert got.fraction_pass == want / trials

    def test_criterion_12_pass_counts(self):
        # fail_fraction_delta 0.19135 and fail_fraction_half 0.04895 of report
        assert empirical_genericity(2, 1.0, 0.3, 20_000, 99, window=(1, 6)).fraction_pass == 16173 / 20_000
        assert empirical_genericity(2, 1.0, 0.15, 20_000, 100, window=(1, 6)).fraction_pass == 19021 / 20_000

    def test_delta_squared_trend(self):
        a = empirical_genericity(2, 1.0, 0.3, 1500, 5, window=(1, 6))
        b = empirical_genericity(2, 1.0, 0.15, 1500, 6, window=(1, 6))
        fail_a = 1 - a.fraction_pass
        fail_b = 1 - b.fraction_pass
        assert fail_b > 0
        assert 2.0 <= fail_a / fail_b <= 8.0

    def test_fraction_tends_to_one_for_small_delta(self):
        est = empirical_genericity(2, 1.0, 0.01, 400, 11, window=(1, 6))
        assert est.fraction_pass >= 0.99

    def test_trials_validation(self):
        with pytest.raises(ConfigError):
            empirical_genericity(2, 1.0, 0.5, 0, 1, window=(1, 6))
