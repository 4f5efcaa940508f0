import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from attractorlab.covering import DecayTrace
from attractorlab.decay import DecayLaw
from attractorlab.criteria import (
    ThresholdTooTightError,
    check_hausdorff_criterion,
    contractive_inequality_check,
    fit_envelope_law,
    fit_exponential_rate,
    predicted_contraction,
    predicted_rate_bounds,
    quasistability_estimate,
    repeated_liminf_diag,
    tail_projection_decay,
)
from attractorlab.dynamics import LinearModalConfig, WaveSystemConfig, modal_evolve_states
from attractorlab.phase import MetricSpec, ensemble_radius

from conftest import random_states


def exponential_trace(c, beta, times):
    return DecayTrace(np.asarray(times, float), c * np.exp(-beta * np.asarray(times)), "semidist")


class TestFitExponentialRate:
    @pytest.mark.parametrize("c,beta", [(1.0, 0.5), (3.0, 2.0), (2.5e4, 0.17)])
    def test_exact_on_noise_free_traces(self, c, beta):
        fit = fit_exponential_rate(exponential_trace(c, beta, np.linspace(0, 10, 40)), 0.0)
        assert fit.rate == pytest.approx(beta, rel=1e-12)
        assert fit.amplitude == pytest.approx(c, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_multiplicative_noise_within_two_percent(self, rng):
        times = np.linspace(0.0, 10.0, 50)
        beta = 0.8
        noise = 1.0 + 0.01 * rng.uniform(-1.0, 1.0, times.size)
        trace = DecayTrace(times, 2.0 * np.exp(-beta * times) * noise, "semidist")
        fit = fit_exponential_rate(trace, 0.0)
        assert fit.rate == pytest.approx(beta, rel=0.02)

    def test_floor_trims_window(self):
        trace = exponential_trace(1.0, 1.0, np.linspace(0, 20, 41))
        fit = fit_exponential_rate(trace, 1e-4)
        assert fit.window[1] < 10.0
        assert fit.floor_used == 1e-4

    def test_too_few_points_raises(self):
        trace = exponential_trace(1.0, 1.0, [0.0, 1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="at least 4"):
            fit_exponential_rate(trace, 0.9)

    def test_growing_trace_rejected(self):
        trace = DecayTrace(np.arange(5.0), np.exp(np.arange(5.0)), "semidist")
        with pytest.raises(ValueError, match="does not decay"):
            fit_exponential_rate(trace, 0.0)

    def test_envelope_dominates_trace(self, rng):
        times = np.linspace(0.0, 8.0, 60)
        values = np.exp(-0.6 * times) * (1.0 + 0.2 * rng.uniform(-1, 1, times.size))
        trace = DecayTrace(times, values, "semidist")
        law = fit_envelope_law(trace, 1e-12)
        assert all(law.eval(t) >= v * (1 - 1e-12) for t, v in zip(times, values))


class TestPredictedRateBounds:
    def test_balanced_damping(self):
        spec = MetricSpec.dirichlet_1d(4)
        cfg = LinearModalConfig(2.0, spec.mode_eigenvalues)
        bounds = predicted_rate_bounds(cfg, spec)
        assert bounds.rate_energy == 0.5

    def test_contraction_rate_and_period(self):
        spec = MetricSpec.dirichlet_1d(4)
        cfg = LinearModalConfig(3.0, spec.mode_eigenvalues)
        bounds = predicted_rate_bounds(cfg, spec)
        assert bounds.rate_contraction == pytest.approx(math.log(2.0), rel=1e-15)
        assert bounds.period == 1.0

    def test_saturation(self):
        spec = MetricSpec.dirichlet_1d(4)
        bounds = predicted_rate_bounds(LinearModalConfig(100.0, spec.mode_eigenvalues), spec)
        assert bounds.rate_energy == 0.5

    def test_requires_positive_damping(self):
        spec = MetricSpec.dirichlet_1d(2)
        cfg = WaveSystemConfig(mode_count=2, l=0.0, dt=0.2)
        with pytest.raises(ValueError):
            predicted_rate_bounds(cfg, spec)

    def test_monotone_in_damping(self):
        spec = MetricSpec.dirichlet_1d(4)
        grid = np.linspace(0.1, 6.0, 40)
        energies = [
            predicted_rate_bounds(LinearModalConfig(v, spec.mode_eigenvalues), spec).rate_energy
            for v in grid
        ]
        contractions = [
            predicted_rate_bounds(LinearModalConfig(v, spec.mode_eigenvalues), spec).rate_contraction
            for v in grid
        ]
        assert all(b >= a - 1e-15 for a, b in zip(energies, energies[1:]))
        assert max(energies) == 0.5
        assert np.allclose(contractions, grid / 3.0 * math.log(2.0), rtol=1e-15)

    def test_contraction_factor(self):
        assert predicted_contraction(1.0, 3.0) == 0.5
        assert predicted_contraction(0.0, 1.0) == 1.0


@pytest.fixture
def modal_pair():
    spec = MetricSpec(np.array([4.0, 9.0, 16.0]))
    cfg = LinearModalConfig(2.0, spec.mode_eigenvalues)
    return spec, cfg


class TestHausdorffCriterion:
    def test_equilibrium_always_satisfied(self):
        spec = MetricSpec.dirichlet_1d(2)
        cfg = WaveSystemConfig(mode_count=2, k=1.0, l=1.0, f_coeffs=(0.0, 1.0), dt=0.125)
        absorbed = np.zeros((2, 4))
        candidate = np.zeros((1, 4))
        law = DecayLaw("exponential", 1.0, 0.5)
        grid = [0.5, 1.0, 1.5]
        report = check_hausdorff_criterion(
            candidate, cfg.sample(absorbed, grid), grid, law, spec
        )
        assert np.all(report.semidist == 0.0)
        assert report.satisfied_fraction == 1.0
        assert report.alpha_within_fraction == 1.0

    def test_linear_oracle_with_analytic_envelope(self, rng, modal_pair):
        spec, cfg = modal_pair
        absorbed = random_states(rng, spec, 8, scale=1.2)
        radius = ensemble_radius(absorbed, spec)
        # energy-multiplier bound: |S(t)x| <= sqrt(3) e^{-t/2} |x| for l = 2
        law = DecayLaw("exponential", math.sqrt(3.0) * radius * 1.001, 0.5)
        candidate = np.zeros((1, 6))
        grid = np.arange(0.5, 8.5, 0.5)
        report = check_hausdorff_criterion(
            candidate, cfg.sample(absorbed, grid), grid, law, spec
        )
        assert report.satisfied_fraction == 1.0
        assert report.alpha_within_fraction == 1.0
        assert report.m_clusters == 1

    def test_unreachable_bound(self, rng, modal_pair):
        spec, cfg = modal_pair
        absorbed = random_states(rng, spec, 8, scale=1.2)
        radius = ensemble_radius(absorbed, spec)
        law = DecayLaw("exponential", 0.01 * math.sqrt(3.0) * radius, 0.5)
        candidate = np.zeros((1, 6))
        grid = np.arange(0.5, 6.5, 0.5)
        report = check_hausdorff_criterion(
            candidate, cfg.sample(absorbed, grid), grid, law, spec
        )
        assert report.satisfied_fraction <= 0.25


class TestTailProjection:
    def test_low_mode_data_keeps_zero_tail(self, modal_pair):
        spec, cfg = modal_pair
        state = np.array([1.0, 0.5, 0.0, 0.2, -0.1, 0.0])
        grid = np.arange(0.0, 3.0, 0.5)
        trace = tail_projection_decay(cfg.sample(state[None, :], grid), 2, grid, spec)
        assert np.all(trace.values == 0.0)
        assert trace.quantity == "tail_norm"

    def test_tail_follows_top_mode_closed_form(self, modal_pair):
        spec, cfg = modal_pair
        state = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        grid = np.array([0.5, 1.0, 2.0, 4.0])
        trace = tail_projection_decay(cfg.sample(state[None, :], grid), 2, grid, spec)
        lam_top = spec.mode_eigenvalues[-1]
        single = LinearModalConfig(cfg.damping, np.array([lam_top]))
        for t, value in zip(grid, trace.values):
            z = modal_evolve_states(np.array([0.0, 1.0]), single, t)
            expected = math.hypot(math.sqrt(lam_top) * z[0], z[1])
            assert value == pytest.approx(expected, rel=1e-12)

    def test_last_mode_only(self, rng, modal_pair):
        spec, cfg = modal_pair
        e = random_states(rng, spec, 4)
        grid = np.array([0.0, 1.0])
        trace = tail_projection_decay(cfg.sample(e, grid), 2, grid, spec)
        lam_top = spec.mode_eigenvalues[-1]
        states = e
        expected = np.max(
            np.sqrt(lam_top * states[:, 2] ** 2 + states[:, 5] ** 2)
        )
        assert trace.values[0] == pytest.approx(expected, rel=1e-14)

    def test_threshold_validation(self, rng, modal_pair):
        spec, cfg = modal_pair
        e = random_states(rng, spec, 2)
        with pytest.raises(ValueError):
            tail_projection_decay(cfg.sample(e, [0.0, 1.0]), 3, [0.0, 1.0], spec)


class TestContractiveCheck:
    def test_identical_pair_zero_residual(self, rng, modal_pair):
        spec, cfg = modal_pair
        e = random_states(rng, spec, 3)
        law = DecayLaw("exponential", 1.0, 0.5)
        grid = [1.0, 2.0]
        report = contractive_inequality_check(
            cfg.sample(e[:1], grid), [(0, 0)], grid, law, 1, spec
        )
        assert np.all(report.pair_residual_max == 0.0)

    def test_pair_indices_validated(self, rng, modal_pair):
        spec, cfg = modal_pair
        e = random_states(rng, spec, 3)
        law = DecayLaw("exponential", 1.0, 0.5)
        evolved = cfg.sample(e, [1.0])
        for pairs in ([], [(0, 3)], [(-1, 0)], [(0, 1, 2)]):
            with pytest.raises(ValueError):
                contractive_inequality_check(evolved, pairs, [1.0], law, 1, spec)

    def test_linear_oracle_envelope_gives_zero_residuals(self, rng, modal_pair):
        spec, cfg = modal_pair
        e = random_states(rng, spec, 6, scale=1.0)
        pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        emb = spec.embed(e)
        diam = float(np.max(cdist(emb, emb)))
        law = DecayLaw("exponential", math.sqrt(3.0) * diam * 1.001, 0.5)
        grid = np.arange(0.5, 6.5, 0.5)
        report = contractive_inequality_check(
            cfg.sample(e, grid), pairs, grid, law, 3, spec
        )
        assert np.all(report.pair_residual_max <= 1e-12)
        assert report.conclusion_fraction == 1.0
        assert report.pair_count == len(pairs)

    def test_vanishing_law_residuals_are_raw_distances(self, rng, modal_pair):
        spec, cfg = modal_pair
        e = random_states(rng, spec, 4)
        pairs = [(0, 1), (2, 3)]
        law = DecayLaw("exponential", 1e-300, 1.0)
        t = 1.5
        report = contractive_inequality_check(
            cfg.sample(e, [t]), pairs, [t], law, 2, spec
        )
        evolved = modal_evolve_states(e, cfg, t)
        emb = spec.embed(evolved)
        raw = max(
            np.linalg.norm(emb[0] - emb[1]), np.linalg.norm(emb[2] - emb[3])
        )
        assert report.pair_residual_max[0] == pytest.approx(raw, rel=1e-12)


class TestQuasiStability:
    def test_linear_oracle_period_contraction(self, rng):
        spec = MetricSpec.dirichlet_1d(8)
        cfg = LinearModalConfig(1.0, spec.mode_eigenvalues)
        absorbed = random_states(rng, spec, 20, scale=1.5)
        report = quasistability_estimate(
            absorbed, 3.0, 8, 4, closeness=1e6, cfg=cfg, spec=spec
        )
        assert report.predicted_eta == 0.5
        assert report.eta_hat < 1.0
        ratios = report.per_period_alpha_ratios
        assert len(ratios) == 8
        for n, ratio in enumerate(ratios, start=1):
            assert ratio <= 1.15 * 2.0 * 0.5**n
        # successive per-period factors eventually sit under eta within 15%
        for r_prev, r_next in zip(ratios[2:], ratios[3:]):
            assert r_next / r_prev <= 0.5 * 1.15

    @pytest.mark.parametrize("damping", [0.5, 1.0, 2.0])
    def test_eta_below_one_for_matched_period(self, rng, damping):
        spec = MetricSpec.dirichlet_1d(6)
        cfg = LinearModalConfig(damping, spec.mode_eigenvalues)
        absorbed = random_states(rng, spec, 12)
        report = quasistability_estimate(
            absorbed, 3.0 / damping, 0, 3, closeness=1e6, cfg=cfg, spec=spec
        )
        assert report.eta_hat < 1.0
        assert report.per_period_alpha_ratios == ()

    def test_duplicates_excluded_and_counted(self, rng):
        spec = MetricSpec.dirichlet_1d(4)
        cfg = LinearModalConfig(1.0, spec.mode_eigenvalues)
        base = random_states(rng, spec, 5)
        with_dup = np.vstack([base, base[:1]])
        report = quasistability_estimate(
            with_dup, 3.0, 0, 2, closeness=1e6, cfg=cfg, spec=spec
        )
        assert report.excluded_pair_count >= 1
        assert np.isfinite(report.eta_hat)

    def test_tight_threshold_raises(self, rng):
        spec = MetricSpec.dirichlet_1d(4)
        cfg = LinearModalConfig(1.0, spec.mode_eigenvalues)
        absorbed = random_states(rng, spec, 6)
        with pytest.raises(ThresholdTooTightError):
            quasistability_estimate(absorbed, 3.0, 0, 2, closeness=1e-12, cfg=cfg, spec=spec)

    def test_default_closeness_is_fraction_of_diameter(self, rng):
        spec = MetricSpec.dirichlet_1d(3)
        cfg = LinearModalConfig(1.0, spec.mode_eigenvalues)
        # clustered sample so the 10% default still admits pairs
        center = random_states(rng, spec, 1)
        rows = center + 1e-3 * np.random.default_rng(5).standard_normal((8, 6))
        rows = np.vstack([rows, center + 2.0])
        report = quasistability_estimate(rows, 1.0, 0, 2, None, cfg, spec)
        emb = spec.embed(rows)
        assert report.pseudometric_threshold == pytest.approx(
            0.1 * float(np.max(cdist(emb, emb))), rel=1e-12
        )


class TestRepeatedLiminf:
    def test_zero_matrix(self):
        assert repeated_liminf_diag(np.zeros((3, 3))) == 0.0

    def test_constant_matrix(self):
        assert repeated_liminf_diag(np.full((4, 5), 2.5)) == 2.5

    def test_harmonic_grid_deepest_tail(self):
        m = np.arange(1, 51)
        a = 1.0 / (m[:, None] + m[None, :])
        assert repeated_liminf_diag(a) == pytest.approx(1.0 / 100.0, rel=1e-15)

    def test_row_reversal_changes_value(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert repeated_liminf_diag(a) == 1.0
        assert repeated_liminf_diag(a[::-1]) == 0.0

    def test_constant_shift(self, rng):
        a = rng.uniform(0.0, 1.0, (6, 7))
        base = repeated_liminf_diag(a)
        assert repeated_liminf_diag(a + 0.7) == pytest.approx(base + 0.7, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            repeated_liminf_diag(np.zeros((1, 5)))
        with pytest.raises(ValueError):
            repeated_liminf_diag(-np.ones((3, 3)))
