import math
from dataclasses import fields

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from attractorlab.covering import DecayTrace, _cdist, alpha_proxy, decay_trace, semidist_arrays
from attractorlab.decay import DecayLaw
from attractorlab.criteria import (
    ContractiveCheckReport,
    HausdorffCriterionReport,
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
from attractorlab.dynamics import (
    LinearModalConfig,
    WaveSystemConfig,
    modal_evolve_states,
    wave_config_from_dict,
)
from attractorlab import criteria, experiments
from attractorlab.experiments import ExperimentConfig, draw_samples
from attractorlab.phase import MetricSpec, ensemble_radius

from conftest import SMALL_WAVE_SYSTEM, random_states


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
        law = fit_envelope_law(trace, fit_exponential_rate(trace, 1e-12))
        assert all(law.eval(t) >= v * (1 - 1e-12) for t, v in zip(times, values))

    def test_envelope_lifts_only_the_samples_the_fit_used(self):
        # the last sample sits at the floor, where the fit leaves it out;
        # lifted over it, the amplitude would be about 2e8
        times = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 40.0])
        values = np.exp(-times)
        values[-1] = 1e-9
        trace = DecayTrace(times, values, "semidist")
        fit = fit_exponential_rate(trace, 1e-9)
        law = fit_envelope_law(trace, fit)
        assert law.rate == fit.rate
        assert law.amplitude == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("floor", [-1.0, float("nan"), float("inf")])
    def test_negative_or_nonfinite_floor_rejected(self, floor):
        trace = exponential_trace(1.0, 1.0, np.linspace(0, 4, 9))
        with pytest.raises(ValueError, match="fit floor must be nonnegative and finite"):
            fit_exponential_rate(trace, floor)


class TestPredictedRateBounds:
    def test_balanced_damping(self):
        spec = MetricSpec.dirichlet_1d(4)
        cfg = LinearModalConfig(2.0, spec.mode_eigenvalues)
        bounds = predicted_rate_bounds(cfg)
        assert bounds.rate_energy == 0.5

    def test_contraction_rate_and_period(self):
        spec = MetricSpec.dirichlet_1d(4)
        cfg = LinearModalConfig(3.0, spec.mode_eigenvalues)
        bounds = predicted_rate_bounds(cfg)
        assert bounds.rate_contraction == pytest.approx(math.log(2.0), rel=1e-15)

    def test_saturation(self):
        spec = MetricSpec.dirichlet_1d(4)
        bounds = predicted_rate_bounds(LinearModalConfig(100.0, spec.mode_eigenvalues))
        assert bounds.rate_energy == 0.5

    def test_requires_positive_damping(self):
        cfg = WaveSystemConfig(mode_count=2, l=0.0, dt=0.2)
        with pytest.raises(ValueError):
            predicted_rate_bounds(cfg)

    def test_monotone_in_damping(self):
        spec = MetricSpec.dirichlet_1d(4)
        grid = np.linspace(0.1, 6.0, 40)
        energies = [
            predicted_rate_bounds(LinearModalConfig(v, spec.mode_eigenvalues)).rate_energy
            for v in grid
        ]
        contractions = [
            predicted_rate_bounds(LinearModalConfig(v, spec.mode_eigenvalues)).rate_contraction
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
        evolved = cfg.sample(absorbed, grid)
        report = check_hausdorff_criterion(
            candidate, evolved, decay_trace(grid, evolved, 1, spec), law, spec
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
        evolved = cfg.sample(absorbed, grid)
        report = check_hausdorff_criterion(
            candidate, evolved, decay_trace(grid, evolved, 1, spec), law, spec
        )
        assert report.satisfied_fraction == 1.0
        assert report.alpha_within_fraction == 1.0

    def test_unreachable_bound(self, rng, modal_pair):
        spec, cfg = modal_pair
        absorbed = random_states(rng, spec, 8, scale=1.2)
        radius = ensemble_radius(absorbed, spec)
        law = DecayLaw("exponential", 0.01 * math.sqrt(3.0) * radius, 0.5)
        candidate = np.zeros((1, 6))
        grid = np.arange(0.5, 6.5, 0.5)
        evolved = cfg.sample(absorbed, grid)
        report = check_hausdorff_criterion(
            candidate, evolved, decay_trace(grid, evolved, 1, spec), law, spec
        )
        assert report.satisfied_fraction <= 0.25

    def test_trace_needs_a_cluster_per_candidate_point(self, rng, modal_pair):
        spec, cfg = modal_pair
        candidate = np.zeros((2, 6))
        grid = [0.5, 1.0]
        evolved = cfg.sample(random_states(rng, spec, 4), grid)
        law = DecayLaw("exponential", 1.0, 0.5)
        with pytest.raises(ValueError, match="one cluster per candidate point"):
            check_hausdorff_criterion(
                candidate, evolved, decay_trace(grid, evolved, 3, spec), law, spec
            )

    def test_empty_trace_refused(self, modal_pair):
        spec, _cfg = modal_pair
        candidate = np.zeros((1, 6))
        law = DecayLaw("exponential", 1.0, 0.5)
        empty = DecayTrace(np.zeros(0), np.zeros(0), "alpha_proxy", 1)
        with pytest.raises(ValueError, match="nonempty"):
            check_hausdorff_criterion(candidate, np.zeros((0, 4, 6)), empty, law, spec)


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
        single = LinearModalConfig(cfg.l, np.array([lam_top]))
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
        e = random_states(rng, spec, 1)
        law = DecayLaw("exponential", 1.0, 0.5)
        grid = [1.0, 2.0]
        evolved = cfg.sample(np.vstack([e, e]), grid)
        report = contractive_inequality_check(
            evolved, decay_trace(grid, evolved, 1, spec), law, spec
        )
        assert np.all(report.pair_residual_max == 0.0)

    def test_fewer_than_two_points_raises(self, rng, modal_pair):
        spec, cfg = modal_pair
        e = random_states(rng, spec, 1)
        law = DecayLaw("exponential", 1.0, 0.5)
        evolved = cfg.sample(e, [1.0])
        with pytest.raises(ValueError, match="at least two points"):
            contractive_inequality_check(
                evolved, decay_trace([1.0], evolved, 1, spec), law, spec
            )

    def test_trace_needs_a_block_per_time(self, rng, modal_pair):
        spec, cfg = modal_pair
        evolved = cfg.sample(random_states(rng, spec, 3), [1.0, 2.0])
        law = DecayLaw("exponential", 1.0, 0.5)
        with pytest.raises(ValueError):
            contractive_inequality_check(
                evolved, decay_trace([1.0], evolved[:1], 1, spec), law, spec
            )
        with pytest.raises(ValueError, match="one sample block per time"):
            check_hausdorff_criterion(
                evolved[0, :1], evolved, decay_trace([1.0], evolved[:1], 1, spec), law, spec
            )

    def test_linear_oracle_envelope_gives_zero_residuals(self, rng, modal_pair):
        spec, cfg = modal_pair
        e = random_states(rng, spec, 6, scale=1.0)
        emb = spec.embed(e)
        diam = float(np.max(cdist(emb, emb)))
        law = DecayLaw("exponential", math.sqrt(3.0) * diam * 1.001, 0.5)
        grid = np.arange(0.5, 6.5, 0.5)
        evolved = cfg.sample(e, grid)
        report = contractive_inequality_check(
            evolved, decay_trace(grid, evolved, 3, spec), law, spec
        )
        assert np.all(report.pair_residual_max <= 1e-12)
        assert report.conclusion_fraction == 1.0

    def test_vanishing_law_residuals_are_raw_distances(self, rng, modal_pair):
        spec, cfg = modal_pair
        e = random_states(rng, spec, 4)
        law = DecayLaw("exponential", 1e-300, 1.0)
        t = 1.5
        sampled = cfg.sample(e, [t])
        report = contractive_inequality_check(
            sampled, decay_trace([t], sampled, 2, spec), law, spec
        )
        emb = spec.embed(modal_evolve_states(e, cfg, t))
        raw = [np.linalg.norm(emb[i] - emb[j]) for i in range(4) for j in range(i + 1, 4)]
        assert report.pair_residual_max[0] == pytest.approx(max(raw), rel=1e-12)
        assert report.pair_residual_mean[0] == pytest.approx(np.mean(raw), rel=1e-12)


def period_samples(cfg, absorbed, period, n_periods):
    """The trajectory of ``absorbed`` over one period and its samples at each
    n * period, n = 1..n_periods, from one ``cfg.sample`` pass."""
    grid = cfg.sample_grid(period, 32)
    rows = cfg.sample(absorbed, np.concatenate([grid, period * np.arange(1, n_periods + 1)]))
    return rows[: grid.size], rows[grid.size :]


class TestQuasiStability:
    def test_linear_oracle_period_contraction(self, rng):
        spec = MetricSpec.dirichlet_1d(8)
        cfg = LinearModalConfig(1.0, spec.mode_eigenvalues)
        absorbed = random_states(rng, spec, 20, scale=1.5)
        report = quasistability_estimate(
            *period_samples(cfg, absorbed, 3.0, 8), 3.0, cfg.l, 4,
            closeness=1e6, spec=spec,
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
        period = 3.0 / damping
        report = quasistability_estimate(
            *period_samples(cfg, absorbed, period, 0), period, damping, 3,
            closeness=1e6, spec=spec,
        )
        assert report.eta_hat < 1.0
        assert report.per_period_alpha_ratios == ()

    def test_duplicates_excluded_and_counted(self, rng):
        spec = MetricSpec.dirichlet_1d(4)
        cfg = LinearModalConfig(1.0, spec.mode_eigenvalues)
        base = random_states(rng, spec, 5)
        with_dup = np.vstack([base, base[:1]])
        report = quasistability_estimate(
            *period_samples(cfg, with_dup, 3.0, 0), 3.0, cfg.l, 2,
            closeness=1e6, spec=spec,
        )
        assert report.excluded_pair_count >= 1
        assert np.isfinite(report.eta_hat)

    def test_tight_threshold_raises(self, rng):
        spec = MetricSpec.dirichlet_1d(4)
        cfg = LinearModalConfig(1.0, spec.mode_eigenvalues)
        absorbed = random_states(rng, spec, 6)
        with pytest.raises(ThresholdTooTightError):
            quasistability_estimate(
                *period_samples(cfg, absorbed, 3.0, 0), 3.0, cfg.l, 2,
                closeness=1e-12, spec=spec,
            )

    def test_default_closeness_is_fraction_of_diameter(self, rng):
        spec = MetricSpec.dirichlet_1d(3)
        cfg = LinearModalConfig(1.0, spec.mode_eigenvalues)
        # clustered sample so the 10% default still admits pairs
        center = random_states(rng, spec, 1)
        rows = center + 1e-3 * np.random.default_rng(5).standard_normal((8, 6))
        rows = np.vstack([rows, center + 2.0])
        report = quasistability_estimate(
            *period_samples(cfg, rows, 1.0, 0), 1.0, cfg.l, 2, None, spec
        )
        emb = spec.embed(rows)
        assert report.pseudometric_threshold == pytest.approx(
            0.1 * float(np.max(cdist(emb, emb))), rel=1e-12
        )


def per_row_alpha_ratios(states, period_rows, m, spec) -> tuple:
    """The per-period alpha ratios taken one period row at a time: the
    reference for the stacked call."""
    base = alpha_proxy(states, m, spec)
    return tuple(alpha_proxy(rows, m, spec) / base if base > 0 else 0.0 for rows in period_rows)


def counted_alpha_proxy(monkeypatch) -> list:
    """The shapes of the stacks ``criteria.alpha_proxy`` is called on, from now on."""
    calls = []

    def counting(states, m, spec):
        calls.append(np.shape(states))
        return alpha_proxy(states, m, spec)

    monkeypatch.setattr(criteria, "alpha_proxy", counting)
    return calls


class TestStackedPeriodAlpha:
    """One ``alpha_proxy`` call on the sample and one on the stack of its
    period rows give the ratios the per-row calls gave, bit for bit."""

    @pytest.mark.parametrize("n_periods", [0, 1, 8])
    def test_ratios_equal_the_per_row_ones_bit_for_bit(self, rng, monkeypatch, n_periods):
        spec = MetricSpec.dirichlet_1d(6)
        cfg = LinearModalConfig(1.0, spec.mode_eigenvalues)
        trajectory, period_rows = period_samples(cfg, random_states(rng, spec, 15), 3.0,
                                                 n_periods)
        expected = per_row_alpha_ratios(trajectory[0], period_rows, 3, spec)
        calls = counted_alpha_proxy(monkeypatch)
        ratios = quasistability_estimate(trajectory, period_rows, 3.0, cfg.l, 3, closeness=1e6,
                                         spec=spec).per_period_alpha_ratios
        assert calls == [(15, 12), (n_periods, 15, 12)]
        assert len(ratios) == n_periods and all(type(r) is float for r in ratios)
        assert np.array(ratios).tobytes() == np.array(expected).tobytes()

    def test_a_sample_whose_alpha_is_zero_gives_zero_ratios(self, rng, monkeypatch):
        # two points, each repeated: two clusters of coincident points, so the
        # sample's alpha is 0, while the period rows given here spread out
        spec = MetricSpec.dirichlet_1d(4)
        cfg = LinearModalConfig(1.0, spec.mode_eigenvalues)
        trajectory, _rows = period_samples(
            cfg, np.repeat(random_states(rng, spec, 2), 3, axis=0), 3.0, 0)
        period_rows = np.stack([random_states(rng, spec, 6) for _ in range(4)])
        assert alpha_proxy(trajectory[0], 2, spec) == 0.0
        assert np.all(alpha_proxy(period_rows, 2, spec) > 0.0)
        calls = counted_alpha_proxy(monkeypatch)
        ratios = quasistability_estimate(trajectory, period_rows, 3.0, cfg.l, 2, closeness=1e6,
                                         spec=spec, m_clusters=2).per_period_alpha_ratios
        assert len(calls) == 2
        assert ratios == per_row_alpha_ratios(trajectory[0], period_rows, 2, spec)
        assert np.array(ratios).tobytes() == np.zeros(4).tobytes()


@pytest.mark.parametrize("kind", ["quasistability", "criteria_suite"])
@pytest.mark.parametrize("engine", ["linear", "wave"])
def test_the_checked_sample_is_the_probe_after_the_window(kind, engine, tmp_path, monkeypatch):
    # on either engine the checks start from the drawn probe evolved over
    # burn_in + window: quasistability's trajectory and the criteria checks'
    # rows, each at its first time 0
    system = (LinearModalConfig(1.0, MetricSpec.dirichlet_1d(8).mode_eigenvalues)
              if engine == "linear" else wave_config_from_dict(SMALL_WAVE_SYSTEM))
    cfg = ExperimentConfig(kind=kind, system=system, output_dir=str(tmp_path), seed=7,
                           ensemble_count=12, ensemble_radius=4.0, closeness=1e6)
    name = "quasistability_estimate" if kind == "quasistability" else "tail_projection_decay"
    checked, check = [], getattr(experiments, name)

    def spy(evolved, *args, **kwargs):
        checked.append(evolved[0])
        return check(evolved, *args, **kwargs)

    monkeypatch.setattr(experiments, name, spy)
    experiments.run_experiment(cfg)
    assert cfg.t_grid[0] == 0.0
    probe, _fresh = draw_samples(cfg)
    expected = cfg.system.sample(probe, [cfg.burn_in + cfg.window])[0]
    assert checked[0].tobytes() == expected.tobytes()


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


# ---------------------------------------------------------------------------
# the checks against the expressions they replaced, which measured alpha
# themselves: same fields, same CSV bytes


def reference_hausdorff(candidate, evolved, t_grid, law, spec):
    """The Hausdorff check as it measured alpha per block, one cluster per
    candidate point."""
    t_grid = np.asarray(t_grid, dtype=float)
    m_clusters = len(candidate)
    cand = spec.embed(candidate)
    semidists, alphas = [], []
    for block in evolved:
        semidists.append(semidist_arrays(spec.embed(block), cand))
        alphas.append(alpha_proxy(block, m_clusters, spec))
    semidists, alphas = np.array(semidists), np.array(alphas)
    bounds = np.array([law.eval(t) for t in t_grid])
    implied = 2.0 * bounds
    return HausdorffCriterionReport(
        times=t_grid, semidist=semidists, bounds=bounds,
        satisfied_fraction=float(np.mean(semidists <= bounds * (1 + 1e-12))),
        implied_alpha_bounds=implied, alpha_values=alphas,
        alpha_within_fraction=float(np.mean(alphas <= implied * (1 + 1e-12))),
    )


def reference_contractive(evolved, pairs, t_grid, law, m_clusters, spec):
    """The contractive check as it read an explicit pair list and measured
    alpha per block."""
    pair_index = np.asarray(pairs, dtype=int)
    t_grid = np.asarray(t_grid, dtype=float)
    res_max, res_mean, alphas, bounds3, diags = [], [], [], [], []
    for k, t in enumerate(t_grid):
        emb = spec.embed(evolved[k])
        phi = law.eval(float(t))
        residual_matrix = np.maximum(0.0, _cdist(emb, emb) - phi)
        pair_res = residual_matrix[pair_index[:, 0], pair_index[:, 1]]
        res_max.append(float(pair_res.max()))
        res_mean.append(float(pair_res.mean()))
        alphas.append(alpha_proxy(evolved[k], m_clusters, spec))
        bounds3.append(3.0 * phi)
        diags.append(repeated_liminf_diag(residual_matrix))
    alphas, bounds3 = np.array(alphas), np.array(bounds3)
    return ContractiveCheckReport(
        times=t_grid, pair_residual_max=np.array(res_max),
        pair_residual_mean=np.array(res_mean), alpha_values=alphas, alpha_bounds=bounds3,
        conclusion_fraction=float(np.mean(alphas <= bounds3 * (1 + 1e-12))),
        liminf_diagnostics=np.array(diags),
    )


def reference_envelope(trace, floor):
    """The envelope law as it fitted the trace itself."""
    fit = fit_exponential_rate(trace, floor)
    mask = trace.values > floor
    amplitude = float(np.max(trace.values[mask] * np.exp(fit.rate * trace.times[mask])))
    return DecayLaw("exponential", amplitude, fit.rate)


# The benchmark's wave system (N = 32) and sample size (P = 30), copied so
# the test does not read the benchmark's files.
BENCH_WAVE_SYSTEM = {
    "mode_count": 32,
    "k": 1.0,
    "p": 2.0,
    "l": 2.0,
    "f_coeffs": [0.0, -1.0, 0.0, 1.0],
    "kernel": [{"weight": 0.1, "coeffs": [1.0]}],
    "h_coeffs": [4.0],
    "dt": 0.015625,
    "collocation_points": 96,
}

SYSTEMS = {"golden_8_modes": (SMALL_WAVE_SYSTEM, 12), "bench_32_modes": (BENCH_WAVE_SYSTEM, 30)}


@pytest.fixture(scope="module", params=sorted(SYSTEMS))
def criteria_inputs(request):
    """A criteria_suite run's inputs: the absorbed sample's rows on t_grid,
    the candidate at 2 t_orbit, the alpha trace and its envelope law."""
    system, count = SYSTEMS[request.param]
    cfg = ExperimentConfig(
        kind="criteria_suite", system=wave_config_from_dict(system), output_dir="unused",
        seed=7, ensemble_count=count, ensemble_radius=4.0,
    )
    spec, probe = cfg.metric, draw_samples(cfg)[0]
    absorbed = cfg.system.sample(probe, [cfg.burn_in + cfg.window])[0]
    sampled = cfg.system.sample(absorbed, [*cfg.t_grid, 2.0 * cfg.t_orbit])
    rows, candidate = sampled[:-1], sampled[-1]
    alpha = decay_trace(cfg.t_grid, rows, cfg.m_clusters, spec)
    return cfg, rows, candidate, alpha


def assert_same_report(new, old, tmp_path):
    for f in fields(old):
        a, b = getattr(new, f.name), getattr(old, f.name)
        assert type(a) is type(b) and np.array_equal(a, b), f.name
    new.to_csv(tmp_path / "new.csv")
    old.to_csv(tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestAgainstTheSelfMeasuringChecks:
    def test_envelope_law_lifts_the_given_fit_bit_for_bit(self, criteria_inputs):
        cfg, _rows, _candidate, alpha = criteria_inputs
        law = fit_envelope_law(alpha, fit_exponential_rate(alpha, cfg.fit_floor))
        old = reference_envelope(alpha, cfg.fit_floor)
        assert (law.amplitude.hex(), law.rate.hex()) == (old.amplitude.hex(), old.rate.hex())
        assert law == old

    def test_hausdorff_check_matches(self, criteria_inputs, tmp_path):
        cfg, rows, candidate, alpha = criteria_inputs
        spec, later = cfg.metric, cfg.t_grid > 0
        grid, evolved = cfg.t_grid[later], rows[later]
        law = reference_envelope(alpha, cfg.fit_floor)
        new = check_hausdorff_criterion(
            candidate, evolved, decay_trace(grid, evolved, len(candidate), spec), law, spec
        )
        assert_same_report(new, reference_hausdorff(candidate, evolved, grid, law, spec),
                           tmp_path)

    def test_contractive_check_matches(self, criteria_inputs, tmp_path):
        cfg, rows, _candidate, alpha = criteria_inputs
        spec, later = cfg.metric, cfg.t_grid > 0
        grid, evolved = cfg.t_grid[later], rows[later]
        law = reference_envelope(alpha, cfg.fit_floor)
        count = evolved.shape[1]
        pairs = [(i, j) for i in range(count) for j in range(i + 1, count)]
        new = contractive_inequality_check(
            evolved, DecayTrace(grid, alpha.values[later], "alpha_proxy", cfg.m_clusters),
            law, spec,
        )
        old = reference_contractive(evolved, pairs, grid, law, cfg.m_clusters, spec)
        assert_same_report(new, old, tmp_path)
