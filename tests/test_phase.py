import math

import numpy as np
import pytest

from attractorlab.decay import DecayLaw
from attractorlab.phase import Ensemble, MetricSpec, ensemble_radius, phase_distance

from conftest import random_point, random_states


class TestMetricSpec:
    def test_dirichlet_1d_eigenvalues(self):
        spec = MetricSpec.dirichlet_1d(4)
        assert np.array_equal(spec.mode_eigenvalues, [1.0, 4.0, 9.0, 16.0])
        assert spec.mode_eigenvalues[0] == 1.0

    def test_rejects_nonpositive_and_decreasing(self):
        with pytest.raises(ValueError):
            MetricSpec(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            MetricSpec(np.array([4.0, 1.0]))


def state(positions, velocities) -> np.ndarray:
    return np.concatenate([np.asarray(positions, float), np.asarray(velocities, float)])


class TestPhaseDistance:
    def test_rejects_nonfinite(self):
        spec = MetricSpec.dirichlet_1d(1)
        with pytest.raises(ValueError):
            phase_distance(state([np.nan], [0.0]), np.zeros(2), spec)
        with pytest.raises(ValueError):
            phase_distance(np.zeros(2), state([1.0], [np.inf]), spec)

    def test_rejects_length_mismatch(self):
        # three coefficients split into no [positions, velocities] pair
        spec = MetricSpec.dirichlet_1d(1)
        with pytest.raises(ValueError):
            phase_distance(state([1.0, 2.0], [0.0]), np.zeros(2), spec)

    def test_identity_is_zero(self, rng):
        spec = MetricSpec.dirichlet_1d(6)
        p = random_point(rng, spec)
        assert phase_distance(p, p, spec) == 0.0

    def test_single_mode_position_norm(self):
        spec = MetricSpec.dirichlet_1d(1)
        assert phase_distance(state([1.0], [0.0]), np.zeros(2), spec) == 1.0

    def test_second_mode_weighting(self):
        # lam = (1, 4); position (0, 1) picks up sqrt(4 * 1^2) = 2
        spec = MetricSpec.dirichlet_1d(2)
        assert phase_distance(state([0.0, 1.0], np.zeros(2)), np.zeros(4), spec) == 2.0

    def test_dimension_mismatch_raises(self):
        spec = MetricSpec.dirichlet_1d(2)
        with pytest.raises(ValueError):
            phase_distance(np.zeros(4), np.zeros(6), spec)
        with pytest.raises(ValueError):
            phase_distance(np.zeros(6), np.zeros(6), spec)
        with pytest.raises(ValueError):
            phase_distance(np.zeros((1, 4)), np.zeros(4), spec)

    def test_symmetry(self, rng):
        spec = MetricSpec.dirichlet_1d(4)
        a, b = random_point(rng, spec), random_point(rng, spec)
        assert phase_distance(a, b, spec) == phase_distance(b, a, spec)

    def test_triangle_inequality_random_triples(self, rng):
        spec = MetricSpec.dirichlet_1d(8)
        for _ in range(200):
            a, b, c = (random_point(rng, spec, scale=3.0) for _ in range(3))
            d_ac = phase_distance(a, c, spec)
            d_ab = phase_distance(a, b, spec)
            d_bc = phase_distance(b, c, spec)
            assert d_ac <= (d_ab + d_bc) * (1 + 1e-12)

    def test_mode_relabeling_invariance(self, rng):
        # permuting modes together with their eigenvalues leaves distances alone
        n = 6
        lam = np.sort(rng.uniform(0.5, 9.0, n))
        spec = MetricSpec(lam)
        a, b = random_point(rng, spec), random_point(rng, spec)
        d0 = phase_distance(a, b, spec)
        perm = rng.permutation(n)
        lam_p = lam[perm]
        order = np.argsort(lam_p, kind="stable")
        spec_p = MetricSpec(lam_p[order])
        take = np.concatenate([perm[order], n + perm[order]])
        assert phase_distance(a[take], b[take], spec_p) == pytest.approx(d0, rel=1e-12)


class TestEnsemble:
    def test_nonempty_required(self):
        with pytest.raises(ValueError):
            Ensemble(())
        with pytest.raises(ValueError):
            Ensemble(np.zeros((0, 4)))

    def test_mixed_mode_counts_rejected(self):
        # ragged rows, and rows of odd width, describe no common mode count
        with pytest.raises(ValueError):
            Ensemble([np.zeros(4), np.zeros(6)])
        with pytest.raises(ValueError):
            Ensemble(np.zeros((2, 5)))

    def test_rejects_nonfinite_and_flat_input(self):
        with pytest.raises(ValueError):
            Ensemble(np.array([[0.0, np.nan]]))
        with pytest.raises(ValueError):
            Ensemble(np.zeros(4))

    def test_states_are_a_read_only_copy(self):
        rows = np.zeros((2, 4))
        e = Ensemble.from_matrix(rows)
        rows[0, 0] = 1.0
        assert e.as_matrix()[0, 0] == 0.0
        assert not e.as_matrix().flags.writeable
        assert e.as_matrix().shape == (2, 4)

    def test_radius_origin(self):
        spec = MetricSpec.dirichlet_1d(2)
        assert ensemble_radius(np.zeros((1, 4)), spec) == 0.0

    def test_radius_is_max(self):
        spec = MetricSpec.dirichlet_1d(1)
        states = np.array([[0.0, 1.0], [0.0, 3.0]])
        assert ensemble_radius(states, spec) == 3.0

    def test_radius_matches_brute_force(self, rng):
        spec = MetricSpec.dirichlet_1d(4)
        states = random_states(rng, spec, 5)
        brute = max(phase_distance(y, 0 * y, spec) for y in states)
        assert ensemble_radius(states, spec) == pytest.approx(brute, rel=1e-14)

    def test_embed_matches_phase_distance(self, rng):
        spec = MetricSpec.dirichlet_1d(3)
        a, b = random_point(rng, spec), random_point(rng, spec)
        gap = spec.embed(a) - spec.embed(b)
        assert np.linalg.norm(gap) == pytest.approx(phase_distance(a, b, spec), rel=1e-14)
        with pytest.raises(ValueError):
            spec.embed(np.zeros(5))


class TestDecayLaw:
    def test_exponential_values(self):
        law = DecayLaw("exponential", 1.0, 0.5)
        assert law.eval(0.0) == 1.0
        assert law.eval(2.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_polynomial_value(self):
        law = DecayLaw("polynomial", 2.0, 1.0)
        assert law.eval(4.0) == pytest.approx(0.5, rel=1e-15)

    def test_log_polynomial_domain(self):
        law = DecayLaw("log_polynomial", 1.0, 2.0)
        assert law.eval(math.e + 0.0) == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(ValueError):
            law.eval(1.0)
        with pytest.raises(ValueError):
            law.eval(0.5)

    def test_polynomial_domain(self):
        law = DecayLaw("polynomial", 1.0, 1.0, shift=2.0)
        with pytest.raises(ValueError):
            law.eval(2.0)

    @pytest.mark.parametrize(
        "kind,t0", [("exponential", 0.0), ("polynomial", 0.5), ("log_polynomial", 1.5)]
    )
    def test_strictly_decreasing(self, kind, t0, rng):
        law = DecayLaw(kind, 2.5, 0.7)
        ts = np.sort(rng.uniform(t0 + 0.1, t0 + 50.0, 50))
        vals = [law.eval(t) for t in ts]
        assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DecayLaw("exponential", 0.0, 1.0)
        with pytest.raises(ValueError):
            DecayLaw("exponential", 1.0, -1.0)
        with pytest.raises(ValueError):
            DecayLaw("gaussian", 1.0, 1.0)
