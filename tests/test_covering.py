import itertools

import numpy as np
import pytest

from attractorlab.covering import (
    DecayTrace,
    alpha_proxy,
    decay_trace,
    exact_kcenter_radius,
    exact_min_max_diameter,
    greedy_kcenter,
    hausdorff_semidist,
    max_cluster_diameter,
    pairwise_distances,
    semidist_arrays,
)
from attractorlab.phase import Ensemble, MetricSpec

from conftest import random_ensemble, velocity_line_ensemble


def all_partitions(items):
    """Every partition of a list into nonempty blocks (the literal oracle)."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in all_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1 :]
        yield part + [[head]]


def brute_force_min_max_diameter(dist, m):
    best = np.inf
    for part in all_partitions(list(range(dist.shape[0]))):
        if len(part) > m:
            continue
        worst = 0.0
        for block in part:
            for i, j in itertools.combinations(block, 2):
                worst = max(worst, dist[i, j])
        best = min(best, worst)
    return best


class TestHausdorffSemidist:
    def test_identity(self, rng):
        spec = MetricSpec.dirichlet_1d(3)
        e = random_ensemble(rng, spec, 4)
        assert hausdorff_semidist(e, e, spec) == 0.0

    def test_farthest_point(self):
        spec = MetricSpec.dirichlet_1d(1)
        origin = np.zeros(2)
        far = np.array([0.0, 2.0])
        a = Ensemble(np.stack([far, origin]))
        b = Ensemble(origin[None, :])
        assert hausdorff_semidist(a, b, spec) == 2.0
        assert hausdorff_semidist(b, a, spec) == 0.0

    def test_matches_double_loop(self, rng):
        spec = MetricSpec.dirichlet_1d(5)
        a = random_ensemble(rng, spec, 6)
        b = random_ensemble(rng, spec, 4)
        ea, eb = a.embed(spec), b.embed(spec)
        brute = max(
            min(np.linalg.norm(ea[i] - eb[j]) for j in range(len(b)))
            for i in range(len(a))
        )
        assert hausdorff_semidist(a, b, spec) == pytest.approx(brute, rel=1e-14)

    def test_directed_triangle_inequality(self, rng):
        spec = MetricSpec.dirichlet_1d(4)
        for _ in range(30):
            a = random_ensemble(rng, spec, 5)
            b = random_ensemble(rng, spec, 4)
            c = random_ensemble(rng, spec, 6)
            d_ac = hausdorff_semidist(a, c, spec)
            d_ab = hausdorff_semidist(a, b, spec)
            d_bc = hausdorff_semidist(b, c, spec)
            assert d_ac <= (d_ab + d_bc) * (1 + 1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            semidist_arrays(np.zeros((0, 2)), np.zeros((3, 2)))


class TestAlphaProxy:
    def test_enough_clusters_gives_zero(self, rng):
        spec = MetricSpec.dirichlet_1d(3)
        e = random_ensemble(rng, spec, 5)
        for method in ("greedy", "exact"):
            assert alpha_proxy(e, 5, spec, method).max_diameter == 0.0
            assert alpha_proxy(e, 9, spec, method).max_diameter == 0.0

    def test_three_points_two_clusters(self):
        spec = MetricSpec.dirichlet_1d(1)
        e = velocity_line_ensemble([0.0, 1.0, 2.0])
        report = alpha_proxy(e, 2, spec, "exact")
        assert report.max_diameter == 1.0
        # the {0,1},{2} split is the only optimal one
        assign = np.asarray(report.assignment)
        assert assign[0] == assign[1] and assign[2] != assign[0]

    def test_pair_single_cluster(self):
        spec = MetricSpec.dirichlet_1d(1)
        e = velocity_line_ensemble([0.0, 1.0])
        for method in ("greedy", "exact"):
            assert alpha_proxy(e, 1, spec, method).max_diameter == 1.0

    def test_exact_cap(self, rng):
        spec = MetricSpec.dirichlet_1d(2)
        e = random_ensemble(rng, spec, 13)
        with pytest.raises(ValueError, match="12"):
            alpha_proxy(e, 3, spec, "exact")

    def test_report_recomputable(self, rng):
        spec = MetricSpec.dirichlet_1d(3)
        e = random_ensemble(rng, spec, 9)
        for method in ("greedy", "exact"):
            report = alpha_proxy(e, 3, spec, method)
            dist = pairwise_distances(e.embed(spec))
            assert max_cluster_diameter(dist, report.assignment) == pytest.approx(
                report.max_diameter, abs=1e-15
            )
            assert len(report.assignment) == len(e)

    def test_exact_matches_partition_enumeration(self, rng):
        spec = MetricSpec.dirichlet_1d(3)
        for count, m in [(5, 2), (6, 3), (7, 2), (8, 3)]:
            e = random_ensemble(rng, spec, count)
            dist = pairwise_distances(e.embed(spec))
            expected = brute_force_min_max_diameter(dist, m)
            assert alpha_proxy(e, m, spec, "exact").max_diameter == pytest.approx(
                expected, rel=1e-14
            )

    def test_greedy_between_exact_and_double(self, rng):
        spec = MetricSpec.dirichlet_1d(3)
        for _ in range(25):
            e = random_ensemble(rng, spec, 8)
            exact = alpha_proxy(e, 3, spec, "exact").max_diameter
            greedy = alpha_proxy(e, 3, spec, "greedy").max_diameter
            assert greedy >= exact * (1 - 1e-12)
            assert greedy <= 2.0 * exact + 1e-12

    def test_greedy_radius_factor_two(self, rng):
        spec = MetricSpec.dirichlet_1d(3)
        for _ in range(25):
            e = random_ensemble(rng, spec, 10)
            points = e.embed(spec)
            _, _, radius = greedy_kcenter(points, 3)
            optimal = exact_kcenter_radius(pairwise_distances(points), 3)
            assert radius <= 2.0 * optimal + 1e-12

    def test_greedy_deterministic_and_seeded_at_max_norm(self, rng):
        spec = MetricSpec.dirichlet_1d(2)
        e = random_ensemble(rng, spec, 7)
        points = e.embed(spec)
        centers, assign, _ = greedy_kcenter(points, 3)
        assert centers[0] == int(np.argmax(np.linalg.norm(points, axis=1)))
        again = greedy_kcenter(points, 3)
        assert again[0] == centers and again[1] == assign

    def test_scaling_equivariance(self, rng):
        spec = MetricSpec.dirichlet_1d(3)
        e = random_ensemble(rng, spec, 8)
        scaled = Ensemble.from_matrix(3.5 * e.as_matrix())
        for method in ("greedy", "exact"):
            base = alpha_proxy(e, 3, spec, method).max_diameter
            big = alpha_proxy(scaled, 3, spec, method).max_diameter
            assert big == pytest.approx(3.5 * base, rel=1e-12)
        origin = Ensemble(np.zeros((1, 6)))
        assert hausdorff_semidist(scaled, origin, spec) == (
            pytest.approx(3.5 * hausdorff_semidist(e, origin, spec))
        )


class TestCoverAlgebra:
    """Set-algebra behavior of the exact cover measure on small cases."""

    def test_monotone_under_subsets(self, rng):
        spec = MetricSpec.dirichlet_1d(2)
        for _ in range(10):
            big = random_ensemble(rng, spec, 8)
            small = Ensemble(big.as_matrix()[:5])
            for m in (1, 2, 3):
                inner = alpha_proxy(small, m, spec, "exact").max_diameter
                outer = alpha_proxy(big, m, spec, "exact").max_diameter
                assert inner <= outer + 1e-15

    def test_union_budget(self, rng):
        spec = MetricSpec.dirichlet_1d(2)
        for _ in range(10):
            a = random_ensemble(rng, spec, 5)
            b = random_ensemble(rng, spec, 5)
            m_a = m_b = 2
            v_a = alpha_proxy(a, m_a, spec, "exact").max_diameter
            v_b = alpha_proxy(b, m_b, spec, "exact").max_diameter
            union = Ensemble(np.vstack([a.as_matrix(), b.as_matrix()]))
            v_u = alpha_proxy(union, m_a + m_b, spec, "exact").max_diameter
            assert v_u <= max(v_a, v_b) + 1e-15

    def test_minkowski_subadditive(self, rng):
        spec = MetricSpec.dirichlet_1d(2)
        for _ in range(6):
            a = random_ensemble(rng, spec, 3)
            b = random_ensemble(rng, spec, 3)
            m_a = m_b = 2
            v_a = alpha_proxy(a, m_a, spec, "exact").max_diameter
            v_b = alpha_proxy(b, m_b, spec, "exact").max_diameter
            rows = [pa + pb for pa in a.as_matrix() for pb in b.as_matrix()]
            summed = Ensemble.from_matrix(np.stack(rows))
            v_s = alpha_proxy(summed, m_a * m_b, spec, "exact").max_diameter
            assert v_s <= v_a + v_b + 1e-12

    def test_exact_min_max_diameter_shape_checks(self):
        with pytest.raises(ValueError, match="12"):
            exact_min_max_diameter(np.zeros((13, 13)), 2)


class TestDecayTrace:
    def test_validation(self):
        with pytest.raises(ValueError):
            DecayTrace(np.array([0.0, 0.0]), np.array([1.0, 1.0]), "semidist")
        with pytest.raises(ValueError):
            DecayTrace(np.array([0.0, 1.0]), np.array([1.0, -1.0]), "semidist")
        with pytest.raises(ValueError):
            DecayTrace(np.array([0.0, 1.0]), np.array([1.0, 1.0]), "spread")

    def test_constant_for_identical_snapshots(self, rng):
        spec = MetricSpec.dirichlet_1d(2)
        e = random_ensemble(rng, spec, 6)
        trace = decay_trace([(0.0, e), (1.0, e), (2.0, e)], 2, spec)
        assert np.all(trace.values == trace.values[0])
        assert trace.quantity == "alpha_proxy"
        assert trace.m_clusters == 2

    def test_exact_scaling_of_contracting_cloud(self, rng):
        # snapshots x * exp(-t) scale every pairwise distance by exp(-t)
        spec = MetricSpec.dirichlet_1d(3)
        base = random_ensemble(rng, spec, 7)
        times = [0.0, 0.5, 1.0, 2.0]
        snaps = [
            (t, Ensemble.from_matrix(np.exp(-t) * base.as_matrix())) for t in times
        ]
        trace = decay_trace(snaps, 3, spec)
        expected = trace.values[0] * np.exp(-np.asarray(times))
        assert np.allclose(trace.values, expected, rtol=1e-12)

    def test_single_point_snapshots_are_zero(self):
        spec = MetricSpec.dirichlet_1d(1)
        e = Ensemble(np.array([[0.3, 0.1]]))
        trace = decay_trace([(0.0, e), (1.0, e)], 2, spec)
        assert np.all(trace.values == 0.0)

    def test_nonincreasing_times_rejected(self, rng):
        spec = MetricSpec.dirichlet_1d(1)
        e = random_ensemble(rng, spec, 2)
        with pytest.raises(ValueError):
            decay_trace([(1.0, e), (1.0, e)], 1, spec)

    def test_csv_round_trip(self, rng, tmp_path):
        spec = MetricSpec.dirichlet_1d(2)
        e = random_ensemble(rng, spec, 5)
        snaps = [(float(t), Ensemble.from_matrix(np.exp(-t) * e.as_matrix())) for t in range(4)]
        trace = decay_trace(snaps, 2, spec)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,value,quantity,m_clusters"
        back = DecayTrace.from_csv(path)
        assert np.array_equal(back.times, trace.times)
        assert np.array_equal(back.values, trace.values)
        assert back.quantity == trace.quantity and back.m_clusters == trace.m_clusters
