import importlib.machinery
import itertools
import re
import types

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

from attractorlab import covering
from attractorlab.covering import (
    DecayTrace,
    alpha_proxy,
    decay_trace,
    exact_kcenter_radius,
    exact_min_max_diameter,
    farthest_point_traversal,
    max_cluster_diameter,
    semidist_arrays,
)
from attractorlab.phase import MetricSpec

from conftest import random_states, velocity_line_states


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


def exact_alpha(states, m, spec):
    """The exact cover measure of (P, 2N) states: the oracle for alpha_proxy."""
    points = spec.embed(states)
    return exact_min_max_diameter(cdist(points, points), m)[0]


def full_matrix_max_cluster_diameter(dist_matrix, assignment):
    """The max cluster diameter read from the full distance matrix: the
    reference the per-cluster computation must reproduce bit for bit."""
    assignment = np.asarray(assignment)
    worst = 0.0
    for c in np.unique(assignment):
        idx = np.flatnonzero(assignment == c)
        if idx.size > 1:
            worst = max(worst, float(np.max(dist_matrix[np.ix_(idx, idx)])))
    return worst


def greedy_cover(points, m):
    """The first ``m`` centers of the farthest-point traversal of one (P, D)
    block, its nearest-center assignment and its covering radius, the
    largest distance to the centers: (centers, assignment, radius)."""
    centers, dists = zip(*itertools.islice(farthest_point_traversal(points), m))
    centers = [int(c) for c in centers]
    assignment = np.argmin(cdist(points, points[centers]), axis=1)
    return centers, assignment, float(np.max(dists[-1]))


def same_bytes_as_cdist(a, b, kernel=covering._cdist):
    expected = cdist(a, b)
    got = kernel(a, b)
    return got.shape == expected.shape and got.tobytes() == expected.tobytes()


class TestDistanceKernel:
    """``covering._cdist`` against the public ``cdist``, bit for bit."""

    def test_random_shapes(self, rng):
        for _ in range(40):
            rows_a, rows_b, dim = rng.integers(1, 40, 3)
            scale = 10.0 ** rng.uniform(-6, 6)
            a = scale * rng.standard_normal((rows_a, dim))
            b = scale * rng.standard_normal((rows_b, dim))
            assert same_bytes_as_cdist(a, b)

    def test_one_column_and_one_row(self, rng):
        column = rng.standard_normal((9, 1))
        row = rng.standard_normal((1, 12))
        assert same_bytes_as_cdist(column, column[::-1].copy())
        assert same_bytes_as_cdist(row, rng.standard_normal((7, 12)))
        assert same_bytes_as_cdist(row, row)

    def test_same_array_on_both_sides(self, rng):
        x = rng.standard_normal((25, 16))
        assert same_bytes_as_cdist(x, x)

    def test_strided_views(self, rng):
        x = rng.standard_normal((30, 16))
        # a column slice, as quasistability_estimate passes its low modes
        assert not x[:, :5].flags.c_contiguous
        assert same_bytes_as_cdist(x[:, :5], x[:, :5])
        assert same_bytes_as_cdist(x[::2], x[1::3])

    @pytest.mark.parametrize("miss", ["suffix", "location"])
    def test_missing_extension_falls_back_to_the_public_cdist(self, rng, monkeypatch,
                                                              tmp_path, miss):
        if miss == "suffix":
            monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing.so"])
        else:
            spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
            spec.submodule_search_locations = [str(tmp_path)]
            monkeypatch.setattr(covering.importlib.util, "find_spec", lambda name: spec)
        kernel, _pdist = covering._load_kernels()
        assert kernel is cdist
        x = rng.standard_normal((12, 6))
        assert same_bytes_as_cdist(x, x[:, ::-1], kernel)


def same_bytes_as_pdist(x, kernel=covering._pdist):
    """The kernel's condensed distances equal the public ``pdist`` and the
    upper triangle of ``_cdist``, byte for byte."""
    got = kernel(x)
    upper = covering._cdist(x, x)[np.triu_indices(x.shape[0], k=1)]
    return got.tobytes() == pdist(x).tobytes() == upper.tobytes()


class TestHalfMatrixKernel:
    """``covering._pdist`` against the public ``pdist`` and the ``_cdist``
    upper triangle, bit for bit."""

    def test_random_shapes_and_scales(self, rng):
        for _ in range(60):
            rows, dim = rng.integers(2, 90), rng.integers(1, 70)
            scale = 10.0 ** rng.uniform(-8, 3)
            assert same_bytes_as_pdist(scale * rng.standard_normal((rows, dim)))

    def test_repeated_rows_and_one_column(self, rng):
        x = rng.standard_normal((9, 5))
        assert same_bytes_as_pdist(np.vstack([x, x[::2]]))
        assert same_bytes_as_pdist(rng.standard_normal((11, 1)))
        assert same_bytes_as_pdist(np.zeros((4, 3)))
        assert covering._pdist(x[:2]).shape == (1,)

    def test_strided_views(self, rng):
        x = rng.standard_normal((40, 18))
        assert not x[:, :7].flags.c_contiguous
        assert same_bytes_as_pdist(x[:, :7])
        assert same_bytes_as_pdist(x[::3])
        assert same_bytes_as_pdist(x[1::2, ::-2])

    def test_missing_extension_kernel_falls_back_to_the_public_pdist(self, rng, monkeypatch):
        # an extension module without pdist_euclidean: both kernels are public
        stub = types.ModuleType("scipy.spatial._distance_pybind")
        stub.cdist_euclidean = covering._cdist
        monkeypatch.setattr(covering.importlib.util, "module_from_spec", lambda spec: stub)
        kernels = covering._load_kernels()
        assert kernels == (cdist, pdist)
        assert same_bytes_as_pdist(rng.standard_normal((15, 6)), kernels[1])
        # the cluster diameters read the same through either kernel
        points = rng.standard_normal((40, 6))
        assignment = greedy_cover(points, 3)[1]
        extension = max_cluster_diameter(points, assignment)
        monkeypatch.setattr(covering, "_pdist", pdist)
        assert max_cluster_diameter(points, assignment) == extension


class TestSemidist:
    def test_identity(self, rng):
        spec = MetricSpec.dirichlet_1d(3)
        points = spec.embed(random_states(rng, spec, 4))
        assert semidist_arrays(points, points) == 0.0

    def test_farthest_point(self):
        # one mode with eigenvalue 1: the embedding is the identity
        origin = np.zeros(2)
        far = np.array([0.0, 2.0])
        a = np.stack([far, origin])
        b = origin[None, :]
        assert semidist_arrays(a, b) == 2.0
        assert semidist_arrays(b, a) == 0.0

    def test_matches_double_loop(self, rng):
        spec = MetricSpec.dirichlet_1d(5)
        ea = spec.embed(random_states(rng, spec, 6))
        eb = spec.embed(random_states(rng, spec, 4))
        brute = max(
            min(np.linalg.norm(ea[i] - eb[j]) for j in range(len(eb)))
            for i in range(len(ea))
        )
        assert semidist_arrays(ea, eb) == pytest.approx(brute, rel=1e-14)

    def test_directed_triangle_inequality(self, rng):
        spec = MetricSpec.dirichlet_1d(4)
        for _ in range(30):
            a, b, c = (spec.embed(random_states(rng, spec, k)) for k in (5, 4, 6))
            d_ac = semidist_arrays(a, c)
            d_ab = semidist_arrays(a, b)
            d_bc = semidist_arrays(b, c)
            assert d_ac <= (d_ab + d_bc) * (1 + 1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            semidist_arrays(np.zeros((0, 2)), np.zeros((3, 2)))


class TestMaxClusterDiameter:
    def test_per_cluster_matches_full_matrix_bit_for_bit(self, rng):
        spec = MetricSpec.dirichlet_1d(4)
        for count in (1, 2, 5, 17, 60):
            states = random_states(rng, spec, count)
            # duplicate points, so some clusters hold repeated rows
            states = np.vstack([states, states[: count // 2]])
            points = spec.embed(states)
            dist = cdist(points, points)
            assignments = [
                greedy_cover(points, m)[1] for m in (1, 3, len(points))
            ] + [
                # random labels: a spread of cluster sizes, singletons included
                rng.integers(0, max(1, len(points) // 2), len(points)),
                np.arange(len(points)),
            ]
            for assignment in assignments:
                assert max_cluster_diameter(points, assignment) == (
                    full_matrix_max_cluster_diameter(dist, assignment)
                )

    def test_alpha_proxy_is_the_greedy_cover_diameter(self, rng):
        spec = MetricSpec.dirichlet_1d(3)
        states = random_states(rng, spec, 9)
        points = spec.embed(states)
        _centers, assignment, _radius = greedy_cover(points, 3)
        assert alpha_proxy(states, 3, spec) == max_cluster_diameter(points, assignment)


class TestAlphaProxy:
    def test_enough_clusters_or_repeated_points_give_zero(self, rng):
        spec = MetricSpec.dirichlet_1d(3)
        states = random_states(rng, spec, 5)
        for m in (5, 9):
            assert alpha_proxy(states, m, spec) == 0.0
            assert exact_alpha(states, m, spec) == 0.0
        repeated = np.repeat(states[:1], 4, axis=0)
        assert alpha_proxy(repeated, 1, spec) == 0.0
        assert exact_alpha(repeated, 1, spec) == 0.0

    @pytest.mark.parametrize("count,distinct,m", [(1, 1, 1), (4, 4, 4), (6, 3, 6), (30, 12, 45)])
    def test_a_cluster_per_point_gives_the_greedy_cover_diameter(self, rng, count, distinct, m):
        # with m >= P the cover is not built; the greedy one gives the same
        # value, repeated points included
        spec = MetricSpec.dirichlet_1d(3)
        states = random_states(rng, spec, distinct)[rng.integers(0, distinct, count)]
        points = spec.embed(states)
        greedy = max_cluster_diameter(points, greedy_cover(points, m)[1])
        assert alpha_proxy(states, m, spec) == greedy == 0.0

    def test_three_points_two_clusters(self):
        states = velocity_line_states([0.0, 1.0, 2.0])
        diameter, assign = exact_min_max_diameter(cdist(states, states), 2)
        assert diameter == 1.0
        # the {0,1},{2} split is the only optimal one
        assert assign[0] == assign[1] and assign[2] != assign[0]

    def test_pair_single_cluster(self):
        spec = MetricSpec.dirichlet_1d(1)
        states = velocity_line_states([0.0, 1.0])
        assert alpha_proxy(states, 1, spec) == 1.0
        assert exact_alpha(states, 1, spec) == 1.0

    def test_cluster_budget_must_be_positive(self, rng):
        spec = MetricSpec.dirichlet_1d(2)
        with pytest.raises(ValueError, match=">= 1"):
            alpha_proxy(random_states(rng, spec, 3), 0, spec)

    def test_centers_past_zero_distance_change_nothing(self):
        # 1e-170 squares to zero: after two centers every distance is zero,
        # and the traversal's third center repeats the first
        spec = MetricSpec.dirichlet_1d(1)
        states = np.array([[1.0, 1e-170], [5.0, 0.0], [1.0, 0.0], [5.0, 1e-170], [1.0, 0.0]])
        points = spec.embed(states)
        two_centers, two_assignment, two_radius = greedy_cover(points, 2)
        centers, assignment, radius = greedy_cover(points, 3)
        assert (two_centers, two_radius) == ([1, 0], 0.0)
        assert (centers, radius) == ([1, 0, 0], 0.0)
        # the third center takes no point
        assert np.array_equal(assignment, two_assignment)
        assert alpha_proxy(states, 3, spec) == max_cluster_diameter(points, assignment) == 0.0
        stack = np.stack([states, 2.0 * states, states[::-1]])
        assert alpha_proxy(stack, 3, spec).tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("shape", [(0, 4), (3, 0, 4), (2, 2, 0, 4)])
    def test_empty_block_is_refused(self, shape):
        spec = MetricSpec.dirichlet_1d(2)
        with pytest.raises(ValueError, match=r"empty block: states of shape "
                                             + re.escape(str(shape))):
            alpha_proxy(np.zeros(shape), 2, spec)

    @pytest.mark.parametrize("shape", [(3, 0), (2, 3, 6)])
    def test_state_width_must_match_the_metric(self, shape):
        with pytest.raises(ValueError, match="does not match 2 metric eigenvalues"):
            alpha_proxy(np.ones(shape), 1, MetricSpec.dirichlet_1d(2))

    def test_one_block_gives_a_float_and_a_stack_its_leading_shape(self, rng):
        # the values themselves are checked block by block in test_properties
        spec = MetricSpec.dirichlet_1d(2)
        stack = random_states(rng, spec, 36).reshape(2, 3, 6, 4)
        assert type(alpha_proxy(stack[0, 0], 2, spec)) is float
        for m in (2, 6):
            assert alpha_proxy(stack, m, spec).shape == (2, 3)
        assert alpha_proxy(stack[:0], 2, spec).shape == (0, 3)

    def test_exact_cap(self, rng):
        spec = MetricSpec.dirichlet_1d(2)
        points = spec.embed(random_states(rng, spec, 13))
        dist = cdist(points, points)
        with pytest.raises(ValueError, match="12"):
            exact_min_max_diameter(dist, 3)
        with pytest.raises(ValueError, match="12"):
            exact_kcenter_radius(dist, 3)

    def test_exact_assignment_recomputable(self, rng):
        spec = MetricSpec.dirichlet_1d(3)
        points = spec.embed(random_states(rng, spec, 9))
        diameter, assignment = exact_min_max_diameter(cdist(points, points), 3)
        assert max_cluster_diameter(points, assignment) == pytest.approx(diameter, abs=1e-15)
        assert len(assignment) == len(points)

    def test_exact_matches_partition_enumeration(self, rng):
        spec = MetricSpec.dirichlet_1d(3)
        for count, m in [(5, 2), (6, 3), (7, 2), (8, 3)]:
            points = spec.embed(random_states(rng, spec, count))
            dist = cdist(points, points)
            expected = brute_force_min_max_diameter(dist, m)
            assert exact_min_max_diameter(dist, m)[0] == pytest.approx(expected, rel=1e-14)

    def test_greedy_between_exact_and_double(self, rng):
        spec = MetricSpec.dirichlet_1d(3)
        for _ in range(25):
            states = random_states(rng, spec, 8)
            exact = exact_alpha(states, 3, spec)
            greedy = alpha_proxy(states, 3, spec)
            assert greedy >= exact * (1 - 1e-12)
            assert greedy <= 2.0 * exact + 1e-12

    def test_greedy_radius_factor_two(self, rng):
        spec = MetricSpec.dirichlet_1d(3)
        for _ in range(25):
            points = spec.embed(random_states(rng, spec, 10))
            _, _, radius = greedy_cover(points, 3)
            optimal = exact_kcenter_radius(cdist(points, points), 3)
            assert radius <= 2.0 * optimal + 1e-12

    def test_greedy_deterministic_and_seeded_at_max_norm(self, rng):
        spec = MetricSpec.dirichlet_1d(2)
        points = spec.embed(random_states(rng, spec, 7))
        centers, assign, radius = greedy_cover(points, 3)
        assert centers[0] == int(np.argmax(np.linalg.norm(points, axis=1)))
        again = greedy_cover(points, 3)
        assert again[0] == centers and np.array_equal(again[1], assign) and again[2] == radius

    def test_scaling_equivariance(self, rng):
        spec = MetricSpec.dirichlet_1d(3)
        states = random_states(rng, spec, 8)
        scaled = 3.5 * states
        for measure in (alpha_proxy, exact_alpha):
            base = measure(states, 3, spec)
            assert measure(scaled, 3, spec) == pytest.approx(3.5 * base, rel=1e-12)
        origin = np.zeros((1, 6))
        assert semidist_arrays(spec.embed(scaled), origin) == (
            pytest.approx(3.5 * semidist_arrays(spec.embed(states), origin))
        )


class TestCoverAlgebra:
    """Set-algebra behavior of the exact cover measure on small cases."""

    def test_monotone_under_subsets(self, rng):
        spec = MetricSpec.dirichlet_1d(2)
        for _ in range(10):
            big = random_states(rng, spec, 8)
            small = big[:5]
            for m in (1, 2, 3):
                assert exact_alpha(small, m, spec) <= exact_alpha(big, m, spec) + 1e-15

    def test_union_budget(self, rng):
        spec = MetricSpec.dirichlet_1d(2)
        for _ in range(10):
            a = random_states(rng, spec, 5)
            b = random_states(rng, spec, 5)
            m_a = m_b = 2
            v_a = exact_alpha(a, m_a, spec)
            v_b = exact_alpha(b, m_b, spec)
            v_u = exact_alpha(np.vstack([a, b]), m_a + m_b, spec)
            assert v_u <= max(v_a, v_b) + 1e-15

    def test_minkowski_subadditive(self, rng):
        spec = MetricSpec.dirichlet_1d(2)
        for _ in range(6):
            a = random_states(rng, spec, 3)
            b = random_states(rng, spec, 3)
            m_a = m_b = 2
            v_a = exact_alpha(a, m_a, spec)
            v_b = exact_alpha(b, m_b, spec)
            summed = np.stack([pa + pb for pa in a for pb in b])
            v_s = exact_alpha(summed, m_a * m_b, spec)
            assert v_s <= v_a + v_b + 1e-12


class TestDecayTrace:
    def test_validation(self):
        with pytest.raises(ValueError):
            DecayTrace(np.array([0.0, 0.0]), np.array([1.0, 1.0]), "semidist")
        with pytest.raises(ValueError):
            DecayTrace(np.array([0.0, 1.0]), np.array([1.0, -1.0]), "semidist")
        with pytest.raises(ValueError):
            DecayTrace(np.array([0.0, 1.0]), np.array([1.0, 1.0]), "spread")

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            DecayTrace(np.array([0.0, 1.0]), np.array([1.0, bad]), "semidist")
        with pytest.raises(ValueError, match="finite"):
            DecayTrace(np.array([0.0, bad]), np.array([1.0, 1.0]), "semidist")

    def test_constant_for_identical_snapshots(self, rng):
        spec = MetricSpec.dirichlet_1d(2)
        e = random_states(rng, spec, 6)
        trace = decay_trace([0.0, 1.0, 2.0], np.stack([e, e, e]), 2, spec)
        assert np.all(trace.values == trace.values[0])
        assert trace.quantity == "alpha_proxy"
        assert trace.m_clusters == 2

    def test_exact_scaling_of_contracting_cloud(self, rng):
        # snapshots x * exp(-t) scale every pairwise distance by exp(-t)
        spec = MetricSpec.dirichlet_1d(3)
        base = random_states(rng, spec, 7)
        times = [0.0, 0.5, 1.0, 2.0]
        trace = decay_trace(times, np.stack([np.exp(-t) * base for t in times]), 3, spec)
        expected = trace.values[0] * np.exp(-np.asarray(times))
        assert np.allclose(trace.values, expected, rtol=1e-12)

    def test_single_point_snapshots_are_zero(self):
        spec = MetricSpec.dirichlet_1d(1)
        e = np.array([[0.3, 0.1]])
        trace = decay_trace([0.0, 1.0], np.stack([e, e]), 2, spec)
        assert np.all(trace.values == 0.0)

    def test_nonincreasing_times_rejected(self, rng):
        spec = MetricSpec.dirichlet_1d(1)
        e = random_states(rng, spec, 2)
        with pytest.raises(ValueError):
            decay_trace([1.0, 1.0], np.stack([e, e]), 1, spec)

    def test_csv_round_trip(self, rng, tmp_path):
        spec = MetricSpec.dirichlet_1d(2)
        e = random_states(rng, spec, 5)
        times = [0.0, 1.0, 2.0, 3.0]
        trace = decay_trace(times, np.stack([np.exp(-t) * e for t in times]), 2, spec)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,value,quantity,m_clusters"
        back = DecayTrace.from_csv(path)
        assert np.array_equal(back.times, trace.times)
        assert np.array_equal(back.values, trace.values)
        assert back.quantity == trace.quantity and back.m_clusters == trace.m_clusters


WRITERS = {  # a table's rows rendered or written, or its named columns
    "csv_text": lambda path, table: path.write_bytes(covering.csv_text(
        ["c1", "c2", "c3", "c4", "c5"], table.tolist()).encode()),
    "write_csv": lambda path, table: covering.write_csv(
        path, ["c1", "c2", "c3", "c4", "c5"], table.tolist()),
    "write_columns": lambda path, table: covering.write_columns(
        path, **{f"c{i + 1}": column for i, column in enumerate(table.T)}),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_write_csv_writes_each_float_as_its_repr(rng, tmp_path, writer):
    # the csv writer formats a Python float as repr(float(v)) does, edge values included
    edges = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5, 1e-4, 1 / 3]
    table = np.concatenate([edges, rng.standard_normal(40) * 10.0 ** rng.integers(-30, 30, 40)])
    table = table.reshape(-1, 5)
    path = tmp_path / "table.csv"
    WRITERS[writer](path, table)
    lines = path.read_text().splitlines()
    assert lines[0] == "c1,c2,c3,c4,c5"
    assert lines[1:] == [",".join(repr(float(v)) for v in row) for row in table]
    assert lines[1] == "nan,inf,-inf,-0.0,0.0"
    assert lines[2] == "5e-324,1e+16,1e-05,0.0001,0.3333333333333333"


def test_write_columns_writes_an_int_column_as_ints(tmp_path):
    # the certificate's satisfied column: a bool array as int, written 0 and 1
    path = tmp_path / "table.csv"
    satisfied = np.array([True, False]).astype(int)
    covering.write_columns(path, t=np.array([0.5, 1.0]), satisfied=satisfied)
    assert path.read_text().splitlines() == ["t,satisfied", "0.5,1", "1.0,0"]


def test_write_columns_refuses_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError):
        covering.write_columns(tmp_path / "table.csv", t=np.zeros(3), bound=np.zeros(2))
