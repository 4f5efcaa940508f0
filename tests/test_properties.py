"""Property tests of the covering invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from attractorlab.covering import (
    EXACT_POINT_CAP,
    alpha_proxy,
    exact_kcenter_radius,
    exact_min_max_diameter,
    greedy_kcenter,
    semidist_arrays,
)
from attractorlab.phase import MetricSpec

# fixed example sequence and no example database, so runs are repeatable
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

COORD = st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False)


@st.composite
def point_sets(draw, max_points=EXACT_POINT_CAP, width=None):
    """A (P, W) array of coordinates, P <= ``max_points``; W is even and at
    most 6 unless ``width`` fixes it."""
    count = draw(st.integers(1, max_points))
    width = width or 2 * draw(st.integers(1, 3))
    return draw(arrays(np.float64, (count, width), elements=COORD))


@PROPERTY
@given(points=point_sets(), m=st.integers(1, 4))
def test_greedy_alpha_proxy_dominates_exact(points, m):
    spec = MetricSpec.dirichlet_1d(points.shape[1] // 2)
    embedded = spec.embed(points)
    greedy = alpha_proxy(points, m, spec)
    exact, _assignment = exact_min_max_diameter(cdist(embedded, embedded), m)
    assert greedy >= exact


@PROPERTY
@given(points=point_sets(), m=st.integers(1, 4))
def test_greedy_kcenter_radius_within_twice_optimal(points, m):
    _centers, _assignment, radius = greedy_kcenter(points, m)
    optimal = exact_kcenter_radius(cdist(points, points), m)
    assert radius <= 2.0 * optimal * (1 + 1e-12) + 1e-12


@PROPERTY
@given(data=st.data(), width=st.integers(1, 4).map(lambda n: 2 * n))
def test_semidist_is_zero_on_itself_and_obeys_the_triangle_inequality(data, width):
    a, b, c = (data.draw(point_sets(max_points=8, width=width)) for _ in range(3))
    assert semidist_arrays(a, a) == 0.0
    through_b = semidist_arrays(a, b) + semidist_arrays(b, c)
    assert semidist_arrays(a, c) <= through_b * (1 + 1e-12) + 1e-12


