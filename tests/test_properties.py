"""Property tests of the covering invariants."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from attractorlab import covering
from attractorlab.attracting import build_net
from attractorlab.covering import (
    EXACT_POINT_CAP,
    alpha_proxy,
    decay_trace,
    exact_kcenter_radius,
    exact_min_max_diameter,
    farthest_point_traversal,
    semidist_arrays,
)
from attractorlab.decay import DecayLaw
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
def test_traversal_radius_within_twice_optimal(points, m):
    # the covering radius of m farthest-point centers: their last distances
    *_, (_center, dist) = itertools.islice(farthest_point_traversal(points), m)
    radius = float(np.max(dist))
    optimal = exact_kcenter_radius(cdist(points, points), m)
    assert radius <= 2.0 * optimal * (1 + 1e-12) + 1e-12


@PROPERTY
@given(data=st.data(), width=st.integers(1, 4).map(lambda n: 2 * n))
def test_semidist_is_zero_on_itself_and_obeys_the_triangle_inequality(data, width):
    a, b, c = (data.draw(point_sets(max_points=8, width=width)) for _ in range(3))
    assert semidist_arrays(a, a) == 0.0
    through_b = semidist_arrays(a, b) + semidist_arrays(b, c)
    assert semidist_arrays(a, c) <= through_b * (1 + 1e-12) + 1e-12




def reference_traversal(points):
    """The farthest-point traversal of one (P, D) block, one block at a time
    with ``np.linalg.norm``: the reference for the stacked traversal."""
    center = int(np.argmax(np.linalg.norm(points, axis=1)))
    dist = np.linalg.norm(points - points[center], axis=1)
    while True:
        yield center, dist
        center = int(np.argmax(dist))
        dist = np.minimum(dist, np.linalg.norm(points - points[center], axis=1))


def reference_alpha(states, m, spec):
    """The cover measure of one (P, 2N) block from its traversal and full
    ``cdist`` matrices: the reference for the stacked, half-matrix one."""
    points = spec.embed(states)
    if m >= len(points):
        return 0.0
    centers = []
    for center, dist in reference_traversal(points):
        centers.append(center)
        if len(centers) == m or np.max(dist) == 0.0:
            break
    assignment = np.argmin(cdist(points, points[centers]), axis=1)
    return max(float(np.max(cdist(points[assignment == c], points[assignment == c])))
               for c in np.unique(assignment))


@st.composite
def block_stacks(draw):
    """A (..., P, W) stack of one or two leading axes.  Its rows are picked
    from a few distinct points, so blocks repeat points and share them;
    rounding makes coincident coordinates and distance ties, and the blocks
    are rescaled copies at several scales, zero included."""
    lead = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)))
    count = draw(st.integers(1, 9))
    width = 2 * draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = rng.standard_normal((rng.integers(1, 13), width))
    distinct = np.round(distinct, draw(st.sampled_from([0, 1, 3, 16])))
    picks = rng.integers(0, len(distinct), lead + (count,))
    scales = rng.choice([0.0, 1e-6, 1.0, 3.0, 1e3], lead + (1, 1))
    return scales * distinct[picks]


@PROPERTY
@given(stack=block_stacks(), data=st.data(), chunk_blocks=st.integers(1, 5))
def test_stacked_alpha_proxy_equals_each_block_alone(stack, data, chunk_blocks):
    *lead, count, width = stack.shape
    m = data.draw(st.integers(1, count + 1), label="m")  # m >= P included
    spec = MetricSpec.dirichlet_1d(width // 2)
    blocks = stack.reshape(-1, count, width)
    # a chunk budget of a few blocks, so most stacks span several chunks
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(covering, "_CHUNK_BYTES", chunk_blocks * count * width * 8)
        stacked = alpha_proxy(stack, m, spec)
    alone = np.array([alpha_proxy(block, m, spec) for block in blocks]).reshape(lead)
    reference = np.array([reference_alpha(block, m, spec) for block in blocks]).reshape(lead)
    assert stacked.shape == tuple(lead)
    assert stacked.tobytes() == alone.tobytes() == reference.tobytes()
    if len(lead) == 1:
        trace = decay_trace(np.arange(lead[0], dtype=float), stack, m, spec)
        assert trace.values.tobytes() == stacked.tobytes()


@PROPERTY
@given(stack=block_stacks(), steps=st.integers(1, 6))
def test_stacked_traversal_equals_each_block_alone(stack, steps):
    blocks = stack.reshape(-1, *stack.shape[-2:])
    stacked = farthest_point_traversal(stack)
    alone = [reference_traversal(block) for block in blocks]
    for _ in range(steps):
        center, dist = next(stacked)
        expected = [next(traversal) for traversal in alone]
        assert center.reshape(-1).tolist() == [c for c, _d in expected]
        assert dist.reshape(-1, stack.shape[-2]).tobytes() == np.stack(
            [d for _c, d in expected]).tobytes()


@PROPERTY
@given(stack=block_stacks(), fraction=st.sampled_from([1e-3, 0.1, 0.3, 0.7, 1.0]))
def test_build_net_centers_are_unchanged(stack, fraction):
    # each block stands for the time-1 image of a sample; the law's radius
    # at m = 1 is a fraction of the image's largest norm
    spec = MetricSpec.dirichlet_1d(stack.shape[-1] // 2)
    for evolved in stack.reshape(-1, *stack.shape[-2:]):
        embedded = spec.embed(evolved)
        radius = max(fraction * float(np.max(np.linalg.norm(embedded, axis=1))), 1e-9)
        chosen = []
        for center, dist in reference_traversal(embedded):
            chosen.append(center)
            if np.max(dist) <= radius:
                break
        states = -evolved  # the absorbed sample the images came from
        seeds, images = build_net(states, evolved, 1, DecayLaw("exponential", radius, 1.0, 1.0),
                                  spec)
        assert seeds.tobytes() == states[chosen].tobytes()
        assert images.tobytes() == evolved[chosen].tobytes()
