"""Empirical covering geometry: cluster covers, Hausdorff semidistance, decay traces.

The noncompactness of a finite sample is measured by the smallest achievable
maximum cluster diameter over covers by ``m`` clusters.  Two methods:

* ``greedy``  -- farthest-point (Gonzalez) seeding followed by nearest-center
  assignment.  Its covering *radius* is within a factor 2 of the optimal
  k-center radius; the reported max diameter carries no such guarantee and is
  simply what the greedy partition achieves.
* ``exact``   -- the true minimum max diameter over all partitions into at
  most ``m`` blocks, found by thresholding the pairwise distances and testing
  m-colorability of the conflict graph.  Capped at 12 points.

All geometry runs on flat coordinate arrays produced by ``MetricSpec.embed``,
where the energy metric is Euclidean.

``write_csv`` is the one writer of every output table in the package.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .phase import Ensemble, MetricSpec

__all__ = [
    "CoverReport",
    "DecayTrace",
    "hausdorff_semidist",
    "alpha_proxy",
    "decay_trace",
    "write_csv",
    "EXACT_POINT_CAP",
]

EXACT_POINT_CAP = 12


def write_csv(path, header, rows):
    """Write a header and rows; every float goes through repr, the shortest
    round-trip form, so identical runs give byte-identical files."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
            )


@dataclass(frozen=True)
class CoverReport:
    """Outcome of covering a point set by ``cluster_count`` clusters."""

    cluster_count: int
    max_diameter: float
    assignment: tuple
    method: str
    center_indices: tuple | None = None


@dataclass(frozen=True)
class DecayTrace:
    """A sampled nonnegative quantity on a strictly increasing time grid."""

    times: np.ndarray
    values: np.ndarray
    quantity: str
    m_clusters: int = 0

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.shape != t.shape:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if t.size and np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(v < 0):
            raise ValueError("trace values must be nonnegative")
        if self.quantity not in ("alpha_proxy", "semidist", "tail_norm"):
            raise ValueError(f"unknown trace quantity {self.quantity!r}")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def to_csv(self, path):
        rows = ([t, v, self.quantity, self.m_clusters] for t, v in zip(self.times, self.values))
        write_csv(path, ["t", "value", "quantity", "m_clusters"], rows)

    @classmethod
    def from_csv(cls, path) -> "DecayTrace":
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if not rows:
            raise ValueError(f"empty trace file {path}")
        times = np.array([float(r["t"]) for r in rows])
        values = np.array([float(r["value"]) for r in rows])
        return cls(times, values, rows[0]["quantity"], int(rows[0]["m_clusters"]))


# ---------------------------------------------------------------------------
# flat-array geometry


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return cdist(points, points)


def semidist_arrays(a: np.ndarray, b: np.ndarray) -> float:
    """max over rows of ``a`` of the distance to the nearest row of ``b``."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("semidistance needs nonempty point sets")
    return float(np.max(np.min(cdist(a, b), axis=1)))


def farthest_point_traversal(points: np.ndarray):
    """Farthest-point (Gonzalez) order of the rows of ``points``.

    Yields (center, dist) for each new center, where ``dist`` holds every
    point's distance to the centers chosen so far.  The first center is the
    point of largest norm, each next one the point farthest from all chosen;
    ties break to the lowest index.  The caller decides when to stop.
    """
    center = int(np.argmax(np.linalg.norm(points, axis=1)))
    dist = np.linalg.norm(points - points[center], axis=1)
    while True:
        yield center, dist
        center = int(np.argmax(dist))
        dist = np.minimum(dist, np.linalg.norm(points - points[center], axis=1))


def greedy_kcenter(points: np.ndarray, m: int):
    """The first ``m`` farthest-point centers (fewer once all distances are
    zero), the nearest-center assignment and the covering radius, returned
    as (center_indices, assignment, radius)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if m < 1:
        raise ValueError("cluster budget must be >= 1")
    centers = []
    for center, dist in farthest_point_traversal(points):
        centers.append(center)
        if len(centers) >= min(m, points.shape[0]) or np.max(dist) == 0.0:
            break
    to_centers = cdist(points, points[centers])
    assignment = np.argmin(to_centers, axis=1)
    radius = float(np.max(np.min(to_centers, axis=1)))
    return tuple(centers), tuple(int(i) for i in assignment), radius


def max_cluster_diameter(dist_matrix: np.ndarray, assignment) -> float:
    assignment = np.asarray(assignment)
    worst = 0.0
    for c in np.unique(assignment):
        idx = np.flatnonzero(assignment == c)
        if idx.size > 1:
            worst = max(worst, float(np.max(dist_matrix[np.ix_(idx, idx)])))
    return worst


def _color_conflicts(adj: np.ndarray, m: int):
    """Partition vertices into <= m classes with no intra-class conflict edge,
    or return None.  Backtracking over vertices in decreasing conflict degree."""
    n = adj.shape[0]
    order = sorted(range(n), key=lambda v: -int(adj[v].sum()))
    classes: list[list[int]] = []
    coloring = [-1] * n

    def place(k: int) -> bool:
        if k == n:
            return True
        v = order[k]
        for ci, members in enumerate(classes):
            if not any(adj[v, u] for u in members):
                members.append(v)
                coloring[v] = ci
                if place(k + 1):
                    return True
                members.pop()
        if len(classes) < m:
            classes.append([v])
            coloring[v] = len(classes) - 1
            if place(k + 1):
                return True
            classes.pop()
        return False

    return coloring if place(0) else None


def exact_min_max_diameter(dist_matrix: np.ndarray, m: int):
    """True minimum over partitions into <= m blocks of the max intra-block
    distance, plus one optimal assignment.

    A partition with max diameter <= d exists iff the graph of pairs farther
    than d apart is m-colorable, so the optimum is the smallest pairwise
    distance threshold whose conflict graph admits an m-coloring.
    """
    d = np.asarray(dist_matrix, dtype=float)
    n = d.shape[0]
    if n > EXACT_POINT_CAP:
        raise ValueError(
            f"exact cover search is capped at {EXACT_POINT_CAP} points, got {n}"
        )
    candidates = np.unique(np.concatenate([[0.0], d[np.triu_indices(n, k=1)]]))
    lo, hi = 0, candidates.size - 1
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        coloring = _color_conflicts(d > candidates[mid], m)
        if coloring is not None:
            best = (float(candidates[mid]), tuple(coloring))
            hi = mid - 1
        else:
            lo = mid + 1
    # the full set is always a single partition, so m >= 1 is always feasible
    assert best is not None
    return best


def exact_kcenter_radius(dist_matrix: np.ndarray, m: int) -> float:
    """Optimal discrete k-center radius (centers chosen among the points)."""
    from itertools import combinations

    d = np.asarray(dist_matrix, dtype=float)
    n = d.shape[0]
    if n > EXACT_POINT_CAP:
        raise ValueError(
            f"exact k-center search is capped at {EXACT_POINT_CAP} points, got {n}"
        )
    m = min(m, n)
    best = np.inf
    for centers in combinations(range(n), m):
        r = float(np.max(np.min(d[:, centers], axis=1)))
        best = min(best, r)
    return best


# ---------------------------------------------------------------------------
# ensemble-level operations


def hausdorff_semidist(a: Ensemble, b: Ensemble, spec: MetricSpec) -> float:
    """One-sided set proximity: max over a's points of the distance to b."""
    if a.mode_count != b.mode_count or a.mode_count != spec.mode_count:
        raise ValueError("ensembles and metric must share one mode count")
    return semidist_arrays(a.embed(spec), b.embed(spec))


def alpha_proxy(
    e: Ensemble, m_clusters: int, spec: MetricSpec, method: str = "greedy"
) -> CoverReport:
    """Min-max cluster diameter of a cover by ``m_clusters`` clusters.

    ``greedy`` is deterministic and cheap; ``exact`` solves the partition
    problem optimally and refuses more than 12 points.
    """
    if m_clusters < 1:
        raise ValueError("m_clusters must be >= 1")
    points = e.embed(spec)
    if method == "greedy":
        centers, assignment, _radius = greedy_kcenter(points, m_clusters)
        diam = max_cluster_diameter(pairwise_distances(points), assignment)
        return CoverReport(m_clusters, diam, assignment, "greedy", centers)
    if method == "exact":
        diam, assignment = exact_min_max_diameter(pairwise_distances(points), m_clusters)
        return CoverReport(m_clusters, diam, assignment, "exact", None)
    raise ValueError(f"unknown cover method {method!r}")


def decay_trace(snapshots, m_clusters: int, spec: MetricSpec) -> DecayTrace:
    """Greedy alpha_proxy along a sequence of (time, Ensemble) snapshots."""
    times = [float(t) for t, _ in snapshots]
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("snapshot times must be strictly increasing")
    values = [
        alpha_proxy(ens, m_clusters, spec, method="greedy").max_diameter
        for _, ens in snapshots
    ]
    return DecayTrace(np.array(times), np.array(values), "alpha_proxy", m_clusters)
