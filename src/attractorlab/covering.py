"""Empirical covering geometry: the greedy cover measure, Hausdorff
semidistance and decay traces.

The noncompactness of a finite sample is measured by the max cluster diameter
of a cover by ``m`` clusters.  ``alpha_proxy`` is the one measure the
pipelines use: farthest-point (Gonzalez) seeding followed by nearest-center
assignment.  Its covering *radius* is within a factor 2 of the optimal
k-center radius; the reported max diameter carries no such guarantee and is
simply what the greedy partition achieves.

``exact_min_max_diameter`` (the true minimum max diameter over partitions into
at most ``m`` blocks, by thresholding the pairwise distances and testing
m-colorability of the conflict graph) and ``exact_kcenter_radius`` are the
test oracles the greedy measure is checked against.  Both take a distance
matrix and are capped at 12 points.

All geometry runs on (P, 2N) state arrays, embedded by ``MetricSpec.embed``
into flat coordinates where the energy metric is Euclidean.

``_cdist`` is the package's one distance kernel.  It is scipy's compiled
Euclidean kernel, ``cdist_euclidean`` of the private extension module
``scipy.spatial._distance_pybind``, which the public
``scipy.spatial.distance.cdist(a, b)`` calls for the Euclidean metric.  The
extension file is loaded directly from scipy's package directory, so neither
``scipy/__init__.py`` nor ``scipy/spatial/__init__.py`` runs: importing
``scipy.spatial`` also imports ``scipy.sparse``, the KD-tree and the array-API
layer, and costs more time than most runs spend computing.  Where the file or
its ``cdist_euclidean`` is missing (another scipy version), ``_cdist`` is the
public ``cdist``, which gives the same distances.

``write_csv`` is the one writer of every output table in the package.
"""

from __future__ import annotations

import csv
import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np

from .phase import MetricSpec

__all__ = [
    "DecayTrace",
    "alpha_proxy",
    "decay_trace",
    "write_csv",
    "EXACT_POINT_CAP",
]

EXACT_POINT_CAP = 12
TRACE_COLUMNS = ("t", "value", "quantity", "m_clusters")  # a trace file's header


def _load_cdist():
    """scipy's Euclidean ``cdist`` kernel, loaded from its extension file
    without importing ``scipy.spatial``; the public ``cdist`` if the file or
    its kernel is missing (see the module docstring)."""
    for location in importlib.util.find_spec("scipy").submodule_search_locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(location, "spatial", "_distance_pybind" + suffix)
            if not os.path.isfile(path):
                continue
            spec = importlib.util.spec_from_file_location("scipy.spatial._distance_pybind", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            kernel = getattr(module, "cdist_euclidean", None)
            if kernel is not None:
                return kernel
    from scipy.spatial.distance import cdist

    return cdist


_cdist = _load_cdist()


def write_csv(path, header, rows):
    """Write a header and rows of Python numbers and strings, such as an
    array's ``tolist()`` rows.  The csv writer writes a float as its repr, the
    shortest round-trip form, so identical runs give byte-identical files (a
    numpy float's repr is ``np.float64(...)``, so callers convert first)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("trace times and values must be finite")
        if t.size and np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(v < 0):
            raise ValueError("trace values must be nonnegative")
        if self.quantity not in ("alpha_proxy", "semidist", "tail_norm"):
            raise ValueError(f"unknown trace quantity {self.quantity!r}")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def to_csv(self, path):
        rows = ([t, v, self.quantity, self.m_clusters]
                for t, v in zip(self.times.tolist(), self.values.tolist()))
        write_csv(path, TRACE_COLUMNS, rows)

    @classmethod
    def from_csv(cls, path) -> "DecayTrace":
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        if not rows:
            raise ValueError(f"empty trace file {path}")
        missing = [c for c in TRACE_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise ValueError(f"trace file {path} lacks the columns {missing}")

        def column(name, number=float) -> np.ndarray:
            try:
                return np.array([number(r[name]) for r in rows])
            except (TypeError, ValueError) as exc:  # not a number, or a short row
                raise ValueError(f"trace file {path} column {name!r}: {exc}") from None

        return cls(column("t"), column("value"), rows[0]["quantity"],
                   int(column("m_clusters", int)[0]))


# ---------------------------------------------------------------------------
# flat-array geometry


def semidist_arrays(a: np.ndarray, b: np.ndarray) -> float:
    """max over rows of ``a`` of the distance to the nearest row of ``b``."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("semidistance needs nonempty point sets")
    return float(np.max(np.min(_cdist(a, b), axis=1)))


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
    to_centers = _cdist(points, points[centers])
    assignment = np.argmin(to_centers, axis=1)
    radius = float(np.max(np.min(to_centers, axis=1)))
    return tuple(centers), assignment, radius


def max_cluster_diameter(points: np.ndarray, assignment) -> float:
    """Largest distance between two rows of ``points`` in one cluster; only
    the distances inside each cluster are computed."""
    assignment = np.asarray(assignment)
    worst = 0.0
    for c in np.unique(assignment):
        block = points[assignment == c]
        if block.shape[0] > 1:
            worst = max(worst, float(np.max(_cdist(block, block))))
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
# the cover measure


def alpha_proxy(states, m_clusters: int, spec: MetricSpec) -> float:
    """Max cluster diameter of the greedy cover of the (P, 2N) ``states`` by
    ``m_clusters`` clusters; deterministic."""
    points = spec.embed(states)
    if m_clusters >= len(points) >= 1:
        return 0.0  # a cluster per point: the greedy cover's diameters are all 0
    _centers, assignment, _radius = greedy_kcenter(points, m_clusters)
    return max_cluster_diameter(points, assignment)


def decay_trace(times, states, m_clusters: int, spec: MetricSpec) -> DecayTrace:
    """``alpha_proxy`` of each (P, 2N) block ``states[k]``, taken at the
    strictly increasing ``times[k]``."""
    values = [alpha_proxy(block, m_clusters, spec) for block in states]
    return DecayTrace(times, values, "alpha_proxy", m_clusters)
