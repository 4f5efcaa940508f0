"""Empirical covering geometry: the greedy cover measure, Hausdorff
semidistance and decay traces.

The noncompactness of a finite sample is measured by the max cluster diameter
of a cover by ``m`` clusters.  ``alpha_proxy`` is the one measure the
pipelines use: its seeding is ``farthest_point_traversal`` (Gonzalez), the
one greedy cover in the package, followed by nearest-center assignment.  The
covering *radius* is the traversal's last distance, the largest entry of
``dist`` after ``m`` centers, and is within a factor 2 of the optimal k-center
radius; the reported max diameter carries no such guarantee and is simply
what the greedy partition achieves.

``exact_min_max_diameter`` (the true minimum max diameter over partitions into
at most ``m`` blocks, by thresholding the pairwise distances and testing
m-colorability of the conflict graph) and ``exact_kcenter_radius`` are the
test oracles the greedy measure is checked against.  Both take a distance
matrix and are capped at 12 points.

All geometry runs on (P, 2N) state arrays, embedded by ``MetricSpec.embed``
into flat coordinates where the energy metric is Euclidean; the cover measure
also takes stacks (..., P, 2N) of them, as the engines do.

The package has two distance kernels, scipy's compiled Euclidean ones in the
private extension module ``scipy.spatial._distance_pybind``.  ``_cdist``
(``cdist_euclidean``, which the public ``cdist(a, b)`` calls) gives the
distances between two point sets, and ``_pdist`` (``pdist_euclidean``, which
the public ``pdist(x)`` calls) the condensed upper triangle of one set's
distance matrix.  A cluster's diameter reads only that half: the full matrix
is symmetric with a zero diagonal, and its upper triangle equals ``pdist``
bit for bit, so ``cdist`` would compute each pair twice, and the diagonal,
for the same maximum.  The extension file is loaded directly from
scipy's package directory, so neither ``scipy/__init__.py`` nor
``scipy/spatial/__init__.py`` runs: importing ``scipy.spatial`` also imports
``scipy.sparse``, the KD-tree and the array-API layer, and costs more time
than most runs spend computing.  Where the file or one of its kernels is
missing (another scipy version), the kernels are the public ``cdist`` and
``pdist``, which give the same distances.

``csv_text`` is the one renderer of every output table in the package: it
gives a table's CSV text, which ``write_csv`` writes to a file and
``write_columns`` feeds with a table given as named columns.  A table
rendered ahead of its file (``AttractingSetApprox.net_tables``) comes from
the same renderer, so its bytes are the file's.
"""

from __future__ import annotations

import csv
import importlib.machinery
import importlib.util
import io
import itertools
import os
from dataclasses import dataclass

import numpy as np

from .phase import MetricSpec

__all__ = [
    "DecayTrace",
    "alpha_proxy",
    "csv_text",
    "decay_trace",
    "write_columns",
    "write_csv",
    "write_text",
    "EXACT_POINT_CAP",
]

EXACT_POINT_CAP = 12
TRACE_COLUMNS = ("t", "value", "quantity", "m_clusters")  # a trace file's header


def _load_kernels():
    """scipy's Euclidean (``cdist``, ``pdist``) kernels, loaded from their
    extension file without importing ``scipy.spatial``; the public functions
    if the file or one of its kernels is missing (see the module docstring)."""
    for location in importlib.util.find_spec("scipy").submodule_search_locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(location, "spatial", "_distance_pybind" + suffix)
            if not os.path.isfile(path):
                continue
            spec = importlib.util.spec_from_file_location("scipy.spatial._distance_pybind", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            kernels = (getattr(module, "cdist_euclidean", None),
                       getattr(module, "pdist_euclidean", None))
            if None not in kernels:
                return kernels
    from scipy.spatial.distance import cdist, pdist

    return cdist, pdist


_cdist, _pdist = _load_kernels()
# embedded coordinates the cover measure holds at once: with the traversal's
# one buffer of the same size, a chunk leaves a run's peak memory in place
_CHUNK_BYTES = 1 << 18


def csv_text(header, rows) -> str:
    """The CSV text of a header and rows of Python numbers and strings, such
    as an array's ``tolist()`` rows.  The csv writer writes a float as its
    repr, the shortest round-trip form, so identical runs give byte-identical
    text (a numpy float's repr is ``np.float64(...)``, so callers convert
    first)."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue()


def write_text(path, text: str):
    """Write a table's ``csv_text`` to a file, its line ends as rendered."""
    with open(path, "w", newline="") as fh:
        fh.write(text)


def write_csv(path, header, rows):
    """Write the ``csv_text`` of a header and rows to a file."""
    write_text(path, csv_text(header, rows))


def write_columns(path, **columns):
    """``write_csv`` a table given as named columns: the keywords are the
    header, in order, and columns of unequal length raise ``ValueError``."""
    write_csv(path, columns,
              zip(*(np.asarray(c).tolist() for c in columns.values()), strict=True))


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

        def constant(name, values):
            """The one value of a column that every row repeats."""
            for line, value in enumerate(values[1:], start=3):
                if value != values[0]:
                    raise ValueError(f"trace file {path} column {name!r}: line {line} reads "
                                     f"{value!r} where line 2 reads {values[0]!r}")
            return values[0]

        return cls(column("t"), column("value"),
                   constant("quantity", [r["quantity"] for r in rows]),
                   constant("m_clusters", column("m_clusters", int).tolist()))


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
    """Farthest-point (Gonzalez) order of the rows of each (P, D) block of
    ``points`` (..., P, D).

    Yields (center, dist) for each new center: ``center`` (...) holds each
    block's new center index and ``dist`` (..., P) every point's distance to
    the centers chosen so far in its block.  The first center is the point of
    largest norm, each next one the point farthest from all chosen; ties break
    to the lowest index.  Every block of a stack gives the bits it gives
    alone.  The caller decides when to stop; nothing past the last center it
    takes is computed.
    """
    lead = np.indices(points.shape[:-2], sparse=True)
    squares = np.empty_like(points)  # the one buffer of every pass

    def norms(rows):  # np.linalg.norm(rows, axis=-1), bit for bit
        return np.sqrt(np.add.reduce(np.multiply(rows, rows, out=squares), axis=-1))

    def offsets(center):  # each block's rows minus its row ``center``
        return np.subtract(points, points[(*lead, center)][..., None, :], out=squares)

    center = np.argmax(norms(points), axis=-1)
    dist = norms(offsets(center))
    while True:
        yield center, dist
        center = np.argmax(dist, axis=-1)
        dist = np.minimum(dist, norms(offsets(center)))


def max_cluster_diameter(points: np.ndarray, assignment) -> float:
    """Largest distance between two rows of ``points`` in one cluster; only
    the half matrix of the distances inside each cluster is computed."""
    assignment = np.asarray(assignment)
    worst = 0.0
    for c in np.unique(assignment):
        block = points[assignment == c]
        if block.shape[0] > 1:
            worst = max(worst, float(np.max(_pdist(block))))
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


def alpha_proxy(states, m_clusters: int, spec: MetricSpec) -> float | np.ndarray:
    """Max cluster diameter of the greedy cover of each (P, 2N) block of
    ``states`` (..., P, 2N) by ``m_clusters`` clusters; deterministic.

    One block gives a float, a stack an array of its leading shape, and each
    block of a stack gives the bits it gives alone.  Blocks are embedded and
    traversed a chunk of at most ``_CHUNK_BYTES`` at a time; each block is
    then assigned by ``_cdist`` to its centers, and each cluster's diameter
    read from ``_pdist``.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    *lead, count, width = states.shape
    if count == 0:
        raise ValueError(f"alpha_proxy of an empty block: states of shape {states.shape} "
                         f"hold (0, {width}) blocks")
    if m_clusters < 1:
        raise ValueError("cluster budget must be >= 1")
    blocks = states.reshape(int(np.prod(lead)), count, width)
    values = np.zeros(blocks.shape[0])
    if m_clusters < count:  # else a cluster per point: the diameters are all 0
        chunk = max(1, _CHUNK_BYTES // (count * 2 * spec.mode_count * 8))  # embedded bytes
        for start in range(0, blocks.shape[0], chunk):
            points = spec.embed(blocks[start : start + chunk])
            # every block takes m centers; once a block's distances are all
            # zero, each point is at distance zero from an earlier center,
            # which argmin prefers to any later one, so later ones take no point
            traversal = itertools.islice(farthest_point_traversal(points), m_clusters)
            centers = np.stack([center for center, _dist in traversal], axis=-1)
            for i, (block, chosen) in enumerate(zip(points, centers), start):
                assignment = np.argmin(_cdist(block, block[chosen]), axis=1)
                values[i] = max_cluster_diameter(block, assignment)
    return values.reshape(lead) if lead else float(values[0])


def decay_trace(times, states, m_clusters: int, spec: MetricSpec) -> DecayTrace:
    """``alpha_proxy`` of each (P, 2N) block ``states[k]`` of the (T, P, 2N)
    ``states``, taken at the strictly increasing ``times[k]``: one
    ``alpha_proxy`` call on the whole stack."""
    return DecayTrace(times, alpha_proxy(states, m_clusters, spec), "alpha_proxy", m_clusters)
