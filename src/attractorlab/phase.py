"""Phase-space geometry: Galerkin states, ensembles and the weighted energy metric.

A state is a pair of eigen-coefficient vectors (position, velocity) for the
first N Dirichlet eigenmodes of -Laplace on the domain.  The metric is the
energy norm

    dist(a, b)^2 = sum_j lam_j (a.pos_j - b.pos_j)^2 + sum_j (a.vel_j - b.vel_j)^2

which is plain Euclidean distance after rescaling positions by sqrt(lam_j);
``MetricSpec.embed`` performs that rescaling so downstream geometry
(clustering, Hausdorff semidistances) can run on flat arrays.

States are stored as flat arrays [positions, velocities] of length 2N, and a
sample of P states as one (P, 2N) array, one row per state; the engines and
the geometry take such arrays.  ``Ensemble`` validates one such array, as
drawn by ``experiments.sample_phase_ball``.  ``phase_distance`` takes two
(2N,) rows and is the reference that ``MetricSpec.embed`` is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MetricSpec",
    "Ensemble",
    "phase_distance",
    "ensemble_radius",
]


def _as_finite_vector(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


@dataclass(frozen=True, eq=False)
class MetricSpec:
    """Eigenvalues of -Laplace defining the energy metric.

    ``mode_eigenvalues`` must be positive and nondecreasing.  For the 1-d
    interval (0, pi) the eigenvalues are j^2, so the first one is exactly 1.
    """

    mode_eigenvalues: np.ndarray

    def __post_init__(self):
        lam = _as_finite_vector(self.mode_eigenvalues, "mode_eigenvalues")
        if lam.size == 0:
            raise ValueError("need at least one eigenvalue")
        if np.any(lam <= 0):
            raise ValueError("eigenvalues must be strictly positive")
        if np.any(np.diff(lam) < 0):
            raise ValueError("eigenvalues must be nondecreasing")
        object.__setattr__(self, "mode_eigenvalues", lam)

    @classmethod
    def dirichlet_1d(cls, n_modes: int) -> "MetricSpec":
        """Eigenvalues j^2 for j = 1..n_modes on the interval (0, pi)."""
        j = np.arange(1, int(n_modes) + 1, dtype=float)
        return cls(j**2)

    @property
    def mode_count(self) -> int:
        return self.mode_eigenvalues.size

    def embed(self, states) -> np.ndarray:
        """Map (..., 2N) states [positions, velocities] to flat (..., 2N)
        coordinates in which the energy metric is Euclidean."""
        y = np.asarray(states, dtype=float)
        n = self.mode_count
        if y.ndim == 0 or y.shape[-1] != 2 * n:
            raise ValueError(
                f"state shape {y.shape} does not match {n} metric eigenvalues"
            )
        return np.concatenate([y[..., :n] * np.sqrt(self.mode_eigenvalues), y[..., n:]], axis=-1)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Finite collection of states standing in for a bounded set.

    ``states`` is a read-only (P, 2N) array, one row [positions, velocities]
    per state; it must be nonempty, of even width and finite.
    """

    states: np.ndarray

    def __post_init__(self):
        y = np.array(self.states, dtype=float)
        if y.ndim != 2 or y.shape[0] == 0:
            raise ValueError(
                f"expected a nonempty (P, 2N) matrix of stacked states, got shape {y.shape}"
            )
        if y.shape[1] == 0 or y.shape[1] % 2 != 0:
            raise ValueError(f"state width must be a positive even number, got {y.shape[1]}")
        if not np.all(np.isfinite(y)):
            raise ValueError("ensemble states contain non-finite entries")
        y.setflags(write=False)
        object.__setattr__(self, "states", y)

    def as_matrix(self) -> np.ndarray:
        """(P, 2N) raw coefficients, one row [positions, velocities] per point."""
        return self.states

    @classmethod
    def from_matrix(cls, rows) -> "Ensemble":
        return cls(rows)


def phase_distance(a, b, spec: MetricSpec) -> float:
    """Energy-metric distance sqrt(sum lam_j (da_j)^2 + sum (db_j)^2) between
    two (2N,) states [positions, velocities]."""
    a = _as_finite_vector(a, "a")
    b = _as_finite_vector(b, "b")
    n = spec.mode_count
    if a.size != 2 * n or b.size != 2 * n:
        raise ValueError(
            f"state lengths {a.size}/{b.size} do not match {n} metric eigenvalues"
        )
    da = a[:n] - b[:n]
    db = a[n:] - b[n:]
    return float(np.sqrt(np.dot(spec.mode_eigenvalues * da, da) + np.dot(db, db)))


def ensemble_radius(states, spec: MetricSpec) -> float:
    """Largest energy norm over the (P, 2N) ``states`` (bounding radius
    around the origin)."""
    return float(np.max(np.linalg.norm(spec.embed(states), axis=1)))
