"""Decay criteria as measurements: rate fitting, compact-target and
tail-projection checks, the contractive-pair test, and per-period
quasi-stability contraction.

The checks take a sample of the absorbing ball evolved by the caller, as
(T, P, 2N) arrays of its rows on time grids, and the alpha trace the caller
measured on it, and compare both with a decay law; the envelope law lifts a
rate fit the caller made.  No check calls the engine: the caller samples each
ensemble in one pass.  Only ``quasistability_estimate`` calls the cover
measure ``covering.alpha_proxy``, once on the sample and once on the stack of
its rows at every period.  The checks report satisfied fractions, not
booleans: finite samples cannot certify the underlying hypotheses, only fail
to falsify them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covering import DecayTrace, _cdist, alpha_proxy, semidist_arrays, write_columns
from .decay import DecayLaw, within_bound
from .dynamics import states_norms
from .phase import MetricSpec

__all__ = [
    "RateFit",
    "QuasiStabilityReport",
    "HausdorffCriterionReport",
    "ContractiveCheckReport",
    "RateBounds",
    "ThresholdTooTightError",
    "fit_exponential_rate",
    "fit_envelope_law",
    "check_hausdorff_criterion",
    "tail_projection_decay",
    "contractive_inequality_check",
    "quasistability_estimate",
    "predicted_rate_bounds",
    "predicted_contraction",
    "repeated_liminf_diag",
]

class ThresholdTooTightError(ValueError):
    """No pair of sample points passes the pseudometric closeness threshold."""


# ---------------------------------------------------------------------------
# rate fitting


@dataclass(frozen=True)
class RateFit:
    """Log-linear least-squares fit value = amplitude * exp(-rate * t)."""

    amplitude: float
    rate: float
    r_squared: float
    window: tuple
    floor_used: float


def fit_exponential_rate(trace: DecayTrace, floor: float) -> RateFit:
    """Least squares on ln(value) over samples above ``floor``.

    Needs at least four usable samples; raises if the fitted slope is not a
    decay (rate <= 0).  ``floor`` must be nonnegative and finite.
    """
    if not (floor >= 0 and math.isfinite(floor)):
        raise ValueError(f"fit floor must be nonnegative and finite, got {floor!r}")
    mask = trace.values > floor
    if int(mask.sum()) < 4:
        raise ValueError(
            f"need at least 4 trace values above floor {floor:g}, got {int(mask.sum())}"
        )
    t = trace.times[mask]
    logv = np.log(trace.values[mask])
    slope, intercept = np.polyfit(t, logv, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((logv - fitted) ** 2))
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    r_sq = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else 1.0 - ss_res / max(ss_tot, 1e-300)
    if slope >= 0:
        raise ValueError(f"trace does not decay on the fit window (slope {slope:g})")
    return RateFit(
        amplitude=float(np.exp(intercept)),
        rate=float(-slope),
        r_squared=float(r_sq),
        window=(float(t[0]), float(t[-1])),
        floor_used=float(floor),
    )


def fit_envelope_law(trace: DecayTrace, fit: RateFit) -> DecayLaw:
    """Exponential law with the exponent of ``fit``, a fit of ``trace``, and the
    smallest amplitude whose curve sits above every sample above the fit's floor."""
    mask = trace.values > fit.floor_used
    amplitude = float(np.max(trace.values[mask] * np.exp(fit.rate * trace.times[mask])))
    return DecayLaw("exponential", amplitude, fit.rate)


# ---------------------------------------------------------------------------
# predicted bounds


@dataclass(frozen=True)
class RateBounds:
    """Analytic decay-rate predictions for the damped wave system.

    ``rate_energy`` comes from the energy-multiplier route, min(sqrt(lam_1)/2,
    l/4); ``rate_contraction`` from the per-period contraction route, whose
    per-period factor 1/sqrt(1 + l T) at T = 3/l, the default quasistability
    period, gives (l/3) ln 2 in natural-log units.  Both are lower bounds on
    attainable attraction rates, directly comparable with fitted exponents.
    """

    rate_energy: float
    rate_contraction: float


def predicted_rate_bounds(system) -> RateBounds:
    """The bounds at the engine's damping ``l`` and first eigenvalue lam_1."""
    damping = float(system.l)
    if damping <= 0:
        raise ValueError("rate predictions require strictly positive linear damping l")
    lam1 = float(system.eigenvalues[0])
    return RateBounds(
        rate_energy=min(math.sqrt(lam1) / 2.0, damping / 4.0),
        rate_contraction=(damping / 3.0) * math.log(2.0),
    )


def predicted_contraction(damping: float, period: float) -> float:
    """Per-period contraction factor 1/sqrt(1 + l T)."""
    if damping < 0 or period <= 0:
        raise ValueError("need damping >= 0 and period > 0")
    return 1.0 / math.sqrt(1.0 + damping * period)


# ---------------------------------------------------------------------------
# criterion: distance to a fixed compact candidate implies a 2x alpha bound


@dataclass(frozen=True, eq=False)
class HausdorffCriterionReport:
    times: np.ndarray
    semidist: np.ndarray
    bounds: np.ndarray
    satisfied_fraction: float
    implied_alpha_bounds: np.ndarray  # 2 * bound, the cover-doubling consequence
    alpha_values: np.ndarray
    alpha_within_fraction: float

    def to_csv(self, path):
        write_columns(path, t=self.times, semidist=self.semidist, bound=self.bounds,
                      implied_alpha_bound=self.implied_alpha_bounds,
                      alpha_value=self.alpha_values)


def check_hausdorff_criterion(
    candidate, evolved, alpha: DecayTrace, law: DecayLaw, spec: MetricSpec
) -> HausdorffCriterionReport:
    """Measure dist(S(t) absorbed, candidate) against law.eval(t), where
    ``evolved[k]`` is the absorbed sample at ``alpha.times[k]`` and
    ``candidate`` a (Q, 2N) state array; when the candidate attracts at that
    speed, covers by its points force the cluster measure of the evolved
    sample below twice the law.  ``alpha`` is that measure on ``evolved``,
    taken with one cluster per candidate point."""
    if alpha.m_clusters != len(candidate):
        raise ValueError(f"the alpha trace needs one cluster per candidate point "
                         f"({len(candidate)}), got m_clusters = {alpha.m_clusters}")
    if alpha.times.size == 0 or alpha.times.size != len(evolved):
        raise ValueError("need a nonempty alpha trace with one sample block per time")
    cand = spec.embed(candidate)
    semidists = np.array([semidist_arrays(spec.embed(block), cand) for block in evolved])
    bounds = np.array([law.eval(t) for t in alpha.times])
    implied = 2.0 * bounds
    return HausdorffCriterionReport(
        times=alpha.times,
        semidist=semidists,
        bounds=bounds,
        satisfied_fraction=float(np.mean(within_bound(semidists, bounds))),
        implied_alpha_bounds=implied,
        alpha_values=alpha.values,
        alpha_within_fraction=float(np.mean(within_bound(alpha.values, implied))),
    )


# ---------------------------------------------------------------------------
# criterion: spectral tail projection


def tail_projection_decay(
    evolved, n_low_modes: int, t_grid, spec: MetricSpec
) -> DecayTrace:
    """Sup over the ensemble of the energy norm restricted to modes above
    ``n_low_modes``, where ``evolved[k]`` is the ensemble at ``t_grid[k]``."""
    n = spec.mode_count
    if not (0 < n_low_modes < n):
        raise ValueError("n_low_modes must satisfy 0 < n_low_modes < mode_count")
    t_grid = np.asarray(t_grid, dtype=float)
    tail = np.concatenate(
        [evolved[..., n_low_modes:n], evolved[..., n + n_low_modes :]], axis=-1
    )
    norms = states_norms(tail, spec.mode_eigenvalues[n_low_modes:])
    return DecayTrace(t_grid, np.max(norms, axis=-1), "tail_norm")


# ---------------------------------------------------------------------------
# criterion: contractive pair residuals


@dataclass(frozen=True, eq=False)
class ContractiveCheckReport:
    times: np.ndarray
    pair_residual_max: np.ndarray
    pair_residual_mean: np.ndarray
    alpha_values: np.ndarray
    alpha_bounds: np.ndarray  # 3 * law, the conclusion side
    conclusion_fraction: float
    liminf_diagnostics: np.ndarray

    def to_csv(self, path):
        write_columns(path, t=self.times, residual_max=self.pair_residual_max,
                      residual_mean=self.pair_residual_mean, alpha_value=self.alpha_values,
                      alpha_bound=self.alpha_bounds, liminf_diag=self.liminf_diagnostics)


def contractive_inequality_check(
    evolved, alpha: DecayTrace, law: DecayLaw, spec: MetricSpec
) -> ContractiveCheckReport:
    """Pairwise residuals max(0, d(S(t)y1, S(t)y2) - law.eval(t)) over every
    pair i < j of the points, as the empirical stand-in for the contractive
    correction term, plus the conclusion-side check alpha <= 3 * law.eval(t)
    on the measured trace ``alpha``.  ``evolved[k]`` (P, 2N) holds the points
    at ``alpha.times[k]``, and P must be at least 2.

    The full residual matrix over the points feeds the repeated tail-infimum
    diagnostic; with finite data that diagnostic is evidence, not
    certification.
    """
    count = np.shape(evolved)[1]
    if count < 2:
        raise ValueError(f"need at least two points, got {count}")
    pairs = np.triu_indices(count, 1)
    phis = np.array([law.eval(float(t)) for t in alpha.times])
    res_max, res_mean, diags = [], [], []
    for phi, block in zip(phis, evolved, strict=True):
        emb = spec.embed(block)
        residual_matrix = np.maximum(0.0, _cdist(emb, emb) - phi)
        res_max.append(residual_matrix[pairs].max())
        res_mean.append(residual_matrix[pairs].mean())
        diags.append(repeated_liminf_diag(residual_matrix))
    bounds3 = 3.0 * phis
    return ContractiveCheckReport(
        times=alpha.times,
        pair_residual_max=np.array(res_max),
        pair_residual_mean=np.array(res_mean),
        alpha_values=alpha.values,
        alpha_bounds=bounds3,
        conclusion_fraction=float(np.mean(within_bound(alpha.values, bounds3))),
        liminf_diagnostics=np.array(diags),
    )


# ---------------------------------------------------------------------------
# quasi-stability


@dataclass(frozen=True, eq=False)
class QuasiStabilityReport:
    """Empirical per-period contraction of a sample of the absorbing ball.

    ``eta_hat`` is the 95th percentile of one-period contraction ratios over
    pairs whose pseudometric separations stay within the closeness threshold
    (a sup over finite noisy samples would be noise-dominated).
    """

    period: float
    eta_hat: float
    pair_count: int
    pseudometric_threshold: float
    per_period_alpha_ratios: tuple
    excluded_pair_count: int
    predicted_eta: float


def quasistability_estimate(
    trajectory, period_rows, period: float, damping: float,
    low_mode_threshold: int, closeness: float | None, spec: MetricSpec, m_clusters: int = 3,
) -> QuasiStabilityReport:
    """Estimate the one-period contraction factor of the (P, 2N) sample
    ``trajectory[0]`` and track its cluster measure period by period.
    ``trajectory`` (K, P, 2N) holds the sample on a time grid over [0, period]
    that starts at 0 and ends at ``period``, and ``period_rows`` (n_periods,
    P, 2N) the sample at n * period in row n - 1; ``damping`` gives the
    predicted factor.

    Pseudometrics conditioning the contraction ratios: (i) the plain L2
    distance of the low-mode position coefficients at time 0, and (ii) the sup
    over [0, period] of the position-only L2 distance along the trajectories.
    ``closeness`` defaults to 10% of the sample diameter; pairs with zero
    initial separation are excluded and counted.
    """
    states = trajectory[0]
    count = states.shape[0]
    if count < 2:
        raise ValueError("need at least two points")
    if period <= 0:
        raise ValueError("period must be positive")
    n = spec.mode_count
    if not (0 < low_mode_threshold <= n):
        raise ValueError("low_mode_threshold must be in 1..mode_count")

    emb0 = spec.embed(states)
    d0 = _cdist(emb0, emb0)
    emb_t = spec.embed(trajectory[-1])
    d_end = _cdist(emb_t, emb_t)

    rho_low = _cdist(states[:, :low_mode_threshold], states[:, :low_mode_threshold])
    rho_sup = np.zeros((count, count))
    for block in trajectory:
        rho_sup = np.maximum(rho_sup, _cdist(block[:, :n], block[:, :n]))

    iu = np.triu_indices(count, k=1)
    if closeness is None:
        closeness = 0.1 * float(np.max(d0))
    nonzero = d0[iu] > 0
    conditioned = nonzero & (rho_low[iu] <= closeness) & (rho_sup[iu] <= closeness)
    excluded = int(iu[0].size - conditioned.sum())
    if not np.any(conditioned):
        raise ThresholdTooTightError(
            f"no pair passes the closeness threshold {closeness:g}"
        )
    ratios = d_end[iu][conditioned] / d0[iu][conditioned]
    eta_hat = float(np.percentile(ratios, 95))

    base_alpha = alpha_proxy(states, m_clusters, spec)
    # one stacked call: each period's block gives the bits it gives alone
    alphas = alpha_proxy(period_rows, m_clusters, spec)
    alpha_ratios = alphas / base_alpha if base_alpha > 0 else np.zeros_like(alphas)

    return QuasiStabilityReport(
        period=float(period),
        eta_hat=eta_hat,
        pair_count=int(conditioned.sum()),
        pseudometric_threshold=float(closeness),
        per_period_alpha_ratios=tuple(alpha_ratios.tolist()),
        excluded_pair_count=excluded,
        predicted_eta=predicted_contraction(float(damping), float(period)),
    )


# ---------------------------------------------------------------------------
# repeated tail-infimum diagnostic


def repeated_liminf_diag(a) -> float:
    """Tail-of-tails infimum surrogate on a finite nonnegative matrix:
    the largest, over tail starts (M, N), of the minimum over the tail block
    a[M:, N:].  Zero exactly when some deep tail reaches zero."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] < 2 or a.shape[1] < 2:
        raise ValueError("need a matrix of shape at least 2x2")
    if np.any(a < 0) or not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite and nonnegative")
    tail_min = np.minimum.accumulate(
        np.minimum.accumulate(a[::-1, ::-1], axis=0), axis=1
    )[::-1, ::-1]
    return float(np.max(tail_min))
