"""Config-driven experiment pipelines with reproducible outputs.

Every pipeline is a pure function of (config, seed): ensembles are drawn from
a seeded PCG64 generator (``numpy.random.default_rng``), all numeric output is
written with shortest round-trip ``repr`` so reruns are byte-identical, and a
manifest listing every emitted file with its SHA-256 checksum is written last.

Sampling algorithm (fixed so runs are portable): a direction uniform on the
unit sphere of the energy metric is drawn by normalizing a standard Gaussian
in embedded coordinates, then scaled by ``radius * U**(1 / (2N))`` with U
uniform on (0, 1); this is uniform in the energy-metric ball.

A ``sweep_l`` run's rows are wave_attractor runs that differ only in the
damping l.  One forked child (``_forked``) runs them as one stack
(``_sweep_rows``): the wave stages below step every row's samples as one
(L, P, 2N) batch with a per-row damping (``dynamics.DampingStack``), which
gives each row the bits its own run gives, and loop over the rows for each
row's own steps.  If the stacked run fails, the child runs every row alone
in turn, so the outputs are the same as from one row after another and a
failed row is still recorded in its row.  The sweep child runs only its
main thread, so its own forks are safe.

Inside the wave stages (``_wave_rows``; a wave_attractor run is its one-row
case), two passes run in forked children (``_forked``) while this process
integrates: the held-out fresh sample's pass, which needs only the config,
from the start of the run; and, once this process has measured the alpha
traces of the absorbed samples, the fits, nets and net orbits, with each
set's net.csv and orbits.csv text rendered (``_net_stages``), while this
process continues the absorbed samples to 2 t_orbit for the omega-limit
proxy.  A child sends back only what the run reads and writes no file:
this process fills each set's proxy in, keeping its rendered tables, and
writes every file, in the serial order.  A child is made by ``os.fork``,
sends its result or its error back pickled through a pipe and leaves
through ``os._exit``.
With one CPU nothing is forked, and every pass runs here in the serial
order.  A failed run ends as the serial one does: the same error wins (the
proxy continuation's before the net stage's, both before the fresh
pass's), the same files are left, ``trace_alpha.csv`` is written only once
the continuation has succeeded, and every child is reaped before
``run_experiment`` returns or raises.  The fresh, probe and absorbed
passes and the proxy continuation are each one walk (``_walk``): the first
two from the draw, the absorbed pass from the probe's table of its
orbit-cadence rows, the continuation from the absorbed pass's table.  A
walk steps a chunk of marks at a time, by the oracle's
``_TRACE_CHUNK_BYTES`` rule, and keeps only the norms and the rows its
grids read, so what it holds does not grow with its marks, and each pass
gives the bits one pass from the draw gives.

An oracle_decay run splits ``t_grid`` the same way: a forked child samples
the later half and takes its semidistance and alpha values while this
process does the same for the earlier half, each a few times at a time
(``_oracle_half``), and the halves join into the two traces.  With one CPU
the later half is taken here after the earlier one, the serial order, and a
failed run ends with the same error and files.

The run file format is the table ``_SCHEMA``, one row per field: its section,
its key, the ``ExperimentConfig`` attribute it sets and the reader of its
value.  ``load_experiment_config`` reads a file by it and rejects any key it
does not list; ``config_to_dict`` writes by it the config echo of each run
manifest.  ``_KEYS``, derived from it, names each attribute in a refusal, on
reading and in ``ExperimentConfig``: by its key, qualified by its section in
``ensemble`` (``ensemble.count``).  Defaults live on the dataclasses alone.  The table ``_KINDS``
gives each kind its pipeline, its engines and the tags of what it needs, by
which a config is checked when it is read, before any pass runs: ``alpha``
(alpha of the probe: two points or more, fewer clusters), ``orbits`` (an
absorbing ball, birth times, an orbit grid ending at t_orbit), ``sweep`` (a
row per ``l_values`` entry), ``tail`` (the tail check, the 2 t_orbit proxy
time) and ``period`` (the quasistability period).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import pickle
import signal
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__, covering
from .attracting import (
    build_attracting_set,
    cadence_index,
    orbit_grid,
    save_attracting_set,
    verify_attraction,
)
from .covering import DecayTrace, decay_trace, write_csv
from .decay import DecayLaw
from .criteria import (
    check_hausdorff_criterion,
    contractive_inequality_check,
    fit_envelope_law,
    fit_exponential_rate,
    predicted_rate_bounds,
    quasistability_estimate,
    tail_projection_decay,
)
from .dynamics import (
    BlowUpError,
    DampingStack,
    LinearModalConfig,
    MAX_STEPS,
    WaveSystemConfig,
    absorbing_radius,
    modal_slow_rate,
    states_norms,
    system_from_dict,
    _int,
    _keys,
    _num,
    _positive,
    _settle_times,
)
from .phase import Ensemble, MetricSpec, ensemble_radius

__all__ = [
    "ExperimentConfig",
    "RunManifest",
    "sample_phase_ball",
    "draw_samples",
    "run_experiment",
    "load_experiment_config",
]

_ENTER_SAMPLES = 200  # the probe's sample times on [0, burn_in + window]
_TRAJECTORY_SAMPLES = 32  # about this many over one quasistability period


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    kind: str
    system: object
    output_dir: str
    seed: int = 0
    ensemble_count: int = 30
    ensemble_radius: float = 2.0
    fresh_count: int = 20
    t_grid: np.ndarray = field(default_factory=lambda: np.arange(0.0, 12.25, 0.25))
    m_range: tuple = (1, 4)
    l_values: tuple = ()
    burn_in: float = 4.0
    window: float = 2.0
    m_clusters: int = 3
    t_orbit: float = 12.0
    orbit_sample_every: float = 0.25
    fit_floor: float = 1e-9
    n_periods: int = 8
    low_mode_threshold: int = 4
    closeness: float | None = None
    quasi_period: float | None = None
    thresholds: dict = field(default_factory=dict)
    metric: MetricSpec = field(init=False, repr=False)  # the energy metric of ``system``

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(
                f"config field 'kind' must be one of {tuple(_KINDS)}, got {self.kind!r}"
            )
        _pipeline, engines, needs = _KINDS[self.kind]
        if not isinstance(self.system, engines):
            raise ValueError(f"config field 'system' is a {type(self.system).__name__}, but kind "
                             f"{self.kind!r} runs on {' or '.join(e.__name__ for e in engines)}")
        try:
            object.__setattr__(self, "metric", MetricSpec(self.system.eigenvalues))
        except ValueError as exc:
            raise ValueError(f"config field 'system' defines no energy metric: {exc}") from None
        t = np.asarray(self.t_grid, dtype=float)
        if t.size == 0 or not np.isfinite(t).all() or t[0] < 0 or np.any(np.diff(t) <= 0):
            raise ValueError("config field 't_grid' must be nonempty, finite, nonnegative and "
                             "strictly increasing")
        object.__setattr__(self, "t_grid", t)
        for attr in ("seed", "n_periods", "ensemble_count", "fresh_count", "m_clusters",
                     "ensemble_radius", "burn_in", "window", "t_orbit", "orbit_sample_every",
                     "fit_floor", "closeness", "quasi_period"):
            value = getattr(self, attr)  # closeness and quasi_period may be None: unset
            if value is not None:
                _positive(value, _KEYS[attr], zero=attr in ("seed", "n_periods"))
        # the most points whose (count, 2N) draw numpy can size: its bytes,
        # 16 N count, must fit an index-sized integer
        most = np.iinfo(np.intp).max // (16 * self.system.mode_count)
        for attr in ("ensemble_count", "fresh_count"):
            if getattr(self, attr) > most:
                raise ValueError(f"config field {_KEYS[attr]!r} must be at most {most}, the most "
                                 f"points whose draw can be sized, got {getattr(self, attr)}")
        # alpha is 0 on one point, or with a cluster per point
        if "alpha" in needs and self.ensemble_count < 2:
            raise ValueError(f"config field {_KEYS['ensemble_count']!r} must be >= 2 for a "
                             f"{self.kind} run")
        if "alpha" in needs and self.m_clusters >= self.ensemble_count:
            raise ValueError(f"config field 'm_clusters' must be below {_KEYS['ensemble_count']} = "
                             f"{self.ensemble_count} for a {self.kind} run")
        m_min, m_max = self.m_range
        if not 1 <= m_min <= m_max:
            raise ValueError(
                f"config field 'm_range' must satisfy 1 <= m_min <= m_max, got {self.m_range!r}"
            )
        for key, value in self.thresholds.items():
            if not math.isfinite(value):
                raise ValueError(f"config field 'thresholds.{key}' must be finite, got {value!r}")
        # each sweep row's damping, so a bad row fails here and not in its run
        if "sweep" in needs and not (self.l_values and all(
                v >= 0 and math.isfinite(v) for v in self.l_values)):
            raise ValueError(f"config field 'l_values' must be nonempty, finite and >= 0, "
                             f"got {list(self.l_values)!r}")
        # the tail check needs a mode above the threshold; quasistability does not
        top = self.system.mode_count - ("tail" in needs)
        if needs & {"tail", "period"} and not 0 < self.low_mode_threshold <= top:
            raise ValueError(
                f"config field 'low_mode_threshold' must be in 1..{top} for a {self.kind} "
                f"run, got {self.low_mode_threshold!r}"
            )
        # the times a pass samples straight from the fields: on the wave
        # engine each must be a step time, and each pass's last within the cap
        period = "'quasi_period' (by default 3 / l)"
        sampled = {"'burn_in' + 'window'": self.burn_in + self.window}
        if "period" in needs:
            sampled[period] = self.period
        if needs & {"tail", "orbits"}:
            sampled.update({"'t_grid'": self.t_grid, "'t_orbit' * 2": 2.0 * self.t_orbit})
        if "orbits" in needs:
            if m_max > self.t_orbit:
                raise ValueError(f"config field 'm_range' must end by t_orbit = "
                                 f"{self.t_orbit:g}, got {self.m_range!r}")
            sampled["'m_range'"] = np.arange(m_min, m_max + 1)
            cadence = self.system.steps(self.orbit_sample_every, "config field 'orbit_sample_every'")
            if cadence == 0:
                raise ValueError(f"config field 'orbit_sample_every' = {self.orbit_sample_every:g} "
                                 f"is shorter than one step dt = {self.system.dt:g}")
            # the orbit grid, the one the certificate reads, ends at t_orbit
            if self.system.steps(self.t_orbit, "config field 't_orbit'") % cadence:
                raise ValueError(f"config field 't_orbit' = {self.t_orbit:g} is not a whole number "
                                 f"of orbit_sample_every = {self.orbit_sample_every:g} cadences")
            sampled["'t_orbit'"] = self.t_orbit
        if isinstance(self.system, WaveSystemConfig):
            steps = {what: int(self.system.steps(times, f"config field {what}").max())
                     for what, times in sampled.items()}
            # a pass samples these after its start: burn_in + window, or for the
            # orbits kinds the latest absorb time, the first cadence at or past it
            start, after = steps["'burn_in' + 'window'"], "after 'burn_in' + 'window'"
            if "orbits" in needs:
                start = cadence_index(self.burn_in + self.window, self.orbit_sample_every) * cadence
                after = "after the latest absorb time"
            later = {what: steps[what] for what in ("'t_grid'", "'t_orbit' * 2") if what in steps}
            if "period" in needs:
                later["'n_periods' periods"] = max(1, self.n_periods) * steps[period]
            shown = {f"{what} = {np.max(times):g}": steps[what] for what, times in sampled.items()}
            shown.update({f"{what} {after}": start + last for what, last in later.items()})
            for what, last in shown.items():
                if last > MAX_STEPS:
                    raise ValueError(f"config field {what} needs {last} steps of dt = "
                                     f"{self.system.dt:g}, above the cap of {MAX_STEPS}")
        # absorbing_radius needs a probe sample after burn_in
        if "orbits" in needs and self.system.sample_grid(
                self.burn_in + self.window, _ENTER_SAMPLES)[-1] <= self.burn_in:
            raise ValueError(f"config field 'window' = {self.window:g} ends the absorbing "
                             f"window at or before burn_in = {self.burn_in:g} on the dt grid")

    @property
    def period(self) -> float:
        """The quasistability period: ``quasi_period``, by default 3 / l."""
        if self.quasi_period is None and self.system.l == 0:
            raise ValueError("config field 'quasi_period' is needed at linear damping l = 0")
        return self.quasi_period or 3.0 / self.system.l


@dataclass
class RunManifest:
    kind: str
    config: dict
    artifact_version: str
    duration_s: float
    files: dict
    headline: dict
    status: str = "ok"
    error: str = ""
    table: list = field(default_factory=list)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# sampling and serialization helpers


def sample_phase_ball(rng, count: int, radius: float, spec: MetricSpec) -> Ensemble:
    """Uniform sample of the energy-metric ball; see the module docstring for
    the exact (fixed) algorithm."""
    dim = 2 * spec.mode_count
    g = rng.standard_normal((count, dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = radius * rng.random(count) ** (1.0 / dim)
    emb = g * r[:, None]
    n = spec.mode_count
    positions = emb[:, :n] / np.sqrt(spec.mode_eigenvalues)
    rows = np.concatenate([positions, emb[:, n:]], axis=1)
    return Ensemble.from_matrix(rows)


def draw_samples(cfg: ExperimentConfig) -> tuple:
    """The run's seeded draws as (P, 2N) state arrays: the probe sample of
    ``ensemble_count`` points, then the held-out fresh one of ``fresh_count``.
    Every pipeline draws both in this order, so ``verify`` replays the fresh
    sample of any run."""
    rng, spec = np.random.default_rng(cfg.seed), cfg.metric
    probe = sample_phase_ball(rng, cfg.ensemble_count, cfg.ensemble_radius, spec)
    fresh = sample_phase_ball(rng, cfg.fresh_count, cfg.ensemble_radius, spec)
    return probe.states, fresh.states


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """The run file of ``cfg`` (``load_experiment_config`` reads it back),
    laid out by ``_SCHEMA``: the config echo in each run manifest."""
    raw = {}
    for section, key, attr, _read in _SCHEMA:
        (raw.setdefault(section, {}) if section else raw)[key] = _file_value(getattr(cfg, attr))
    return raw


def _file_value(value):
    """An ExperimentConfig attribute as the run file holds it: arrays and
    tuples as lists, a mapping copied, an engine as its ``as_dict``."""
    if isinstance(value, np.ndarray):
        return [float(v) for v in value]
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, dict):
        return dict(value)
    return getattr(value, "as_dict", lambda: value)()


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _inventory(output_dir) -> dict:
    files = {}
    for root, _dirs, names in os.walk(output_dir):
        for name in sorted(names):
            full = os.path.join(root, name)
            rel = os.path.relpath(full, output_dir)
            folder = os.path.dirname(rel)
            # run manifests carry duration_s: this run's and each sweep row's
            sweep_row = folder.startswith("l_") and os.sep not in folder
            if name == "manifest.json" and (folder == "" or sweep_row):
                continue
            files[rel] = _sha256(full)
    return files


def _sample_union(system, states, *grids) -> list:
    """One ``system.sample`` pass of ``states`` over the union of ``grids``,
    split back into one (len(grid), P, 2N) row array per grid.  Every probe
    is sampled by one such pass from its draw, on either engine, except
    wave_attractor's, which ``_walk`` walks."""
    grids = [np.asarray(g, dtype=float) for g in grids]
    union = np.unique(np.concatenate(grids))
    samples = system.sample(states, union)
    return [samples[np.searchsorted(union, g)] for g in grids]


@contextlib.contextmanager
def _forked(fn, *args):
    """Run ``fn(*args)`` in a child made by ``os.fork`` while the block runs.

    The block gets a zero-argument callable that reads the child's pickled
    ``(ok, value)`` from a pipe to its end, reaps the child and gives back
    its result, or re-raises its exception.  The pipe is read before the
    child is reaped, because a result can outgrow the pipe buffer.  A child
    that exits with a nonzero code (it was killed, or its reply could not be
    pickled or written, as when nobody reads the pipe any more) raises
    ``ChildProcessError`` naming ``fn`` and the code.  On leaving the
    block the child is reaped in every case; one whose result was not asked
    for (the block raised first) is killed first, so the block's own error
    is the one that propagates.  The child leaves only through ``os._exit``,
    so it runs no exit handler and flushes no buffer it inherited.  With
    one CPU nothing is forked: the callable computes ``fn(*args)`` here when
    it is called, so the work keeps its serial order.
    """
    if (os.cpu_count() or 1) == 1:
        yield lambda: fn(*args)
        return
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read)  # once the parent is gone, the write fails instead of blocking
            try:
                reply = True, fn(*args)
            except Exception as exc:  # noqa: BLE001 - re-raised in the parent
                reply = False, exc
            with open(write, "wb") as sink:
                sink.write(pickle.dumps(reply))
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    pipe = open(read, "rb")
    status = None

    def result():
        nonlocal status
        with pipe:
            reply = pipe.read()
        status = os.waitpid(pid, 0)[1]
        code = os.waitstatus_to_exitcode(status)
        if code:
            raise ChildProcessError(f"{fn.__name__} exited with code {code} and sent no result")
        ok, value = pickle.loads(reply)
        if not ok:
            raise value
        return value

    try:
        yield result
    finally:
        pipe.close()
        if status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# pipelines

# state rows one side of an oracle_decay split samples and measures at once
# (_oracle_half): a few sample times, so that each side's chunk stays in cache
# while the other side streams its own; a wave walk steps its marks by the
# same rule (_walk)
_TRACE_CHUNK_BYTES = 1 << 19


def _oracle_half(system, probe, times, m_clusters: int, spec: MetricSpec):
    """The semidistance and alpha values of ``probe`` at ``times``, one side
    of an oracle_decay split (see the module docstring).

    The times are sampled and measured a chunk at a time, a chunk being the
    times whose rows fit in ``_TRACE_CHUNK_BYTES``: the rows held at once do
    not grow with the grid, and a chunk stays in cache while the other side
    streams its own.  No value depends on the chunk: the oracle gives each
    time the bits a call at that time alone gives, ``ensemble_radius`` reads
    one block, and a stacked ``alpha_proxy`` gives each block the bits it
    gives alone.  Empty ``times`` never reach ``system.sample``, which
    refuses an empty grid.
    """
    chunk = max(1, _TRACE_CHUNK_BYTES // probe.nbytes)
    radii, alphas = np.empty(times.size), np.empty(times.size)
    for start in range(0, times.size, chunk):
        rows = system.sample(probe, times[start : start + chunk])
        at = slice(start, start + rows.shape[0])
        radii[at] = [ensemble_radius(block, spec) for block in rows]
        # through the module, which the tests and the benchmark rebind
        alphas[at] = covering.alpha_proxy(rows, m_clusters, spec)
    return radii, alphas


def _pipeline_oracle_decay(cfg: ExperimentConfig, out):
    system, spec = cfg.system, cfg.metric
    probe, _fresh = draw_samples(cfg)

    # a child takes the later half of the grid while this process takes the
    # earlier one, each sampling its own times (see the module docstring)
    half = cfg.t_grid.size // 2
    with _forked(_oracle_half, system, probe, cfg.t_grid[half:], cfg.m_clusters, spec) as later:
        earlier = _oracle_half(system, probe, cfg.t_grid[:half], cfg.m_clusters, spec)
        radii, alphas = (np.concatenate(halves) for halves in zip(earlier, later()))
    semidist = DecayTrace(cfg.t_grid, radii, "semidist")
    alpha = DecayTrace(cfg.t_grid, alphas, "alpha_proxy", cfg.m_clusters)
    semidist.to_csv(out("trace_semidist.csv"))
    alpha.to_csv(out("trace_alpha.csv"))

    fit = fit_exponential_rate(semidist, cfg.fit_floor)
    fit_alpha = fit_exponential_rate(alpha, cfg.fit_floor)
    bounds = predicted_rate_bounds(system)
    headline = {
        "beta_hat": fit.rate,
        "c_hat": fit.amplitude,
        "r_squared": fit.r_squared,
        "beta_hat_alpha": fit_alpha.rate,
        "rate_energy": bounds.rate_energy,
        "rate_contraction": bounds.rate_contraction,
        "envelope_rate": modal_slow_rate(system.l, system.eigenvalues),
    }
    return headline, []


def _walk(system, held, starts, grids, norm_grid=()) -> list:
    """The wave-engine walk of an (L, P, 2N) stack whose states at the
    sorted steps of the table ``held`` are its (S, L, P, 2N) rows; a stack
    at its draw is the table ``([0], states[None])``.  Row i counts the step
    offsets of ``grids`` and ``norm_grid`` from its step ``starts[i]``, at or
    after the table's first step.  The walk returns one (len(grid), L, P, 2N)
    array per grid, then the energy norms at ``norm_grid``, (len(norm_grid),
    L, P), then its own table of every row at each step a grid read, for a
    later walk to resume from.

    The table's steps are read up to the first it lacks.  From the last held
    step before that one, the stack is walked a chunk of marks at a time, a
    chunk being the marks whose rows fit in ``_TRACE_CHUNK_BYTES``, and only
    the grids' rows and the norms are kept, so what the walk holds does not
    grow with its marks.  Each chunk resumes from the last row of the one
    before, so every row has the bits of one pass from its start.  The last
    step is checked against ``MAX_STEPS`` before any step runs, and a
    blow-up's time is counted from the earliest start, whatever step the
    walk resumed from.
    """
    steps, rows = held
    starts = np.asarray(starts, dtype=int)
    want = [np.add.outer(starts, np.asarray(g, dtype=int)) for g in (*grids, norm_grid)]
    need = np.unique(np.concatenate([w.ravel() for w in want[:-1]]))
    norm_steps = np.unique(want[-1])
    marks = np.union1d(need, norm_steps)
    if marks[-1] > MAX_STEPS:
        raise ValueError(f"horizon needs {marks[-1]} steps, above the cap of {MAX_STEPS}")
    kept = np.empty((need.size,) + rows.shape[1:])
    norms = np.empty((norm_steps.size,) + rows.shape[1:-1])
    kept_at, norms_at = np.searchsorted(marks, need), np.searchsorted(marks, norm_steps)

    def keep(first, block):  # the kept rows and norms among the marks from ``first``
        new = (kept_at >= first) & (kept_at < first + len(block))
        kept[new] = block[kept_at[new] - first]
        new = (norms_at >= first) & (norms_at < first + len(block))
        norms[new] = states_norms(block[norms_at[new] - first], system.eigenvalues)

    first = int(np.cumprod(np.isin(marks, steps)).sum())  # the first mark the table lacks
    keep(0, rows[np.searchsorted(steps, marks[:first])])
    if first < marks.size:
        base = np.searchsorted(steps, marks[first]) - 1
        state, at = rows[base], steps[base]
        chunk = max(1, _TRACE_CHUNK_BYTES // state.nbytes)
        try:
            for i in range(first, marks.size, chunk):
                block = system.sample(state, (marks[i : i + chunk] - at) * system.dt)
                keep(i, block)
                state, at = block[-1].copy(), marks[i + len(block) - 1]
                del block  # so that a chunk's rows are freed before the next chunk's
        except BlowUpError as exc:
            lost = system.steps(exc.time, "blow-up time") + at - starts.min()
            raise BlowUpError(lost * system.dt) from None
    stack = np.arange(starts.size)
    return ([kept[np.searchsorted(need, w).T, stack] for w in want[:-1]]
            + [norms[np.searchsorted(norm_steps, want[-1]).T, stack], (need, kept)])


def _net_stages(subs, bounds, absorbed, alphas, images) -> list:
    """For each row of a stack in turn, the fit and decay law of its absorbed
    sample's alpha trace ``alphas[i]`` (on ``t_grid``) and the net with its
    orbits: (fit, law, set).  Row i's absorbed sample is ``absorbed[i]`` and
    its images ``images[:, i]``.  ``fit`` is None for a degenerate trace, and
    the set's omega-limit proxy is None for the caller to fill in
    (``with_proxy``).  Each set's ``net_tables`` are rendered here, so that
    in a forked child they are rendered while the caller continues the
    proxy, and its save only writes them."""
    nets = []
    for i, (cfg, alpha) in enumerate(zip(subs, alphas)):
        if int(np.sum(alpha.values > cfg.fit_floor)) < 4:
            # sample spread never rises above the floor (e.g. an exact equilibrium);
            # any positive envelope dominates, so use the predicted rate
            fit = None
            law = DecayLaw(
                "exponential", 10.0 * cfg.fit_floor,
                bounds[i].rate_energy if bounds[i] else 1.0,
            )
        else:
            fit = fit_exponential_rate(alpha, cfg.fit_floor)
            law = fit_envelope_law(alpha, fit)
        aset = build_attracting_set(
            absorbed[i], cfg.m_range, images[:, i], None, law, cfg.t_orbit,
            cfg.orbit_sample_every, cfg.system, cfg.metric,
        )
        aset.net_tables  # noqa: B018 - rendered here, carried back with the set
        nets.append((fit, law, aset))
    return nets


def _wave_rows(subs: list) -> list:
    """The wave_attractor stages of ``subs``, configs that differ only in
    the damping l and the output directory, and each row's headline.

    Every pass steps the rows' samples as one (L, P, 2N) stack under a
    ``DampingStack`` (a one-row stack as its (P, 2N) slice).  The rows share
    the draws, since they share the seed and the ensembles.  Each per-row
    step (absorbing radius, alpha trace, fit, net, certificate, files) loops
    over the rows, and a stage ends for every row before the next begins, so
    a run stops at the earliest stage at which any row fails.
    """
    cfg, count = subs[0], len(subs)
    system = DampingStack(tuple(sub.system for sub in subs))
    horizon, snap = cfg.burn_in + cfg.window, cfg.orbit_sample_every

    def out(i: int, name: str) -> str:
        return os.path.join(subs[i].output_dir, name)

    probe, fresh = (np.broadcast_to(s, (count,) + s.shape) for s in draw_samples(cfg))
    drawn = np.zeros(count, dtype=int)  # every row's start: its draw, at step 0
    enter_grid = system.sample_grid(horizon, _ENTER_SAMPLES)
    enter_steps = system.steps(enter_grid)
    # the certificate reads the fresh sample at the set's orbit times, every
    # orbit-cadence time up to t_orbit.  The pass needs nothing but the
    # config, so it runs in a child from here on (see the module docstring)
    cadence_steps = system.steps(orbit_grid(cfg.t_orbit, snap))

    def fresh_walk():  # its rows and norms: the run reads nothing of its table
        return _walk(system, ([0], fresh[None]), drawn, [cadence_steps], enter_steps)[:2]

    with _forked(fresh_walk) as fresh_pass:
        # one probe pass over the horizon: the absorbing radii, and a table of
        # the probe at every orbit-cadence step up to the first at or past it
        snap_steps = system.steps(np.arange(cadence_index(horizon, snap) + 1) * snap)
        probe_norms, held = _walk(system, ([0], probe[None]), drawn, [snap_steps], enter_steps)[1:]
        radii, t_enters = zip(*(absorbing_radius(enter_grid, probe_norms[:, i], cfg.burn_in)
                                for i in range(count)))
        # anchor each absorbing-ball sample at the probe's own entering time: later
        # states are over-contracted and would miscalibrate the law's amplitude
        absorb_times = [cadence_index(max(t_enter), snap) * snap for t_enter in t_enters]
        absorb_steps = system.steps(absorb_times)
        # the absorbed samples are the probe from each absorb time on: their
        # pass resumes the probe pass instead of integrating its steps again
        births = system.steps(np.arange(cfg.m_range[0], cfg.m_range[1] + 1, dtype=float))
        (absorbed,), rows, images, _norms, held = _walk(
            system, held, absorb_steps, [[0], system.steps(cfg.t_grid), births],
        )
        alphas = [decay_trace(cfg.t_grid, rows[:, i], cfg.m_clusters, cfg.metric)
                  for i in range(count)]
        del rows
        bounds = [predicted_rate_bounds(sub.system) if sub.system.l > 0 else None for sub in subs]
        # a child fits the laws and builds the nets while this process
        # continues the same stack to 2 t_orbit, the omega-limit proxy
        with _forked(_net_stages, subs, bounds, absorbed, alphas, images) as net_stages:
            (proxy,), *_ = _walk(system, held, absorb_steps, [system.steps([2.0 * cfg.t_orbit])])
            del held
            # the serial order writes the traces before the fits, so a failed
            # fit or net leaves them
            for i, alpha in enumerate(alphas):
                alpha.to_csv(out(i, "trace_alpha.csv"))
            nets = net_stages()
        cadence_rows, enter_norms = fresh_pass()

    certified = []
    for i, (fit, law, aset) in enumerate(nets):
        aset = aset.with_proxy(proxy[i])
        t_star = max(_settle_times(enter_grid, enter_norms[:, i], radii[i]))
        certificate = verify_attraction(aset, cadence_rows[:, i], t_star, cfg.metric)
        certified.append((fit, law, aset, t_star, certificate))
    headlines = []
    for i, (fit, law, aset, t_star, certificate) in enumerate(certified):
        save_attracting_set(
            aset,
            out(i, "attractor"),
            extra={"absorbing_radius": radii[i], "t_star": t_star,
                   "burn_in": cfg.burn_in, "window": cfg.window},
        )
        certificate.to_csv(out(i, "certificate.csv"))
        headline = {
            "c_env": law.amplitude,
            "satisfied_fraction": certificate.satisfied_fraction,
            "absorbing_radius": radii[i],
            "absorb_time": absorb_times[i],
            "t_star": t_star,
            "net_size": float(len(aset.birth_times)),
            "orbit_sample_count": float(aset.orbit_states.shape[0] * aset.orbit_states.shape[1]),
            "degenerate_trace": float(fit is None),
        }
        if fit is not None:
            headline["beta_hat"] = fit.rate
            headline["r_squared"] = fit.r_squared
        if bounds[i] is not None:
            headline["rate_energy"] = bounds[i].rate_energy
            headline["rate_contraction"] = bounds[i].rate_contraction
        headlines.append(headline)
    return headlines


def _pipeline_wave_attractor(cfg: ExperimentConfig, _out):
    (headline,) = _wave_rows([cfg])
    return headline, []


# a sweep row's headline numbers: its sweep.csv columns and its printed line
SWEEP_MEASURED = ("beta_hat", "rate_energy", "rate_contraction", "satisfied_fraction")


def _sweep_row(sub: ExperimentConfig, headline: dict | None = None) -> dict:
    """One row of a damping sweep: the headline numbers of the wave_attractor
    run of ``sub`` (``headline``, or else those of ``run_experiment(sub)``
    run here), or the error that stopped the run."""
    row = {"l": sub.system.l, **dict.fromkeys(SWEEP_MEASURED, float("nan"))}
    try:
        head = run_experiment(sub).headline if headline is None else headline
        row.update({k: head.get(k, float("nan")) for k in SWEEP_MEASURED}, status="ok", error="")
    except Exception as exc:  # noqa: BLE001 - row-level fault isolation
        row.update(status="failed", error=str(exc))
    return row


def _sweep_rows(subs: list, start: float) -> list:
    """Every row of a damping sweep, as ``_sweep_row`` gives it.

    The rows run as one stack (``_wave_rows``), and each row's manifest is
    then written as ``run_experiment(sub)`` writes it, but with
    ``duration_s`` counted from ``start``, the sweep's start.  If the stacked
    run raises, every row runs alone in turn through ``_sweep_row``, with
    ``duration_s`` from its own start, and a failed row is recorded in its
    row.  No file of the stacked run outlives it: the run stops at the
    earliest stage at which any row fails, and every file it wrote before
    that stage is one that the row's own run writes again, with the same
    bytes, before it stops or ends."""
    try:
        for sub in subs:
            os.makedirs(sub.output_dir, exist_ok=True)
        headlines = _wave_rows(subs)
        for sub, headline in zip(subs, headlines):
            _record(sub, start, headline, [], None)
    except Exception:  # noqa: BLE001 - each row's own run records its error
        return [_sweep_row(sub) for sub in subs]
    return [_sweep_row(sub, headline) for sub, headline in zip(subs, headlines)]


def _pipeline_sweep_l(cfg: ExperimentConfig, out):
    """One wave_attractor run per damping value in ``l_values``, each in its
    own ``l_<i>_<value>`` directory, and sweep.csv over them; the rows run
    as one stack in one forked child (``_sweep_rows``).  A failed value is
    recorded in its row and the sweep continues; the headline's
    ``satisfied_fraction`` is the worst over the rows that ran."""
    start = time.perf_counter()
    subs = [
        replace(cfg, kind="wave_attractor", system=replace(cfg.system, l=val),
                output_dir=out(f"l_{i}_{val:g}"), l_values=())
        for i, val in enumerate(map(float, cfg.l_values))
    ]
    with _forked(_sweep_rows, subs, start) as sweep:
        rows = sweep()
    columns = ["l", *SWEEP_MEASURED, "status", "error"]
    write_csv(out("sweep.csv"), columns, ([r[c] for c in columns] for r in rows))

    ok = [r for r in rows if r["status"] == "ok"]
    headline = {"rows_total": float(len(rows)), "rows_ok": float(len(ok))}
    if ok:
        headline["satisfied_fraction"] = min(r["satisfied_fraction"] for r in ok)
        headline["max_beta_hat"] = max(r["beta_hat"] for r in ok)
    return headline, rows


def _pipeline_quasistability(cfg: ExperimentConfig, out):
    system, spec, period = cfg.system, cfg.metric, cfg.period
    probe, _fresh = draw_samples(cfg)
    start = cfg.burn_in + cfg.window
    trajectory, period_rows = _sample_union(
        system, probe, start + system.sample_grid(period, _TRAJECTORY_SAMPLES),
        start + period * np.arange(1, cfg.n_periods + 1),
    )
    report = quasistability_estimate(
        trajectory, period_rows, period, system.l, cfg.low_mode_threshold,
        cfg.closeness, spec, m_clusters=cfg.m_clusters,
    )
    rows = [[float(n), ratio, 2.0 * report.predicted_eta**n]
            for n, ratio in enumerate(report.per_period_alpha_ratios, start=1)]
    write_csv(out("quasistability.csv"), ["n", "alpha_ratio", "bound"], rows)
    headline = {
        "eta_hat": report.eta_hat,
        "predicted_eta": report.predicted_eta,
        "period": report.period,
        "pair_count": float(report.pair_count),
        "excluded_pair_count": float(report.excluded_pair_count),
    }
    if rows:
        headline["max_ratio_over_bound"] = max(ratio / bound for _n, ratio, bound in rows)
    return headline, [asdict(report)]


def _pipeline_criteria_suite(cfg: ExperimentConfig, out):
    system, spec = cfg.system, cfg.metric
    probe, _fresh = draw_samples(cfg)
    start = cfg.burn_in + cfg.window
    rows, (candidate,) = _sample_union(
        system, probe, start + cfg.t_grid, [start + 2.0 * cfg.t_orbit]
    )

    alpha = decay_trace(cfg.t_grid, rows, cfg.m_clusters, spec)
    alpha.to_csv(out("trace_alpha.csv"))
    law = fit_envelope_law(alpha, fit_exponential_rate(alpha, cfg.fit_floor))

    later = cfg.t_grid > 0
    grid = cfg.t_grid[later]
    # rows[later] copies the rows: one copy per call keeps the peak memory down
    covered = decay_trace(grid, rows[later], len(candidate), spec)
    hausdorff = check_hausdorff_criterion(candidate, rows[later], covered, law, spec)
    hausdorff.to_csv(out("hausdorff_criterion.csv"))

    tail = tail_projection_decay(rows, cfg.low_mode_threshold, cfg.t_grid, spec)
    tail.to_csv(out("tail_trace.csv"))

    contractive = contractive_inequality_check(
        rows[later], DecayTrace(grid, alpha.values[later], "alpha_proxy", cfg.m_clusters),
        law, spec,
    )
    contractive.to_csv(out("contractive_check.csv"))

    headline = {
        "law_rate": law.rate,
        "law_amplitude": law.amplitude,
        "hausdorff_satisfied_fraction": hausdorff.satisfied_fraction,
        "alpha_within_fraction": hausdorff.alpha_within_fraction,
        "contractive_conclusion_fraction": contractive.conclusion_fraction,
        "tail_final": float(tail.values[-1]),
    }
    return headline, []


# Each experiment kind: its pipeline, its engines and its tags (module docstring).
_KINDS = {
    "oracle_decay": (_pipeline_oracle_decay, (LinearModalConfig,), {"alpha"}),
    "wave_attractor": (_pipeline_wave_attractor, (WaveSystemConfig,), {"orbits"}),
    "sweep_l": (_pipeline_sweep_l, (WaveSystemConfig,), {"orbits", "sweep"}),
    "quasistability": (_pipeline_quasistability, (WaveSystemConfig, LinearModalConfig),
                       {"alpha", "period"}),
    "criteria_suite": (_pipeline_criteria_suite, (WaveSystemConfig, LinearModalConfig),
                       {"alpha", "tail"}),
}


def run_experiment(cfg: ExperimentConfig) -> RunManifest:
    """Execute the configured pipeline; deterministic given (config, seed).

    The manifest is written last; on failure a manifest marked failed is still
    written and the error re-raised, with partial files retained.
    """
    os.makedirs(cfg.output_dir, exist_ok=True)

    def out(name: str) -> str:
        return os.path.join(cfg.output_dir, name)

    start = time.perf_counter()
    headline, table, failure = {}, [], None
    try:
        headline, table = _KINDS[cfg.kind][0](cfg, out)
    except Exception as exc:
        failure = exc
    return _record(cfg, start, headline, table, failure)


def _record(cfg: ExperimentConfig, start: float, headline: dict, table: list,
            failure: Exception | None) -> RunManifest:
    """Write the manifest of the run of ``cfg`` that began at ``start``
    (``time.perf_counter``) and return it, or re-raise its ``failure``."""
    manifest = RunManifest(
        kind=cfg.kind,
        config=config_to_dict(cfg),
        artifact_version=__version__,
        duration_s=time.perf_counter() - start,
        files=_inventory(cfg.output_dir),
        headline=headline,
        status="ok" if failure is None else "failed",
        error="" if failure is None else f"{type(failure).__name__}: {failure}",
        table=table,
    )
    manifest.save(os.path.join(cfg.output_dir, "manifest.json"))
    if failure is not None:
        raise failure
    return manifest


# ---------------------------------------------------------------------------
# config-file loading


def _entries(raw, name: str) -> list:
    """The numbers of a list-valued config field."""
    if not isinstance(raw, list):
        raise ValueError(f"config field {name!r} must be a list, got {raw!r}")
    return [_num(v, name) for v in raw]


def _parse_grid(raw, name: str) -> np.ndarray:
    if not isinstance(raw, dict):
        return np.array(_entries(raw, name), dtype=float)
    if set(raw) not in ({"start", "stop", "step"}, {"start", "stop", "count"}):
        raise ValueError(f"config field {name!r} needs keys start/stop/step or start/stop/count")
    start, stop = _num(raw["start"], name), _num(raw["stop"], name)
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"config field {name!r} start and stop must be finite, "
                         f"got {start!r} and {stop!r}")
    # a grid past the step cap is refused before numpy allocates it
    if "count" in raw:
        count = _int(raw["count"], name)
        if not 1 <= count <= MAX_STEPS:
            raise ValueError(f"config field {name!r} count must be in 1..{MAX_STEPS}, "
                             f"got {count!r}")
        return np.linspace(start, stop, count)
    step = _num(raw["step"], name)
    if not (step > 0 and math.isfinite(step)):
        raise ValueError(f"config field {name!r} step must be positive and finite, got {step!r}")
    if (stop - start) / step > MAX_STEPS:
        raise ValueError(f"config field {name!r} must hold at most {MAX_STEPS} times, got "
                         f"{start!r} to {stop!r} in steps of {step!r}")
    return np.arange(start, stop + 1e-9 * max(1.0, abs(stop)), step)


def _pair(raw, name: str) -> tuple:
    pair = tuple(_int(v, name) for v in _entries(raw, name))
    if len(pair) != 2:
        raise ValueError(f"config field {name!r} must be a pair [m_min, m_max], got {raw!r}")
    return pair


def _mapping(raw, name: str) -> dict:
    """A config section; an empty one may be left null."""
    if raw is not None and not isinstance(raw, dict):
        raise ValueError(f"config section {name!r} must be a mapping")
    return raw or {}


def _directory(raw, name: str) -> str:
    """The output directory: a nonempty path, never a null read as 'None'."""
    if not (isinstance(raw, str) and raw):
        raise ValueError(f"config field {name!r} must be a nonempty string, got {raw!r}")
    return raw


def _optional(read):
    return lambda raw, name: None if raw is None else read(raw, name)


# The run file format (see the module docstring); section None is the top level.
_SCHEMA = (
    (None, "kind", "kind", lambda raw, _name: str(raw)),
    (None, "output_dir", "output_dir", _directory),
    (None, "seed", "seed", _int),
    ("ensemble", "count", "ensemble_count", _int),
    ("ensemble", "radius", "ensemble_radius", _num),
    ("ensemble", "fresh_count", "fresh_count", _int),
    (None, "system", "system", lambda raw, _name: system_from_dict(raw)),
    ("grids", "t_grid", "t_grid", _parse_grid),
    ("grids", "m_range", "m_range", _pair),
    ("grids", "l_values", "l_values", lambda raw, name: tuple(_entries(raw, name))),
    ("pipeline", "burn_in", "burn_in", _num),
    ("pipeline", "window", "window", _num),
    ("pipeline", "m_clusters", "m_clusters", _int),
    ("pipeline", "t_orbit", "t_orbit", _num),
    ("pipeline", "orbit_sample_every", "orbit_sample_every", _num),
    ("pipeline", "fit_floor", "fit_floor", _num),
    ("pipeline", "n_periods", "n_periods", _int),
    ("pipeline", "low_mode_threshold", "low_mode_threshold", _int),
    ("pipeline", "closeness", "closeness", _optional(_num)),
    ("pipeline", "quasi_period", "quasi_period", _optional(_num)),
    (None, "thresholds", "thresholds", lambda raw, name: {
        str(k): _num(v, f"{name}.{k}") for k, v in _mapping(raw, name).items()
    }),
)
_KEYS = {attr: f"{section}.{key}" if section == "ensemble" else key
         for section, key, attr, _read in _SCHEMA}


def load_experiment_config(path, **given) -> ExperimentConfig:
    """Read a run file (``_SCHEMA``); numbers may be strings such as '1e-3'.
    The attributes ``given`` override the file's before the config is built.
    Errors name a field as ``_KEYS`` does."""
    import yaml  # only a run file needs the parser

    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ValueError(f"{path} is not valid YAML: {' '.join(str(exc).split())}") from None
    if not isinstance(raw, dict):
        raise ValueError("experiment config must be a mapping")
    sections = {None: raw}
    kwargs = {}
    for section, key, attr, read in _SCHEMA:
        if section not in sections:
            sections[section] = _mapping(raw.get(section), section)
        if key in sections[section]:
            kwargs[attr] = read(sections[section][key], _KEYS[attr])
    for section, body in sections.items():
        # the top level holds its own keys and the names of the sections
        _keys(body, {key if s == section else s for s, key, *_ in _SCHEMA if section in (None, s)},
              where="config" if section is None else f"config section {section!r}")
    kwargs.update(given)
    for f in fields(ExperimentConfig):
        if f.init and f.default is MISSING and f.default_factory is MISSING and f.name not in kwargs:
            raise ValueError(f"config needs a {f.name!r} entry")
    return ExperimentConfig(**kwargs)
