"""Semigroup engines: spectral-Galerkin damped wave dynamics and a closed-form
linear modal oracle.

The wave system on the interval (0, pi) with Dirichlet ends, truncated to N
sine modes,

    u_tt + (k ||u_t||^p + l) u_t - u_xx + f(u) = (K u_t) + h,

becomes a first-order system for coefficients (a, b) = (u-hat, u_t-hat):

    a_j' = b_j
    b_j' = -lam_j a_j - (k (sum b^2)^(p/2) + l) b_j - fhat_j(a) + (K b)_j + h_j

with lam_j = j^2.  The nonlinearity is applied pseudo-spectrally: synthesize u
on a collocation grid of at least 2N+1 interior points, apply f pointwise,
project back with the matching quadrature.  Using the same quadrature for the
potential integral in the Lyapunov functional makes the semi-discrete energy
identity exact, so dissipation checks are meaningful at solver accuracy.

Integration is fixed-step classical Runge-Kutta; all state arrays may carry
leading batch dimensions, so whole ensembles evolve in one pass.  One
buffered stepper (``_Stepper``) is the only right-hand side: ``evolve_states``
builds it from the config once per call for the batch's shape and
``wave_rhs`` calls it.  It keeps positions and velocities in separate
contiguous blocks and copies (..., 2N) states in and out, so callers see no
other layout.  It allocates its stage arrays once and writes every stage in
place, but it repeats the operands, order and association of the plain
reference expressions exactly (numpy's polynomial evaluation order
included), and that order is what keeps every output byte-identical to them.
Every float buffer it holds, its copies of the mode rows and the synthesis
table included, starts on a 64-byte boundary (``_aligned``).  numpy's heap
gives 16-byte boundaries, and on an AVX-512 host a ufunc or product whose
operands split cache lines costs up to twice as much: a (30, 96) multiply
2.1-2.5 us against 1.1 us aligned, ``f(u) @ synth`` 3.8-5.0 us against
3.4 us.  Where a buffer starts moves no operand and changes no bit.
Its matrix products go through ``np.dot`` for a single state or a (P, 2N)
batch: on the same operands ``np.dot`` reaches the same BLAS routines as the
reference's ``@``, and gives its bits, with less dispatch per call.  A batch
with two or more leading axes keeps ``np.matmul``, since ``np.dot`` could
reach it only flattened to (P, 2N), and a flattened batch's products differ
in the last bits.

At these sizes a step's cost is mostly numpy's fixed cost per call, so the
stepper trims calls without changing what they compute.  The step is bound
once: the constructor builds ``rhs`` and ``step`` as closures over local
names for every buffer, block view, ufunc and product function, so a call
looks nothing up on the stepper, and ``evolve_states`` binds ``step`` once
before its loop.  Every scalar operand is a 0-d float64 array made once:
numpy converts a Python float operand on every call, 0.15-0.6 us each,
and a 0-d float64 array reaches the same loop with the same value.  p/2
is not, since only a float exponent makes ``sq **= p/2`` take ``np.sqrt``
at p = 1.  The kernel weights are stored at the projection's shape,
(..., rank), so weighting it is a same-shape multiply, not a broadcast
(0.56 us against 1.57 us at P = 30).  Every ufunc, product and reduction
takes its output by position, which numpy dispatches faster than the
keyword.  The (position, velocity) views of the state and of each stage
buffer are made once, in the constructor.  A monic f starts
Horner's rule past the operations that cannot change a bit
(``_horner``), so f = u^3 - u takes four ufuncs, not six.  And
``evolve_states`` checks finiteness once per sample mark, not per step; a
failed check replays the segment step by step to find the first
non-finite step, so a blow-up is reported at the same time as before.

A ``DampingStack`` runs an (L, P, 2N) stack of samples under L systems that
differ only in the damping l, which the stepper reads as an (L, 1, 1)
array.  ``np.matmul`` takes a stacked batch's products with one gemm per
(P, 2N) slice, and each slice gets the bits ``np.dot`` gives it alone, so
each row of the stack is bit for bit the row stepped alone under its own
system.  A one-row stack would get them too, but it steps slower than its
slice, so ``DampingStack.sample`` steps it as its (P, 2N) slice.

Engine interface.  ``WaveSystemConfig`` (the RK4 engine) and
``LinearModalConfig`` (the closed-form oracle) provide the same four
members, so no caller needs to know which engine it runs:

* ``eigenvalues`` -- the (N,) Dirichlet eigenvalues that define the metric;
* ``sample(states, times)`` -- a (..., 2N) state array advanced to each of
  ``times``, shape ``(len(times),) + states.shape``;
* ``sample_grid(horizon, count)`` -- about ``count`` sample times on
  [0, horizon] that ``sample`` accepts: a dt-aligned stride grid ending at the
  horizon for the wave engine, ``count + 1`` equispaced times for the oracle;
* ``as_dict()`` -- the config as the run file's ``system`` mapping, with its
  ``type`` (``wave`` or ``linear``); ``system_from_dict`` reads it back.

Both engines reject sample times that are non-finite, negative or
decreasing: neither runs backward in time.

The wave engine alone has a fifth member, ``steps(times, what)``: the RK4
step index of each time, a multiple of dt.  Every time-to-step conversion
calls it, so the step grid is known in one place.

Nothing else in this module calls an engine: ``absorbing_radius`` and
``lyapunov`` read state arrays or norms that the caller sampled, so a
pipeline integrates each ensemble once and hands every consumer its rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .phase import MetricSpec

__all__ = [
    "BlowUpError",
    "NonDissipativeError",
    "WaveSystemConfig",
    "LinearModalConfig",
    "DampingStack",
    "wave_rhs",
    "evolve_states",
    "modal_propagator",
    "lyapunov",
    "absorbing_radius",
    "system_from_dict",
    "wave_config_from_dict",
]

MAX_STEPS = 5_000_000
# the most modes whose (2N+1, N) synthesis table numpy can size: its bytes,
# 8 N (2N+1), must fit an index-sized integer
MAX_MODES = 759_250_124


class BlowUpError(RuntimeError):
    """Raised when the integrator produces a non-finite state."""

    def __init__(self, time: float):
        self.time = float(time)
        super().__init__(f"solution blew up (non-finite state) at t = {self.time:g}")

    def __reduce__(self):
        # rebuilt from the time, not from ``args`` (the message), so the
        # error survives pickling, e.g. out of a forked child (a pass or the sweep's)
        return type(self), (self.time,)


class NonDissipativeError(RuntimeError):
    """Raised when probe norms are still growing at the absorbing horizon."""


def _sine_collocation(n_modes: int, n_points: int):
    """Synthesis matrix and quadrature weight of the interior grid for the
    orthonormal sine basis sqrt(2/pi) sin(j x) on (0, pi).

    With G interior equispaced nodes the discrete sine transform is exactly
    orthogonal for modes j <= G, so analyze(synthesize(a)) == a.  Each
    stepper and each ``lyapunov`` call builds its own table, uncached: a wave
    run builds five, against thousands of RK4 steps.
    """
    g = np.arange(1, n_points + 1, dtype=float)
    x = g * np.pi / (n_points + 1)
    j = np.arange(1, n_modes + 1, dtype=float)
    synth = np.sqrt(2.0 / np.pi) * np.sin(np.outer(x, j))
    weight = np.pi / (n_points + 1)
    return synth, weight


def _trim_poly(coeffs) -> np.ndarray:
    c = np.asarray(coeffs, dtype=float).ravel()
    nz = np.flatnonzero(c != 0.0)
    return c[: nz[-1] + 1] if nz.size else np.zeros(0)


@dataclass(frozen=True, eq=False)
class WaveSystemConfig:
    """All coefficients of the damped wave system plus discretization knobs.

    ``f_coeffs`` are finite polynomial coefficients of f, lowest degree
    first; a nonzero f must have odd top degree with positive leading coefficient
    (the structural stand-in for the dissipativity condition on f).
    ``kernel`` is a finite-rank velocity operator given as (weight, coeffs)
    pairs in the eigenbasis.  ``dt`` must respect the explicit stability
    guard dt <= 0.5 / sqrt(lam_N), and defaults to that bound.  A refused
    field is named as the run file's ``system`` section names it.
    """

    mode_count: int
    k: float = 0.0
    p: float = 2.0
    l: float = 0.0
    f_coeffs: tuple = ()
    kernel: tuple = ()
    h_coeffs: tuple = ()
    dt: float | None = None
    collocation_points: int = 0

    def __post_init__(self):
        n = _mode_count(self.mode_count)
        object.__setattr__(self, "mode_count", n)
        for name in ("k", "l", "p"):  # the damping k ||u_t||^p + l
            value = _positive(float(getattr(self, name)), f"system.{name}", zero=name != "p")
            object.__setattr__(self, name, value)
        f = _finite(_trim_poly(self.f_coeffs), "f_coeffs")
        if f and (len(f) % 2 or f[-1] <= 0):  # an odd length is an even degree
            raise ValueError("config field 'system.f_coeffs' must be 0 or have odd top degree "
                             "with positive leading coefficient (dissipative direction)")
        object.__setattr__(self, "f_coeffs", f)
        kernel = [(*_finite([w], "kernel.weight"), _finite(c, "kernel.coeffs", n))
                  for w, c in self.kernel]
        object.__setattr__(self, "kernel", tuple(kernel))
        h = self.h_coeffs if np.size(self.h_coeffs) else np.zeros(n)
        object.__setattr__(self, "h_coeffs", _finite(h, "h_coeffs", n))

        lam_max = float(n) ** 2
        dt_cap = 0.5 / np.sqrt(lam_max)
        dt = float(dt_cap if self.dt is None else self.dt)
        if not (0 < dt <= dt_cap * (1 + 1e-12)):
            raise ValueError(f"config field 'system.dt' must satisfy 0 < dt <= 0.5/sqrt(lam_N) = "
                             f"{dt_cap:g}, got {dt:g}")
        object.__setattr__(self, "dt", dt)

        g = int(self.collocation_points) if self.collocation_points else 2 * n + 1
        if g < 2 * n + 1:
            raise ValueError(f"config field 'system.collocation_points' must be >= "
                             f"2*mode_count+1 = {2 * n + 1}, got {g}")
        object.__setattr__(self, "collocation_points", g)

    @property
    def eigenvalues(self) -> np.ndarray:
        return MetricSpec.dirichlet_1d(self.mode_count).mode_eigenvalues

    def sample(self, states, times) -> np.ndarray:
        """RK4 samples of a (..., 2N) state array at dt-multiple times."""
        return evolve_states(states, self, times)

    def steps(self, times, what: str = "sample time") -> np.ndarray:
        """The RK4 step index of each of ``times``, rounded half to even, as an
        int array; a time off the dt grid by more than 1e-9 max(1, |t|), or of
        2**63 steps or more, raises, named as ``what``."""
        t = np.asarray(times, dtype=float)
        k = np.rint(t / self.dt)
        with np.errstate(invalid="ignore"):  # a NaN or infinite time fails as NaN
            off = ~(np.abs(k * self.dt - t) <= 1e-9 * np.maximum(1.0, np.abs(t)))
        if off.any():
            raise ValueError(f"{what} = {t[off].flat[0]:g} is not a multiple of dt = {self.dt:g}")
        far = np.abs(k) >= 2.0**63  # past the int64 step index
        if far.any():
            raise ValueError(f"{what} = {t[far].flat[0]:g} needs {k[far].flat[0]:g} steps of "
                             f"dt = {self.dt:g}, at least 2**63")
        return k.astype(int)

    def sample_grid(self, horizon: float, count: int) -> np.ndarray:
        """Every stride-th step time on [0, horizon], stride chosen for about
        ``count`` samples, with the horizon itself always included."""
        if horizon < 0:
            raise ValueError(f"sample horizon {horizon:g} is negative")
        stride = max(1, int(round(horizon / (count * self.dt))))
        times = np.arange(0, self.steps(horizon, "horizon") + 1, stride) * self.dt
        if times[-1] < horizon - 1e-12:
            times = np.append(times, horizon)
        return times

    def as_dict(self) -> dict:
        """The run file's ``system`` mapping: the fields by name, the
        coefficient tuples as lists (``system_from_dict`` reads it back)."""
        raw = {f.name: getattr(self, f.name) for f in fields(self)}
        kernel = [{"weight": w, "coeffs": list(c)} for w, c in self.kernel]
        raw.update(f_coeffs=list(self.f_coeffs), kernel=kernel, h_coeffs=list(self.h_coeffs))
        return {"type": "wave", **raw}


@dataclass(frozen=True, eq=False)
class LinearModalConfig:
    """Oracle system: uncoupled modes z'' + l z' + lam z = 0, solved exactly."""

    l: float
    eigenvalues: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "l", float(_positive(self.l, "system.l")))
        lam = np.asarray(self.eigenvalues, dtype=float).ravel()
        if lam.size == 0 or np.any(lam <= 0) or not np.all(np.isfinite(lam)):
            raise ValueError("config field 'system.mode_eigenvalues' must be nonempty, positive "
                             "and finite")
        object.__setattr__(self, "eigenvalues", lam)

    @property
    def mode_count(self) -> int:
        return self.eigenvalues.size

    def sample(self, states, times) -> np.ndarray:
        """Exact samples of a (..., 2N) state array at nonnegative,
        nondecreasing times."""
        return modal_evolve_states(states, self, _sample_times(times))

    def sample_grid(self, horizon: float, count: int) -> np.ndarray:
        """``count + 1`` equispaced times on [0, horizon]."""
        return np.linspace(0.0, horizon, count + 1)

    def as_dict(self) -> dict:
        """The run file's ``system`` mapping of this config."""
        return {"type": "linear", "l": self.l,
                "mode_eigenvalues": [float(v) for v in self.eigenvalues]}


@dataclass(frozen=True, eq=False)
class DampingStack:
    """The wave engine of an (L, P, 2N) stack of samples whose row i runs
    under ``systems[i]``, wave systems that differ only in the damping l.

    ``l`` is the rows' dampings as an (L, 1, 1) array, which broadcasts over
    the stack's (L, P, N) blocks; every other member (``eigenvalues``,
    ``steps``, ``sample_grid``, ``dt`` and the fields ``_Stepper`` reads) is
    the systems' shared one.  ``sample`` steps a stack of two or more rows
    as one batch, and a one-row stack as its (P, 2N) slice under its own
    system, with a leading axis of one row put back on the samples (see the
    module docstring).
    """

    systems: tuple

    def __post_init__(self):
        shared = [replace(s, l=0.0).as_dict() for s in self.systems]
        if not shared or any(d != shared[0] for d in shared):
            raise ValueError("a damping stack needs wave systems that differ only in l")

    def __getattr__(self, name):
        if name.startswith("__") or name == "systems":  # looked up before systems is set
            raise AttributeError(name)
        return getattr(self.systems[0], name)

    @property
    def l(self) -> np.ndarray:
        return np.array([s.l for s in self.systems]).reshape(-1, 1, 1)

    def sample(self, states, times) -> np.ndarray:
        """RK4 samples of the (L, P, 2N) stack ``states``, shape
        (len(times), L, P, 2N)."""
        states = np.asarray(states, dtype=float)
        if states.ndim != 3 or states.shape[0] != len(self.systems):
            raise ValueError(f"a stack of {len(self.systems)} rows needs (L, P, 2N) states, "
                             f"got shape {states.shape}")
        if len(self.systems) == 1:
            return evolve_states(states[0], self.systems[0], times)[:, None]
        return evolve_states(states, self, times)


# ---------------------------------------------------------------------------
# wave system right-hand side and RK4 integration


def _horner_start(coeffs) -> int:
    """The start ``_horner`` takes for ``coeffs``: 2 when the polynomial is
    monic with a zero second-highest and a nonzero third-highest
    coefficient, 1 when it is monic otherwise, else 0."""
    if coeffs[-1] != 1.0:
        return 0
    return 2 if len(coeffs) > 2 and coeffs[-2] == 0.0 and coeffs[-3] != 0.0 else 1


def _horner(coeffs, x, out=None, start=0) -> np.ndarray:
    """The polynomial with coefficients ``coeffs`` (lowest degree first, at
    least two, the leading one finite and nonzero) at x, by Horner's rule in
    the operation order of numpy's power-series evaluator, so the result is
    bit for bit the one numpy gives.  ``start`` is ``_horner_start(coeffs)``
    or 0, decided once by the caller.

    numpy starts from ``c[-1] + x*0``; start 0 starts from ``c[-1]*x``, one
    step on.  The two agree exactly for finite x, since ``c[-1] + x*0`` is
    ``c[-1]`` for a nonzero ``c[-1]``, and both are non-finite otherwise.

    The monic starts drop operations that cannot change a bit.  Start 1
    takes x for ``x*1.0``, which is x bit for bit.  Start 2 also takes
    ``x*x`` for ``(x + 0.0)*x``: the two differ only at x = -0.0, where one
    is +0.0 and the other -0.0, and adding the nonzero ``c[-3]`` to either
    zero gives ``c[-3]``.  So f = u^3 - u takes four ufuncs, not six.
    """
    if start == 2:
        acc = np.add(np.multiply(x, x, out), coeffs[-3], out)
        rest = coeffs[-4::-1]
    else:
        acc = np.add(x if start else np.multiply(x, coeffs[-1], out), coeffs[-2], out)
        rest = coeffs[-3::-1]
    for c in rest:
        np.multiply(acc, x, acc)
        np.add(acc, c, acc)
    return acc


def _aligned(shape, values=None) -> np.ndarray:
    """A C-contiguous float64 array of ``shape`` whose data starts on a
    64-byte boundary, filled from ``values`` (broadcast) when given, else
    uninitialised: a view into an ``np.empty`` byte buffer 64 bytes longer,
    from its first such boundary (see the module docstring)."""
    nbytes = 8 * math.prod(shape)
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    out = raw[start : start + nbytes].view(np.float64).reshape(shape)
    if values is not None:
        np.copyto(out, values)
    return out


class _Stepper:
    """Classical RK4 for one config and one (..., 2N) batch shape, with every
    intermediate array allocated once.

    The state ``y`` and the five stage buffers are planar, of shape
    (2, ..., N): ``y[0]`` holds the positions and ``y[1]`` the velocities,
    each one contiguous block, so no operation reads a strided half of a
    (..., 2N) row.  ``load`` copies a (..., 2N) state in and ``store`` copies
    it back out; only those two copies see the interleaved layout.

    ``rhs(a, b, da, db)`` writes the time derivative of the state with
    positions ``a`` and velocities ``b`` into the blocks ``da`` and ``db``
    (no overlap), and ``step()`` advances ``y`` by one step of size dt, in
    place.  Both repeat the operands, order and association of the plain
    expressions

        db = (-lam)*a - damp*b + h - weight*(f(a @ synth.T) @ synth) + K b
        y' = y + (dt/6) * (((k1 + 2 k2) + 2 k3) + k4)

    element by element, so their results are byte-identical to those
    expressions; only the buffers and their layout differ.

    The constructor sets up once what every step reads besides the state,
    each float array from ``_aligned``: the (positions, velocities) blocks
    of ``y`` and of each stage buffer; the mode rows ``neg_lam`` and ``h``
    at the batch's shape and the kernel weights at the projection's, so
    each use is a same-shape ufunc; its own copies of the synthesis and
    kernel tables; every scalar operand as a 0-d array (dt/2, dt, dt/6, 2,
    the quadrature weight, k, a scalar l and f's coefficients), but p/2,
    which stays a float; f's Horner start ``f_start`` (``_horner_start``);
    the finiteness mask ``finite`` that ``evolve_states`` fills at its
    checks; and the product function for the batch's rank (``np.dot`` up
    to one leading axis, ``np.matmul`` beyond).  It then binds ``rhs`` and
    ``step`` as closures over local names for all of these and for the
    ufuncs, so a call looks nothing up.  Every ufunc, product and reduction
    takes its output by position.  See the module docstring for why.
    """

    def __init__(self, cfg: WaveSystemConfig, shape):
        n = cfg.mode_count
        if len(shape) == 0 or shape[-1] != 2 * n:
            raise ValueError(f"state shape {tuple(shape)} does not match {n} config modes")
        self.n = n
        lead = tuple(shape[:-1])
        dot = np.dot if len(lead) <= 1 else np.matmul
        multiply, add, subtract, copyto, reduce = (np.multiply, np.add, np.subtract, np.copyto,
                                                   np.add.reduce)
        synth, weight = _sine_collocation(n, cfg.collocation_points)
        half, dt, sixth, two, weight, k = (_aligned((), v) for v in (
            0.5 * cfg.dt, cfg.dt, cfg.dt / 6.0, 2.0, weight, cfg.k))
        self.neg_lam = neg_lam = _aligned(lead + (n,), -cfg.eigenvalues)
        self.h = h = _aligned(lead + (n,), cfg.h_coeffs)
        damped, p_half = bool(cfg.k), cfg.p / 2.0
        # the reference's k = 0 damping (an l of -0.0 becomes 0.0); a
        # DampingStack's (L, 1, 1) array gives each row of the stack its own
        damping = _aligned(np.shape(cfg.l), cfg.l + 0.0)
        f = tuple(_aligned((), c) for c in cfg.f_coeffs)
        self.f_start = f_start = _horner_start(cfg.f_coeffs) if f else 0
        synth = _aligned(synth.shape, synth)
        synth_t = synth.T
        rank = len(cfg.kernel)
        if rank:
            kw = _aligned(lead + (rank,), [w for w, _ in cfg.kernel])
            kv = _aligned((rank, n), [c for _, c in cfg.kernel])
            kv_t = kv.T
            proj = _aligned(lead + (rank,))
        self.y = y = _aligned((2,) + lead + (n,))
        self.stages = k1, k2, k3, k4, ys = [_aligned(y.shape) for _ in range(5)]
        self.finite = np.empty(y.shape, dtype=bool)
        tmp = _aligned(lead + (n,))
        sq = _aligned(lead + (1,))
        if f:
            u = _aligned(lead + (synth.shape[0],))
            acc = _aligned(u.shape)
        (a, b), (k1a, k1b), (k2a, k2b), (k3a, k3b), (k4a, k4b), (sa, sb) = y, k1, k2, k3, k4, ys

        def rhs(a, b, da, db):
            copyto(da, b)
            damp = damping
            if damped:
                s = reduce(multiply(b, b, tmp), -1, None, sq, True)
                # x**1 == x exactly, so p = 2 skips the power; ``**=`` with a
                # float takes the ufunc that the reference's ``**`` takes
                # (np.sqrt at p = 1)
                if p_half != 1.0:
                    s **= p_half
                damp = add(multiply(s, k, s), damping, s)
            multiply(neg_lam, a, db)
            subtract(db, multiply(damp, b, tmp), db)
            add(db, h, db)
            if f:
                f_vals = _horner(f, dot(a, synth_t, u), acc, f_start)
                dot(f_vals, synth, tmp)
                subtract(db, multiply(tmp, weight, tmp), db)
            if rank:
                dot(multiply(dot(b, kv_t, proj), kw, proj), kv, tmp)
                add(db, tmp, db)

        def step():
            rhs(a, b, k1a, k1b)
            add(y, multiply(k1, half, ys), ys)
            rhs(sa, sb, k2a, k2b)
            add(y, multiply(k2, half, ys), ys)
            rhs(sa, sb, k3a, k3b)
            add(y, multiply(k3, dt, ys), ys)
            rhs(sa, sb, k4a, k4b)
            add(k1, multiply(k2, two, k2), k1)
            add(k1, multiply(k3, two, k3), k1)
            add(k1, k4, k1)
            add(y, multiply(k1, sixth, k1), y)

        self.rhs, self.step = rhs, step

    def load(self, y0: np.ndarray) -> None:
        """Copy the (..., 2N) state ``y0`` into ``y``."""
        np.copyto(self.y[0], y0[..., : self.n])
        np.copyto(self.y[1], y0[..., self.n :])

    @staticmethod
    def store(planar: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Copy a planar (2, ..., N) array into the (..., 2N) array ``out``."""
        return np.concatenate(planar, axis=-1, out=out)


def wave_rhs(y: np.ndarray, cfg: WaveSystemConfig) -> np.ndarray:
    """Time derivative of a (..., 2N) state array."""
    y = np.asarray(y, dtype=float)
    stepper = _Stepper(cfg, y.shape)
    stepper.load(y)
    stepper.rhs(*stepper.y, *stepper.stages[0])
    return stepper.store(stepper.stages[0], np.empty_like(y))


def _sample_times(times) -> np.ndarray:
    """Sample times as a float array; nonempty, finite, nonnegative,
    nondecreasing."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("need at least one sample time")
    if not np.isfinite(times).all():
        raise ValueError("sample times must be finite")
    if np.any(times < 0) or np.any(np.diff(times) < 0):
        raise ValueError("sample times must be nonnegative and nondecreasing")
    return times


def evolve_states(y0: np.ndarray, cfg: WaveSystemConfig, times) -> np.ndarray:
    """Integrate a (possibly batched) state array, sampling at the given times.

    Times must be nonnegative, nondecreasing multiples of dt.  Returns an
    array of shape (len(times),) + y0.shape.

    Raises ``BlowUpError`` at the time of the first step whose state is not
    finite.  The state is checked once at each sample mark that took steps,
    not after every step: a step adds to y, so an entry that is not finite
    stays so, and a finite mark means that every step before it was finite.
    When a check fails, the segment is replayed from the last stored row (or
    ``y0``), checking every step.  The stepper is deterministic, so the
    replay repeats the same bits and finds the first non-finite step.
    """
    times = _sample_times(times)
    marks = cfg.steps(times).tolist()
    if marks[-1] > MAX_STEPS:
        raise ValueError(
            f"horizon needs {marks[-1]} steps, above the cap of {MAX_STEPS}"
        )
    y0 = np.asarray(y0, dtype=float)
    stepper = _Stepper(cfg, y0.shape)
    stepper.load(y0)
    y, finite, step_once = stepper.y, stepper.finite, stepper.step
    out = np.empty((times.size,) + y0.shape)
    step, last = 0, y0
    # finiteness is checked at the marks, so let overflow reach the check silently
    with np.errstate(over="ignore", invalid="ignore"):
        for row, mark in zip(out, marks):
            if mark > step:
                for _ in range(mark - step):
                    step_once()
                if not np.isfinite(y, finite).all():
                    stepper.load(last)
                    for step in range(step + 1, mark + 1):
                        step_once()
                        if not np.isfinite(y, finite).all():
                            break
                    raise BlowUpError(step * cfg.dt)
                step = mark
            last = stepper.store(y, row)
    return out


# ---------------------------------------------------------------------------
# closed-form linear modal oracle


def modal_propagator(damping: float, lam: np.ndarray, t):
    """Per-mode 2x2 propagator entries (m11, m12, m21, m22) at time t for
    z'' + damping z' + lam z = 0, split over the three root branches.  An
    array ``t`` broadcasts against ``lam``, entry by entry."""
    lam = np.asarray(lam, dtype=float)
    sig = damping / 2.0
    disc = damping * damping - 4.0 * lam
    scale = np.maximum(damping * damping, 4.0 * lam)
    crit = np.abs(disc) <= 1e-12 * scale
    under = (disc < 0) & ~crit
    over = (disc > 0) & ~crit

    env = np.exp(-sig * t)

    om = np.sqrt(np.where(under, -disc, 4.0)) / 2.0
    cos_t, sin_t = np.cos(om * t), np.sin(om * t)
    m11_u = env * (cos_t + sig / om * sin_t)
    m12_u = env * sin_t / om
    m21_u = -env * lam / om * sin_t
    m22_u = env * (cos_t - sig / om * sin_t)

    m11_c = env * (1.0 + sig * t)
    m12_c = env * t
    m21_c = -lam * t * env
    m22_c = env * (1.0 - sig * t)

    # overdamped: assemble from the two real roots to keep exponents negative
    sq = np.sqrt(np.where(over, disc, 4.0)) / 2.0
    r_plus, r_minus = -sig + sq, -sig - sq
    e_plus, e_minus = np.exp(r_plus * t), np.exp(r_minus * t)
    dr = np.where(over, r_plus - r_minus, 1.0)
    m11_o = (-r_minus * e_plus + r_plus * e_minus) / dr
    m12_o = (e_plus - e_minus) / dr
    m21_o = lam * (e_minus - e_plus) / dr
    m22_o = (r_plus * e_plus - r_minus * e_minus) / dr

    def pick(u, c, o):
        return np.select([under, crit, over], [u, c, o])

    return (
        pick(m11_u, m11_c, m11_o),
        pick(m12_u, m12_c, m12_o),
        pick(m21_u, m21_c, m21_o),
        pick(m22_u, m22_c, m22_o),
    )


def modal_evolve_states(y: np.ndarray, cfg: LinearModalConfig, t) -> np.ndarray:
    """The exact flow of the (..., 2N) state array ``y`` at time ``t``, a
    scalar or an array of times, with shape ``np.shape(t) + y.shape``: a
    scalar gives one state array, a 1-d array one per time.  Each entry is
    bit for bit the one a scalar call at that time gives."""
    y = np.asarray(y, dtype=float)
    n = cfg.mode_count
    shape = np.shape(t)
    # one propagator for every time: t on the leading axes, modes on the last
    t = np.reshape(np.asarray(t, dtype=float), shape + (1,) * y.ndim)
    m11, m12, m21, m22 = modal_propagator(cfg.l, cfg.eigenvalues, t)
    a, b = y[..., :n], y[..., n:]
    out = np.empty(shape + y.shape)
    # m11 a + m12 b and m21 a + m22 b: each product, then the in-place sum
    np.multiply(m11, a, out=out[..., :n])
    out[..., :n] += m12 * b
    np.multiply(m21, a, out=out[..., n:])
    out[..., n:] += m22 * b
    return out


def states_norms(states: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Energy norms of a (..., 2N) state array."""
    states = np.asarray(states, dtype=float)
    n = lam.size
    a, b = states[..., :n], states[..., n:]
    return np.sqrt(np.sum(lam * a * a, axis=-1) + np.sum(b * b, axis=-1))


# ---------------------------------------------------------------------------
# energy diagnostics and absorbing-ball identification


def lyapunov(states, cfg: WaveSystemConfig):
    """Quadratic energy E and full Lyapunov functional L of a (..., 2N) state
    array, each of shape (...).

    E = (||u_t||^2 + ||grad u||^2) / 2;  L adds the collocation quadrature of
    the potential F(u) (F' = f, F(0) = 0) and subtracts the forcing term
    (h, u).  Along a trajectory dL/dt = -(k ||u_t||^p + l) ||u_t||^2 +
    (K u_t, u_t), with the forcing and any kernel, so L is nonincreasing
    whenever l is at least the largest eigenvalue of the kernel's symmetric
    part (always without a kernel).  The quadrature of F is the one the
    stepper applies f with, so the identity is exact for the semi-discrete
    system; on the shipped system an RK4 step at dt raises L by round-off
    at most.
    """
    y = np.asarray(states, dtype=float)
    n = cfg.mode_count
    if y.ndim == 0 or y.shape[-1] != 2 * n:
        raise ValueError(f"state shape {y.shape} does not match {n} config modes")
    a, b = y[..., :n], y[..., n:]
    e_val = 0.5 * (np.sum(b * b, axis=-1) + np.sum(cfg.eigenvalues * a * a, axis=-1))
    l_val = e_val - a @ np.asarray(cfg.h_coeffs)
    if cfg.f_coeffs:
        synth, weight = _sine_collocation(n, cfg.collocation_points)
        f = np.asarray(cfg.f_coeffs)
        f_pot = _horner(np.concatenate([[0.0], f / np.arange(1, f.size + 1)]), a @ synth.T)
        l_val = l_val + weight * np.sum(f_pot, axis=-1)
    return e_val, l_val


def _settle_times(times, norms, radius: float) -> list:
    """First sample time per column of ``norms`` from which the running future
    max stays inside ``radius``."""
    future_max = np.maximum.accumulate(norms[::-1], axis=0)[::-1]
    settled = future_max <= radius + 1e-12  # once true, true to the end
    if not np.all(settled[-1]):
        raise NonDissipativeError(
            f"a point never settles inside radius {radius:g} by t = {times[-1]:g}"
        )
    return [float(t) for t in times[np.argmax(settled, axis=0)]]


def absorbing_radius(times, norms, burn_in: float):
    """Empirical absorbing-ball radius and per-point entering times from the
    (T, P) energy norms of a probe sampled at ``times`` on [0, burn_in + window].

    The radius is 1.1x the largest norm seen on the trailing window
    [burn_in, times[-1]], and each entering time is the first sample time
    after which the point's norm stays inside that radius.  Raises
    NonDissipativeError if windowed norms are still growing.
    """
    if burn_in <= 0 or times[-1] <= burn_in:
        raise ValueError("burn_in and window must be positive")
    windowed = norms[times >= burn_in - 1e-12]
    half = windowed.shape[0] // 2
    if half >= 1:
        first, second = np.max(windowed[:half]), np.max(windowed[half:])
        if second > first * 1.02 + 1e-12:
            raise NonDissipativeError(
                f"windowed max norm grew from {first:g} to {second:g}; "
                "increase burn_in or check the damping"
            )
    radius = 1.1 * float(np.max(windowed))
    return radius, _settle_times(times, norms, radius)


def modal_slow_rate(damping: float, lam) -> float:
    """Envelope decay rate of the slowest mode of the linear oracle: the
    smallest |real part| over the characteristic roots of z'' + l z' + lam z = 0."""
    lam = np.asarray(lam, dtype=float)
    sig = damping / 2.0
    disc = damping * damping - 4.0 * lam
    rates = np.where(disc < 0, sig, sig - np.sqrt(np.maximum(disc, 0.0)) / 2.0)
    return float(np.min(rates))


# ---------------------------------------------------------------------------
# config-file loading


def _num(value, name: str, source: str = "config") -> float:
    """Numeric field ``name`` of a ``source`` file, named so when refused;
    strings are accepted so '1e-3' works in YAML, booleans are not, though
    Python counts YAML's true as 1.  An int past float range is read as
    +-inf, as YAML reads 1e400, so the field's own check refuses it."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{source} field {name!r} is not numeric: {value!r}")
    try:
        return float(value)
    except OverflowError:  # its sign by comparison: math.copysign overflows too
        return math.inf if value > 0 else -math.inf
    except (TypeError, ValueError):
        raise ValueError(f"{source} field {name!r} is not numeric: {value!r}") from None


def _int(value, name: str, source: str = "config") -> int:
    """Integer field: a whole number, given and named as for ``_num``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)  # exact, even past float precision (large seeds)
    number = _num(value, name, source)
    if not number.is_integer():
        raise ValueError(f"{source} field {name!r} is not an integer: {value!r}")
    return int(number)


def _positive(value, name: str, source: str = "config", zero: bool = False):
    """``value``, refused unless positive (with ``zero``, nonnegative) and
    finite, named as for ``_num``.  It compares ``0 < value < inf``, exact for
    an int past float range, such as a 400-digit seed: ``math.isfinite``
    overflows on one."""
    if not (0 <= value < math.inf if zero else 0 < value < math.inf):
        raise ValueError(f"{source} field {name!r} must be "
                         f"{'nonnegative' if zero else 'positive'} and finite, got {value!r}")
    return value


def _finite(values, name: str, n: int = 0) -> tuple:
    """The coefficients ``values`` of the field ``system.<name>`` as a tuple
    of floats, refused unless each is finite and, given ``n``, there are n."""
    row = np.asarray(values, dtype=float).ravel()
    if not np.isfinite(row).all() or n and row.size != n:
        raise ValueError(f"config field 'system.{name}' must be finite"
                         f"{' with one entry per mode' if n else ''}, got {row.tolist()!r}")
    return tuple(row.tolist())


def _keys(raw: dict, known, needed=(), where: str = "config section 'system'") -> None:
    """Refuse a key of the run file mapping ``raw``, named ``where``, that
    ``known`` does not list, then a ``needed`` key of ``system`` it lacks."""
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ValueError(f"unknown keys in {where}: {unknown}")
    for key in needed:
        if key not in raw:
            raise ValueError(f"config field 'system.{key}' is missing")


def _mode_count(value) -> int:
    n = _positive(_int(value, "system.mode_count"), "system.mode_count")
    if n > MAX_MODES:
        raise ValueError(f"config field 'system.mode_count' must be at most {MAX_MODES}, the "
                         f"most modes whose synthesis table can be sized, got {n}")
    return n


def _coefficients(value, name: str, n: int = 0) -> tuple:
    """The list field ``system.<name>``, each number read by ``_num``: a list
    or tuple is its entries, null in ``f_coeffs`` or ``kernel`` none, any
    other value one entry.  Given ``n``, it is zero-padded to n entries.  A
    ``kernel`` entry, a mapping of weight and coeffs, is read as a pair."""
    if value is None and name in ("f_coeffs", "kernel"):  # null for none
        value = []
    entries = value if isinstance(value, (list, tuple)) else [value]
    if name == "kernel":
        if not all(isinstance(e, dict) and set(e) == {"weight", "coeffs"} for e in entries):
            raise ValueError("config field 'system.kernel' needs mappings of weight and coeffs")
        return tuple((_num(e["weight"], "system.kernel.weight"),
                      _coefficients(e["coeffs"], "kernel.coeffs", n)) for e in entries)
    row = tuple(_num(v, f"system.{name}") for v in entries)
    return row + (0.0,) * (n - len(row))


def wave_config_from_dict(raw: dict) -> WaveSystemConfig:
    """Build a WaveSystemConfig from a plain mapping (the file schema): its
    fields by name, an absent one at its default.

    The coefficient fields are read by ``_coefficients``: lists of mode
    coefficients shorter than ``mode_count`` are zero-padded, so a
    single-mode forcing is just ``h_coeffs: [4.0]``.  The scalars are read
    by their field's type.
    """
    if not isinstance(raw, dict):
        raise ValueError("config field 'system' must be a mapping")
    schema = fields(WaveSystemConfig)
    _keys(raw, [f.name for f in schema], needed=("mode_count",))
    n = _mode_count(raw["mode_count"])
    pad = {"f_coeffs": 0, "kernel": n, "h_coeffs": n}  # each coefficient field's length
    return WaveSystemConfig(**{
        f.name: _coefficients(raw[f.name], f.name, pad[f.name]) if f.name in pad
        else (_int if f.type == "int" else _num)(raw[f.name], f"system.{f.name}")
        for f in schema if f.name in raw
    })


def system_from_dict(raw) -> WaveSystemConfig | LinearModalConfig:
    """The engine of a run file's ``system`` mapping, as its ``as_dict``
    writes it: ``type: wave`` with the keys of ``wave_config_from_dict``, or
    ``type: linear`` with ``l`` and ``mode_count`` or ``mode_eigenvalues``,
    read by ``_coefficients``."""
    if not isinstance(raw, dict) or "type" not in raw:
        raise ValueError("config field 'system' must be a mapping with a 'type' key")
    kind = raw["type"]
    body = {k: v for k, v in raw.items() if k != "type"}
    if kind == "wave":
        return wave_config_from_dict(body)
    if kind == "linear":
        modes = "mode_eigenvalues" if "mode_eigenvalues" in body else "mode_count"
        if modes not in body:
            raise ValueError("config field 'system.mode_count' (or 'mode_eigenvalues') is missing")
        _keys(body, ("l", modes), needed=("l",))
        lam = (_coefficients(body[modes], modes) if modes == "mode_eigenvalues"
               else MetricSpec.dirichlet_1d(_mode_count(body[modes])).mode_eigenvalues)
        return LinearModalConfig(_num(body["l"], "system.l"), lam)
    raise ValueError(f"config field 'system.type' is {kind!r}, expected 'wave' or 'linear'")
