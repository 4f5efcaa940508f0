"""Measurements of the attractorlab benchmark: set-up, timed and traced runs.

Everything here drives ``experiments.run_experiment`` from one process as a
closed loop with one caller: each call starts after the previous one ended,
and nothing runs concurrently beyond BLAS at its default thread count.
Every call is checked against the recorded output inventory (``check.py``).
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import check
import tracing
import workloads
from attractorlab import dynamics, experiments

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5
# run_s is expressed in seconds of a host on which one pass of
# host_reference() takes this long (its median on the baseline machine).
REFERENCE_NOMINAL_S = 0.025
# setup_s is corrected the same way by a fresh interpreter that imports numpy
# and a fixed set of stdlib modules, and nothing of attractorlab.
SETUP_REFERENCE_CODE = (
    "import numpy, json, decimal, email.parser, xml.dom.minidom, http.client, "
    "argparse, csv, unittest\n"
)
SETUP_REFERENCE_NOMINAL_S = 0.28
PROBE_BATCHES = (1, 30, 300)
PROBE_STEPS = 64
PROBE_REPEATS = 5

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "dynamics.rk4_steps": "count",
    "dynamics.state_steps": "count",
    "dynamics.replay_ratio": "ratio",
    "dynamics.evolve_s": "s",
    "dynamics.ns_per_state_step": "ns",
    "dynamics.modal_s": "s",
    **{f"dynamics.step_us.P{p}": "us" for p in PROBE_BATCHES},
    "phase.from_matrix_rows": "count",
    "phase.from_matrix_s": "s",
    "covering.alpha_proxy_calls": "count",
    "covering.alpha_proxy_s": "s",
    "covering.semidist_calls": "count",
    "covering.semidist_s": "s",
    "attracting.build_net_s": "s",
    "attracting.build_set_s": "s",
    "attracting.verify_s": "s",
    "attracting.save_s": "s",
    "attracting.bytes_written": "bytes",
    "criteria.hausdorff_s": "s",
    "criteria.tail_s": "s",
    "criteria.contractive_s": "s",
    "criteria.fit_s": "s",
    "experiments.self_s": "s",
    "experiments.output_bytes": "bytes",
    "experiments.sweep_concurrency": "ratio",
    "experiments.unstable_inventory_entries": "count",
    "trace.overhead_s": "s",
    "error_rate": "ratio",
}


# ---------------------------------------------------------------------------
# one checked call


def call_once(cfg, expected):
    """Run the pipeline once into an emptied output directory.

    Returns (wall seconds, manifest or None, fault or None); a call that
    raises or fails the output check has a fault.
    """
    shutil.rmtree(cfg.output_dir, ignore_errors=True)
    start = time.perf_counter()
    try:
        manifest = experiments.run_experiment(cfg)
    except Exception as exc:  # noqa: BLE001 - a raising call is a counted failure
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, manifest, check.run_fault(manifest, cfg.output_dir, expected)


# Fixed inputs of the host-speed reference kernel.
_REF_STATES = np.random.default_rng(0).standard_normal((30, 32))
_REF_BASIS = np.random.default_rng(1).standard_normal((96, 32))
_REF_ROWS = np.random.default_rng(2).standard_normal((2000, 32))


@dataclass(frozen=True, eq=False)
class _RefPoint:
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if not np.all(np.isfinite(a)):
            raise ValueError("non-finite reference row")
        object.__setattr__(self, "a", a)


def host_reference() -> float:
    """Wall seconds of one pass of a fixed host-speed kernel.

    It mixes the two kinds of work the workloads spend their time on:
    small-matrix numpy arithmetic (as in the RK4 right-hand side) and
    construction of small validated objects (as in ``Ensemble.from_matrix``).
    It uses nothing from attractorlab, so no program change can move it.
    """
    start = time.perf_counter()
    for _ in range(300):
        u = _REF_STATES @ _REF_BASIS.T
        v = (u * u * u - u) @ _REF_BASIS
        np.concatenate([_REF_STATES, v], axis=-1)
    tuple(_RefPoint(r[:16].copy(), r[16:].copy()) for r in _REF_ROWS)
    return time.perf_counter() - start


def host_corrected(times, refs, nominal: float) -> float:
    """Median over calls of wall time / reference time, in seconds of the
    nominal host, on which the reference takes ``nominal`` seconds."""
    return nominal * statistics.median(t / r for t, r in zip(times, refs))


def _require_untraced():
    left = tracing.installed_wrappers()
    if left:
        raise RuntimeError(f"tracing wrappers still installed: {left}")


# ---------------------------------------------------------------------------
# end-to-end metrics (tracing off)


def setup_seconds(name: str, seed: int, output_dir: str):
    """Wall seconds of fresh interpreters that import attractorlab and build
    the workload config, and for each the mean wall seconds of a reference
    interpreter (``SETUP_REFERENCE_CODE``) started right before and after it.
    One unmeasured start of each first writes the bytecode caches."""
    code = (
        "import attractorlab, workloads\n"
        f"workloads.build({name!r}, {int(seed)}, {output_dir!r})\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, BENCH_DIR]))

    def start_once(source):
        # no timeout: with one, subprocess polls for the exit every 50 ms
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", source], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        return time.perf_counter() - start

    start_once(code)
    start_once(SETUP_REFERENCE_CODE)
    walls, refs = [], []
    for _ in range(SETUP_REPEATS):
        before = start_once(SETUP_REFERENCE_CODE)
        walls.append(start_once(code))
        refs.append(0.5 * (before + start_once(SETUP_REFERENCE_CODE)))
    return walls, refs


def timed_calls(cfg, expected, seconds: float):
    """One warm-up call that fills the ``_sine_collocation`` and ``_tables``
    caches, then calls until ``seconds`` have passed, each between two passes
    of the host reference.

    Returns (wall seconds of each timed call, the mean of its two reference
    times, faults of every call).
    """
    _require_untraced()
    _t, _m, fault = call_once(cfg, expected)
    faults, times, refs = [fault], [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        before = host_reference()
        elapsed, _m, fault = call_once(cfg, expected)
        refs.append(0.5 * (before + host_reference()))
        times.append(elapsed)
        faults.append(fault)
    return times, refs, faults


def end_to_end(name: str, seed: int, seconds: float, output_dir: str):
    """Metrics of an untraced run, the raw wall and reference medians behind
    them, and the calls' faults."""
    setup_walls, setup_refs = setup_seconds(name, seed, output_dir)
    cfg = workloads.build(name, seed, output_dir)
    expected = check.load_reference(name).get(cfg.seed)
    times, refs, faults = timed_calls(cfg, expected, seconds)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "run_s": host_corrected(times, refs, REFERENCE_NOMINAL_S),
        "setup_s": host_corrected(setup_walls, setup_refs, SETUP_REFERENCE_NOMINAL_S),
        "peak_rss_mb": rss_kib / 1024.0,
    }
    host = {
        "run_wall_s": statistics.median(times),
        "run_reference_s": statistics.median(refs),
        "setup_wall_s": statistics.median(setup_walls),
        "setup_reference_s": statistics.median(setup_refs),
    }
    return metrics, host, faults


# ---------------------------------------------------------------------------
# per-layer metrics (traced run)


def _sweep_concurrency(manifest, output_dir, wall: float) -> float:
    """Manifest-recorded run seconds per wall second: the sub-runs'
    ``duration_s`` under a sweep, the run's own otherwise (0 if it raised)."""
    subs = sorted(glob.glob(os.path.join(output_dir, "l_*", "manifest.json")))
    if not subs:
        return manifest.duration_s / wall if manifest is not None else 0.0
    busy = 0.0
    for path in subs:
        with open(path) as fh:
            busy += json.load(fh)["duration_s"]
    return busy / wall


def layer_metrics(tracer, wall: float, manifest, output_dir, baseline_files) -> dict:
    """Per-layer metrics of one traced call; ``baseline_files`` is the
    manifest ``files`` inventory of an earlier call on the same inputs, and
    ``manifest`` is None when the call raised."""
    s, calls, n = tracer.self_s, tracer.calls, tracer.counts
    state_steps = n["state_steps"]
    files = manifest.files if manifest is not None else {}
    return {
        "dynamics.rk4_steps": n["rk4_steps"],
        "dynamics.state_steps": state_steps,
        "dynamics.replay_ratio": tracer.replay_ratio(),
        "dynamics.evolve_s": s["dynamics.evolve"],
        "dynamics.ns_per_state_step": (
            1e9 * s["dynamics.evolve"] / state_steps if state_steps else 0.0
        ),
        "dynamics.modal_s": s["dynamics.modal"],
        "phase.from_matrix_rows": n["from_matrix_rows"],
        "phase.from_matrix_s": s["phase.from_matrix"],
        "covering.alpha_proxy_calls": calls["covering.alpha_proxy"],
        "covering.alpha_proxy_s": s["covering.alpha_proxy"],
        "covering.semidist_calls": calls["covering.semidist"],
        "covering.semidist_s": s["covering.semidist"],
        "attracting.build_net_s": s["attracting.build_net"],
        "attracting.build_set_s": s["attracting.build_set"],
        "attracting.verify_s": s["attracting.verify"],
        "attracting.save_s": s["attracting.save"],
        "attracting.bytes_written": n["bytes_written"],
        "criteria.hausdorff_s": s["criteria.hausdorff"],
        "criteria.tail_s": s["criteria.tail"],
        "criteria.contractive_s": s["criteria.contractive"],
        "criteria.fit_s": s["criteria.fit"],
        "experiments.self_s": s["experiments"],
        "experiments.output_bytes": sum(
            os.path.getsize(full) for full in check.output_files(output_dir).values()
        ),
        "experiments.sweep_concurrency": _sweep_concurrency(manifest, output_dir, wall),
        "experiments.unstable_inventory_entries": sum(
            files.get(k) != baseline_files.get(k) for k in set(files) | set(baseline_files)
        ),
    }


def step_probes(seed: int) -> dict:
    """Microseconds per RK4 step of ``evolve_states`` on the wave workloads'
    system at batch sizes 1, 30 and 300 (median of repeated probes)."""
    _require_untraced()
    cfg = workloads.build("wave_attractor", seed, "")
    system = cfg.system
    rng = np.random.default_rng(cfg.seed)
    out = {}
    for batch in PROBE_BATCHES:
        states = experiments.sample_phase_ball(
            rng, batch, cfg.ensemble_radius, cfg.metric
        ).as_matrix()
        horizon = PROBE_STEPS * system.dt
        dynamics.evolve_states(states, system, [horizon])
        per_step = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            dynamics.evolve_states(states, system, [horizon])
            per_step.append((time.perf_counter() - start) / PROBE_STEPS * 1e6)
        out[f"dynamics.step_us.P{batch}"] = statistics.median(per_step)
    return out


def per_layer(name: str, seed: int, seconds: float, output_dir: str):
    """Metrics of a traced run, with the calls' faults.

    After the warm-up, untraced and traced calls alternate until ``seconds``
    have passed; each layer metric is the median over the traced calls, and
    ``trace.overhead_s`` is the traced minus the untraced median wall time.
    """
    cfg = workloads.build(name, seed, output_dir)
    expected = check.load_reference(name).get(cfg.seed)
    _require_untraced()
    _t, warm, fault = call_once(cfg, expected)
    baseline_files = warm.files if warm is not None else {}
    faults, plain, traced, layers = [fault], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        _require_untraced()
        elapsed, _m, fault = call_once(cfg, expected)
        plain.append(elapsed)
        faults.append(fault)
        with tracing.Tracer() as tracer:
            elapsed, manifest, fault = call_once(cfg, expected)
        traced.append(elapsed)
        faults.append(fault)
        layers.append(layer_metrics(tracer, elapsed, manifest, cfg.output_dir, baseline_files))
    metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    metrics.update(step_probes(seed))
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["error_rate"] = sum(f is not None for f in faults) / len(faults)
    return metrics, faults


# ---------------------------------------------------------------------------
# machine record


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _tree_sha256(path) -> str:
    h = hashlib.sha256()
    for root, dirs, names in os.walk(path):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(names):
            full = os.path.join(root, name)
            h.update(os.path.relpath(full, path).encode())
            with open(full, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def machine_record() -> dict:
    """Cores, Python, numpy, BLAS and its threads, and the code measured
    (git commit when the checkout has one, always a digest of ``src/``)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "commit": _commit(),
        "src_sha256": _tree_sha256(SRC),
    }
