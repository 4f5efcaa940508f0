"""The forked passes of wave_attractor and oracle_decay and the sweep's
row children: the helper, and failed runs that end the same way whether the
passes run in children (two CPUs) or here (one CPU)."""

import contextlib
import functools
import io
import json
import multiprocessing
import os
import signal
import threading
import time
import tracemalloc

import numpy as np
import pytest
import yaml

from attractorlab import covering, dynamics, experiments
from attractorlab.cli import EXIT_CONFIG, main
from attractorlab.covering import DecayTrace, decay_trace
from attractorlab.dynamics import BlowUpError, LinearModalConfig, wave_config_from_dict
from attractorlab.experiments import (
    ExperimentConfig,
    _forked,
    _reply,
    config_to_dict,
    run_experiment,
)
from attractorlab.phase import ensemble_radius

from conftest import SMALL_WAVE_SYSTEM

# One stiff mode: RK4 at dt = 0.5 multiplies its fast component by about
# 4e6 a step, so a state of size 1e-300 stays below the probe's 1e-12
# tolerance through the absorbing horizon and overflows at t = 46.
BLOW_UP_SYSTEM = {"mode_count": 1, "kernel": [{"weight": 200.0, "coeffs": [1.0]}], "dt": 0.5}


def blow_up_run(out, t_orbit):
    return ExperimentConfig(
        kind="wave_attractor", system=wave_config_from_dict(BLOW_UP_SYSTEM),
        output_dir=str(out), seed=7, ensemble_count=6, fresh_count=4,
        ensemble_radius=1e-300, t_grid=np.arange(0.0, 12.25, 0.5),
        orbit_sample_every=0.5, t_orbit=t_orbit,
    )


def _double(x):
    return 2 * x


def _blow_up(t):
    raise BlowUpError(t)


def test_forked_gives_back_the_child_result(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with _forked(_double, 21) as result:
        assert result() == 42
    assert multiprocessing.active_children() == []


def test_forked_reraises_the_child_error(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with pytest.raises(BlowUpError) as err:
        with _forked(_blow_up, 1.5) as result:
            result()
    assert err.value.time == 1.5


def test_forked_kills_a_child_whose_result_is_not_read(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    start = time.perf_counter()
    with pytest.raises(ZeroDivisionError):
        with _forked(time.sleep, 60.0):
            1 / 0
    assert time.perf_counter() - start < 30.0
    assert multiprocessing.active_children() == []


def test_forked_on_one_cpu_runs_here_when_asked(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    calls = []
    with _forked(calls.append, "ran") as result:
        assert calls == [] and multiprocessing.active_children() == []
        result()
    assert calls == ["ran"]


def test_reply_with_no_reader_left_ends_instead_of_blocking():
    # a child whose parent was killed: its own copy of the read end is
    # closed, so a result larger than the pipe buffer fails to send
    receive, send = multiprocessing.Pipe(duplex=False)
    replying = threading.Thread(
        target=_reply, args=(receive, send, np.zeros, (1 << 20,)), daemon=True
    )
    replying.start()
    replying.join(30.0)
    assert not replying.is_alive()


def test_killed_sweep_row_exits_1_with_one_line(tmp_path, monkeypatch):
    # the first row dies without a result while the second runs: the second
    # is killed, and the sweep ends as a failed run with one error line
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    row = experiments._sweep_row

    @functools.wraps(row)
    def killed_at_l_1(sub):
        if sub.system.l == 1.0:
            os.kill(os.getpid(), signal.SIGKILL)
        return row(sub)

    monkeypatch.setattr(experiments, "_sweep_row", killed_at_l_1)
    cfg = ExperimentConfig(
        kind="sweep_l", system=wave_config_from_dict(SMALL_WAVE_SYSTEM),
        output_dir=str(tmp_path / "out"), seed=7, ensemble_count=12, ensemble_radius=4.0,
        fresh_count=8, l_values=(1.0, 2.0),
    )
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(config_to_dict(cfg)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["sweep", str(config)])
    error = "_sweep_row exited with code -9 and sent no result"
    assert (code, out.getvalue(), err.getvalue()) == (EXIT_CONFIG, "", f"error: {error}\n")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert (manifest["status"], manifest["error"]) == ("failed", f"ChildProcessError: {error}")
    assert multiprocessing.active_children() == []


def fresh_scaled_up(monkeypatch):
    # a held-out sample near 1e100 overflows at t = 16, before t_orbit = 20;
    # the absorbed sample stays finite to its horizon 2 * t_orbit = 40
    draw = experiments.draw_samples

    def draw_large_fresh(cfg):
        probe, fresh = draw(cfg)
        return probe, fresh * 1e300 * 1e100

    monkeypatch.setattr(experiments, "draw_samples", draw_large_fresh)
    return 20.0


def net_orbits_blow_up(monkeypatch):
    # the net stage fails after its alpha trace; the proxy continuation to
    # 2 t_orbit = 40 and the fresh pass to t_orbit stay finite
    def blow_up(*_args):
        raise BlowUpError(42.0)

    monkeypatch.setattr(experiments, "build_attracting_set", blow_up)
    return 20.0


# (t_orbit or a setup returning it, manifest error, files left) per failure
FAILURES = {
    # only the proxy continuation reaches t = 46; nothing is written
    "proxy_continuation": (
        24.0, "BlowUpError: solution blew up (non-finite state) at t = 46", ["manifest.json"],
    ),
    # the net orbits (at t = 42) and the fresh pass blow up as well; the
    # continuation comes first in the serial order, so its error is the one
    "proxy_continuation_and_net": (
        48.0, "BlowUpError: solution blew up (non-finite state) at t = 46", ["manifest.json"],
    ),
    # the serial order writes the trace before the net, so a failed net stage leaves it
    "net_stage": (
        net_orbits_blow_up, "BlowUpError: solution blew up (non-finite state) at t = 42",
        ["manifest.json", "trace_alpha.csv"],
    ),
    # the trace is written before the fresh sample's rows are read
    "fresh_pass": (
        fresh_scaled_up, "BlowUpError: solution blew up (non-finite state) at t = 16",
        ["manifest.json", "trace_alpha.csv"],
    ),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_failed_run_ends_the_same_on_one_and_two_cpus(case, tmp_path, monkeypatch):
    t_orbit, error, files = FAILURES[case]
    if callable(t_orbit):
        t_orbit = t_orbit(monkeypatch)
    ends = {}
    for cpus in (1, 2):
        monkeypatch.setattr(os, "cpu_count", lambda n=cpus: n)
        cfg = blow_up_run(tmp_path / f"cpus_{cpus}", t_orbit)
        with pytest.raises(BlowUpError):
            run_experiment(cfg)
        with open(os.path.join(cfg.output_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        ends[cpus] = manifest["status"], manifest["error"], sorted(os.listdir(cfg.output_dir))
    assert ends[1] == ends[2] == ("failed", error, files)


def test_failed_fit_measures_the_alpha_trace_once(tmp_path, monkeypatch):
    # the net stage hands back its trace with the fit's error: the run
    # writes that trace and raises the error, and measures nothing again
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    traces = []
    measure = experiments.decay_trace

    def counted(*args):
        traces.append(measure(*args))
        return traces[-1]

    def no_fit(*_args):
        raise ValueError("no rate fits the trace")

    monkeypatch.setattr(experiments, "decay_trace", counted)
    monkeypatch.setattr(experiments, "fit_exponential_rate", no_fit)
    cfg = ExperimentConfig(
        kind="wave_attractor", system=wave_config_from_dict(SMALL_WAVE_SYSTEM),
        output_dir=str(tmp_path / "out"), seed=7, ensemble_count=12, ensemble_radius=4.0,
        fresh_count=8,
    )
    with pytest.raises(ValueError, match="no rate fits the trace"):
        run_experiment(cfg)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert (manifest["status"], manifest["error"], sorted(os.listdir(cfg.output_dir))) == (
        "failed", "ValueError: no rate fits the trace", ["manifest.json", "trace_alpha.csv"]
    )
    assert len(traces) == 1
    traces[0].to_csv(tmp_path / "measured.csv")
    assert (tmp_path / "measured.csv").read_bytes() == (
        tmp_path / "out" / "trace_alpha.csv").read_bytes()


@pytest.mark.parametrize("points", [1, 2])
def test_failed_oracle_run_ends_the_same_on_one_and_two_cpus(points, tmp_path, monkeypatch):
    # a t_grid of 1 or 2 points leaves the earlier half of the alpha trace
    # empty or of one block; both traces are written, then the fit fails
    ends = {}
    for cpus in (1, 2):
        monkeypatch.setattr(os, "cpu_count", lambda n=cpus: n)
        out = tmp_path / f"cpus_{cpus}"
        cfg = ExperimentConfig(
            kind="oracle_decay", system=LinearModalConfig(1.0, np.arange(1.0, 5.0) ** 2),
            output_dir=str(out), seed=7, ensemble_count=6, t_grid=np.arange(float(points)),
        )
        with pytest.raises(ValueError):
            run_experiment(cfg)
        manifest = json.loads((out / "manifest.json").read_text())
        names = sorted(os.listdir(out))
        traces = [(out / name).read_text() for name in names if name != "manifest.json"]
        ends[cpus] = manifest["status"], manifest["error"], names, traces
    error = f"ValueError: need at least 4 trace values above floor 1e-09, got {points}"
    assert ends[1] == ends[2]
    assert ends[2][:3] == (
        "failed", error, ["manifest.json", "trace_alpha.csv", "trace_semidist.csv"],
    )


def oracle_run(out, points, modes, times):
    """An oracle_decay run of ``points`` probe points and ``modes`` modes on
    ``times`` sample times, 0.25 apart."""
    return ExperimentConfig(
        kind="oracle_decay", system=LinearModalConfig(1.0, np.arange(1.0, modes + 1.0) ** 2),
        output_dir=str(out), seed=7, ensemble_count=points, t_grid=0.25 * np.arange(times),
    )


def chunk_times(points, modes) -> int:
    """The sample times one side of an oracle split takes at once."""
    return covering._TRACE_CHUNK_BYTES // (points * 2 * modes * 8)


def whole_grid_traces(cfg, out):
    """The two trace files of ``cfg`` from one sample of its whole grid."""
    spec = cfg.metric
    probe, _fresh = experiments.draw_samples(cfg)
    rows = cfg.system.sample(probe, cfg.t_grid)
    radii = np.array([ensemble_radius(block, spec) for block in rows])
    DecayTrace(cfg.t_grid, radii, "semidist").to_csv(out / "trace_semidist.csv")
    decay_trace(cfg.t_grid, rows, cfg.m_clusters, spec).to_csv(out / "trace_alpha.csv")


ORACLE_POINTS, ORACLE_MODES = 100, 8
EDGE_CHUNK = chunk_times(ORACLE_POINTS, ORACLE_MODES)


# grids at the chunk edges: each side takes half, so from 2C + 1 times on
# a side takes a second chunk, and 3C + 1 times fill it as well
@pytest.mark.parametrize("times", sorted({1, 2, EDGE_CHUNK - 1, EDGE_CHUNK, EDGE_CHUNK + 1,
                                          2 * EDGE_CHUNK, 2 * EDGE_CHUNK + 1, 2 * EDGE_CHUNK + 2,
                                          3 * EDGE_CHUNK + 1}))
def test_oracle_traces_across_chunk_edges_match_the_whole_grid(times, tmp_path, monkeypatch):
    assert EDGE_CHUNK >= 5  # so that C - 1 times still fit a rate
    reference = tmp_path / "whole"
    reference.mkdir()
    whole_grid_traces(oracle_run(reference, ORACLE_POINTS, ORACLE_MODES, times), reference)
    for cpus in (1, 2):
        monkeypatch.setattr(os, "cpu_count", lambda n=cpus: n)
        out = tmp_path / f"cpus_{cpus}"
        # fewer than 4 times fit no rate, once both traces are written
        fails = pytest.raises(ValueError) if times < 4 else contextlib.nullcontext()
        with fails:
            run_experiment(oracle_run(out, ORACLE_POINTS, ORACLE_MODES, times))
        for name in ("trace_semidist.csv", "trace_alpha.csv"):
            assert (out / name).read_bytes() == (reference / name).read_bytes(), (cpus, name)


def test_oracle_sides_sample_their_own_times_a_chunk_at_a_time(tmp_path, monkeypatch):
    # P = 200 points of 16 modes on 401 times: the whole grid's rows are 20.5 MB
    points, modes, times = 200, 16, 401
    row_bytes = times * points * 2 * modes * 8
    chunk = chunk_times(points, modes)
    sampled = []
    evolve = dynamics.modal_evolve_states

    def recorded(y, cfg, t):
        sampled.append(np.array(t, dtype=float))
        return evolve(y, cfg, t)

    monkeypatch.setattr(dynamics, "modal_evolve_states", recorded)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    cfg = oracle_run(tmp_path / "cpus_1", points, modes, times)
    tracemalloc.start()
    try:
        run_experiment(cfg)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < row_bytes / 4
    assert np.array_equal(np.concatenate(sampled), cfg.t_grid)
    assert max(t.size for t in sampled) <= chunk

    # with two CPUs this process samples the earlier half alone
    sampled.clear()
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cfg = oracle_run(tmp_path / "cpus_2", points, modes, times)
    run_experiment(cfg)
    assert np.array_equal(np.concatenate(sampled), cfg.t_grid[: times // 2])
