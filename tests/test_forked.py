"""The forked passes of wave_attractor and oracle_decay and the sweep's
child: the helper, and failed runs that end the same way whether the passes
run in children (two CPUs) or here (one CPU)."""

import contextlib
import csv
import glob
import io
import json
import os
import shutil
import signal
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import yaml

from attractorlab import dynamics, experiments
from attractorlab.attracting import orbit_grid
from attractorlab.cli import EXIT_CONFIG, main
from attractorlab.covering import DecayTrace, decay_trace
from attractorlab.dynamics import (
    BlowUpError,
    DampingStack,
    LinearModalConfig,
    states_norms,
    wave_config_from_dict,
)
from attractorlab.experiments import (
    ExperimentConfig,
    _forked,
    _inventory,
    config_to_dict,
    run_experiment,
)
from attractorlab.phase import ensemble_radius

import test_dynamics
import test_golden
from conftest import SMALL_WAVE_SYSTEM, children_left

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
    # larger than the pipe buffer: the pipe is read before the child is reaped
    with _forked(np.arange, 1 << 20) as result:
        assert np.array_equal(result(), np.arange(1 << 20))
    assert children_left() == []


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
    assert children_left() == []


def test_forked_on_one_cpu_runs_here_when_asked(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    calls = []
    with _forked(calls.append, "ran") as result:
        assert calls == [] and children_left() == []
        result()
    assert calls == ["ran"]


def test_reply_with_no_reader_left_ends_instead_of_blocking(monkeypatch):
    # as if the parent were gone: once the child is forked, no read end of
    # its pipe is left open, so a result larger than the pipe buffer fails
    # to send and the child ends on its own
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    pipes, children = [], []
    pipe, fork = os.pipe, os.fork

    def recorded_pipe():
        pipes.append(pipe())
        return pipes[-1]

    def fork_without_reader():
        pid = fork()
        if pid:
            children.append(pid)
            null = os.open(os.devnull, os.O_RDONLY)
            os.dup2(null, pipes[-1][0])
            os.close(null)
        return pid

    monkeypatch.setattr(os, "pipe", recorded_pipe)
    monkeypatch.setattr(os, "fork", fork_without_reader)
    with _forked(np.zeros, 1 << 20) as result:
        deadline = time.monotonic() + 30.0
        ended = None
        while ended is None and time.monotonic() < deadline:
            time.sleep(0.01)
            ended = os.waitid(os.P_PID, children[0], os.WEXITED | os.WNOHANG | os.WNOWAIT)
        assert ended is not None
        error = "^zeros exited with code 1 and sent no result$"
        with pytest.raises(ChildProcessError, match=error):
            result()
    assert children_left() == []


def _lock():
    return threading.Lock()


def test_forked_child_whose_result_cannot_be_pickled_raises_naming_fn(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with pytest.raises(ChildProcessError, match="^_lock exited with code 1 and sent no result$"):
        with _forked(_lock) as result:
            result()
    assert children_left() == []


def sweep_run(out, system, l_values, seed=7):
    return ExperimentConfig(
        kind="sweep_l", system=wave_config_from_dict(system), output_dir=str(out), seed=seed,
        ensemble_count=12, ensemble_radius=4.0, fresh_count=8, l_values=l_values,
    )


def test_killed_sweep_child_exits_1_with_one_line(tmp_path, monkeypatch):
    # the sweep child dies without a result while its fresh pass runs in a
    # child of its own: the sweep ends as a failed run with one error line
    monkeypatch.setattr(os, "cpu_count", lambda: 2)

    def killed(*_args):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(experiments, "decay_trace", killed)
    cfg = sweep_run(tmp_path / "out", SMALL_WAVE_SYSTEM, (1.0, 2.0))
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(config_to_dict(cfg)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["sweep", str(config)])
    error = "_sweep_rows exited with code -9 and sent no result"
    assert (code, out.getvalue(), err.getvalue()) == (EXIT_CONFIG, "", f"error: {error}\n")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert (manifest["status"], manifest["error"]) == ("failed", f"ChildProcessError: {error}")
    assert children_left() == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_sweep_rows_that_absorb_at_different_steps_match_their_own_runs(cpus, tmp_path,
                                                                        monkeypatch):
    # at seed 5 the rows absorb at t = 0.75, 0.75 and 0.5, so the stack's
    # absorbed samples start at different steps of its probe pass
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    cfg = sweep_run(tmp_path / "sweep", SMALL_WAVE_SYSTEM, (1.0, 2.0, 4.0), seed=5)
    assert run_experiment(cfg).status == "ok"
    absorb_times = []
    for i, damping in enumerate(cfg.l_values):
        row = tmp_path / "sweep" / f"l_{i}_{damping:g}"
        alone_dir = tmp_path / f"alone_{i}"
        alone = run_experiment(replace(
            cfg, kind="wave_attractor", system=replace(cfg.system, l=damping),
            output_dir=str(alone_dir), l_values=(),
        ))
        row_manifest = json.loads((row / "manifest.json").read_text())
        assert _inventory(row) == _inventory(alone_dir) == row_manifest["files"]
        assert row_manifest["headline"] == alone.headline
        assert (row_manifest["kind"], row_manifest["status"]) == ("wave_attractor", "ok")
        absorb_times.append(alone.headline["absorb_time"])
    assert absorb_times == [0.75, 0.75, 0.5]


NET_HEADER, ORBITS_HEADER = ["m", "seed_a_1"], ["entry", "t"]  # their first columns


def logged_renders_and_saves(log, monkeypatch):
    """Append to ``log`` a line for each set table rendered and each set
    saved, in whichever process, with that process's id: the tables by the
    header the csv writer is given, the saves through the name the run
    calls."""
    def note(*entry):
        with open(log, "a") as fh:
            fh.write(json.dumps([os.getpid(), *entry]) + "\n")

    writer, save = csv.writer, experiments.save_attracting_set

    class HeaderSpy:
        def __init__(self, fh, *args, **kwargs):
            self._writer = writer(fh, *args, **kwargs)

        def writerow(self, row):
            row = list(row)  # a header may be a dict of columns
            if row[:2] in (NET_HEADER, ORBITS_HEADER):
                note("render", row[0])
            return self._writer.writerow(row)

        def writerows(self, rows):
            return self._writer.writerows(rows)

    def noted_save(aset, directory, extra=None):
        note("save", str(directory))
        return save(aset, directory, extra)

    monkeypatch.setattr(csv, "writer", HeaderSpy)
    monkeypatch.setattr(experiments, "save_attracting_set", noted_save)


@pytest.mark.parametrize("kind", ["wave_attractor", "sweep_l"])
@pytest.mark.parametrize("cpus", [1, 2])
def test_set_tables_are_rendered_once_and_not_where_they_are_saved(kind, cpus, tmp_path,
                                                                   monkeypatch):
    # on two CPUs the net stage's child renders each set's net.csv and
    # orbits.csv, and the process that saves the set only writes them; on
    # one CPU this process renders each once: a lost render is done again
    # by the save, and a render left to the save is done where it saves
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    log = tmp_path / "log"
    logged_renders_and_saves(log, monkeypatch)
    cfg = sweep_run(tmp_path / "out", SMALL_WAVE_SYSTEM, (1.0, 2.0))
    if kind == "wave_attractor":
        cfg = replace(cfg, kind=kind, l_values=())
    assert run_experiment(cfg).status == "ok"
    entries = [json.loads(line) for line in log.read_text().splitlines()]
    renders = [(pid, table) for pid, what, table in entries if what == "render"]
    savers = {pid for pid, what, _ in entries if what == "save"}
    rows = len(cfg.l_values) or 1
    assert sum(what == "save" for _, what, _ in entries) == rows
    assert sorted(table for _, table in renders) == ["entry"] * rows + ["m"] * rows
    here = os.getpid()
    if cpus == 1:
        assert {pid for pid, _ in renders} == savers == {here}
    else:
        assert not savers & {pid for pid, _ in renders}
        assert here not in {pid for pid, _ in renders}
    assert children_left() == []


def row_by_row(monkeypatch):
    """Run every sweep row alone, the path a failed stacked run takes."""
    stacked = experiments._wave_rows

    def one_row_only(subs):
        if len(subs) > 1:
            raise RuntimeError("row by row")
        return stacked(subs)

    monkeypatch.setattr(experiments, "_wave_rows", one_row_only)


def net_fails_at_l_2(monkeypatch):
    build = experiments.build_attracting_set

    def fails_at_l_2(*args):
        if args[7].l == 2.0:  # the system the net orbits run under
            raise BlowUpError(42.0)
        return build(*args)

    monkeypatch.setattr(experiments, "build_attracting_set", fails_at_l_2)


def save_fails_in_row_1(monkeypatch):
    save = experiments.save_attracting_set

    def fails_in_row_1(aset, directory, extra=None):
        if os.path.basename(os.path.dirname(directory)).startswith("l_1_"):
            raise OSError("disk full")
        return save(aset, directory, extra)

    monkeypatch.setattr(experiments, "save_attracting_set", fails_in_row_1)


# (system, l_values, setup, the failed row's files) per sweep whose middle
# row fails
MIDDLE_ROW_FAILURES = {
    # without the nonlinear damping, l = 0 leaves the kernel's gain on mode 1
    "non_dissipative": (dict(SMALL_WAVE_SYSTEM, k=0.0), (1.0, 0.0, 2.0), None, []),
    # l = 1000 is too stiff for dt = 0.0625: the probe pass blows up
    "blow_up": (SMALL_WAVE_SYSTEM, (1.0, 1000.0, 2.0), None, []),
    # every trace is written, then the middle row's net fails
    "net_stage": (SMALL_WAVE_SYSTEM, (1.0, 2.0, 4.0), net_fails_at_l_2, ["trace_alpha.csv"]),
    # the first row's set is written, then the middle row's save fails
    "save": (SMALL_WAVE_SYSTEM, (1.0, 2.0, 4.0), save_fails_in_row_1, ["trace_alpha.csv"]),
}


def sweep_end(cfg, config) -> tuple:
    """The CLI sweep of ``config`` into ``cfg.output_dir``: exit code, printed
    lines, the hashes of every output file but the timed manifests, and
    those manifests without ``duration_s``."""
    shutil.rmtree(cfg.output_dir, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["sweep", str(config)])
    manifests = {}
    for path in sorted(glob.glob(os.path.join(cfg.output_dir, "**", "manifest.json"),
                                 recursive=True)):
        with open(path) as fh:
            manifest = json.load(fh)
        if "duration_s" in manifest:
            manifest.pop("duration_s")
            manifests[os.path.relpath(path, cfg.output_dir)] = json.dumps(manifest, sort_keys=True)
    return code, out.getvalue(), err.getvalue(), _inventory(cfg.output_dir), manifests


@pytest.mark.parametrize("case", sorted(MIDDLE_ROW_FAILURES))
def test_failed_middle_row_ends_as_the_row_by_row_sweep(case, tmp_path, monkeypatch):
    # the stacked run fails, and every row runs again alone: no file of the
    # stacked run is left that the rows' own runs do not write
    system, l_values, setup, left = MIDDLE_ROW_FAILURES[case]
    if setup is not None:
        setup(monkeypatch)
    cfg = sweep_run(tmp_path / "out", system, l_values)
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(config_to_dict(cfg)))
    ends = {}
    for cpus in (1, 2):
        monkeypatch.setattr(os, "cpu_count", lambda n=cpus: n)
        with monkeypatch.context() as patch:
            row_by_row(patch)
            ends[cpus, "row_by_row"] = sweep_end(cfg, config)
        ends[cpus, "stacked"] = sweep_end(cfg, config)
    code, printed, _err, files, manifests = ends[1, "row_by_row"]
    assert all(end == ends[1, "row_by_row"] for end in ends.values())
    assert code == EXIT_CONFIG
    rows = [line for line in printed.splitlines() if line.startswith("l = ")]
    assert ["FAILED" in line for line in rows] == [False, True, False]
    middle = f"l_1_{l_values[1]:g}"
    assert json.loads(manifests[os.path.join(middle, "manifest.json")])["status"] == "failed"
    assert sorted(os.path.relpath(name, middle) for name in files
                  if name.startswith(middle + os.sep)) == left
    assert children_left() == []


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
    # the net stage fails once this process has measured the alpha trace;
    # the proxy continuation to 2 t_orbit = 40 and the fresh pass to t_orbit
    # stay finite
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


@pytest.mark.parametrize("fit_fails", [True, False], ids=["failed_fit", "fit"])
@pytest.mark.parametrize("cpus", [1, 2])
def test_wave_run_measures_the_alpha_trace_once_here(cpus, fit_fails, tmp_path, monkeypatch):
    # this process measures the trace and writes it, and the net stage fits
    # it, here or in a child: a failed fit raises its error after the trace
    # is written, and nothing is measured again
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    traces = []
    measure = experiments.decay_trace

    def counted(*args):
        traces.append(measure(*args))
        return traces[-1]

    def no_fit(*_args):
        raise ValueError("no rate fits the trace")

    monkeypatch.setattr(experiments, "decay_trace", counted)
    if fit_fails:
        monkeypatch.setattr(experiments, "fit_exponential_rate", no_fit)
    cfg = ExperimentConfig(
        kind="wave_attractor", system=wave_config_from_dict(SMALL_WAVE_SYSTEM),
        output_dir=str(tmp_path / "out"), seed=7, ensemble_count=12, ensemble_radius=4.0,
        fresh_count=8,
    )
    if fit_fails:
        with pytest.raises(ValueError, match="no rate fits the trace"):
            run_experiment(cfg)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert (manifest["status"], manifest["error"], sorted(os.listdir(cfg.output_dir))) == (
            "failed", "ValueError: no rate fits the trace", ["manifest.json", "trace_alpha.csv"]
        )
    else:
        assert run_experiment(cfg).status == "ok"
    assert len(traces) == 1
    traces[0].to_csv(tmp_path / "measured.csv")
    assert (tmp_path / "measured.csv").read_bytes() == (
        tmp_path / "out" / "trace_alpha.csv").read_bytes()
    assert children_left() == []


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
    return experiments._TRACE_CHUNK_BYTES // (points * 2 * modes * 8)


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


# ---------------------------------------------------------------------------
# the walks of the wave stages, a chunk of marks at a time

WALKS = ("probe", "absorbed", "proxy", "fresh")  # in the order they run with one CPU


@pytest.fixture(scope="module")
def walk_marks(tmp_path_factory):
    """For each wave case and each of its walks (``WALKS``): the marks the
    walk takes past the leading ones its held table holds, and the bytes of
    its (L, P, 2N) stack, read off the walk's arguments in a run at the
    default chunk size."""
    marks = {}
    walk = experiments._walk

    def recorded(system, held, starts, grids, norm_grid=()):
        offsets = np.concatenate([np.asarray(g, dtype=int) for g in (*grids, norm_grid)])
        union = np.unique(np.add.outer(starts, offsets))
        leading = int(np.cumprod(np.isin(union, held[0])).sum())
        taken.append((union.size - leading, held[1][0].nbytes))
        return walk(system, held, starts, grids, norm_grid)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "_walk", recorded)
        patch.setattr(os, "cpu_count", lambda: 1)
        for case in ("wave_attractor", "sweep_l"):
            taken = []
            run_experiment(test_golden.CASES[case](tmp_path_factory.mktemp(case)))
            marks[case] = dict(zip(WALKS, taken, strict=True))
    return marks


# marks per chunk of one walk, against its C marks: one, or at the edge
CHUNK_MARKS = {"1": lambda c: 1, "C-1": lambda c: c - 1, "C": lambda c: c, "C+1": lambda c: c + 1}


@pytest.mark.parametrize("marks", sorted(CHUNK_MARKS))
@pytest.mark.parametrize("edge", ["probe", "absorbed", "fresh"])
@pytest.mark.parametrize("case", ["wave_attractor", "sweep_l"])
def test_entering_grid_chunks_match_the_golden_outputs(case, edge, marks, walk_marks, tmp_path,
                                                       monkeypatch):
    # the chunk bytes give the walk ``edge`` chunks of 1, C - 1, C or C + 1
    # of its C marks; the other walks get what those bytes give them
    walks = walk_marks[case]
    size, nbytes = walks[edge]
    monkeypatch.setattr(experiments, "_TRACE_CHUNK_BYTES", CHUNK_MARKS[marks](size) * nbytes)
    chunks = sum(-(-c // max(1, experiments._TRACE_CHUNK_BYTES // b)) for c, b in walks.values())
    calls = []
    evolve = dynamics.evolve_states

    def counted(y0, cfg, times):
        calls.append(len(times))
        return evolve(y0, cfg, times)

    monkeypatch.setattr(dynamics, "evolve_states", counted)
    for cpus in (1, 2):
        monkeypatch.setattr(os, "cpu_count", lambda n=cpus: n)
        calls.clear()
        cfg = test_golden.CASES[case](tmp_path / f"cpus_{cpus}")
        assert run_experiment(cfg).status == "ok"
        assert test_golden.output_hashes(cfg.output_dir) == test_golden.GOLDEN[case], cpus
        if cpus == 1:  # every pass here: the four walks in chunks, the net orbits whole
            assert len(calls) == test_golden.PASSES[case] - len(WALKS) + chunks
    assert children_left() == []


def damping_stack(dampings):
    return DampingStack(tuple(replace(wave_config_from_dict(SMALL_WAVE_SYSTEM), l=damping)
                              for damping in dampings))


def drawn(states):
    """The table of a stack at its draw, from which a walk starts."""
    return [0], states[None]


def test_entering_grid_pass_samples_a_chunk_of_marks_at_a_time(monkeypatch):
    # two rows of P = 200 over 24 time units: the whole sample of the union's
    # 193 marks is 9.9 MB, at least 16 chunks
    system = damping_stack((1.0, 2.0))
    states = 0.5 * np.random.default_rng(3).standard_normal((2, 200, 16))
    enter = system.steps(system.sample_grid(24.0, experiments._ENTER_SAMPLES))
    cadence = system.steps(orbit_grid(12.0, 0.25))
    union = np.union1d(enter, cadence)
    whole = union.size * states.nbytes
    chunk = experiments._TRACE_CHUNK_BYTES // states.nbytes
    assert whole >= 16 * experiments._TRACE_CHUNK_BYTES
    sampled = []
    evolve = dynamics.evolve_states

    def recorded(y0, cfg, times):
        sampled.append(np.asarray(times, dtype=float))
        return evolve(y0, cfg, times)

    monkeypatch.setattr(dynamics, "evolve_states", recorded)
    tracemalloc.start()
    try:
        rows, norms, (steps, kept) = experiments._walk(system, drawn(states), [0, 0], [cadence],
                                                       enter)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - norms.nbytes - rows.nbytes - kept.nbytes < whole / 4
    assert max(t.size for t in sampled) <= chunk
    # step 0 is read from the table; each chunk's times count from the last
    # mark of the one before it
    at, marks = 0, []
    for times in sampled:
        marks.append(at + system.steps(times))
        at = marks[-1][-1]
    assert np.array_equal(np.concatenate(marks), union[1:])
    monkeypatch.undo()
    whole_rows = system.sample(states, union * system.dt)
    assert norms.tobytes() == states_norms(
        whole_rows[np.searchsorted(union, enter)], system.eigenvalues).tobytes()
    assert rows.tobytes() == whole_rows[np.searchsorted(union, cadence)].tobytes()
    # the table holds every row at the steps the grid read, for a later walk
    assert np.array_equal(steps, cadence) and kept.tobytes() == rows.tobytes()


def mid_segment_blow_up():
    """The stacked mid-segment case, whose l = 180 row blows up between
    steps 60 and 200, and the error of one pass over every other step to
    200 from its start."""
    cfg, y0, _reference = test_dynamics.TestSparseFinitenessChecks.blow_up_case(
        "stacked_row", "mid_segment")
    with pytest.raises(BlowUpError) as whole:
        cfg.sample(y0, np.arange(0, 201, 2) * cfg.dt)
    return cfg, y0, whole.value


def test_a_blow_up_in_a_later_chunk_raises_at_the_time_of_one_pass(monkeypatch):
    # past the first chunks of 16 marks
    cfg, y0, whole = mid_segment_blow_up()
    enter, cadence = np.arange(0, 201, 2), np.arange(0, 201, 25)
    union = np.union1d(enter, cadence)
    monkeypatch.setattr(experiments, "_TRACE_CHUNK_BYTES", 16 * y0.nbytes)
    with pytest.raises(BlowUpError) as chunked:
        experiments._walk(cfg, drawn(y0), [0] * len(y0), [cadence], enter)
    assert whole.time > union[16] * cfg.dt
    assert chunked.value.time == whole.time
    assert str(chunked.value) == str(whole)


def test_a_blow_up_after_a_resume_is_timed_from_the_earliest_start(monkeypatch):
    # the table holds the pass at steps 0, 10 and 12, and the rows start at
    # steps 10 and 12: the walk resumes at step 12, past the earliest start
    cfg, y0, whole = mid_segment_blow_up()
    steps = np.array([0, 10, 12])
    table = steps, cfg.sample(y0, steps * cfg.dt)
    monkeypatch.setattr(experiments, "_TRACE_CHUNK_BYTES", 16 * y0.nbytes)
    sampled = []
    evolve = dynamics.evolve_states

    def recorded(start, system, times):
        sampled.append(np.asarray(start).tobytes())
        return evolve(start, system, times)

    monkeypatch.setattr(dynamics, "evolve_states", recorded)
    with pytest.raises(BlowUpError) as chunked:
        experiments._walk(cfg, table, [10, 12, 10], [np.arange(0, 189, 2)])
    assert sampled[0] == table[1][2].tobytes() and len(sampled) > 1
    lost = (cfg.steps(whole.time) - 10) * cfg.dt
    assert chunked.value.time == lost
    assert str(chunked.value) == str(BlowUpError(lost))


def test_a_horizon_past_the_step_cap_is_refused_before_any_step(tmp_path, monkeypatch):
    # burn_in + window = 400002 is 6400032 steps of dt = 0.0625: refused when
    # the config is read, before any pass runs or any file is written
    steps = []
    monkeypatch.setattr(dynamics, "evolve_states", lambda *args: steps.append(args))
    message = (f"config field 'burn_in' + 'window' = 400002 needs 6400032 steps of dt = 0.0625, "
               f"above the cap of {dynamics.MAX_STEPS}")
    with pytest.raises(ValueError) as refused:
        replace(test_golden.CASES["wave_attractor"](tmp_path / "out"), burn_in=400000.0)
    assert str(refused.value) == message
    assert steps == [] and not (tmp_path / "out").exists()


def test_a_walk_past_the_step_cap_is_refused_before_any_step(monkeypatch):
    # the rows start at step 2, so the last mark is one step past the cap,
    # though each chunk of one mark counts fewer steps from where it resumes
    cap, system = dynamics.MAX_STEPS, damping_stack((1.0,))
    table = [0, 2], np.zeros((2, 1, 4, 16))
    steps = []
    monkeypatch.setattr(dynamics, "evolve_states", lambda *args: steps.append(args))
    monkeypatch.setattr(experiments, "_TRACE_CHUNK_BYTES", table[1][0].nbytes)
    with pytest.raises(ValueError) as refused:
        experiments._walk(system, table, [2], [[0, cap // 2, cap - 1]])
    assert str(refused.value) == f"horizon needs {cap + 1} steps, above the cap of {cap}"
    assert steps == []
