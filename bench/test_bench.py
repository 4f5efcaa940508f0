"""Tests of the benchmark itself:  python -m pytest bench"""

import os
import sys
from dataclasses import replace

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import check  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from attractorlab import experiments  # noqa: E402
from attractorlab.dynamics import wave_config_from_dict  # noqa: E402

COUNT_METRICS = (
    "dynamics.rk4_steps",
    "dynamics.state_steps",
    "dynamics.replay_ratio",
    "phase.from_matrix_rows",
    "covering.alpha_proxy_calls",
    "covering.semidist_calls",
    "attracting.bytes_written",
    "experiments.output_bytes",
)


def small_wave(kind, out, l_values=()):
    """The wave workloads' pipeline on an 8-mode system, fast enough to repeat."""
    cfg = workloads.build("wave_attractor", 7, str(out))
    system = wave_config_from_dict(dict(workloads.WAVE_SYSTEM, mode_count=8, dt=0.0625,
                                        collocation_points=24))
    return replace(cfg, kind=kind, system=system, ensemble_count=8, fresh_count=6,
                   l_values=tuple(l_values))


def small_oracle(out):
    return replace(workloads.build("oracle_large", 7, str(out)), ensemble_count=10,
                   t_grid=np.arange(0.0, 2.0 + 1e-9, 0.25))


def traced_call(cfg):
    with tracing.Tracer() as tracer:
        wall, manifest, fault = measure.call_once(cfg, None)
    assert manifest is not None, fault
    return tracer, wall, manifest


def test_seed_maps_to_recorded_reference():
    for seed in (7, 11, 23, 0, 12, 1234567):
        s = workloads.sample_seed(seed)
        assert s in workloads.REFERENCE_SEEDS
        assert s == workloads.sample_seed(seed)
        for name in workloads.WORKLOADS:
            assert s in check.load_reference(name)
    assert workloads.sample_seed(7) == 7


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_same_config(name, tmp_path):
    a = experiments.config_to_dict(workloads.build(name, 42, str(tmp_path)))
    b = experiments.config_to_dict(workloads.build(name, 42, str(tmp_path)))
    assert a == b
    other = experiments.config_to_dict(workloads.build(name, 43, str(tmp_path)))
    assert other["seed"] != a["seed"]
    assert {k: v for k, v in other.items() if k != "seed"} == {
        k: v for k, v in a.items() if k != "seed"
    }


def test_same_seed_gives_same_counts(tmp_path):
    cfg = small_wave("wave_attractor", tmp_path / "out")
    runs = []
    for _ in range(2):
        tracer, wall, manifest = traced_call(cfg)
        m = measure.layer_metrics(tracer, wall, manifest, cfg.output_dir, manifest.files)
        runs.append({k: m[k] for k in COUNT_METRICS})
    assert runs[0] == runs[1]
    assert runs[0]["dynamics.rk4_steps"] > 0


def test_host_correction_is_the_median_ratio_to_the_reference():
    value = measure.host_corrected([2.0, 4.0, 9.0], [0.05, 0.1, 0.1], 0.025)
    assert value == pytest.approx(1.0)
    assert measure.host_reference() > 0.0


def test_tracer_restores_every_trace_point(tmp_path):
    originals = [owner.__dict__[attr] for owner, attr, _ in tracing.TRACE_POINTS]
    assert tracing.installed_wrappers() == []
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            assert len(tracing.installed_wrappers()) == len(tracing.TRACE_POINTS)
            1 / 0
    assert tracing.installed_wrappers() == []
    assert all(
        owner.__dict__[attr] is orig
        for (owner, attr, _), orig in zip(tracing.TRACE_POINTS, originals)
    )


def test_untraced_timing_refuses_installed_wrappers(tmp_path):
    cfg = small_oracle(tmp_path / "out")
    with tracing.Tracer():
        with pytest.raises(RuntimeError, match="still installed"):
            measure.timed_calls(cfg, None, 0.0)
        with pytest.raises(RuntimeError, match="still installed"):
            measure.step_probes(7)
    times, _refs, _faults = measure.timed_calls(cfg, None, 0.0)
    assert len(times) == 1


@pytest.mark.parametrize("kind", ["wave_attractor", "criteria_suite", "sweep_l"])
def test_self_times_are_nonnegative_and_within_wall(kind, tmp_path):
    cfg = small_wave(kind, tmp_path / "out", (1.0, 2.0) if kind == "sweep_l" else ())
    tracer, wall, _manifest = traced_call(cfg)
    assert min(tracer.self_s.values()) >= -1e-9
    assert sum(tracer.self_s.values()) <= wall + 1e-9
    assert tracer.calls["experiments"] == (3 if kind == "sweep_l" else 1)


def test_corrupted_reference_fails_every_call(tmp_path):
    cfg = small_oracle(tmp_path / "out")
    experiments.run_experiment(cfg)
    reference = check.output_inventory(cfg.output_dir)
    _times, _refs, faults = measure.timed_calls(cfg, reference, 0.0)
    assert faults == [None, None]

    corrupted = dict(reference)
    key = sorted(corrupted)[0]
    corrupted[key] = "0" * 64
    _times, _refs, faults = measure.timed_calls(cfg, corrupted, 0.0)
    assert all(f is not None and "differ from the reference" in f for f in faults)
    assert sum(f is not None for f in faults) / len(faults) == 1.0


def test_inventory_skips_only_timing_manifests(tmp_path):
    for rel in ("manifest.json", "sweep.csv", "l_0_1/manifest.json",
                "l_0_1/attractor/manifest.json", "attractor/manifest.json"):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(rel)
    assert sorted(check.output_inventory(tmp_path)) == [
        "attractor/manifest.json", "l_0_1/attractor/manifest.json", "sweep.csv",
    ]


def test_sweep_inventory_is_unstable_across_reruns(tmp_path):
    """Known defect: the sweep's manifest ``files`` hashes the sub-run
    manifests, which hold ``duration_s``; the benchmark counts, not hides, it."""
    cfg = small_wave("sweep_l", tmp_path / "out", (1.0, 2.0))
    _t, first, _f = measure.call_once(cfg, None)
    tracer, wall, second = traced_call(cfg)
    m = measure.layer_metrics(tracer, wall, second, cfg.output_dir, first.files)
    assert m["experiments.unstable_inventory_entries"] == 2
    assert 0.9 < m["experiments.sweep_concurrency"] <= 1.0


@pytest.mark.parametrize("name, steps", [
    ("wave_attractor", 5280), ("criteria_suite", 4992), ("oracle_large", 0),
])
def test_rk4_steps_at_seed_7(name, steps, tmp_path):
    cfg = workloads.build(name, 7, str(tmp_path / "out"))
    tracer, wall, manifest = traced_call(cfg)
    assert tracer.counts["rk4_steps"] == steps
    expected = check.load_reference(name)[7]
    assert check.run_fault(manifest, cfg.output_dir, expected) is None
