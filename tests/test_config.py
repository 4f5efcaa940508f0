"""The run file format: a run manifest's config echo loads back to the same
config, for every pipeline kind, both engines and every field."""

import glob
import json
import math
import os
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest
import yaml

from attractorlab.attracting import AttractingSetApprox
from attractorlab.cli import EXIT_CONFIG, main
from attractorlab.decay import DecayLaw
from attractorlab.dynamics import (
    MAX_MODES,
    LinearModalConfig,
    WaveSystemConfig,
    _int,
    _mode_count,
    wave_config_from_dict,
)
from attractorlab.experiments import (
    _KEYS,
    _KINDS,
    _SCHEMA,
    ExperimentConfig,
    config_to_dict,
    load_experiment_config,
    run_experiment,
)

from conftest import CONFIG_DIR, SMALL_WAVE_SYSTEM, load_bench


def small_wave(out, kind, **overrides):
    return ExperimentConfig(
        kind=kind, system=wave_config_from_dict(SMALL_WAVE_SYSTEM), output_dir=str(out),
        seed=7, ensemble_count=8, ensemble_radius=4.0, fresh_count=6, **overrides,
    )


def shipped_oracle(out, kind):
    cfg = load_experiment_config(os.path.join(CONFIG_DIR, "oracle_decay.yaml"))
    return replace(cfg, kind=kind, output_dir=str(out))


RUNS = {
    "oracle_decay": lambda out: shipped_oracle(out, "oracle_decay"),
    "quasistability_oracle": lambda out: shipped_oracle(out, "quasistability"),
    "criteria_suite_oracle": lambda out: shipped_oracle(out, "criteria_suite"),
    "quasistability_wave": lambda out: small_wave(out, "quasistability"),
    "wave_attractor": lambda out: small_wave(out, "wave_attractor"),
    "criteria_suite": lambda out: small_wave(out, "criteria_suite"),
    "sweep_l": lambda out: small_wave(out, "sweep_l", l_values=(1.0, 2.0)),
}


def reloaded(raw, tmp_path) -> ExperimentConfig:
    """``load_experiment_config`` of a config mapping written as YAML."""
    path = tmp_path / "echo.yaml"
    path.write_text(yaml.safe_dump(raw, sort_keys=False))
    return load_experiment_config(path)


@pytest.mark.parametrize("case", sorted(RUNS))
def test_manifest_config_echo_loads_back(case, tmp_path):
    cfg = RUNS[case](tmp_path / "out")
    assert run_experiment(cfg).status == "ok"
    echo = json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]
    assert echo == config_to_dict(cfg)
    assert config_to_dict(reloaded(echo, tmp_path)) == echo


@pytest.mark.parametrize("kind, top", [("criteria_suite", 7), ("quasistability", 8)])
def test_low_mode_threshold_range_follows_the_pipeline(kind, top, tmp_path):
    # the 8-mode system: the tail check needs a mode above the threshold
    for n in (1, top):
        assert small_wave(tmp_path, kind, low_mode_threshold=n).low_mode_threshold == n
    for n in (0, top + 1):
        with pytest.raises(ValueError, match="'low_mode_threshold'"):
            small_wave(tmp_path, kind, low_mode_threshold=n)
    # a pipeline that does not read the field does not check it
    assert small_wave(tmp_path, "wave_attractor", low_mode_threshold=0).low_mode_threshold == 0


ORBIT_GRID_FILES = ("attractor/orbits.csv", "certificate.csv", "attractor/net.csv",
                    "attractor/proxy.csv", "trace_alpha.csv")


def test_a_t_orbit_within_round_off_of_the_cadence_runs_on_the_grid_ending_there(tmp_path):
    # the read accepts a t_orbit within 1e-9 * max(1, t) of the step grid, and
    # the net orbits and the held-out sample then share the grid that ends at
    # the cadence nearest it: the files are those of t_orbit = 12 itself
    raw = config_to_dict(small_wave(tmp_path, "wave_attractor"))
    outputs = []
    for i, t_orbit in enumerate((12.0, 12.0 - 5e-10, 12.0 + 5e-10)):
        raw.update(output_dir=str(tmp_path / f"out_{i}"))
        raw["pipeline"]["t_orbit"] = t_orbit
        cfg = reloaded(raw, tmp_path)
        assert cfg.t_orbit == t_orbit
        assert run_experiment(cfg).status == "ok"
        outputs.append([(tmp_path / f"out_{i}" / name).read_bytes() for name in ORBIT_GRID_FILES])
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    # a t_orbit on the step grid but off the cadence is still refused when read
    raw["pipeline"]["t_orbit"] = 12.0625
    with pytest.raises(ValueError, match="^config field 't_orbit' = 12.0625 is not a whole "):
        reloaded(raw, tmp_path)


@pytest.mark.parametrize("minimum", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_threshold_exits_1_when_read(minimum, tmp_path, capsys):
    # no headline value is below NaN, so a NaN threshold could never fail
    with open(os.path.join(CONFIG_DIR, "wave_attractor.yaml")) as fh:
        raw = yaml.safe_load(fh)
    raw["output_dir"] = str(tmp_path / "out")
    raw["thresholds"]["satisfied_fraction"] = minimum
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert main(["run", str(path), "--strict"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: config field 'thresholds.satisfied_fraction' must be finite, got {minimum!r}\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, system, engine", [
    ("oracle_decay", wave_config_from_dict(SMALL_WAVE_SYSTEM), "LinearModalConfig"),
    ("wave_attractor", LinearModalConfig(1.0, [1.0, 4.0]), "WaveSystemConfig"),
    ("sweep_l", LinearModalConfig(1.0, [1.0, 4.0]), "WaveSystemConfig"),
])
def test_a_kind_refuses_an_engine_it_does_not_run_on(kind, system, engine, tmp_path):
    # test_cli's BAD_NUMBERS runs the same three through the command line
    with pytest.raises(ValueError, match=f"^config field 'system' is a {type(system).__name__}, "
                                         f"but kind '{kind}' runs on {engine}$"):
        ExperimentConfig(kind=kind, system=system, output_dir=str(tmp_path))


@pytest.mark.parametrize("kind", ["oracle_decay", "criteria_suite", "quasistability"])
def test_an_unsorted_oracle_spectrum_is_refused_for_every_oracle_kind(kind, tmp_path):
    # the engine takes its modes in any order; the run's energy metric does not
    with pytest.raises(ValueError, match="^config field 'system' defines no energy metric: "
                                         "eigenvalues must be nondecreasing$"):
        ExperimentConfig(kind=kind, system=LinearModalConfig(1.0, [4.0, 1.0, 9.0]),
                         output_dir=str(tmp_path), low_mode_threshold=2)


def test_the_kinds_use_the_known_requirement_tags():
    # a misspelt tag would switch its checks off without a word
    assert set().union(*(needs for _pipeline, _engines, needs in _KINDS.values())) == {
        "alpha", "orbits", "sweep", "tail", "period"}


def test_a_count_grid_mapping_reads_as_linspace(tmp_path):
    raw = config_to_dict(shipped_oracle(tmp_path / "out", "oracle_decay"))
    raw["grids"]["t_grid"] = {"start": 0, "stop": 1, "count": 7}
    assert np.array_equal(reloaded(raw, tmp_path).t_grid, np.linspace(0.0, 1.0, 7))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("case", sorted(RUNS))
def test_a_non_finite_t_grid_entry_is_refused_for_every_kind(case, bad, tmp_path):
    # a NaN compares false with everything, so the order check alone passes it
    cfg = RUNS[case](tmp_path / "out")
    with pytest.raises(ValueError, match="^config field 't_grid' must be nonempty, finite, "
                                         "nonnegative and strictly increasing$"):
        replace(cfg, t_grid=np.append(cfg.t_grid[:2], bad))


def test_shipped_and_benchmark_configs_pass_the_step_grid_checks(tmp_path):
    # the checks run when a config is read; none may refuse a config that runs
    shipped = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.yaml")))
    assert [os.path.basename(path) for path in shipped] == [
        "oracle_decay.yaml", "wave_attractor.yaml"]
    for path in shipped:
        load_experiment_config(path)
    workloads = load_bench("workloads")
    for name in workloads.WORKLOADS:
        workloads.build(name, workloads.REFERENCE_SEEDS[0], str(tmp_path / name))


def test_a_field_the_kind_never_samples_is_not_checked(tmp_path):
    # dt = 1/6 at three modes: the default t_grid and orbit cadence of 0.25
    # are off the step grid, but a quasistability run samples neither
    cfg = ExperimentConfig(kind="quasistability", system=WaveSystemConfig(mode_count=3, l=1.0),
                           output_dir=str(tmp_path / "out"), ensemble_count=8,
                           low_mode_threshold=2)
    assert run_experiment(cfg).status == "ok"
    with pytest.raises(ValueError, match="^config field 't_grid' = 0.25 is not a multiple"):
        replace(cfg, kind="criteria_suite")


def off_default_config(out) -> ExperimentConfig:
    system = WaveSystemConfig(
        mode_count=3, k=0.5, p=3.0, l=1.5, f_coeffs=(0.0, -1.0, 0.0, 2.0),
        kernel=((0.2, (1.0, 0.5, 0.0)),), h_coeffs=(1.0, 0.0, -0.5), dt=0.125,
        collocation_points=9,
    )
    return ExperimentConfig(
        kind="sweep_l", system=system, output_dir=str(out), seed=11, ensemble_count=9,
        ensemble_radius=3.0, fresh_count=5, t_grid=np.arange(0.0, 6.5, 0.5), m_range=(2, 3),
        l_values=(0.5, 1.0), burn_in=3.0, window=1.5, m_clusters=2, t_orbit=6.0,
        orbit_sample_every=0.5, fit_floor=1e-8, n_periods=4, low_mode_threshold=2,
        closeness=0.3, quasi_period=2.0, thresholds={"satisfied_fraction": 0.9},
    )


def test_every_field_survives_the_round_trip(tmp_path):
    cfg = off_default_config(tmp_path / "out")
    # a sweep_l config needs l_values, so the defaults are read off the
    # wave_attractor row it sweeps
    defaults = ExperimentConfig(kind="wave_attractor", system=cfg.system, output_dir="")
    for f in fields(ExperimentConfig):
        # every field off its default, so a field the file format leaves out
        # comes back at its default and fails below
        if f.default is not MISSING or f.default_factory is not MISSING:
            assert not np.array_equal(getattr(cfg, f.name), getattr(defaults, f.name)), f.name
    back = reloaded(config_to_dict(cfg), tmp_path)
    for f in fields(ExperimentConfig):
        if f.name == "system":
            assert back.system.as_dict() == cfg.system.as_dict()
        elif f.name == "metric":  # built from the system, not read from the file
            assert np.array_equal(back.metric.mode_eigenvalues, cfg.metric.mode_eigenvalues)
        else:
            assert np.array_equal(getattr(back, f.name), getattr(cfg, f.name)), f.name
    assert config_to_dict(back) == config_to_dict(cfg)


@pytest.mark.parametrize("system", [
    WaveSystemConfig(mode_count=3, kernel=((0.1, (1.0, 0.0, 0.0)),), h_coeffs=(4.0, 0.0, 0.0)),
    LinearModalConfig(2.0, np.array([1.0, 4.0])),
])
def test_engine_writes_plain_values(system, tmp_path):
    # plain floats, not numpy scalars, so yaml.safe_dump can write the echo.
    # quasistability runs on both engines; its period is a step of the
    # three-mode system (dt = 1/6), whose damping l = 0 gives no default one
    cfg = ExperimentConfig(kind="quasistability", system=system, output_dir=str(tmp_path),
                           low_mode_threshold=2, quasi_period=1.0)
    assert reloaded(config_to_dict(cfg), tmp_path).system.as_dict() == system.as_dict()


def test_wave_dt_defaults_to_the_stability_bound():
    assert WaveSystemConfig(mode_count=8).dt == 0.0625
    assert wave_config_from_dict({"mode_count": 32}).dt == 0.015625
    assert replace(WaveSystemConfig(mode_count=4), l=1.0).dt == 0.125


def small_set() -> AttractingSetApprox:
    """A one-entry attracting set on the orbit grid 0, 0.25, ..., 1."""
    return AttractingSetApprox(
        birth_times=np.array([1]), net_seeds=np.zeros((1, 2)), net_states=np.zeros((1, 2)),
        orbit_states=np.zeros((1, 5, 2)), orbit_times=np.arange(5) * 0.25,
        attractor_proxy=None, law_used=DecayLaw("exponential", 1.0, 1.0), m_range=(1, 1),
        t_orbit=1.0, orbit_sample_every=0.25, t_star=0.0,
    )


def experiment(attr):
    return lambda v: replace(small_wave("out", "wave_attractor"), **{attr: v})


BOUNDED = ("seed", "n_periods", "ensemble_count", "fresh_count", "m_clusters", "ensemble_radius",
           "burn_in", "window", "t_orbit", "orbit_sample_every", "fit_floor", "closeness",
           "quasi_period")

# Every scalar refused by ``dynamics._positive``: (source, field named in the
# refusal, whether 0 is in range, whether it is an integer, the record built
# with a value of the field, and the run file's kind, section and key or None)
SHARED_BOUND = {
    **{_KEYS[attr]: ("config", _KEYS[attr], attr in ("seed", "n_periods"), read is _int,
                     experiment(attr), ("wave_attractor", section, key))
       for section, key, attr, read in _SCHEMA if attr in BOUNDED},
    **{f"system.{name}": ("config", f"system.{name}", name != "p", False,
                          lambda v, name=name: WaveSystemConfig(mode_count=3, **{name: v}),
                          ("wave_attractor", "system", name))
       for name in ("k", "l", "p")},
    "system.mode_count": ("config", "system.mode_count", False, True,
                          lambda v: WaveSystemConfig(mode_count=v),
                          ("wave_attractor", "system", "mode_count")),
    "oracle system.l": ("config", "system.l", False, False,
                        lambda v: LinearModalConfig(v, [1.0, 4.0]),
                        ("oracle_decay", "system", "l")),
    **{f"set {name}": ("attracting set", name, name == "t_star", False,
                       lambda v, name=name: replace(small_set(), **{name: v}), None)
       for name in ("orbit_sample_every", "t_orbit", "t_star")},
    **{f"law {name}": ("decay law", name, name == "shift", False,
                       lambda v, name=name: DecayLaw(**{"kind": "exponential", "amplitude": 1.0,
                                                        "rate": 1.0, name: v}), None)
       for name in ("amplitude", "rate", "shift")},
}


@pytest.mark.parametrize("case", sorted(SHARED_BOUND))
def test_the_shared_bound_refuses_each_field_naming_it(case, tmp_path, capsys):
    # NaN, both infinities and the value next to the field's range, built
    # directly and, where the field has a run-file key, run from a file
    source, name, zero, integer, build, run = SHARED_BOUND[case]
    below = (-1 if integer else math.nextafter(0.0, -1.0)) if zero else (0 if integer else 0.0)
    for value in (math.nan, math.inf, -math.inf, below):
        with pytest.raises(ValueError, match=f"^{source} field '{name}' "):
            build(value)
        if run is None:
            continue
        kind, section, key = run
        cfg = shipped_oracle("out", kind) if kind == "oracle_decay" else small_wave("out", kind)
        raw = dict(config_to_dict(cfg), output_dir=str(tmp_path / "out"))
        (raw[section] if section else raw)[key] = value
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert main(["run", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field '{name}' ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


def test_a_seed_past_float_range_runs(tmp_path):
    # 0 <= seed < inf compares the int exactly, where math.isfinite overflows
    raw = dict(config_to_dict(shipped_oracle("out", "oracle_decay")),
               output_dir=str(tmp_path / "out"), seed=10**400)
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert main(["run", str(path)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 10**400 and manifest["status"] == "ok"


def test_the_mode_bound_is_the_largest_synthesis_table_numpy_can_size():
    # the (2N+1, N) table's 8 N (2N+1) bytes must fit an index-sized integer;
    # read, never built: a table at the bound would take exabytes
    def fits(n):
        return 8 * n * (2 * n + 1) <= np.iinfo(np.intp).max
    assert fits(MAX_MODES) and not fits(MAX_MODES + 1)
    with pytest.raises(ValueError, match="too big"):  # sized, refused before any allocation
        np.empty((2 * MAX_MODES + 3, MAX_MODES + 1))
    assert _mode_count(MAX_MODES) == MAX_MODES
    with pytest.raises(ValueError, match=f"^config field 'system.mode_count' must be at most "
                                         f"{MAX_MODES}, "):
        _mode_count(MAX_MODES + 1)
