"""End-to-end tests of the command line: every subcommand and exit code."""

import contextlib
import csv
import io
import json
import os
import shutil

import pytest
import yaml

from attractorlab.cli import EXIT_BLOWUP, EXIT_CONFIG, EXIT_OK, EXIT_THRESHOLD, main

from conftest import CONFIG_DIR, SMALL_WAVE_SYSTEM


def write_config(directory, system=None, kind="wave_attractor", pipeline=None,
                 thresholds=None, **sections):
    """A YAML run config for the 8-mode wave system, written to ``directory``."""
    raw = {
        "kind": kind,
        "output_dir": str(directory / "out"),
        "seed": 7,
        "ensemble": {"count": 12, "radius": 4.0, "fresh_count": 8},
        "system": {"type": "wave", **(system or SMALL_WAVE_SYSTEM)},
        "pipeline": pipeline or {},
        "thresholds": thresholds or {"satisfied_fraction": 0.95},
        **sections,
    }
    path = directory / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


def run_cli(*argv):
    """Exit code, stdout and stderr of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def printed(text: str) -> dict:
    """The ``key = value`` lines of CLI output, values as printed."""
    return dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    directory = tmp_path_factory.mktemp("run")
    config = write_config(directory)
    code, out, err = run_cli("run", config)
    assert code == EXIT_OK, err
    return config, directory / "out", out


def test_run_exits_0_and_prints_the_headline(finished_run):
    _config, out_dir, out = finished_run
    assert {"satisfied_fraction", "t_star", "absorb_time"} <= set(printed(out))
    assert float(printed(out)["absorb_time"]) > 0.0
    assert (out_dir / "attractor" / "net.csv").exists()


def test_verify_reproduces_the_run_headline(finished_run):
    config, out_dir, run_out = finished_run
    code, out, err = run_cli("verify", out_dir / "attractor", config)
    assert code == EXIT_OK, err
    run_lines, verify_lines = printed(run_out), printed(out)
    assert verify_lines["t_star"] == run_lines["t_star"]
    assert verify_lines["satisfied_fraction"] == run_lines["satisfied_fraction"]


def test_fit_exits_0_on_the_alpha_trace(finished_run):
    _config, out_dir, _out = finished_run
    code, out, err = run_cli("fit", out_dir / "trace_alpha.csv")
    assert code == EXIT_OK, err
    assert float(printed(out)["rate"]) > 0.0


# (field named in the error, edit of the attractor manifest) per malformed case
MALFORMED_MANIFESTS = [
    ("law", lambda m: {**m, "law": {**m["law"], "bogus": 1.0}}),
    ("law", lambda m: {**m, "law": 5}),
    ("law.amplitude", lambda m: {**m, "law": {**m["law"], "amplitude": "large"}}),
    ("m_range", lambda m: {**m, "m_range": 5}),
    ("t_star", lambda m: {**m, "t_star": "soon"}),
    ("orbit_sample_every", lambda m: {**m, "orbit_sample_every": 0.0}),
    ("orbit_sample_every", lambda m: {**m, "orbit_sample_every": float("inf")}),
    # positive and finite, but not the spacing of the orbits.csv times
    ("orbit_sample_every", lambda m: {**m, "orbit_sample_every": 1e-300}),
    ("t_orbit", lambda m: {**m, "t_orbit": float("inf")}),
    ("t_orbit", lambda m: {**m, "t_orbit": float("nan")}),
    ("t_star", lambda m: {k: v for k, v in m.items() if k != "t_star"}),
    ("t_star", lambda m: {**m, "t_star": float("inf")}),
    # an entering time is never negative
    ("t_star", lambda m: {**m, "t_star": -100.0}),
    # birth times run from 1 up, and no later than t_orbit
    ("m_range", lambda m: {**m, "m_range": [4, 1]}),
    ("m_range", lambda m: {**m, "m_range": [0, 4]}),
    ("m_range", lambda m: {**m, "m_range": [1, 40]}),
    # a whole number of cadences, but past the end of the 12-long orbit grid
    ("t_orbit", lambda m: {**m, "t_orbit": 24.0}),
    ("t_orbit", lambda m: {k: v for k, v in m.items() if k != "t_orbit"}),
    # YAML's and JSON's true is no birth time, though Python counts it as 1
    ("m_range", lambda m: {**m, "m_range": [1, True]}),
]


@pytest.mark.parametrize(
    "field,edit", MALFORMED_MANIFESTS,
    ids=["unknown_law_key", "law_not_a_mapping", "law_amplitude", "m_range", "t_star",
         "zero_orbit_cadence", "infinite_orbit_cadence", "tiny_orbit_cadence",
         "infinite_t_orbit", "nan_t_orbit", "t_star_removed", "infinite_t_star",
         "negative_t_star", "m_range_reversed", "m_range_from_zero", "m_range_past_t_orbit",
         "t_orbit_past_the_orbit_grid", "t_orbit_removed", "boolean_m_max"],
)
def test_verify_malformed_manifest_exits_1(finished_run, tmp_path, field, edit):
    config, out_dir, _out = finished_run
    attractor = tmp_path / "attractor"
    shutil.copytree(out_dir / "attractor", attractor)
    manifest = attractor / "manifest.json"
    manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
    code, _out, err = run_cli("verify", attractor, config)
    assert code == EXIT_CONFIG
    assert err.startswith("error:") and f"'{field}'" in err and err.count("\n") == 1
    # the field is the attractor manifest's, not the run config's
    assert "config field" not in err


def test_verify_manifest_that_is_not_a_mapping_exits_1(finished_run, tmp_path):
    config, out_dir, _out = finished_run
    attractor = tmp_path / "attractor"
    shutil.copytree(out_dir / "attractor", attractor)
    (attractor / "manifest.json").write_text("[1, 2]")
    code, out, err = run_cli("verify", attractor, config)
    assert code == EXIT_CONFIG
    assert out == "" and err == "error: attractor manifest must be a mapping\n"


def csv_rows(path, header=False) -> list:
    """The data rows of a CSV file, after its header row if ``header``, as
    the text of each cell."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[0 if header else 1:]


def set_cell(row, column, text):
    """``edit`` of a CSV's rows: cell ``column`` of data row ``row`` set to ``text``."""
    def edit(rows):
        rows[1 + row][column] = text
        return rows
    return edit


# (file, edit of its rows with the header first, field or file named in the error)
CORRUPTED_FILES = {
    "nan_orbit_state": ("orbits.csv", set_cell(3, -1, "nan"), "'orbit_states'"),
    "nan_net_state": ("net.csv", set_cell(0, -1, "nan"), "'net_states'"),
    "nan_birth_time": ("net.csv", set_cell(0, 0, "nan"), "net.csv column 'm'"),
    "fractional_birth_time": ("net.csv", set_cell(0, 0, "1.5"), "net.csv column 'm'"),
    "birth_time_outside_m_range": ("net.csv", set_cell(0, 0, "99"), "'birth_times'"),
    "fractional_orbit_entry": ("orbits.csv", lambda rows: [
        ["1.5" if row[0] == "1" else row[0], *row[1:]] for row in rows], "orbits.csv"),
    "proxy_two_columns_short": ("proxy.csv", lambda rows: [row[:-2] for row in rows],
                                "'attractor_proxy'"),
    "proxy_cell_not_a_number": ("proxy.csv", set_cell(0, 0, "abc"), "proxy.csv"),
    # orbit time 0.5 moved to 0.6 in every entry: still one shared grid, but
    # not the orbit cadence
    "orbit_time_off_the_cadence": ("orbits.csv", lambda rows: [
        [row[0], "0.6" if row[1] == "0.5" else row[1], *row[2:]] for row in rows],
        "'orbit_sample_every'"),
}


@pytest.mark.parametrize("case", sorted(CORRUPTED_FILES))
def test_verify_corrupted_file_exits_1(finished_run, tmp_path, case):
    name, edit, named = CORRUPTED_FILES[case]
    config, out_dir, _out = finished_run
    attractor = tmp_path / "attractor"
    shutil.copytree(out_dir / "attractor", attractor)
    rows = edit(csv_rows(attractor / name, header=True))
    with open(attractor / name, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    code, out, err = run_cli("verify", attractor, config)
    assert code == EXIT_CONFIG
    assert out == "" and err.startswith("error:") and named in err and err.count("\n") == 1


def test_verify_with_a_config_of_another_mode_count_exits_1(finished_run, tmp_path):
    _config, out_dir, _out = finished_run
    system = dict(SMALL_WAVE_SYSTEM, mode_count=16, dt=0.03125, collocation_points=48)
    config = write_config(tmp_path, system=system)
    code, out, err = run_cli("verify", out_dir / "attractor", config)
    assert code == EXIT_CONFIG
    assert out == "" and err == ("error: config field 'system.mode_count' is 16, but the "
                                 "attracting set has 8 modes\n")


@pytest.mark.parametrize("kind, edit", [
    # the 8-mode oracle: the set would be certified against the oracle's flow
    ("oracle_decay", {"system": {"type": "linear", "l": 1.0, "mode_count": 8}}),
    # the file's base l, where each row ran at its own
    ("sweep_l", {"grids": {"l_values": [1.0]}}),
], ids=["oracle_decay", "sweep_l"])
def test_verify_refuses_another_kinds_config(finished_run, tmp_path, kind, edit):
    _config, out_dir, _out = finished_run
    code, out, err = run_cli("verify", out_dir / "attractor", write_config(tmp_path, kind=kind,
                                                                           **edit))
    assert code == EXIT_CONFIG
    assert out == "" and err.startswith("error: config field 'kind' ") and err.count("\n") == 1


def test_the_certificate_checks_the_orbit_times_after_the_entering_time(finished_run):
    # the certificate reads the set's orbit grid: every orbit time from the
    # first at or after t_star + 1 + m_min, up to t_orbit itself
    _config, out_dir, _out = finished_run
    attractor = out_dir / "attractor"
    manifest = json.loads((attractor / "manifest.json").read_text())
    orbit_times = [row[1] for row in csv_rows(attractor / "orbits.csv") if row[0] == "0"]
    start = manifest["t_star"] + 1.0 + manifest["m_range"][0]
    checked = [row[0] for row in csv_rows(out_dir / "certificate.csv")]
    assert checked == [t for t in orbit_times if float(t) >= start - 1e-9]
    assert float(checked[0]) < start + manifest["orbit_sample_every"]
    assert float(checked[-1]) == manifest["t_orbit"]


@pytest.mark.parametrize("required,expected", [(1.0, EXIT_OK), (1.5, EXIT_THRESHOLD)])
def test_strict_verify_checks_the_certificate(finished_run, tmp_path, required, expected):
    # the run's file with another threshold replays the same fresh sample
    _config, out_dir, _out = finished_run
    config = write_config(tmp_path, thresholds={"satisfied_fraction": required})
    code, out, err = run_cli("verify", out_dir / "attractor", config, "--strict")
    assert code == expected, err
    assert printed(out)["satisfied_fraction"] == "1"
    if expected == EXIT_THRESHOLD:
        assert err == "threshold failed: satisfied_fraction = 1.0 < required 1.5\n"


@pytest.mark.parametrize("name", ["net.csv", "orbits.csv"])
def test_verify_header_only_csv_exits_1(finished_run, tmp_path, name):
    config, out_dir, _out = finished_run
    attractor = tmp_path / "attractor"
    shutil.copytree(out_dir / "attractor", attractor)
    table = attractor / name
    table.write_text(table.read_text().splitlines(keepends=True)[0])
    code, _out, err = run_cli("verify", attractor, config)
    assert code == EXIT_CONFIG
    assert err.startswith("error:") and name in err and err.count("\n") == 1


@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_fit_nonfinite_trace_value_exits_1(tmp_path, bad):
    values = ["1.0", "0.5", bad, "0.125", "0.0625"]
    rows = [f"{t},{v},semidist,0" for t, v in enumerate(values)]
    trace = tmp_path / "trace.csv"
    trace.write_text("\n".join(["t,value,quantity,m_clusters", *rows]) + "\n")
    code, out, err = run_cli("fit", trace)
    assert code == EXIT_CONFIG
    assert out == "" and err == "error: trace times and values must be finite\n"


def test_fit_negative_floor_exits_1(tmp_path):
    rows = [f"{t},{v},semidist,0" for t, v in enumerate(["1.0", "0.5", "0.0", "0.125", "0.0625"])]
    trace = tmp_path / "trace.csv"
    trace.write_text("\n".join(["t,value,quantity,m_clusters", *rows]) + "\n")
    code, out, err = run_cli("fit", trace, "--floor", "-1")
    assert code == EXIT_CONFIG
    assert out == "" and err == "error: fit floor must be nonnegative and finite, got -1.0\n"


def test_fit_trace_value_that_is_not_a_number_exits_1(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text("t,value,quantity,m_clusters\n0.0,1.0,semidist,0\n1.0,abc,semidist,0\n")
    code, out, err = run_cli("fit", trace)
    assert code == EXIT_CONFIG
    assert out == "" and err == (f"error: trace file {trace} column 'value': could not convert "
                                 "string to float: 'abc'\n")


# (column, bad cell in the second row, error); every other cell is good, and
# a trace file has one quantity and one cluster budget, read from every row
BAD_TRACE_CELLS = {
    "m_clusters_not_a_number": ("m_clusters", "x", "invalid literal for int() with base 10: 'x'"),
    "fractional_m_clusters": ("m_clusters", "1.5",
                              "invalid literal for int() with base 10: '1.5'"),
    "m_clusters_unlike_the_first_row": ("m_clusters", "7", "line 3 reads 7 where line 2 reads 0"),
    "unknown_quantity_after_the_first_row": (
        "quantity", "bogus", "line 3 reads 'bogus' where line 2 reads 'semidist'"),
    "quantity_unlike_the_first_row": (
        "quantity", "alpha_proxy", "line 3 reads 'alpha_proxy' where line 2 reads 'semidist'"),
}


@pytest.mark.parametrize("case", sorted(BAD_TRACE_CELLS))
def test_fit_bad_trace_cell_exits_1_naming_file_and_column(tmp_path, case):
    column, cell, reason = BAD_TRACE_CELLS[case]
    good = {"t": "1.0", "value": "0.5", "quantity": "semidist", "m_clusters": "0"}
    bad = {**good, column: cell}
    trace = tmp_path / "trace.csv"
    trace.write_text("t,value,quantity,m_clusters\n0.0,1.0,semidist,0\n"
                     + ",".join(bad.values()) + "\n")
    code, out, err = run_cli("fit", trace)
    assert code == EXIT_CONFIG
    assert out == "" and err == f"error: trace file {trace} column {column!r}: {reason}\n"


def test_fit_empty_trace_file_exits_1(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text("")
    code, out, err = run_cli("fit", trace)
    assert code == EXIT_CONFIG
    assert out == "" and err == f"error: empty trace file {trace}\n"


def test_fit_trace_without_a_time_column_exits_1(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text("time,value,quantity,m_clusters\n0.0,1.0,semidist,0\n")
    code, out, err = run_cli("fit", trace)
    assert code == EXIT_CONFIG
    assert out == "" and err == f"error: trace file {trace} lacks the columns ['t']\n"


@pytest.mark.parametrize("kind", ["wave_attractor", "sweep_l"])
def test_sweep_exits_0_for_each_value(tmp_path, kind):
    # a sweep_l file with no l_values takes its values from the command line
    code, out, err = run_cli("sweep", write_config(tmp_path, kind=kind), "--values", "1,2")
    assert code == EXIT_OK, err
    assert "l = 1:" in out and "l = 2:" in out and "FAILED" not in out


def test_sweep_negative_value_exits_1_naming_l_values(tmp_path):
    code, out, err = run_cli("sweep", write_config(tmp_path), "--values", "1,-1")
    assert code == EXIT_CONFIG
    assert out == "" and err.startswith("error: config field 'l_values' ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_sweep_unparsable_value_exits_1_naming_l_values(tmp_path):
    code, out, err = run_cli("sweep", write_config(tmp_path), "--values", "1,,2")
    assert code == EXIT_CONFIG
    assert out == "" and err == "error: config field 'l_values' is not numeric: ''\n"
    assert not (tmp_path / "out").exists()


def test_sweep_without_damping_values_exits_1(tmp_path):
    code, out, err = run_cli("sweep", write_config(tmp_path))
    assert code == EXIT_CONFIG
    assert out == "" and err.startswith("error: config field 'l_values' ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_run_of_a_sweep_without_l_values_exits_1(tmp_path):
    code, out, err = run_cli("run", write_config(tmp_path, kind="sweep_l"))
    assert code == EXIT_CONFIG
    assert out == "" and err.startswith("error: config field 'l_values' ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_unknown_config_key_exits_1(tmp_path):
    code, _out, err = run_cli("run", write_config(tmp_path, bogus={"x": 1}))
    assert code == EXIT_CONFIG
    assert err.startswith("error:") and "bogus" in err


# (misspelt key, config edit) per section: the run file has one rule for all
UNKNOWN_KEYS = {
    "ensemble": ("cuont", {"ensemble": {"cuont": 5}}),
    "grids": ("t_gird", {"grids": {"t_gird": [0.0, 1.0], "m_rang": [1, 2]}}),
    "pipeline": ("burnin", {"pipeline": {"burnin": 2.0}}),
    "system": ("modes", {"system": dict(SMALL_WAVE_SYSTEM, modes=3)}),
    # the linear oracle's damping is ``l``, as its ``as_dict`` writes it
    "linear_system": ("damping", {"kind": "oracle_decay", "system": {
        "type": "linear", "damping": 1.0, "mode_count": 4}}),
}


@pytest.mark.parametrize("section", sorted(UNKNOWN_KEYS))
def test_unknown_key_in_a_section_exits_1(tmp_path, section):
    key, edit = UNKNOWN_KEYS[section]
    code, out, err = run_cli("run", write_config(tmp_path, **edit))
    assert code == EXIT_CONFIG
    assert out == "" and err.startswith("error:") and f"'{key}'" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


LINEAR_SYSTEM = {"type": "linear", "l": 1.0, "mode_count": 4}

# (field named in the error, config edit) per number that cannot run
BAD_NUMBERS = {
    "t_grid_step": ("t_grid", {"grids": {"t_grid": {"start": 0, "stop": 12, "step": 0}}}),
    "zero_orbit_cadence": ("orbit_sample_every", {"pipeline": {"orbit_sample_every": 0}}),
    "infinite_burn_in": ("burn_in", {"pipeline": {"burn_in": float("inf")}}),
    "nan_t_orbit": ("t_orbit", {"pipeline": {"t_orbit": float("nan")}}),
    "nan_fit_floor": ("fit_floor", {"pipeline": {"fit_floor": float("nan")}}),
    "negative_seed": ("seed", {"seed": -1}),
    "negative_grid_count": ("t_grid", {"grids": {"t_grid": {"start": 0, "stop": 12,
                                                            "count": -1}}}),
    "t_grid_mapping_without_step": ("t_grid", {"grids": {"t_grid": {"start": 0, "stop": 1}}}),
    "m_range_of_three": ("m_range", {"grids": {"m_range": [1, 2, 3]}}),
    "zero_m_clusters": ("m_clusters", {"pipeline": {"m_clusters": 0}}),
    "m_range_from_zero": ("m_range", {"grids": {"m_range": [0, 4]}}),
    "m_range_reversed": ("m_range", {"grids": {"m_range": [3, 2]}}),
    "zero_low_modes": ("low_mode_threshold", {"kind": "criteria_suite",
                                              "pipeline": {"low_mode_threshold": 0}}),
    "too_many_low_modes": ("low_mode_threshold", {"kind": "criteria_suite",
                                                  "pipeline": {"low_mode_threshold": 100}}),
    "all_modes_low_in_the_tail_check": ("low_mode_threshold", {
        "kind": "criteria_suite", "pipeline": {"low_mode_threshold": 8}}),
    "quasi_low_modes_above_mode_count": ("low_mode_threshold", {
        "kind": "quasistability", "pipeline": {"low_mode_threshold": 9}}),
    "negative_n_periods": ("n_periods", {"kind": "quasistability",
                                         "pipeline": {"n_periods": -2}}),
    "negative_quasi_period": ("quasi_period", {"kind": "quasistability",
                                               "pipeline": {"quasi_period": -1}}),
    "infinite_quasi_period": ("quasi_period", {"kind": "quasistability",
                                               "pipeline": {"quasi_period": float("inf")}}),
    "negative_closeness": ("closeness", {"kind": "quasistability",
                                         "pipeline": {"closeness": -1}}),
    "zero_closeness": ("closeness", {"kind": "quasistability", "pipeline": {"closeness": 0}}),
    "nan_closeness": ("closeness", {"kind": "quasistability",
                                    "pipeline": {"closeness": float("nan")}}),
    # times a pass samples straight from a field, off the dt = 1/16 step grid
    "t_grid_off_the_step_grid": ("t_grid", {"grids": {"t_grid": {"start": 0, "stop": 12,
                                                                 "step": 0.1}}}),
    "orbit_cadence_off_the_step_grid": ("orbit_sample_every",
                                        {"pipeline": {"orbit_sample_every": 0.3}}),
    "t_orbit_off_the_step_grid": ("t_orbit", {"pipeline": {"t_orbit": 12.1}}),
    # on the step grid, but the orbit grid, which the certificate reads, must end at t_orbit
    "t_orbit_off_the_cadence": ("t_orbit", {"pipeline": {"t_orbit": 12.0625}}),
    "sweep_t_orbit_off_the_cadence": ("t_orbit", {
        "kind": "sweep_l", "grids": {"l_values": [1.0]}, "pipeline": {"t_orbit": 12.0625}}),
    "absorbing_horizon_off_the_step_grid": ("burn_in", {"pipeline": {"window": 2.01}}),
    "birth_times_off_the_step_grid": ("m_range", {
        "system": dict(SMALL_WAVE_SYSTEM, dt=0.06), "pipeline": {"orbit_sample_every": 0.24},
        "grids": {"t_grid": {"start": 0, "stop": 12, "step": 0.24}}}),
    "m_range_past_t_orbit": ("m_range", {"grids": {"m_range": [1, 13]}}),
    "proxy_time_off_the_step_grid": ("t_orbit", {"kind": "criteria_suite",
                                                 "pipeline": {"t_orbit": 12.03}}),
    "default_quasi_period_off_the_step_grid": ("quasi_period", {
        "kind": "quasistability", "system": dict(SMALL_WAVE_SYSTEM, l=0.7)}),
    "quasi_period_off_the_step_grid": ("quasi_period", {"kind": "quasistability",
                                                        "pipeline": {"quasi_period": 1.3}}),
    "sweep_cadence_off_the_step_grid": ("orbit_sample_every", {
        "kind": "sweep_l", "grids": {"l_values": [1.0]},
        "pipeline": {"orbit_sample_every": 0.3}}),
    # within the step grid's tolerance of step 0, or of the step at burn_in
    "orbit_cadence_below_one_step": ("orbit_sample_every",
                                     {"pipeline": {"orbit_sample_every": 1e-12}}),
    "window_below_one_step": ("window", {"pipeline": {"window": 1e-12}}),
    "negative_t_grid": ("t_grid", {"grids": {"t_grid": [-1.0, 0.0, 1.0]}}),
    "nan_t_grid": ("t_grid", {"grids": {"t_grid": [0.0, float("nan"), 1.0, 2.0]}}),
    "infinite_t_grid": ("t_grid", {"grids": {"t_grid": [0.0, 1.0, float("inf")]}}),
    "nan_t_grid_on_the_oracle": ("t_grid", {
        "kind": "oracle_decay", "system": LINEAR_SYSTEM,
        "grids": {"t_grid": [0.0, float("nan"), 1.0, 2.0, 3.0, 4.0]}}),
    "no_probe_points": ("ensemble.count", {"ensemble": {"count": 0, "radius": 4.0,
                                                        "fresh_count": 8}}),
    "no_fresh_points": ("ensemble.fresh_count", {"ensemble": {"count": 12, "radius": 4.0,
                                                              "fresh_count": 0}}),
    # a sample on which alpha is 0: one point, or a cluster per point
    "one_point_criteria_suite": ("ensemble.count", {
        "kind": "criteria_suite", "ensemble": {"count": 1, "radius": 4.0, "fresh_count": 8}}),
    "one_point_oracle_decay": ("ensemble.count", {
        "kind": "oracle_decay", "system": LINEAR_SYSTEM,
        "ensemble": {"count": 1, "radius": 4.0, "fresh_count": 8}}),
    "one_point_quasistability": ("ensemble.count", {
        "kind": "quasistability", "ensemble": {"count": 1, "radius": 4.0, "fresh_count": 8}}),
    "a_cluster_per_point_on_the_oracle": ("m_clusters", {
        "kind": "oracle_decay", "system": LINEAR_SYSTEM,
        "ensemble": {"count": 3, "radius": 4.0, "fresh_count": 8}, "pipeline": {"m_clusters": 3}}),
    "a_cluster_per_point_in_the_criteria_suite": ("m_clusters", {
        "kind": "criteria_suite", "ensemble": {"count": 4, "radius": 4.0, "fresh_count": 8},
        "pipeline": {"m_clusters": 5}}),
    "a_cluster_per_point_in_quasistability": ("m_clusters", {
        "kind": "quasistability",
        "system": {"type": "linear", "l": 1.0, "mode_eigenvalues": [1, 4, 9]},
        "ensemble": {"count": 3, "radius": 4.0, "fresh_count": 8},
        "pipeline": {"m_clusters": 3, "closeness": 1e6, "low_mode_threshold": 2}}),
    # a kind on an engine it does not run on
    "oracle_decay_on_the_wave_system": ("system", {"kind": "oracle_decay"}),
    "wave_attractor_on_the_linear_oracle": ("system", {"system": LINEAR_SYSTEM}),
    # each sweep row's damping is checked when the config is read
    "negative_l_value": ("l_values", {"kind": "sweep_l", "grids": {"l_values": [1.0, -1.0]}}),
    "nan_l_value": ("l_values", {"kind": "sweep_l", "grids": {"l_values": [1.0, float("nan")]}}),
    # the oracle takes its modes in any order, but a run's energy metric does not
    "unsorted_oracle_eigenvalues": ("system", {
        "kind": "oracle_decay",
        "system": {"type": "linear", "l": 1.0, "mode_eigenvalues": [4, 1, 9]}}),
    "sweep_on_the_linear_oracle": ("system", {"kind": "sweep_l", "grids": {"l_values": [1.0]},
                                              "system": LINEAR_SYSTEM}),
    "unknown_kind": ("kind", {"kind": "bogus"}),
    # YAML's true is 1 to Python, but no number to a run file
    "true_burn_in": ("burn_in", {"pipeline": {"burn_in": True}}),
    # grid ends and lengths that numpy cannot build a grid from
    "nan_t_grid_stop": ("t_grid", {"grids": {"t_grid": {"start": 0, "stop": float("nan"),
                                                        "step": 0.25}}}),
    "infinite_t_grid_stop": ("t_grid", {"grids": {"t_grid": {"start": 0, "stop": float("inf"),
                                                             "step": 0.25}}}),
    "nan_t_grid_start": ("t_grid", {"grids": {"t_grid": {"start": float("nan"), "stop": 1,
                                                         "count": 5}}}),
    "t_grid_count_past_memory": ("t_grid", {"grids": {"t_grid": {"start": 0, "stop": 1,
                                                                 "count": 10**12}}}),
    "t_grid_steps_past_memory": ("t_grid", {"grids": {"t_grid": {"start": 0, "stop": 1e15,
                                                                 "step": 1}}}),
    # finite times of 2**63 steps or more, past an integer step index
    "burn_in_past_the_step_index": ("burn_in", {"pipeline": {"burn_in": 1e300}}),
    "t_orbit_past_the_step_index": ("t_orbit", {"pipeline": {"t_orbit": 1e300}}),
    "quasi_period_past_the_step_index": ("quasi_period", {
        "kind": "quasistability", "pipeline": {"quasi_period": 1e300}}),
    "default_quasi_period_past_the_step_index": ("quasi_period", {
        "kind": "quasistability", "system": dict(SMALL_WAVE_SYSTEM, l=1e-300)}),
    # on the step grid, but past the cap of steps a pass may take
    "horizon_past_the_step_cap": ("burn_in", {"pipeline": {"burn_in": 400000.0}}),
    "t_orbit_past_the_step_cap": ("t_orbit", {"pipeline": {"t_orbit": 400000.0}}),
    "zero_ensemble_radius": ("ensemble.radius", {"ensemble": {"count": 12, "radius": 0.0,
                                                              "fresh_count": 8}}),
    # each field within the cap, but not the pass that samples it after the
    # absorb time (the proxy at 2 t_orbit) or after burn_in + window
    "proxy_pass_past_the_step_cap": ("t_orbit", {"pipeline": {"t_orbit": 156250}}),
    "criteria_proxy_past_the_step_cap": ("t_orbit", {"kind": "criteria_suite",
                                                     "pipeline": {"t_orbit": 156250}}),
    "quasistability_periods_past_the_step_cap": ("n_periods", {
        "kind": "quasistability", "pipeline": {"quasi_period": 1.5, "n_periods": 3400000}}),
    # an int past float range is read as YAML reads 1e400, and refused as inf
    "burn_in_past_float_range": ("burn_in", {"pipeline": {"burn_in": 10**400}}),
    "radius_past_float_range": ("ensemble.radius", {"ensemble": {"count": 12, "radius": 10**400,
                                                                 "fresh_count": 8}}),
    "m_range_past_float_range": ("m_range", {"grids": {"m_range": [1, 10**400]}}),
    # counts whose (count, 2N) draw numpy cannot size (PAST_MEMORY holds
    # counts it can size but not allocate)
    "count_past_float_range": ("ensemble.count", {"ensemble": {"count": 10**400, "radius": 4.0,
                                                               "fresh_count": 8}}),
    "fresh_count_past_float_range": ("ensemble.fresh_count", {
        "ensemble": {"count": 12, "radius": 4.0, "fresh_count": 10**400}}),
    "count_past_the_index_range": ("ensemble.count", {"ensemble": {"count": 10**20, "radius": 4.0,
                                                                   "fresh_count": 8}}),
}


@pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
def test_bad_number_exits_1_naming_its_field(tmp_path, case):
    field, edit = BAD_NUMBERS[case]
    code, _out, err = run_cli("run", write_config(tmp_path, **edit))
    assert code == EXIT_CONFIG
    assert err.startswith(f"error: config field '{field}' ") and err.count("\n") == 1
    # rejected when the config is read: no pass has run, no trace is written
    assert not (tmp_path / "out").exists()


# (key of the system section named in the error, system section) per system
# that cannot be built; a linear system runs oracle_decay, a wave system
# wave_attractor
BAD_SYSTEMS = {
    "oracle_without_modes": ("mode_count", {"type": "linear", "l": 1.0}),
    "oracle_with_no_modes": ("mode_count", {"type": "linear", "l": 1.0, "mode_count": 0}),
    "oracle_without_damping": ("l", {"type": "linear", "mode_count": 3}),
    "undamped_oracle": ("l", {"type": "linear", "l": 0.0, "mode_count": 3}),
    "oracle_with_infinite_damping": ("l", {"type": "linear", "l": float("inf"), "mode_count": 3}),
    "negative_oracle_eigenvalue": ("mode_eigenvalues", {"type": "linear", "l": 1.0,
                                                        "mode_eigenvalues": [1, -4]}),
    "no_oracle_eigenvalues": ("mode_eigenvalues", {"type": "linear", "l": 1.0,
                                                   "mode_eigenvalues": []}),
    "unknown_system_type": ("type", {"type": "heat", "l": 1.0, "mode_count": 3}),
    "wave_without_modes": ("mode_count", {
        "type": "wave", **{k: v for k, v in SMALL_WAVE_SYSTEM.items() if k != "mode_count"}}),
    # checked before the one-entry kernel and forcing are padded to mode_count
    "wave_with_no_modes": ("mode_count", dict(SMALL_WAVE_SYSTEM, mode_count=0)),
    "negative_k": ("k", dict(SMALL_WAVE_SYSTEM, k=-1)),
    "negative_wave_damping": ("l", dict(SMALL_WAVE_SYSTEM, l=-1)),
    "zero_damping_exponent": ("p", dict(SMALL_WAVE_SYSTEM, p=0)),
    "dt_above_the_stability_cap": ("dt", dict(SMALL_WAVE_SYSTEM, dt=0.5)),
    "too_few_collocation_points": ("collocation_points",
                                   dict(SMALL_WAVE_SYSTEM, collocation_points=10)),
    "even_degree_f": ("f_coeffs", dict(SMALL_WAVE_SYSTEM, f_coeffs=[0.0, 0.0, 1.0])),
    # refused when read, not met as a blow-up of the first step
    "infinite_f_coefficient": ("f_coeffs", dict(SMALL_WAVE_SYSTEM,
                                                f_coeffs=[0.0, -1.0, 0.0, float("inf")])),
    "nan_f_coefficient": ("f_coeffs", dict(SMALL_WAVE_SYSTEM,
                                           f_coeffs=[float("nan"), -1.0, 0.0, 1.0])),
    "infinite_kernel_weight": ("kernel.weight", dict(
        SMALL_WAVE_SYSTEM, kernel=[{"weight": float("inf"), "coeffs": [1.0]}])),
    "forcing_past_the_modes": ("h_coeffs", dict(SMALL_WAVE_SYSTEM, h_coeffs=[1.0] * 9)),
    # a scalar where a list belongs: one coefficient, as for h_coeffs
    "scalar_kernel": ("kernel", dict(SMALL_WAVE_SYSTEM, kernel=5)),
    "scalar_f": ("f_coeffs", dict(SMALL_WAVE_SYSTEM, f_coeffs=5)),
    # only null means no coefficients: a false or a 0 is one entry, refused
    "false_f": ("f_coeffs", dict(SMALL_WAVE_SYSTEM, f_coeffs=False)),
    "false_kernel": ("kernel", dict(SMALL_WAVE_SYSTEM, kernel=False)),
    "zero_kernel": ("kernel", dict(SMALL_WAVE_SYSTEM, kernel=0)),
    "true_damping": ("l", dict(SMALL_WAVE_SYSTEM, l=True)),
    # a true among the numbers of a list, read entry by entry
    "true_forcing_coefficient": ("h_coeffs", dict(SMALL_WAVE_SYSTEM, h_coeffs=[1.0, True])),
    "true_f_coefficient": ("f_coeffs", dict(SMALL_WAVE_SYSTEM, f_coeffs=[0, True, 0, 1])),
    "true_kernel_coefficient": ("kernel.coeffs", dict(
        SMALL_WAVE_SYSTEM, kernel=[{"weight": 0.1, "coeffs": [1.0, True]}])),
    "true_oracle_eigenvalue": ("mode_eigenvalues", {"type": "linear", "l": 1.0,
                                                    "mode_eigenvalues": [1.0, True]}),
    # an int past float range, read as inf
    "damping_past_float_range": ("l", dict(SMALL_WAVE_SYSTEM, l=10**400)),
    "dt_past_float_range": ("dt", dict(SMALL_WAVE_SYSTEM, dt=10**400)),
    # more modes than a synthesis table numpy can size, refused before any allocation
    "modes_past_float_range": ("mode_count", dict(SMALL_WAVE_SYSTEM, mode_count=10**400)),
    "modes_past_the_table_bound": ("mode_count", dict(SMALL_WAVE_SYSTEM, mode_count=10**12)),
}


@pytest.mark.parametrize("case", sorted(BAD_SYSTEMS))
def test_bad_system_exits_1_naming_its_key(tmp_path, case):
    key, system = BAD_SYSTEMS[case]
    kind = "oracle_decay" if system.get("type") == "linear" else "wave_attractor"
    code, out, err = run_cli("run", write_config(tmp_path, system=system, kind=kind))
    assert code == EXIT_CONFIG
    assert out == "" and err.startswith(f"error: config field 'system.{key}' ")
    # one line, and a missing key is reported missing, not as a number None
    assert err.count("\n") == 1 and "None" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", ["f_coeffs", "kernel"])
def test_null_coefficient_field_runs_as_no_coefficients(tmp_path, field):
    # criteria_suite needs no absorbing ball, which the system without f lacks
    system = dict(SMALL_WAVE_SYSTEM, **{field: None})
    code, _out, err = run_cli("run", write_config(tmp_path, system=system, kind="criteria_suite"))
    assert (code, err) == (EXIT_OK, "")
    with open(tmp_path / "out" / "manifest.json") as fh:
        assert json.load(fh)["config"]["system"][field] == []


# sizes no machine can allocate (10**12 rows or collocation points), which
# fail only once the run has started
PAST_MEMORY = {
    "count": {"ensemble": {"count": 10**12, "radius": 4.0, "fresh_count": 8}},
    "fresh_count": {"ensemble": {"count": 12, "radius": 4.0, "fresh_count": 10**12}},
    "collocation_points": {"system": dict(SMALL_WAVE_SYSTEM, collocation_points=10**12)},
}


@pytest.mark.parametrize("case", sorted(PAST_MEMORY))
def test_size_past_memory_exits_1_on_one_line(tmp_path, case):
    code, _out, err = run_cli("run", write_config(tmp_path, **PAST_MEMORY[case]))
    assert code == EXIT_CONFIG
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    assert "Traceback" not in err and err.strip() != "error: out of memory:"


def test_run_file_that_is_not_a_mapping_exits_1(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text("- kind\n- seed\n")
    code, out, err = run_cli("run", config)
    assert code == EXIT_CONFIG
    assert out == "" and err == "error: experiment config must be a mapping\n"


def test_run_file_without_a_kind_exits_1(tmp_path):
    config = write_config(tmp_path)
    raw = yaml.safe_load(config.read_text())
    del raw["kind"]
    config.write_text(yaml.safe_dump(raw))
    code, out, err = run_cli("run", config)
    assert code == EXIT_CONFIG
    assert out == "" and err == "error: config needs a 'kind' entry\n"
    assert not (tmp_path / "out").exists()


def test_one_point_wave_attractor_runs_on_the_degenerate_trace_fallback(tmp_path):
    # the ensemble checks above leave wave_attractor alone: its alpha trace is
    # 0 on one point, and its law falls back to the predicted rate
    ensemble = {"count": 1, "radius": 4.0, "fresh_count": 8}
    code, out, err = run_cli("run", write_config(tmp_path, ensemble=ensemble))
    assert code == EXIT_OK, err
    assert printed(out)["degenerate_trace"] == "1"


def test_missing_attractor_directory_exits_1(finished_run, tmp_path):
    config, _out_dir, _out = finished_run
    code, _out, err = run_cli("verify", tmp_path / "nowhere", config)
    assert code == EXIT_CONFIG
    assert err.startswith("error:")


def test_non_dissipative_system_exits_1(tmp_path):
    system = {"mode_count": 4, "l": 0.0, "kernel": [{"weight": 0.5, "coeffs": [1.0]}],
              "dt": 0.125}
    code, _out, err = run_cli("run", write_config(tmp_path, system=system))
    assert code == EXIT_CONFIG
    assert err.startswith("error:") and "Traceback" not in err


def test_undamped_quasistability_needs_a_period(tmp_path):
    system = dict(SMALL_WAVE_SYSTEM, l=0.0)
    config = write_config(tmp_path, system=system, kind="quasistability")
    code, _out, err = run_cli("run", config)
    assert code == EXIT_CONFIG
    assert err.startswith("error:") and "quasi_period" in err


def test_blow_up_exits_2(tmp_path):
    system = {"mode_count": 1, "kernel": [{"weight": 200.0, "coeffs": [1.0]}], "dt": 0.5}
    config = write_config(tmp_path, system=system,
                          pipeline={"burn_in": 44.0, "orbit_sample_every": 0.5},
                          grids={"t_grid": {"start": 0, "stop": 12, "step": 0.5}})
    code, _out, err = run_cli("run", config)
    assert code == EXIT_BLOWUP
    assert err.startswith("numerical blow-up")


def test_unmet_threshold_exits_3_under_strict(tmp_path):
    config = write_config(tmp_path, thresholds={"satisfied_fraction": 1.5})
    code, _out, err = run_cli("run", config, "--strict")
    assert code == EXIT_THRESHOLD
    assert "threshold failed: satisfied_fraction" in err


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("required,expected", [(1.0, EXIT_OK), (1.5, EXIT_THRESHOLD)])
def test_strict_sweep_checks_the_worst_row(tmp_path, command, required, expected):
    # both commands run the sweep_l pipeline; every row here is fully satisfied
    config = write_config(tmp_path, kind="sweep_l", grids={"l_values": [1.0, 2.0]},
                          thresholds={"satisfied_fraction": required})
    code, out, err = run_cli(command, config, "--strict")
    assert code == expected, err
    assert (tmp_path / "out" / "manifest.json").exists()
    if expected == EXIT_THRESHOLD:
        assert err == "threshold failed: satisfied_fraction = 1.0 < required 1.5\n"


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_failed_sweep_row_exits_1(tmp_path, command):
    # both commands finish the same way: the headline, then one line per row
    system = {"mode_count": 1, "kernel": [{"weight": 200.0, "coeffs": [1.0]}], "dt": 0.5}
    grids = {"l_values": [0.0], "t_grid": {"start": 0, "stop": 12, "step": 0.5}}
    config = write_config(tmp_path, system=system, kind="sweep_l", grids=grids,
                          pipeline={"burn_in": 44.0, "orbit_sample_every": 0.5})
    code, out, _err = run_cli(command, config)
    assert code == EXIT_CONFIG
    assert "rows_ok = 0" in out and "l = 0: FAILED" in out


def test_pooled_sweep_records_a_failed_row_as_a_serial_run_does(tmp_path, monkeypatch):
    # the four-mode system is not dissipative at l = 0 and is at l = 1; two
    # CPUs run the rows in two worker processes, one CPU runs them here
    system = {"mode_count": 4, "kernel": [{"weight": 0.5, "coeffs": [1.0]}], "dt": 0.125}
    results = {}
    for cpus in (1, 2):
        monkeypatch.setattr(os, "cpu_count", lambda n=cpus: n)
        directory = tmp_path / f"cpus_{cpus}"
        directory.mkdir()
        config = write_config(directory, system=system, kind="sweep_l",
                              grids={"l_values": [0.0, 1.0]})
        code, out, err = run_cli("run", config)
        assert code == EXIT_CONFIG, err
        lines = [line for line in out.splitlines() if not line.startswith("wrote ")]
        results[cpus] = lines, (directory / "out" / "sweep.csv").read_text()
    assert results[2] == results[1]
    lines, _table = results[2]
    assert "rows_ok = 1" in lines
    assert any(line.startswith("l = 0: FAILED (windowed max norm grew") for line in lines)
    assert any(line.startswith("l = 1: beta_hat = ") for line in lines)


@pytest.mark.parametrize("key", ["t_grid", "m_range", "l_values"])
def test_scalar_grid_entry_exits_1(tmp_path, key):
    code, _out, err = run_cli("run", write_config(tmp_path, grids={key: 5}))
    assert code == EXIT_CONFIG
    assert err == f"error: config field '{key}' must be a list, got 5\n"


INTEGER_FIELDS = {
    "seed": lambda v: {"seed": v},
    "ensemble.count": lambda v: {"ensemble": {"count": v, "radius": 4.0, "fresh_count": 8}},
    "ensemble.fresh_count": lambda v: {"ensemble": {"count": 12, "radius": 4.0,
                                                    "fresh_count": v}},
    "t_grid": lambda v: {"grids": {"t_grid": {"start": 0.0, "stop": 12.0, "count": v}}},
    "m_range": lambda v: {"grids": {"m_range": [v, 4]}},
}


@pytest.mark.parametrize("value", [None, [2], 2.5, True])
@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_integer_field_that_is_not_an_integer_exits_1(tmp_path, field, value):
    code, _out, err = run_cli("run", write_config(tmp_path, **INTEGER_FIELDS[field](value)))
    assert code == EXIT_CONFIG
    assert err.startswith(f"error: config field '{field}' is not ") and err.count("\n") == 1


@pytest.mark.parametrize("value", [None, "", [1]])
def test_output_dir_that_is_not_a_nonempty_string_exits_1(tmp_path, monkeypatch, value):
    # a null output_dir would otherwise run into a directory named None
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli("run", write_config(tmp_path, output_dir=value))
    assert code == EXIT_CONFIG
    assert out == "" and err == (
        f"error: config field 'output_dir' must be a nonempty string, got {value!r}\n")
    assert os.listdir(tmp_path) == ["config.yaml"]


def test_shipped_wave_config_absorbs_and_meets_its_threshold(tmp_path):
    with open(os.path.join(CONFIG_DIR, "wave_attractor.yaml")) as fh:
        raw = yaml.safe_load(fh)
    raw["output_dir"] = str(tmp_path / "out")
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(raw))
    code, out, err = run_cli("run", config, "--strict")
    assert code == EXIT_OK, err
    headline = printed(out)
    assert float(headline["absorb_time"]) > 0.0
    assert float(headline["satisfied_fraction"]) >= raw["thresholds"]["satisfied_fraction"]


@pytest.mark.parametrize("value", [".inf", "-.inf", ".nan"])
def test_shipped_wave_config_with_a_non_finite_f_coefficient_exits_1(tmp_path, value):
    # refused when read, naming the field, not run into a blow-up (exit 2)
    with open(os.path.join(CONFIG_DIR, "wave_attractor.yaml")) as fh:
        text = fh.read()
    shipped = "f_coeffs: [0.0, -1.0, 0.0, 1.0]"
    assert shipped in text
    text = text.replace(shipped, f"f_coeffs: [0.0, -1.0, 0.0, {value}]")
    config = tmp_path / "config.yaml"
    config.write_text(text.replace("output_dir: runs/wave_attractor",
                                   f"output_dir: {tmp_path / 'out'}"))
    code, out, err = run_cli("run", config)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("error: config field 'system.f_coeffs' must be finite")
    assert err.count("\n") == 1 and not (tmp_path / "out").exists()


@pytest.mark.parametrize("section", ["ensemble", "grids", "pipeline", "thresholds"])
def test_config_section_that_is_not_a_mapping_exits_1(tmp_path, section):
    code, _out, err = run_cli("run", write_config(tmp_path, **{section: [1, 2]}))
    assert code == EXIT_CONFIG
    assert err == f"error: config section '{section}' must be a mapping\n"


def test_oracle_run_backward_in_time_exits_1(tmp_path):
    raw = {
        "kind": "oracle_decay",
        "output_dir": str(tmp_path / "out"),
        "system": {"type": "linear", "l": 1.0, "mode_count": 4},
        "grids": {"t_grid": {"start": -2.0, "stop": 4.0, "step": 0.5}},
    }
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(raw))
    code, _out, err = run_cli("run", config)
    assert code == EXIT_CONFIG
    assert err.startswith("error:") and "nonnegative" in err
