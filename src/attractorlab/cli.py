"""Batch front door: run experiments, sweep damping values, fit traces and
verify persisted attracting sets from the command line.

``sweep`` is ``run`` on the config with kind ``sweep_l`` and the given
damping values, or the file's ``l_values``, which are checked when the file
is read: it writes the same outputs, manifest included, prints the same
lines and exits by the same rules.  The sweep's rows run as one stacked
batch in one forked child; the outputs are the same as from a serial run,
and a failed row is still recorded and printed.

Exit codes: 0 success; 1 config error (an unknown key in any section of the
run file is one), missing input file, a system that is not dissipative (no
absorbing ball found), a failed sweep row or an array too large for memory
(``error: out of memory: ...``); 2 numerical blow-up; 3 unsatisfied
acceptance thresholds under --strict.  Every failure prints one line to
stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import math
import sys

import yaml

from .attracting import load_attracting_set, verify_attraction
from .covering import DecayTrace
from .criteria import fit_exponential_rate
from .dynamics import BlowUpError, NonDissipativeError, _num
from .experiments import SWEEP_MEASURED, draw_samples, load_experiment_config, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BLOWUP = 2
EXIT_THRESHOLD = 3


def _check_thresholds(headline: dict, thresholds: dict) -> int:
    """Thresholds are minima on headline numbers; missing or lower fails."""
    failures = []
    for key, minimum in thresholds.items():
        value = headline.get(key)
        if value is None or not math.isfinite(value) or value < minimum:
            failures.append(f"{key} = {value} < required {minimum}")
    if failures:
        for line in failures:
            print(f"threshold failed: {line}", file=sys.stderr)
        return EXIT_THRESHOLD
    return EXIT_OK


def _print_headline(headline: dict):
    for key in sorted(headline):
        print(f"{key} = {headline[key]:.6g}")


def _run_and_report(cfg, strict: bool) -> int:
    """Run a config, print its headline and sweep rows, return the exit code."""
    manifest = run_experiment(cfg)
    _print_headline(manifest.headline)
    print(f"wrote {len(manifest.files)} files to {cfg.output_dir}")
    rows = manifest.table if cfg.kind == "sweep_l" else []
    for row in rows:
        if row["status"] == "ok":
            print(f"l = {row['l']:g}: " + ", ".join(f"{k} = {row[k]:.6g}" for k in SWEEP_MEASURED))
        else:
            print(f"l = {row['l']:g}: FAILED ({row['error']})")
    if any(row["status"] != "ok" for row in rows):
        return EXIT_CONFIG
    if strict:
        return _check_thresholds(manifest.headline, cfg.thresholds)
    return EXIT_OK


def _cmd_run(args) -> int:
    return _run_and_report(load_experiment_config(args.config), args.strict)


def _cmd_sweep(args) -> int:
    given = {"kind": "sweep_l"}
    if args.values:
        given["l_values"] = tuple(_num(v, "l_values") for v in args.values.split(","))
    return _run_and_report(load_experiment_config(args.config, **given), args.strict)


def _cmd_fit(args) -> int:
    trace = DecayTrace.from_csv(args.trace)
    fit = fit_exponential_rate(trace, args.floor)
    print(f"amplitude = {fit.amplitude:.10g}")
    print(f"rate = {fit.rate:.10g}")
    print(f"r_squared = {fit.r_squared:.10g}")
    print(f"window = [{fit.window[0]:g}, {fit.window[1]:g}]")
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = load_experiment_config(args.config)
    # an oracle's flow, or a sweep's base l, is not the flow a set was built under
    if cfg.kind != "wave_attractor":
        raise ValueError(f"config field 'kind' must be wave_attractor for verify, got {cfg.kind!r}")
    aset = load_attracting_set(args.attractor_dir)
    modes = aset.net_states.shape[1] / 2
    if cfg.system.mode_count != modes:
        raise ValueError(f"config field 'system.mode_count' is {cfg.system.mode_count}, but the "
                         f"attracting set has {modes:g} modes")
    t_star = aset.t_star
    if t_star is None:
        raise ValueError("attractor manifest field 't_star' is missing")
    _probe, fresh = draw_samples(cfg)
    evolved = cfg.system.sample(fresh, aset.orbit_times)
    certificate = verify_attraction(aset, evolved, t_star, cfg.metric)
    print(f"t_star = {t_star:.6g}")
    print(f"checked_times = {len(certificate.times)}")
    print(f"satisfied_fraction = {certificate.satisfied_fraction:.6g}")
    if args.strict:
        return _check_thresholds(
            {"satisfied_fraction": certificate.satisfied_fraction}, cfg.thresholds
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attractorlab",
        description="attracting-set experiments for damped wave dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--strict", action="store_true",
                       help="exit 3 if headline numbers miss config thresholds")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run the damping sweep")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--values", help="comma-separated damping values")
    p_sweep.add_argument("--strict", action="store_true")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fit = sub.add_parser("fit", help="fit an exponential rate to a trace CSV")
    p_fit.add_argument("trace")
    p_fit.add_argument("--floor", type=float, default=1e-9,
                       help="ignore trace values at or below this floor")
    p_fit.set_defaults(func=_cmd_fit)

    p_verify = sub.add_parser("verify", help="verify a persisted attracting set")
    p_verify.add_argument("attractor_dir")
    p_verify.add_argument("config")
    p_verify.add_argument("--strict", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BlowUpError as exc:
        print(f"numerical blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except (ValueError, KeyError, OSError, yaml.YAMLError, NonDissipativeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
