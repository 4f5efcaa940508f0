"""attractorlab benchmark: one workload, one run, every metric with its unit.

    python3 bench/run.py --workload wave_attractor --seed 7 --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics (``run_s``, ``setup_s``, ``peak_rss_mb``) with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer split.
Human-readable lines (machine record, each metric) come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "attractorlab", "__init__.py")):
        print(f"no attractorlab sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import check
    import measure
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}, expected one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    out = check.scratch_dir(args.workload)
    try:
        if args.trace:
            metrics, faults = measure.per_layer(args.workload, args.seed, args.seconds, out)
            units, host = measure.LAYER_UNITS, {}
        else:
            metrics, host, faults = measure.end_to_end(
                args.workload, args.seed, args.seconds, out)
            units = measure.END_TO_END_UNITS
    finally:
        check.remove_scratch(out)

    failed = [f for f in faults if f is not None]
    print("machine " + json.dumps(measure.machine_record(), sort_keys=True))
    for fault in sorted(set(failed)):
        print(f"failure: {fault}")
    print(f"calls attempted = {len(faults)}, failed = {len(failed)}, "
          f"error_rate = {len(failed) / len(faults):.4g} ratio")
    for name, value in host.items():
        print(f"host: {name} = {value:.6g} s")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": not failed,
        "attempted": len(faults),
        "failed": len(failed),
        "metrics": {
            name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
