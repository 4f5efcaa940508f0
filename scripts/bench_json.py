"""Write BENCH_e2e.json and BENCH_layers.json from the repository's benchmark.

    python3 scripts/bench_json.py [--seed 7] [--seconds 15]

Runs ``bench/run.py`` once per workload named in ``BENCHMARK.json``: with
``--trace 0`` for the end-to-end metrics (``BENCH_e2e.json``) and with
``--trace 1`` for the per-layer split (``BENCH_layers.json``).  Each file
holds the machine record that the runs print (cores, BLAS, numpy version,
commit) and, per workload, the JSON result line of its run.  ``--seconds``
defaults to the benchmark's ``run_seconds``.  Run from anywhere; the files
are written at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the tracer sees only this process: forked children return results, not spans
LAYER_NOTE = (
    "Per-layer metrics show the parent process's view only. Work done in forked "
    "children (the wave run's fresh pass and net stage, the sweep's stacked rows, "
    "the later half of oracle_decay's samples) is not traced, so counts and times "
    "such as dynamics.rk4_steps undercount it. This holds until every process "
    "returns its stage records (ROADMAP item 2)."
)


def run_bench(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """(machine record, result line) of one ``bench/run.py`` run."""
    command = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    machine = next(line for line in lines if line.startswith("machine "))
    return json.loads(machine.split(" ", 1)[1]), json.loads(lines[-1])


def write_bench_file(name: str, workloads, seed: int, seconds: float, trace: int,
                     note=None) -> None:
    """Run each of ``workloads`` at ``trace`` and write ``name`` at the root."""
    machines, runs = [], {}
    for workload in workloads:
        machine, runs[workload] = run_bench(workload, seed, seconds, trace)
        machines.append(machine)
    if any(m != machines[0] for m in machines):
        raise RuntimeError("the runs printed different machine records")
    record = {
        "command": f"python3 bench/run.py --workload <name> --seed {seed} "
                   f"--seconds {seconds:g} --trace {trace}",
        "machine": machines[0],
        **({"note": note} if note else {}),
        "runs": runs,
    }
    with open(os.path.join(ROOT, name), "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    workloads = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]))
    args = parser.parse_args(argv)
    write_bench_file("BENCH_e2e.json", workloads, args.seed, args.seconds, 0)
    write_bench_file("BENCH_layers.json", workloads, args.seed, args.seconds, 1, LAYER_NOTE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
