"""Output check for the attractorlab benchmark: the byte-identity oracle.

A run's output files are hashed directly, not read from the manifest's
``files`` inventory.  Only the manifests that carry timing are left out: the
run's own top-level ``manifest.json`` and, under ``sweep_l``, each
``l_*/manifest.json``.  ``attractor/manifest.json`` holds no timing and is
checked.  Reference inventories live in ``reference/<workload>.json``, keyed
by ensemble seed.

    python3 bench/check.py             # untimed check of every recorded seed
    python3 bench/check.py --record    # rewrite the references (numerics changed)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _timing_manifest(rel: str) -> bool:
    parts = rel.split("/")
    return parts == ["manifest.json"] or (
        len(parts) == 2 and parts[0].startswith("l_") and parts[1] == "manifest.json"
    )


def output_files(output_dir) -> dict:
    """Relative path to full path of every output file except the
    timing-bearing manifests."""
    files = {}
    for root, _dirs, names in os.walk(output_dir):
        for name in names:
            full = os.path.join(root, name)
            rel = os.path.relpath(full, output_dir).replace(os.sep, "/")
            if not _timing_manifest(rel):
                files[rel] = full
    return dict(sorted(files.items()))


def output_inventory(output_dir) -> dict:
    """sha256 of every output file except the timing-bearing manifests."""
    return {rel: _sha256(full) for rel, full in output_files(output_dir).items()}


def load_reference(workload: str) -> dict:
    """Recorded inventories of one workload, keyed by ensemble seed."""
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    with open(path) as fh:
        return {int(seed): inv for seed, inv in json.load(fh).items()}


def run_fault(manifest, output_dir, expected) -> str | None:
    """Why a finished run counts as failed, or None when it is correct.

    ``manifest`` is the ``RunManifest`` returned by ``run_experiment``;
    ``expected`` is the reference inventory, or None when none is recorded.
    """
    if manifest.status != "ok":
        return f"run status {manifest.status}: {manifest.error}"
    bad_rows = [row for row in manifest.table if row.get("status", "ok") != "ok"]
    if bad_rows:
        return f"{len(bad_rows)} sweep row(s) failed: {bad_rows[0].get('error', '')}"
    if expected is None:
        return "no reference inventory recorded for this seed"
    got = output_inventory(output_dir)
    if got != expected:
        differing = sorted(k for k in set(got) | set(expected) if got.get(k) != expected.get(k))
        return f"{len(differing)} output file(s) differ from the reference, e.g. {differing[0]}"
    return None


def scratch_dir(tag: str) -> str:
    """A per-process output directory inside the checkout."""
    return os.path.join(ROOT, ".bench_run", f"{tag}-{os.getpid()}")


def remove_scratch(path):
    """Delete a scratch directory, and its parent once that is empty."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(path))
    except OSError:
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference/<workload>.json from fresh runs")
    parser.add_argument("--workload", action="append",
                        help="restrict to this workload (repeatable)")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    from attractorlab.experiments import run_experiment

    failures = 0
    for name in args.workload or workloads.WORKLOADS:
        reference = {} if args.record else load_reference(name)
        recorded = {}
        for seed in workloads.REFERENCE_SEEDS:
            out = scratch_dir(f"check-{name}")
            shutil.rmtree(out, ignore_errors=True)
            try:
                manifest = run_experiment(workloads.build(name, seed, out))
            except Exception as exc:  # noqa: BLE001 - a raising run is a failed check
                fault = f"{type(exc).__name__}: {exc}"
            else:
                expected = output_inventory(out) if args.record else reference.get(seed)
                fault = run_fault(manifest, out, expected)
                if args.record and fault is None:
                    recorded[str(seed)] = expected
            remove_scratch(out)
            failures += fault is not None
            print(f"{name} seed {seed}: {fault or 'ok'}", flush=True)
        if args.record:
            with open(os.path.join(REFERENCE_DIR, f"{name}.json"), "w") as fh:
                json.dump(recorded, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
