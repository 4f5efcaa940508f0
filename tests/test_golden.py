"""Golden outputs: each pipeline kind reproduces recorded sha256 digests.

The digests pin every output file except the manifests that carry
``duration_s`` (the run's own ``manifest.json`` and each sweep row's).  A
change that alters numerics on purpose must re-record them and say so.  The
same cases check that no pipeline integrates an ensemble twice.
"""

import hashlib
import os
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from attractorlab import covering, criteria, dynamics, experiments
from attractorlab.dynamics import wave_config_from_dict
from attractorlab.experiments import (
    ExperimentConfig,
    draw_samples,
    load_experiment_config,
    run_experiment,
)

from conftest import CONFIG_DIR, SMALL_WAVE_SYSTEM, load_bench


def output_hashes(output_dir) -> dict:
    """sha256 per output file, leaving out the timing-bearing manifests."""
    out = {}
    for root, _dirs, names in os.walk(output_dir):
        for name in names:
            full = os.path.join(root, name)
            rel = os.path.relpath(full, output_dir).replace(os.sep, "/")
            parts = rel.split("/")
            if parts[-1] == "manifest.json" and (
                len(parts) == 1 or (len(parts) == 2 and parts[0].startswith("l_"))
            ):
                continue
            with open(full, "rb") as fh:
                out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def shipped_oracle(out, **overrides):
    cfg = load_experiment_config(os.path.join(CONFIG_DIR, "oracle_decay.yaml"))
    return replace(cfg, output_dir=str(out), **overrides)


def small_wave(out, kind, **overrides):
    fields = dict(seed=7, ensemble_count=12, ensemble_radius=4.0, fresh_count=8)
    return ExperimentConfig(
        kind=kind, system=wave_config_from_dict(SMALL_WAVE_SYSTEM), output_dir=str(out),
        **{**fields, **overrides},
    )


CASES = {
    "oracle_decay": lambda out: shipped_oracle(out),
    "quasistability_oracle": lambda out: shipped_oracle(out, kind="quasistability"),
    "quasistability_wave": lambda out: small_wave(out, "quasistability"),
    "wave_attractor": lambda out: small_wave(out, "wave_attractor"),
    # inside the absorbing ball from the start: absorb_time = t_star = 0
    "wave_attractor_unabsorbed": lambda out: small_wave(
        out, "wave_attractor", ensemble_radius=1.0
    ),
    "criteria_suite": lambda out: small_wave(out, "criteria_suite"),
    "sweep_l": lambda out: small_wave(out, "sweep_l", l_values=(1.0, 2.0)),
}

GOLDEN = {
    "criteria_suite": {
        "contractive_check.csv":
            "599c9a03ccc2d7f3fd8d23ff4446898181c4dfd4390b219fe41c395d42b02273",
        "hausdorff_criterion.csv":
            "374143dffbd5e4c52db71d3898555b671f2be4a57a899dfdeb4de71315ea7ad3",
        "tail_trace.csv":
            "d90eda2ffce6ac2f2cf80151bfe586e015f134d4aa25b23b542db69800ccb968",
        "trace_alpha.csv":
            "04aadd0ab6d62f75e73e8fdbc3a8bbec2a4be853031379344caa30e2be0ff98a",
    },
    "oracle_decay": {
        "trace_alpha.csv":
            "eb3744ada7e9fda3345fc48c9e189935a4c58a0a24014cf4a09752982e4a57a3",
        "trace_semidist.csv":
            "851a75ef19dc4ab1f0eb38d7d0c808cecb69833f5b84b4ddfeadf62d0bcb0cbb",
    },
    "quasistability_oracle": {
        "quasistability.csv":
            "caab2f6c5e148504de30f0717155c71f3a206577f4fbf993622a88158ef4e90c",
    },
    "quasistability_wave": {
        "quasistability.csv":
            "85458504583bf5db191a9e82a9274a785792f9b791a87917df5a5c8634db46f6",
    },
    "sweep_l": {
        "l_0_1/attractor/manifest.json":
            "ae9422c6d9ea85731575e2415733ac7b154faae2ea949f0c25ab3895e0f7eb33",
        "l_0_1/attractor/net.csv":
            "c85fa7e222438d500112c0f75ad9445aff50272ca4b17f657de9f9ae8cfa40d8",
        "l_0_1/attractor/orbits.csv":
            "3a4458115a26f9d044b0cb61c26a93539ec760224b8ccae6407e84a99c6ce73c",
        "l_0_1/attractor/proxy.csv":
            "66d0f7c14b015d571f56528f9b1f379aab84d362c383278047875f3d18378418",
        "l_0_1/certificate.csv":
            "d1c4f2194650e548ccc24e82d64867fcec526268e5400d32e8ca569726cc7657",
        "l_0_1/trace_alpha.csv":
            "5eb2376dc51157f0a6b19cceb6e5dd859cffa6fb7734e014f020d57d0a790405",
        "l_1_2/attractor/manifest.json":
            "8c06310389381c08b75360cc1e9cc2c65ab1650e7ea6ea085acba380781989e6",
        "l_1_2/attractor/net.csv":
            "49a06f6185113311f12ab1fd46a7c8b89fe12797efd3c48db6bb5503bdab73e9",
        "l_1_2/attractor/orbits.csv":
            "26de582c62b199238b28deb6fb45eb96ae31c92c5e4cc52ae7274ddc970986ff",
        "l_1_2/attractor/proxy.csv":
            "3e4a6303e9b4c445653cc9c76e5ac11344fec6f7cf57807129cf61bc2489092f",
        "l_1_2/certificate.csv":
            "a25942a5da521bb99cbfef48aff8505d932b6ad58bd2cddfd3b4c69a96dd23c5",
        "l_1_2/trace_alpha.csv":
            "aca35bd9c4c8c35cd88c52afb19c19028f76ab0f1a018aaddc619482de602b40",
        "sweep.csv":
            "3ffd560b06b6dc139abc609924a1bc865b6f0c0eee02f60269b7403aa5062210",
    },
    "wave_attractor": {
        "attractor/manifest.json":
            "8c06310389381c08b75360cc1e9cc2c65ab1650e7ea6ea085acba380781989e6",
        "attractor/net.csv":
            "49a06f6185113311f12ab1fd46a7c8b89fe12797efd3c48db6bb5503bdab73e9",
        "attractor/orbits.csv":
            "26de582c62b199238b28deb6fb45eb96ae31c92c5e4cc52ae7274ddc970986ff",
        "attractor/proxy.csv":
            "3e4a6303e9b4c445653cc9c76e5ac11344fec6f7cf57807129cf61bc2489092f",
        "certificate.csv":
            "a25942a5da521bb99cbfef48aff8505d932b6ad58bd2cddfd3b4c69a96dd23c5",
        "trace_alpha.csv":
            "aca35bd9c4c8c35cd88c52afb19c19028f76ab0f1a018aaddc619482de602b40",
    },
    "wave_attractor_unabsorbed": {
        "attractor/manifest.json":
            "6f899eaec4cdfb23b47fc5d172684c3a3cc8b46dd5582a412227b7397c4dc9bc",
        "attractor/net.csv":
            "e24c9b5b736ea168638098af80ee43bedaa40ac1bf01d73217ad832a2624e187",
        "attractor/orbits.csv":
            "bca94e09c20e097f30003433f32598e15df38dfbb84e607cf1f04a9dd08ac410",
        "attractor/proxy.csv":
            "1554c0c339353ce8cd73f25566447fe3db8818e117a9eb1c0b5dca04ed185985",
        "certificate.csv":
            "cdff8b9551e5e317e128bf1f6ddc25727dcbb40707d752e8645bd8b8a92120da",
        "trace_alpha.csv":
            "8753fc20f54a7ce4821a7c77b6fa140004757cecfbae0a9b7f68f25c06a69480",
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_digests(case, tmp_path):
    cfg = CASES[case](tmp_path / case)
    manifest = run_experiment(cfg)
    assert manifest.status == "ok"
    assert output_hashes(cfg.output_dir) == GOLDEN[case]


# the passes each case makes: the linear oracle is evaluated in closed form;
# quasistability and criteria_suite sample their probe in one pass from the
# draw; wave_attractor makes five (probe, absorbed sample, proxy continuation,
# net orbits and fresh sample), and sweep_l's L rows 4 + L: the same four
# stacked passes, and one net pass per row
PASSES = {
    "oracle_decay": 0,
    "quasistability_oracle": 0,
    "quasistability_wave": 1,
    "criteria_suite": 1,
    "wave_attractor": 5,
    "wave_attractor_unabsorbed": 5,
    "sweep_l": 6,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_no_start_array_is_integrated_twice(case, tmp_path, monkeypatch):
    # each pipeline integrates each ensemble once, to its longest horizon.
    # One CPU keeps every pass in this process, where the counter sees it: the
    # sweep's stacked run and the fresh pass and net stage of a wave run
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    starts = Counter()
    evolve = dynamics.evolve_states

    def counted(y0, cfg, times):
        y0 = np.asarray(y0, dtype=float)
        starts[repr(cfg), y0.shape, y0.tobytes()] += 1
        return evolve(y0, cfg, times)

    monkeypatch.setattr(dynamics, "evolve_states", counted)
    cfg = CASES[case](tmp_path / case)
    run_experiment(cfg)
    assert sum(starts.values()) == PASSES[case]
    assert {key: n for key, n in starts.items() if n > 1} == {}


def test_every_benchmark_span_is_reached(tmp_path, monkeypatch):
    # a trace point no pipeline calls reads 0 in the benchmark's per-layer
    # split.  One CPU keeps every pass in this process, where the tracer sees it
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    tracing = load_bench("tracing")
    with tracing.Tracer() as tracer:
        for case in sorted(CASES):
            # through the module, where the tracer wraps it
            experiments.run_experiment(CASES[case](tmp_path / case))
    spans = {span for _owner, _attr, span in tracing.TRACE_POINTS}
    assert sorted(span for span in spans if tracer.calls[span] == 0) == []
    assert tracing.installed_wrappers() == []


def test_sweep_manifest_files_are_stable_across_reruns(tmp_path):
    cfg = CASES["sweep_l"](tmp_path / "sweep_l")
    first = run_experiment(cfg).files
    assert run_experiment(cfg).files == first
    # the inventory leaves out the same timing-bearing manifests as the digests
    assert {rel.replace(os.sep, "/"): h for rel, h in first.items()} == output_hashes(
        cfg.output_dir
    )


@pytest.mark.parametrize("l_values", [(1.0, 2.0), (1.0, 2.0, 4.0)], ids=lambda v: f"{len(v)}_rows")
def test_forked_sweep_matches_the_in_process_run(l_values, tmp_path, monkeypatch):
    # two CPUs run the stacked rows in one sweep child, so this process
    # integrates nothing; one CPU runs them here
    in_process, children = [], []
    evolve, forked = dynamics.evolve_states, experiments._forked

    def counted(y0, cfg, times):
        in_process.append(1)
        return evolve(y0, cfg, times)

    def recorded(fn, *args):
        # only the children this process forks; a sweep child's own passes
        # are forked in the child
        children.append(fn.__name__)
        return forked(fn, *args)

    monkeypatch.setattr(dynamics, "evolve_states", counted)
    monkeypatch.setattr(experiments, "_forked", recorded)
    hashes, tables, integrations, forks = {}, {}, {}, {}
    for cpus in (1, 2):
        monkeypatch.setattr(os, "cpu_count", lambda n=cpus: n)
        in_process.clear()
        children.clear()
        cfg = small_wave(tmp_path / f"cpus_{cpus}", "sweep_l", l_values=l_values)
        tables[cpus] = run_experiment(cfg).table
        hashes[cpus] = output_hashes(cfg.output_dir)
        integrations[cpus] = len(in_process)
        forks[cpus] = list(children)
    assert hashes[2] == hashes[1]
    if l_values == (1.0, 2.0):  # the golden sweep_l case
        assert hashes[2] == GOLDEN["sweep_l"]
    assert tables[2] == tables[1]
    assert integrations[1] == 4 + len(l_values) and integrations[2] == 0
    assert forks[2] == ["_sweep_rows"]


@pytest.mark.parametrize("case", ["wave_attractor", "wave_attractor_unabsorbed"])
def test_forked_passes_match_the_in_process_run(case, tmp_path, monkeypatch):
    # one CPU integrates all five passes here: probe, absorbed sample, proxy
    # continuation, net orbits and fresh sample.  Two CPUs fork the fresh pass
    # and the net stage, so this process integrates only the first three
    starts = []
    evolve = dynamics.evolve_states

    def recorded(y0, cfg, times):
        starts.append(np.asarray(y0, dtype=float).tobytes())
        return evolve(y0, cfg, times)

    monkeypatch.setattr(dynamics, "evolve_states", recorded)
    integrated = {}
    for cpus in (1, 2):
        monkeypatch.setattr(os, "cpu_count", lambda n=cpus: n)
        starts.clear()
        cfg = CASES[case](tmp_path / f"cpus_{cpus}")
        run_experiment(cfg)
        assert output_hashes(cfg.output_dir) == GOLDEN[case]
        _probe, fresh = draw_samples(cfg)
        integrated[cpus] = len(starts), fresh.tobytes() in starts
    assert integrated == {1: (5, True), 2: (3, False)}


# alpha_proxy calls a forked child takes over from this process, per case
FORKED_BLOCKS = {
    # the later half of the 101-point t_grid
    "oracle_decay": 51,
    "quasistability_oracle": 0,
}


@pytest.mark.parametrize("case", sorted(FORKED_BLOCKS))
def test_forked_oracle_trace_matches_the_in_process_run(case, tmp_path, monkeypatch):
    # one CPU covers every t_grid block here; two CPUs cover oracle_decay's
    # later half in a child, so this process measures fewer blocks
    calls = []
    alpha = covering.alpha_proxy

    def counted(states, m_clusters, spec):
        calls.append(int(np.prod(np.shape(states)[:-2])))  # the blocks of this call
        return alpha(states, m_clusters, spec)

    monkeypatch.setattr(covering, "alpha_proxy", counted)
    monkeypatch.setattr(criteria, "alpha_proxy", counted)
    here = {}
    for cpus in (1, 2):
        monkeypatch.setattr(os, "cpu_count", lambda n=cpus: n)
        calls.clear()
        cfg = CASES[case](tmp_path / f"cpus_{cpus}")
        run_experiment(cfg)
        assert output_hashes(cfg.output_dir) == GOLDEN[case]
        here[cpus] = sum(calls)
    assert here[1] - here[2] == FORKED_BLOCKS[case]
    if case == "oracle_decay":
        assert here[1] == cfg.t_grid.size == 101
