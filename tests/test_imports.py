"""Import surface: exported names resolve, and removed names stay removed."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from dataclasses import fields

import pytest

import attractorlab
from attractorlab import attracting
from attractorlab.criteria import (
    HausdorffCriterionReport,
    QuasiStabilityReport,
    RateBounds,
    RateFit,
)
from attractorlab.decay import DecayLaw
from attractorlab.dynamics import LinearModalConfig, WaveSystemConfig, _sine_collocation
from attractorlab.experiments import ExperimentConfig, RunManifest
from attractorlab.phase import Ensemble, MetricSpec

from conftest import CONFIG_DIR, SMALL_WAVE_SYSTEM, load_bench

MODULES = ("phase", "decay", "covering", "dynamics", "attracting", "criteria", "experiments")

REMOVED = {
    "phase": ("PhasePoint", "phase_norm", "_check_compatible"),
    "dynamics": ("flow", "flow_samples", "config_eigenvalues", "evolve", "TrajectoryRecord",
                 "linear_modal_evolve", "load_wave_config", "_rhs", "entering_times",
                 "_sampled_norms", "_rk4_step", "_WAVE_KEYS", "_steps_for", "_entries", "_padded",
                 "_kernel_entry"),
    "attracting": ("NetEntry", "_embed", "_reprs", "perturbed_net", "ContinuityBudgetError",
                   "QUANT_FLOOR", "verification_grid"),
    "covering": ("CoverReport", "pairwise_distances", "hausdorff_semidist", "greedy_kcenter",
                 "_TRACE_CHUNK_BYTES"),
    "decay": ("decay_eval",),
    "criteria": ("_unique_points", "TRAJECTORY_SAMPLES"),
    "experiments": ("_with_damping", "sweep_parameter", "_snapshots", "_semidist_to_origin_trace",
                    "system_to_dict", "_parse_system", "ProcessPoolExecutor", "_fresh_pass",
                    "EXPERIMENT_KINDS", "_PIPELINES", "_absorbed_probe", "_absorbing_ball",
                    "_SWEEP_MEASURED", "_resume", "_norms_and_rows", "_reply"),
}


def package_imports():
    """(module, name) for every ``from .module import name`` in the package init."""
    with open(os.path.join(os.path.dirname(attractorlab.__file__), "__init__.py")) as fh:
        tree = ast.parse(fh.read())
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"attractorlab.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_resolve():
    imports = package_imports()
    assert len(imports) > 35
    for module, name in imports:
        assert getattr(attractorlab, name) is getattr(
            importlib.import_module(f"attractorlab.{module}"), name
        )


@pytest.mark.parametrize("module", sorted(REMOVED))
def test_removed_names_are_gone(module):
    mod = importlib.import_module(f"attractorlab.{module}")
    for name in REMOVED[module]:
        assert not hasattr(mod, name)
        assert name not in getattr(mod, "__all__", ())
        assert not hasattr(attractorlab, name)


def test_removed_members_are_gone():
    assert not hasattr(MetricSpec, "dirichlet_2d")
    assert not hasattr(MetricSpec.dirichlet_1d(2), "spatial_dim")
    assert not hasattr(DecayLaw, "with_shift")
    assert not hasattr(DecayLaw, "invert")
    assert not hasattr(WaveSystemConfig, "_tables")
    assert not hasattr(_sine_collocation, "cache_info")
    assert not hasattr(Ensemble, "points")
    assert not hasattr(Ensemble, "label")
    assert not hasattr(Ensemble, "embed")
    assert not hasattr(Ensemble, "mode_count")
    assert not hasattr(Ensemble, "__len__")
    assert not hasattr(RateFit, "as_dict")
    assert not hasattr(RateBounds, "as_dict")
    assert not hasattr(QuasiStabilityReport, "as_dict")
    assert not hasattr(RunManifest, "as_dict")
    # the period is ExperimentConfig.period; the cluster count is len(candidate)
    assert "period" not in {f.name for f in fields(RateBounds)}
    assert "m_clusters" not in {f.name for f in fields(HausdorffCriterionReport)}
    # the oracle's fields are the engine interface's names, l and eigenvalues
    oracle = LinearModalConfig(1.0, [1.0, 4.0])
    assert not hasattr(oracle, "damping")
    assert not hasattr(oracle, "mode_eigenvalues")


def test_config_checks_read_the_kind_table_not_kind_names():
    # what a kind needs is a tag of its ``_KINDS`` row, so a new kind adds a
    # row and no branch of its own
    source = inspect.getsource(ExperimentConfig.__post_init__)
    assert "self.kind ==" not in source and "self.kind in" not in source


def test_the_attracting_set_record_owns_its_checks():
    # AttractingSetApprox.__post_init__ checks the grid, the times and the
    # arrays of a built set and a loaded one alike
    for func in (attracting.build_attracting_set, attracting.load_attracting_set):
        source = inspect.getsource(func)
        assert "isfinite" not in source and "whole number" not in source
    assert "Ensemble" not in vars(attracting)


def test_benchmark_trace_points_are_bound():
    # the benchmark's tracer rebinds these names in place, so each must stay
    # bound in its owner's own namespace (e.g. criteria's import of semidist_arrays)
    tracing = load_bench("tracing")
    unbound = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _span in tracing.TRACE_POINTS
        if attr not in owner.__dict__
    ]
    assert len(tracing.TRACE_POINTS) == 19
    assert unbound == []


def fresh_interpreter(code: str) -> str:
    """What ``code`` prints when a fresh interpreter runs it on this package."""
    src = os.path.dirname(os.path.dirname(attractorlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    return result.stdout.strip()


def test_cli_import_leaves_scipy_spatial_out():
    # the distance kernel is loaded from its extension file; importing
    # scipy.spatial (and with it scipy.sparse) costs more than most runs.
    # The sweep runs in a ``_forked`` child, so no pool module is needed
    code = (
        "import sys\n"
        "import attractorlab.cli\n"
        "print(sorted(m for m in ('scipy.spatial', 'scipy.sparse', 'concurrent.futures')\n"
        "             if m in sys.modules))\n"
    )
    assert fresh_interpreter(code) == "[]"


def test_configs_built_in_code_leave_multiprocessing_and_yaml_out():
    # ``_forked`` forks through os.fork, and only reading a run file parses YAML
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import attractorlab\n"
        "from attractorlab.dynamics import LinearModalConfig, wave_config_from_dict\n"
        "from attractorlab.experiments import ExperimentConfig, load_experiment_config\n"
        f"wave_config_from_dict({SMALL_WAVE_SYSTEM!r})\n"
        "ExperimentConfig(kind='oracle_decay', system=LinearModalConfig(1.0, [1.0, 4.0]),\n"
        "                 output_dir='out', t_grid=np.arange(0.0, 4.25, 0.25))\n"
        "heavy = ('multiprocessing', 'yaml')\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
        f"load_experiment_config({os.path.join(CONFIG_DIR, 'wave_attractor.yaml')!r})\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
    )
    assert fresh_interpreter(code).splitlines() == ["[]", "['yaml']"]
