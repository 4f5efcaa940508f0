import importlib.util
import multiprocessing
import os

import numpy as np
import pytest

from attractorlab.attracting import build_attracting_set


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running: the forked passes of
    a run and the sweep's child are joined before ``run_experiment``
    returns or raises.  A child left behind is killed, so later tests start
    clean."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.kill()
        child.join()
    assert not left, f"child processes left running: {left}"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_point(rng, spec, scale=1.0) -> np.ndarray:
    """A (2N,) state [positions, velocities]: positions drawn first."""
    n = spec.mode_count
    positions = scale * rng.standard_normal(n) / np.sqrt(spec.mode_eigenvalues)
    return np.concatenate([positions, scale * rng.standard_normal(n)])


def random_states(rng, spec, count, scale=1.0) -> np.ndarray:
    """A (count, 2N) array of ``random_point`` rows."""
    return np.stack([random_point(rng, spec, scale) for _ in range(count)])


def velocity_line_states(values, n_modes=1) -> np.ndarray:
    """Scalar values embedded as mode-1 velocities: pairwise phase distances
    equal the scalar differences."""
    states = np.zeros((len(values), 2 * n_modes))
    states[:, n_modes] = values
    return states


def attracting_set(states, m_range, law, t_orbit, orbit_sample_every, cfg, spec):
    """``build_attracting_set`` on the absorbed (P, 2N) states, integrated
    once as the pipeline does: their image at each birth time and at 2 * t_orbit."""
    births = np.arange(m_range[0], m_range[1] + 1, dtype=float)
    samples = cfg.sample(states, [*births, 2.0 * t_orbit])
    return build_attracting_set(
        states, m_range, samples[:-1], samples[-1], law, t_orbit, orbit_sample_every,
        cfg, spec,
    )


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The shipped run configs.
CONFIG_DIR = os.path.join(ROOT, "configs")


def load_bench(name):
    """The benchmark's module ``bench/<name>.py``, loaded from its file
    (``bench`` is not a package on the test path)."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(ROOT, "bench", f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The 8-mode damped wave system used by the end-to-end tests: the shipped
# system's coefficients at a size where a pipeline run takes a fraction of a
# second.
SMALL_WAVE_SYSTEM = {
    "mode_count": 8,
    "k": 1.0,
    "p": 2.0,
    "l": 2.0,
    "f_coeffs": [0.0, -1.0, 0.0, 1.0],
    "kernel": [{"weight": 0.1, "coeffs": [1.0]}],
    "h_coeffs": [4.0],
    "dt": 0.0625,
    "collocation_points": 24,
}
