"""Workload inputs for the attractorlab benchmark, generated from a seed.

Each workload is one ``ExperimentConfig``; the benchmark's seed only chooses
the ensemble seed, from the seeds whose output inventories are recorded under
``reference/`` (see ``sample_seed``).  Why each workload exists is in
README.md next to this file.
"""

from __future__ import annotations

import numpy as np

from attractorlab.dynamics import LinearModalConfig, wave_config_from_dict
from attractorlab.experiments import ExperimentConfig

# The shipped wave system (configs/wave_attractor.yaml), kept here so that a
# change to the shipped config does not change the benchmark.
WAVE_SYSTEM = {
    "mode_count": 32,
    "k": 1.0,
    "p": 2.0,
    "l": 2.0,
    "f_coeffs": [0.0, -1.0, 0.0, 1.0],
    "kernel": [{"weight": 0.1, "coeffs": [1.0]}],
    "h_coeffs": [4.0],
    "dt": 0.015625,
    "collocation_points": 96,
}

# Above the absorbing radius (about 2.43), so absorption, entering times and
# the t_star shift do real work; the shipped radius 2.0 never absorbs.
WAVE_SAMPLE_RADIUS = 4.0
SWEEP_L_VALUES = (1.0, 2.0, 4.0)

WORKLOADS = ("wave_attractor", "criteria_suite", "oracle_large", "sweep_l")

# Ensemble seeds with a recorded reference inventory for every workload; all
# of them run every workload without a failed step or sweep row.
REFERENCE_SEEDS = (7, 11, 23, 0, 1, 2, 3, 4, 5, 6, 8, 9)


def sample_seed(seed: int) -> int:
    """Ensemble seed for a benchmark seed: a reference seed is used as is,
    any other seed picks one of them, so every run has a byte-level oracle."""
    seed = int(seed)
    if seed in REFERENCE_SEEDS:
        return seed
    return REFERENCE_SEEDS[seed % len(REFERENCE_SEEDS)]


def _wave(kind: str, seed: int, output_dir: str, l_values=()) -> ExperimentConfig:
    return ExperimentConfig(
        kind=kind,
        system=wave_config_from_dict(WAVE_SYSTEM),
        output_dir=output_dir,
        seed=seed,
        ensemble_count=30,
        ensemble_radius=WAVE_SAMPLE_RADIUS,
        fresh_count=20,
        t_grid=np.arange(0.0, 12.0 + 1e-9, 0.25),
        m_range=(1, 4),
        l_values=tuple(l_values),
        burn_in=4.0,
        window=2.0,
        m_clusters=3,
        t_orbit=12.0,
        orbit_sample_every=0.25,
        fit_floor=1e-9,
        thresholds={"satisfied_fraction": 0.95},
    )


def _oracle_large(seed: int, output_dir: str) -> ExperimentConfig:
    return ExperimentConfig(
        kind="oracle_decay",
        system=LinearModalConfig(1.0, np.arange(1, 17, dtype=float) ** 2),
        output_dir=output_dir,
        seed=seed,
        ensemble_count=200,
        ensemble_radius=2.0,
        t_grid=np.arange(0.0, 20.0 + 1e-9, 0.05),
        m_clusters=3,
        fit_floor=1e-9,
        thresholds={"r_squared": 0.99},
    )


def build(name: str, seed: int, output_dir: str) -> ExperimentConfig:
    """The workload's config for a benchmark seed, writing to ``output_dir``."""
    s = sample_seed(seed)
    if name == "wave_attractor":
        return _wave("wave_attractor", s, output_dir)
    if name == "criteria_suite":
        return _wave("criteria_suite", s, output_dir)
    if name == "oracle_large":
        return _oracle_large(s, output_dir)
    if name == "sweep_l":
        return _wave("sweep_l", s, output_dir, SWEEP_L_VALUES)
    raise ValueError(f"unknown workload {name!r}, expected one of {WORKLOADS}")
