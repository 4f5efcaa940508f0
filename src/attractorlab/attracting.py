"""Constructive finite surrogate of a compact attracting set, with verification.

The construction mirrors how such sets are built from a decaying cover of an
absorbing set: for each integer birth time m, take the absorbed sample's
image at time m and greedily select evolved points until every evolved sample
lies within ``law.eval(m)`` of a selected center (the finite net).  Forward
orbits of the net points over [0, t_orbit], together with a long-time evolved
copy of the absorbed sample (the omega-limit surrogate), form the computable
target set.  The attraction certificate then measures, for a held-out
ensemble, the Hausdorff semidistance to that target against the bound
``law.eval(t - t_star - 1)`` at the set's own orbit times, the one time grid
the certificate reads.

The caller integrates the absorbed and held-out samples and passes their
sampled rows in.  ``build_attracting_set`` is the only function here that
calls the engine: it integrates the net orbits, a batch it creates.

Everything here truncates: birth times to [m_min, m_max] and orbits to
[0, t_orbit]; the certificate only claims the covered window.

``AttractingSetApprox`` checks its own record when it is made, so a set that
is built, given its proxy (``with_proxy``) or loaded passes one gate:
``build_attracting_set`` keeps only the checks its loop needs, and
``load_attracting_set`` only parsing and the file layout.

A set renders its net.csv and orbits.csv text once, when first asked
(``net_tables``), and carries it through pickling and the proxy fill, so the
process that builds the set can render them and the one that saves it only
writes them.  ``save_attracting_set`` writes that text, then proxy.csv and
manifest.json; it is the only writer of a set's files.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .covering import (
    csv_text,
    farthest_point_traversal,
    semidist_arrays,
    write_columns,
    write_csv,
    write_text,
)
from .decay import DecayLaw, within_bound
from .dynamics import _int, _num, _positive
from .phase import MetricSpec

__all__ = [
    "DegenerateRadiusError",
    "AttractingSetApprox",
    "AttractionCertificate",
    "build_net",
    "build_attracting_set",
    "orbit_grid",
    "verify_attraction",
    "save_attracting_set",
    "load_attracting_set",
]

RADIUS_FLOOR = 1e-10
LAW_KEYS = ("kind", "amplitude", "rate", "shift")
MANIFEST = "attractor manifest"  # the file a loaded set's refused fields are named in


class DegenerateRadiusError(ValueError):
    """Covering radius fell below the distance resolution floor."""


@dataclass(frozen=True, eq=False)
class AttractingSetApprox:
    """Finite net points, their sampled forward orbits, and a long-time proxy
    of the omega-limit set; the computable attracting-set surrogate.

    Net entry e was selected at integer time ``birth_times[e]`` from the
    absorbed state ``net_seeds[e]``, whose image then is ``net_states[e]``.
    ``orbit_states[e, k]`` is that image advanced by ``orbit_times[k]``.
    ``t_star``, the held-out sample's entering time that a run certified the
    set from, is known only for a set loaded from a manifest that records it.

    ``net_tables`` is the net.csv and orbits.csv text of the set, rendered
    on first use and kept in the instance ``__dict__``: pickling carries it,
    and ``with_proxy``, the fill of the omega-limit proxy that those tables
    do not read, keeps it.  Every other new record, such as a
    ``dataclasses.replace`` of any field, renders its own.

    The record refuses, naming the field: ``t_orbit`` or
    ``orbit_sample_every`` not positive and finite; an ``m_range`` outside
    1 <= m_min <= m_max <= t_orbit; birth times that are not whole numbers
    in ``m_range``; orbit times other than k * orbit_sample_every up to
    t_orbit (within 1e-9 * max(1, t_orbit)), which ``verify_attraction``'s
    window index relies on; a ``t_star`` not nonnegative and finite; and net
    seeds, net states, orbits or a proxy that are not finite or not as wide
    as the net states.  The scalar bounds are ``dynamics._positive``'s.
    """

    birth_times: np.ndarray  # (E,) int
    net_seeds: np.ndarray  # (E, 2N)
    net_states: np.ndarray  # (E, 2N)
    orbit_states: np.ndarray  # (E, K, 2N), entry-major
    orbit_times: np.ndarray  # (K,)
    attractor_proxy: np.ndarray | None  # (Q, 2N); None until the net stage's caller fills it in
    law_used: DecayLaw
    m_range: tuple
    t_orbit: float
    orbit_sample_every: float
    t_star: float | None = None

    def __post_init__(self):
        for name in ("orbit_sample_every", "t_orbit"):
            _positive(getattr(self, name), name, "attracting set")
        every, t_orbit, times = self.orbit_sample_every, self.t_orbit, self.orbit_times
        if not 1 <= self.m_range[0] <= self.m_range[1] <= t_orbit:
            raise ValueError(f"attracting set field 'm_range' must satisfy 1 <= m_min <= m_max "
                             f"<= t_orbit = {t_orbit:g}, got {self.m_range!r}")
        births, (m_min, m_max) = np.asarray(self.birth_times), self.m_range
        bad = births[~((births == np.round(births)) & (m_min <= births) & (births <= m_max))]
        if bad.size:
            raise ValueError(f"attracting set field 'birth_times' must be whole numbers in "
                             f"m_range [{m_min}, {m_max}], got {bad[0]:g}")
        object.__setattr__(self, "birth_times", births.astype(int))
        tol = 1e-9 * max(1.0, t_orbit)
        off = np.flatnonzero(np.abs(times - every * np.arange(times.size)) > tol)
        if off.size:
            raise ValueError(f"attracting set field 'orbit_sample_every' = {every:g} must be the "
                             f"spacing of the orbit times from 0, but orbit time {off[0]} is "
                             f"{times[off[0]]:g}")
        if abs(times[-1] - t_orbit) > tol:
            raise ValueError(f"t_orbit = {t_orbit:g} is not a whole number of orbit_sample_every "
                             f"= {every:g} cadences: field 't_orbit' must be the last orbit time, "
                             f"{times[-1]:g}")
        if self.t_star is not None:
            _positive(self.t_star, "t_star", "attracting set", zero=True)
        width = self.net_states.shape[-1]
        for name in ("net_seeds", "net_states", "orbit_states", "attractor_proxy"):
            rows = getattr(self, name)
            if rows is not None and not (rows.shape[-1] == width and np.all(np.isfinite(rows))):
                raise ValueError(f"attracting set field {name!r} must be finite and as wide as "
                                 f"the net states, {width}, got shape {rows.shape}")

    @functools.cached_property
    def net_tables(self) -> tuple:
        """(file name, text) of net.csv (birth time, seed and state per net
        entry) and of orbits.csv (entry, time and state per orbit sample), in
        the order ``save_attracting_set`` writes them."""
        n = self.net_states.shape[1] // 2
        net = (
            [m, *seed, *state]
            for m, seed, state in zip(self.birth_times.tolist(), self.net_seeds.tolist(),
                                      self.net_states.tolist())
        )
        orbits = (
            [e_pos, tau, *state]
            for e_pos, orbit in enumerate(self.orbit_states)
            for tau, state in zip(self.orbit_times.tolist(), orbit.tolist())
        )
        return (
            ("net.csv", csv_text(["m"] + _coeff_header("seed_a", "seed_b", n)
                                 + _coeff_header("a", "b", n), net)),
            ("orbits.csv", csv_text(["entry", "t"] + _coeff_header("a", "b", n), orbits)),
        )

    def with_proxy(self, proxy) -> "AttractingSetApprox":
        """This set with the omega-limit proxy ``proxy``, keeping the net
        tables if they are rendered (they do not read the proxy)."""
        filled = replace(self, attractor_proxy=proxy)
        if "net_tables" in self.__dict__:
            filled.__dict__["net_tables"] = self.net_tables
        return filled

    def target_matrix(self) -> np.ndarray:
        """Raw (Q, 2N) coefficients of orbit samples plus proxy points."""
        width = self.orbit_states.shape[-1]
        return np.concatenate(
            [self.orbit_states.reshape(-1, width), self.attractor_proxy]
        )


@dataclass(frozen=True, eq=False)
class AttractionCertificate:
    times: np.ndarray
    measured_semidist: np.ndarray
    bound_values: np.ndarray
    satisfied_fraction: float

    def to_csv(self, path):
        satisfied = within_bound(self.measured_semidist, self.bound_values).astype(int)
        write_columns(path, t=self.times, measured_semidist=self.measured_semidist,
                      bound=self.bound_values, satisfied=satisfied)


def _cover_indices(embedded: np.ndarray, radius: float) -> list[int]:
    """Farthest-point centers until every point is within radius of one."""
    chosen = []
    for center, dist in farthest_point_traversal(embedded):
        chosen.append(center)
        if np.max(dist) <= radius:
            return chosen


def _net_radius(m: int, law: DecayLaw) -> float:
    """Cover radius law.eval(m), refused below the distance floor."""
    radius = law.eval(m)
    if radius < RADIUS_FLOOR:
        raise DegenerateRadiusError(
            f"law.eval({m}) = {radius:g} is below the distance floor {RADIUS_FLOOR:g}"
        )
    return radius


def build_net(states, evolved, m: int, law: DecayLaw, spec: MetricSpec) -> tuple:
    """Select a finite net of the absorbed sample whose balls of radius
    ``law.eval(m)`` cover all of its time-m images.

    ``states`` (P, 2N) is the absorbed sample and ``evolved`` (P, 2N) its
    image at integer time m.  Returns (seeds, evolved): the selected
    absorbed states and their time-m images, each an (E, 2N) array.

    The caller is responsible for the absorbed ensemble actually sitting
    inside the empirical absorbing ball and for m being past the burn-in.
    """
    m = int(m)
    if m < 1:
        raise ValueError("birth time m must be a positive integer")
    radius = _net_radius(m, law)
    embedded = spec.embed(evolved)
    chosen = _cover_indices(embedded, radius)
    gap = semidist_arrays(embedded, embedded[chosen])
    assert gap <= radius + 1e-12, "net construction failed to cover its own sample"
    return states[chosen], evolved[chosen]


def orbit_grid(t_orbit: float, every: float) -> np.ndarray:
    """Orbit times k * ``every`` for k = 0..K, K = t_orbit / every rounded
    half to even as ``WaveSystemConfig.steps`` rounds: the one grid of the
    net orbits and of the held-out sample the certificate reads."""
    return np.arange(int(np.rint(t_orbit / every)) + 1) * every


def cadence_index(t: float, every: float) -> int:
    """The index k of the first cadence time k * ``every`` at or after ``t``,
    a time within round-off of a cadence time counting as on it."""
    return math.ceil(t / every - 1e-9)


def build_attracting_set(
    states, m_range: tuple, images, proxy_states, law: DecayLaw, t_orbit: float,
    orbit_sample_every: float, cfg, spec: MetricSpec,
) -> AttractingSetApprox:
    """Union of nets over integer birth times in ``m_range`` with forward
    orbits sampled on ``orbit_grid``, every ``orbit_sample_every`` up to the
    multiple of it nearest t_orbit, plus the omega-limit proxy.  The record
    refuses that grid if its last time misses t_orbit beyond round-off.

    ``states`` (P, 2N) is the absorbed sample, ``images[i]`` (P, 2N) its
    image at birth time ``m_range[0] + i``, and ``proxy_states`` its
    long-time image.  The net orbits are the only integration done here.
    """
    m_min, m_max = int(m_range[0]), int(m_range[1])
    if m_max < m_min:
        raise ValueError(f"m_range must satisfy m_min <= m_max, got {(m_min, m_max)}")
    if len(images) != m_max - m_min + 1:
        raise ValueError("need one image of the absorbed sample per birth time")

    births, seeds, nets = [], [], []
    for m, image in zip(range(m_min, m_max + 1), images):
        seed, net = build_net(states, image, m, law, spec)
        births += [m] * len(seed)
        seeds.append(seed)
        nets.append(net)
    net_states = np.concatenate(nets)

    orbit_times = orbit_grid(t_orbit, orbit_sample_every)
    # the net is a new batch: rows of a larger batch differ in the last bits
    orbit_blocks = cfg.sample(net_states, orbit_times)  # (K, E, 2N)

    return AttractingSetApprox(
        birth_times=np.array(births),
        net_seeds=np.concatenate(seeds),
        net_states=net_states,
        orbit_states=np.ascontiguousarray(orbit_blocks.swapaxes(0, 1)),
        orbit_times=orbit_times,
        attractor_proxy=proxy_states,
        law_used=law,
        m_range=(m_min, m_max),
        t_orbit=float(t_orbit),
        orbit_sample_every=float(orbit_sample_every),
    )


def verify_attraction(
    aset: AttractingSetApprox, evolved, t_star: float, spec: MetricSpec
) -> AttractionCertificate:
    """Measure dist(S(t) fresh, target) against law.eval(t - t_star - 1) at
    the orbit times on the covered window [t_star + 1 + m_min, t_orbit],
    from the first one at or after its start.

    ``evolved[k]`` (P, 2N) is the held-out sample at ``aset.orbit_times[k]``.
    """
    if len(evolved) != aset.orbit_times.size:
        raise ValueError(f"need one held-out block per orbit time: got {len(evolved)} "
                         f"for {aset.orbit_times.size}")
    first = max(0, cadence_index(t_star + 1.0 + aset.m_range[0], aset.orbit_sample_every))
    times = aset.orbit_times[first:]
    if times.size == 0:
        raise ValueError(
            f"verification window is empty: entering time {t_star:g} pushes the "
            f"first check past t_orbit = {aset.t_orbit:g}"
        )
    target = spec.embed(aset.target_matrix())
    measured = np.array([semidist_arrays(spec.embed(block), target) for block in evolved[first:]])
    bounds = np.array([aset.law_used.eval(t - t_star - 1.0) for t in times])
    satisfied = float(np.mean(within_bound(measured, bounds)))
    return AttractionCertificate(times, measured, bounds, satisfied)


# ---------------------------------------------------------------------------
# directory persistence


def _coeff_header(prefix_a: str, prefix_b: str, n: int) -> list[str]:
    return [f"{prefix_a}_{j}" for j in range(1, n + 1)] + [
        f"{prefix_b}_{j}" for j in range(1, n + 1)
    ]


def save_attracting_set(aset: AttractingSetApprox, directory, extra: dict | None = None):
    """Write the set's ``net_tables`` (net.csv and orbits.csv, rendered here
    unless the set carries them), proxy.csv and manifest.json, with ``extra``
    in the manifest, to a directory."""
    os.makedirs(directory, exist_ok=True)
    n = aset.attractor_proxy.shape[1] // 2
    for name, text in aset.net_tables:
        write_text(os.path.join(directory, name), text)
    write_csv(
        os.path.join(directory, "proxy.csv"), _coeff_header("a", "b", n),
        aset.attractor_proxy.tolist(),
    )

    manifest = {
        "law": {key: getattr(aset.law_used, key) for key in LAW_KEYS},
        "m_range": list(aset.m_range),
        "t_orbit": aset.t_orbit,
        "orbit_sample_every": aset.orbit_sample_every,
        "mode_count": n,
        "net_size": len(aset.birth_times),
        "orbit_sample_count": aset.orbit_states.shape[0] * aset.orbit_states.shape[1],
    }
    if extra:
        manifest.update(extra)
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _manifest_law(raw) -> DecayLaw:
    """The manifest's ``law`` entry: its kind and numeric parameters."""
    if not (isinstance(raw, dict) and {"kind", "amplitude", "rate"} <= set(raw) <= set(LAW_KEYS)):
        raise ValueError(f"{MANIFEST} field 'law' must be a mapping of {LAW_KEYS}, got {raw!r}")
    return DecayLaw(**{k: v if k == "kind" else _num(v, f"law.{k}", MANIFEST)
                       for k, v in raw.items()})


def load_attracting_set(directory) -> AttractingSetApprox:
    """Read a directory written by ``save_attracting_set``: birth times, net
    seeds and net states from net.csv, orbit times and states from
    orbits.csv and the proxy from proxy.csv.  A manifest field or CSV cell
    that does not parse, a CSV file with no data rows, or orbits that are
    not every net entry on one time grid raises ValueError naming the field
    or the file; the record then checks the set as it checks a built one,
    naming its fields."""
    with open(os.path.join(directory, "manifest.json")) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError(f"{MANIFEST} must be a mapping")
    law = _manifest_law(manifest.get("law"))
    m_range = manifest.get("m_range")
    if not (isinstance(m_range, list) and len(m_range) == 2):
        raise ValueError(f"{MANIFEST} field 'm_range' must be a pair, got {m_range!r}")
    t_star = manifest.get("t_star")

    def read_rows(name) -> list:
        with open(os.path.join(directory, name), newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        if not rows:
            raise ValueError(f"attractor file {name} has no data rows")
        return rows

    def parse(rows, where, number=float) -> np.ndarray:
        try:
            return np.array([[number(v) for v in row] for row in rows])
        except ValueError as exc:  # a cell that is not a number, or a ragged row
            raise ValueError(f"attractor file {where}: {exc}") from None

    net_rows = read_rows("net.csv")
    births = parse([row[:1] for row in net_rows], "net.csv column 'm'", int)
    net = parse([row[1:] for row in net_rows], "net.csv")
    width = net.shape[1] // 2
    orbits = parse(read_rows("orbits.csv"), "orbits.csv")
    entries = orbits[:, 0]  # compared as read, so an entry of 1.5 is not entry 1
    orbit_times = orbits[entries == 0, 1]
    count, steps = net.shape[0], orbit_times.size
    if not (
        np.array_equal(entries, np.repeat(np.arange(count), steps))
        and np.array_equal(orbits[:, 1], np.tile(orbit_times, count))
    ):
        raise ValueError("orbits.csv must list every net entry on one shared time grid")

    return AttractingSetApprox(
        birth_times=births[:, 0],
        net_seeds=net[:, :width],
        net_states=net[:, width:],
        orbit_states=orbits[:, 2:].reshape(count, steps, -1),
        orbit_times=orbit_times,
        attractor_proxy=parse(read_rows("proxy.csv"), "proxy.csv"),
        law_used=law,
        m_range=tuple(_int(m, "m_range", MANIFEST) for m in m_range),
        t_orbit=_num(manifest.get("t_orbit"), "t_orbit", MANIFEST),
        orbit_sample_every=_num(manifest.get("orbit_sample_every"), "orbit_sample_every",
                                MANIFEST),
        t_star=None if t_star is None else _num(t_star, "t_star", MANIFEST),
    )
