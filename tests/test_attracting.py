import pickle
from dataclasses import replace

import numpy as np
import pytest

from attractorlab.attracting import (
    AttractingSetApprox,
    DegenerateRadiusError,
    build_attracting_set,
    build_net,
    cadence_index,
    load_attracting_set,
    save_attracting_set,
    verify_attraction,
)
from attractorlab.covering import semidist_arrays
from attractorlab.decay import DecayLaw
from attractorlab.dynamics import (
    LinearModalConfig,
    WaveSystemConfig,
    modal_evolve_states,
    modal_propagator,
)
from attractorlab.phase import MetricSpec, ensemble_radius

from conftest import attracting_set, random_states


@pytest.mark.parametrize("t, index", [(0.0, 0), (0.1, 1), (0.25, 1), (0.25 + 1e-12, 1),
                                      (0.25 - 1e-12, 1), (0.26, 2), (12.0, 48)])
def test_cadence_index_is_the_first_cadence_time_at_or_after_t(t, index):
    assert cadence_index(t, 0.25) == index


def net(states, m, law, spec, cfg):
    """``build_net`` on the absorbed states and their integrated time-m image."""
    return build_net(states, cfg.sample(states, [float(m)])[0], m, law, spec)


def certify(aset, fresh, t_star, cfg, spec):
    """``verify_attraction`` on the fresh states integrated over the set's
    orbit times."""
    return verify_attraction(aset, cfg.sample(fresh, aset.orbit_times), t_star, spec)


def modal_preimage(cfg, targets, t):
    """Seeds whose exact evolution at time t hits the target states."""
    m11, m12, m21, m22 = modal_propagator(cfg.l, cfg.eigenvalues, t)
    det = m11 * m22 - m12 * m21
    n = cfg.mode_count
    a, b = targets[:, :n], targets[:, n:]
    return np.concatenate(
        [(m22 * a - m12 * b) / det, (-m21 * a + m11 * b) / det], axis=1
    )


def min_interval_cover_count(xs, r):
    """Optimal number of data-centered radius-r intervals covering line points."""
    xs = np.sort(np.asarray(xs, dtype=float))
    count, i = 0, 0
    while i < xs.size:
        center = xs[xs <= xs[i] + r][-1]
        count += 1
        i = int(np.searchsorted(xs, center + r, side="right"))
    return count


@pytest.fixture
def modal_setup():
    spec = MetricSpec(np.array([4.0, 9.0]))
    cfg = LinearModalConfig(2.0, spec.mode_eigenvalues)
    return spec, cfg


class TestBuildNet:
    def test_collapsed_ensemble_single_entry(self, modal_setup):
        spec, cfg = modal_setup
        p = np.array([0.1, 0.2, 0.0, -0.1])
        absorbed = np.stack([p] * 3)
        seeds, evolved = net(absorbed, 1, DecayLaw("exponential", 1.0, 0.1), spec, cfg)
        assert len(seeds) == len(evolved) == 1
        assert np.array_equal(seeds[0], p)

    def test_large_radius_single_entry(self, rng, modal_setup):
        spec, cfg = modal_setup
        absorbed = random_states(rng, spec, 8)
        law = DecayLaw("exponential", 1e3, 0.01)
        seeds, _evolved = net(absorbed, 2, law, spec, cfg)
        assert len(seeds) == 1

    def test_line_cover_matches_interval_oracle(self, modal_setup):
        spec, cfg = modal_setup
        m = 1
        targets = np.zeros((10, 4))
        targets[:, 2] = np.arange(10.0)  # mode-1 velocities 0..9, spacing 1
        seeds = modal_preimage(cfg, targets, float(m))
        law = DecayLaw("exponential", np.exp(0.5 * m), 0.5)  # law.eval(m) == 1
        _seeds, evolved = net(seeds, m, law, spec, cfg)
        evolved_line = evolved[:, 2]
        optimal = min_interval_cover_count(targets[:, 2], 1.0)
        assert optimal <= len(evolved) <= 2 * optimal
        # every target point is within the radius of a selected center
        gaps = np.min(
            np.abs(targets[:, 2][:, None] - evolved_line[None, :]), axis=1
        )
        assert np.max(gaps) <= 1.0 + 1e-9

    def test_degenerate_radius_rejected(self, rng, modal_setup):
        spec, cfg = modal_setup
        absorbed = random_states(rng, spec, 3)
        law = DecayLaw("exponential", 1e-12, 1.0)
        with pytest.raises(DegenerateRadiusError):
            net(absorbed, 1, law, spec, cfg)

    def test_net_covers_evolved_sample(self, rng, modal_setup):
        spec, cfg = modal_setup
        absorbed = random_states(rng, spec, 12)
        law = DecayLaw("exponential", 0.5, 0.3)
        m = 2
        _seeds, centers = net(absorbed, m, law, spec, cfg)
        evolved = cfg.sample(absorbed, [float(m)])[0]
        emb = spec.embed(evolved)
        emb_c = spec.embed(centers)
        assert semidist_arrays(emb, emb_c) <= law.eval(m) + 1e-12


class TestBuildAttractingSet:
    def test_linear_oracle_proxy_near_origin(self, rng, modal_setup):
        spec, cfg = modal_setup
        absorbed = random_states(rng, spec, 6, scale=1.5)
        law = DecayLaw("exponential", 4.0, 0.5)
        aset = attracting_set(absorbed, (1, 2), law, 12.0, 0.5, cfg, spec)
        assert ensemble_radius(aset.attractor_proxy, spec) < 1e-6
        # orbit samples decay along each orbit
        for orbit in aset.orbit_states:
            norms = np.linalg.norm(spec.embed(orbit), axis=1)
            assert norms[-1] <= norms[0] + 1e-12

    def test_m_range_single(self, rng, modal_setup):
        spec, cfg = modal_setup
        absorbed = random_states(rng, spec, 5)
        law = DecayLaw("exponential", 1.0, 0.5)
        aset = attracting_set(absorbed, (1, 1), law, 4.0, 0.5, cfg, spec)
        assert np.all(aset.birth_times == 1)

    def test_orbit_replay_modal(self, rng, modal_setup):
        spec, cfg = modal_setup
        absorbed = random_states(rng, spec, 4)
        law = DecayLaw("exponential", 1.0, 0.5)
        aset = attracting_set(absorbed, (1, 1), law, 3.0, 0.5, cfg, spec)
        taus = aset.orbit_times
        for chain in aset.orbit_states:
            for t0, t1, p0, p1 in zip(taus, taus[1:], chain, chain[1:]):
                stepped = modal_evolve_states(p0, cfg, t1 - t0)
                assert np.max(np.abs(stepped - p1)) <= 1e-12

    def test_orbit_replay_wave(self, rng):
        spec = MetricSpec.dirichlet_1d(4)
        cfg = WaveSystemConfig(
            mode_count=4, k=1.0, p=2.0, l=1.0, f_coeffs=(0.0, -1.0, 0.0, 1.0), dt=0.125
        )
        absorbed = random_states(rng, spec, 4)
        law = DecayLaw("exponential", 5.0, 0.3)
        aset = attracting_set(absorbed, (1, 1), law, 3.0, 0.5, cfg, spec)
        taus, chain = aset.orbit_times, aset.orbit_states[0]
        for t0, t1, p0, p1 in zip(taus, taus[1:], chain, chain[1:]):
            stepped = cfg.sample(p0, [t1 - t0])[0]
            assert np.max(np.abs(stepped - p1)) <= 1e-8

    def test_first_orbit_sample_is_net_point(self, rng, modal_setup):
        spec, cfg = modal_setup
        absorbed = random_states(rng, spec, 5)
        law = DecayLaw("exponential", 1.0, 0.5)
        aset = attracting_set(absorbed, (1, 2), law, 4.0, 0.5, cfg, spec)
        assert aset.orbit_times[0] == 0.0
        for orbit, net_state in zip(aset.orbit_states, aset.net_states):
            assert np.array_equal(orbit[0], net_state)

    def test_horizon_must_reach_m_max(self, rng, modal_setup):
        spec, cfg = modal_setup
        absorbed = random_states(rng, spec, 3)
        law = DecayLaw("exponential", 1.0, 0.5)
        with pytest.raises(ValueError):
            attracting_set(absorbed, (1, 5), law, 3.0, 0.5, cfg, spec)

    def test_orbit_grid_ends_at_t_orbit(self, rng, modal_setup):
        # the certificate reads the orbit grid, so it must reach t_orbit itself
        spec, cfg = modal_setup
        absorbed = random_states(rng, spec, 3)
        law = DecayLaw("exponential", 1.0, 0.5)
        assert attracting_set(absorbed, (1, 1), law, 3.0, 0.5, cfg, spec).orbit_times[-1] == 3.0
        with pytest.raises(ValueError, match="^t_orbit = 3.25 is not a whole number of "):
            attracting_set(absorbed, (1, 1), law, 3.25, 0.5, cfg, spec)

    def test_m_range_out_of_order_is_refused_before_the_loop(self, rng, modal_setup):
        # no birth time, so no image to miss and no net to join
        spec, cfg = modal_setup
        absorbed = random_states(rng, spec, 3)
        law = DecayLaw("exponential", 1.0, 0.5)
        with pytest.raises(ValueError, match=r"^m_range must satisfy m_min <= m_max, got \(3, "):
            build_attracting_set(absorbed, (3, 2), [], None, law, 4.0, 0.5, cfg, spec)


class TestRecord:
    """The record checks itself, so a ``replace`` is checked as a build is."""

    @pytest.fixture
    def aset(self, rng, modal_setup):
        spec, cfg = modal_setup
        law = DecayLaw("exponential", 1.0, 0.5)
        return attracting_set(random_states(rng, spec, 4), (1, 2), law, 4.0, 0.5, cfg, spec)

    def test_the_net_stage_leaves_the_proxy_to_its_caller(self, aset):
        assert replace(aset, attractor_proxy=None).attractor_proxy is None

    @pytest.mark.parametrize("field, change", [
        ("t_star", lambda a: {"t_star": -1.0}),
        ("t_orbit", lambda a: {"t_orbit": 0.0}),
        ("orbit_sample_every", lambda a: {"orbit_sample_every": float("nan")}),
        ("m_range", lambda a: {"m_range": (1, 5)}),
        ("orbit_sample_every", lambda a: {"orbit_times": a.orbit_times + 0.1}),
        ("t_orbit", lambda a: {"orbit_times": a.orbit_times[:-1]}),
        ("attractor_proxy", lambda a: {"attractor_proxy": np.full((2, 4), np.inf)}),
        ("attractor_proxy", lambda a: {"attractor_proxy": np.zeros((2, 6))}),
        ("net_seeds", lambda a: {"net_seeds": a.net_seeds[:, :2]}),
        ("birth_times", lambda a: {"birth_times": a.birth_times + 0.5}),
        ("birth_times", lambda a: {"birth_times": np.full(a.birth_times.shape, np.nan)}),
        ("birth_times", lambda a: {"birth_times": np.full_like(a.birth_times, 3)}),
        ("birth_times", lambda a: {"birth_times": np.zeros_like(a.birth_times)}),
    ], ids=["negative_t_star", "zero_t_orbit", "nan_cadence", "m_range_past_t_orbit",
            "shifted_orbit_grid", "orbit_grid_short_of_t_orbit", "infinite_proxy",
            "wide_proxy", "narrow_seeds", "half_birth_time", "nan_birth_time",
            "birth_time_past_m_max", "birth_time_before_m_min"])
    def test_replace_is_checked(self, aset, field, change):
        with pytest.raises(ValueError, match=f"'{field}'"):
            replace(aset, **change(aset))


class TestVerifyAttraction:
    def _build(self, rng, spec, cfg, law, absorbed, m_range=(1, 2), t_orbit=10.0):
        return attracting_set(absorbed, m_range, law, t_orbit, 0.25, cfg, spec)

    def test_building_ensemble_covered_at_birth_time(self, rng, modal_setup):
        spec, cfg = modal_setup
        absorbed = random_states(rng, spec, 8)
        law = DecayLaw("exponential", 1.0, 0.3)
        aset = self._build(rng, spec, cfg, law, absorbed)
        m = 2
        # t_star + 1 + m_min = m: the first check time is the birth time m
        cert = certify(aset, absorbed, 0.0, cfg, spec)
        assert cert.times[0] == m
        assert cert.measured_semidist[0] <= law.eval(m) + 1e-12

    def test_linear_oracle_fitted_law_fully_satisfied(self, rng, modal_setup):
        spec, cfg = modal_setup
        absorbed = random_states(rng, spec, 10, scale=1.5)
        # energy-multiplier envelope: |S(t)x| <= sqrt(3) |x| exp(-t/2) for l = 2
        radius = ensemble_radius(absorbed, spec)
        law = DecayLaw("exponential", 2.0 * np.sqrt(3.0) * radius, 0.5)
        aset = self._build(rng, spec, cfg, law, absorbed)
        fresh = random_states(rng, spec, 6, scale=1.5)
        cert = certify(aset, fresh, 0.0, cfg, spec)
        assert np.array_equal(cert.times, np.arange(2.0, 10.25, 0.25))
        assert cert.satisfied_fraction == 1.0

    def test_contained_fresh_measures_zero(self, rng, modal_setup):
        spec, cfg = modal_setup
        absorbed = random_states(rng, spec, 5)
        # tiny radius forces every evolved point into the net
        law = DecayLaw("exponential", 1e-9, 1e-6)
        aset = self._build(rng, spec, cfg, law, absorbed, t_orbit=3.0)
        cert = certify(aset, absorbed, 0.0, cfg, spec)
        assert np.array_equal(cert.times, [2.0, 2.25, 2.5, 2.75, 3.0])
        assert np.all(cert.measured_semidist <= 1e-10)

    def test_window_validation(self, rng, modal_setup):
        spec, cfg = modal_setup
        absorbed = random_states(rng, spec, 4)
        law = DecayLaw("exponential", 1.0, 0.3)
        aset = self._build(rng, spec, cfg, law, absorbed)
        # t_star + 1 + m_min = 10.25 is past t_orbit = 10
        with pytest.raises(ValueError, match="^verification window is empty: entering time 8.25 "):
            certify(aset, absorbed, 8.25, cfg, spec)
        # one held-out block per orbit time, not per check time
        blocks = cfg.sample(absorbed, aset.orbit_times[1:])
        with pytest.raises(ValueError, match="^need one held-out block per orbit time: got 40 "
                                             "for 41$"):
            verify_attraction(aset, blocks, 0.0, spec)
        # the last orbit time is a check time
        assert certify(aset, absorbed, 8.0, cfg, spec).times.tolist() == [10.0]

    def test_monotone_refinement(self, rng, modal_setup):
        spec, cfg = modal_setup
        absorbed = random_states(rng, spec, 8)
        law = DecayLaw("exponential", 1.0, 0.3)
        fresh = random_states(rng, spec, 5)
        # t_star = 2 starts both windows at t = 4
        small = attracting_set(absorbed, (1, 2), law, 8.0, 0.25, cfg, spec)
        big = attracting_set(absorbed, (1, 4), law, 8.0, 0.25, cfg, spec)
        cert_small = certify(small, fresh, 2.0, cfg, spec)
        cert_big = certify(big, fresh, 2.0, cfg, spec)
        assert np.array_equal(cert_small.times, np.arange(4.0, 8.25, 0.25))
        assert np.array_equal(cert_big.times, cert_small.times)
        assert np.all(cert_big.measured_semidist <= cert_small.measured_semidist + 1e-12)

    def test_certificate_slope_matches_rate(self, rng, modal_setup):
        spec, cfg = modal_setup
        absorbed = random_states(rng, spec, 10, scale=1.5)
        radius = ensemble_radius(absorbed, spec)
        beta = 0.5
        law = DecayLaw("exponential", 2.0 * np.sqrt(3.0) * radius, beta)
        aset = self._build(rng, spec, cfg, law, absorbed)
        fresh = random_states(rng, spec, 6, scale=1.5)
        cert = certify(aset, fresh, 0.0, cfg, spec)
        mask = cert.measured_semidist > 1e-8
        slope = np.polyfit(
            cert.times[mask], np.log(cert.measured_semidist[mask]), 1
        )[0]
        assert slope <= -0.9 * beta

    def test_row_within_round_off_of_its_bound_is_written_and_counted(
        self, rng, modal_setup, tmp_path
    ):
        spec, cfg = modal_setup
        law = DecayLaw("exponential", 1.0, 0.5)
        # the absorbed sample sits at the origin, so the target is the origin
        aset = self._build(rng, spec, cfg, law, np.zeros((2, 4)), m_range=(1, 1), t_orbit=3.0)
        # t_star + 1 + m_min = t_orbit: the last orbit time is the one check time
        bound = law.eval(3.0 - 1.0 - 1.0)
        distance = bound * (1 + 1e-13)
        fresh = np.zeros((aset.orbit_times.size, 1, 4))
        fresh[-1, 0, 2] = distance  # one mode-1 velocity
        cert = verify_attraction(aset, fresh, 1.0, spec)
        assert cert.times.tolist() == [3.0]
        assert cert.measured_semidist[0] == distance > cert.bound_values[0] == bound
        assert cert.satisfied_fraction == 1.0
        cert.to_csv(tmp_path / "certificate.csv")
        assert (tmp_path / "certificate.csv").read_text().splitlines()[1].endswith(",1")


class TestPersistence:
    def test_round_trip(self, rng, modal_setup, tmp_path):
        spec, cfg = modal_setup
        absorbed = random_states(rng, spec, 5)
        law = DecayLaw("exponential", 1.2, 0.35)
        aset = attracting_set(absorbed, (1, 2), law, 4.0, 0.5, cfg, spec)
        save_attracting_set(aset, tmp_path / "aset", extra={"absorbing_radius": 2.0})
        back = load_attracting_set(tmp_path / "aset")
        assert back.law_used == law
        assert back.m_range == aset.m_range
        assert back.t_orbit == aset.t_orbit
        assert len(back.birth_times) == len(aset.birth_times)
        assert np.array_equal(back.birth_times, aset.birth_times)
        assert np.array_equal(back.net_seeds, aset.net_seeds)
        assert np.array_equal(back.net_states, aset.net_states)
        assert np.array_equal(aset.target_matrix(), back.target_matrix())
        assert np.array_equal(back.orbit_times, aset.orbit_times)
        assert back.orbit_states.shape == aset.orbit_states.shape

    @staticmethod
    def _saved(aset, directory) -> dict:
        """The bytes of every file ``save_attracting_set`` writes, by name."""
        save_attracting_set(aset, directory, extra={"t_star": 1.0})
        return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}

    def test_set_carried_through_pickle_and_the_proxy_fill_saves_the_same_bytes(
        self, rng, modal_setup, tmp_path
    ):
        # the net stage renders the tables of a set without its proxy, the set
        # is pickled back and this process fills the proxy in: the files are
        # those of an equal set saved afresh
        spec, cfg = modal_setup
        absorbed = random_states(rng, spec, 5)
        law = DecayLaw("exponential", 1.2, 0.35)
        built = attracting_set(absorbed, (1, 2), law, 4.0, 0.5, cfg, spec)
        bare = replace(built, attractor_proxy=None)
        rendered = bare.net_tables
        carried = pickle.loads(pickle.dumps(bare))
        filled = carried.with_proxy(built.attractor_proxy)
        assert filled.__dict__["net_tables"] == rendered
        assert filled.attractor_proxy is built.attractor_proxy
        fresh = attracting_set(absorbed, (1, 2), law, 4.0, 0.5, cfg, spec)
        assert "net_tables" not in fresh.__dict__
        assert self._saved(filled, tmp_path / "filled") == self._saved(fresh, tmp_path / "fresh")

    @pytest.mark.parametrize("field", ["orbit_states", "net_states"])
    def test_replaced_set_saves_its_new_arrays(self, rng, modal_setup, tmp_path, field):
        # tables rendered before a replace are not the new set's: its files
        # follow its own arrays
        spec, cfg = modal_setup
        absorbed = random_states(rng, spec, 5)
        law = DecayLaw("exponential", 1.2, 0.35)
        built = attracting_set(absorbed, (1, 2), law, 4.0, 0.5, cfg, spec)
        built.net_tables
        changed = replace(built, **{field: 0.5 * getattr(built, field)})
        save_attracting_set(changed, tmp_path / "changed")
        back = load_attracting_set(tmp_path / "changed")
        assert np.array_equal(getattr(back, field), getattr(changed, field))
        assert not np.array_equal(getattr(back, field), getattr(built, field))

    def test_load_rejects_ragged_orbits(self, rng, modal_setup, tmp_path):
        spec, cfg = modal_setup
        absorbed = random_states(rng, spec, 5)
        law = DecayLaw("exponential", 1.2, 0.35)
        aset = attracting_set(absorbed, (1, 2), law, 4.0, 0.5, cfg, spec)
        save_attracting_set(aset, tmp_path / "aset")
        orbits = tmp_path / "aset" / "orbits.csv"
        orbits.write_text("".join(orbits.read_text().splitlines(keepends=True)[:-1]))
        with pytest.raises(ValueError, match="time grid"):
            load_attracting_set(tmp_path / "aset")
