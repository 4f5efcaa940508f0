import itertools
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from attractorlab import dynamics
from attractorlab.attracting import save_attracting_set
from attractorlab.decay import DecayLaw
from attractorlab.dynamics import (
    BlowUpError,
    DampingStack,
    LinearModalConfig,
    NonDissipativeError,
    WaveSystemConfig,
    absorbing_radius,
    evolve_states,
    lyapunov,
    modal_evolve_states,
    modal_propagator,
    modal_slow_rate,
    wave_config_from_dict,
    wave_rhs,
    states_norms,
    _sample_times,
    _settle_times,
    _sine_collocation,
    _Stepper,
    _horner,
    _horner_start,
)
from attractorlab.experiments import sample_phase_ball
from attractorlab.phase import MetricSpec

from conftest import attracting_set, random_point, random_states


def linear_wave_config(n_modes, damping, dt):
    return WaveSystemConfig(mode_count=n_modes, k=0.0, l=damping, dt=dt)


def sampled_norms(cfg, states, horizon):
    """The engine's sample grid on [0, horizon] and the energy norms on it."""
    times = cfg.sample_grid(horizon, 200)
    return times, states_norms(cfg.sample(states, times), cfg.eigenvalues)


def probe_radius(cfg, probe, burn_in, window):
    """``absorbing_radius`` of the (P, 2N) probe states sampled over
    [0, burn_in + window]."""
    times, norms = sampled_norms(cfg, probe, burn_in + window)
    return absorbing_radius(times, norms, burn_in)


class TestWaveConfig:
    def test_dt_stability_guard(self):
        with pytest.raises(ValueError, match="dt"):
            WaveSystemConfig(mode_count=16, dt=0.1)
        WaveSystemConfig(mode_count=16, dt=0.5 / 16)

    def test_collocation_floor(self):
        with pytest.raises(ValueError, match="collocation"):
            WaveSystemConfig(mode_count=8, dt=0.05, collocation_points=16)

    def test_f_structural_check(self):
        # even top degree and negative leading coefficient both rejected
        with pytest.raises(ValueError, match="odd top degree"):
            WaveSystemConfig(mode_count=2, dt=0.1, f_coeffs=(0.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="odd top degree"):
            WaveSystemConfig(mode_count=2, dt=0.1, f_coeffs=(0.0, -1.0))
        WaveSystemConfig(mode_count=2, dt=0.1, f_coeffs=(0.0, -1.0, 0.0, 1.0))
        WaveSystemConfig(mode_count=2, dt=0.1, f_coeffs=())

    def test_kernel_validation(self):
        with pytest.raises(ValueError, match="kernel"):
            WaveSystemConfig(mode_count=3, dt=0.1, kernel=((1.0, (1.0, 0.0)),))

    def test_from_dict_padding_and_scientific_notation(self):
        cfg = wave_config_from_dict(
            {
                "mode_count": 4,
                "k": "1e0",
                "p": 2,
                "l": "2.5e-1",
                "f_coeffs": [0, "-1e0", 0, 1],
                "kernel": [{"weight": "1e-1", "coeffs": [1.0]}],
                "h_coeffs": [4.0],
                "dt": "6.25e-2",
            }
        )
        assert cfg.l == 0.25 and cfg.dt == 0.0625
        assert cfg.h_coeffs == (4.0, 0.0, 0.0, 0.0)
        assert cfg.kernel[0][1] == (1.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("field", ["f_coeffs", "h_coeffs", "kernel.coeffs", "kernel.weight"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_from_dict_refuses_a_non_finite_coefficient(self, field, bad):
        # a string read as a number, as '1e-3' is
        raw = {"mode_count": 2, "dt": 0.2, "f_coeffs": [0.0, -1.0, 0.0, 1.0],
               "h_coeffs": [1.0, 0.0], "kernel": [{"weight": 0.1, "coeffs": [1.0, 0.0]}]}
        if field.startswith("kernel."):
            key = field.split(".")[1]
            entry = raw["kernel"][0]
            entry[key] = bad if key == "weight" else [1.0, bad]
        else:
            raw[field] = [bad] + raw[field][1:]
        with pytest.raises(ValueError, match=rf"^config field 'system\.{field}' must be finite"):
            wave_config_from_dict(raw)

    def test_from_dict_unknown_key(self):
        with pytest.raises(ValueError, match="unknown"):
            wave_config_from_dict({"mode_count": 2, "dt":  0.1, "gamma": 1.0})


class TestWaveRhs:
    def test_zero_state_is_equilibrium(self):
        cfg = WaveSystemConfig(mode_count=3, k=1.0, l=1.0, f_coeffs=(0.0, -1.0, 0.0, 1.0), dt=0.1)
        dy = wave_rhs(np.zeros(6), cfg)
        assert np.all(dy == 0.0)

    def test_single_mode_damped_oscillator(self):
        cfg = linear_wave_config(1, 0.7, 0.25)
        dy = wave_rhs(np.array([2.0, -1.0]), cfg)
        assert dy[0] == -1.0
        assert dy[1] == pytest.approx(-1.0 * 2.0 - 0.7 * (-1.0), rel=1e-15)

    def test_rank_one_kernel_projection(self):
        g1 = (1.0, 0.0, 0.0)
        cfg = WaveSystemConfig(mode_count=3, k=0.0, l=0.0, kernel=((1.0, g1),), dt=0.1)
        state = np.array([0.0, 0.0, 0.0, 3.0, 5.0, 0.0])
        base = WaveSystemConfig(mode_count=3, k=0.0, l=0.0, dt=0.1)
        with_kernel = wave_rhs(state, cfg)[3:]
        without = wave_rhs(state, base)[3:]
        assert np.allclose(with_kernel - without, [3.0, 0.0, 0.0], atol=1e-15)

    def test_nonlinear_damping_factor(self):
        cfg = WaveSystemConfig(mode_count=2, k=2.0, p=2.0, l=0.0, dt=0.2)
        state = np.array([0.0, 0.0, 3.0, 4.0])
        dy = wave_rhs(state, cfg)
        # ||u_t||^2 = 25, so the damping term is -2 * 25 * b
        assert np.allclose(dy[2:], -50.0 * state[2:])

    def test_batched_rows_match_single_rows(self, rng):
        cfg = WaveSystemConfig(mode_count=4, k=1.0, l=0.5, f_coeffs=(0.0, -1.0, 0.0, 1.0),
                               kernel=((0.2, (1.0, 0.0, 0.0, 0.0)),), dt=0.1)
        states = random_states(rng, MetricSpec.dirichlet_1d(4), 3)
        batched = wave_rhs(states, cfg)
        for row, y in zip(batched, states):
            assert np.allclose(row, wave_rhs(y, cfg), rtol=1e-14, atol=1e-14)


class TestEvolve:
    def test_zero_horizon_single_sample(self, rng):
        cfg = linear_wave_config(2, 1.0, 0.1)
        spec = MetricSpec.dirichlet_1d(2)
        p0 = random_point(rng, spec)
        samples = evolve_states(p0, cfg, [0.0])
        assert samples.shape == (1, 4)
        assert np.array_equal(samples[0], p0)

    def test_semigroup_composition(self, rng):
        cfg = WaveSystemConfig(
            mode_count=4, k=1.0, p=2.0, l=0.5, f_coeffs=(0.0, -1.0, 0.0, 1.0), dt=0.05
        )
        spec = MetricSpec.dirichlet_1d(4)
        for _ in range(5):
            y0 = random_point(rng, spec)
            direct = evolve_states(y0, cfg, [2.0])[0]
            composed = evolve_states(evolve_states(y0, cfg, [1.0])[0], cfg, [1.0])[0]
            denom = max(1.0, float(np.linalg.norm(direct)))
            assert np.linalg.norm(direct - composed) / denom <= 1e-6

    def test_single_mode_matches_characteristic_roots(self):
        # z'' + z' + z = 0 from (1, 0): roots -1/2 +- i sqrt(3)/2
        cfg = linear_wave_config(1, 1.0, 0.05)
        y5 = evolve_states(np.array([1.0, 0.0]), cfg, [5.0])[0]
        om = np.sqrt(3.0) / 2.0
        z = np.exp(-2.5) * (np.cos(om * 5.0) + (0.5 / om) * np.sin(om * 5.0))
        v = -np.exp(-2.5) * (1.0 / om) * np.sin(om * 5.0)
        assert abs(y5[0] - z) <= 1e-6
        assert abs(y5[1] - v) <= 1e-6

    def test_blow_up_carries_time(self):
        g1 = (1.0,)
        cfg = WaveSystemConfig(mode_count=1, k=0.0, l=0.0, kernel=((200.0, g1),), dt=0.5)
        with pytest.raises(BlowUpError) as err:
            evolve_states(np.array([0.0, 1.0]), cfg, [50.0])
        assert 0.0 < err.value.time <= 50.0

    def test_blow_up_survives_pickling(self):
        # an error that leaves a worker process is pickled on the way out
        err = pickle.loads(pickle.dumps(BlowUpError(1.5)))
        assert type(err) is BlowUpError
        assert err.time == 1.5
        assert str(err) == str(BlowUpError(1.5))

    def test_sample_cadence_validation(self, rng):
        cfg = linear_wave_config(2, 1.0, 0.1)
        spec = MetricSpec.dirichlet_1d(2)
        p0 = random_point(rng, spec)
        with pytest.raises(ValueError, match="multiple of dt"):
            evolve_states(p0, cfg, [0.0, 0.15, 0.3])
        with pytest.raises(ValueError, match="multiple of dt"):
            evolve_states(p0, cfg, [1.05])
        with pytest.raises(ValueError, match="multiple of dt"):
            cfg.sample_grid(1.05, 10)
        with pytest.raises(ValueError, match="cap"):
            evolve_states(p0, cfg, [1e7])

        def one_at_a_time(t):
            # the rule ``steps`` vectorises: round half to even, then check
            k = round(t / cfg.dt)
            assert abs(k * cfg.dt - t) <= 1e-9 * max(1.0, abs(t))
            return k

        # exact multiples, and a large t just inside the 1e-9 max(1, |t|) tolerance
        times = [0.0, 0.1, 0.3, 2.5, 12.0, 1e6 - 9.9e-4, 1e6 + 9.9e-4]
        assert cfg.steps(times).tolist() == [one_at_a_time(t) for t in times]
        assert cfg.steps(0.3).shape == () and int(cfg.steps(0.3)) == 3
        with pytest.raises(ValueError, match=r"^t_orbit = 1e\+06 is not a multiple of dt = 0.1$"):
            cfg.steps([0.0, 1e6 + 1.01e-3], "t_orbit")
        with pytest.raises(ValueError, match=r"^sample time = inf is not a multiple"):
            cfg.steps([0.1, np.inf])
        # on the dt grid, but past an integer step index
        with pytest.raises(ValueError, match=r"^t_orbit = 1e\+300 needs 1e\+301 steps .*2\*\*63$"):
            cfg.steps(1e300, "t_orbit")

    def test_rk4_order_against_oracle(self, rng):
        lam = np.arange(1.0, 5.0) ** 2
        oracle = LinearModalConfig(1.0, lam)
        y0 = rng.standard_normal(8)
        exact = modal_evolve_states(y0, oracle, 2.0)
        dts = np.array([0.1, 0.05, 0.025, 0.0125])
        errs = []
        for dt in dts:
            cfg = linear_wave_config(4, 1.0, dt)
            errs.append(np.max(np.abs(evolve_states(y0, cfg, [2.0])[0] - exact)))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope >= 3.7


def reference_rhs(y, cfg):
    """The plain right-hand side the buffered kernel must reproduce bit for
    bit: numpy's polyval, a concatenate and freshly allocated arrays."""
    n = cfg.mode_count
    synth, weight = _sine_collocation(n, cfg.collocation_points)
    a, b = y[..., :n], y[..., n:]
    sq = np.sum(b * b, axis=-1, keepdims=True)
    damp = cfg.l + (cfg.k * sq ** (cfg.p / 2.0) if cfg.k else 0.0)
    db = -cfg.eigenvalues * a - damp * b + np.array(cfg.h_coeffs)
    if cfg.f_coeffs:
        u_vals = a @ synth.T
        f_vals = np.polynomial.polynomial.polyval(u_vals, np.array(cfg.f_coeffs), tensor=False)
        db = db - weight * (f_vals @ synth)
    if cfg.kernel:
        weights = np.array([w for w, _ in cfg.kernel])
        vectors = np.array([c for _, c in cfg.kernel])
        db = db + ((b @ vectors.T) * weights) @ vectors
    return np.concatenate([b, db], axis=-1)


def reference_rk4_step(y, cfg):
    dt = cfg.dt
    k1 = reference_rhs(y, cfg)
    k2 = reference_rhs(y + 0.5 * dt * k1, cfg)
    k3 = reference_rhs(y + 0.5 * dt * k2, cfg)
    k4 = reference_rhs(y + dt * k3, cfg)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_blow_up_time(y, cfg, steps):
    """First step time at which the reference integration is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            y = reference_rk4_step(y, cfg)
            if not np.all(np.isfinite(y)):
                return (step + 1) * cfg.dt
    return None


# six modes; between them the systems switch each term on and off: f, the
# kernel, the nonlinear damping k, p = 2 against p != 2, and the forcing h
KERNEL_SYSTEMS = {
    "linear": dict(l=0.5),
    "f_k_p2": dict(k=1.0, l=0.5, f_coeffs=(0.0, -1.0, 0.0, 1.0)),
    "kernel_h_p3": dict(k=1.0, p=3.0, kernel=((0.3, (0.5, -0.2, 0.1, 0.0, 0.3, -0.4)),),
                        h_coeffs=(4.0, 0.0, -1.0, 0.0, 0.0, 0.5)),
    "all_terms_p1": dict(k=2.0, p=1.0, l=0.25, f_coeffs=(0.5, -1.0, 0.0, 2.0),
                         kernel=((0.1, (1.0,) + (0.0,) * 5), (-0.2, (0.0, 1.0) + (0.0,) * 4)),
                         h_coeffs=(1.0,) * 6),
    # monic f at the Horner starts the shipped systems never reach: start 1
    # with a u^2 term, and start 2 with three more coefficients after it
    "monic_cubic_start1": dict(l=0.5, f_coeffs=(0.0, -1.0, 0.5, 1.0)),
    "monic_quintic_start2": dict(k=1.0, l=0.5, f_coeffs=(0.0, -1.0, 0.0, 2.0, 0.0, 1.0)),
}


# the benchmark's wave system, copied from bench/workloads.py: 32 modes on
# 96 collocation points and a rank-one kernel, sizes at which the matrix
# products take BLAS's real code paths
BENCH_SYSTEM = dict(mode_count=32, k=1.0, p=2.0, l=2.0, f_coeffs=(0.0, -1.0, 0.0, 1.0),
                    kernel=((0.1, (1.0,) + (0.0,) * 31),), h_coeffs=(4.0,) + (0.0,) * 31,
                    dt=0.015625, collocation_points=96)


class TestKernelMatchesReference:
    @pytest.mark.parametrize("shape", [(12,), (1, 12), (20, 12), (2, 5, 12)])
    @pytest.mark.parametrize("system", sorted(KERNEL_SYSTEMS))
    def test_evolve_is_byte_identical_to_the_reference(self, system, shape):
        cfg = WaveSystemConfig(mode_count=6, dt=0.5 / 6, **KERNEL_SYSTEMS[system])
        y0 = 0.3 * np.random.default_rng(5).standard_normal(shape)
        assert wave_rhs(y0, cfg).tobytes() == reference_rhs(y0, cfg).tobytes()
        times = np.arange(0, 201, 50) * cfg.dt
        want = [y0]
        for _ in range(200):
            want.append(reference_rk4_step(want[-1], cfg))
        assert evolve_states(y0, cfg, times).tobytes() == np.stack(want[::50]).tobytes()

    @pytest.mark.parametrize("batch", [1, 30])
    def test_benchmark_system_is_byte_identical_to_the_reference(self, batch):
        cfg = WaveSystemConfig(**BENCH_SYSTEM)
        y0 = 0.3 * np.random.default_rng(3).standard_normal((batch, 64))
        assert wave_rhs(y0, cfg).tobytes() == reference_rhs(y0, cfg).tobytes()
        want = [y0]
        for _ in range(20):
            want.append(reference_rk4_step(want[-1], cfg))
        times = np.arange(21) * cfg.dt
        assert evolve_states(y0, cfg, times).tobytes() == np.stack(want).tobytes()

    # 9 and 7 are the benchmark's net sizes; (64,) and (1, 64) reach np.dot's
    # one-row cases, and (2, 7, 64) the stacked batch that keeps np.matmul
    @pytest.mark.parametrize("shape", [(64,), (1, 64), (2, 64), (7, 64), (9, 64), (13, 64),
                                       (14, 64), (30, 64), (2, 7, 64)])
    @pytest.mark.parametrize("start", ["random", "zero_row_signed_zeros"])
    @pytest.mark.parametrize("kernel", ["rank_one", "dense_rank_two"])
    def test_benchmark_system_batch_shapes_are_byte_identical(self, shape, start, kernel):
        system = dict(BENCH_SYSTEM)
        rng = np.random.default_rng(6)
        if kernel == "dense_rank_two":
            system["kernel"] = tuple((w, tuple(rng.standard_normal(32) / 8)) for w in (0.1, -0.05))
        cfg = WaveSystemConfig(**system)
        y0 = 0.3 * rng.standard_normal(shape)
        if start == "zero_row_signed_zeros":
            y0.reshape(-1, 64)[0] = 0.0
            y0[..., ::5] = -0.0
        assert wave_rhs(y0, cfg).tobytes() == reference_rhs(y0, cfg).tobytes()
        want = [y0]
        for _ in range(20):
            want.append(reference_rk4_step(want[-1], cfg))
        times = np.arange(21) * cfg.dt
        assert evolve_states(y0, cfg, times).tobytes() == np.stack(want).tobytes()

    @pytest.mark.parametrize("shape", [(9, 64), (2, 7, 64)])
    def test_one_row_blow_up_time_matches_the_reference(self, shape):
        cfg = WaveSystemConfig(**BENCH_SYSTEM)
        y0 = 0.05 * np.random.default_rng(8).standard_normal(shape)
        y0.reshape(-1, 64)[3, 32:] *= 1e3  # only this row's damping is too stiff for dt
        with pytest.raises(BlowUpError) as err:
            evolve_states(y0, cfg, [100 * cfg.dt])
        assert err.value.time == reference_blow_up_time(y0, cfg, 100)
        assert np.all(np.isfinite(evolve_states(np.delete(y0.reshape(-1, 64), 3, axis=0), cfg,
                                                [100 * cfg.dt])))

    @pytest.mark.parametrize("layout", ["fortran", "column_slice"])
    def test_non_contiguous_start_is_copied_exactly(self, layout):
        cfg = WaveSystemConfig(mode_count=6, dt=0.5 / 6, **KERNEL_SYSTEMS["all_terms_p1"])
        base = np.random.default_rng(4).standard_normal((5, 12))
        base[::2, ::3] = -0.0
        if layout == "fortran":
            y0 = np.asfortranarray(base)
        else:
            wide = np.ones((5, 20))
            wide[:, 3:15] = base
            y0 = wide[:, 3:15]
        assert not y0.flags.c_contiguous and np.signbit(y0[0, 0])
        before = y0.tobytes()
        out = evolve_states(y0, cfg, [0.0, 10 * cfg.dt])
        assert out[0].tobytes() == before  # -0.0 stays -0.0
        assert y0.tobytes() == before
        contiguous = evolve_states(np.ascontiguousarray(y0), cfg, [0.0, 10 * cfg.dt])
        assert out.tobytes() == contiguous.tobytes()

    @pytest.mark.parametrize("lead", [(1,), (9,), (20,), (30,), (3, 30)],
                             ids=["P1", "P9", "P20", "P30", "stack3x30"])
    def test_state_and_stage_blocks_are_contiguous(self, lead):
        cfg = WaveSystemConfig(**BENCH_SYSTEM)
        stack = DampingStack(tuple(replace(cfg, l=v) for v in (1.0, 2.0, 4.0)))
        engine = stack if len(lead) > 1 else cfg
        stepper = _Stepper(engine, lead + (64,))
        # positions and velocities are planar blocks, never strided halves of rows
        for planar in [stepper.y, *stepper.stages]:
            assert planar.shape == (2,) + lead + (32,)
            assert all(block.flags.c_contiguous for block in planar)
        # the finiteness mask and the batch-shaped mode rows are set up once
        assert stepper.finite.shape == (2,) + lead + (32,) and stepper.finite.dtype == bool
        for row in (stepper.neg_lam, stepper.h):
            assert row.shape == lead + (32,) and row.flags.c_contiguous
        # every float array it holds, as an attribute or in the bound step's
        # closures, starts on a 64-byte boundary: y and five stages with their
        # twelve blocks, five work buffers, the two mode rows, the kernel
        # weights, the synthesis and kernel tables with their two transposes,
        # and a stack's dampings; and the 0-d operands dt/2, dt, dt/6, 2, the
        # quadrature weight, k, f's four coefficients and a scalar l
        held = [*vars(stepper).values(), *stepper.stages,
                *(cell.cell_contents for fn in (stepper.rhs, stepper.step)
                  for cell in fn.__closure__)]
        held += [c for v in held if isinstance(v, tuple) for c in v]  # f's coefficients
        arrays = {id(v): v for v in held if isinstance(v, np.ndarray) and v.dtype == float}
        buffers = [v for v in arrays.values() if v.ndim]
        assert len(buffers) == 30 + (len(lead) > 1)
        assert len(arrays) - len(buffers) == 11 - (len(lead) > 1)
        assert all(array.ctypes.data % 64 == 0 for array in arrays.values())

    def test_blow_up_time_matches_the_reference(self):
        cfg = WaveSystemConfig(mode_count=1, l=0.0, kernel=((200.0, (1.0,)),), dt=0.5)
        y0 = np.array([0.0, 1.0])
        with pytest.raises(BlowUpError) as err:
            evolve_states(y0, cfg, [50.0])
        assert err.value.time == reference_blow_up_time(y0, cfg, 100)

    @pytest.mark.parametrize("f_coeffs", [(0.0, -1.0, 0.0, 1.0), (0.5, -1.0, 0.0, 2.0, 0.0, 0.1)])
    def test_lyapunov_is_byte_identical_to_polyval(self, f_coeffs):
        cfg = WaveSystemConfig(mode_count=6, f_coeffs=f_coeffs, h_coeffs=(1.0,) * 6,
                               dt=0.5 / 6)
        synth, weight = _sine_collocation(6, cfg.collocation_points)
        # the potential F, F' = f and F(0) = 0, lowest degree first
        big_f = np.concatenate([[0.0], np.array(f_coeffs) / np.arange(1, len(f_coeffs) + 1)])
        y = 2.0 * np.random.default_rng(9).standard_normal((4, 7, 12))
        a, b = y[..., :6], y[..., 6:]
        e_val = 0.5 * (np.sum(b * b, axis=-1) + np.sum(cfg.eigenvalues * a * a, axis=-1))
        f_pot = np.polynomial.polynomial.polyval(a @ synth.T, big_f, tensor=False)
        l_val = e_val - a @ np.array(cfg.h_coeffs) + weight * np.sum(f_pot, axis=-1)
        got_e, got_l = lyapunov(y, cfg)
        assert got_e.tobytes() == e_val.tobytes()
        assert got_l.tobytes() == l_val.tobytes()


# the short starts of _horner against numpy's evaluator, on coefficient
# tuples that mix signed zeros and ones with arbitrary finite values
COEFF = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                  st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
# signed zeros, infinities, subnormals and values whose powers overflow
EDGE_X = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-310, -1.1e-308,
                   1.7e308, -1.7e308, 1e154, -1e154, 1e103, -1e103, 1.0, -1.0])


@st.composite
def horner_cases(draw):
    """Coefficients (lowest degree first, a finite nonzero leading one) and
    points x; most tuples are monic, with a zero second-highest coefficient
    and a zero or nonzero third-highest one."""
    coeffs = draw(st.lists(COEFF, min_size=2, max_size=7))
    form = draw(st.sampled_from(["as_drawn", "monic", "monic_zero_second",
                                 "monic_zero_second_and_third"]))
    if form != "as_drawn":
        coeffs[-1] = 1.0
    if form.startswith("monic_zero"):
        coeffs[-2] = draw(st.sampled_from([0.0, -0.0]))
    if form == "monic_zero_second_and_third" and len(coeffs) > 2:
        coeffs[-3] = draw(st.sampled_from([0.0, -0.0]))
    if coeffs[-1] == 0.0:
        coeffs[-1] = draw(st.sampled_from([2.0, -0.5]))
    x = draw(arrays(np.float64, draw(st.integers(0, 12)), elements=st.floats(allow_nan=False)))
    return tuple(coeffs), np.concatenate([EDGE_X, x])


class TestHorner:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=horner_cases())
    def test_every_start_gives_numpys_bits(self, case):
        coeffs, x = case
        finite = np.isfinite(x)
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.polynomial.polynomial.polyval(x, np.array(coeffs), tensor=False)
            # the stepper hands its coefficients over as 0-d arrays
            for given, start in itertools.product(
                    (coeffs, tuple(np.array(c) for c in coeffs)), {0, _horner_start(coeffs)}):
                got = _horner(given, x, None, start)
                assert got[finite].tobytes() == want[finite].tobytes()
                # numpy's c[-1] + x*0 is NaN at an infinite x; each start is non-finite there
                assert not np.isfinite(got[~finite]).any()

    def test_start_rules(self):
        assert _horner_start((0.0, -1.0, 0.0, 1.0)) == 2  # the benchmark's f: four ufuncs
        assert _horner_start((0.5, -1.0, 0.0, 1.0)) == 2
        assert _horner_start((0.5, 0.0, 0.0, 1.0)) == 1  # zero third: no x*x start
        assert _horner_start((0.5, -0.0, 0.0, 1.0)) == 1
        assert _horner_start((0.0, 1.0)) == 1
        assert _horner_start((0.0, 1.0, 0.5, 1.0)) == 1
        assert _horner_start((0.0, -1.0, 0.0, 2.0)) == 0
        assert _horner_start(KERNEL_SYSTEMS["monic_cubic_start1"]["f_coeffs"]) == 1
        assert _horner_start(KERNEL_SYSTEMS["monic_quintic_start2"]["f_coeffs"]) == 2
        cfg = WaveSystemConfig(**BENCH_SYSTEM)
        assert _Stepper(cfg, (9, 64)).f_start == 2


def stack_systems(modes, k, p, kernel, dampings) -> list:
    """The benchmark's f and h on ``modes`` modes with the given damping
    terms and kernel, one system per damping l."""
    rng = np.random.default_rng(modes)
    kernels = {
        "none": (),
        "rank_one": ((0.1, (1.0,) + (0.0,) * (modes - 1)),),
        "dense_rank_two": tuple((w, tuple(rng.standard_normal(modes) / 8)) for w in (0.1, -0.05)),
    }
    return [WaveSystemConfig(mode_count=modes, k=k, p=p, l=damping, f_coeffs=(0.0, -1.0, 0.0, 1.0),
                             kernel=kernels[kernel], h_coeffs=(4.0,) + (0.0,) * (modes - 1),
                             collocation_points=3 * modes)
            for damping in dampings]


def stepped(cfg, y0, steps=10) -> np.ndarray:
    """``y0`` after ``steps`` RK4 steps of ``cfg``, with no finiteness check,
    so a blow-up's non-finite values are kept."""
    stepper = _Stepper(cfg, y0.shape)
    stepper.load(y0)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            stepper.step()
    return stepper.store(stepper.y, np.empty_like(y0))


class TestDampingStack:
    # N = 32 is the benchmark's size; P = 9 and 7 its net sizes, 30 its probe
    @pytest.mark.parametrize("batch", [1, 2, 7, 9, 13, 30])
    @pytest.mark.parametrize("kernel", ["none", "rank_one", "dense_rank_two"])
    @pytest.mark.parametrize("k, p", [(0.0, 2.0), (1.0, 2.0), (0.5, 3.0)])
    @pytest.mark.parametrize("modes", [8, 32])
    def test_each_row_of_a_stack_is_byte_identical_to_the_row_alone(self, modes, k, p, kernel,
                                                                     batch):
        systems = stack_systems(modes, k, p, kernel, (0.0, 1.0, 2.5, 4.0))
        y0 = 0.3 * np.random.default_rng(batch).standard_normal((4, batch, 2 * modes))
        stack = stepped(DampingStack(tuple(systems)), y0)
        for row, cfg, start in zip(stack, systems, y0):
            alone = stepped(cfg, start)
            assert row.tobytes() == alone.tobytes()
            # a one-row stack steps through np.matmul, and gives the same bits
            assert stepped(DampingStack((cfg,)), start[None])[0].tobytes() == alone.tobytes()

    def test_a_row_that_blows_up_keeps_its_non_finite_values_in_its_slice(self):
        # l = 10000 is too stiff for dt = 0.0625
        systems = stack_systems(8, 1.0, 2.0, "rank_one", (1.0, 1e4, 2.0))
        stack = DampingStack(tuple(systems))
        y0 = 0.3 * np.random.default_rng(0).standard_normal((3, 7, 16))
        rows = stepped(stack, y0, 40)
        assert [bool(np.isfinite(row).all()) for row in rows] == [True, False, True]
        for row, cfg, start in zip(rows, systems, y0):
            assert row.tobytes() == stepped(cfg, start, 40).tobytes()
        with pytest.raises(BlowUpError) as alone:
            systems[1].sample(y0[1], [40 * stack.dt])
        with pytest.raises(BlowUpError) as stacked:
            stack.sample(y0, [40 * stack.dt])
        assert stacked.value.time == alone.value.time

    def test_sample_steps_a_one_row_stack_as_its_slice(self, monkeypatch):
        cfg = WaveSystemConfig(**BENCH_SYSTEM)
        y0 = 0.3 * np.random.default_rng(2).standard_normal((9, 64))
        times = np.arange(0, 21, 5) * cfg.dt
        calls = []
        evolve = dynamics.evolve_states

        def recorded(states, engine, grid):
            calls.append((engine, np.shape(states)))
            return evolve(states, engine, grid)

        monkeypatch.setattr(dynamics, "evolve_states", recorded)
        samples = DampingStack((cfg,)).sample(y0[None], times)
        assert calls == [(cfg, (9, 64))]
        assert samples.tobytes() == evolve(y0, cfg, times).tobytes()
        assert samples.shape == (times.size, 1, 9, 64)

    def test_members_are_the_shared_system_but_the_damping(self):
        systems = stack_systems(8, 1.0, 2.0, "rank_one", (1.0, 2.0, 4.0))
        stack = DampingStack(tuple(systems))
        assert stack.l.tobytes() == np.array([[[1.0]], [[2.0]], [[4.0]]]).tobytes()
        assert (stack.dt, stack.mode_count) == (0.0625, 8)
        assert stack.eigenvalues.tobytes() == systems[0].eigenvalues.tobytes()
        assert stack.steps([0.5]).tolist() == [8]
        with pytest.raises(AttributeError):
            stack.no_such_member

    @pytest.mark.parametrize("change", [dict(k=2.0), dict(h_coeffs=(1.0,) * 8), dict(dt=0.03125)])
    def test_systems_that_differ_beyond_the_damping_are_refused(self, change):
        systems = stack_systems(8, 1.0, 2.0, "rank_one", (1.0, 2.0))
        other = replace(systems[1], **change)
        with pytest.raises(ValueError, match="differ only in l"):
            DampingStack((systems[0], other))
        with pytest.raises(ValueError, match="differ only in l"):
            DampingStack(())

    def test_states_not_stacked_row_by_row_are_refused(self):
        stack = DampingStack(tuple(stack_systems(8, 1.0, 2.0, "none", (1.0, 2.0))))
        for shape in [(7, 16), (3, 7, 16), (2, 1, 7, 16)]:
            with pytest.raises(ValueError, match="a stack of 2 rows"):
                stack.sample(np.zeros(shape), [0.0])


class TestSparseFinitenessChecks:
    """``evolve_states`` checks finiteness at the sample marks only, and
    replays a failed segment to find the first non-finite step."""

    # sparse marks: the mid-segment case blows up inside the last, 140-step segment
    MARKS = (0, 20, 60, 200)

    @staticmethod
    def blow_up_case(engine, case):
        """(engine, start, the start and system of the row that blows up)."""
        rng = np.random.default_rng(8)
        if engine == "single":
            # l dt = 2.81 is past RK4's stability limit on the real axis (2.79),
            # so a start near rest grows for about 90 steps before it blows up
            cfg = WaveSystemConfig(**BENCH_SYSTEM)
            if case == "mid_segment":
                cfg = replace(cfg, l=180.0)
            y0 = (1e-3 if case == "mid_segment" else 0.05) * rng.standard_normal((9, 64))
            row = y0.reshape(-1, 64)[3]
        else:
            systems = stack_systems(32, 1.0, 2.0, "rank_one",
                                    (1.0, 180.0 if case == "mid_segment" else 2.5, 2.0))
            cfg = DampingStack(tuple(systems))
            y0 = 0.05 * rng.standard_normal((3, 9, 64))
            if case == "mid_segment":
                y0[1] *= 1e-3 / 0.05
            row = y0[1, 3]
        if case == "first_step":
            row[32:] = 1e160  # ||u_t||^2 overflows in the first stage
        elif case == "non_finite_start":
            row[0] = np.inf
        if engine == "single":
            return cfg, y0, (y0, cfg)
        return cfg, y0, (y0[1], systems[1])

    @pytest.mark.parametrize("with_zero", [True, False])
    @pytest.mark.parametrize("case", ["mid_segment", "first_step", "non_finite_start"])
    @pytest.mark.parametrize("engine", ["single", "stacked_row"])
    def test_blow_up_time_matches_the_reference(self, engine, case, with_zero):
        cfg, y0, (ref_start, ref_cfg) = self.blow_up_case(engine, case)
        marks = self.MARKS if with_zero else self.MARKS[1:]
        want = reference_blow_up_time(ref_start, ref_cfg, marks[-1])
        expected = {"mid_segment": (60 * cfg.dt, 200 * cfg.dt)}.get(case, (0.0, cfg.dt))
        assert expected[0] < want <= expected[1]
        with pytest.raises(BlowUpError) as err:
            evolve_states(y0, cfg, np.array(marks) * cfg.dt)
        assert err.value.time == want
        assert str(err.value) == str(BlowUpError(want))

    def test_a_non_finite_start_with_no_steps_is_sampled(self):
        cfg = WaveSystemConfig(**BENCH_SYSTEM)
        y0 = np.zeros((2, 64))
        y0[1, 5] = np.nan
        assert evolve_states(y0, cfg, [0.0, 0.0]).tobytes() == np.stack([y0, y0]).tobytes()

    def test_finiteness_is_checked_once_per_mark_that_took_steps(self, monkeypatch):
        cfg = WaveSystemConfig(**BENCH_SYSTEM)
        y0 = 0.3 * np.random.default_rng(1).standard_normal((9, 64))
        times = np.array([0, 0, 5, 5, 40, 41, 100]) * cfg.dt  # steps taken at 4 marks
        checked = []
        isfinite = np.isfinite

        def counted(x, *args, **kwargs):
            if np.shape(x) == (2, 9, 32):  # the stepper's planar state
                checked.append(x)
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counted)
        samples = evolve_states(y0, cfg, times)
        assert len(checked) == 4
        assert isfinite(samples).all()


class TestLinearModalOracle:
    def test_time_zero_identity(self, rng):
        spec = MetricSpec.dirichlet_1d(5)
        cfg = LinearModalConfig(1.3, spec.mode_eigenvalues)
        p = random_point(rng, spec)
        q = cfg.sample(p, [0.0])[0]
        assert np.array_equal(p, q)

    def test_negative_time_rejected(self):
        cfg = LinearModalConfig(1.0, np.array([1.0]))
        with pytest.raises(ValueError):
            cfg.sample(np.zeros(2), [-0.1])

    def test_critical_damping_value(self):
        # repeated root: z(t) = (1 + t) exp(-t) from (1, 0) with l = 2, lam = 1
        cfg = LinearModalConfig(2.0, np.array([1.0]))
        p = cfg.sample(np.array([1.0, 0.0]), [1.0])[0]
        assert p[0] == pytest.approx(2.0 * np.exp(-1.0), rel=1e-14)
        assert p[1] == pytest.approx(-1.0 * np.exp(-1.0), rel=1e-13)

    def test_overdamped_matches_root_formula(self):
        lam, damping, t = 1.0, 3.0, 1.7
        cfg = LinearModalConfig(damping, np.array([lam]))
        sq = np.sqrt(damping**2 - 4 * lam) / 2.0
        r_p, r_m = -damping / 2 + sq, -damping / 2 - sq
        z0, v0 = 0.8, -0.3
        a = (v0 - r_m * z0) / (r_p - r_m)
        b = (r_p * z0 - v0) / (r_p - r_m)
        p = cfg.sample(np.array([z0, v0]), [t])[0]
        assert p[0] == pytest.approx(
            a * np.exp(r_p * t) + b * np.exp(r_m * t), rel=1e-13
        )

    def test_envelope_rate_half(self):
        # l = 1, lam = 1: characteristic roots have real part -1/2
        cfg = LinearModalConfig(1.0, np.array([1.0]))
        y0 = np.array([1.0, 0.0])
        ts = np.arange(0.0, 40.0, 0.25)
        norms = states_norms(
            np.stack([modal_evolve_states(y0, cfg, t) for t in ts]), cfg.eigenvalues
        )
        slope = -np.polyfit(ts, np.log(norms), 1)[0]
        assert slope == pytest.approx(0.5, abs=0.02)
        assert modal_slow_rate(1.0, np.array([1.0])) == 0.5

    def test_semigroup_exact(self, rng):
        spec = MetricSpec.dirichlet_1d(6)
        cfg = LinearModalConfig(0.8, spec.mode_eigenvalues)
        for _ in range(20):
            y = random_point(rng, spec)
            t, s = rng.uniform(0.1, 3.0, 2)
            direct = modal_evolve_states(y, cfg, t + s)
            composed = modal_evolve_states(modal_evolve_states(y, cfg, t), cfg, s)
            assert np.max(np.abs(direct - composed)) <= 1e-12 * max(
                1.0, np.max(np.abs(direct))
            )

    def test_propagator_branch_continuity(self):
        # near-critical eigenvalues agree with the exactly critical branch
        for lam in (1.0 - 1e-9, 1.0, 1.0 + 1e-9):
            m = modal_propagator(2.0, np.array([lam]), 1.3)
            ref = modal_propagator(2.0, np.array([1.0]), 1.3)
            for got, want in zip(m, ref):
                assert got[0] == pytest.approx(want[0], rel=1e-6)

    @pytest.mark.parametrize("shape", [(12,), (5, 12), (2, 3, 12)])
    def test_time_array_matches_one_call_per_time(self, rng, shape):
        # l = 2: lam 0.25 and 0.75 are overdamped, 1 critical, 4 and 9 under
        cfg = LinearModalConfig(2.0, np.array([0.25, 1.0, 4.0, 0.75, 1.0, 9.0]))
        y = rng.standard_normal(shape)
        ts = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 20.0, 40))])
        a, b = y[..., :6], y[..., 6:]

        def by_formula(t):
            # the per-time expression the array call replaced
            m11, m12, m21, m22 = modal_propagator(cfg.l, cfg.eigenvalues, float(t))
            return np.concatenate([m11 * a + m12 * b, m21 * a + m22 * b], axis=-1)

        got = modal_evolve_states(y, cfg, ts)
        assert got.shape == ts.shape + shape
        assert got.tobytes() == np.stack([modal_evolve_states(y, cfg, t) for t in ts]).tobytes()
        assert got.tobytes() == np.stack([by_formula(t) for t in ts]).tobytes()
        assert cfg.sample(y, ts).tobytes() == got.tobytes()
        assert modal_evolve_states(y, cfg, 1.5).shape == shape


class TestLyapunov:
    def test_zero_state(self):
        cfg = WaveSystemConfig(mode_count=2, f_coeffs=(0.0, -1.0, 0.0, 1.0), dt=0.2)
        assert lyapunov(np.zeros(4), cfg) == (0.0, 0.0)

    def test_unit_velocity_energy(self):
        cfg = WaveSystemConfig(mode_count=1, dt=0.4)
        e_val, l_val = lyapunov(np.array([0.0, 1.0]), cfg)
        assert e_val == 0.5 and l_val == 0.5

    def test_quartic_potential_against_riemann_sum(self):
        # f = s^3 so L - E = (1/4) integral of u^4 over (0, pi)
        n = 8
        cfg = WaveSystemConfig(mode_count=n, f_coeffs=(0.0, 0.0, 0.0, 1.0), dt=0.0625,
                               collocation_points=64)
        coeffs = np.zeros(n)
        coeffs[0], coeffs[2] = 1.1, -0.4
        e_val, l_val = lyapunov(np.concatenate([coeffs, np.zeros(n)]), cfg)
        x = np.linspace(0.0, np.pi, 20001)
        u = np.sqrt(2 / np.pi) * (coeffs[0] * np.sin(x) + coeffs[2] * np.sin(3 * x))
        riemann = np.trapezoid(u**4 / 4.0, x)
        assert l_val - e_val == pytest.approx(riemann, rel=1e-6)

    def test_forcing_term_subtracted(self):
        cfg = WaveSystemConfig(mode_count=2, h_coeffs=(2.0, 0.0), dt=0.2)
        e_val, l_val = lyapunov(np.array([3.0, 0.0, 0.0, 0.0]), cfg)
        assert l_val == pytest.approx(e_val - 6.0, rel=1e-15)


class TestDissipation:
    def test_lyapunov_nonincreasing_without_forcing(self, rng):
        cfg = WaveSystemConfig(
            mode_count=16, k=1.0, p=2.0, l=1.0,
            f_coeffs=(0.0, -1.0, 0.0, 1.0), dt=1 / 32, collocation_points=48,
        )
        spec = MetricSpec.dirichlet_1d(16)
        times = np.arange(0.0, 10.0 + 1e-12, 0.25)
        for _ in range(3):
            p0 = random_point(rng, spec)
            states = evolve_states(p0, cfg, times)
            l_vals = lyapunov(states, cfg)[1]
            tol = 1e-8 * (1.0 + abs(l_vals[0]))
            assert np.all(np.diff(l_vals) <= tol)

    @pytest.mark.parametrize("kernel", ["benchmark_rank_one", "dense"])
    def test_lyapunov_nonincreasing_with_forcing_and_kernel(self, kernel):
        # dL/dt = -(k ||u_t||^p + l) ||u_t||^2 + (K u_t, u_t) <= 0 once l is at
        # least the largest eigenvalue of K's symmetric part
        cfg = WaveSystemConfig(**BENCH_SYSTEM)  # h_1 = 4, rank-one K of weight 0.1, l = 2
        if kernel == "dense":
            rng = np.random.default_rng(1)
            pairs = tuple((w, tuple(rng.standard_normal(32) / np.sqrt(32)))
                          for w in (1.5, 1.0, -0.5))
            sym = sum(w * np.outer(v, v) for w, v in pairs)
            top = float(np.linalg.eigvalsh(sym).max())
            cfg = replace(cfg, k=0.0, l=1.05 * top, kernel=pairs)
        # the benchmark's 30-point probe at radius 4, stepped at dt to t = 12
        probe = sample_phase_ball(np.random.default_rng(7), 30, 4.0, MetricSpec.dirichlet_1d(32))

        def largest_rise(system):
            states = evolve_states(probe.states, system, np.arange(769) * system.dt)
            l_vals = lyapunov(states, system)[1]
            return float(np.max(np.diff(l_vals, axis=0) / np.maximum(1.0, np.abs(l_vals[:-1]))))

        assert largest_rise(cfg) <= 1e-12
        if kernel == "dense":
            # below the kernel's top eigenvalue L rises, so the bound has teeth
            assert largest_rise(replace(cfg, l=0.5 * cfg.l)) > 1e-6

    def test_positive_invariance_linear_modal(self, rng):
        spec = MetricSpec.dirichlet_1d(4)
        cfg = LinearModalConfig(1.0, spec.mode_eigenvalues)
        probe = random_states(rng, spec, 6, scale=1.5)
        radius, _ = probe_radius(cfg, probe, burn_in=4.0, window=2.0)
        states = random_states(rng, spec, 8, scale=0.1)
        scale = radius / np.max(states_norms(states, spec.mode_eigenvalues))
        states = states * scale  # exactly on the ball boundary
        norms = states_norms(
            cfg.sample(states, np.linspace(0.0, 10.0, 101)),
            spec.mode_eigenvalues,
        )
        assert np.all(norms <= radius * (1 + 1e-3))

    def test_positive_invariance_wave_absorbed(self, rng):
        g1 = np.zeros(8)
        g1[0] = 1.0
        cfg = WaveSystemConfig(
            mode_count=8, k=1.0, p=2.0, l=2.0, f_coeffs=(0.0, -1.0, 0.0, 1.0),
            kernel=((0.1, tuple(g1)),), h_coeffs=tuple(4.0 * g1), dt=1 / 16,
        )
        spec = MetricSpec.dirichlet_1d(8)
        probe = random_states(rng, spec, 8, scale=0.7)
        radius, t_enter = probe_radius(cfg, probe, burn_in=4.0, window=2.0)
        absorbed = cfg.sample(probe, [6.0])[0]
        times = np.arange(0.0, 8.0 + 1e-9, 0.25)
        norms = states_norms(cfg.sample(absorbed, times), spec.mode_eigenvalues)
        assert np.all(norms <= radius * (1 + 1e-3))


class TestAbsorbingRadius:
    def test_linear_decay_probe(self):
        spec = MetricSpec.dirichlet_1d(2)
        cfg = LinearModalConfig(1.0, spec.mode_eigenvalues)
        probe = np.array([[0.0, 0.0, 5.0, 0.0]])
        radius, t_enter = probe_radius(cfg, probe, burn_in=8.0, window=2.0)
        # norms have decayed by roughly exp(-4) on the window
        assert radius < 0.3
        assert 0.0 < t_enter[0] <= 10.0

    def test_equilibrium_probe_enters_at_zero(self):
        cfg = WaveSystemConfig(mode_count=2, k=0.0, l=1.0, dt=0.125)
        probe = np.zeros((2, 4))
        radius, t_enter = probe_radius(cfg, probe, burn_in=2.0, window=1.0)
        assert radius == 0.0
        assert t_enter == [0.0, 0.0]

    def test_far_probe_enters_later(self):
        spec = MetricSpec.dirichlet_1d(2)
        cfg = LinearModalConfig(1.0, spec.mode_eigenvalues)
        probe = np.array([[0.0, 0.0, 5.0, 0.0], [0.0, 0.0, 0.5, 0.0]])
        _, t_enter = probe_radius(cfg, probe, 8.0, 2.0)
        assert t_enter[0] >= t_enter[1]

    def test_growth_detected(self):
        g1 = (1.0, 0.0)
        cfg = WaveSystemConfig(mode_count=2, k=0.0, l=0.0, kernel=((0.5, g1),), dt=0.25)
        probe = np.array([[0.0, 0.0, 1.0, 0.0]])
        with pytest.raises(NonDissipativeError):
            probe_radius(cfg, probe, burn_in=4.0, window=8.0)

    def test_entering_times_against_radius(self):
        spec = MetricSpec.dirichlet_1d(2)
        cfg = LinearModalConfig(2.0, spec.mode_eigenvalues)
        states = np.array([[0.0, 0.0, 2.0, 0.0]])
        times = _settle_times(*sampled_norms(cfg, states, 10.0), radius=0.5)
        assert 0.0 < times[0] < 10.0
        with pytest.raises(NonDissipativeError):
            _settle_times(*sampled_norms(cfg, states, 0.5), radius=1e-12)

    @pytest.mark.parametrize("burn_in, window", [(0.0, 2.0), (4.0, 0.0)])
    def test_burn_in_and_window_must_be_positive(self, burn_in, window):
        cfg = LinearModalConfig(1.0, np.array([1.0]))
        probe = np.array([[1.0, 0.0]])
        with pytest.raises(ValueError, match="burn_in and window"):
            probe_radius(cfg, probe, burn_in, window)


class TestEngineInterface:
    def test_wave_grid_is_dt_aligned_and_ends_at_horizon(self):
        cfg = linear_wave_config(2, 1.0, 0.1)
        times = cfg.sample_grid(1.0, 3)
        assert np.allclose(times, [0.0, 0.3, 0.6, 0.9, 1.0], rtol=0, atol=1e-12)
        assert np.array_equal(cfg.sample_grid(1.0, 200), np.arange(11) * 0.1)

    def test_modal_grid_is_equispaced(self):
        cfg = LinearModalConfig(1.0, np.array([1.0, 4.0]))
        assert np.array_equal(cfg.sample_grid(2.0, 4), np.linspace(0.0, 2.0, 5))

    @pytest.mark.parametrize("engine", ["wave", "modal"])
    @pytest.mark.parametrize("times", [[-0.1], [1.0, 0.5]])
    def test_backward_times_rejected(self, engine, times):
        # neither engine runs backward: negative or decreasing times raise
        if engine == "wave":
            cfg = linear_wave_config(1, 1.0, 0.1)
        else:
            cfg = LinearModalConfig(1.0, np.array([1.0]))
        with pytest.raises(ValueError, match="nonnegative and nondecreasing"):
            cfg.sample(np.zeros(2), times)

    @pytest.mark.parametrize("times", [[np.nan], [0.0, np.inf], [0.0, np.nan, 1.0]])
    def test_non_finite_times_rejected(self, times):
        # a NaN compares false with everything, so it would pass the order checks
        with pytest.raises(ValueError, match="^sample times must be finite$"):
            _sample_times(times)
        for cfg in (linear_wave_config(1, 1.0, 0.1), LinearModalConfig(1.0, np.array([1.0]))):
            with pytest.raises(ValueError, match="^sample times must be finite$"):
                cfg.sample(np.zeros(2), times)

    @pytest.mark.parametrize("engine", ["wave", "modal"])
    def test_sample_shape_and_time_zero(self, engine, rng):
        spec = MetricSpec.dirichlet_1d(2)
        if engine == "wave":
            cfg = linear_wave_config(2, 1.0, 0.1)
        else:
            cfg = LinearModalConfig(1.0, spec.mode_eigenvalues)
        states = random_states(rng, spec, 3)
        out = cfg.sample(states, [0.0, 0.5, 1.0])
        assert out.shape == (3, 3, 4)
        assert np.array_equal(out[0], states)
        assert np.array_equal(cfg.eigenvalues, spec.mode_eigenvalues)


class TestTrajectoryCsv:
    def test_header_and_shape(self, rng, tmp_path):
        # the sampled trajectories the package writes are the net orbits
        cfg = linear_wave_config(2, 1.0, 0.1)
        spec = MetricSpec.dirichlet_1d(2)
        absorbed = random_states(rng, spec, 3)
        law = DecayLaw("exponential", 1e3, 0.5)
        aset = attracting_set(absorbed, (1, 1), law, 1.0, 0.5, cfg, spec)
        save_attracting_set(aset, tmp_path)
        lines = (tmp_path / "orbits.csv").read_text().splitlines()
        assert lines[0] == "entry,t,a_1,a_2,b_1,b_2"
        assert len(lines) == 1 + aset.orbit_states.shape[0] * aset.orbit_states.shape[1]
