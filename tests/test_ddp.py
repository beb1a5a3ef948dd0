"""Fluid limit solver: diffusion rates, drift coupling, conservation."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vpfp.ddp import DENSE_MAX_N_X, DdpState, _propagator, ddp_run, ddp_step, make_ddp_state
from vpfp.operators import spatial_l2_norm
from vpfp.solver import ConservationError
from vpfp.spectral import ConfigurationError, SpatialGrid

import oracles
from conftest import WRONG_DENSITY_SHAPES, cosine_of_shape
from oracles import x_derivative

# one grid on each side of ddp_step's size rule: the dense propagator runs
# at 64 points, the default sweep's grid, and the FFT step at 256
SIDES = (SpatialGrid(n_x=64), SpatialGrid(n_x=256))


class TestSingleStep:
    def test_equilibrium_is_fixed(self, grid):
        state = make_ddp_state(grid, 0.0, np.zeros(grid.n_x))
        new = ddp_step(grid, state, 1e-2)
        assert np.max(np.abs(new.rho0)) == 0.0

    def test_drift_diffusion_discrete_factor(self):
        # 0.5 cos 2x: the linear terms scale mode 2 by (1 - dt) / (1 + 4 dt),
        # and the product rho0 grad phi0 = -sin(4x) / 16 feeds only mode 4
        grid = SpatialGrid(n_x=32)
        dt = 1e-2
        state = make_ddp_state(grid, 0.0, 0.5 * np.cos(2 * grid.nodes))
        new_c = np.fft.rfft(ddp_step(grid, state, dt).rho0, norm="forward")
        want = np.zeros(grid.n_half, dtype=complex)
        want[2] = 0.25 * (1.0 - dt) / (1.0 + 4.0 * dt)
        # d/dx of -sin(4x) / 16 is -cos(4x) / 4, half of it on mode 4
        want[4] = dt * -0.125 / (1.0 + 16.0 * dt)
        assert np.max(np.abs(new_c - want)) <= 1e-15

    def test_mean_preserved_exactly(self, grid, rng):
        rho = rng.standard_normal(grid.n_x) * 0.01
        rho -= rho.mean()
        state = make_ddp_state(grid, 0.0, rho)
        for _ in range(10):
            state = ddp_step(grid, state, 5e-3)
        assert abs(state.rho0.mean()) < 1e-15

    def test_potential_consistent(self, grid):
        state = make_ddp_state(grid, 0.0, 0.01 * np.cos(grid.nodes))
        new = ddp_step(grid, state, 1e-2)
        # the state keeps the field alone: d/dx of it is Lap phi0 = -rho0
        lap = x_derivative(grid, new.grad_phi0)
        assert np.max(np.abs(-lap - new.rho0)) < 1e-12

    @staticmethod
    def complex_fft_step(grid, state, dt):
        """ddp_step on the full spectrum by complex FFTs, dealiased product
        formed in physical space."""
        ik = 1j * oracles.wavenumbers(grid)
        rho_c = oracles.fourier_field(grid, state.rho0)
        prod = oracles.dealiased_product(grid, state.rho0, state.grad_phi0)
        drift_c = ik * oracles.fourier_field(grid, prod) - rho_c
        rho0 = oracles.real_field(grid, (rho_c + dt * drift_c) / (1.0 + dt * oracles.k_sq(grid)))
        phi_c = oracles.fourier_field(grid, rho0) * oracles.inverse_laplacian(grid)
        return rho0, oracles.real_field(grid, phi_c * ik)

    @settings(max_examples=40, deadline=None)
    @given(n_x=st.integers(2, 160).map(lambda h: 2 * h), amplitude=st.floats(1e-4, 0.1),
           dt=st.floats(1e-5, 1e-1), seed=st.integers(0, 2**32 - 1))
    @example(n_x=DENSE_MAX_N_X, amplitude=0.1, dt=1e-1, seed=0)
    @example(n_x=DENSE_MAX_N_X + 2, amplitude=0.1, dt=1e-1, seed=0)
    def test_matches_complex_fft_formula(self, n_x, amplitude, dt, seed):
        grid = SpatialGrid(n_x=n_x)
        rho = np.random.default_rng(seed).uniform(-1.0, 1.0, n_x)
        rho = amplitude * (rho - rho.mean()) / np.max(np.abs(rho - rho.mean()))
        state = make_ddp_state(grid, 0.0, rho)
        new = ddp_step(grid, state, dt)
        for got, want in zip((new.rho0, new.grad_phi0),
                             self.complex_fft_step(grid, state, dt), strict=True):
            assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("value", [np.inf, np.nan, -np.inf])
    def test_non_finite_state_raises(self, value):
        for grid in SIDES:
            state = make_ddp_state(grid, 0.0, 0.01 * np.cos(grid.nodes))
            rho0 = state.rho0.copy()
            rho0[3] = value
            # the transforms and the product of inf warn; the step's own check must raise
            with np.errstate(all="ignore"), pytest.raises(FloatingPointError,
                                                          match="non-finite fluid state"):
                ddp_step(grid, replace(state, rho0=rho0), 1e-3)

    def test_overflow_to_minus_inf_raises(self):
        # a transform spreads a non-finite node into NaN everywhere; only an
        # overflow leaves -inf at one node and no NaN, and only the min of
        # the new density sees it.  A negative step amplifies every mode, so
        # a spike near the largest float overflows; the step is small enough
        # that 1 + dt k^2 stays positive on each grid.  At 32 points the
        # dense propagator overflows at that one node too.
        for grid, dt in ((SpatialGrid(n_x=32), -1e-3), (SIDES[1], -1e-5)):
            rho0 = np.full(grid.n_x, 1.7e308 / (grid.n_x - 1))
            rho0[0] = -1.7e308
            state = DdpState(time=0.0, rho0=rho0, grad_phi0=np.zeros(grid.n_x))
            with np.errstate(all="ignore"):
                new = oracles.ddp_step_reference(grid, state, dt)
                assert np.isneginf(new.rho0[0]) and np.all(np.isfinite(new.rho0[1:]))
                if grid.n_x <= DENSE_MAX_N_X:
                    w = _propagator(grid.n_x, grid.length, dt)
                    dense = np.concatenate((rho0, np.zeros(grid.n_x))) @ w
                    assert np.isneginf(dense[0]) and np.all(np.isfinite(dense[1:]))
                with pytest.raises(FloatingPointError, match="non-finite fluid state"):
                    ddp_step(grid, state, dt)

    def test_nonzero_mean_raises(self):
        for grid in SIDES:
            state = make_ddp_state(grid, 0.0, 0.01 * np.cos(grid.nodes))
            shifted = replace(state, rho0=state.rho0 + 0.3)
            with pytest.raises(ConservationError, match="fluid density lost its zero mean"):
                ddp_step(grid, shifted, 1e-3)

    def test_large_step_keeps_a_rounding_mean(self):
        # Lap phi0 has no mean mode, so the drift leaves the mean alone: a
        # rounding-level mean does not grow by |1 - dt| = 4 per step
        for grid in SIDES:
            state = make_ddp_state(grid, 0.0, 0.01 * np.cos(grid.nodes))
            for _ in range(40):
                state = ddp_step(grid, state, 5.0)
                assert abs(np.mean(state.rho0)) <= 1e-15

    def test_negative_density_after_step_warns(self):
        for grid in SIDES:
            state = make_ddp_state(grid, 0.0, 0.5 * np.cos(grid.nodes))
            deep = replace(state, rho0=4.0 * state.rho0)  # 1 + rho0 reaches -1
            with pytest.warns(RuntimeWarning, match="not positive"):
                new = ddp_step(grid, deep, 1e-3)
            assert np.min(1.0 + new.rho0) <= 0.0

    @pytest.mark.parametrize("mode", [1, 2, 3])
    @pytest.mark.parametrize("n_x, exact", [(64, False), (256, True)], ids=["64", "256"])
    def test_matches_uncached_step(self, n_x, exact, mode):
        # the default sweep's fluid reference (64 points, at a tenth of its
        # kinetic step, 2.5e-4) runs on the dense propagator, which agrees
        # with the transforms to rounding; above the size rule, the grid's
        # symbols and the min/max checks change no bit
        grid = SpatialGrid(n_x=n_x)
        assert (n_x <= DENSE_MAX_N_X) != exact
        state = ref = make_ddp_state(grid, 0.0, 0.2 * np.cos(mode * grid.nodes))
        for _ in range(400):
            state = ddp_step(grid, state, 2.5e-4)
            ref = oracles.ddp_step_reference(grid, ref, 2.5e-4)
            assert state.time == ref.time
            for got, want in zip((state.rho0, state.grad_phi0), (ref.rho0, ref.grad_phi0)):
                if exact:
                    assert np.array_equal(got, want)
                else:
                    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n_x, transforms", [(64, []), (256, ["rfft", "irfft"])],
                             ids=["64", "256"])
    def test_transforms_per_step(self, n_x, transforms, fft_calls):
        # the dense propagator's build transforms the identity once per
        # (grid, dt); its warm steps make no transform
        grid = SpatialGrid(n_x=n_x)
        state = make_ddp_state(grid, 0.0, 0.01 * np.cos(grid.nodes))
        ddp_step(grid, state, 1e-3)
        fft_calls.clear()
        ddp_step(grid, state, 1e-3)
        assert [call.name for call in fft_calls] == transforms

    def test_negative_density_warns(self, grid):
        with pytest.warns(RuntimeWarning, match="not positive"):
            make_ddp_state(grid, 0.0, 2.0 * np.cos(grid.nodes))


class TestDecayRates:
    def test_linearized_drift_diffusion_rate(self, grid):
        # with the field on, mode k decays like e^{-(k^2 + 1) t} for small data
        states = ddp_run(grid, 1e-4 * np.cos(grid.nodes), dt=1e-4, t_final=1.0,
                         sample_interval=1.0)
        amp = np.max(np.abs(states[-1].rho0))
        assert amp == pytest.approx(1e-4 * np.exp(-2.0), rel=1e-2)

    def test_nonlinear_term_slows_nothing_down(self, grid):
        # moderate amplitude still decays monotonically in L2
        states = ddp_run(grid, 0.2 * np.cos(grid.nodes), dt=1e-3, t_final=0.5,
                         sample_interval=0.05)
        norms = [spatial_l2_norm(grid, s.rho0) for s in states]
        assert np.all(np.diff(norms) < 0.0)


class TestRunHarness:
    def test_zero_mean_required(self, grid):
        with pytest.raises(ValueError, match="zero spatial mean"):
            ddp_run(grid, np.cos(grid.nodes) + 0.3, dt=1e-3, t_final=0.1, sample_interval=0.1)

    @pytest.mark.parametrize("shape", WRONG_DENSITY_SHAPES)
    def test_wrong_shape_density_is_config_error(self, grid, shape):
        with pytest.raises(ConfigurationError, match=re.escape(
                f"initial fluid density must have shape (n_x,) = (32,); got {shape}")):
            ddp_run(grid, cosine_of_shape(shape), dt=1e-3, t_final=0.1, sample_interval=0.1)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_node_rejected(self, grid, value):
        # at once, not as a non-finite state after the first step
        rho = 0.01 * np.cos(grid.nodes)
        rho[3] = value
        with pytest.raises(ValueError, match="initial fluid density must have zero spatial mean"):
            ddp_run(grid, rho, dt=1e-3, t_final=0.1, sample_interval=0.1)

    @pytest.mark.parametrize("dt, interval, message", [
        (0.0, 0.05, "time step must be positive"),
        (-1.0, 0.05, "time step must be positive"),
        (1e-3, 0.0, "sample_interval must be positive"),
        (np.inf, 0.05, "time step must be positive and finite, got inf"),
        (1e-3, np.inf, "sample_interval must be positive and finite, got inf"),
    ])
    def test_nonpositive_steps_rejected(self, grid, dt, interval, message):
        with pytest.raises(ConfigurationError, match=message):
            ddp_run(grid, 0.01 * np.cos(grid.nodes), dt=dt, t_final=0.1,
                    sample_interval=interval)

    @pytest.mark.parametrize("interval, message", [
        (0.3, "sample_interval = 0.3 does not divide t_final = 1"),
        (2.0, "sample_interval = 2 exceeds t_final = 1"),
    ])
    def test_interval_must_divide_final_time(self, grid, interval, message):
        with pytest.raises(ConfigurationError, match=message):
            ddp_run(grid, 0.01 * np.cos(grid.nodes), dt=1e-3, t_final=1.0,
                    sample_interval=interval)

    def test_interval_within_rounding_of_a_divisor(self, grid):
        states = ddp_run(grid, 0.01 * np.cos(grid.nodes), dt=1e-2, t_final=0.3,
                         sample_interval=0.1 * (1.0 + 1e-12))
        assert np.allclose([s.time for s in states], [0.0, 0.1, 0.2, 0.3], rtol=0, atol=1e-15)

    def test_zero_time(self, grid):
        states = ddp_run(grid, 0.01 * np.cos(grid.nodes), dt=1e-3, t_final=0.0,
                         sample_interval=0.05)
        assert len(states) == 1 and states[0].time == 0.0

    def test_sample_times(self, grid):
        states = ddp_run(grid, 0.01 * np.cos(grid.nodes), dt=1e-3, t_final=0.1,
                         sample_interval=0.025)
        assert np.allclose([s.time for s in states], np.arange(5) * 0.025, atol=1e-15)

    def test_temporal_order_about_one(self, grid):
        rho = 0.1 * np.cos(grid.nodes)
        ref = ddp_run(grid, rho, dt=2e-5, t_final=0.2, sample_interval=0.2)[-1].rho0
        errs = []
        for dt in (2e-3, 1e-3, 5e-4):
            got = ddp_run(grid, rho, dt=dt, t_final=0.2, sample_interval=0.2)[-1].rho0
            errs.append(np.max(np.abs(got - ref)))
        rates = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(0.7 < r < 1.4 for r in rates)

    def test_deterministic_rerun(self, grid):
        rho = 0.05 * np.cos(grid.nodes)
        a = ddp_run(grid, rho, dt=1e-3, t_final=0.1, sample_interval=0.05)
        b = ddp_run(grid, rho, dt=1e-3, t_final=0.1, sample_interval=0.05)
        for s, t in zip(a, b, strict=True):
            assert np.array_equal(s.rho0, t.rho0)
