"""Time integrator: asymptotic damping, conservation, accuracy order,
determinism, and configuration validation."""

import math
import re
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpfp.operators import moments, spatial_l2_norm, vpfp_rhs
from vpfp.solver import (
    SAMPLE_RATIO_RTOL,
    SCHEMES,
    ConservationError,
    KineticState,
    SolverConfig,
    TridiagonalFactors,
    VpfpStepper,
    make_initial_data,
    run,
    step_schedule,
)
from vpfp.spectral import (MAX_N_V, ConfigurationError, HermiteBasis, SpatialGrid, SpectralField,
                           real_field)

import oracles
from conftest import (WRONG_DENSITY_SHAPES, basis_element, cosine_of_shape, member,
                      random_distribution, sampled_run, zero_field)
from oracles import l2_norm, project_micro, x_derivative


def small_config(**kw):
    base = dict(epsilon=0.2, t_final=0.1, n_x=32, n_v=16, dt_max=5e-3, scheme="imex_euler")
    base.update(kw)
    return SolverConfig(**base)


def coupling(stepper, g, out=None):
    """The field-coupling terms of the batch g as stepper.advance forms
    them, in the stepper's scratch."""
    return vpfp_rhs(g, stepper.epsilons, out=out, scratch=stepper._scratch)


def cos_initial(grid, basis, amplitude=0.01):
    return make_initial_data(grid, basis, amplitude * np.cos(grid.nodes))


class TestConfig:
    def test_epsilon_range(self):
        with pytest.raises(ConfigurationError):
            small_config(epsilon=0.0)
        with pytest.raises(ConfigurationError):
            small_config(epsilon=1.5)

    def test_scheme_names(self):
        with pytest.raises(ConfigurationError):
            small_config(scheme="rk4")
        small_config(scheme="imex_bdf2")

    @pytest.mark.parametrize("dt_max", [0.0, -1e-3, math.inf, math.nan])
    def test_dt_max_positive_and_finite(self, dt_max):
        with pytest.raises(ConfigurationError, match="dt_max must be positive and finite"):
            small_config(dt_max=dt_max)

    @pytest.mark.parametrize("epsilon", [1.0, 0.004, 1e-100])
    def test_step_does_not_depend_on_epsilon(self, monkeypatch, epsilon):
        # the scheme is stable uniformly in eps, so every run fits dt_max
        steppers = []
        init = VpfpStepper.__init__
        monkeypatch.setattr(VpfpStepper, "__init__", lambda self, *a, **kw: (
            steppers.append(self), init(self, *a, **kw))[1])
        cfg = small_config(epsilon=epsilon, t_final=0.02, dt_max=3e-3)
        run(cos_initial(cfg.make_grid(), cfg.make_basis()), cfg, sample_interval=0.01)
        assert [s.dt for s in steppers] == [0.01 / 4]

    def test_smallest_epsilon_builds_its_factors(self):
        # the bound of SolverConfig is the build's: just above it, the
        # factors of the largest step and wavenumber are finite
        with pytest.raises(ConfigurationError, match=r"epsilon must exceed about 2\.889e-154"):
            small_config(epsilon=2.8e-154)
        cfg = small_config(epsilon=2.9e-154)
        k = np.abs(cfg.make_grid().dx_symbol.imag)
        factors = TridiagonalFactors.build(k, cfg.n_v, cfg.epsilon, cfg.dt_max)
        assert all(np.all(np.isfinite(a)) for a in (factors.inv_pivot, factors.multiplier,
                                                      factors.lower, factors.upper))

    @pytest.mark.parametrize("dt_max", [1e153, 1e160, 1e308])
    def test_step_no_epsilon_can_take_is_config_error(self, dt_max):
        # (dt k_max)^2 overflows here, so the limit on epsilon is formed
        # without it; past epsilon = 1 the message says no epsilon works
        with pytest.raises(ConfigurationError,
                           match="no epsilon <= 1 keeps it finite at this dt_max"):
            small_config(dt_max=dt_max)

    @pytest.mark.parametrize("t_final, interval, nominal, schedule", [
        (1.0, 0.05, 2.5e-3, (20, 2.5e-3, 20)),   # the default kinetic run
        (1.0, 0.05, 2.5e-4, (20, 2.5e-4, 200)),  # and its fluid reference
        (0.0, 0.05, 2.5e-3, (0, 0.0, 0)),
        (0.3, 0.3, 0.1, (1, 0.3 / 3, 3)),        # one sample when interval == t_final
        # a ratio off a whole number by less than SAMPLE_RATIO_RTOL
        (0.3, 0.1 * (1.0 + 0.5 * SAMPLE_RATIO_RTOL), 1e-2, (3, 0.3 / 3 / 10, 10)),
    ])
    def test_step_schedule_table(self, t_final, interval, nominal, schedule):
        assert step_schedule(t_final, interval, nominal) == schedule

    @pytest.mark.parametrize("t_final, n_samples, dt_max", [
        (0.3, 19, 1.9561294552491435e-05),  # 808 steps per sample, its tenth 8081
        (1.42, 40, 7.158399379807181e-06),
        (0.07, 13, 1.1912770695208396e-06),
        (1.1, 40, 9.778986452240498e-06),
        (1.76, 3, 0.00011880438888102255),
    ])
    def test_step_schedule_refits_its_own_step(self, t_final, n_samples, dt_max):
        # the fit's slack is relative, so the fitted step and the fluid
        # reference's tenth of it refit to the same steps, or ten times as many
        interval = t_final / n_samples
        _, dt, steps = step_schedule(t_final, interval, dt_max)
        assert step_schedule(t_final, interval, dt)[2] == steps
        assert step_schedule(t_final, interval, dt / 10)[2] == 10 * steps

    def test_step_schedule_divides_interval(self):
        for nominal, interval in [(3e-3, 0.05), (5e-3, 0.05), (7e-4, 0.01)]:
            n_samples, dt, n = step_schedule(4 * interval, interval, nominal)
            assert n_samples == 4
            assert dt <= nominal
            assert n * dt == pytest.approx(interval, rel=1e-12)


class TestInitialData:
    def test_neutrality_exact(self, grid, basis):
        state = cos_initial(grid, basis)
        assert abs(state.g.coeffs[0, 0]) == 0.0

    def test_density_slice(self, grid, basis):
        state = cos_initial(grid, basis, amplitude=0.05)
        assert abs(state.g.coeffs[0, 1] - 0.025) < 1e-14
        assert np.max(np.abs(state.g.coeffs[1:])) == 0.0

    def test_macro_fields_consistent(self, grid, basis):
        state = cos_initial(grid, basis)
        lap = x_derivative(grid, state.macro.grad_phi)
        assert np.max(np.abs(-lap - state.macro.a)) < 1e-12

    def test_mean_profile_rejected(self, grid, basis):
        with pytest.raises(ValueError, match="zero spatial mean"):
            make_initial_data(grid, basis, np.cos(grid.nodes) + 1.0)

    @pytest.mark.parametrize("shape", WRONG_DENSITY_SHAPES)
    @pytest.mark.parametrize("kind", ["array", "callable"])
    def test_wrong_shape_profile_is_config_error(self, grid, basis, shape, kind):
        # at once, not as a NumPy broadcast error from the transform; the
        # density is an array on the nodes, so a callable profile has shape ()
        values = cosine_of_shape(shape)
        profile, got = (values, shape) if kind == "array" else ((lambda x: values), ())
        with pytest.raises(ConfigurationError, match=re.escape(
                f"density profile must have shape (n_x,) = (32,); got {got}")):
            make_initial_data(grid, basis, profile)

    def test_unprojected_micro_rejected(self, grid, basis, rng):
        bad = random_distribution(rng, grid, basis)  # carries macro levels
        with pytest.raises(ValueError, match="micro perturbation"):
            make_initial_data(grid, basis, 0.01 * np.cos(grid.nodes),
                              micro_perturbation=bad)

    @pytest.mark.parametrize("n_x, n_v, batch", [(16, 16, False), (32, 8, False),
                                                 (32, 16, True)])
    def test_micro_on_another_discretization_rejected(self, grid, basis, rng, n_x, n_v, batch):
        # named at once, before the macro-content test (this perturbation
        # carries macro levels), not as a NumPy broadcast error; a batch of
        # two members on the state's own grid and basis is no one field
        micro = random_distribution(rng, SpatialGrid(n_x), HermiteBasis(n_v))
        if batch:
            micro = micro.with_coeffs(np.stack([micro.coeffs] * 2, axis=1))
        with pytest.raises(ConfigurationError, match=re.escape(
                f"(n_x, n_v) = ({n_x}, {n_v}) with shape {micro.coeffs.shape} does not match "
                f"the state's (n_x, n_v) = (32, 16), one field of shape (16, 17)")):
            make_initial_data(grid, basis, 0.01 * np.cos(grid.nodes), micro_perturbation=micro)

    def test_projected_micro_accepted(self, grid, basis, rng):
        micro = project_micro(random_distribution(rng, grid, basis))
        # high Hermite levels grow like He_n(v)/sqrt(n!) at the outer quadrature
        # nodes, so the micro amplitude must be small for f to stay positive
        micro = micro.with_coeffs(micro.coeffs * 1e-9)
        state = make_initial_data(grid, basis, 0.01 * np.cos(grid.nodes),
                                  micro_perturbation=micro)
        assert np.allclose(state.g.coeffs[2:], micro.coeffs[2:])

    def test_positivity_enforced(self, grid, basis):
        with pytest.raises(ValueError, match="not positive"):
            make_initial_data(grid, basis, 10.0 * np.cos(grid.nodes))
        # the test reads f / sqrt(M) = psi_0 + G, not f, whose M underflows
        # to 0 at the outer nodes from n_v = 195 on: a positive density is
        # accepted up to the cap, and 1 + rho <= 0 somewhere is still rejected
        for n_v in (194, 195, MAX_N_V):
            state = make_initial_data(grid, HermiteBasis(n_v), 0.5 * np.cos(grid.nodes))
            assert state.g.coeffs[0, 1] == pytest.approx(0.25, rel=1e-14)
        with pytest.raises(ValueError, match=re.escape(
                "reconstructed distribution is not positive; min f/sqrt(M) = -")):
            make_initial_data(grid, HermiteBasis(MAX_N_V), 2.0 * np.cos(grid.nodes))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_profile_node_rejected(self, grid, basis, value):
        profile = 0.01 * np.cos(grid.nodes)
        profile[3] = value
        with pytest.raises(ValueError, match="density profile must have zero spatial mean"):
            make_initial_data(grid, basis, profile)

    @pytest.mark.parametrize("level, message", [
        (1, "micro perturbation must be .I-P.-projected; macro content nan"),
        (3, r"reconstructed distribution is not positive; min f/sqrt\(M\) = nan"),
    ])
    def test_nan_micro_perturbation_rejected(self, grid, basis, level, message):
        # on a macro level the projection test catches it, on a micro level
        # the positivity test, up to the cap
        for basis in (basis, HermiteBasis(MAX_N_V)):
            micro = zero_field(grid, basis)
            micro.coeffs[level, 2] = np.nan
            with pytest.raises(ValueError, match=message):
                make_initial_data(grid, basis, 0.01 * np.cos(grid.nodes),
                                  micro_perturbation=micro)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, complex(0.0, np.inf)])
    def test_infinite_micro_perturbation_rejected(self, grid, basis, value):
        # before the inverse transform, which warns on it (an error in CI)
        micro = zero_field(grid, basis)
        micro.coeffs[3, 2] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="micro perturbation must be finite"):
                make_initial_data(grid, basis, 0.01 * np.cos(grid.nodes),
                                  micro_perturbation=micro)


class TestDampingInvariant:
    """Where streaming vanishes (the mean mode and the Nyquist mode, whose
    streaming wavenumber is 0) and Hermite row 0 holds no density, so that
    there is no field, the default config's IMEX Euler step damps each
    Hermite level n by exactly 1 / (1 + dt n / eps^2), however stiff."""

    def test_euler_amplification_exact(self, grid, basis):
        cfg = small_config(epsilon=0.1)
        dt = 1e-3
        stepper = VpfpStepper(cfg, dt)
        g = zero_field(grid, basis)
        g.coeffs[1:, 0] = g.coeffs[1:, -1] = 0.5  # levels 1.. at the mean and Nyquist modes
        state = KineticState(time=0.0, g=g).repeated(1)
        new = stepper.step_euler(state, coupling(stepper, state.g))
        n = np.arange(basis.n_v)
        factor = 1.0 / (1.0 + dt * (n / cfg.epsilon**2))
        factor[0] = 0.0  # row 0 holds no density
        for m in (0, grid.n_half - 1):
            assert np.array_equal(new.g.coeffs[:, 0, m], 0.5 * factor)
        assert not np.any(new.g.coeffs[:, 0, 1:-1])

    def test_stiff_decay_matches_discrete_rate(self, grid, basis):
        # a pure Hermite-3 mode with dt = eps^2 / 10: the discrete factor per
        # step is 1/1.3, and the amplitude falls below 1e-6 at the predicted
        # step count while tracking exp(-3 t / eps^2) to first order in dt
        eps = 0.1
        dt = eps**2 / 10.0
        stepper = VpfpStepper(small_config(epsilon=eps), dt)
        factor = 1.0 / (1.0 + 3.0 * dt / eps**2)
        n_steps = math.ceil(math.log(1e-6) / math.log(factor))
        for m in (0, grid.n_half - 1):
            g = basis_element(grid, basis, m, 3, amplitude=1.0)
            state = KineticState(time=0.0, g=g).repeated(1)
            amp0 = abs(g.coeffs[3, m])
            for i in range(n_steps):
                state = stepper.step_euler(state, coupling(stepper, state.g))
                amp = abs(state.g.coeffs[3, 0, m])
                assert amp == pytest.approx(amp0 * factor ** (i + 1), rel=1e-12)
                if i < 8:
                    # the discrete factor tracks the continuous rate to O(dt)
                    # per step; the gap compounds, so only early steps compare
                    cont = amp0 * math.exp(-3.0 * state.time / eps**2)
                    assert amp == pytest.approx(cont, rel=0.5)
            assert abs(state.g.coeffs[3, 0, m]) < 1e-6

    def test_unconditional_stability_large_dt(self, grid, basis):
        # dt / eps^2 = 400 on cos(x) psi_5, where streaming couples the
        # levels: the implicit step is a contraction, and the level itself
        # damps
        stepper = VpfpStepper(small_config(epsilon=0.05), 1.0)
        g = basis_element(grid, basis, 1, 5)
        state = KineticState(time=0.0, g=g).repeated(1)
        new = stepper.step_euler(state, coupling(stepper, state.g))
        new = member(new)
        assert l2_norm(new.g) < l2_norm(g)
        assert abs(new.g.coeffs[5, 1]) < abs(g.coeffs[5, 1])


def hermitian_coeffs(rng, n_x, n_v):
    """Random half-spectrum (n_v, n_x/2 + 1) of a real field: rows k = 0 and Nyquist real."""
    shape = (n_v, n_x // 2 + 1)
    half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    half[:, [0, -1]] = half[:, [0, -1]].real
    return half


def dense_implicit_solve(grid, n_v, epsilon, dt, coeffs):
    """(I + dt (i k / eps) V + dt diag(n) / eps^2)^-1 per mode m = 0..n_x/2, by
    np.linalg.solve, with the streaming wavenumber k = 0 at the Nyquist mode."""
    k = np.arange(grid.n_half, dtype=float)
    k[-1] = 0.0
    n = np.arange(n_v)
    v_mat = np.diag(np.sqrt(n[1:]), 1) + np.diag(np.sqrt(n[1:]), -1)
    blocks = (np.eye(n_v) + dt * (1j * k / epsilon)[:, None, None] * v_mat
              + dt * np.diag(n / epsilon**2))
    return np.linalg.solve(blocks, coeffs.T[..., None])[..., 0].T


class TestTridiagonalSolve:
    """The even-level Thomas solve of the implicit blocks, on the half spectrum."""

    solve_cases = given(
        n_x=st.integers(2, 48).map(lambda h: 2 * h),
        n_v=st.integers(4, 96),
        epsilon=st.floats(1e-3, 1.0),
        stiffness=st.floats(-4.0, 4.0).map(lambda e: 10.0**e),  # dt / eps^2
        seed=st.integers(0, 2**32 - 1),
    )

    @settings(max_examples=60, deadline=None)
    @solve_cases
    def test_matches_dense_solve(self, n_x, n_v, epsilon, stiffness, seed):
        dt = stiffness * epsilon**2
        cfg = SolverConfig(epsilon=epsilon, t_final=1.0, n_x=n_x, n_v=n_v, dt_max=5e-3,
                           scheme="imex_euler")
        stepper = VpfpStepper(cfg, dt)
        coeffs = hermitian_coeffs(np.random.default_rng(seed), n_x, n_v)
        got = stepper.factors(dt).solve(coeffs.copy())
        want = dense_implicit_solve(stepper.grid, n_v, epsilon, dt, coeffs)
        # every mode, k = 0 and Nyquist included
        err = np.linalg.norm(got - want, axis=0)
        assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=0))
        # and bit for bit what the in-place solve on strided rows gives
        assert np.array_equal(got, oracles.strided_solve(stepper.factors(dt), coeffs.copy()))

        # the pivots p_j of the even-level Schur complement S are real and
        # p_j >= d_{2j} >= 1
        inv_pivot = stepper.factors(dt).inv_pivot
        diag_even = 1.0 + dt * (np.arange(0, n_v, 2) / epsilon**2)
        assert inv_pivot.dtype == np.float64
        assert np.all(inv_pivot > 0.0)
        assert np.all(inv_pivot <= 1.0 / diag_even[:, None])

    @settings(max_examples=30, deadline=None)
    @solve_cases
    def test_transport_off_is_exactly_diagonal(self, n_x, n_v, epsilon, stiffness, seed):
        # blocks without streaming (k = 0 in every column) solve bit-exactly
        dt = stiffness * epsilon**2
        coeffs = hermitian_coeffs(np.random.default_rng(seed), n_x, n_v)
        factors = TridiagonalFactors.build(np.zeros(coeffs.shape[1]), n_v, epsilon, dt)
        got = factors.solve(coeffs.copy())
        assert np.array_equal(got, coeffs * (1.0 / (1.0 + dt * (np.arange(n_v) / epsilon**2)))[:, None])

    def test_stiff_modes_match_dense_solve(self):
        # dt / eps^2 = 1e4 at eps = 1: the pivots of the whole block grow by
        # ~2e7 on the top modes, where a Thomas sweep over all levels loses
        # about 1.5e-11; the even-level solve keeps the dense-solve accuracy
        # and leaves the k = 0 block exact
        cfg = SolverConfig(epsilon=1.0, t_final=1.0, n_x=96, n_v=95, dt_max=5e-3,
                           scheme="imex_euler")
        stepper = VpfpStepper(cfg, 1e4)
        coeffs = hermitian_coeffs(np.random.default_rng(5), 96, 95)
        got = stepper.factors(1e4).solve(coeffs.copy())
        want = dense_implicit_solve(stepper.grid, 95, 1.0, 1e4, coeffs)
        err = np.linalg.norm(got - want, axis=0)
        assert np.all(err <= 1e-13 * np.linalg.norm(want, axis=0))
        assert np.array_equal(got[:, 0], coeffs[:, 0] * (1.0 / (1.0 + 1e4 * np.arange(95))))

    @pytest.mark.parametrize("n_x, n_v, epsilons", [
        (32, 16, (0.1,)),
        (32, 15, (0.1,)),
        (64, 64, (0.2, 0.1, 0.05, 0.025)),
        (64, 63, (0.2, 0.1, 0.05, 0.025)),
        (1024, 16, (0.05,)),
    ])
    def test_matches_strided_solve(self, n_x, n_v, epsilons):
        # the parity-major workspace changes where the rows live, not a bit
        # of the solution, for the Euler and the BDF2 factors of a batch
        cfg = SolverConfig(epsilon=epsilons[0], t_final=1.0, n_x=n_x, n_v=n_v, dt_max=5e-3,
                           scheme="imex_euler")
        stepper = VpfpStepper(cfg, 1e-3, epsilons)
        rng = np.random.default_rng(n_v)
        shape = (n_v, len(epsilons), n_x // 2 + 1)
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for dt_eff in (1e-3, 2e-3 / 3):
            factors = stepper.factors(dt_eff)
            x = coeffs.copy()
            assert factors.solve(x) is x
            assert np.array_equal(x, oracles.strided_solve(factors, coeffs.copy()))

    @pytest.mark.parametrize("n_v", [4, 5, 6, 7, 9])
    def test_stiff_small_blocks_match_dense_solve(self, n_v):
        # eps = 1, dt / eps^2 = 1e4, with n_v even and odd: the sweep must keep
        # the even levels, as back-substituting n = 0 (d_0 = 1) loses ~1e-11
        cfg = SolverConfig(epsilon=1.0, t_final=1.0, n_x=32, n_v=n_v, dt_max=5e-3,
                           scheme="imex_euler")
        stepper = VpfpStepper(cfg, 1e4)
        coeffs = hermitian_coeffs(np.random.default_rng(n_v), 32, n_v)
        got = stepper.factors(1e4).solve(coeffs.copy())
        want = dense_implicit_solve(stepper.grid, n_v, 1.0, 1e4, coeffs)
        err = np.linalg.norm(got - want, axis=0)
        assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=0))


class TestConservationAndConsistency:
    def test_mass_drift_raises_conservation_error(self, grid, basis):
        g = zero_field(grid, basis)
        state = KineticState(time=0.0, g=g)
        coeffs = np.zeros((basis.n_v, grid.n_half), dtype=complex)
        coeffs[0, 0] = 1e-9
        with pytest.raises(ConservationError, match="spatial mean changed"):
            VpfpStepper._finish(state, coeffs, 1e-3)
        assert issubclass(ConservationError, RuntimeError)  # the CLI's run-failure exit

    def test_non_finite_state_raises(self, grid, basis):
        state = cos_initial(grid, basis).repeated(1)
        coeffs = state.g.coeffs.copy()
        coeffs[3, 0, 2] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite state detected at t = 0.001"):
            VpfpStepper._finish(state, coeffs, 1e-3)

    def test_zero_state_is_fixed(self, grid, basis):
        g = zero_field(grid, basis)
        state = KineticState(time=0.0, g=g).repeated(1)
        cfg = small_config()
        stepper = VpfpStepper(cfg, 1e-3)
        new = stepper.step_euler(state, coupling(stepper, state.g))
        assert np.max(np.abs(new.g.coeffs)) == 0.0

    def test_mass_conserved_over_many_steps(self, grid, basis):
        cfg = small_config(epsilon=0.1, t_final=0.5, dt_max=1e-3)
        traj = sampled_run(cos_initial(grid, basis), cfg, sample_interval=0.5)
        final = traj.states[-1]
        assert abs(final.g.coeffs[0, 0]) <= 1e-12
        assert abs(final.time - 0.5) < 1e-12

    def test_sampled_states_poisson_consistent(self, grid, basis):
        cfg = small_config(t_final=0.1)
        traj = sampled_run(cos_initial(grid, basis), cfg, sample_interval=0.05)
        for s in traj.states:
            lap = x_derivative(grid, s.macro.grad_phi)
            assert np.max(np.abs(-lap - s.macro.a)) < 1e-11

    def test_energy_decays_monotonically(self, grid, basis):
        cfg = small_config(epsilon=0.1, t_final=0.2, dt_max=2e-3)
        energies = []

        def observe(batch):
            state = member(batch)
            g_sq = l2_norm(state.g) ** 2
            e_sq = spatial_l2_norm(grid, state.macro.grad_phi) ** 2
            energies.append(0.5 * (g_sq + e_sq))

        run(cos_initial(grid, basis), cfg, observe, sample_interval=0.01)
        energies = np.asarray(energies)
        assert np.all(np.diff(energies) < 0.0)

    def test_hermitian_symmetry_maintained(self, grid, basis):
        # a half-spectrum is Hermitian iff its rows m = 0 and n_x/2 are real
        cfg = small_config(t_final=0.05)
        traj = sampled_run(cos_initial(grid, basis), cfg, sample_interval=0.05)
        assert np.all(traj.states[-1].g.coeffs[:, [0, -1]].imag == 0.0)


class TestHalfSpectrumSteps:
    """Steps read and return the Hermite-major half-spectrum m = 0..n_x/2."""

    @staticmethod
    def first_states(n_x, n_v, epsilon, seed):
        """A random neutral real state s0 and the Euler step s1 from it, each
        with its explicit terms."""
        cfg = small_config(epsilon=epsilon, n_x=n_x, n_v=n_v)
        stepper = VpfpStepper(cfg, 1e-3)
        coeffs = 1e-3 * hermitian_coeffs(np.random.default_rng(seed), n_x, n_v)
        coeffs[0, 0] = 0.0
        g = SpectralField(stepper.grid, cfg.make_basis(), coeffs)
        s0 = KineticState(time=0.0, g=g).repeated(1)
        e0 = coupling(stepper, s0.g)
        s1 = stepper.step_euler(s0, e0)
        e1 = coupling(stepper, s1.g)
        return stepper, (s0, e0), (s1, e1)

    @settings(max_examples=30, deadline=None)
    @given(n_x=st.integers(2, 48).map(lambda h: 2 * h), n_v=st.integers(4, 48),
           epsilon=st.floats(1e-2, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_real_rows_exact_and_mass_kept(self, n_x, n_v, epsilon, seed):
        # rows m = 0 and m = n_x/2 of a real field are real; the streaming
        # wavenumber 0 at the Nyquist mode keeps them exactly real
        stepper, (s0, e0), (s1, e1) = self.first_states(n_x, n_v, epsilon, seed)
        s2 = stepper.step_bdf2(s1, s0, e1, e0)
        for state in (s1, s2):
            c = state.g.coeffs
            assert c.shape == (n_v, 1, n_x // 2 + 1) and c.flags.c_contiguous
            assert np.all(c[..., 0].imag == 0.0)
            assert np.all(c[..., -1].imag == 0.0)
            assert abs(c[0, 0, 0]) <= 1e-13

    def test_nyquist_profile_run_stays_real(self):
        # a density on the Nyquist mode n_x/2, where the streaming and field
        # symbols vanish: the row stays real and its density keeps its value
        # up to the rounding of the BDF2 weights
        cfg = small_config(epsilon=0.1, t_final=0.1, n_x=16, n_v=16, scheme="imex_bdf2")
        grid, basis = cfg.make_grid(), cfg.make_basis()
        nyquist = 0.01 * np.cos(8 * grid.nodes)
        initial = make_initial_data(grid, basis, nyquist)
        traj = sampled_run(initial, cfg, sample_interval=0.05)
        first = traj.states[0].g.coeffs
        assert first[0, -1] != 0.0
        for state in traj.states:
            c = state.g.coeffs
            assert np.all(c[:, [0, -1]].imag == 0.0)
            assert c[0, -1].real == pytest.approx(first[0, -1].real, rel=1e-14)
            assert np.max(np.abs(real_field(grid, c[1]))) <= 1e-15  # the momentum b

    def test_warm_bdf2_step_transform_budget(self, fft_calls):
        # the coupling's field, then the inverse and forward transforms of
        # its product; the new state's moments are not formed
        stepper, (s0, e0), (s1, _) = self.first_states(64, 32, 0.1, 0)
        fft_calls.clear()
        expl = coupling(stepper, s1.g)
        stepper.step_bdf2(s1, s0, expl, e0)
        assert [call.name for call in fft_calls] == ["irfft", "irfft", "rfft"]

    @pytest.mark.parametrize("epsilons", [(0.2,), (0.5, 0.2)])
    def test_macro_fields_only_where_read(self, grid, basis, monkeypatch, epsilons):
        # no step forms the moments; a sample's first read of macro forms
        # them once for the whole batch, bit for bit those of its g, and
        # later reads reuse them
        calls = []

        def counted_moments(g):
            calls.append(g)
            return moments(g)

        monkeypatch.setattr("vpfp.solver.moments", counted_moments)
        cfg = small_config(t_final=0.04, scheme="imex_bdf2")
        stepper = VpfpStepper(cfg, 5e-3, epsilons)
        state = stepper.advance(cos_initial(grid, basis, amplitude=0.05).repeated(len(epsilons)), 4)
        assert calls == []

        def read_twice(state):
            before = len(calls)
            first = state.macro
            assert len(calls) == before + 1 and calls[-1] is state.g
            want = moments(state.g)
            for name in ("a", "grad_phi"):
                assert getattr(first, name).shape == (len(epsilons), grid.n_x)
                assert np.array_equal(getattr(first, name), getattr(want, name))
            assert state.macro is first and len(calls) == before + 1

        read_twice(state)
        calls.clear()
        run(cos_initial(grid, basis, amplitude=0.05), cfg, read_twice,
            sample_interval=0.02, epsilons=epsilons)
        assert len(calls) == 3  # one per sample, whatever the batch size


class TestBufferOwnership:
    """The stepper owns the explicit-term buffers and its coupling
    scratch; a warm step allocates one state-sized array, the new state's
    coefficients, and sampled states are never written to."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("interval", [0.005, 0.02])  # 1 and 4 steps per sample
    def test_sampled_states_keep_their_coeffs(self, grid, basis, scheme, interval):
        cfg = small_config(t_final=0.06, scheme=scheme)  # dt = 5e-3
        seen = []  # (state, a copy of its coefficients when it was sampled)

        def keep(state):
            seen.append((state, state.g.coeffs.copy()))

        run(cos_initial(grid, basis, amplitude=0.05), cfg, keep, sample_interval=interval)
        assert len(seen) == round(0.06 / interval) + 1
        for state, coeffs in seen:
            assert np.array_equal(state.g.coeffs, coeffs)
        for (one, _), (two, _) in zip(seen, seen[1:]):
            assert not np.shares_memory(one.g.coeffs, two.g.coeffs)

    def test_fresh_arrays_without_out(self, grid, basis):
        stepper = VpfpStepper(small_config(), 1e-3)
        state = cos_initial(grid, basis, amplitude=0.05)
        batch = state.repeated(1)
        for given, make in ((batch, lambda: coupling(stepper, batch.g)),
                            (state, lambda: vpfp_rhs(state.g, 0.2))):
            one, two = make(), make()
            assert np.array_equal(one, two)
            assert not np.shares_memory(one, two)
            assert not np.shares_memory(one, given.g.coeffs)

    @pytest.mark.parametrize("fields", [True, False])
    def test_out_is_filled_and_returned(self, grid, basis, fields):
        # without fields (no density) every term is zero, and out is still
        # overwritten
        stepper = VpfpStepper(small_config(), 1e-3)
        state = cos_initial(grid, basis, amplitude=0.05 if fields else 0.0)
        batch = state.repeated(1)
        out = np.full_like(batch.g.coeffs, np.nan)
        assert coupling(stepper, batch.g, out=out) is out
        assert np.array_equal(out, coupling(stepper, batch.g))
        out = np.full_like(state.g.coeffs, np.nan)
        scratch = np.full((basis.n_v - 1, grid.n_x), np.nan)
        assert vpfp_rhs(state.g, 0.2, out=out, scratch=scratch) is out
        assert np.array_equal(out, vpfp_rhs(state.g, 0.2))
        assert np.any(out) == fields

    @pytest.mark.parametrize("scheme, n_buffers", [("imex_euler", 1), ("imex_bdf2", 2)])
    def test_steps_reuse_their_buffers(self, grid, basis, fft_calls, scheme, n_buffers):
        cfg = small_config(t_final=0.02, scheme=scheme)  # four steps
        initial = cos_initial(grid, basis, amplitude=0.05)
        fft_calls.clear()
        traj = sampled_run(initial, cfg, sample_interval=0.01)
        # the coupling's inverse transform: the one scratch on every step
        scratch = [call.out for call in fft_calls if call.name == "irfft" and call.out is not None]
        assert len(scratch) == 4
        assert all(s is scratch[0] for s in scratch)
        # its forward transform: rows 1.. of the stepper's explicit-term buffers
        explicit = [call.out for call in fft_calls if call.name == "rfft" and call.out is not None]
        assert len(explicit) == 4
        assert len({id(out.base) for out in explicit}) == n_buffers
        for state in traj.states:
            for buf in [scratch[0]] + [out.base for out in explicit]:
                assert not np.shares_memory(state.g.coeffs, buf)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_warm_step_allocates_one_state(self, monkeypatch, scheme):
        # at 1024 x 16 the 131 KB coefficients dwarf every per-row array
        cfg = small_config(epsilon=0.05, n_x=1024, n_v=16)
        stepper = VpfpStepper(cfg, 1e-3)
        s0 = cos_initial(stepper.grid, cfg.make_basis(), amplitude=0.05).repeated(1)
        e0 = coupling(stepper, s0.g)
        s1 = stepper.step_euler(s0, e0)
        e1 = coupling(stepper, s1.g)
        # the stepper holds the factors of the last step's scheme only, so
        # the warm-up ends with a step of the measured scheme
        if scheme == "imex_euler":
            s2 = stepper.step_euler(s1, e1)
        else:
            s2 = stepper.step_bdf2(s1, s0, e1, e0)  # builds the BDF2 factors
        # the in-place solve has its own row temporaries; this test is about
        # the explicit terms and the right-hand side
        monkeypatch.setattr(TridiagonalFactors, "solve", lambda self, x: x)
        nbytes = s0.g.coeffs.nbytes
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            expl = coupling(stepper, s2.g, out=e0)
            coupling_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            if scheme == "imex_euler":
                new = stepper.step_euler(s2, expl)
            else:
                new = stepper.step_bdf2(s2, s1, expl, e1)
            kept, step_peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert coupling_peak < nbytes
        assert nbytes <= kept < 1.5 * nbytes  # the new state
        assert step_peak < 2 * nbytes
        assert new.g.coeffs.nbytes == nbytes


class TestFactorSets:
    """The stepper holds the factor set of its current effective step only."""

    @pytest.mark.parametrize("scheme, n_sets", [("imex_euler", 1), ("imex_bdf2", 2)])
    @pytest.mark.parametrize("n_steps", [3, 6])
    def test_builds_each_set_once_and_holds_one(self, grid, basis, monkeypatch, scheme,
                                                n_sets, n_steps):
        built = []  # a weak reference to each set, in the order they were built
        build = TridiagonalFactors.build.__func__

        def recorded_build(cls, *args, **kwargs):
            # a set is built only once the stepper has dropped the one before
            assert all(ref() is None for ref in built)
            factors = build(cls, *args, **kwargs)
            built.append(weakref.ref(factors))
            return factors

        monkeypatch.setattr(TridiagonalFactors, "build", classmethod(recorded_build))
        stepper = VpfpStepper(small_config(scheme=scheme), 5e-3)
        state = stepper.advance(cos_initial(grid, basis, amplitude=0.05).repeated(1), n_steps)
        assert state.time == pytest.approx(n_steps * 5e-3)
        assert len(built) == n_sets
        assert [ref() is not None for ref in built] == [False] * (n_sets - 1) + [True]


class TestAccuracy:
    def final_coeffs(self, grid, basis, scheme, dt):
        cfg = small_config(epsilon=0.2, t_final=0.1, scheme=scheme, dt_max=dt)
        traj = sampled_run(cos_initial(grid, basis), cfg, sample_interval=0.1)
        return traj.states[-1].g.coeffs

    def observed_order(self, grid, basis, scheme, dts):
        ref = self.final_coeffs(grid, basis, scheme, dts[-1] / 8.0)
        errs = [np.sqrt(np.sum(np.abs(self.final_coeffs(grid, basis, scheme, dt) - ref) ** 2))
                for dt in dts]
        rates = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        return min(rates), max(rates)

    def test_euler_first_order(self, grid, basis):
        lo, hi = self.observed_order(grid, basis, "imex_euler", [4e-3, 2e-3, 1e-3])
        assert 0.7 < lo and hi < 1.35

    def test_bdf2_second_order(self, grid, basis):
        lo, hi = self.observed_order(grid, basis, "imex_bdf2", [4e-3, 2e-3, 1e-3])
        assert 1.6 < lo and hi < 2.4

    def test_bdf2_beats_euler(self, grid, basis):
        ref = self.final_coeffs(grid, basis, "imex_bdf2", 1e-4)
        err_euler = np.max(np.abs(self.final_coeffs(grid, basis, "imex_euler", 2e-3) - ref))
        err_bdf2 = np.max(np.abs(self.final_coeffs(grid, basis, "imex_bdf2", 2e-3) - ref))
        assert err_bdf2 < err_euler / 5.0


class TestRunHarness:
    def test_discretization_mismatch_rejected(self, grid, basis):
        cfg = SolverConfig(epsilon=0.2, t_final=0.1, n_x=64, n_v=64, dt_max=5e-3,
                           scheme="imex_euler")
        with pytest.raises(ConfigurationError, match="does not match"):
            run(cos_initial(grid, basis), cfg, sample_interval=0.1)

    def test_empty_batch_rejected(self, grid, basis):
        # no member to step: the observer is never called
        seen = []
        with pytest.raises(ConfigurationError, match="a batch needs at least one epsilon"):
            run(cos_initial(grid, basis), small_config(), seen.append, sample_interval=0.05,
                epsilons=())
        assert seen == []

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_sampled_states_share_initial_grid_and_basis(self, grid, basis, scheme):
        initial = cos_initial(grid, basis)
        samples = []
        run(initial, small_config(t_final=0.04, scheme=scheme), samples.append,
            sample_interval=0.02, epsilons=(0.5, 0.2))
        assert len(samples) == 3
        for state in samples:
            assert state.g.coeffs.shape == (basis.n_v, 2, grid.n_half)
            assert state.g.grid is initial.g.grid and state.g.basis is initial.g.basis

    def test_zero_time_returns_initial(self, grid, basis):
        cfg = small_config(t_final=0.0)
        state = cos_initial(grid, basis)
        samples = []
        assert run(state, cfg, samples.append, sample_interval=0.05) is None
        # the one sample is initial as a batch of one, a view of its coefficients
        (batch,) = samples
        assert batch.time == 0.0 and batch.g.coeffs.shape == (basis.n_v, 1, grid.n_half)
        assert np.shares_memory(batch.g.coeffs, state.g.coeffs)
        assert np.array_equal(batch.g.coeffs[:, 0], state.g.coeffs)

    @pytest.mark.parametrize("interval", [0.0, -0.025])
    def test_nonpositive_sample_interval_rejected(self, grid, basis, interval):
        with pytest.raises(ConfigurationError, match="sample_interval must be positive"):
            run(cos_initial(grid, basis), small_config(), sample_interval=interval)

    def test_sample_times_are_exact_multiples(self, grid, basis):
        cfg = small_config(t_final=0.1)
        times = []
        run(cos_initial(grid, basis), cfg, lambda state: times.append(state.time),
            sample_interval=0.025)
        assert np.allclose(times, np.arange(5) * 0.025, atol=1e-15)

    def test_deterministic_rerun(self, grid, basis):
        cfg = small_config(t_final=0.1, scheme="imex_bdf2")
        one = sampled_run(cos_initial(grid, basis), cfg, sample_interval=0.05)
        two = sampled_run(cos_initial(grid, basis), cfg, sample_interval=0.05)
        for a, b in zip(one.states, two.states, strict=True):
            assert np.array_equal(a.g.coeffs, b.g.coeffs)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_batch_members_equal_single_runs(self, grid, basis, scheme):
        cfg = small_config(t_final=0.04, scheme=scheme)
        epsilons = (0.5, 0.2, 0.1)  # dt = dt_max for each
        initial = cos_initial(grid, basis, amplitude=0.05)
        samples = []
        run(initial, cfg, samples.append, sample_interval=0.02, epsilons=epsilons)
        first = samples[0].g.coeffs
        assert first.shape[1] == 3
        assert all(np.array_equal(first[:, i], initial.g.coeffs) for i in range(3))
        for i, eps in enumerate(epsilons):
            single = sampled_run(initial, replace(cfg, epsilon=eps), sample_interval=0.02)
            assert [batch.time for batch in samples] == single.times.tolist()
            for batch, state in zip(samples, single.states, strict=True):
                assert np.array_equal(batch.g.coeffs[:, i], state.g.coeffs)
                assert np.array_equal(batch.macro.grad_phi[i], state.macro.grad_phi)

    def test_batch_spans_any_epsilons(self, grid, basis):
        # every member steps at dt_max, so eps 200 times apart form one batch
        cfg = small_config(t_final=0.02)
        initial = cos_initial(grid, basis)
        samples = []
        run(initial, cfg, samples.append, sample_interval=0.01,
            epsilons=(0.2, 0.001))
        single = sampled_run(initial, replace(cfg, epsilon=0.001), sample_interval=0.01)
        for batch, state in zip(samples, single.states, strict=True):
            assert np.array_equal(batch.g.coeffs[:, 1], state.g.coeffs)

    def test_batch_member_must_be_a_valid_config(self, grid, basis):
        with pytest.raises(ConfigurationError, match="epsilon must lie in"):
            run(cos_initial(grid, basis), small_config(), sample_interval=0.05,
                epsilons=(0.2, 0.0))

    def test_observers_see_every_sample(self, grid, basis):
        # the observer gets each sample's batch state, of one member by default
        cfg = small_config(t_final=0.1)
        seen = []
        run(cos_initial(grid, basis), cfg,
            lambda state: seen.append((state.time, state.g.coeffs.shape[1])),
            sample_interval=0.02)
        assert seen == [(t, 1) for t in np.arange(6) * 0.02]
