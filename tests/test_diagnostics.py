"""Norms, energy/dissipation functionals, moment residuals, limit-error terms.

Closed-form values are checked on single basis elements where every norm
is a short explicit sum; Gauss-Hermite quadrature provides the independent
values for the velocity-weighted norms.  The moment residuals are the
oracles' (oracles.moment_residuals), checked here on sampled runs.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vpfp.ddp import ddp_run, make_ddp_state
from vpfp.diagnostics import (
    EnergyReport,
    energy_functionals,
    limit_error,
)
from vpfp.harness import METRIC_KEYS, sweep_record
from vpfp.solver import KineticState, SolverConfig, make_initial_data, run
from vpfp.spectral import (MAX_N_V, ORDER, HermiteBasis, SpatialGrid, SpectralField,
                           inverse_transform)

import oracles
from oracles import half_spectrum_nu_norm, l2_norm, moment_residuals
from conftest import (Trajectory, basis_element, member, random_distribution, sampled_run,
                      zero_field)

VOL = 2.0 * np.pi
# the terms of E_k and of D_k among the report's fields
E_TERMS = EnergyReport._fields[3:6]
D_TERMS = EnergyReport._fields[6:11]


def make_state(g, time=0.0):
    return KineticState(time=time, g=g)


def energy_of(state, epsilon):
    """The energy report of state, observed as a batch of one."""
    (report,) = energy_functionals(state.repeated(1), (epsilon,))
    return report


def trajectory_limit_error(kinetic, ddp_states):
    """The limit metrics that harness.sweep_record reduces from the
    limit_error terms of every pair of samples, each kinetic state observed
    as a batch of one; the energy reports it also reads carry the kinetic
    sample times and zero functionals."""
    terms = [limit_error(ks.repeated(1), ds)[0] for ks, ds in zip(kinetic.states, ddp_states)]
    reports = [EnergyReport(t, *[0.0] * 12) for t in kinetic.times]
    record = sweep_record(0.0, reports, terms)
    return {key: record[key] for key in METRIC_KEYS}


def short_run(grid, basis, epsilon=0.2, t_final=0.2, scheme="imex_bdf2",
              amplitude=0.01, sample_interval=0.05, dt_max=2e-3):
    cfg = SolverConfig(epsilon=epsilon, t_final=t_final, n_x=grid.n_x, n_v=basis.n_v,
                       dt_max=dt_max, scheme=scheme)
    initial = make_initial_data(grid, basis, amplitude * np.cos(grid.nodes))
    return sampled_run(initial, cfg, sample_interval=sample_interval)


class TestNuNorm:
    def test_ground_level_value(self, grid, basis):
        f = basis_element(grid, basis, 0, 0)
        # ||d_v f||^2 = vol/4, ||f||^2 = vol, ||v f||^2 = vol
        assert half_spectrum_nu_norm(f) ** 2 == pytest.approx(2.25 * VOL, rel=1e-12)

    def test_matches_quadrature_at_top_level(self, grid, basis):
        n = basis.n_v - 1
        f = basis_element(grid, basis, 0, n)
        # ||v psi_n||^2 = 2n+1, ||d_v psi_n||^2 = (2n+1)/4
        expected = VOL * (1.0 + (2 * n + 1) + (2 * n + 1) / 4.0)
        assert half_spectrum_nu_norm(f) ** 2 == pytest.approx(expected, rel=1e-12)

    def test_dominates_l2(self, grid, basis, rng):
        g = random_distribution(rng, grid, basis)
        l2_sq = l2_norm(g) ** 2
        assert half_spectrum_nu_norm(g) ** 2 >= l2_sq * (1 - 1e-12)


class TestEnergyFunctionals:
    def test_initial_data_closed_form(self, grid, basis):
        # g = 0.01 cos(x) psi_0 at k = 2: ||a||^2_{H^2} = 3 pi 1e-4 and
        # ||a||^2_{H^1} = 2 pi 1e-4, so E_2 = 5 pi 1e-4
        state = make_state(make_initial_data(grid, basis, 0.01 * np.cos(grid.nodes)).g)
        rep = energy_of(state, epsilon=0.5)
        assert rep.E_k == pytest.approx(5 * np.pi * 1e-4, rel=1e-10)
        assert rep.gradv_micro_Hkm1_sq == 0.0

    def test_components_sum_to_totals(self, grid, basis, rng):
        state = make_state(random_distribution(rng, grid, basis))
        rep = energy_of(state, epsilon=0.3)
        e_sum = sum(getattr(rep, key) for key in E_TERMS)
        d_sum = sum(getattr(rep, key) for key in D_TERMS)
        assert rep.E_k == pytest.approx(e_sum, rel=1e-14)
        assert rep.D_k == pytest.approx(d_sum, rel=1e-14)

    def test_dissipation_epsilon_scaling(self, grid, basis, rng):
        state = make_state(random_distribution(rng, grid, basis))
        r1 = energy_of(state, epsilon=0.4)
        r2 = energy_of(state, epsilon=0.2)
        c1, c2 = r1._asdict(), r2._asdict()
        assert c2["micro_nu_Hk_sq"] == pytest.approx(4 * c1["micro_nu_Hk_sq"], rel=1e-12)
        assert c2["b_Hk_sq"] == pytest.approx(4 * c1["b_Hk_sq"], rel=1e-12)
        assert c2["grad_b_Hkm1_sq"] == pytest.approx(2 * c1["grad_b_Hkm1_sq"], rel=1e-12)
        assert c2["grad_a_Hkm1_sq"] == c1["grad_a_Hkm1_sq"]
        assert c2["grad_phi_Hk_sq"] == c1["grad_phi_Hk_sq"]
        assert r2.E_k == pytest.approx(r1.E_k, rel=1e-14)

    def test_residuals_small_on_solver_states(self, grid, basis):
        # the wide grid has the largest k^2: a residual that transformed
        # the field back and forth would grow with it
        for g, b in ((grid, basis), (SpatialGrid(n_x=1024), basis)):
            for state in short_run(g, b).states:
                rep = energy_of(state, epsilon=0.2)
                assert rep.mass_residual < 1e-13
                assert rep.poisson_residual < 1e-14

    def test_poisson_residual_on_nyquist_profile_run(self):
        # a density on the Nyquist mode n_x/2, where d/dx has the symbol 0
        # but the Laplacian has -k^2
        cfg = SolverConfig(epsilon=0.1, t_final=0.1, n_x=16, n_v=16, dt_max=5e-3,
                           scheme="imex_bdf2")
        grid, basis = cfg.make_grid(), cfg.make_basis()
        nyquist = 0.01 * np.cos(8 * grid.nodes)
        initial = make_initial_data(grid, basis, nyquist)
        for state in sampled_run(initial, cfg, sample_interval=0.05).states:
            assert energy_of(state, epsilon=0.1).poisson_residual <= 1e-12

    def test_csv_row_shape(self, grid, basis, rng):
        state = make_state(random_distribution(rng, grid, basis))
        rep = energy_of(state, epsilon=0.5)
        row = rep.csv_row().split(",")
        assert len(row) == len(EnergyReport._fields)
        assert EnergyReport._fields == (
            "time", "E_k", "D_k", "g_HkxL2v_sq", "gradv_micro_Hkm1_sq", "ab_Hkm1_sq",
            "micro_nu_Hk_sq", "b_Hk_sq", "grad_b_Hkm1_sq", "grad_a_Hkm1_sq", "grad_phi_Hk_sq",
            "mass_residual", "poisson_residual")
        parsed = [float(v) for v in row]
        assert parsed[1] == pytest.approx(rep.E_k, rel=1e-16)


class TestMomentResiduals:
    def test_requires_enough_samples(self, grid, basis):
        traj = short_run(grid, basis, t_final=0.05, sample_interval=0.05)
        with pytest.raises(ValueError, match="at least 3"):
            moment_residuals(traj.states, epsilon=0.2)

    def test_requires_equal_spacing(self, grid, basis):
        traj = short_run(grid, basis)
        states = [traj.states[0], traj.states[1], traj.states[3]]
        with pytest.raises(ValueError, match="equally spaced"):
            moment_residuals(states, epsilon=0.2)

    def test_residuals_shrink_with_dt(self, grid, basis):
        # the continuity residual is pure time-differencing error, so it
        # falls when the sampling interval does
        out = {}
        for interval in (0.02, 0.01):
            traj = short_run(grid, basis, epsilon=0.2, t_final=0.3,
                             sample_interval=interval, dt_max=5e-4)
            late = [s for s in traj.states if s.time > 0.1 - 1e-12]
            res = moment_residuals(late, epsilon=0.2)
            out[interval] = np.max(res["continuity"])
        assert out[0.01] < out[0.02] / 2.0

    def test_shapes_and_times(self, grid, basis):
        traj = short_run(grid, basis)
        res = moment_residuals(traj.states, epsilon=0.2)
        n_interior = len(traj.states) - 2
        assert res["times"].shape == (n_interior,)
        for key in ("continuity", "momentum", "stress"):
            assert res[key].shape == (n_interior,)
            assert np.all(np.isfinite(res[key]))


class TestLimitError:
    def test_zero_states_give_zero_metrics(self, grid, basis):
        g = zero_field(grid, basis)
        cfg = SolverConfig(epsilon=0.2, t_final=0.1, n_x=grid.n_x, n_v=basis.n_v,
                           dt_max=5e-3, scheme="imex_euler")
        kin = sampled_run(make_state(g), cfg, sample_interval=0.05)
        flu = ddp_run(grid, np.zeros(grid.n_x), dt=1e-3, t_final=0.1,
                      sample_interval=0.05)
        metrics = trajectory_limit_error(kin, flu)
        for value in metrics.values():
            assert value == 0.0

    def test_mismatched_times_rejected(self, grid, basis):
        g = zero_field(grid, basis)
        cfg = SolverConfig(epsilon=0.2, t_final=0.1, n_x=grid.n_x, n_v=basis.n_v,
                           dt_max=5e-3, scheme="imex_euler")
        kin = sampled_run(make_state(g), cfg, sample_interval=0.05)
        flu = ddp_run(grid, np.zeros(grid.n_x), dt=1e-3, t_final=0.1,
                      sample_interval=0.025)
        with pytest.raises(ValueError, match="sampling times"):
            trajectory_limit_error(kin, flu)

    def test_pointwise_error_of_known_state(self, grid, basis):
        # kinetic state g = c cos(x) psi_0 against fluid rho0 = 0:
        # f - f_lim = c cos(x) sqrt(M) M^{1/2} = c cos(x) M, sup = c * M(0)
        c = 0.01
        g = basis_element(grid, basis, 1, 0, amplitude=c)
        kin_traj = Trajectory(times=np.array([0.0]), states=[make_state(g)])
        flu = ddp_run(grid, np.zeros(grid.n_x), dt=1e-3, t_final=0.0, sample_interval=0.05)
        metrics = trajectory_limit_error(kin_traj, flu)
        # sup over the collocation nodes: the Maxwellian peaks at the
        # quadrature node closest to v = 0
        v_star = basis.quad_nodes[np.argmin(np.abs(basis.quad_nodes))]
        m_star = np.exp(-0.5 * v_star**2) / np.sqrt(2 * np.pi)
        assert metrics["pointwise_sup_error"] == pytest.approx(c * m_star, rel=1e-10)
        assert metrics["sup_moment_error"] == pytest.approx(c * np.sqrt(np.pi), rel=1e-12)

    def test_tracks_resolved_pair(self, grid, basis):
        # a small-epsilon kinetic run should stay close to the fluid run
        traj = short_run(grid, basis, epsilon=0.05, t_final=0.2, dt_max=1e-3)
        flu = ddp_run(grid, 0.01 * np.cos(grid.nodes), dt=2.5e-4, t_final=0.2,
                      sample_interval=0.05)
        metrics = trajectory_limit_error(traj, flu)
        assert 0.0 < metrics["sup_moment_error"] < 5e-3
        assert 0.0 < metrics["micro_time_integral"] < 1e-4

    @pytest.mark.parametrize("epsilon", [0.025, 1e-3])
    def test_pointwise_error_keeps_its_digits(self, grid, basis, epsilon):
        # f - (1 + rho0) M = psi_0 (G - rho0 psi_0) with G the point values
        # of g: evaluated in long double from the same double inputs, the
        # sup agrees to round-off, where forming f and (1 + rho0) M would
        # cancel terms of size M and lose digits like 1 / epsilon
        ks = short_run(grid, basis, epsilon=epsilon, t_final=0.2).states[-1]
        ds = ddp_run(grid, 0.01 * np.cos(grid.nodes), dt=2e-4, t_final=0.2,
                     sample_interval=0.2)[-1]
        (terms,) = limit_error(ks.repeated(1), ds)
        psi_0 = basis.synthesis[:, 0].astype(np.longdouble)
        values = inverse_transform(ks.g).astype(np.longdouble)
        want = np.max(np.abs(values - ds.rho0.astype(np.longdouble)[:, None] * psi_0) * psi_0)
        assert want > 0.0
        assert abs(terms.pointwise_error - want) <= 1e-15 * want


class TestBatchObservation:
    """One call of each diagnostic observes every member of a batch sample,
    as a batch of one of that member would."""

    @pytest.mark.parametrize("scheme", ["imex_euler", "imex_bdf2"])
    def test_members_equal_batches_of_one(self, grid, basis, scheme):
        epsilons = (0.4, 0.2, 0.1, 0.05)
        cfg = SolverConfig(epsilon=0.4, t_final=0.1, n_x=grid.n_x, n_v=basis.n_v,
                           dt_max=5e-3, scheme=scheme)
        density = 0.05 * (np.cos(grid.nodes) + 0.5 * np.sin(2.0 * grid.nodes))
        initial = make_initial_data(grid, basis, density)
        fluid = ddp_run(grid, density, dt=1e-3, t_final=0.1, sample_interval=0.05)
        observed = []

        def observe(state):
            reports = energy_functionals(state, epsilons)
            terms = limit_error(state, fluid[len(observed)])
            assert len(reports) == len(terms) == len(epsilons)
            for i, eps in enumerate(epsilons):
                one = member(state, i).repeated(1)
                assert reports[i] == energy_functionals(one, (eps,))[0]
                assert terms[i] == limit_error(one, fluid[len(observed)])[0]
            observed.append(reports)

        run(initial, cfg, observe, sample_interval=0.05, epsilons=epsilons)
        assert len(observed) == 3
        # the members differ once they have stepped
        assert len({report.D_k for report in observed[-1]}) == len(epsilons)


def rel_diff(got, want):
    return abs(got - want) / abs(want) if want else abs(got)


class TestHalfSpectrumMatchesFullSpectrum:
    """The half-spectrum norms and functionals against the full-spectrum
    formulas (tests/oracles.py) on random real fields."""

    cases = given(
        n_x=st.integers(2, 32).map(lambda h: 2 * h),
        n_v=st.integers(4, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    # the nu norm reads ||v h||^2 off the ladder-operator identity, so its
    # cases add hard velocity profiles (random_state) and n_v up to MAX_N_V
    profiled_cases = given(
        n_x=st.integers(2, 32).map(lambda h: 2 * h),
        n_v=st.integers(4, MAX_N_V),
        profile=st.sampled_from(("random", "delta", "top")),
        seed=st.integers(0, 2**32 - 1),
    )

    @staticmethod
    def random_state(n_x, n_v, rng, time=0.0, profile="random"):
        """A state of random Fourier content whose velocity profile is
        random, a truncated delta at v = 0 (c_n = psi_n(0) times one random
        Fourier row, where ||v h||^2 nearly cancels), or random in the top
        three Hermite levels alone."""
        grid, basis = SpatialGrid(n_x=n_x), HermiteBasis(n_v=n_v)
        coeffs = oracles.random_half_spectrum(rng, n_x, n_v, scale=1e-2)
        if profile == "delta":
            coeffs = basis.functions(v=np.zeros(1))[0][:, None] * coeffs[0]
        elif profile == "top":
            coeffs[:-3] = 0.0
        coeffs[0, 0] = 0.0
        return make_state(SpectralField(grid, basis, coeffs), time)

    @settings(max_examples=40, deadline=None)
    @profiled_cases
    @example(n_x=16, n_v=MAX_N_V, profile="delta", seed=0)
    @example(n_x=16, n_v=MAX_N_V, profile="top", seed=0)
    def test_energy_functionals(self, n_x, n_v, profile, seed):
        rng = np.random.default_rng(seed)
        state = self.random_state(n_x, n_v, rng, profile=profile)
        epsilon = rng.uniform(1e-2, 1.0)
        rep = energy_of(state, epsilon)
        want = oracles.energy_components(state, ORDER, epsilon)
        assert tuple(want) == E_TERMS + D_TERMS
        for key in want:
            assert rel_diff(getattr(rep, key), want[key]) <= 1e-13, key
        e_k = sum(want[key] for key in E_TERMS)
        d_k = sum(want[key] for key in D_TERMS)
        assert rel_diff(rep.E_k, e_k) <= 1e-13 and rel_diff(rep.D_k, d_k) <= 1e-13

    @settings(max_examples=40, deadline=None)
    @profiled_cases
    @example(n_x=16, n_v=MAX_N_V, profile="delta", seed=0)
    @example(n_x=16, n_v=MAX_N_V, profile="top", seed=0)
    def test_nu_norm(self, n_x, n_v, profile, seed):
        g = self.random_state(n_x, n_v, np.random.default_rng(seed), profile=profile).g
        assert rel_diff(half_spectrum_nu_norm(g), oracles.nu_norm(g)) <= 1e-13

    @settings(max_examples=30, deadline=None)
    @cases
    def test_limit_error(self, n_x, n_v, seed):
        rng = np.random.default_rng(seed)
        times = np.array([0.0, 0.05, 0.1])
        grid = SpatialGrid(n_x=n_x)
        fluid = []
        for t in times:
            rho = 1e-2 * rng.standard_normal(n_x)
            fluid.append(make_ddp_state(grid, t, rho - rho.mean()))
        kinetic = Trajectory(times=times,
                             states=[self.random_state(n_x, n_v, rng, t) for t in times])
        got = trajectory_limit_error(kinetic, fluid)
        want = oracles.limit_error(kinetic, fluid, ORDER)
        assert got.keys() == want.keys()
        for key in got:
            assert rel_diff(got[key], want[key]) <= 1e-13, key

    def test_energy_uses_real_transforms_only(self, grid, basis, rng, fft_calls):
        state = make_state(random_distribution(rng, grid, basis))
        fft_calls.clear()
        energy_of(state, epsilon=0.1)
        assert fft_calls and {call.name for call in fft_calls} <= {"rfft", "irfft"}
