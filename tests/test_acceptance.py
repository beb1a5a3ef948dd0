"""Acceptance gate: one test per headline criterion, each recording a
pass/fail line that is printed in the terminal summary.

The first four criteria are operator-level: they run the checks of
tests/oracles.py on their own seeded fields, and criterion 1 adds the
independent finite-difference oracle.  The remainder
exercise full runs, at the default experiment scale or, for the small-eps
criteria 12 and 14, on the 32 x 16 grid.
"""

import numpy as np
import pytest

from vpfp.ddp import ddp_run
from vpfp.diagnostics import energy_functionals
from vpfp.harness import (
    SweepConfig,
    default_sweep_config,
    run_sweep,
)
from vpfp.operators import spatial_l2_norm
from vpfp.solver import KineticState, SolverConfig, make_initial_data, run, step_schedule
from vpfp.spectral import HermiteBasis, SpatialGrid

from conftest import (
    fd_collision_inner_product,
    member,
    random_distribution,
    record_acceptance,
    sampled_run,
    zero_field,
)
from oracles import check_coercivity, check_collision, check_poisson, check_projections, l2_norm


@pytest.fixture(scope="module")
def small_grid():
    return SpatialGrid(n_x=32)


@pytest.fixture(scope="module")
def small_basis():
    return HermiteBasis(n_v=16)


@pytest.fixture(scope="module")
def default_sweep():
    """The default experiment: epsilons {0.2, 0.1, 0.05, 0.025} on the
    64 x 64 grid to t = 1 with the second-order scheme."""
    cfg = SweepConfig.from_dict(default_sweep_config())
    return run_sweep(cfg)


def cos_state(grid, basis, amplitude=0.01):
    return make_initial_data(grid, basis, amplitude * np.cos(grid.nodes))


def test_criterion_1_operator_exactness(small_grid, small_basis):
    ok, detail = check_collision(small_grid, small_basis)
    oracle_err = max(abs(fd_collision_inner_product(small_basis, n, n) - n)
                     for n in range(6))
    ok = ok and oracle_err < 1e-8
    record_acceptance(1, "collision operator fixes v sqrt(M); eigenvalues match "
                      "the finite-difference oracle", ok,
                      f"{detail}, oracle err {oracle_err:.1e}")
    assert ok


def test_criterion_2_projection_algebra(small_grid, small_basis):
    rng = np.random.default_rng(7)
    fields = [random_distribution(rng, small_grid, small_basis) for _ in range(100)]
    ok, detail = check_projections(fields)
    record_acceptance(2, "projection identities exact on 100 random fields", ok, detail)
    assert ok


def test_criterion_3_coercivity(small_grid, small_basis):
    rng = np.random.default_rng(11)
    fields = [random_distribution(rng, small_grid, small_basis) for _ in range(100)]
    ok, detail = check_coercivity(fields)
    record_acceptance(3, "collision dissipation dominates the microscopic part", ok, detail)
    assert ok


def test_criterion_4_poisson_and_poincare(small_grid):
    samples = np.random.default_rng(13).standard_normal((100, small_grid.n_x))
    ok, detail = check_poisson(small_grid, samples)
    record_acceptance(4, "field solve exact on eigenfunctions; zero-mean "
                      "Poincare inequality holds", ok, detail)
    assert ok


def test_criterion_5_conservation_and_equilibrium(small_grid, small_basis):
    cfg = SolverConfig(epsilon=0.1, t_final=1.0, n_x=32, n_v=16,
                       dt_max=1e-3, scheme="imex_euler")
    traj = sampled_run(cos_state(small_grid, small_basis), cfg, sample_interval=1.0)
    mass = float(abs(traj.states[-1].g.coeffs[0, 0]))

    zero = zero_field(small_grid, small_basis)
    zero_state = KineticState(time=0.0, g=zero)
    zero_after = sampled_run(zero_state, cfg, sample_interval=1.0).states[-1]
    zero_norm = np.max(np.abs(zero_after.g.coeffs))
    ok = mass <= 1e-12 and zero_norm == 0.0
    record_acceptance(5, "mass conserved over 1000 steps; zero state fixed",
                      ok, f"|mean density| = {mass:.1e}")
    assert ok


def test_criterion_6_energy_dissipation():
    epsilons = (0.2, 0.1, 0.05, 0.025)
    ok = True
    worst = 0.0
    for eps in epsilons:
        cfg = SolverConfig(epsilon=eps, t_final=0.4, n_x=64, n_v=64,
                           dt_max=2.5e-3, scheme="imex_euler")
        grid, basis = cfg.make_grid(), cfg.make_basis()
        energies = []

        def observe(batch):
            state = member(batch)
            g_sq = l2_norm(state.g) ** 2
            e_sq = spatial_l2_norm(grid, state.macro.grad_phi) ** 2
            energies.append(0.5 * (g_sq + e_sq))

        # sample every step so the monotonicity check is per step
        run(cos_state(grid, basis), cfg, observe, sample_interval=cfg.dt_max)
        increases = np.diff(energies)
        worst = max(worst, float(np.max(increases)) / energies[0])
        ok &= bool(np.all(increases <= 1e-8 * energies[0]))
    record_acceptance(6, "free energy non-increasing per step for every "
                      "default epsilon", bool(ok),
                      f"worst step change / E(0) = {worst:.1e}")
    assert ok


def test_criterion_7_micro_part_scaling(default_sweep):
    vals = [rec["micro_time_integral"] for rec in default_sweep.per_epsilon]
    ratios = [vals[i] / vals[i + 1] for i in range(len(vals) - 1)]
    ok = all(2.8 <= r <= 5.5 for r in ratios)
    record_acceptance(7, "time-integrated micro norm scales like eps^2",
                      ok, "halving ratios " + ", ".join(f"{r:.2f}" for r in ratios))
    assert ok


def test_criterion_8_hydrodynamic_limit(default_sweep):
    ok = True
    details = []
    for key in ("sup_moment_error", "sup_field_error", "pointwise_sup_error"):
        vals = [rec[key] for rec in default_sweep.per_epsilon]
        ratios = [vals[i] / vals[i + 1] for i in range(len(vals) - 1)]
        ok &= all(r >= 1.5 for r in ratios)
        rates = default_sweep.rates[key]
        details.append(f"{key} rates " + ", ".join(
            r if isinstance(r, str) else f"{r:.2f}" for r in rates))
    record_acceptance(8, "moment, field and pointwise errors decrease by >= 1.5 "
                      "per eps halving", bool(ok), "; ".join(details))
    assert ok


def test_criterion_9_temporal_self_convergence(small_grid, small_basis):
    def kinetic_final(scheme, dt):
        cfg = SolverConfig(epsilon=0.1, t_final=0.1, n_x=32, n_v=16,
                           scheme=scheme, dt_max=dt)
        return sampled_run(cos_state(small_grid, small_basis), cfg,
                           sample_interval=0.1).states[-1].g.coeffs

    def kinetic_order(scheme):
        dts = [4e-3, 2e-3, 1e-3]
        ref = kinetic_final(scheme, dts[-1] / 8)
        errs = [np.sqrt(np.sum(np.abs(kinetic_final(scheme, dt) - ref) ** 2))
                for dt in dts]
        rates = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        return float(np.mean(rates))

    rho = 0.01 * np.cos(small_grid.nodes)
    ddp_ref = ddp_run(small_grid, rho, dt=2.5e-5, t_final=0.2, sample_interval=0.2)[-1].rho0
    ddp_errs = [np.max(np.abs(ddp_run(small_grid, rho, dt=dt, t_final=0.2,
                                      sample_interval=0.2)[-1].rho0 - ddp_ref))
                for dt in (2.5e-3, 1.25e-3, 6.25e-4)]
    ddp_order = float(np.mean([np.log2(ddp_errs[i] / ddp_errs[i + 1]) for i in range(2)]))

    euler = kinetic_order("imex_euler")
    bdf2 = kinetic_order("imex_bdf2")
    ok = (abs(euler - 1.0) <= 0.3 and abs(bdf2 - 2.0) <= 0.3
          and abs(ddp_order - 1.0) <= 0.3)
    record_acceptance(9, "temporal orders: first-order, second-order and fluid "
                      "schemes within 0.3 of nominal", ok,
                      f"euler {euler:.2f}, bdf2 {bdf2:.2f}, ddp {ddp_order:.2f}")
    assert ok


def test_criterion_10_moment_residual_slopes(small_grid, small_basis):
    from oracles import moment_residuals

    eps = 0.1
    intervals = (0.02, 0.01, 0.005)
    maxima = {"continuity": [], "momentum": [], "stress": []}
    for interval in intervals:
        cfg = SolverConfig(epsilon=eps, t_final=0.3, n_x=32, n_v=16,
                           scheme="imex_bdf2", dt_max=2.5e-4)
        traj = sampled_run(cos_state(small_grid, small_basis), cfg, sample_interval=interval)
        # skip the initial relaxation layer (duration ~ eps^2) where the
        # centered time difference is inaccurate
        late = [s for s in traj.states if s.time >= 0.1 - 1e-12]
        res = moment_residuals(late, epsilon=eps)
        for key in maxima:
            maxima[key].append(float(np.max(res[key])))

    slopes = {key: float(np.mean([np.log2(v[i] / v[i + 1]) for i in range(2)]))
              for key, v in maxima.items()}
    ok = (abs(slopes["continuity"] - 2.0) <= 0.3
          and slopes["momentum"] >= 0.7 and slopes["stress"] >= 0.7)
    record_acceptance(10, "moment-system residual slopes: continuity at the "
                      "centered-difference floor, momentum/stress >= 0.7", ok,
                      ", ".join(f"{k} {v:.2f}" for k, v in slopes.items()))
    assert ok


def test_criterion_11_determinism(tmp_path):
    cfg = default_sweep_config()
    cfg["grid"]["n_x"], cfg["grid"]["n_v"] = 32, 16
    cfg["solver"]["t_final"] = 0.2
    cfg["sweep"]["epsilons"] = (0.2, 0.1)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_sweep(SweepConfig.from_dict(cfg, out_dir=out))
        outs.append(out)
    same_summary = (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()
    same_csv = all(
        (outs[0] / f"run_eps_{e:g}.csv").read_bytes() == (outs[1] / f"run_eps_{e:g}.csv").read_bytes()
        for e in (0.2, 0.1)
    )
    ok = same_summary and same_csv
    record_acceptance(11, "repeated sweeps produce byte-identical outputs", ok)
    assert ok


def test_criterion_12_asymptotic_preserving_stability(small_grid, small_basis):
    # steps of 1000 and 5000 eps: the energy never grows, at the linear
    # profile and at a large one, whatever the scheme
    epsilons = (5e-6, 1e-6)
    worst = 0.0
    for scheme in ("imex_euler", "imex_bdf2"):
        for mode, amplitude in ((1, 0.01), (2, 0.5)):
            cfg = SolverConfig(epsilon=epsilons[0], t_final=0.2, n_x=32, n_v=16,
                               dt_max=5e-3, scheme=scheme)
            energies = []
            run(make_initial_data(small_grid, small_basis,
                                  amplitude * np.cos(mode * small_grid.nodes)),
                cfg, lambda batch: energies.append(
                    [report.E_k for report in energy_functionals(batch, 2, epsilons)]),
                sample_interval=cfg.dt_max, epsilons=epsilons)
            energies = np.array(energies)
            worst = max(worst, float(np.max(energies / energies[0])))
    ok = worst <= 1.01
    record_acceptance(12, "asymptotic-preserving stability: E_k stays within 1% of E_k(0) "
                      "at dt / eps = 1000 and 5000", ok, f"max E_k / E_k(0) = {worst:.6f}")
    assert ok


# imex_bdf2 joins once the fluid reference has the BDF2 scheme's own limit:
# against the Euler limit its gap stalls at about 5.4e-8
@pytest.mark.parametrize("scheme", ["imex_euler"])
def test_criterion_14_discrete_limit(small_grid, small_basis, scheme):
    # at the kinetic run's own fitted step the fluid scheme is the kinetic
    # scheme's eps -> 0 limit: the density gap is c eps^2 with one constant
    # c, down to rounding at eps = 1e-8
    epsilons = (1e-3, 1e-4, 1e-6, 1e-8)
    cfg = SolverConfig(epsilon=epsilons[0], t_final=1.0, n_x=32, n_v=16, scheme=scheme)
    interval = 0.05
    rho0 = 0.01 * np.cos(small_grid.nodes)
    fluid = iter(ddp_run(small_grid, rho0, step_schedule(cfg.t_final, interval, cfg.dt_max)[1],
                         cfg.t_final, interval))
    gaps = []

    def observe(batch):
        ref = next(fluid)
        assert ref.time == batch.time
        gaps.append(np.max(np.abs(batch.macro.a - ref.rho0), axis=1))

    run(make_initial_data(small_grid, small_basis, rho0), cfg, observe,
        sample_interval=interval, epsilons=epsilons)
    gap = np.max(gaps, axis=0)
    scaled = gap[:-1] / np.array(epsilons[:-1]) ** 2
    ok = bool(gap[-1] <= 1e-15 and np.max(scaled) <= 1.01 * np.min(scaled))
    record_acceptance(14, f"discrete limit ({scheme}): max |a - rho0| / eps^2 constant to 1% "
                      "for eps = 1e-3 .. 1e-6, rounding at 1e-8", ok,
                      "gap / eps^2 " + ", ".join(f"{c:.5f}" for c in scaled)
                      + f"; gap at 1e-8 {gap[-1]:.1e}")
    assert ok
