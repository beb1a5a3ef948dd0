"""Operator and property self-test battery backing `vpfp check`.

These are runtime sanity checks on a built installation; the full oracle
comparisons live in the test suite.
"""

from __future__ import annotations

import numpy as np

from .diagnostics import nu_norm
from .operators import (
    DistributionField,
    apply_L,
    coercivity_gap,
    moments,
    project_macro,
    project_micro,
    project_p0,
    solve_poisson,
    spatial_l2_norm,
    x_derivative,
)
from .spectral import HermiteBasis, SpatialGrid, SpectralField, l2_norm

__all__ = ["run_battery"]


def _random_field(rng, grid, basis, neutral=True) -> DistributionField:
    values = rng.standard_normal((basis.n_v, grid.n_x))
    coeffs = np.fft.rfft(values, norm="forward")  # the half-spectrum of a real field
    if neutral:
        coeffs[0, 0] = 0.0
    return DistributionField(SpectralField(grid, basis, coeffs))


def run_battery(seed: int = 0, quiet: bool = False, n_random: int = 100) -> bool:
    rng = np.random.default_rng(seed)
    grid = SpatialGrid(n_x=32)
    basis = HermiteBasis(n_v=16)
    results = []

    def record(name: str, ok: bool, detail: str = ""):
        results.append(ok)
        if not quiet:
            status = "PASS" if ok else "FAIL"
            print(f"{status} {name}" + (f"  ({detail})" if detail else ""))

    # collision operator fixes v sqrt(M)
    g = DistributionField.zeros(grid, basis)
    g.coeffs[1, 0] = 1.0
    err = np.max(np.abs(apply_L(g).coeffs - g.coeffs))
    record("collision operator: eigenvalue 1 on the momentum mode", err < 1e-12, f"err={err:.1e}")

    # eigenvalues n on every retained mode
    ok = True
    for n in range(basis.n_v):
        g = DistributionField.zeros(grid, basis)
        g.coeffs[n, 1] = 1.0
        ok &= np.max(np.abs(apply_L(g).coeffs - n * g.coeffs)) < 1e-12
    record("collision operator: diagonal multiplier n", ok)

    # projection algebra, exact at coefficient level
    ok = True
    for _ in range(n_random):
        g = _random_field(rng, grid, basis)
        pg = project_macro(g)
        mg = project_micro(g)
        ok &= np.array_equal(project_macro(pg).coeffs, pg.coeffs)
        ok &= np.array_equal(project_micro(mg).coeffs, mg.coeffs)
        residual = g.coeffs - project_p0(g).coeffs  # (I - P0) g
        micro_of_residual = residual.copy()
        micro_of_residual[:2] = 0.0
        ok &= np.array_equal(micro_of_residual, mg.coeffs)
        ok &= np.max(np.abs(project_macro(mg).coeffs)) == 0.0
    record("projection algebra: P, I-P, I-P0 identities exact", ok)

    # coercivity and the measured nu-norm constant
    ok = True
    c0 = np.inf
    for _ in range(n_random):
        g = _random_field(rng, grid, basis)
        dirichlet, micro_nu_sq, b_sq = coercivity_gap(g)
        micro_l2_sq = l2_norm(project_micro(g).spectral) ** 2
        ok &= dirichlet + 1e-12 * max(1.0, dirichlet) >= micro_l2_sq + b_sq
        if micro_nu_sq > 0:
            c0 = min(c0, (dirichlet - b_sq) / micro_nu_sq)
    record("coercivity: <Lg, g> >= ||(I-P)g||^2 + ||b||^2", ok)
    record("coercivity: measured nu-norm constant positive", c0 > 0, f"C0>={c0:.4f}")

    # Poisson eigenfunctions and the Poincare inequality
    x = grid.nodes
    phi, _ = solve_poisson(grid, np.cos(x))
    err1 = np.max(np.abs(phi - np.cos(x)))
    phi2, _ = solve_poisson(grid, np.cos(2 * x))
    err2 = np.max(np.abs(phi2 - np.cos(2 * x) / 4.0))
    record("poisson: eigenfunction solves exact", max(err1, err2) < 1e-12,
           f"err={max(err1, err2):.1e}")
    ok = True
    for _ in range(n_random):
        a = rng.standard_normal(grid.n_x)
        a -= a.mean()
        ok &= spatial_l2_norm(grid, a) <= spatial_l2_norm(grid, x_derivative(grid, a)) * (1 + 1e-12)
    record("poincare: ||a|| <= ||da/dx|| for zero-mean fields", ok)

    # moments agree with direct slices
    g = _random_field(rng, grid, basis)
    mac = moments(g)
    nu = nu_norm(g)
    record("moments and nu-norm evaluate finite", np.isfinite(nu) and np.all(np.isfinite(mac.a)))

    return all(results)
