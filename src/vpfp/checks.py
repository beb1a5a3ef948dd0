"""Operator-level acceptance checks, shared by `vpfp check` and the tests.

Each check returns (ok, detail): whether the property holds, and the
measured figure that the CLI prints.  The random inputs come in as
arguments, so `vpfp check` (run_battery, with its own seeded draws) and
the operator-level acceptance criteria of the test suite run the same
checks on their own fields; the criteria add their independent oracles.
"""

from __future__ import annotations

import numpy as np

from .diagnostics import coercivity_gap, nu_norm
from .operators import (
    apply_L,
    moments,
    project_macro,
    project_micro,
    project_p0,
    solve_poisson,
    spatial_l2_norm,
    x_derivative,
)
from .spectral import HermiteBasis, SpatialGrid, SpectralField, fourier_field, l2_norm

__all__ = [
    "check_collision",
    "check_projections",
    "check_coercivity",
    "check_poisson",
    "check_moments",
    "run_battery",
]


def check_collision(grid: SpatialGrid, basis: HermiteBasis) -> tuple[bool, str]:
    """L fixes the momentum mode cos(x) v sqrt(M) and has eigenvalue n on
    every Hermite level n."""
    fixed = SpectralField.zeros(grid, basis)
    fixed.coeffs[1, 1] = 0.5  # cos(x) psi_1
    fixed_err = float(np.max(np.abs(apply_L(fixed).coeffs - fixed.coeffs)))
    eig_err = 0.0
    for n in range(basis.n_v):
        g = SpectralField.zeros(grid, basis)
        g.coeffs[n, 1] = 1.0
        eig_err = max(eig_err, float(np.max(np.abs(apply_L(g).coeffs - n * g.coeffs))))
    ok = fixed_err < 1e-12 and eig_err < 1e-12
    return ok, f"fixed-point err {fixed_err:.1e}, eigenvalue err {eig_err:.1e}"


def check_projections(fields) -> tuple[bool, str]:
    """P and I - P are idempotent, P (I - P) = 0, Pg + (I - P)g = g, and
    (I - P)g is (I - P0)g with its Hermite levels 0 and 1 zeroed, exactly at
    coefficient level, on every field."""
    ok = True
    for g in fields:
        pg, mg = project_macro(g), project_micro(g)
        ok &= np.array_equal(project_macro(pg).coeffs, pg.coeffs)
        ok &= np.array_equal(project_micro(mg).coeffs, mg.coeffs)
        ok &= np.array_equal(pg.coeffs + mg.coeffs, g.coeffs)
        expected = g.coeffs - project_p0(g).coeffs  # (I - P0) g
        expected[:2] = 0.0
        ok &= np.array_equal(expected, mg.coeffs)
        ok &= not np.any(project_macro(mg).coeffs)
    return bool(ok), ""


def check_coercivity(fields) -> tuple[bool, str]:
    """<Lg, g> >= ||(I-P)g||^2 + ||b||^2 on every field, and the nu-norm
    constant C0 = min (<Lg, g> - ||b||^2) / ||(I-P)g||_nu^2 is positive and
    measured, i.e. some field has a nonzero microscopic part."""
    ok = True
    c0 = np.inf
    for g in fields:
        dirichlet, micro_nu_sq, b_sq = coercivity_gap(g)
        micro_l2_sq = l2_norm(project_micro(g)) ** 2
        ok &= dirichlet + 1e-12 * max(1.0, dirichlet) >= micro_l2_sq + b_sq
        if micro_nu_sq > 0:
            c0 = min(c0, (dirichlet - b_sq) / micro_nu_sq)
    return bool(ok and 0 < c0 < np.inf), f"measured nu-norm constant C0 = {c0:.4f}"


def check_poisson(grid: SpatialGrid, samples) -> tuple[bool, str]:
    """-phi'' = a is solved exactly for the first two modes a = cos(m k x),
    k = 2 pi / L, and the Poincare inequality ||a|| <= ||da/dx|| / k holds
    for each sample with its mean removed and for a = cos(k x), where it is
    an equality."""
    k = 2 * np.pi / grid.length
    first = np.cos(k * grid.nodes)
    second = np.cos(2 * k * grid.nodes)
    phi1, _ = solve_poisson(grid, first)
    phi2, _ = solve_poisson(grid, second)
    eig_err = max(np.max(np.abs(phi1 - first / k**2)),
                  np.max(np.abs(phi2 - second / (4 * k**2))))
    poincare_ok = True
    for a in [*samples, first]:
        a = a - a.mean()
        poincare_ok &= (spatial_l2_norm(grid, a)
                        <= spatial_l2_norm(grid, x_derivative(grid, a)) / k * (1 + 1e-12))
    return bool(eig_err < 1e-12 and poincare_ok), f"eigenfunction err {eig_err:.1e}"


def check_moments(g: SpectralField) -> tuple[bool, str]:
    """The moments, their field and the nu-norm of g evaluate finite."""
    mac = moments(g)
    nu = nu_norm(g)
    ok = np.isfinite(nu) and all(np.all(np.isfinite(v))
                                 for v in (mac.a, mac.b, mac.phi, mac.grad_phi))
    return bool(ok), f"nu-norm {nu:.3e}"


def _random_field(rng, grid, basis) -> SpectralField:
    values = rng.standard_normal((basis.n_v, grid.n_x))
    coeffs = fourier_field(values)  # the half-spectrum of a real field
    coeffs[0, 0] = 0.0  # neutral
    return SpectralField(grid, basis, coeffs)


def run_battery(seed: int = 0) -> list[tuple[str, bool, str]]:
    """Run every check on a 32 x 16 discretization with 100 seeded random
    inputs each; return (name, ok, detail) per check, in order."""
    rng = np.random.default_rng(seed)
    grid = SpatialGrid(n_x=32)
    basis = HermiteBasis(n_v=16)

    def fields():
        return [_random_field(rng, grid, basis) for _ in range(100)]

    battery = (
        ("collision operator: fixes v sqrt(M), eigenvalue n on level n",
         lambda: check_collision(grid, basis)),
        ("projection identities: P, I-P, I-P0 exact", lambda: check_projections(fields())),
        ("coercivity: <Lg, g> >= ||(I-P)g||^2 + ||b||^2, C0 > 0",
         lambda: check_coercivity(fields())),
        ("poisson: eigenfunction solves exact, Poincare inequality",
         lambda: check_poisson(grid, rng.standard_normal((100, grid.n_x)))),
        ("moments, field and nu-norm evaluate finite",
         lambda: check_moments(_random_field(rng, grid, basis))),
    )
    return [(name, *check()) for name, check in battery]
