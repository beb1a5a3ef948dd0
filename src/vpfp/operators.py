"""Kinetic operators on perturbation fields.

The unknown is the perturbation g in f = M + g sqrt(M).  In the Hermite
basis the Fokker-Planck operator is diag(n) (the solver builds it into its
implicit factors), the macroscopic projection P keeps the first two
Hermite levels (density a and momentum b), and the electrostatic
potential solves -phi'' = a spectrally on the torus.  The run reads two
macro fields, the density a and its field d phi/dx (moments, by the
density_and_field that the fluid step shares); the diagnostics take b
and phi from the coefficients themselves.

The perturbation g is a spectral.SpectralField: a real field stored as
a Hermite-major half-spectrum, shape (n_v, n_x/2 + 1).  The operators
read and return only the modes m = 0..n_x/2, and every transform is
spectral's fourier_field or real_field along the contiguous last axis,
batching the rows that share a transform.  Spatial fields are real arrays
of shape (n_x,); their coefficients are half-spectra of shape
(n_x/2 + 1,).  Odd x-derivatives use grid.dx_symbol, which is 0 at the
Nyquist mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import ConfigurationError, SpatialGrid, SpectralField, fourier_field, real_field

__all__ = [
    "MacroFields",
    "moments",
    "solve_poisson",
    "potential_coeffs",
    "density_and_field",
    "vpfp_rhs",
    "spatial_l2_norm",
    "require_spatial_field",
    "require_zero_mean",
]

ZERO_MEAN_TOL = 1e-12


@dataclass
class MacroFields:
    """The density of g and its self-consistent field, as built by moments:
    a (Hermite level 0) and grad_phi = d phi / dx are real fields of shape
    (n_x,), or (B, n_x) for a batch of B fields.
    """

    a: np.ndarray
    grad_phi: np.ndarray


# ---------------------------------------------------------------------------
# spatial-field helpers

def require_spatial_field(grid: SpatialGrid, values, what: str) -> None:
    """Raise ConfigurationError unless values is one spatial field on grid,
    an array of shape (n_x,)."""
    shape = np.shape(values)
    if shape != (grid.n_x,):
        raise ConfigurationError(f"{what} must have shape (n_x,) = ({grid.n_x},); got {shape}")


def require_zero_mean(values: np.ndarray, what: str) -> float:
    """Return the spatial mean of values; raise ValueError unless it is zero
    to ZERO_MEAN_TOL relative to max(1, max |values|).  A NaN or infinite
    field fails too: an infinite scale would excuse any mean."""
    mean, scale = float(np.mean(values)), float(np.max(np.abs(values)))
    if not (math.isfinite(scale) and abs(mean) <= ZERO_MEAN_TOL * max(1.0, scale)):
        raise ValueError(f"{what} must have zero spatial mean; got mean {mean:.3e}")
    return mean


def spatial_l2_norm(grid: SpatialGrid, values: np.ndarray):
    """L^2 norm of the spatial field(s) along the last axis: a float for
    one field, one norm per row for a batch of shape (B, n_x)."""
    return np.sqrt(grid.cell_volume * np.sum(np.asarray(values) ** 2, axis=-1))


# ---------------------------------------------------------------------------
# kinetic operators

def moments(g: SpectralField) -> MacroFields:
    """Density a (Hermite row 0) and its field d phi/dx.

    -phi'' = a is solved on row 0, and density_and_field, which the fluid
    step shares, gives a and d phi/dx by one inverse real FFT of the two.
    For a batch g (coefficients of shape (n_v, B, n_x/2 + 1)) each field
    has one row per member, shape (B, n_x).
    """
    a, grad_phi = density_and_field(g.grid, g.coeffs[0])
    return MacroFields(a=a, grad_phi=grad_phi)


def solve_poisson(grid: SpatialGrid, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve -phi'' = a on the torus; returns (phi, d phi / dx).

    Requires zero-mean a; phi is gauge-fixed to zero mean.  One real FFT
    of a, and one inverse real FFT of phi and its derivative together.
    """
    a = np.asarray(a, dtype=float)
    require_zero_mean(a, "Poisson right-hand side")
    return tuple(real_field(grid, np.array(potential_coeffs(grid, fourier_field(a)))))


def potential_coeffs(grid: SpatialGrid, density_c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients c_m / k_m^2 of phi and i k_m c_m / k_m^2 of d phi/dx,
    where -phi'' = density has coefficients c; both are 0 at the mean mode."""
    phi_c = density_c * grid.inverse_laplacian
    return phi_c, grid.dx_symbol * phi_c


def density_and_field(grid: SpatialGrid, density_c: np.ndarray) -> np.ndarray:
    """The density and its field d phi/dx, -phi'' = density, from the
    density's coefficients (last axis) by one inverse real FFT: shape
    (2,) + each field's.  moments and the fluid step share it."""
    return real_field(grid, np.array([density_c, potential_coeffs(grid, density_c)[1]]))


@lru_cache(maxsize=16)
def _coupling_scales(n_v: int, epsilon) -> tuple[np.ndarray, np.ndarray]:
    """The per-epsilon factors of vpfp_rhs, built once per (n_v, epsilon).

    epsilon is a float, or a tuple of one float per batch member.  Returns
    the row scale -sqrt(n)/eps of the rows n = 1..n_v-1, shaped to scale
    the float64 view of those rows (n_v - 1, 1) or (n_v - 1, B, 1), and
    eps as a column, (1,) or (B, 1), which divides the psi_1 source.  Both
    are read-only.
    """
    eps = np.asarray(epsilon, dtype=float)
    if not np.all(eps > 0):
        raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
    eps = eps[..., None]
    root = np.sqrt(np.arange(1, n_v)).reshape((-1,) + (1,) * eps.ndim)
    row_scale = root / -eps
    for a in (row_scale, eps):
        a.flags.writeable = False
    return row_scale, eps


def vpfp_rhs(g: SpectralField, epsilon, out: np.ndarray | None = None,
             scratch: np.ndarray | None = None) -> np.ndarray:
    """Explicit part of d/dt g in the scaled kinetic system, the field coupling.

    dg/dt = -(1/eps) v dg/dx - (1/eps^2) L g
            -(1/eps) (d phi/dx) psi_1 - (1/eps) (d phi/dx) (v/2 - d_dv) g

    The streaming and collision terms of the first line are stiff, and the
    solver applies them implicitly (solver.TridiagonalFactors); this
    function returns the coefficients of the terms of the second line,
    with g's own field: potential_coeffs of level 0 gives the psi_1
    source, and its inverse real FFT d phi/dx.  The coupling uses the
    single raising recurrence (the identity (g/2) v - dg/dv =
    (v/2 - d_dv) g, with psi_n -> sqrt(n+1) psi_{n+1}).  The products of
    the levels 0..n_v-2 with d phi/dx are formed pseudo-spectrally: one
    inverse real FFT into scratch, a multiply in place and one forward
    real FFT straight into the rows 1..n_v-1 of the result.  The raising
    recurrence is then a row scale, -sqrt(n)/eps on row n, and the 2/3
    rule zeroes the modes above n_x/3.  g and the result are half-spectra of shape (n_v, n_x/2 + 1);
    Hermite level 0 of the result is zero, so the coupling keeps the mass,
    and a g whose level 0 is zero has no field and gets zero terms.

    A batch g, of shape (n_v, B, n_x/2 + 1), takes a tuple of B epsilons,
    one per member; every transform and scale then runs over whole rows of
    (member, mode) pairs.  The per-epsilon factors come from
    _coupling_scales, built once per epsilon tuple.

    out (complex, C-contiguous, the shape of g.coeffs) receives the
    result, which is then out itself; scratch is a real array of shape
    (n_v - 1, n_x), or (n_v - 1, B, n_x) for a batch.  Either is
    allocated when not given.
    """
    grid, c = g.grid, g.coeffs
    row_scale, eps = _coupling_scales(g.basis.n_v, epsilon)
    if eps.shape[:-1] != c.shape[1:-1]:
        raise ConfigurationError(
            f"need one epsilon per batch member: got {epsilon!r} for coefficients "
            f"of shape {c.shape}"
        )
    rhs = np.empty_like(c) if out is None else out
    _, dphi_c = potential_coeffs(grid, c[0])
    dphi = real_field(grid, dphi_c)
    # nonlinear coupling: row n + 1 is -sqrt(n + 1)/eps times the product of row n
    phys = real_field(grid, c[:-1], out=scratch)
    phys *= dphi
    fourier_field(phys, out=rhs[1:])
    # whole rows through the float64 view: a strided or complex-typed
    # operand would make NumPy allocate iteration buffers
    rhs[1:].view(np.float64)[...] *= row_scale
    rhs[1:, ..., grid.n_dealiased:] = 0.0  # the 2/3 rule
    rhs[0] = 0.0
    # linear source: (d phi/dx) v sqrt(M) = (d phi/dx) psi_1
    rhs[1] -= dphi_c / eps
    return rhs
