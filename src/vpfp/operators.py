"""Kinetic operators on perturbation fields.

The unknown is the perturbation g in f = M + g sqrt(M).  In the Hermite
basis the Fokker-Planck operator is diag(n), the macroscopic projection P
keeps the first two Hermite levels (density a and momentum b), and the
electrostatic potential solves -Laplace(phi) = a spectrally on the torus.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import (
    ConfigurationError,
    HermiteBasis,
    SpatialGrid,
    SpectralField,
    hermite_shift_apply,
    hermite_shift_coeffs,
    spatial_derivative,
)

__all__ = [
    "DistributionField",
    "MacroFields",
    "apply_L",
    "moments",
    "project_macro",
    "project_micro",
    "project_p0",
    "gamma_moment",
    "solve_poisson",
    "dealiased_product",
    "vpfp_rhs",
    "coercivity_gap",
    "real_field",
    "fourier_field",
    "x_derivative",
    "spatial_l2_norm",
]

POISSON_MEAN_TOL = 1e-12


@dataclass
class DistributionField:
    """Perturbation g around sqrt(M), stored as a SpectralField."""

    spectral: SpectralField

    @property
    def grid(self) -> SpatialGrid:
        return self.spectral.grid

    @property
    def basis(self) -> HermiteBasis:
        return self.spectral.basis

    @property
    def coeffs(self) -> np.ndarray:
        return self.spectral.coeffs

    @classmethod
    def zeros(cls, grid: SpatialGrid, basis: HermiteBasis) -> "DistributionField":
        return cls(SpectralField.zeros(grid, basis))

    def with_coeffs(self, coeffs: np.ndarray) -> "DistributionField":
        return DistributionField(self.spectral.with_coeffs(coeffs))

    def copy(self) -> "DistributionField":
        return DistributionField(self.spectral.copy())

    def neutrality_defect(self) -> float:
        """Magnitude of the (m=0, n=0) coefficient (spatial mean of a)."""
        return float(np.abs(self.coeffs[(0,) * self.grid.d + (0,)]))


@dataclass
class MacroFields:
    """Spatial moments and the self-consistent field.

    a, phi: shape grid.spatial_shape; b, grad_phi: leading axis over the
    d spatial directions.
    """

    a: np.ndarray
    b: np.ndarray
    phi: np.ndarray = field(default=None)
    grad_phi: np.ndarray = field(default=None)


# ---------------------------------------------------------------------------
# spatial-field helpers (real grid functions <-> Fourier coefficients)

def fourier_field(grid: SpatialGrid, values: np.ndarray) -> np.ndarray:
    """Real spatial field -> normalized Fourier coefficients."""
    c = np.asarray(values, dtype=complex)
    for ax in range(grid.d):
        c = np.fft.fft(c, axis=ax) / grid.n_x
    return c


def real_field(grid: SpatialGrid, coeffs: np.ndarray) -> np.ndarray:
    """Normalized Fourier coefficients -> real spatial field."""
    v = np.asarray(coeffs, dtype=complex)
    for ax in range(grid.d):
        v = np.fft.ifft(v * grid.n_x, axis=ax)
    return v.real


def x_derivative(grid: SpatialGrid, values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Spectral d/dx_axis of a real spatial field."""
    c = fourier_field(grid, values)
    shape = [1] * c.ndim
    shape[axis] = grid.n_x
    return real_field(grid, c * (1j * grid.wavenumbers).reshape(shape))


def spatial_l2_norm(grid: SpatialGrid, values: np.ndarray) -> float:
    return float(np.sqrt(grid.cell_volume * np.sum(np.asarray(values) ** 2)))


def dealiased_product(grid: SpatialGrid, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Pointwise product of two real spatial fields, 2/3-rule dealiased."""
    prod = np.asarray(u) * np.asarray(w)
    c = fourier_field(grid, prod)
    return real_field(grid, c * grid.dealias_mask)


# ---------------------------------------------------------------------------
# kinetic operators

def apply_L(g: DistributionField) -> DistributionField:
    """Fokker-Planck operator: diagonal multiplier n on Hermite level n."""
    n = np.arange(g.basis.n_v)
    return g.with_coeffs(g.coeffs * n)


def moments(g: DistributionField) -> MacroFields:
    """Density perturbation a and momentum moment b (coefficient slices)."""
    grid = g.grid
    a = real_field(grid, g.coeffs[..., 0])
    b = np.stack([real_field(grid, g.coeffs[..., 1 + i]) for i in range(grid.d)])
    return MacroFields(a=a, b=b)


def project_macro(g: DistributionField) -> DistributionField:
    """P g = (a + v.b) sqrt(M): keep Hermite levels 0..d, zero the rest."""
    out = np.zeros_like(g.coeffs)
    keep = 1 + g.grid.d
    out[..., :keep] = g.coeffs[..., :keep]
    return g.with_coeffs(out)


def project_micro(g: DistributionField) -> DistributionField:
    """(I - P) g: zero the macroscopic Hermite levels."""
    out = g.coeffs.copy()
    out[..., : 1 + g.grid.d] = 0.0
    return g.with_coeffs(out)


def project_p0(g: DistributionField) -> DistributionField:
    """P_0 g = a sqrt(M)."""
    out = np.zeros_like(g.coeffs)
    out[..., 0] = g.coeffs[..., 0]
    return g.with_coeffs(out)


def gamma_moment(g: DistributionField, i: int = 0, j: int = 0) -> np.ndarray:
    """Stress-type moment Gamma_ij[g](x) = int g (v_i v_j - 1) sqrt(M) dv.

    For d = 1 this is sqrt(2) times the Hermite-2 coefficient slice, since
    (v^2 - 1) sqrt(M) = sqrt(2) psi_2.
    """
    d = g.grid.d
    if not (0 <= i < d and 0 <= j < d):
        raise ConfigurationError(f"gamma indices ({i}, {j}) out of range for d={d}")
    if d != 1:
        raise NotImplementedError("tensor Hermite moments are implemented for d = 1")
    return real_field(g.grid, np.sqrt(2.0) * g.coeffs[..., 2])


def solve_poisson(grid: SpatialGrid, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve -Laplace(phi) = a on the torus; returns (phi, grad_phi).

    Requires zero-mean a; phi is gauge-fixed to zero mean.
    """
    a = np.asarray(a, dtype=float)
    mean = float(np.mean(a))
    scale = float(np.max(np.abs(a))) or 1.0
    if abs(mean) > POISSON_MEAN_TOL * max(1.0, scale):
        raise ValueError(
            f"Poisson right-hand side must have zero spatial mean; residual mean {mean:.3e}"
        )
    phi_c = fourier_field(grid, a) * grid.inverse_laplacian
    phi = real_field(grid, phi_c)
    k = grid.wavenumbers
    grad = []
    for ax in range(grid.d):
        shape = [1] * grid.d
        shape[ax] = grid.n_x
        grad.append(real_field(grid, phi_c * (1j * k).reshape(shape)))
    return phi, np.stack(grad)


def vpfp_rhs(g: DistributionField, macro: MacroFields, epsilon: float,
             transport: bool = True, fields: bool = True,
             collision: bool = True) -> DistributionField:
    """Right-hand side d/dt g of the scaled kinetic system.

    dg/dt = -(1/eps) v.grad_x g - (1/eps) grad_phi . psi_1-source
            -(1/eps) grad_phi . (v/2 - d_dv) g - (1/eps^2) L g

    The field coupling uses the single raising recurrence (the identity
    (g/2) v - grad_v g = (v/2 - d_dv) g), with the g * grad_phi product
    formed pseudo-spectrally under the 2/3 rule.  transport/fields are test
    hooks that disable term groups.
    """
    if epsilon <= 0:
        raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
    grid, basis = g.grid, g.basis
    rhs = np.zeros_like(g.coeffs)

    if transport:
        vg = hermite_shift_apply(g.spectral, "multiply_by_v")
        for ax in range(grid.d):
            rhs -= spatial_derivative(vg, axis=ax).coeffs / epsilon
            # d > 1 would need per-direction velocity recurrences; the
            # single-index Hermite basis covers d = 1.

    if fields:
        if macro.grad_phi is None:
            raise ConfigurationError("macro fields must carry grad_phi for the coupling terms")
        raised = hermite_shift_coeffs(g.coeffs, "raising")
        mask = grid.dealias_mask[..., None]
        phys = raised
        for ax in range(grid.d):
            phys = np.fft.ifft(phys * grid.n_x, axis=ax)
        phys = phys.real
        for ax in range(grid.d):
            dphi = macro.grad_phi[ax]
            # linear source: grad_phi . v sqrt(M) = grad_phi . psi_1
            rhs[..., 1 + ax] -= fourier_field(grid, dphi) / epsilon
            # nonlinear coupling, pseudo-spectral product per Hermite level
            prod = np.asarray(phys * dphi[..., None], dtype=complex)
            for axx in range(grid.d):
                prod = np.fft.fft(prod, axis=axx) / grid.n_x
            rhs -= prod * mask / epsilon

    if collision:
        rhs -= np.arange(basis.n_v) * g.coeffs / epsilon**2
    return g.with_coeffs(rhs)


def coercivity_gap(g: DistributionField) -> tuple[float, float, float]:
    """Return (<Lg, g>, ||(I-P)g||_nu^2, ||b||_{L^2_x}^2).

    In the Hermite basis <Lg, g> = vol * sum_n n |c_n|^2, which dominates
    ||(I-P)g||_{L^2}^2 + ||b||^2 exactly (eigenvalues >= 1 off the kernel).
    The nu-norm coercivity constant is measured by callers, not assumed.
    """
    from .diagnostics import nu_norm  # local import to avoid a cycle

    vol = g.grid.volume
    n = np.arange(g.basis.n_v)
    dirichlet = vol * float(np.sum(n * np.abs(g.coeffs) ** 2))
    micro_nu_sq = nu_norm(project_micro(g).spectral) ** 2
    b_sq = vol * float(np.sum(np.abs(g.coeffs[..., 1 : 1 + g.grid.d]) ** 2))
    return dirichlet, micro_nu_sq, b_sq
