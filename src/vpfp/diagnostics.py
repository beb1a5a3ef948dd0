"""Norms, energy/dissipation functionals and the limit-error terms of a sample.

Spatial derivatives are Fourier multipliers; velocity derivatives and the
weight sqrt(1+v^2) are Hermite recurrences, applied with an extended
Hermite axis so the norms are exact for every represented field (no
truncation loss at the top retained mode).  Sobolev sums run over all
derivative orders up to the requested one, not just the top order.

Coefficients are Hermite-major half-spectra (see spectral), so every
Parseval sum weights the modes m = 1..n_x/2-1 by 2 (they stand for their
conjugates too) and m = 0 and m = n_x/2 by 1 (grid.mode_weights).  A norm
reduces each coefficient array to one squared modulus per Fourier mode,
summed over the Hermite axis (spectral.mode_sq), and spectral.parseval_sq
turns that vector into a Sobolev norm; only spectral knows the weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .operators import fourier_field, project_micro, real_field, spatial_l2_norm
from .spectral import (
    ConfigurationError,
    SpatialGrid,
    SpectralField,
    hermite_shift_coeffs,
    inverse_transform,
    mode_sq,
    parseval_sq,
)

__all__ = [
    "EnergyReport",
    "nu_norm",
    "coercivity_gap",
    "energy_functionals",
    "LimitTerms",
    "limit_error",
    "CSV_COLUMNS",
]

COMPONENT_KEYS = (
    "g_HkxL2v_sq",
    "gradv_micro_Hkm1_sq",
    "ab_Hkm1_sq",
    "micro_nu_Hk_sq",
    "b_Hk_sq",
    "grad_b_Hkm1_sq",
    "grad_a_Hkm1_sq",
    "grad_phi_Hk_sq",
)

CSV_COLUMNS = ("time", "E_k", "D_k") + COMPONENT_KEYS + ("mass_residual", "poisson_residual")


@dataclass
class EnergyReport:
    """One diagnostics sample: functional values plus a labeled breakdown.

    E_k and D_k equal the sum of their component groups; the dissipation
    components carry their 1/eps prefactors already applied.
    """

    time: float
    E_k: float
    D_k: float
    components: dict
    mass_residual: float
    poisson_residual: float

    def csv_row(self) -> str:
        vals = [self.time, self.E_k, self.D_k]
        vals += [self.components[key] for key in COMPONENT_KEYS]
        vals += [self.mass_residual, self.poisson_residual]
        return ",".join(f"{v:.17g}" for v in vals)

    @staticmethod
    def csv_header() -> str:
        return ",".join(CSV_COLUMNS)


# ---------------------------------------------------------------------------
# norm machinery

def _dv_tower(coeffs: np.ndarray, depth: int):
    """Yield f, d_dv f, ..., d_dv^depth f, each with an extended Hermite
    axis; only the level in hand and the one being made are alive."""
    level = coeffs
    yield level
    for _ in range(depth):
        level = hermite_shift_coeffs(level, "d_dv")
        yield level


def _nu_squares(coeffs: np.ndarray, depth: int) -> tuple[list, list]:
    """Per-mode squares (spectral.mode_sq) of the d_v tower levels
    0..depth of coeffs, and of v times the levels 0..depth-1."""
    dv_sq, v_sq = [], []
    for beta, level in enumerate(_dv_tower(coeffs, depth)):
        dv_sq.append(mode_sq(level))
        if beta < depth:
            v_sq.append(mode_sq(hermite_shift_coeffs(level, "multiply_by_v")))
    return dv_sq, v_sq


def _mixed_sq(grid: SpatialGrid, coeffs: np.ndarray, k: int) -> float:
    """sum over |alpha| + |beta| <= k of the L^2 norms squared."""
    return sum(parseval_sq(grid, mode_sq(cb), k - beta)
               for beta, cb in enumerate(_dv_tower(coeffs, k)))


def _mixed_nu_sq(grid: SpatialGrid, dv_sq: list[np.ndarray], v_sq: list[np.ndarray],
                 k: int) -> float:
    """sum over |alpha| + |beta| <= k of the nu norms squared, from the
    per-mode squares of _nu_squares(f, k + 1).  The nu norm of f is
    ||d_v f||^2 + ||f||^2 + ||v f||^2."""
    return sum(
        parseval_sq(grid, dv_sq[beta + 1], k - beta)
        + parseval_sq(grid, dv_sq[beta], k - beta)
        + parseval_sq(grid, v_sq[beta], k - beta)
        for beta in range(k + 1)
    )


def nu_norm(f: SpectralField) -> float:
    """Dissipation norm: sqrt(||d_v f||^2 + ||sqrt(1+v^2) f||^2)."""
    return float(np.sqrt(_mixed_nu_sq(f.grid, *_nu_squares(f.coeffs, 1), 0)))


def coercivity_gap(g: SpectralField) -> tuple[float, float, float]:
    """Return (<Lg, g>, ||(I-P)g||_nu^2, ||b||_{L^2_x}^2).

    In the Hermite basis <Lg, g> = vol * sum_{m,n} w_m n |c_{n,m}|^2 (w_m the
    half-spectrum mode_weights), which dominates
    ||(I-P)g||_{L^2}^2 + ||b||^2 exactly (eigenvalues >= 1 off the kernel).
    The nu-norm coercivity constant is measured by callers, not assumed.
    """
    c = g.coeffs
    level_sq = parseval_sq(g.grid, c.real**2 + c.imag**2)  # ||row n||^2 per Hermite level
    dirichlet = float(np.arange(g.basis.n_v) @ level_sq)
    b_sq = float(level_sq[1])
    return dirichlet, nu_norm(project_micro(g)) ** 2, b_sq


# ---------------------------------------------------------------------------
# energy / dissipation functionals

def energy_functionals(state, k: int, epsilon: float) -> EnergyReport:
    """Headline energy and dissipation functionals at one sample.

    E_k = ||g||^2_{H^k_x L^2_v} + ||d_v (I-P) g||^2_{H^{k-1}_{x,v}}
          + ||(a, b)||^2_{H^{k-1}_x}
    D_k = eps^-2 (||(I-P) g||^2 in the nu-weighted H^k_{x,v} + ||b||^2_{H^k_x})
          + eps^-1 ||(grad b, div b)||^2_{H^{k-1}_x}
          + ||d_x a||^2_{H^{k-1}_x} + ||d_x phi||^2_{H^k_x}

    In one dimension grad b and div b are both d_x b, so the eps^-1 group
    is twice ||d_x b||^2_{H^{k-1}_x}.  a and b are the Hermite rows 0 and 1
    of g, and d_x b, d_x a have the symbol grid.dx_symbol; the per-mode
    squares of one d_v tower of (I-P) g, streamed one level at a time,
    serve both micro norms.  The residuals read the state's macro fields:
    one forward real FFT of phi and d_x phi, and one inverse FFT of the
    Laplacian of phi, whose symbol -k^2 keeps the Nyquist mode.  A value
    that is not finite raises FloatingPointError.
    """
    if k < 1:
        raise ConfigurationError(f"diagnostics order k must be >= 1, got {k}")
    # a huge but finite state can overflow a square here; the test below
    # reports that as the stepper reports a blow-up, whatever the warning filter
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g = state.g
        grid = g.grid
        c = g.coeffs
        level_sq = c.real**2 + c.imag**2  # (n_v, n_half)
        a_sq, b_sq = level_sq[0], level_sq[1]
        dx_sq = grid.dx_symbol.imag**2
        dv_sq, v_sq = _nu_squares(project_micro(g).coeffs, k + 1)
        phi_c, grad_phi_c = fourier_field(grid, np.array([state.macro.phi, state.macro.grad_phi]))

        g_hk = parseval_sq(grid, level_sq.sum(axis=0), k)
        gradv_micro = sum(parseval_sq(grid, dv_sq[beta + 1], k - 1 - beta) for beta in range(k))
        ab = parseval_sq(grid, a_sq, k - 1) + parseval_sq(grid, b_sq, k - 1)

        micro_nu = _mixed_nu_sq(grid, dv_sq, v_sq, k) / epsilon**2
        b_hk = parseval_sq(grid, b_sq, k) / epsilon**2
        grad_b = 2.0 * parseval_sq(grid, dx_sq * b_sq, k - 1) / epsilon
        grad_a = parseval_sq(grid, dx_sq * a_sq, k - 1)
        grad_phi = parseval_sq(grid, mode_sq(grad_phi_c), k)

        components = {
            "g_HkxL2v_sq": g_hk,
            "gradv_micro_Hkm1_sq": gradv_micro,
            "ab_Hkm1_sq": ab,
            "micro_nu_Hk_sq": micro_nu,
            "b_Hk_sq": b_hk,
            "grad_b_Hkm1_sq": grad_b,
            "grad_a_Hkm1_sq": grad_a,
            "grad_phi_Hk_sq": grad_phi,
        }
        a = state.macro.a
        mass_residual = float(np.abs(np.mean(a)))
        lap_phi = real_field(grid, phi_c * -grid.k_sq)
        denom = spatial_l2_norm(grid, a) or 1.0
        poisson_residual = spatial_l2_norm(grid, lap_phi + a) / denom
        E_k = g_hk + gradv_micro + ab
        D_k = micro_nu + b_hk + grad_b + grad_a + grad_phi
    if not np.all(np.isfinite([E_k, D_k, *components.values(), mass_residual,
                               poisson_residual])):
        raise FloatingPointError(f"non-finite energy functional at t = {state.time:.6g}")
    return EnergyReport(
        time=float(state.time),
        E_k=E_k,
        D_k=D_k,
        components=components,
        mass_residual=mass_residual,
        poisson_residual=poisson_residual,
    )


# ---------------------------------------------------------------------------
# kinetic-vs-fluid limit metrics

class LimitTerms(NamedTuple):
    """The kinetic-vs-fluid error terms of one sample (see limit_error)."""

    moment_error: float
    field_error: float
    micro_sq: float
    pointwise_error: float


def limit_error(kinetic_state, ddp_state, k: int) -> LimitTerms:
    """Error terms between a kinetic sample and the fluid sample of its time.

    The L^2 errors of the density and the field, the squared mixed H^k
    norm of the microscopic part (I - P0) g, and the pointwise sup of the
    reconstructed distribution against (1 + rho0) M over the collocation
    nodes (the grid analogue of the embedding argument).  A sweep computes
    them as the run goes, so it keeps no sampled state, and
    harness.sweep_record reduces the terms of a run's samples.
    """
    if not np.isclose(kinetic_state.time, ddp_state.time, rtol=1e-9, atol=1e-12):
        raise ValueError(
            f"kinetic and fluid samples must share their sampling times, got "
            f"{kinetic_state.time:g} and {ddp_state.time:g}"
        )
    g = kinetic_state.g
    grid = g.grid
    sqrt_m = g.basis.maxwellian_sqrt()
    m_vals = sqrt_m**2
    micro_c = g.coeffs.copy()
    micro_c[0] = 0.0  # (I - P0) g
    f_vals = m_vals[None, :] + inverse_transform(g) * sqrt_m[None, :]
    f_lim = (1.0 + ddp_state.rho0)[:, None] * m_vals[None, :]
    return LimitTerms(
        moment_error=spatial_l2_norm(grid, kinetic_state.macro.a - ddp_state.rho0),
        field_error=spatial_l2_norm(grid, kinetic_state.macro.grad_phi - ddp_state.grad_phi0),
        micro_sq=_mixed_sq(grid, micro_c, k),
        pointwise_error=float(np.max(np.abs(f_vals - f_lim))),
    )
