"""Norms, energy/dissipation functionals and the limit-error terms of a sample.

Spatial derivatives are Fourier multipliers; velocity derivatives are
the Hermite recurrence spectral.hermite_shift_coeffs, applied with an
extended Hermite axis so the norms are exact for every represented field
(no truncation loss at the top retained mode).  The weight sqrt(1+v^2) of
the nu norm needs no recurrence of its own: by the ladder-operator
identity in _mixed_nu_sq, ||v h||^2 is read off the squares of h and
d_v h.  Sobolev sums run over all derivative orders up to spectral.ORDER,
not just the top order.

Coefficients are Hermite-major half-spectra (see spectral), so every
Parseval sum weights the modes m = 1..n_x/2-1 by 2 (they stand for their
conjugates too) and m = 0 and m = n_x/2 by 1 (grid.mode_weights).  A norm
reduces each coefficient array to one squared modulus per Fourier mode,
summed over the Hermite axis (_tower_squares), and spectral.parseval_sq
turns that vector into a Sobolev norm; only spectral knows the weights.
energy_functionals and limit_error take the batch state that solver.run
shows its observer, shape (n_v, B, n_x/2 + 1), and return one EnergyReport
or LimitTerms per member: the Hermite sums keep the member axis, and
parseval_sq and operators.spatial_l2_norm give one norm per member row.
The micro parts (I - P) g and (I - P0) g are views of g's coefficients
without their zero levels (hermite_shift_coeffs' first), so no sample
copies its state.  An EnergyReport is one row of a run's energy CSV: its
fields are the columns.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .operators import potential_coeffs, spatial_l2_norm
from .spectral import (
    ORDER,
    SpatialGrid,
    hermite_shift_coeffs,
    inverse_transform,
    parseval_sq,
    real_field,
)

__all__ = [
    "EnergyReport",
    "energy_functionals",
    "LimitTerms",
    "limit_error",
]


class EnergyReport(NamedTuple):
    """One diagnostics sample, whose fields are the energy CSV's columns.

    E_k is the sum of the three fields after it, and D_k of the five after
    those; the dissipation terms carry their 1/eps prefactors already.
    """

    time: float
    E_k: float
    D_k: float
    g_HkxL2v_sq: float
    gradv_micro_Hkm1_sq: float
    ab_Hkm1_sq: float
    micro_nu_Hk_sq: float
    b_Hk_sq: float
    grad_b_Hkm1_sq: float
    grad_a_Hkm1_sq: float
    grad_phi_Hk_sq: float
    mass_residual: float
    poisson_residual: float

    def csv_row(self) -> str:
        return ",".join(f"{v:.17g}" for v in self)


# ---------------------------------------------------------------------------
# norm machinery

def _tower_squares(coeffs: np.ndarray, depth: int, first: int) -> tuple[list, list]:
    """Per-mode squares of the d_v tower f, d_v f, ..., d_v^depth f of the
    field whose levels from first on are coeffs: for each level, sum_n
    |c_n|^2 and sum_n (4n + 3) |c_n|^2 over the Hermite axis, with n the
    level's true index.

    Each derivative has an extended Hermite axis, so both sums are exact.
    The levels alternate between two buffers the size of the top level,
    and every shift forms its second term in a third.
    """
    scratch, *buffers = np.empty((3, first + len(coeffs) + depth) + coeffs.shape[1:], coeffs.dtype)
    plain, weighted = [], []
    level = coeffs
    for beta in range(depth + 1):
        if beta:
            level = hermite_shift_coeffs(level, first, scratch, buffers[beta % 2])
            first = 0
        sq = np.square(level.real)
        sq += np.square(level.imag)
        plain.append(sq.sum(axis=0))
        weight = 4.0 * np.arange(first, first + len(sq)) + 3.0
        weighted.append((weight @ sq.reshape(len(sq), -1)).reshape(sq.shape[1:]))
    return plain, weighted


def _mixed_nu_sq(grid: SpatialGrid, plain: list[np.ndarray], weighted: list[np.ndarray],
                 k: int) -> np.ndarray:
    """sum over |alpha| + |beta| <= k of the nu norms squared, per member,
    from the squares _tower_squares(f, k + 1) of the field f.

    The nu norm of h is ||d_v h||^2 + ||h||^2 + ||v h||^2.  With the
    ladder operators A psi_n = sqrt(n) psi_{n-1} and A^+ psi_n =
    sqrt(n+1) psi_{n+1}, v = A + A^+ and 2 d_v = A - A^+, so the cross
    terms cancel in ||v h||^2 + 4 ||d_v h||^2 = 2 ||A h||^2 + 2 ||A^+ h||^2
    = sum_n (4n + 2) |c_n|^2.  The nu norm of tower level beta is therefore
    its weighted square minus 3 times the plain square of level beta + 1.
    """
    return sum(
        parseval_sq(grid, weighted[beta] - 3.0 * plain[beta + 1], k - beta)
        for beta in range(k + 1)
    )


# ---------------------------------------------------------------------------
# energy / dissipation functionals

def energy_functionals(state, epsilons) -> list[EnergyReport]:
    """Headline energy and dissipation functionals of each member of the
    batch state at one sample, for the member's epsilon in epsilons; k = ORDER.

    E_k = ||g||^2_{H^k_x L^2_v} + ||d_v (I-P) g||^2_{H^{k-1}_{x,v}}
          + ||(a, b)||^2_{H^{k-1}_x}
    D_k = eps^-2 (||(I-P) g||^2 in the nu-weighted H^k_{x,v} + ||b||^2_{H^k_x})
          + eps^-1 ||(grad b, div b)||^2_{H^{k-1}_x}
          + ||d_x a||^2_{H^{k-1}_x} + ||d_x phi||^2_{H^k_x}

    In one dimension grad b and div b are both d_x b, so the eps^-1 group
    is twice ||d_x b||^2_{H^{k-1}_x}.  a and b are the Hermite rows 0 and 1
    of g, and d_x b, d_x a have the symbol grid.dx_symbol; the per-mode
    squares of one d_v tower of (I-P) g, streamed one level at a time,
    serve both micro norms, and its level 0 with the squares of a and b
    gives ||g||^2_{H^k_x L^2_v}, so each Hermite level is squared once.
    The nu norm ||h||^2_nu = ||d_v h||^2 + ||h||^2 + ||v h||^2 of each
    level h is sum_n (4n + 3) |c_n|^2 - 3 ||d_v h||^2, since v = A + A^+
    and 2 d_v = A - A^+ in the Hermite ladder operators (see
    _mixed_nu_sq), so no level is multiplied by v.  The coefficients
    of phi and d_x phi are potential_coeffs of level 0.  The Poisson
    residual compares the inverse FFT of the Laplacian of phi, whose
    symbol -k^2 keeps the Nyquist mode, with the density a of the state's
    macro fields, so it measures the spectral solve k^2 (c / k^2) = c and
    the mean of a.  A value that is not finite raises FloatingPointError.
    """
    epsilon = np.asarray(epsilons, dtype=float)  # one per member
    # a huge but finite state can overflow a square here; the test below
    # reports that as the stepper reports a blow-up, whatever the warning filter
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g = state.g
        grid = g.grid
        c = g.coeffs
        a_sq, b_sq = np.square(c[:2].real)  # (B, n_half) each
        a_sq += np.square(c[0].imag)
        b_sq += np.square(c[1].imag)
        dx_sq = grid.dx_symbol.imag**2
        plain, weighted = _tower_squares(c[2:], ORDER + 1, 2)  # (I - P) g: levels 0, 1 zero
        phi_c, grad_phi_c = potential_coeffs(grid, c[0])

        g_hk = parseval_sq(grid, plain[0] + a_sq + b_sq, ORDER)
        gradv_micro = sum(parseval_sq(grid, plain[beta + 1], ORDER - 1 - beta)
                          for beta in range(ORDER))
        ab = parseval_sq(grid, a_sq, ORDER - 1) + parseval_sq(grid, b_sq, ORDER - 1)

        micro_nu = _mixed_nu_sq(grid, plain, weighted, ORDER) / epsilon**2
        b_hk = parseval_sq(grid, b_sq, ORDER) / epsilon**2
        grad_b = 2.0 * parseval_sq(grid, dx_sq * b_sq, ORDER - 1) / epsilon
        grad_a = parseval_sq(grid, dx_sq * a_sq, ORDER - 1)
        grad_phi = parseval_sq(grid, grad_phi_c.real**2 + grad_phi_c.imag**2, ORDER)

        a = state.macro.a
        lap_phi = real_field(grid, phi_c * -grid.k_sq)
        denom = spatial_l2_norm(grid, a)
        rows = np.column_stack((
            g_hk + gradv_micro + ab,
            micro_nu + b_hk + grad_b + grad_a + grad_phi,
            g_hk, gradv_micro, ab, micro_nu, b_hk, grad_b, grad_a, grad_phi,
            np.abs(np.mean(a, axis=-1)),
            spatial_l2_norm(grid, lap_phi + a) / np.where(denom == 0.0, 1.0, denom),
        ))
    if not np.all(np.isfinite(rows)):
        raise FloatingPointError(f"non-finite energy functional at t = {state.time:.6g}")
    return [EnergyReport(float(state.time), *row) for row in rows.tolist()]


# ---------------------------------------------------------------------------
# kinetic-vs-fluid limit metrics

class LimitTerms(NamedTuple):
    """The kinetic-vs-fluid error terms of one sample (see limit_error)."""

    moment_error: float
    field_error: float
    micro_sq: float
    pointwise_error: float


def limit_error(kinetic_state, ddp_state) -> list[LimitTerms]:
    """Error terms between each member of a kinetic batch sample and the
    fluid sample of its time.

    The L^2 errors of the density and the field, the squared mixed H^k
    norm (k = ORDER) of the microscopic part (I - P0) g, and the pointwise
    sup of the reconstructed distribution f = M + g sqrt(M) against
    (1 + rho0) M over the collocation nodes (the grid analogue of the
    embedding argument), as psi_0 (G - rho0 psi_0) with G the point values
    of g: no term of size M cancels, so the gap keeps its digits as
    epsilon shrinks it.  A sweep computes the terms as the run goes, so it
    keeps no sampled state, and harness.sweep_record reduces the terms of
    a run's samples.
    """
    if not np.isclose(kinetic_state.time, ddp_state.time, rtol=1e-9, atol=1e-12):
        raise ValueError(
            f"kinetic and fluid samples must share their sampling times, got "
            f"{kinetic_state.time:g} and {ddp_state.time:g}"
        )
    g = kinetic_state.g
    grid = g.grid
    plain, _ = _tower_squares(g.coeffs[1:], ORDER, 1)  # (I - P0) g: level 0 zero
    micro_sq = sum(parseval_sq(grid, sq, ORDER - beta) for beta, sq in enumerate(plain))
    psi_0 = g.basis.synthesis[:, 0]
    gap = inverse_transform(g)  # f - (1 + rho0) M = psi_0 (G - rho0 psi_0)
    gap -= ddp_state.rho0[:, None] * psi_0
    np.abs(gap, out=gap)
    gap *= psi_0
    macro = kinetic_state.macro
    rows = np.column_stack((
        spatial_l2_norm(grid, macro.a - ddp_state.rho0),
        spatial_l2_norm(grid, macro.grad_phi - ddp_state.grad_phi0),
        micro_sq,
        gap.max(axis=(-2, -1)),
    ))
    return [LimitTerms(*row) for row in rows.tolist()]
