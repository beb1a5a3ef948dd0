"""Semi-implicit solver for the limiting drift-diffusion system.

Works with the shifted density rho0 = rho - 1 on the same spatial grid and
transform stack as the kinetic solver, so kinetic-vs-fluid errors need no
interpolation.  Diffusion is implicit through the Fourier symbol; the drift
divergence is explicit and pseudo-spectral with 2/3-rule dealiasing.  A
step works on the half-spectrum m = 0..n_x/2 of its real fields and makes
two transforms: one real FFT of the density and the drift product, one
inverse real FFT of the new density, its potential and the field.  The
odd derivatives use grid.dx_symbol, 0 at the Nyquist mode.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .operators import require_zero_mean, solve_poisson
from .solver import Trajectory, sample_trajectory
from .spectral import SpatialGrid

__all__ = ["DdpState", "make_ddp_state", "ddp_step", "ddp_run"]


@dataclass(frozen=True)
class DdpState:
    """Fluid sample: shifted density, its potential and d phi0 / dx, each (n_x,)."""

    time: float
    rho0: np.ndarray
    phi0: np.ndarray
    grad_phi0: np.ndarray


def make_ddp_state(grid: SpatialGrid, time: float, rho0: np.ndarray) -> DdpState:
    """The fluid state of the zero-mean shifted density rho0, with its field.

    This is the one constructor of a DdpState from a density, shared by
    ddp_run and the tests.  It calls solve_poisson through this module's
    namespace, where the benchmark tracer wraps it, so keep it that way.
    """
    phi0, grad_phi0 = solve_poisson(grid, rho0)
    return _checked_state(time, rho0, phi0, grad_phi0)


def _checked_state(time: float, rho0: np.ndarray, phi0: np.ndarray,
                   grad_phi0: np.ndarray) -> DdpState:
    if float(np.min(1.0 + rho0)) <= 0.0:
        warnings.warn("reconstructed fluid density is not positive", RuntimeWarning)
    return DdpState(time=time, rho0=rho0, phi0=phi0, grad_phi0=grad_phi0)


def ddp_step(grid: SpatialGrid, state: DdpState, dt: float) -> DdpState:
    """One semi-implicit step of d/dt rho0 = Lap rho0 + div((rho0 + 1) grad phi0).

    To first order in rho0, mode m falls by (1 - dt) / (1 + dt m^2) per
    step.  The update is a divergence, so the spatial mean of rho0 is
    preserved exactly.  Works on the modes m = 0..n_x/2 with one real FFT
    and one inverse real FFT, and raises FloatingPointError on a
    non-finite new density.
    """
    ik = grid.dx_symbol
    rho_c, prod_c = np.fft.rfft(np.array([state.rho0, state.rho0 * state.grad_phi0]),
                                norm="forward")
    # div((rho0 + 1) grad phi0) = div(rho0 grad phi0) + Lap phi0, and Lap phi0 = -rho0;
    # the product is dealiased by the 2/3 rule
    rhs_c = rho_c + dt * (ik * grid.dealias_mask * prod_c - rho_c)
    new_c = rhs_c / (1.0 + dt * grid.k_sq)
    phi_c = new_c * grid.inverse_laplacian
    rho0, phi0, grad_phi0 = np.fft.irfft(np.array([new_c, phi_c, ik * phi_c]),
                                         n=grid.n_x, norm="forward")
    time = state.time + dt
    if not np.all(np.isfinite(rho0)):
        raise FloatingPointError(f"non-finite fluid state at t = {time:.6g}")
    require_zero_mean(rho0, "Poisson right-hand side")
    return _checked_state(time, rho0, phi0, grad_phi0)


def ddp_run(grid: SpatialGrid, rho0_initial: np.ndarray, dt: float, t_final: float,
            sample_interval: float | None = None) -> Trajectory:
    """Integrate the fluid system on the kinetic run's sampling schedule."""
    rho0 = np.asarray(rho0_initial, dtype=float)
    state = make_ddp_state(grid, 0.0, rho0 - require_zero_mean(rho0, "initial fluid density"))

    def make_advance(step_dt: float):
        def advance(state: DdpState, n: int) -> DdpState:
            for _ in range(n):
                state = ddp_step(grid, state, step_dt)
            return state
        return advance

    states = []
    times = sample_trajectory(state, t_final, dt, sample_interval, make_advance,
                              observers=(states.append,))
    return Trajectory(times=times, states=states)
