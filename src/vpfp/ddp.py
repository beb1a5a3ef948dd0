"""Semi-implicit solver for the limiting drift-diffusion system.

Works with the shifted density rho0 = rho - 1 on the same spatial grid and
transform stack as the kinetic solver, so kinetic-vs-fluid errors need no
interpolation.  Diffusion is implicit through the Fourier symbol; the drift
divergence is explicit and pseudo-spectral with 2/3-rule dealiasing.  A
step works on the half-spectrum m = 0..n_x/2 of its real fields and makes
two transforms: one real FFT of the density and the drift product, one
inverse real FFT of the new density and its field d phi0/dx, all a state
keeps.  The odd derivatives use grid.dx_symbol, 0 at the Nyquist mode.
The symbols of a step depend only on (grid, dt) and are built once per
pair; the step's checks on the new density read one min and one max of it.
ddp_run returns the list of its sampled states, each with its time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .operators import (check_zero_mean, potential_coeffs, require_spatial_field,
                        require_zero_mean, solve_poisson)
from .solver import sample_trajectory, step_schedule
from .spectral import SpatialGrid

__all__ = ["DdpState", "make_ddp_state", "ddp_step", "ddp_run"]


@dataclass(frozen=True)
class DdpState:
    """Fluid sample: shifted density and its field d phi0 / dx, each (n_x,)."""

    time: float
    rho0: np.ndarray
    grad_phi0: np.ndarray


def make_ddp_state(grid: SpatialGrid, time: float, rho0: np.ndarray) -> DdpState:
    """The fluid state of the zero-mean shifted density rho0, with its field.

    This is the one constructor of a DdpState from a density, shared by
    ddp_run and the tests.  It calls solve_poisson through this module's
    namespace, where the benchmark tracer wraps it, so keep it that way.
    """
    _, grad_phi0 = solve_poisson(grid, rho0)
    return _checked_state(time, rho0, grad_phi0, float(np.min(rho0)))


def _checked_state(time: float, rho0: np.ndarray, grad_phi0: np.ndarray,
                   rho0_min: float) -> DdpState:
    # rounding is monotone, so 1 + min(rho0) <= 0 exactly when min(1 + rho0) <= 0
    if 1.0 + rho0_min <= 0.0:
        warnings.warn("reconstructed fluid density is not positive", RuntimeWarning)
    return DdpState(time=time, rho0=rho0, grad_phi0=grad_phi0)


@lru_cache(maxsize=16)
def _step_symbols(grid: SpatialGrid, dt: float) -> tuple[np.ndarray, ...]:
    """The symbols of ddp_step at (grid, dt), built once per pair and
    read-only: the dealiased derivative i k * mask and the implicit divisor
    1 + dt k^2."""
    dealiased_ik = grid.dx_symbol * grid.dealias_mask
    implicit = 1.0 + dt * grid.k_sq
    for a in (dealiased_ik, implicit):
        a.flags.writeable = False
    return dealiased_ik, implicit


def ddp_step(grid: SpatialGrid, state: DdpState, dt: float) -> DdpState:
    """One semi-implicit step of d/dt rho0 = Lap rho0 + div((rho0 + 1) grad phi0).

    To first order in rho0, mode m falls by (1 - dt) / (1 + dt m^2) per
    step.  The drift update is a divergence, but Lap phi0 = -rho0 holds
    only for zero-mean rho0, so the mean mode is multiplied by (1 - dt):
    a rounding-level mean stays at rounding level.  Works on the modes
    m = 0..n_x/2 with one real FFT and one inverse real FFT, with the
    symbols that _step_symbols caches per (grid, dt).  Checks the new
    density in this order, from its min and max alone: FloatingPointError
    unless it is finite (NaN and inf carry through min and max), ValueError
    unless its mean mode is zero to ZERO_MEAN_TOL relative to
    max(1, max |rho0|), and a RuntimeWarning unless 1 + rho0 > 0.
    """
    dealiased_ik, implicit = _step_symbols(grid, dt)
    rho_c, prod_c = np.fft.rfft(np.array([state.rho0, state.rho0 * state.grad_phi0]),
                                norm="forward")
    # div((rho0 + 1) grad phi0) = div(rho0 grad phi0) + Lap phi0, and Lap phi0 = -rho0;
    # the product is dealiased by the 2/3 rule
    rhs_c = rho_c + dt * (dealiased_ik * prod_c - rho_c)
    new_c = rhs_c / implicit
    rho0, grad_phi0 = np.fft.irfft(np.array([new_c, potential_coeffs(grid, new_c)[1]]),
                                   n=grid.n_x, norm="forward")
    time = state.time + dt
    lo, hi = float(rho0.min()), float(rho0.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise FloatingPointError(f"non-finite fluid state at t = {time:.6g}")
    check_zero_mean(float(new_c[0].real), max(-lo, hi), "Poisson right-hand side")
    return _checked_state(time, rho0, grad_phi0, lo)


def ddp_run(grid: SpatialGrid, rho0_initial: np.ndarray, dt: float, t_final: float,
            sample_interval: float) -> list[DdpState]:
    """Integrate the fluid system on the kinetic run's sampling schedule,
    step_schedule(t_final, sample_interval, dt) fitted once, and return the
    sampled states, the initial one first; each carries its time."""
    rho0 = np.asarray(rho0_initial, dtype=float)
    require_spatial_field(grid, rho0, "initial fluid density")
    state = make_ddp_state(grid, 0.0, rho0 - require_zero_mean(rho0, "initial fluid density"))
    schedule = step_schedule(t_final, sample_interval, dt)

    def advance(state: DdpState, n: int) -> DdpState:
        for _ in range(n):
            state = ddp_step(grid, state, schedule[1])
        return state

    states = []
    sample_trajectory(state, t_final, schedule, advance, states.append)
    return states
