"""Semi-implicit solver for the limiting drift-diffusion system.

Works with the shifted density rho0 = rho - 1 on the same spatial grid,
the torus [0, 2 pi) with wavenumbers k_m = m, and the same transform
stack as the kinetic solver, so kinetic-vs-fluid errors need no
interpolation.  Diffusion is implicit through the Fourier symbol; the drift
divergence is explicit and pseudo-spectral with 2/3-rule dealiasing.  The
step is linear in the density and the drift product rho0 d phi0/dx, so on
up to DENSE_MAX_N_X points (the default sweep's 64 among them) it is one
product of those two fields with a real propagator matrix and makes no
transform.  Above, it works on the half-spectrum m = 0..n_x/2 and makes
two transforms through spectral's pair: one real FFT of the density and
the drift product, and one inverse real FFT of the new density and its
field d phi0/dx, all a state keeps, by operators.density_and_field, the
transform of moments.  The propagator is that FFT step applied to the
identity, so both paths share one chain of symbols: the odd
derivatives use grid.dx_symbol, 0 at the Nyquist mode, and the 2/3 rule
zeroes the drift product's modes from grid.n_dealiased on
(grid.dealiased_dx_symbol).  Lap phi0 = -rho0 holds off the mean mode
only, so the drift leaves the mean mode as it is and a rounding-level
mean stays at rounding level, whatever dt.  The propagator depends only
on (n_x, dt), plain numbers that key its cache; it is built at the first
step of such a pair, read-only.  The step's checks on the new density
read one min and one max of it.  ddp_run returns the list of its sampled
states, each with its time; it steps with NumPy's warnings off, so a
blow-up is ddp_step's one FloatingPointError.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .operators import (ZERO_MEAN_TOL, density_and_field, require_spatial_field,
                        require_zero_mean, solve_poisson)
from .solver import ConservationError, sample_trajectory, step_schedule
from .spectral import SpatialGrid, fourier_field

__all__ = ["DdpState", "make_ddp_state", "ddp_step", "ddp_run"]

# ddp_step multiplies by a dense propagator up to this many points and
# transforms above it; the product costs 4 n_x^2 flops.  One step took
# 15, 22, 38 and 98 us dense and 44, 46, 49 and 52 us by FFT at n_x = 64,
# 128, 192 and 256 (medians of three runs on a 2-vCPU x86-64 host, NumPy
# 2.4 with OpenBLAS; 192 points is a toss-up between runs).
DENSE_MAX_N_X = 128


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


def _advance_coeffs(grid: SpatialGrid, dt: float, rho_c: np.ndarray,
                    prod_c: np.ndarray) -> np.ndarray:
    """The new density's coefficients from those of rho0 and of the drift
    product rho0 d phi0/dx, along the last axis; diffusion divides by the
    implicit symbol 1 + dt k^2."""
    # div((rho0 + 1) grad phi0) = div(rho0 grad phi0) + Lap phi0, and Lap phi0 is
    # -rho0 without its mean mode; the product is dealiased by the 2/3 rule
    lap_phi_c = -rho_c
    lap_phi_c[..., 0] = 0.0
    rhs_c = rho_c + dt * (grid.dealiased_dx_symbol * prod_c + lap_phi_c)
    return rhs_c / (1.0 + dt * grid.k_sq)


@lru_cache(maxsize=16)
def _propagator(n_x: int, dt: float) -> np.ndarray:
    """The step on SpatialGrid(n_x) at dt as one real matrix W, built once
    per pair and read-only.

    Row vector [rho0, rho0 d phi0/dx] times W is [new rho0, new d phi0/dx,
    new mean mode], shape (2 n_x + 1,).  W is the identity of the 2 n_x
    inputs pushed through the FFT step's own chain (_advance_coeffs, then
    operators.density_and_field), so both paths share every symbol.  W
    is column-major, so each output is one contiguous dot product; on the
    default sweep that rounds closer to the FFT step than the row-major
    product does (outputs within 8.7e-12 relative, against 1.0e-11) and
    is no slower.
    """
    grid, n = SpatialGrid(n_x), n_x
    eye = np.eye(2 * n)
    new_c = _advance_coeffs(grid, dt, fourier_field(eye[:, :n]), fourier_field(eye[:, n:]))
    rho0, grad_phi0 = density_and_field(grid, new_c)
    w = np.asfortranarray(np.concatenate((rho0, grad_phi0, new_c[:, :1].real), axis=1))
    w.flags.writeable = False
    return w


def ddp_step(grid: SpatialGrid, state: DdpState, dt: float) -> DdpState:
    """One semi-implicit step of d/dt rho0 = Lap rho0 + div((rho0 + 1) grad phi0).

    To first order in rho0, mode m >= 1, of wavenumber m, falls by
    (1 - dt) / (1 + dt m^2) per step.  The drift update is a divergence
    and Lap phi0 has no mean mode, so the step keeps the mean mode as it
    is: a rounding-level mean stays at rounding level at any dt.  The step
    is linear in rho0 and the drift product rho0 d phi0/dx.  Up to
    DENSE_MAX_N_X points it is one product with the matrix that
    _propagator caches per (n_x, dt), and no transform; above, it works on
    the modes m = 0..n_x/2 with one real FFT and the inverse real FFT that
    moments makes (operators.density_and_field), with the grid's symbols.
    Checks the new density in this order, from its min and max alone:
    FloatingPointError unless it is finite (NaN and inf carry through min
    and max), solver.ConservationError unless its mean mode is zero to
    ZERO_MEAN_TOL relative to max(1, max |rho0|), and a RuntimeWarning
    unless 1 + rho0 > 0.
    """
    n, drift = grid.n_x, state.rho0 * state.grad_phi0
    if n <= DENSE_MAX_N_X:
        new = np.concatenate((state.rho0, drift)) @ _propagator(n, dt)
        rho0, grad_phi0, mean = new[:n], new[n:-1], float(new[-1])
    else:
        rho_c, prod_c = fourier_field(np.array([state.rho0, drift]))
        new_c = _advance_coeffs(grid, dt, rho_c, prod_c)
        rho0, grad_phi0 = density_and_field(grid, new_c)
        mean = float(new_c[0].real)
    time = state.time + dt
    lo, hi = float(rho0.min()), float(rho0.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise FloatingPointError(f"non-finite fluid state at t = {time:.6g}")
    if not abs(mean) <= ZERO_MEAN_TOL * max(1.0, -lo, hi):
        raise ConservationError(
            f"fluid density lost its zero mean at t = {time:.6g}: mean {mean:.3e}")
    return _checked_state(time, rho0, grad_phi0, lo)


def ddp_run(grid: SpatialGrid, rho0_initial: np.ndarray, dt: float, t_final: float,
            sample_interval: float) -> list[DdpState]:
    """Integrate the fluid system on the kinetic run's sampling schedule,
    step_schedule(t_final, sample_interval, dt) fitted once, and return the
    sampled states, the initial one first; each carries its time.  It
    steps with NumPy's warnings off, as the kinetic stepper does."""
    rho0 = np.asarray(rho0_initial, dtype=float)
    require_spatial_field(grid, rho0, "initial fluid density")
    state = make_ddp_state(grid, 0.0, rho0 - require_zero_mean(rho0, "initial fluid density"))
    schedule = step_schedule(t_final, sample_interval, dt)

    def advance(state: DdpState, n: int) -> DdpState:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for _ in range(n):
                state = ddp_step(grid, state, schedule[1])
        return state

    states = []
    sample_trajectory(state, t_final, schedule, advance, states.append)
    return states
