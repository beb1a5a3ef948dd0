"""Semi-implicit solver for the limiting drift-diffusion system.

Works with the shifted density rho0 = rho - 1 on the same spatial grid and
transform stack as the kinetic solver, so kinetic-vs-fluid errors need no
interpolation.  Diffusion is implicit through the Fourier symbol; the drift
divergence is explicit and pseudo-spectral with 2/3-rule dealiasing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .operators import dealiased_product, fourier_field, real_field, solve_poisson
from .spectral import SpatialGrid

__all__ = ["DdpState", "ddp_step", "ddp_run"]


@dataclass(frozen=True)
class DdpState:
    """Fluid sample: shifted density and its self-consistent potential."""

    time: float
    rho0: np.ndarray
    phi0: np.ndarray
    grad_phi0: np.ndarray


def make_ddp_state(grid: SpatialGrid, time: float, rho0: np.ndarray) -> DdpState:
    phi0, grad_phi0 = solve_poisson(grid, rho0)
    if float(np.min(1.0 + rho0)) <= 0.0:
        warnings.warn("reconstructed fluid density is not positive", RuntimeWarning)
    return DdpState(time=time, rho0=rho0, phi0=phi0, grad_phi0=grad_phi0)


def ddp_step(grid: SpatialGrid, state: DdpState, dt: float, drift: bool = True) -> DdpState:
    """One semi-implicit step of d/dt rho0 = Lap rho0 + div((rho0 + 1) grad phi0).

    The update is a divergence, so the spatial mean of rho0 is preserved
    exactly; drift=False is a test hook leaving pure implicit diffusion.
    """
    rho_c = fourier_field(grid, state.rho0)
    k = grid.wavenumbers

    drift_c = np.zeros_like(rho_c)
    if drift:
        # div((rho0 + 1) grad phi0) = div(rho0 grad phi0) + Lap phi0
        for ax in range(grid.d):
            shape = [1] * grid.d
            shape[ax] = grid.n_x
            prod = dealiased_product(grid, state.rho0, state.grad_phi0[ax])
            drift_c = drift_c + (1j * k).reshape(shape) * fourier_field(grid, prod)
        drift_c = drift_c - rho_c  # Lap phi0 = -rho0

    new_c = (rho_c + dt * drift_c) / (1.0 + dt * grid.k_sq)
    rho0 = real_field(grid, new_c)
    if not np.all(np.isfinite(rho0)):
        raise FloatingPointError(f"non-finite fluid state at t = {state.time + dt:.6g}")
    return make_ddp_state(grid, state.time + dt, rho0)


def ddp_run(grid: SpatialGrid, rho0_initial: np.ndarray, dt: float, t_final: float,
            sample_interval: float | None = None, drift: bool = True):
    """Integrate the fluid system, sampling like the kinetic run."""
    from .solver import Trajectory, _fit_dt  # shared sampling conventions

    rho0 = np.asarray(rho0_initial, dtype=float)
    mean = float(np.mean(rho0))
    if abs(mean) > 1e-12 * max(1.0, float(np.max(np.abs(rho0))) or 1.0):
        raise ValueError(f"initial fluid density must have zero mean; got {mean:.3e}")
    state = make_ddp_state(grid, 0.0, rho0 - mean)

    if t_final == 0.0:
        return Trajectory(times=np.array([0.0]), states=[state])
    if sample_interval is None or sample_interval > t_final:
        sample_interval = t_final
    n_samples = max(1, round(t_final / sample_interval))
    sample_interval = t_final / n_samples
    step_dt, steps_per_sample = _fit_dt(dt, sample_interval)

    times = [0.0]
    states = [state]
    for s in range(n_samples):
        for _ in range(steps_per_sample):
            state = ddp_step(grid, state, step_dt, drift=drift)
        state = DdpState(time=(s + 1) * sample_interval, rho0=state.rho0,
                         phi0=state.phi0, grad_phi0=state.grad_phi0)
        times.append(state.time)
        states.append(state)
    return Trajectory(times=np.array(times), states=states)
