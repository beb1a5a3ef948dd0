"""Fourier-Hermite solver for a scaled kinetic Fokker-Planck system with
self-consistent electrostatics, its drift-diffusion limit, and the sweep
harness that measures the convergence between the two."""

from .spectral import (
    ConfigurationError,
    SpatialGrid,
    HermiteBasis,
    SpectralField,
    inverse_transform,
)
from .operators import (
    MacroFields,
    apply_L,
    moments,
    project_macro,
    project_micro,
    gamma_moment,
    solve_poisson,
    vpfp_rhs,
)
from .solver import (
    ConservationError,
    SolverConfig,
    KineticState,
    Trajectory,
    make_initial_data,
    run,
)
from .ddp import DdpState, ddp_step, ddp_run
from .diagnostics import (
    EnergyReport,
    nu_norm,
    coercivity_gap,
    energy_functionals,
    moment_residuals,
    limit_error,
    limit_metrics,
)
from .harness import SweepConfig, SweepResult, run_sweep

__version__ = "0.1.0"
