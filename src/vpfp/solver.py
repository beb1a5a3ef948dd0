"""IMEX time integration of the scaled kinetic system.

Per spatial Fourier mode the two epsilon-singular linear terms -- streaming
(i k / eps) V with V the tridiagonal velocity-multiplication matrix, and the
collision multiplier diag(n) / eps^2 -- are treated implicitly; the field
coupling terms are explicit with the beginning-of-step potential.

Each implicit block I + dt (i k / eps) V + dt diag(n) / eps^2 is tridiagonal
with the real diagonal d_n = 1 + dt n / eps^2 and purely imaginary symmetric
off-diagonals i (dt k / eps) sqrt(n), which couple level n only to n +- 1.
As in the moment method, the solve eliminates the odd (flux) levels: the
Schur complement on the even levels, S = D_e + (dt k / eps)^2 B D_o^-1 B^T,
is a real SPD tridiagonal with pivots p_j >= d_{2j} >= 1, so one Thomas
sweep over its ceil(n_v / 2) rows needs no pivoting and no refinement, and
the odd levels are back-substituted.  Keeping the odd levels would cancel
digits on stiff modes when back-substituting level 0, where d_0 = 1.  The
factors depend only on (scheme stage, dt), so they are built once.

The state is the Hermite-major half-spectrum of spectral/operators, shape
(n_v, n_x/2 + 1): the factors, the right-hand sides and the solution share
that layout, so a step never transposes, copies into another order or
fills conjugate modes.  The streaming wavenumber is 0 at the Nyquist mode
(grid.dx_symbol), whose block is then diagonal and whose row stays real.
Each warm step makes four real FFT calls: the field coupling's inverse
and forward transforms and the forward transform of its psi_1 source, and
the one inverse transform in which operators.moments builds the new
state's density, momentum and field.

A warm step allocates one state-sized array: the new state's
coefficients, in which its right-hand side is built and solved.  The
stepper owns the real scratch of the field coupling's inverse transform;
run owns the explicit-term buffers (one for Euler, two alternating for
BDF2) and passes them to explicit_coeffs as out.  Sampled states are never
written to after they are made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .operators import MacroFields, moments, require_zero_mean, vpfp_rhs
from .spectral import (
    ConfigurationError,
    HermiteBasis,
    SpatialGrid,
    SpectralField,
    inverse_transform,
)

__all__ = [
    "ConservationError",
    "SolverConfig",
    "KineticState",
    "Trajectory",
    "VpfpStepper",
    "make_initial_data",
    "sample_count",
    "sample_trajectory",
    "run",
]

SCHEMES = ("imex_euler", "imex_bdf2")
NEUTRALITY_TOL = 1e-13
# Tolerance on t_final / sample_interval being a whole number.
SAMPLE_RATIO_RTOL = 1e-9


class ConservationError(RuntimeError):
    """A step changed a conserved quantity beyond round-off."""


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and stepping parameters for one kinetic run."""

    epsilon: float
    t_final: float
    n_x: int = 64
    n_v: int = 64
    length: float = 2.0 * math.pi
    dt_max: float = 5.0e-3
    cfl_scale: float = 0.5
    scheme: str = "imex_euler"
    # test hooks
    transport_enabled: bool = True
    fields_enabled: bool = True

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise ConfigurationError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if self.dt_max <= 0 or self.cfl_scale <= 0:
            raise ConfigurationError("dt_max and cfl_scale must be positive")
        if self.t_final < 0:
            raise ConfigurationError(f"t_final must be non-negative, got {self.t_final}")
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        self.make_grid()  # reject a bad n_x, length or n_v now, not mid-sweep
        self.make_basis()

    @property
    def dt_nominal(self) -> float:
        return min(self.dt_max, self.cfl_scale * self.epsilon)

    def make_grid(self) -> SpatialGrid:
        return SpatialGrid(n_x=self.n_x, length=self.length)

    def make_basis(self) -> HermiteBasis:
        return HermiteBasis(n_v=self.n_v)


@dataclass(frozen=True)
class KineticState:
    """Solution sample: perturbation g with Poisson-consistent macro fields."""

    time: float
    g: SpectralField
    macro: MacroFields


@dataclass
class Trajectory:
    """Sampled states of one run, equally spaced in time."""

    times: np.ndarray
    states: list


def make_initial_data(grid: SpatialGrid, basis: HermiteBasis, rho_profile,
                      amplitude: float = 1.0,
                      micro_perturbation: SpectralField | None = None) -> KineticState:
    """Well-prepared initial state g = amplitude * profile(x) * sqrt(M).

    rho_profile is a callable of x (or an array on the grid nodes) with zero
    spatial mean; an optional microscopic component must already lie in the
    range of (I - P).  The reconstructed distribution must be positive at
    every collocation node.
    """
    profile = rho_profile(grid.nodes) if callable(rho_profile) else np.asarray(rho_profile, float)
    a = amplitude * profile
    a = a - require_zero_mean(a, "density profile")  # remove rounding-level residual

    coeffs = np.zeros((basis.n_v, grid.n_half), dtype=complex)
    coeffs[0] = np.fft.rfft(a, norm="forward")
    coeffs[0, 0] = 0.0  # neutrality: exact zero mean
    if micro_perturbation is not None:
        mc = micro_perturbation.coeffs
        macro_part = float(np.max(np.abs(mc[:2])))
        if macro_part > 1e-12:
            raise ValueError(
                f"micro perturbation must be (I-P)-projected; macro content {macro_part:.3e}"
            )
        coeffs = coeffs + mc

    g = SpectralField(grid, basis, coeffs)
    g_vals = inverse_transform(g)
    sqrt_m = basis.maxwellian_sqrt()
    f_vals = sqrt_m**2 + g_vals * sqrt_m
    f_min = float(np.min(f_vals))
    if f_min <= 0.0:
        raise ValueError(f"reconstructed distribution is not positive; minimum value {f_min:.3e}")

    return KineticState(time=0.0, g=g, macro=moments(g))


@dataclass(frozen=True)
class TridiagonalFactors:
    """Even-level factors of the implicit blocks of the modes m = 0..n_x/2.

    Arrays have the Hermite level first, so each sweep step reads one
    contiguous row across all modes.  The real sweep factors hold every
    mode twice, to act on the float64 view (re, im, ...) of a complex row.
    """

    odd_inv_diag: np.ndarray  # 1 / d_n on the odd levels, shape (n_v // 2, 1)
    lower: np.ndarray         # A[2l+1, 2l] / d_{2l+1}, complex
    upper: np.ndarray         # A[2l+1, 2l+2] / d_{2l+1}, complex; one row fewer when n_v is even
    multiplier: np.ndarray    # S[j, j-1] / p_{j-1}, real; row 0 is zero
    inv_pivot: np.ndarray     # 1 / p_j, real

    @classmethod
    def build(cls, k: np.ndarray, n_v: int, epsilon: float, dt: float) -> "TridiagonalFactors":
        n = np.arange(n_v)
        diag = (1.0 + dt * (n / epsilon**2))[:, None]
        beta = dt * k / epsilon
        beta_sq = beta**2
        # the LU pivots u_n of the whole block sum positive terms; S's pivot
        # p_j is u_{2j} with the odd level 2j+1 folded in
        pivot = np.empty((n_v, k.size))
        pivot[0] = diag[0]
        for i in range(1, n_v):
            pivot[i] = diag[i] + beta_sq * i / pivot[i - 1]
        if not np.all(np.isfinite(pivot)):
            raise FloatingPointError("implicit solve breakdown: non-finite factor")
        odd_n = n[1::2, None]
        odd_inv_diag = 1.0 / diag[1::2]
        even_pivot = pivot[0::2]
        even_pivot[:odd_n.size] += beta_sq * (odd_n * odd_inv_diag)
        n_off = even_pivot.shape[0] - 1  # S[j, j-1] = beta^2 sqrt(2j (2j-1)) / d_{2j-1}
        multiplier = np.zeros_like(even_pivot)
        multiplier[1:] = (beta_sq * (np.sqrt(odd_n * (odd_n + 1)) * odd_inv_diag)[:n_off]
                          / even_pivot[:-1])
        coupling = np.sqrt(n)[:, None] * (1j * beta)  # A[n, n-1] = A[n-1, n]
        lower = coupling[1::2] * odd_inv_diag
        upper = coupling[2::2] * odd_inv_diag[:n_off]
        return cls(odd_inv_diag, lower, upper, np.repeat(multiplier, 2, axis=1),
                   np.repeat(1.0 / even_pivot, 2, axis=1))

    def solve(self, x: np.ndarray) -> np.ndarray:
        """Solve every block in place for the C-contiguous complex x of shape
        (n_v, n_x/2 + 1) and return x.  Reciprocal pivots make a diagonal
        block (k = 0, or transport off) give exactly x * (1 / d_n); the row
        views are listed once, as indexing in the loops costs as much."""
        even, odd = x[0::2], x[1::2]
        n_up = self.upper.shape[0]
        even[:odd.shape[0]] -= self.lower * odd  # x_e's right-hand side
        even[1:] -= self.upper * odd[:n_up]
        xe = x.view(np.float64)[0::2]
        rows, mult = list(xe), list(self.multiplier)
        tmp = np.empty_like(rows[0])
        for i in range(1, len(rows)):
            np.multiply(mult[i], rows[i - 1], out=tmp)
            np.subtract(rows[i], tmp, out=rows[i])
        xe *= self.inv_pivot
        for i in range(len(rows) - 1, 0, -1):
            np.multiply(mult[i], rows[i], out=tmp)
            np.subtract(rows[i - 1], tmp, out=rows[i - 1])
        odd *= self.odd_inv_diag  # back-substitution of the odd levels
        odd -= self.lower * even[:odd.shape[0]]
        odd[:n_up] -= self.upper * even[1:]
        return x


class VpfpStepper:
    """IMEX Euler and BDF2 steps for a fixed config and step size dt.

    Caches the half-spectrum even-level factors per effective implicit
    step (dt for Euler, 2 dt / 3 for BDF2); each costs O(n_x n_v) to build
    and to store.  A step solves its freshly built right-hand side in place.
    The stepper owns one real scratch of shape (n_v - 1, n_x), which every
    field-coupling evaluation reuses and no method returns; the caller owns
    the explicit-term arrays.
    """

    def __init__(self, cfg: SolverConfig, dt: float):
        self.cfg = cfg
        self.dt = float(dt)
        self.grid = cfg.make_grid()
        self.basis = cfg.make_basis()
        self._factors: dict[float, TridiagonalFactors] = {}
        self._scratch = np.empty((self.basis.n_v - 1, self.grid.n_x))

    # -- implicit blocks ----------------------------------------------------
    def factors(self, dt_eff: float) -> TridiagonalFactors:
        """Factors of I + dt_eff * S_m for m = 0..n_x/2, built once per dt_eff.

        The streaming wavenumber is that of grid.dx_symbol: 0 at the Nyquist
        mode, whose block is diagonal.
        """
        f = self._factors.get(dt_eff)
        if f is None:
            k = self.grid.dx_symbol.imag
            if not self.cfg.transport_enabled:
                k = np.zeros_like(k)
            f = TridiagonalFactors.build(k, self.basis.n_v, self.cfg.epsilon, dt_eff)
            self._factors[dt_eff] = f
        return f

    def solve_implicit(self, dt_eff: float, coeffs: np.ndarray) -> np.ndarray:
        """(I + dt_eff * S_m)^-1 applied per mode to a half-spectrum of shape
        (n_v, n_x/2 + 1), on a copy: coeffs is not modified."""
        return self.factors(dt_eff).solve(np.array(coeffs, dtype=complex, order="C"))

    # -- explicit part ------------------------------------------------------
    def explicit_coeffs(self, g: SpectralField, macro: MacroFields,
                        out: np.ndarray | None = None) -> np.ndarray:
        """Field-coupling terms of the right-hand side (lagged potential),
        written into out when given (complex, C-contiguous, the shape of
        g.coeffs) and otherwise into a new array, which is returned."""
        rhs = vpfp_rhs(g, macro, self.cfg.epsilon, fields=self.cfg.fields_enabled,
                       out=out, scratch=self._scratch)
        return rhs.coeffs

    # -- stepping -----------------------------------------------------------
    def _finish(self, coeffs: np.ndarray, time: float, mass_before: complex) -> KineticState:
        if not np.all(np.isfinite(coeffs)):
            raise FloatingPointError(f"non-finite state detected at t = {time:.6g}")
        mass_after = coeffs[0, 0]
        drift = abs(mass_after - mass_before)
        if drift > NEUTRALITY_TOL * (1.0 + abs(mass_before)):
            raise ConservationError(
                f"Hermite-0 spatial mean changed by {drift:.3e} during a step"
            )
        g = SpectralField(self.grid, self.basis, coeffs)
        return KineticState(time=time, g=g, macro=moments(g))

    def step_euler(self, state: KineticState, expl: np.ndarray | None = None) -> KineticState:
        """One IMEX Euler step; expl may carry precomputed explicit_coeffs(state)."""
        dt = self.dt
        mass0 = state.g.coeffs[0, 0]
        if expl is None:
            expl = self.explicit_coeffs(state.g, state.macro)
        rhs = dt * expl
        rhs += state.g.coeffs
        return self._finish(self.factors(dt).solve(rhs), state.time + dt, mass0)

    def step_bdf2(self, state: KineticState, prev: KineticState,
                  expl: np.ndarray, expl_prev: np.ndarray) -> KineticState:
        """One IMEX BDF2 step.  expl_prev, dead after this step, is
        overwritten: it holds the explicit part of the right-hand side."""
        dt = self.dt
        mass0 = state.g.coeffs[0, 0]
        # (4 g - g_prev + 2 dt (2 e - e_prev)) / 3.  Scaling by -1/2 and 4 dt
        # instead of 2 and 2 dt gives the same bits, as powers of 2 are exact.
        rhs = 4.0 * state.g.coeffs
        rhs -= prev.g.coeffs
        expl_prev *= -0.5
        expl_prev += expl
        expl_prev *= 4.0 * dt
        rhs += expl_prev
        rhs /= 3.0
        return self._finish(self.factors(2.0 * dt / 3.0).solve(rhs), state.time + dt, mass0)


def _fit_dt(dt_nominal: float, interval: float) -> tuple[float, int]:
    n = max(1, math.ceil(interval / dt_nominal - 1e-12))
    return interval / n, n


def sample_count(t_final: float, sample_interval: float | None) -> int:
    """Number of sample intervals of a run to t_final (0 when t_final is 0).

    None means one interval, t_final itself.  Otherwise sample_interval
    must be positive, at most t_final and divide it into a whole number of
    intervals (to SAMPLE_RATIO_RTOL relative); anything else raises
    ConfigurationError instead of being silently rounded.
    """
    if sample_interval is not None and sample_interval <= 0:
        raise ConfigurationError(f"sample_interval must be positive, got {sample_interval}")
    if t_final == 0.0:
        return 0
    if sample_interval is None:
        return 1
    ratio = t_final / sample_interval
    if ratio < 1.0 - SAMPLE_RATIO_RTOL:
        raise ConfigurationError(
            f"sample_interval = {sample_interval:g} exceeds t_final = {t_final:g}"
        )
    n_samples = round(ratio)
    if abs(ratio - n_samples) > SAMPLE_RATIO_RTOL * ratio:
        raise ConfigurationError(
            f"sample_interval = {sample_interval:g} does not divide t_final = {t_final:g} "
            f"into a whole number of samples"
        )
    return n_samples


def sample_trajectory(initial, t_final: float, dt_nominal: float,
                      sample_interval: float | None, make_advance,
                      observers=()) -> Trajectory:
    """The sampling schedule shared by the kinetic and the fluid run.

    Samples land on exact multiples of sample_interval, which must divide
    t_final (see sample_count; None means t_final alone).  The step size is
    the largest dt <= dt_nominal that divides the interval.
    make_advance(dt) returns advance(state, n), which takes n steps of
    size dt and may keep history between calls; each sample's time is
    re-stamped exactly.  Observers see every sampled state.
    """
    if dt_nominal <= 0:
        raise ConfigurationError(f"time step must be positive, got {dt_nominal}")
    n_samples = sample_count(t_final, sample_interval)
    state = initial
    states = [initial]
    for obs in observers:
        obs(initial)
    if n_samples == 0:
        return Trajectory(times=np.array([initial.time]), states=states)

    sample_interval = t_final / n_samples
    dt, steps_per_sample = _fit_dt(dt_nominal, sample_interval)
    advance = make_advance(dt)
    for s in range(n_samples):
        state = advance(state, steps_per_sample)
        state = replace(state, time=initial.time + (s + 1) * sample_interval)
        states.append(state)
        for obs in observers:
            obs(state)
    return Trajectory(times=np.array([st.time for st in states]), states=states)


def run(initial: KineticState, cfg: SolverConfig, observers=(),
        sample_interval: float | None = None) -> Trajectory:
    """Integrate to t_final with cfg.scheme, sampling every sample_interval.

    Deterministic for a fixed config; see sample_trajectory for the schedule.
    """
    if initial.g.grid.n_x != cfg.n_x or initial.g.basis.n_v != cfg.n_v:
        raise ConfigurationError(
            f"initial state discretization ({initial.g.grid.n_x}, {initial.g.basis.n_v}) "
            f"does not match config ({cfg.n_x}, {cfg.n_v})"
        )

    use_bdf2 = cfg.scheme == "imex_bdf2"

    def make_advance(dt: float):
        stepper = VpfpStepper(cfg, dt)
        prev = expl_prev = None  # BDF2 history, kept across samples
        # explicit-term buffers: buffers[0] takes the next step's terms, and
        # BDF2 alternates it with the one that holds expl_prev
        buffers = [np.empty_like(initial.g.coeffs) for _ in range(1 + use_bdf2)]

        def advance(state: KineticState, n: int) -> KineticState:
            nonlocal prev, expl_prev
            for _ in range(n):
                expl = stepper.explicit_coeffs(state.g, state.macro, out=buffers[0])
                if prev is None:
                    new = stepper.step_euler(state, expl)
                else:
                    new = stepper.step_bdf2(state, prev, expl, expl_prev)
                if use_bdf2:
                    prev, expl_prev = state, expl
                    buffers.reverse()
                state = new
            return state
        return advance

    return sample_trajectory(initial, cfg.t_final, cfg.dt_nominal, sample_interval,
                             make_advance, observers)
