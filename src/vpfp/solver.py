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
factors depend only on (scheme stage, dt), so a run builds them once per
stage: once for Euler, and for BDF2 once for its Euler bootstrap step and
once for the BDF2 steps, dropping the first set before it builds the
second.  The solve gathers the even and the odd levels of its right-hand
side into a parity-major workspace of the factor set, so that each of its
operations reads contiguous rows instead of every other row of the state,
and writes the solution back.

run advances a batch: B runs that share the grid, the basis, the scheme
and the initial state, and differ only in epsilon, in lock-step.  The
scheme is asymptotic-preserving, stable uniformly in epsilon, so every run
steps at dt_max fitted to the sample interval (step_schedule), whatever its
epsilon, and any epsilons form one batch.  A single run is a batch of one.
The batch state is the Hermite-major half-spectrum of spectral/operators
with a member axis, shape (n_v, B, n_x/2 + 1), so each Hermite level is
one contiguous row over the (member, mode) pairs: the factors (one epsilon
per column), the right-hand sides and the solution share that layout, and
a step never transposes or fills conjugate modes; only the solve regroups
the levels by parity, in its workspace.  Every NumPy call of a step thus
works on all members at once.  The streaming wavenumber is 0 at the
Nyquist mode (grid.dx_symbol), whose block is then diagonal and whose row
stays real.  A state stores g alone; the field coupling derives the field
from it.  So each warm step makes three real FFT calls, whatever B: the
inverse transforms of the field and of g and the forward transform of
their product.  KineticState.macro forms the moments where a sample reads
them.

A warm step allocates one state-sized array: the new state's coefficients,
in which its right-hand side is built and solved.  The stepper owns the
rest: the real scratch of the field coupling's inverse transform, the
factor set with its solve workspace, the explicit-term buffers (one for
Euler, two alternating for BDF2) and the BDF2 history, which its advance
keeps between samples.  Sampled states are never written to after they
are made.  At each sample run shows its observer the batch state itself,
in this layout, and keeps none of them: the diagnostics reduce it per
member, so a sample is observed once, whatever B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .operators import (MacroFields, moments, require_spatial_field, require_zero_mean,
                        vpfp_rhs)
from .spectral import (
    ConfigurationError,
    HermiteBasis,
    SpatialGrid,
    SpectralField,
    fourier_field,
    inverse_transform,
)

__all__ = [
    "ConservationError",
    "SolverConfig",
    "KineticState",
    "VpfpStepper",
    "make_initial_data",
    "step_schedule",
    "sample_trajectory",
    "run",
]

SCHEMES = ("imex_euler", "imex_bdf2")
EPSILON_MIN = 2.0**-511  # the least epsilon whose square is a normal double
DBL_MAX = np.finfo(float).max
NEUTRALITY_TOL = 1e-13
# Tolerance on t_final / sample_interval being a whole number.
SAMPLE_RATIO_RTOL = 1e-9


class ConservationError(RuntimeError):
    """A step changed a conserved quantity beyond round-off."""


def coerce_settings(config, floats: tuple, ints: tuple) -> None:
    """Store the settings named in floats as float and those in ints as int
    on the frozen dataclass config, so equal settings give equal configs,
    hashes and config text: 1 is 1.0, and 2.0 is 2.  An int setting that is
    not integral (NaN and the infinities included) is a ConfigurationError
    that names it."""
    for name in floats:
        object.__setattr__(config, name, float(getattr(config, name)))
    for name in ints:
        value = getattr(config, name)
        try:
            integral = int(value) == value
        except (TypeError, ValueError, OverflowError):  # not a number, NaN or infinite
            integral = False
        if not integral:
            raise ConfigurationError(f"{name} must be an integer, got {value}")
        object.__setattr__(config, name, int(value))


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and stepping parameters for one kinetic run.

    The grid is the torus [0, 2 pi) of spectral.SpatialGrid: n_x sets its
    points, and its period is no setting.  The field defaults are the
    built-in config's, which the vpfp command runs without a config file."""

    epsilon: float = 0.1
    t_final: float = 1.0
    n_x: int = 64
    n_v: int = 64
    dt_max: float = 2.5e-3
    scheme: str = "imex_bdf2"

    def __post_init__(self):
        coerce_settings(self, ("epsilon", "t_final", "dt_max"), ("n_x", "n_v"))
        if not EPSILON_MIN <= self.epsilon <= 1.0:
            raise ConfigurationError(f"epsilon must lie in [{EPSILON_MIN:.5g}, 1], where eps^2 "
                                     f"is a normal double; got {self.epsilon}")
        # written so that NaN fails every test
        if not 0.0 < self.dt_max < math.inf:
            raise ConfigurationError(f"dt_max must be positive and finite, got {self.dt_max}")
        if not 0.0 <= self.t_final < math.inf:
            raise ConfigurationError(f"t_final must be finite and non-negative, got {self.t_final}")
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        grid = self.make_grid()  # reject a bad n_x or n_v now, not mid-sweep
        self.make_basis()
        # TridiagonalFactors.build at a step up to dt_max: with n = n_v - 1
        # and beta = dt k_max / eps, no pivot exceeds 1 + dt (n / eps^2) +
        # 2 beta^2 n, evaluated as the build does, so a finite bound builds
        dt, n_top, eps = self.dt_max, self.n_v - 1, self.epsilon
        k_max = float(np.max(np.abs(grid.dx_symbol.imag)))
        beta = dt * k_max / eps
        if not math.isfinite(1.0 + dt * (n_top / eps**2) + 2.0 * (beta * beta * n_top)):
            # sqrt((n_v - 1) max(1, dt + 2 (dt k_max)^2) / DBL_MAX), by hypot,
            # which neither overflows nor raises on the square
            limit = math.sqrt(n_top / DBL_MAX) * max(
                1.0, math.hypot(math.sqrt(dt), math.sqrt(2.0) * dt * k_max))
            need = (f"so epsilon must exceed about {limit:.4g}" if limit < 1.0 else
                    "and no epsilon <= 1 keeps it finite at this dt_max")
            raise ConfigurationError(
                f"epsilon = {eps:g} overflows the implicit factors: their largest pivot, "
                f"1 + dt (n_v - 1) / eps^2 + 2 (dt k_max / eps)^2 (n_v - 1) at dt_max = {dt:g}, "
                f"n_v = {self.n_v} and k_max = {k_max:g}, must be finite, {need}")

    def make_grid(self) -> SpatialGrid:
        return SpatialGrid(n_x=self.n_x)

    def make_basis(self) -> HermiteBasis:
        return HermiteBasis(n_v=self.n_v)


@dataclass(frozen=True)
class KineticState:
    """Solution sample: the time and the perturbation g, the only unknown.

    A batch state holds a batch g (see SpectralField); repeated makes one.
    """

    time: float
    g: SpectralField

    @cached_property
    def macro(self) -> MacroFields:
        """moments(g), formed on the first read and kept.  It calls this
        module's moments, which the benchmark tracer wraps."""
        return moments(self.g)

    def repeated(self, size: int) -> "KineticState":
        """The batch state of size members equal to this state: a read-only
        view of its coefficients, copied contiguously by SpectralField if
        size > 1."""
        g = self.g
        n_v, n_half = g.coeffs.shape
        return KineticState(self.time, g.with_coeffs(
            np.broadcast_to(g.coeffs[:, None], (n_v, size, n_half))))


def make_initial_data(grid: SpatialGrid, basis: HermiteBasis, density,
                      micro_perturbation: SpectralField | None = None) -> KineticState:
    """Well-prepared initial state g = density(x) sqrt(M).

    density is the shifted density on the grid nodes, an array of shape
    (n_x,) with zero spatial mean; an optional microscopic component must
    be one field on the same n_x and n_v, finite, and already lie in the
    range of (I - P).  The reconstructed distribution must be positive at
    every collocation node, which the test reads off f / sqrt(M) =
    psi_0 + G (see spectral).
    """
    require_spatial_field(grid, density, "density profile")
    a = np.asarray(density, float)
    a = a - require_zero_mean(a, "density profile")  # remove rounding-level residual

    coeffs = np.zeros((basis.n_v, grid.n_half), dtype=complex)
    coeffs[0] = fourier_field(a)
    coeffs[0, 0] = 0.0  # neutrality: exact zero mean
    if micro_perturbation is not None:
        mc = micro_perturbation.coeffs
        if mc.shape != coeffs.shape:  # another n_x or n_v, or a batch
            raise ConfigurationError(
                f"micro perturbation discretization (n_x, n_v) = "
                f"({micro_perturbation.grid.n_x}, {micro_perturbation.basis.n_v}) with shape "
                f"{mc.shape} does not match the state's (n_x, n_v) = ({grid.n_x}, {basis.n_v}), "
                f"one field of shape {coeffs.shape}")
        macro_part = float(np.max(np.abs(mc[:2])))
        if not macro_part <= 1e-12:  # this test and the positivity test fail on NaN
            raise ValueError(
                f"micro perturbation must be (I-P)-projected; macro content {macro_part:.3e}"
            )
        # an infinite coefficient would reach the inverse transform, which
        # warns on inf - inf before the positivity test could name it
        if np.any(np.isinf(mc)):
            raise ValueError("micro perturbation must be finite; it has an infinite coefficient")
        coeffs = coeffs + mc

    g = SpectralField(grid, basis, coeffs)
    f_over_sqrt_m = inverse_transform(g)
    f_over_sqrt_m += basis.synthesis[:, 0]
    f_min = float(np.min(f_over_sqrt_m))
    if not f_min > 0.0:
        raise ValueError(f"reconstructed distribution is not positive; min f/sqrt(M) = {f_min:.3e}")

    return KineticState(time=0.0, g=g)


@dataclass(frozen=True)
class TridiagonalFactors:
    """Even-level factors of per-column implicit blocks.

    A column is one (member, mode) pair: build takes the streaming
    wavenumber k and epsilon of each column.  Arrays have the Hermite
    level first, so each sweep step reads one contiguous row across all
    columns.  The real sweep factors hold every column twice, to act on
    the float64 view (re, im, ...) of a complex row.  workspace is the
    set's own scratch, into which solve gathers the rows by parity.
    """

    odd_inv_diag: np.ndarray  # 1 / d_n on the odd levels, shape (n_v // 2, columns)
    lower: np.ndarray         # A[2l+1, 2l] / d_{2l+1}, complex
    upper: np.ndarray         # A[2l+1, 2l+2] / d_{2l+1}, complex; one row fewer when n_v is even
    multiplier: np.ndarray    # S[j, j-1] / p_{j-1}, real; row 0 is zero
    inv_pivot: np.ndarray     # 1 / p_j, real
    workspace: np.ndarray     # complex (n_v, columns), solve's parity-major rows

    @classmethod
    def build(cls, k: np.ndarray, n_v: int, epsilon, dt: float) -> "TridiagonalFactors":
        """Factors of I + dt (i k / eps) V + dt diag(n) / eps^2 for each
        column: k has one entry per column, and epsilon one entry per
        column or one for all."""
        n = np.arange(n_v)
        eps = np.asarray(epsilon, dtype=float)
        diag = 1.0 + dt * (n[:, None] / eps**2)
        beta = dt * k / eps
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
                   np.repeat(1.0 / even_pivot, 2, axis=1), np.empty((n_v, k.size), complex))

    def solve(self, x: np.ndarray) -> np.ndarray:
        """Solve every block in place for the C-contiguous complex x and
        return x.  x has shape (n_v, columns), or (n_v, B, n_x/2 + 1) for a
        batch, whose (member, mode) pairs are the columns.  The even and
        odd rows of x are gathered into the workspace, parity-major, so
        every operation below runs on contiguous rows, and the solution is
        written back.  Reciprocal pivots make a diagonal block (k = 0) give
        exactly x * (1 / d_n); the row views are listed once, as indexing
        in the loops costs as much."""
        rows_of = x.reshape(x.shape[0], -1)  # a view, as x is C-contiguous
        n_even = self.inv_pivot.shape[0]
        even, odd = self.workspace[:n_even], self.workspace[n_even:]
        even[...] = rows_of[0::2]
        odd[...] = rows_of[1::2]
        n_up = self.upper.shape[0]
        even[:odd.shape[0]] -= self.lower * odd  # x_e's right-hand side
        even[1:] -= self.upper * odd[:n_up]
        xe = even.view(np.float64)
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
        rows_of[0::2] = even
        rows_of[1::2] = odd
        return x


class VpfpStepper:
    """IMEX Euler and BDF2 steps of a batch for a fixed config and step dt.

    The batch has one member per entry of epsilons (default cfg.epsilon
    alone); every other setting comes from cfg.  Steps take and return
    batch states (KineticState.repeated).  Holds one set of even-level
    factors, that of its current effective implicit step (dt for Euler,
    2 dt / 3 for BDF2); each set costs O(B n_x n_v) to build and to store.
    A BDF2 run builds two, dropping its Euler bootstrap set before it
    builds the BDF2 set, and an Euler run one.  A step solves its freshly
    built right-hand side in place, and its new state keeps the grid and
    basis of the state it steps from.  The stepper owns one real scratch of
    shape (n_v - 1, B, n_x), which every field-coupling evaluation reuses.
    advance runs cfg.scheme with the stepper's explicit-term buffers and
    BDF2 history, and raises one FloatingPointError on a blow-up.
    """

    def __init__(self, cfg: SolverConfig, dt: float, epsilons=None):
        self.cfg = cfg
        self.dt = float(dt)
        self.epsilons = (cfg.epsilon,) if epsilons is None else tuple(map(float, epsilons))
        self.grid = cfg.make_grid()
        n_batch, n_half = len(self.epsilons), self.grid.n_half
        self._factors: tuple[float, TridiagonalFactors] | None = None  # (dt_eff, set)
        self._scratch = np.empty((cfg.n_v - 1, n_batch, self.grid.n_x))
        self._bdf2 = cfg.scheme == "imex_bdf2"
        # explicit-term buffers: _buffers[0] takes the next step's terms, and
        # BDF2 alternates it with the one that holds _expl_prev
        self._buffers = [np.empty((cfg.n_v, n_batch, n_half), dtype=complex)
                         for _ in range(1 + self._bdf2)]
        self._prev = self._expl_prev = None  # BDF2 history, kept across advance calls

    # -- implicit blocks ----------------------------------------------------
    def factors(self, dt_eff: float) -> TridiagonalFactors:
        """Factors of I + dt_eff * S_m for every member and m = 0..n_x/2;
        the columns run over (member, mode) pairs.  The set is kept until
        another dt_eff asks for factors, which drops it before building its
        own.

        The streaming wavenumber is that of grid.dx_symbol: 0 at the mean
        and the Nyquist mode, whose blocks are diagonal.
        """
        if self._factors is None or self._factors[0] != dt_eff:
            self._factors = None  # free the old set before the new one is built
            k = self.grid.dx_symbol.imag
            f = TridiagonalFactors.build(np.tile(k, len(self.epsilons)), self.cfg.n_v,
                                         np.repeat(self.epsilons, k.size), dt_eff)
            self._factors = (dt_eff, f)
        return self._factors[1]

    # -- stepping -----------------------------------------------------------
    @staticmethod
    def _finish(state: KineticState, coeffs: np.ndarray, dt: float) -> KineticState:
        """The state dt after state with coefficients coeffs, on state's grid
        and basis, once its values are finite and its mass is state's."""
        time = state.time + dt
        if not np.all(np.isfinite(coeffs)):
            raise FloatingPointError(f"non-finite state detected at t = {time:.6g}")
        mass_before = state.g.coeffs[0, ..., 0]
        drift = np.abs(coeffs[0, ..., 0] - mass_before)  # one per member
        if np.any(drift > NEUTRALITY_TOL * (1.0 + np.abs(mass_before))):
            raise ConservationError(
                f"Hermite-0 spatial mean changed by {np.max(drift):.3e} during a step"
            )
        return KineticState(time=time, g=state.g.with_coeffs(coeffs))

    def step_euler(self, state: KineticState, expl: np.ndarray) -> KineticState:
        """One IMEX Euler step; expl holds vpfp_rhs of state.g."""
        dt = self.dt
        rhs = dt * expl
        rhs += state.g.coeffs
        return self._finish(state, self.factors(dt).solve(rhs), dt)

    def step_bdf2(self, state: KineticState, prev: KineticState,
                  expl: np.ndarray, expl_prev: np.ndarray) -> KineticState:
        """One IMEX BDF2 step.  expl_prev, dead after this step, is
        overwritten: it holds the explicit part of the right-hand side."""
        dt = self.dt
        # (4 g - g_prev + 2 dt (2 e - e_prev)) / 3.  Scaling by -1/2 and 4 dt
        # instead of 2 and 2 dt gives the same bits, as powers of 2 are exact.
        rhs = 4.0 * state.g.coeffs
        rhs -= prev.g.coeffs
        expl_prev *= -0.5
        expl_prev += expl
        expl_prev *= 4.0 * dt
        rhs += expl_prev
        rhs /= 3.0
        return self._finish(state, self.factors(2.0 * dt / 3.0).solve(rhs), dt)

    def advance(self, state: KineticState, n: int) -> KineticState:
        """Take n steps of cfg.scheme from state, the (re-stamped) state the
        last call returned, and return the last one.  The first step is
        Euler; BDF2 keeps its history across calls.  Each step's explicit
        terms are this module's vpfp_rhs, which the benchmark tracer wraps,
        in the stepper's buffers.  A blow-up overflows before it is
        non-finite, so NumPy's warnings are off here and _finish reports
        it."""
        buffers = self._buffers
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for _ in range(n):
                expl = vpfp_rhs(state.g, self.epsilons, out=buffers[0], scratch=self._scratch)
                if self._prev is None:
                    new = self.step_euler(state, expl)
                else:
                    new = self.step_bdf2(state, self._prev, expl, self._expl_prev)
                if self._bdf2:
                    self._prev, self._expl_prev = state, expl
                    buffers.reverse()
                state = new
        return state


def step_schedule(t_final: float, sample_interval: float,
                  dt_max: float) -> tuple[int, float, int]:
    """(samples, dt, steps per sample) of a run to t_final, kinetic or fluid.

    dt_max and sample_interval must be positive and finite, whatever
    t_final.  Samples land on exact multiples of sample_interval, which
    must be at most t_final and divide it into a whole number of
    intervals (to SAMPLE_RATIO_RTOL relative); dt is the largest step
    <= dt_max (to 1e-12 relative) that divides one interval, so a refit
    to dt, or to dt / 10, takes the same steps per sample, or ten times
    as many.  t_final = 0 gives (0, 0.0, 0).  Anything else, NaN, a step
    count that overflows and a dt with t_final + dt == t_final included,
    raises ConfigurationError instead of being silently rounded.
    """
    if not 0 < dt_max < math.inf:
        raise ConfigurationError(f"time step must be positive and finite, got {dt_max}")
    if not 0 < sample_interval < math.inf:
        raise ConfigurationError(
            f"sample_interval must be positive and finite, got {sample_interval}")
    if t_final == 0.0:
        return 0, 0.0, 0
    ratio = t_final / sample_interval
    if not math.isfinite(ratio):
        raise ConfigurationError(
            f"t_final = {t_final:g} and sample_interval = {sample_interval:g} give no "
            f"finite number of samples"
        )
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
    interval = t_final / n_samples
    steps = interval / dt_max
    if not math.isfinite(steps):
        raise ConfigurationError(
            f"time step {dt_max:g} is too small for the sample interval {interval:g}"
        )
    steps_per_sample = max(1, math.ceil(steps * (1.0 - 1e-12)))
    dt = interval / steps_per_sample
    if t_final + dt == t_final:
        raise ConfigurationError(f"time step {dt:g} is below the resolution of t_final = "
                                 f"{t_final:g}: t_final + dt rounds to t_final")
    return n_samples, dt, steps_per_sample


def sample_trajectory(initial, t_final: float, schedule: tuple[int, float, int],
                      advance, observer) -> None:
    """The sampling loop of the kinetic and the fluid run.  schedule is the
    caller's step_schedule, and advance(state, n) takes n steps of its dt,
    keeping history between calls if it needs to.  Each sample's time is
    re-stamped exactly.  The observer sees every sampled state, the
    initial one first, and keeps what it chooses; each state carries its
    time.
    """
    n_samples, _, steps_per_sample = schedule
    state = initial
    observer(initial)
    for s in range(n_samples):
        state = advance(state, steps_per_sample)
        state = replace(state, time=initial.time + (s + 1) * (t_final / n_samples))
        observer(state)


def run(initial: KineticState, cfg: SolverConfig, observer=lambda state: None, *,
        sample_interval: float, epsilons=None) -> None:
    """Integrate to t_final with cfg.scheme, sampling every sample_interval.

    Advances one member per entry of epsilons (default (cfg.epsilon,); the
    other settings come from cfg) from the same initial state in lock-step,
    as one batch (VpfpStepper.advance).  At each sample the observer gets
    the batch state, one member per epsilon, initial.repeated(B) first.
    Nothing is kept or returned: what the observer needs of a sample,
    its time included, it takes when it sees it.  initial must lie on
    cfg's n_x and n_v, and every sampled state shares its grid and basis.
    A batch needs at least one epsilon.  Every member steps at
    step_schedule's fit of cfg.dt_max.  Deterministic for a fixed config.
    """
    n_x, n_v = initial.g.grid.n_x, initial.g.basis.n_v
    if (n_x, n_v) != (cfg.n_x, cfg.n_v):
        raise ConfigurationError(
            f"initial state discretization (n_x = {n_x}, n_v = {n_v}) does not match "
            f"config (n_x = {cfg.n_x}, n_v = {cfg.n_v})"
        )
    batch = (cfg.epsilon,) if epsilons is None else tuple(epsilons)
    if not batch:
        raise ConfigurationError("a batch needs at least one epsilon, got none")
    for eps in batch:
        replace(cfg, epsilon=eps)  # each member must be a valid config
    schedule = step_schedule(cfg.t_final, sample_interval, cfg.dt_max)
    sample_trajectory(initial.repeated(len(batch)), cfg.t_final, schedule,
                      VpfpStepper(cfg, schedule[1], batch).advance, observer)
