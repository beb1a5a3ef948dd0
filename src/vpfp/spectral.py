"""Fourier x Hermite spectral substrate.

Space is the one-dimensional torus [0, 2 pi) (Fourier collocation), whose
wavenumbers k_m = m are the integers, and velocity is expanded in
Hermite functions psi_n(v) = He_n(v) sqrt(M(v)) with He_n the probabilists'
Hermite polynomials normalized so that int He_j He_k M dv = delta_jk and
M(v) = (2 pi)^(-1/2) exp(-v^2/2) the unit Gaussian.  In this basis velocity
multiplication, differentiation and the (v/2 - d/dv) raising operator are
three-term recurrences, and the Fokker-Planck collision operator is the
diagonal multiplier n.  Velocity integrals are read off the coefficients,
so the module holds no quadrature weights: point values (inverse_transform)
are only evaluated, on the x nodes times the Gauss-Hermite velocity nodes.
Their readers never form f = M + g sqrt(M), whose M underflows to 0 at the
outer nodes from n_v = 195 on: they use f / sqrt(M) = psi_0 + G, with G the
point values of g and psi_0 a normal double up to MAX_N_V.

Every field is real, so its Fourier coefficients are stored as a real-FFT
half-spectrum: the modes m = 0..n_x/2 in rfft order, normalized so that
c_m = (1/n_x) sum_j f(x_j) exp(-i k_m x_j) (numpy's norm="forward").  The
modes above n_x/2 are the conjugates of modes n_x/2-1..1 and are never
formed; rows m = 0 and m = n_x/2 of a real field are real.  Coefficient
tensors are Hermite-major, shape (n_v, n_x/2 + 1) and C-contiguous, so
each Hermite level is one contiguous row of Fourier modes, the Hermite
recurrences act on whole rows and every FFT runs along the last axis.
fourier_field and real_field are the one pair of transforms between point
values and this layout; every transform of the package goes through them.
Odd-order x-derivatives use the wavenumber 0 at the Nyquist mode, where a
real field has no representable sine; that keeps its row real.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import numpy.fft  # noqa: F401 - NumPy imports it lazily; here, not in a run's first transform

__all__ = [
    "ConfigurationError",
    "SpatialGrid",
    "HermiteBasis",
    "SpectralField",
    "fourier_field",
    "real_field",
    "inverse_transform",
    "hermite_shift_coeffs",
    "sobolev_weights",
    "parseval_sq",
]

# The period of the torus, so that the wavenumbers are the integers
PERIOD = 2.0 * np.pi
# Largest n_v at whose 2 n_v velocity nodes psi_0 is a normal double; from
# n_v = 365 on it is subnormal at the outermost node, where the psi table
# then loses digits.
MAX_N_V = 364
# quad_nodes: bisection halves (0, pi) down to about one ulp of pi, and the
# Halley steps take the farthest guess, about 1e-2 off the outermost root,
# to the root (1e-2 -> 1e-4 -> 1e-10 -> round-off)
BISECTION_STEPS = 52
HALLEY_STEPS = 3


class ConfigurationError(ValueError):
    """Invalid grid/basis/solver configuration or mismatched shapes."""


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic grid on the one-dimensional torus [0, 2 pi), whose
    wavenumbers are the integers: k_m = m.

    Its spectral symbols live on the half-spectrum m = 0..n_x/2, the last
    axis of every coefficient array.
    """

    n_x: int

    def __post_init__(self):
        if self.n_x < 4 or self.n_x % 2 != 0:
            raise ConfigurationError(f"n_x must be even and >= 4, got {self.n_x}")

    @cached_property
    def nodes(self) -> np.ndarray:
        """Collocation nodes, endpoint-exclusive."""
        return np.arange(self.n_x) * (PERIOD / self.n_x)

    @property
    def n_half(self) -> int:
        """Number of modes m = 0..n_x/2, which determine a real field."""
        return self.n_x // 2 + 1

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Fourier wavenumbers k_m = m of the modes m = 0..n_x/2, exact."""
        return np.arange(self.n_half, dtype=float)

    @cached_property
    def dx_symbol(self) -> np.ndarray:
        """Symbol i k_m of d/dx, with wavenumber 0 at the Nyquist mode m = n_x/2.

        The sine at the Nyquist wavenumber vanishes on every node, so the
        derivative of a real field has no representable Nyquist content;
        every odd-order x-derivative (streaming, the field i k phi) uses
        this symbol.
        """
        ik = 1j * self.wavenumbers
        ik[-1] = 0.0
        return ik

    @cached_property
    def dealiased_dx_symbol(self) -> np.ndarray:
        """dx_symbol with the modes from n_dealiased on zeroed (the 2/3 rule)."""
        ik = self.dx_symbol.copy()
        ik[self.n_dealiased:] = 0.0
        return ik

    @cached_property
    def k_sq(self) -> np.ndarray:
        """k^2 on the modes m = 0..n_x/2 (the symbol of -Laplace)."""
        return self.wavenumbers**2

    @cached_property
    def inverse_laplacian(self) -> np.ndarray:
        """Symbol of (-Laplace)^-1 on zero-mean fields: 1 / k^2, 0 on the mean."""
        with np.errstate(divide="ignore"):
            return np.where(self.k_sq > 0, 1.0 / self.k_sq, 0.0)

    @property
    def n_dealiased(self) -> int:
        """Number of modes m = 0..n_x//3 that the 2/3 rule keeps."""
        return self.n_x // 3 + 1

    @cached_property
    def mode_weights(self) -> np.ndarray:
        """Parseval weights of the half-spectrum: 2 for m = 1..n_x/2-1, which
        also stand for their conjugates, and 1 for m = 0 and m = n_x/2."""
        w = np.full(self.n_half, 2.0)
        w[[0, -1]] = 1.0
        return w

    @property
    def cell_volume(self) -> float:
        return PERIOD / self.n_x


def _hermite_rows(v: np.ndarray, n_levels: int):
    """psi_0(v), ..., psi_{n_levels - 1}(v), one array each, by the
    numerically stable Hermite-function recurrence
    psi_{n+1} = (v psi_n - sqrt(n) psi_{n-1}) / sqrt(n+1).  Its scalar
    coefficients come from math.sqrt, the same correctly rounded doubles
    as np.sqrt at a fraction of the call cost."""
    prev, cur = 0.0, (2.0 * np.pi) ** (-0.25) * np.exp(-0.25 * v**2)
    for n in range(n_levels):
        yield cur
        nxt = v * cur  # a new array: the rows already yielded stay as they are
        nxt -= math.sqrt(n) * prev
        nxt /= math.sqrt(n + 1)
        prev, cur = cur, nxt


@dataclass(frozen=True)
class HermiteBasis:
    """Truncated Hermite-function basis and the velocity nodes of a state.

    A state's point values (inverse_transform) live on the 2 n_v nodes of
    the Gauss-Hermite rule of that order, the roots of He_{2 n_v}: the
    pointwise limit error and the initial positivity check take their
    extrema over them, with sqrt(M) = psi_0 = synthesis[:, 0].  n_v is
    capped at MAX_N_V, where psi_0 at the outermost node is a normal double.
    """

    n_v: int

    def __post_init__(self):
        if not 4 <= self.n_v <= MAX_N_V:
            raise ConfigurationError(
                f"n_v must lie in [4, {MAX_N_V}] (above {MAX_N_V}, psi_0 at the outermost "
                f"velocity node underflows), got {self.n_v}"
            )

    @cached_property
    def quad_nodes(self) -> np.ndarray:
        """The roots of He_N, N = 2 n_v, ascending, found without a matrix.

        Tricomi's asymptotics (as used by Townsend, Trogdon and Olver, IMA
        J. Numer. Anal. 2016) place root k = 1..N at sqrt(4N + 2) cos phi_k,
        where phi_k - sin phi_k cos phi_k = pi (4N - 4k + 3) / (4N + 2); the
        left side increases on (0, pi), so bisection finds each phi_k.
        HALLEY_STEPS Halley steps, one pass of the psi recurrence each, then
        polish the guesses to the roots of that recurrence.  The rule's
        weights are never formed.
        """
        n_quad = 2 * self.n_v
        target = np.pi * (4 * n_quad + 3 - 4 * np.arange(1, n_quad + 1)) / (4 * n_quad + 2)
        lo, hi = np.zeros(n_quad), np.full(n_quad, np.pi)
        for _ in range(BISECTION_STEPS):
            mid = 0.5 * (lo + hi)
            right = mid - 0.5 * np.sin(2.0 * mid) < target  # phi_k lies above mid
            lo = np.where(right, mid, lo)
            hi = np.where(right, hi, mid)
        v = math.sqrt(4 * n_quad + 2) * np.cos(0.5 * (lo + hi))
        for _ in range(HALLEY_STEPS):
            # the Newton step d = He_N / He_N' = psi_N / (sqrt(N) psi_{N-1})
            # cannot overflow; Hermite's equation He'' = v He' - N He gives
            # He_N'' / He_N' = v - N d, Halley's curvature term
            below, top = deque(_hermite_rows(v, n_quad + 1), maxlen=2)
            d = top / (math.sqrt(n_quad) * below)
            v = v - d / (1.0 - 0.5 * d * (v - n_quad * d))
        return v

    def functions(self, n_levels: int | None = None, v: np.ndarray | None = None) -> np.ndarray:
        """Table psi_n(v_q), shape (len(v), n_levels), by _hermite_rows."""
        if n_levels is None:
            n_levels = self.n_v
        if v is None:
            v = self.quad_nodes
        v = np.asarray(v, dtype=float)
        table = np.empty((v.size, n_levels))
        for n, row in enumerate(_hermite_rows(v, n_levels)):
            table[:, n] = row
        return table

    @cached_property
    def synthesis(self) -> np.ndarray:
        """psi_n(v_q), shape (2 n_v, n_v)."""
        return self.functions()


@dataclass
class SpectralField:
    """Fourier x Hermite coefficient tensor of a real field, such as the
    kinetic perturbation g.

    coeffs has shape (basis.n_v, grid.n_x // 2 + 1): Hermite level first,
    then the Fourier modes m = 0..n_x/2 in rfft order; it is made
    C-contiguous.  The modes above n_x/2 are implied by conjugation, so a
    field cannot lose Hermitian symmetry; its rows m = 0 and m = n_x/2 are
    real.  Treat instances as immutable.

    A batch of B fields on one grid and basis, as the solver advances runs
    in lock-step, has shape (n_v, B, n_x // 2 + 1), so each Hermite level
    is one contiguous row over the (member, mode) pairs.  The stepper,
    moments, vpfp_rhs, the diagnostics and inverse_transform take a batch.
    """

    grid: SpatialGrid
    basis: HermiteBasis
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        shape = self.coeffs.shape
        if len(shape) not in (2, 3) or (shape[0], shape[-1]) != (self.basis.n_v, self.grid.n_half):
            raise ConfigurationError(
                f"coefficient shape {shape} does not match "
                f"{(self.basis.n_v, self.grid.n_half)} or {(self.basis.n_v, 'B', self.grid.n_half)}"
            )
        self.coeffs = np.ascontiguousarray(self.coeffs)

    def with_coeffs(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(self.grid, self.basis, coeffs)


def fourier_field(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Real spatial field(s) along the last axis -> normalized half-spectrum,
    written into out when given."""
    return np.fft.rfft(np.asarray(values, dtype=float), norm="forward", out=out)


def real_field(grid: SpatialGrid, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Normalized half-spectrum (last axis) -> real spatial field(s), written
    into out when given."""
    return np.fft.irfft(coeffs, n=grid.n_x, norm="forward", out=out)


def inverse_transform(f: SpectralField) -> np.ndarray:
    """Coefficients -> real point values on the x nodes x velocity nodes,
    shape (n_x, 2 n_v), or (B, n_x, 2 n_v) for a batch."""
    return np.moveaxis(real_field(f.grid, f.coeffs), 0, -1) @ f.basis.synthesis.T


def hermite_shift_coeffs(coeffs: np.ndarray, first: int = 0,
                         scratch: np.ndarray | None = None,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Apply d/dv along axis 0, the Hermite axis:
    psi_n -> (sqrt(n)/2) psi_{n-1} - (sqrt(n+1)/2) psi_{n+1}.

    coeffs holds the levels first, first + 1, ...; the levels below first
    are zero, so a view that drops them stands for a field such as
    (I - P) g without a copy.  The output holds every level from 0 to one
    above the top input level, which holds the spill from the top, so the
    shift is exact; norms rely on this, and the first n_v levels are the
    shift truncated at n_v.  Each term scales whole rows, so the work runs
    along the contiguous Fourier axis: the first into the leading levels
    of out, the second into scratch, neither overlapping coeffs; each is a
    new array when not given.
    """
    n_in = coeffs.shape[0]
    top = first + n_in
    out = np.empty((top + 1,) + coeffs.shape[1:], coeffs.dtype) if out is None else out[:top + 1]
    term = np.empty_like(coeffs) if scratch is None else scratch[:n_in]
    root = np.sqrt(np.arange(first, top + 1)).reshape((-1,) + (1,) * (coeffs.ndim - 1))
    # input level n sends sqrt(n)/2 c_n down to level n - 1 and
    # -sqrt(n + 1)/2 c_n up to level n + 1; level 0 sends nothing down, and
    # the levels below first - 1 and the top two receive no down term
    up, down = 0.5 * root[1:], 0.5 * root[:-1]
    lo = 1 if first == 0 else 0
    out[:first + lo - 1] = 0.0
    out[top - 1:] = 0.0
    np.multiply(down[lo:], coeffs[lo:], out=out[first + lo - 1:top - 1])
    np.multiply(up, coeffs, out=term)
    out[first + 1:] -= term
    return out


@lru_cache(maxsize=64)
def sobolev_weights(n_x: int, order: int) -> np.ndarray:
    """Per-mode multiplier w_m sum_{alpha <= order} k_m^(2 alpha) on
    SpatialGrid(n_x), with w_m the half-spectrum mode_weights; cached per
    (n_x, order), plain numbers, read-only.

    Raises ConfigurationError, naming the largest order the grid allows,
    when a weight is not finite.
    """
    grid = SpatialGrid(n_x)
    k_sq = grid.k_sq
    w = np.ones_like(k_sq)
    term = np.ones_like(k_sq)
    with np.errstate(over="ignore"):
        for alpha in range(order):
            term = term * k_sq
            w = w + term
            if not np.isfinite(w * grid.mode_weights).all():
                raise ConfigurationError(
                    f"Sobolev order k = {order} overflows the weights sum_(alpha <= k) "
                    f"k_m^(2 alpha) on this grid (largest k_m^2 = {k_sq[-1]:.6g}); "
                    f"k must be at most {alpha}"
                )
    w = w * grid.mode_weights
    w.flags.writeable = False
    return w


def parseval_sq(grid: SpatialGrid, sq: np.ndarray, order: int = 0):
    """Squared H^order_x norm by Parseval from per-mode squared moduli sq
    (last axis m = 0..n_x/2): 2 pi sum_m w_m sq_m, w = sobolev_weights.

    A 1-D sq gives a float; a leading axis (one row per Hermite level, say)
    gives one norm per row.
    """
    return PERIOD * (sq @ sobolev_weights(grid.n_x, order))
