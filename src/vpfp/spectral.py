"""Fourier x Hermite spectral substrate.

Space is the one-dimensional periodic torus (Fourier collocation), velocity
is expanded in
Hermite functions psi_n(v) = He_n(v) sqrt(M(v)) with He_n the probabilists'
Hermite polynomials normalized so that int He_j He_k M dv = delta_jk and
M(v) = (2 pi)^(-1/2) exp(-v^2/2) the unit Gaussian.  In this basis velocity
multiplication, differentiation and the (v/2 - d/dv) raising operator are
three-term recurrences, and the Fokker-Planck collision operator is the
diagonal multiplier n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "ConfigurationError",
    "SpatialGrid",
    "HermiteBasis",
    "SpectralField",
    "forward_transform",
    "inverse_transform",
    "spatial_derivative",
    "full_spectrum",
    "hermite_shift_apply",
    "hermite_shift_coeffs",
    "quadrature_oracle_moment",
    "l2_norm",
]

SHIFT_KINDS = ("multiply_by_v", "d_dv", "raising")
# Largest n_v whose hermegauss(2 n_v) quadrature is finite: above it the
# weights overflow to NaN (a stable Golub-Welsch rule would lift the cap).
MAX_N_V = 185


class ConfigurationError(ValueError):
    """Invalid grid/basis/solver configuration or mismatched shapes."""


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic grid on the one-dimensional torus [0, length).

    The spatial (Fourier) axis comes first in every array.
    """

    n_x: int
    length: float = 2.0 * np.pi

    def __post_init__(self):
        if self.n_x < 4 or self.n_x % 2 != 0:
            raise ConfigurationError(f"n_x must be even and >= 4, got {self.n_x}")
        if self.length <= 0:
            raise ConfigurationError(f"period must be positive, got {self.length}")

    @cached_property
    def nodes(self) -> np.ndarray:
        """Collocation nodes, endpoint-exclusive."""
        return np.arange(self.n_x) * (self.length / self.n_x)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Fourier wavenumbers k_m = 2 pi m / L in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_x, d=self.length / self.n_x)

    @property
    def n_half(self) -> int:
        """Number of modes m = 0..n_x/2, which determine a real field."""
        return self.n_x // 2 + 1

    @cached_property
    def k_sq(self) -> np.ndarray:
        """k^2 on the spatial Fourier grid (the symbol of -Laplace)."""
        return self.wavenumbers**2

    @cached_property
    def inverse_laplacian(self) -> np.ndarray:
        """Symbol of (-Laplace)^-1 on zero-mean fields: 1 / k^2, 0 on the mean."""
        with np.errstate(divide="ignore"):
            return np.where(self.k_sq > 0, 1.0 / self.k_sq, 0.0)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: keeps the modes with |m| <= n_x // 3."""
        m = np.abs(np.fft.fftfreq(self.n_x, d=1.0 / self.n_x))
        return m <= self.n_x // 3

    @property
    def cell_volume(self) -> float:
        return self.length / self.n_x

    @property
    def volume(self) -> float:
        return self.length


@dataclass(frozen=True)
class HermiteBasis:
    """Truncated Hermite-function basis with its Gauss-Hermite quadrature.

    The quadrature rule has order 2*n_v so that products of any two retained
    basis elements are integrated exactly; it backs the independent moment
    oracles used in the tests.  n_v is capped at MAX_N_V, where that rule
    is still finite.
    """

    n_v: int

    def __post_init__(self):
        if not 4 <= self.n_v <= MAX_N_V:
            raise ConfigurationError(
                f"n_v must lie in [4, {MAX_N_V}] (the Gauss-Hermite quadrature is not "
                f"finite above {MAX_N_V}), got {self.n_v}"
            )

    @property
    def n_quad(self) -> int:
        return 2 * self.n_v

    @cached_property
    def quad_nodes(self) -> np.ndarray:
        nodes, _ = np.polynomial.hermite_e.hermegauss(self.n_quad)
        return nodes

    @cached_property
    def quad_weights(self) -> np.ndarray:
        """Plain-measure quadrature weights.

        sum_q w_q f(v_q) equals int f(v) dv exactly whenever f = p * M with
        p a polynomial of degree < 2*n_quad.
        """
        nodes, weights = np.polynomial.hermite_e.hermegauss(self.n_quad)
        # hermegauss weights integrate against exp(-v^2/2); divide out the
        # Gaussian to get plain dv weights for Maxwellian-weighted integrands.
        m = np.exp(-0.5 * nodes**2) / np.sqrt(2.0 * np.pi)
        return weights / np.sqrt(2.0 * np.pi) / m

    def functions(self, n_levels: int | None = None, v: np.ndarray | None = None) -> np.ndarray:
        """Table psi_n(v_q), shape (len(v), n_levels).

        Uses the numerically stable Hermite-function recurrence
        psi_{n+1} = (v psi_n - sqrt(n) psi_{n-1}) / sqrt(n+1).
        """
        if n_levels is None:
            n_levels = self.n_v
        if v is None:
            v = self.quad_nodes
        v = np.asarray(v, dtype=float)
        table = np.empty((v.size, n_levels))
        table[:, 0] = (2.0 * np.pi) ** (-0.25) * np.exp(-0.25 * v**2)
        if n_levels > 1:
            table[:, 1] = v * table[:, 0]
        for n in range(1, n_levels - 1):
            table[:, n + 1] = (v * table[:, n] - np.sqrt(n) * table[:, n - 1]) / np.sqrt(n + 1)
        return table

    @cached_property
    def synthesis(self) -> np.ndarray:
        """psi_n(v_q), shape (n_quad, n_v)."""
        return self.functions()

    @cached_property
    def analysis(self) -> np.ndarray:
        """Quadrature projection onto psi_n, shape (n_v, n_quad)."""
        return (self.synthesis * self.quad_weights[:, None]).T

    def maxwellian_sqrt(self) -> np.ndarray:
        """sqrt(M) at the quadrature nodes (equals psi_0)."""
        return self.synthesis[:, 0]


@dataclass
class SpectralField:
    """Fourier x Hermite coefficient tensor.

    coeffs has shape (grid.n_x, basis.n_v), the Fourier axis in FFT order.
    Fields representing real data keep Hermitian symmetry in the Fourier
    index; treat instances as immutable.
    """

    grid: SpatialGrid
    basis: HermiteBasis
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        expected = (self.grid.n_x, self.basis.n_v)
        if self.coeffs.shape != expected:
            raise ConfigurationError(
                f"coefficient shape {self.coeffs.shape} does not match {expected}"
            )

    @classmethod
    def zeros(cls, grid: SpatialGrid, basis: HermiteBasis) -> "SpectralField":
        return cls(grid, basis, np.zeros((grid.n_x, basis.n_v), dtype=complex))

    def with_coeffs(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(self.grid, self.basis, coeffs)

    def hermitian_symmetry_error(self) -> float:
        """Max deviation of c(-m) from conj(c(m))."""
        c = self.coeffs
        flipped = np.roll(np.flip(c, axis=0), 1, axis=0)
        return float(np.max(np.abs(flipped.conj() - c))) if c.size else 0.0


def forward_transform(grid: SpatialGrid, basis: HermiteBasis, point_values: np.ndarray) -> SpectralField:
    """Point values on the x-nodes x quadrature-nodes grid -> coefficients."""
    expected = (grid.n_x, basis.n_quad)
    values = np.asarray(point_values)
    if values.shape != expected:
        raise ConfigurationError(f"value shape {values.shape} does not match {expected}")
    coeffs = np.fft.fft(values @ basis.analysis.T, axis=0) / grid.n_x
    return SpectralField(grid, basis, coeffs)


def inverse_transform(f: SpectralField) -> np.ndarray:
    """Coefficients -> real point values on the collocation x quadrature grid."""
    values = np.fft.ifft(f.coeffs * f.grid.n_x, axis=0)
    return (values @ f.basis.synthesis.T).real


def spatial_derivative(f: SpectralField) -> SpectralField:
    """d/dx as the Fourier multiplier i k_m."""
    return f.with_coeffs(f.coeffs * (1j * f.grid.wavenumbers)[:, None])


def full_spectrum(half: np.ndarray, n_x: int) -> np.ndarray:
    """FFT-order coefficients of a real field from its modes m = 0..n_x/2.

    half holds those modes along axis 0; modes n_x/2+1..n_x-1 of the result
    are the conjugates of modes n_x/2-1..1.
    """
    out = np.empty((n_x,) + half.shape[1:], dtype=complex)
    out[: n_x // 2 + 1] = half
    np.conjugate(half[n_x // 2 - 1 : 0 : -1], out=out[n_x // 2 + 1 :])
    return out


def hermite_shift_coeffs(coeffs: np.ndarray, kind: str, extend: int = 0) -> np.ndarray:
    """Apply one of the velocity recurrences along the last axis.

    multiply_by_v: psi_n -> sqrt(n+1) psi_{n+1} + sqrt(n) psi_{n-1}
    d_dv:          psi_n -> (sqrt(n)/2) psi_{n-1} - (sqrt(n+1)/2) psi_{n+1}
    raising:       psi_n -> sqrt(n+1) psi_{n+1}   (this is v/2 - d/dv)

    extend > 0 grows the output Hermite axis instead of truncating the
    spill from the top mode; norms use this for exactness.
    """
    if kind not in SHIFT_KINDS:
        raise ConfigurationError(f"unknown shift kind {kind!r}; expected one of {SHIFT_KINDS}")
    n_in = coeffs.shape[-1]
    out = np.zeros(coeffs.shape[:-1] + (n_in + extend,), dtype=coeffs.dtype)
    root = np.sqrt(np.arange(1, n_in + extend))
    n_up = n_in if extend else n_in - 1  # levels fed from below; the top spill needs extend
    # level n receives sqrt(n) c_{n-1} (up) and sqrt(n+1) c_{n+1} (down)
    if kind == "multiply_by_v":
        out[..., 1 : n_up + 1] += root[:n_up] * coeffs[..., :n_up]
        out[..., : n_in - 1] += root[: n_in - 1] * coeffs[..., 1:]
    elif kind == "d_dv":
        out[..., : n_in - 1] += 0.5 * root[: n_in - 1] * coeffs[..., 1:]
        out[..., 1 : n_up + 1] -= 0.5 * root[:n_up] * coeffs[..., :n_up]
    else:  # raising
        out[..., 1 : n_up + 1] += root[:n_up] * coeffs[..., :n_up]
    return out


def hermite_shift_apply(f: SpectralField, kind: str) -> SpectralField:
    """Velocity recurrence on a field, truncated back to n_v modes."""
    return f.with_coeffs(hermite_shift_coeffs(f.coeffs, kind))


def quadrature_oracle_moment(grid: SpatialGrid, basis: HermiteBasis, point_values: np.ndarray, weight_function) -> np.ndarray:
    """int g(x, v) w(v) dv at each x node, by Gauss-Hermite quadrature.

    Independent of the coefficient path; used only as a test oracle.
    """
    w = np.asarray(weight_function(basis.quad_nodes), dtype=float)
    return np.asarray(point_values) @ (basis.quad_weights * w)


def l2_norm(f: SpectralField) -> float:
    """L^2_{x,v} norm via Parseval: ||f||^2 = vol * sum |c_{m,n}|^2."""
    return float(np.sqrt(f.grid.volume * np.sum(np.abs(f.coeffs) ** 2)))
