"""Reference implementations used as test oracles.

The package stores a real field as the Hermite-major half-spectrum
(n_v, n_x/2 + 1).  Most helpers here rebuild the Fourier-major full
spectrum (n_x, n_v) in FFT order, with modes n_x/2+1.. filled by
conjugation, and evaluate the transforms, symbols and norms with complex
FFTs over all n_x modes.  They share no code path with the half-spectrum
operators.

The package only evaluates point values at the basis's 2 n_v velocity
nodes and never integrates over them.  The quadrature helpers below give
those nodes weights, so that moments, projections and norms can be checked
against velocity integrals of point values.
"""

from functools import lru_cache

import numpy as np

from vpfp.spectral import SpectralField

# Largest n_v for which numpy's hermegauss(2 n_v) gives finite plain-measure
# weights: above it exp(-v^2/2) at the outer nodes underflows and the
# weights overflow.
HERMEGAUSS_MAX_N_V = 185


def full_spectrum(half, n_x):
    """FFT-order coefficients (n_x, n_v) of a real field from its
    Hermite-major half-spectrum (n_v, n_x/2 + 1)."""
    half = np.asarray(half).T
    out = np.empty((n_x,) + half.shape[1:], dtype=complex)
    out[: n_x // 2 + 1] = half
    out[n_x // 2 + 1 :] = half[n_x // 2 - 1 : 0 : -1].conj()
    return out


def half_spectrum(full):
    """Hermite-major half-spectrum of FFT-order coefficients (n_x, n_v)."""
    n_x = full.shape[0]
    return np.ascontiguousarray(np.asarray(full)[: n_x // 2 + 1].T)


def random_half_spectrum(rng, n_x, n_v, scale=1.0):
    """Half-spectrum of a random real field; rows m = 0 and n_x/2 are real."""
    return scale * np.fft.rfft(rng.standard_normal((n_v, n_x)), norm="forward")


# ---------------------------------------------------------------------------
# full-spectrum symbols (FFT order, Nyquist at its FFT-order wavenumber)

def wavenumbers(grid):
    return 2.0 * np.pi * np.fft.fftfreq(grid.n_x, d=grid.length / grid.n_x)


def k_sq(grid):
    return wavenumbers(grid) ** 2


def inverse_laplacian(grid):
    ksq = k_sq(grid)
    with np.errstate(divide="ignore"):
        return np.where(ksq > 0, 1.0 / ksq, 0.0)


def dealias_mask(grid):
    m = np.arange(grid.n_x)
    return np.minimum(m, grid.n_x - m) <= grid.n_x // 3


def fourier_field(grid, values):
    """Real spatial field -> full-spectrum coefficients along axis 0."""
    return np.fft.fft(np.asarray(values, dtype=complex), axis=0) / grid.n_x


def real_field(grid, coeffs):
    """Full-spectrum coefficients along axis 0 -> real spatial field."""
    return np.fft.ifft(np.asarray(coeffs, dtype=complex) * grid.n_x, axis=0).real


def x_derivative(grid, values):
    return real_field(grid, fourier_field(grid, values) * (1j * wavenumbers(grid)))


def dealiased_product(grid, u, w):
    return real_field(grid, fourier_field(grid, np.asarray(u) * np.asarray(w)) * dealias_mask(grid))


def inverse_transform(grid, basis, full):
    """Full-spectrum coefficients (n_x, n_v) -> point values (n_x, n_quad)."""
    return (np.fft.ifft(full * grid.n_x, axis=0) @ basis.synthesis.T).real


def hermite_shift(coeffs, kind, extend=0):
    """The velocity recurrences along the last axis, on the input zero-padded
    to n_in + extend levels and truncated there."""
    n_out = coeffs.shape[-1] + extend
    coeffs = np.pad(coeffs, [(0, 0)] * (coeffs.ndim - 1) + [(0, extend)])
    out = np.zeros(coeffs.shape[:-1] + (n_out,), dtype=coeffs.dtype)
    root = np.sqrt(np.arange(n_out)[1:])
    if kind == "multiply_by_v":
        out[..., 1:] += root * coeffs[..., :-1]
        out[..., :-1] += root * coeffs[..., 1:]
    elif kind == "d_dv":
        out[..., :-1] += 0.5 * root * coeffs[..., 1:]
        out[..., 1:] -= 0.5 * root * coeffs[..., :-1]
    else:
        out[..., 1:] += root * coeffs[..., :-1]
    return out


# ---------------------------------------------------------------------------
# norms and functionals over the full spectrum (the Fourier axis first)

def _x_weight(grid, order):
    ksq = k_sq(grid)
    return sum(ksq**alpha for alpha in range(order + 1))


def _weighted_sq(grid, coeffs, x_order):
    w = _x_weight(grid, x_order)
    return float(grid.volume * np.sum(w[:, None] * np.abs(coeffs) ** 2))


def _dv_tower(coeffs, depth):
    tower = [coeffs]
    for _ in range(depth):
        tower.append(hermite_shift(tower[-1], "d_dv", extend=1))
    return tower


def _nu_sq_of(grid, coeffs, x_order):
    return (_weighted_sq(grid, hermite_shift(coeffs, "d_dv", extend=1), x_order)
            + _weighted_sq(grid, coeffs, x_order)
            + _weighted_sq(grid, hermite_shift(coeffs, "multiply_by_v", extend=1), x_order))


def _mixed_sq(grid, coeffs, k, nu=False):
    of = _nu_sq_of if nu else _weighted_sq
    return sum(of(grid, cb, k - beta) for beta, cb in enumerate(_dv_tower(coeffs, k)))


def _spatial_sobolev_sq(grid, values, order):
    c = np.fft.fft(values) / grid.n_x
    return float(grid.volume * np.sum(_x_weight(grid, order) * np.abs(c) ** 2))


def nu_norm(field):
    return float(np.sqrt(_nu_sq_of(field.grid, full_spectrum(field.coeffs, field.grid.n_x), 0)))


def energy_components(state, k, epsilon):
    """The E_k / D_k component groups of energy_functionals."""
    grid = state.g.grid
    c = full_spectrum(state.g.coeffs, grid.n_x)
    micro_c = c.copy()
    micro_c[:, :2] = 0.0
    a, b = real_field(grid, c[:, 0]), real_field(grid, c[:, 1])
    return {
        "g_HkxL2v_sq": sum(_weighted_sq(grid, cb, k) for cb in _dv_tower(c, 0)),
        "gradv_micro_Hkm1_sq": _mixed_sq(grid, hermite_shift(micro_c, "d_dv", extend=1), k - 1),
        "ab_Hkm1_sq": _spatial_sobolev_sq(grid, a, k - 1) + _spatial_sobolev_sq(grid, b, k - 1),
        "micro_nu_Hk_sq": _mixed_sq(grid, micro_c, k, nu=True) / epsilon**2,
        "b_Hk_sq": _spatial_sobolev_sq(grid, b, k) / epsilon**2,
        "grad_b_Hkm1_sq": 2.0 * _spatial_sobolev_sq(grid, x_derivative(grid, b), k - 1) / epsilon,
        "grad_a_Hkm1_sq": _spatial_sobolev_sq(grid, x_derivative(grid, a), k - 1),
        "grad_phi_Hk_sq": _spatial_sobolev_sq(grid, state.macro.grad_phi, k),
    }


def limit_error(kinetic_traj, ddp_traj, k):
    """sup-in-time moment/field errors, the time-integrated micro norm and
    the pointwise sup error, over the full spectrum."""
    times = np.asarray(kinetic_traj.times)
    grid = kinetic_traj.states[0].g.grid
    basis = kinetic_traj.states[0].g.basis
    sqrt_m = basis.maxwellian_sqrt()
    m_vals = sqrt_m**2
    l2 = lambda v: float(np.sqrt(grid.cell_volume * np.sum(v**2)))  # noqa: E731
    moment, field, micro, point = [], [], [], []
    for ks, ds in zip(kinetic_traj.states, ddp_traj.states):
        c = full_spectrum(ks.g.coeffs, grid.n_x)
        moment.append(l2(real_field(grid, c[:, 0]) - ds.rho0))
        field.append(l2(ks.macro.grad_phi - ds.grad_phi0))
        micro_c = c.copy()
        micro_c[:, 0] = 0.0
        micro.append(_mixed_sq(grid, micro_c, k))
        f_vals = m_vals + inverse_transform(grid, basis, c) * sqrt_m
        point.append(float(np.max(np.abs(f_vals - (1.0 + ds.rho0)[:, None] * m_vals))))
    return {
        "sup_moment_error": max(moment),
        "sup_field_error": max(field),
        "micro_time_integral": float(np.trapezoid(micro, times)) if times.size > 1 else 0.0,
        "pointwise_sup_error": max(point),
    }


# ---------------------------------------------------------------------------
# Gauss-Hermite quadrature on the basis's velocity nodes

@lru_cache(maxsize=None)
def quad_weights(basis):
    """Plain-measure weights of numpy's hermegauss(2 n_v) rule, finite for
    n_v <= HERMEGAUSS_MAX_N_V.

    sum_q w_q f(v_q) equals int f(v) dv exactly whenever f = p * M with p a
    polynomial of degree < 4 n_v.
    """
    nodes, weights = np.polynomial.hermite_e.hermegauss(2 * basis.n_v)
    # hermegauss weights integrate against exp(-v^2/2); divide out the
    # Gaussian to get plain dv weights for Maxwellian-weighted integrands.
    m = np.exp(-0.5 * nodes**2) / np.sqrt(2.0 * np.pi)
    return weights / np.sqrt(2.0 * np.pi) / m


@lru_cache(maxsize=None)
def christoffel_weights(basis):
    """The same weights at basis.quad_nodes from the Christoffel function,
    W_q = 1 / sum_{n < 2 n_v} psi_n(v_q)^2, finite up to MAX_N_V."""
    return 1.0 / np.sum(basis.functions(n_levels=2 * basis.n_v) ** 2, axis=1)


def analysis(basis, weights=None):
    """Quadrature projection onto psi_n, shape (n_v, 2 n_v); the weights
    default to quad_weights."""
    w = quad_weights(basis) if weights is None else weights
    return (basis.synthesis * w[:, None]).T


def forward_transform(grid, basis, point_values):
    """Point values on the x-nodes x velocity-nodes grid, shape
    (n_x, 2 n_v) -> coefficients; one real FFT along x per level."""
    coeffs = np.fft.rfft(analysis(basis) @ np.asarray(point_values).T, norm="forward")
    return SpectralField(grid, basis, coeffs)


def quadrature_oracle_moment(grid, basis, point_values, weight_function, weights=None):
    """int g(x, v) w(v) dv at each x node by quadrature (weights default to
    quad_weights), independent of the coefficient path."""
    w = np.asarray(weight_function(basis.quad_nodes), dtype=float)
    q = quad_weights(basis) if weights is None else weights
    return np.asarray(point_values) @ (q * w)


def spatial_derivative(f):
    """d/dx as the Fourier multiplier grid.dx_symbol (0 at the Nyquist mode)."""
    return f.with_coeffs(f.coeffs * f.grid.dx_symbol)
