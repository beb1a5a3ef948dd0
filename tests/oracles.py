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

The moment hierarchy (gamma_moment, moment_residuals) is not an
independent path: only tests use it, so it lives here, built on the
package's operators, to check that sampled kinetic states satisfy the
density, momentum and stress equations.  So do the operators that no run
calls (the collision operator apply_L, the projections P, I - P and P0,
the L^2 and nu norms on the half-spectrum, the coercivity gap) and the
operator-level checks of acceptance criteria 1-4 built on them.
"""

from collections import deque
from functools import lru_cache

import numpy as np

from vpfp import spectral
from vpfp.ddp import DdpState
from vpfp.diagnostics import _mixed_nu_sq, _tower_squares
from vpfp.operators import solve_poisson, spatial_l2_norm
from vpfp.spectral import SpectralField, _hermite_rows, parseval_sq

from conftest import zero_field

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
    """d/dx of a real spatial field; the Nyquist mode's derivative is
    imaginary, so taking the real part drops it."""
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
    return float(grid.length * np.sum(w[:, None] * np.abs(coeffs) ** 2))


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
    return float(grid.length * np.sum(_x_weight(grid, order) * np.abs(c) ** 2))


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


def limit_error(kinetic_traj, ddp_states, k):
    """sup-in-time moment/field errors, the time-integrated micro norm and
    the pointwise sup error, over the full spectrum; ddp_states holds the
    fluid state of each kinetic sample."""
    times = np.asarray(kinetic_traj.times)
    grid = kinetic_traj.states[0].g.grid
    basis = kinetic_traj.states[0].g.basis
    sqrt_m = basis.synthesis[:, 0]
    m_vals = sqrt_m**2
    l2 = lambda v: float(np.sqrt(grid.cell_volume * np.sum(v**2)))  # noqa: E731
    moment, field, micro, point = [], [], [], []
    for ks, ds in zip(kinetic_traj.states, ddp_states):
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
# operators that no run calls, on the package's half-spectrum layout

def apply_L(g):
    """Fokker-Planck operator: diagonal multiplier n on Hermite level n."""
    n = np.arange(g.basis.n_v)
    return g.with_coeffs(g.coeffs * n[:, None])


def project_macro(g):
    """P g = (a + v b) sqrt(M): keep Hermite levels 0 and 1, zero the rest."""
    out = np.zeros_like(g.coeffs)
    out[:2] = g.coeffs[:2]
    return g.with_coeffs(out)


def project_micro(g):
    """(I - P) g: zero the macroscopic Hermite levels 0 and 1."""
    out = g.coeffs.copy()
    out[:2] = 0.0
    return g.with_coeffs(out)


def project_p0(g):
    """P_0 g = a sqrt(M)."""
    out = np.zeros_like(g.coeffs)
    out[0] = g.coeffs[0]
    return g.with_coeffs(out)


def l2_norm(f):
    """L^2_{x,v} norm via Parseval: ||f||^2 = vol * sum_m w_m sum_n |c_{n,m}|^2,
    with w_m the half-spectrum mode_weights."""
    return float(np.sqrt(parseval_sq(f.grid, (f.coeffs.real**2 + f.coeffs.imag**2).sum(axis=0))))


def half_spectrum_nu_norm(f):
    """Dissipation norm sqrt(||d_v f||^2 + ||sqrt(1+v^2) f||^2) by the
    squares that energy_functionals sums (diagnostics._tower_squares and
    _mixed_nu_sq, which read ||v f||^2 off the ladder-operator identity);
    nu_norm above is its full-spectrum oracle, which multiplies by v."""
    return float(np.sqrt(_mixed_nu_sq(f.grid, *_tower_squares(f.coeffs, 1, 0), 0)))


def coercivity_gap(g):
    """Return (<Lg, g>, ||(I-P)g||_nu^2, ||b||_{L^2_x}^2).

    In the Hermite basis <Lg, g> = vol * sum_{m,n} w_m n |c_{n,m}|^2 (w_m the
    half-spectrum mode_weights), which dominates
    ||(I-P)g||_{L^2}^2 + ||b||^2 exactly (eigenvalues >= 1 off the kernel).
    The nu-norm coercivity constant is measured by callers, not assumed.
    """
    c = g.coeffs
    level_sq = parseval_sq(g.grid, c.real**2 + c.imag**2)  # ||row n||^2 per Hermite level
    dirichlet = float(np.arange(g.basis.n_v) @ level_sq)
    b_sq = float(level_sq[1])
    return dirichlet, half_spectrum_nu_norm(project_micro(g)) ** 2, b_sq


# ---------------------------------------------------------------------------
# the operator-level checks of acceptance criteria 1-4: each returns (ok,
# detail), whether the property holds and the measured figure; the criteria
# pass their own seeded fields and add their independent oracles

def check_collision(grid, basis):
    """L fixes the momentum mode cos(x) v sqrt(M) and has eigenvalue n on
    every Hermite level n."""
    fixed = zero_field(grid, basis)
    fixed.coeffs[1, 1] = 0.5  # cos(x) psi_1
    fixed_err = float(np.max(np.abs(apply_L(fixed).coeffs - fixed.coeffs)))
    eig_err = 0.0
    for n in range(basis.n_v):
        g = zero_field(grid, basis)
        g.coeffs[n, 1] = 1.0
        eig_err = max(eig_err, float(np.max(np.abs(apply_L(g).coeffs - n * g.coeffs))))
    ok = fixed_err < 1e-12 and eig_err < 1e-12
    return ok, f"fixed-point err {fixed_err:.1e}, eigenvalue err {eig_err:.1e}"


def check_projections(fields):
    """P and I - P are idempotent, P (I - P) = 0, Pg + (I - P)g = g, and
    (I - P)g is (I - P0)g with its Hermite levels 0 and 1 zeroed, exactly at
    coefficient level, on every field."""
    ok = True
    for g in fields:
        pg, mg = project_macro(g), project_micro(g)
        ok &= np.array_equal(project_macro(pg).coeffs, pg.coeffs)
        ok &= np.array_equal(project_micro(mg).coeffs, mg.coeffs)
        ok &= np.array_equal(pg.coeffs + mg.coeffs, g.coeffs)
        expected = g.coeffs - project_p0(g).coeffs  # (I - P0) g
        expected[:2] = 0.0
        ok &= np.array_equal(expected, mg.coeffs)
        ok &= not np.any(project_macro(mg).coeffs)
    return bool(ok), ""


def check_coercivity(fields):
    """<Lg, g> >= ||(I-P)g||^2 + ||b||^2 on every field, and the nu-norm
    constant C0 = min (<Lg, g> - ||b||^2) / ||(I-P)g||_nu^2 is positive and
    measured, i.e. some field has a nonzero microscopic part."""
    ok = True
    c0 = np.inf
    for g in fields:
        dirichlet, micro_nu_sq, b_sq = coercivity_gap(g)
        micro_l2_sq = l2_norm(project_micro(g)) ** 2
        ok &= dirichlet + 1e-12 * max(1.0, dirichlet) >= micro_l2_sq + b_sq
        if micro_nu_sq > 0:
            c0 = min(c0, (dirichlet - b_sq) / micro_nu_sq)
    return bool(ok and 0 < c0 < np.inf), f"measured nu-norm constant C0 = {c0:.4f}"


def check_poisson(grid, samples):
    """-phi'' = a is solved exactly for the first two modes a = cos(m k x),
    k = 2 pi / L, and the Poincare inequality ||a|| <= ||da/dx|| / k holds
    for each sample with its mean removed and for a = cos(k x), where it is
    an equality."""
    k = 2 * np.pi / grid.length
    first = np.cos(k * grid.nodes)
    second = np.cos(2 * k * grid.nodes)
    phi1, _ = solve_poisson(grid, first)
    phi2, _ = solve_poisson(grid, second)
    eig_err = max(np.max(np.abs(phi1 - first / k**2)),
                  np.max(np.abs(phi2 - second / (4 * k**2))))
    poincare_ok = True
    for a in [*samples, first]:
        a = a - a.mean()
        poincare_ok &= (spatial_l2_norm(grid, a)
                        <= spatial_l2_norm(grid, x_derivative(grid, a)) / k * (1 + 1e-12))
    return bool(eig_err < 1e-12 and poincare_ok), f"eigenfunction err {eig_err:.1e}"


# ---------------------------------------------------------------------------
# the moment hierarchy of the kinetic system, on the package's half-spectrum
# helpers (project_micro, spatial_l2_norm, spectral.real_field) and this
# module's full-spectrum dealiased_product and x_derivative and its
# velocity shift hermite_shift

def gamma_moment(g):
    """Stress-type moment Gamma[g](x) = int g (v^2 - 1) sqrt(M) dv.

    This is sqrt(2) times the Hermite-2 coefficient slice, since
    (v^2 - 1) sqrt(M) = sqrt(2) psi_2.
    """
    return spectral.real_field(g.grid, np.sqrt(2.0) * g.coeffs[2])


def moment_residuals(states, epsilon):
    """Discrete residuals of the density/momentum/stress moment hierarchy.

    states: equally spaced consecutive samples.  Time derivatives are
    centered at interior samples; the endpoints are excluded.  Returns the
    L^2 norms of each equation residual at the interior times.
    """
    states = list(states)
    if len(states) < 3:
        raise ValueError("need at least 3 consecutive samples for time differencing")
    times = np.array([s.time for s in states])
    dts = np.diff(times)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=1e-14):
        raise ValueError("moment residuals require equally spaced samples")
    dt = float(dts[0])
    grid = states[0].g.grid

    a_s, b_s, gam_s, r2_static, r3_static = [], [], [], [], []
    for s in states:
        micro = project_micro(s.g)
        a, dphi = s.macro.a, s.macro.grad_phi
        b = spectral.real_field(grid, s.g.coeffs[1])  # the momentum, Hermite row 1
        gamma = gamma_moment(micro)
        micro_dx = micro.coeffs * grid.dx_symbol
        v_micro_dx = hermite_shift(np.moveaxis(micro_dx, 0, -1), "multiply_by_v")
        v_micro_dx = micro.with_coeffs(np.moveaxis(v_micro_dx, -1, 0))
        gamma_vdx = gamma_moment(v_micro_dx)
        a_s.append(a)
        b_s.append(b)
        gam_s.append(gamma)
        r2_static.append(
            (x_derivative(grid, a) + dphi) / epsilon
            + b / epsilon**2
            + dealiased_product(grid, a, dphi) / epsilon
            + x_derivative(grid, gamma) / epsilon
        )
        r3_static.append(
            2.0 * x_derivative(grid, b) / epsilon
            + 2.0 * dealiased_product(grid, b, dphi) / epsilon
            + 2.0 * gamma / epsilon**2
            + gamma_vdx / epsilon
        )

    r1, r2, r3 = [], [], []
    for n in range(1, len(states) - 1):
        da = (a_s[n + 1] - a_s[n - 1]) / (2.0 * dt)
        db = (b_s[n + 1] - b_s[n - 1]) / (2.0 * dt)
        dgam = (gam_s[n + 1] - gam_s[n - 1]) / (2.0 * dt)
        r1.append(spatial_l2_norm(grid, da + x_derivative(grid, b_s[n]) / epsilon))
        r2.append(spatial_l2_norm(grid, db + r2_static[n]))
        r3.append(spatial_l2_norm(grid, dgam + r3_static[n]))

    return {
        "times": times[1:-1],
        "continuity": np.array(r1),
        "momentum": np.array(r2),
        "stress": np.array(r3),
    }


# ---------------------------------------------------------------------------
# earlier forms of the solver kernels, which the current ones must match bit
# for bit

def ddp_step_reference(grid, state, dt):
    """The fluid step's arithmetic with every symbol rebuilt per call and
    phi0 transformed too, as ddp_step did before the state dropped phi0;
    no checks.  Lap phi0 is -rho0 without its mean mode, so the mean mode
    is kept."""
    ik = grid.dx_symbol
    rho_c, prod_c = np.fft.rfft(np.array([state.rho0, state.rho0 * state.grad_phi0]),
                                norm="forward")
    lap_phi_c = np.where(np.arange(grid.n_half) == 0, 0.0, -rho_c)
    rhs_c = rho_c + dt * (ik * dealias_mask(grid)[: grid.n_half] * prod_c + lap_phi_c)
    new_c = rhs_c / (1.0 + dt * grid.k_sq)
    phi_c = new_c * grid.inverse_laplacian
    rho0, _, grad_phi0 = np.fft.irfft(np.array([new_c, phi_c, ik * phi_c]),
                                      n=grid.n_x, norm="forward")
    return DdpState(time=state.time + dt, rho0=rho0, grad_phi0=grad_phi0)


def strided_solve(factors, x):
    """TridiagonalFactors.solve as it was before the parity-major
    workspace: in place on the strided even and odd row views of x."""
    rows_of = x.reshape(x.shape[0], -1)
    even, odd = rows_of[0::2], rows_of[1::2]
    n_up = factors.upper.shape[0]
    even[:odd.shape[0]] -= factors.lower * odd
    even[1:] -= factors.upper * odd[:n_up]
    xe = rows_of.view(np.float64)[0::2]
    rows, mult = list(xe), list(factors.multiplier)
    tmp = np.empty_like(rows[0])
    for i in range(1, len(rows)):
        np.multiply(mult[i], rows[i - 1], out=tmp)
        np.subtract(rows[i], tmp, out=rows[i])
    xe *= factors.inv_pivot
    for i in range(len(rows) - 1, 0, -1):
        np.multiply(mult[i], rows[i], out=tmp)
        np.subtract(rows[i - 1], tmp, out=rows[i - 1])
    odd *= factors.odd_inv_diag
    odd -= factors.lower * even[:odd.shape[0]]
    odd[:n_up] -= factors.upper * even[1:]
    return x


# ---------------------------------------------------------------------------
# Gauss-Hermite quadrature on the basis's velocity nodes

@lru_cache(maxsize=None)
def golub_welsch_nodes(n_v):
    """The roots of He_{2 n_v}, ascending: the eigenvalues of the symmetric
    Jacobi matrix with off-diagonals sqrt(1..2 n_v - 1) (Golub-Welsch 1969),
    polished by one Newton step as in numpy's hermegauss.  Finite up to
    MAX_N_V; shares only the psi recurrence with HermiteBasis.quad_nodes."""
    n_quad = 2 * n_v
    off = np.sqrt(np.arange(1.0, n_quad))
    v = np.linalg.eigvalsh(np.diag(off, -1))  # reads the lower triangle
    # He_n / He_n' = psi_n / (sqrt(n) psi_{n-1}), which cannot overflow
    below, top = deque(_hermite_rows(v, n_quad + 1), maxlen=2)
    return v - top / (np.sqrt(n_quad) * below)


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
