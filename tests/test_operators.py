"""Kinetic operators: collision operator, projections, moments, Poisson,
dealiased products, and the explicit field coupling.

The collision operator is checked against an independent finite-difference
discretization of the continuous divergence-form operator
    L g = -(1/sqrt(M)) d/dv ( M d/dv (g / sqrt(M)) ),
which never touches the coefficient-space diagonal.  The collision
operator, P, P0 and the coercivity gap are the oracles' (no run calls
them), as are the checks of acceptance criteria 1-4, which are shown here
to fail on a wrong operator.  The stress moment and the dealiased product
are the oracles' own too (gamma_moment, dealiased_product), which the
moment-residual oracle and the coupling checks below rely on.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpfp.operators import (MacroFields, moments, potential_coeffs, solve_poisson,
                            spatial_l2_norm, vpfp_rhs)
from vpfp.spectral import (
    ConfigurationError,
    HermiteBasis,
    SpatialGrid,
    SpectralField,
    fourier_field,
    inverse_transform,
    real_field,
)

import oracles
from conftest import basis_element, random_distribution, zero_field
from oracles import (
    apply_L,
    check_collision,
    check_poisson,
    check_projections,
    coercivity_gap,
    dealiased_product,
    gamma_moment,
    half_spectrum_nu_norm,
    l2_norm,
    project_macro,
    project_micro,
    project_p0,
    quadrature_oracle_moment,
    spatial_derivative,
    x_derivative,
)


class TestCollisionOperator:
    @pytest.mark.parametrize("n", range(6))
    def test_eigenvalues_match_fd_oracle(self, basis, n):
        from conftest import fd_collision_inner_product
        assert abs(fd_collision_inner_product(basis, n, n) - n) < 1e-8

    def test_off_diagonal_vanishes(self, basis):
        from conftest import fd_collision_inner_product
        for n, j in [(0, 2), (1, 3), (2, 4), (0, 1)]:
            assert abs(fd_collision_inner_product(basis, n, j)) < 5e-8

    def test_diagonal_multiplier(self, grid, basis):
        for n in range(basis.n_v):
            g = basis_element(grid, basis, 1, n)
            assert np.max(np.abs(apply_L(g).coeffs - n * g.coeffs)) < 1e-14

    def test_kernel_is_maxwellian_level(self, grid, basis):
        g = basis_element(grid, basis, 2, 0)
        assert np.max(np.abs(apply_L(g).coeffs)) == 0.0

    def test_symmetry(self, grid, basis, rng):
        f = random_distribution(rng, grid, basis)
        g = random_distribution(rng, grid, basis)
        lhs = np.sum(apply_L(f).coeffs * g.coeffs.conj())
        rhs = np.sum(f.coeffs.conj() * apply_L(g).coeffs)
        assert abs(lhs - rhs.conj()) < 1e-12

    def test_check_fails_on_doubled_multiplier(self, monkeypatch):
        # the criterion-1 check catches a collision operator with multiplier 2n
        grid, basis = SpatialGrid(n_x=32), HermiteBasis(n_v=16)
        assert check_collision(grid, basis)[0]
        monkeypatch.setattr(oracles, "apply_L", lambda g: g.with_coeffs(2.0 * g.coeffs))
        ok, detail = check_collision(grid, basis)
        assert not ok, detail


class TestProjections:
    def test_idempotent_and_complementary(self, grid, basis, rng):
        for _ in range(20):
            g = random_distribution(rng, grid, basis)
            pg, mg = project_macro(g), project_micro(g)
            assert np.array_equal(project_macro(pg).coeffs, pg.coeffs)
            assert np.array_equal(project_micro(mg).coeffs, mg.coeffs)
            assert np.array_equal(pg.coeffs + mg.coeffs, g.coeffs)
            assert np.max(np.abs(project_macro(mg).coeffs)) == 0.0
            assert np.max(np.abs(project_micro(pg).coeffs)) == 0.0

    def test_p0_inside_macro(self, grid, basis, rng):
        g = random_distribution(rng, grid, basis)
        assert np.array_equal(project_p0(project_macro(g)).coeffs, project_p0(g).coeffs)

    def test_commutes_with_x_derivative(self, grid, basis, rng):
        g = random_distribution(rng, grid, basis)
        one = project_macro(spatial_derivative(g))
        two = spatial_derivative(project_macro(g))
        assert np.array_equal(one.coeffs, two.coeffs)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 15), st.integers(0, 31))
    def test_basis_elements_route_exactly(self, n, m):
        import conftest
        from vpfp.spectral import HermiteBasis, SpatialGrid
        grid = SpatialGrid(n_x=32)
        basis = HermiteBasis(n_v=16)
        g = conftest.basis_element(grid, basis, m, n)
        macro = project_macro(g)
        if n <= 1:
            assert np.array_equal(macro.coeffs, g.coeffs)
        else:
            assert np.max(np.abs(macro.coeffs)) == 0.0

    def test_orthogonality_in_l2(self, grid, basis, rng):
        g = random_distribution(rng, grid, basis)
        pg, mg = project_macro(g), project_micro(g)
        inner = np.sum(pg.coeffs * mg.coeffs.conj())
        assert abs(inner) == 0.0

    def test_check_fails_on_zero_micro_projection(self, grid, basis, rng, monkeypatch):
        # a zero (I - P) is idempotent and consistent with itself, so only
        # the criterion-2 comparisons with independently built arrays catch it
        fields = [random_distribution(rng, grid, basis) for _ in range(3)]
        assert check_projections(fields)[0]
        monkeypatch.setattr(oracles, "project_micro", lambda g: zero_field(g.grid, g.basis))
        assert not check_projections(fields)[0]


class TestMoments:
    def test_against_quadrature_oracle(self, grid, basis, rng):
        g = random_distribution(rng, grid, basis)
        values = inverse_transform(g)
        sqrt_m = lambda v: (2 * np.pi) ** (-0.25) * np.exp(-(v**2) / 4)
        mac = moments(g)
        a_oracle = quadrature_oracle_moment(grid, basis, values, sqrt_m)
        b_oracle = quadrature_oracle_moment(grid, basis, values, lambda v: v * sqrt_m(v))
        assert np.max(np.abs(mac.a - a_oracle)) < 1e-10
        # the momentum b is Hermite row 1, which no run transforms
        assert np.max(np.abs(real_field(grid, g.coeffs[1]) - b_oracle)) < 1e-10

    def test_gamma_against_quadrature_oracle(self, grid, basis, rng):
        g = random_distribution(rng, grid, basis)
        values = inverse_transform(g)
        weight = lambda v: (v**2 - 1) * (2 * np.pi) ** (-0.25) * np.exp(-(v**2) / 4)
        oracle = quadrature_oracle_moment(grid, basis, values, weight)
        assert np.max(np.abs(gamma_moment(g) - oracle)) < 1e-10

    def test_gamma_is_scaled_second_level(self, grid, basis):
        g = basis_element(grid, basis, 1, 2)
        expected = np.sqrt(2.0) * np.cos(grid.nodes)
        assert np.allclose(gamma_moment(g), expected, atol=1e-12)

    def test_moments_field_and_nu_norm_finite(self, grid, basis, rng):
        g = random_distribution(rng, grid, basis)
        mac = moments(g)
        for values in (mac.a, mac.grad_phi):
            assert np.all(np.isfinite(values))
        assert np.isfinite(half_spectrum_nu_norm(g))

    @pytest.mark.parametrize("batch", [None, 3])
    def test_forms_the_density_and_its_field_only(self, grid, basis, rng, batch):
        # the run reads a and d phi/dx alone: one inverse FFT of those two
        # rows, bit for bit that of each row by itself
        assert [f.name for f in dataclasses.fields(MacroFields)] == ["a", "grad_phi"]
        c = random_distribution(rng, grid, basis).coeffs
        if batch is not None:
            c = np.stack([c * (i + 1) for i in range(batch)], axis=1)
        mac = moments(SpectralField(grid, basis, c))
        assert np.array_equal(mac.a, real_field(grid, c[0]))
        assert np.array_equal(mac.grad_phi, real_field(grid, potential_coeffs(grid, c[0])[1]))


class TestPoisson:
    def test_fundamental_mode(self, grid):
        x = grid.nodes
        phi, grad = solve_poisson(grid, np.cos(x))
        assert np.allclose(phi, np.cos(x), atol=1e-12)
        assert np.allclose(grad, -np.sin(x), atol=1e-12)

    def test_second_mode(self, grid):
        x = grid.nodes
        phi, grad = solve_poisson(grid, np.cos(2 * x))
        assert np.allclose(phi, np.cos(2 * x) / 4, atol=1e-12)
        assert np.allclose(grad, -np.sin(2 * x) / 2, atol=1e-12)

    def test_residual_by_second_derivative(self, grid, rng):
        a = rng.standard_normal(grid.n_x)
        # drop mean and Nyquist content, which a real field cannot carry
        # through an odd-order spectral derivative
        c = np.fft.fft(a)
        c[0] = 0.0
        c[grid.n_x // 2] = 0.0
        a = np.fft.ifft(c).real
        phi, _ = solve_poisson(grid, a)
        lap = x_derivative(grid, x_derivative(grid, phi))
        assert np.max(np.abs(-lap - a)) < 1e-9

    def test_zero_mean_required(self, grid):
        with pytest.raises(ValueError, match="zero spatial mean"):
            solve_poisson(grid, np.cos(grid.nodes) + 0.5)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_node_rejected(self, grid, value):
        a = np.cos(grid.nodes)
        a[3] = value
        with pytest.raises(ValueError, match="Poisson right-hand side must have zero spatial mean"):
            solve_poisson(grid, a)

    def test_gauge_zero_mean(self, grid, rng):
        a = rng.standard_normal(grid.n_x)
        a -= a.mean()
        phi, _ = solve_poisson(grid, a)
        assert abs(phi.mean()) < 1e-13

    def test_poincare_on_zero_mean_fields(self, grid, rng):
        for _ in range(50):
            a = rng.standard_normal(grid.n_x)
            a -= a.mean()
            lhs = spatial_l2_norm(grid, a)
            rhs = spatial_l2_norm(grid, x_derivative(grid, a))
            assert lhs <= rhs * (1 + 1e-12)

    @pytest.mark.parametrize("length", [2.0 * np.pi])
    def test_poisson_check_scales_with_length(self, length):
        # the first mode cos(k x), k = 2 pi / L, has ||a|| = ||da/dx|| / k:
        # the check holds with the Poincare constant 1 / k, which is 1 on
        # the one period of the grid, 2 pi
        grid = SpatialGrid(n_x=32)
        k = 2.0 * np.pi / length
        a = np.cos(k * grid.nodes)
        assert spatial_l2_norm(grid, a) == pytest.approx(
            spatial_l2_norm(grid, x_derivative(grid, a)) / k, rel=1e-13)
        ok, detail = check_poisson(grid, [])
        assert ok, detail


class TestDealiasedProduct:
    def test_low_mode_product_exact(self, grid):
        x = grid.nodes
        u, w = np.cos(3 * x), np.cos(4 * x)
        prod = dealiased_product(grid, u, w)
        assert np.allclose(prod, u * w, atol=1e-12)

    def test_high_mode_tail_removed(self, grid):
        x = grid.nodes
        u = np.cos(10 * x)
        prod = dealiased_product(grid, u, u)
        # cos^2(10x) = 1/2 + cos(20x)/2 and mode 20 is outside the kept band
        assert np.allclose(prod, 0.5, atol=1e-12)

    def test_mean_of_product_preserved(self, grid, rng):
        u = rng.standard_normal(grid.n_x)
        w = rng.standard_normal(grid.n_x)
        prod = dealiased_product(grid, u, w)
        assert abs(prod.mean() - (u * w).mean()) < 1e-12

    def test_fourier_round_trip(self, grid, rng):
        u = rng.standard_normal(grid.n_x)
        assert np.allclose(real_field(grid, fourier_field(u)), u, atol=1e-13)


class TestRhs:
    """vpfp_rhs evaluates the field coupling, the explicit terms."""

    def test_momentum_slice_of_hydrodynamic_state(self, grid, basis):
        # g = rho(x) psi_0 with its own field: the psi_1 slice of the
        # coupling is -(d phi + dealias(rho * d phi)) / eps, and as level 0
        # is g's only level, no other row is coupled
        rho = 0.1 * np.cos(grid.nodes)
        g = zero_field(grid, basis)
        g.coeffs[0] = fourier_field(rho)
        eps = 0.5
        rhs = vpfp_rhs(g, eps)
        dphi = moments(g).grad_phi
        expected = -(dphi + dealiased_product(grid, rho, dphi)) / eps
        got = real_field(grid, rhs[1])
        assert np.max(np.abs(got - expected)) < 1e-12
        other = rhs.copy()
        other[1] = 0.0
        assert np.max(np.abs(other)) == 0.0

    def test_mass_slice_untouched_by_fields_and_collision(self, grid, basis, rng):
        g = random_distribution(rng, grid, basis)
        rhs = vpfp_rhs(g, 0.2)
        assert np.max(np.abs(rhs[0])) == 0.0

    def test_total_mass_invariant(self, grid, basis, rng):
        g = random_distribution(rng, grid, basis)
        rhs = vpfp_rhs(g, 0.2)
        assert abs(rhs[0, 0]) < 1e-14

    def test_scaling_in_epsilon(self, grid, basis, rng):
        g = random_distribution(rng, grid, basis)
        r1 = vpfp_rhs(g, 0.5)
        r2 = vpfp_rhs(g, 0.25)
        assert np.max(np.abs(r2 - 2 * r1)) < 1e-12

    def test_epsilon_validation(self, grid, basis):
        g = zero_field(grid, basis)
        with pytest.raises(ConfigurationError):
            vpfp_rhs(g, 0.0)

    @pytest.mark.parametrize("epsilon", [0.2, (0.2, 0.1, 0.05)])
    def test_one_epsilon_per_batch_member(self, grid, basis, rng, epsilon):
        c = random_distribution(rng, grid, basis).coeffs
        batch = SpectralField(grid, basis, np.stack([c, c], axis=1))
        with pytest.raises(ConfigurationError, match="need one epsilon per batch member"):
            vpfp_rhs(batch, epsilon)

    def test_hermitian_symmetry_preserved(self, grid, basis, rng):
        # the half-spectrum of a real field has real rows m = 0 and n_x/2;
        # the coupling, made of real-FFT products and d phi/dx, keeps them real
        g = random_distribution(rng, grid, basis)
        rhs = vpfp_rhs(g, 0.2)
        assert np.all(rhs[:, [0, -1]].imag == 0.0)


class TestCoercivity:
    def test_dirichlet_dominates(self, grid, basis, rng):
        for _ in range(50):
            g = random_distribution(rng, grid, basis)
            dirichlet, _, b_sq = coercivity_gap(g)
            micro_l2_sq = l2_norm(project_micro(g)) ** 2
            assert dirichlet + 1e-12 * max(1.0, dirichlet) >= micro_l2_sq + b_sq

    def test_measured_nu_constant_positive(self, grid, basis, rng):
        c0 = np.inf
        for _ in range(50):
            g = random_distribution(rng, grid, basis)
            dirichlet, micro_nu_sq, b_sq = coercivity_gap(g)
            if micro_nu_sq > 0:
                c0 = min(c0, (dirichlet - b_sq) / micro_nu_sq)
        assert 0 < c0 < 1

    def test_gap_zero_on_kernel(self, grid, basis):
        g = basis_element(grid, basis, 1, 0)
        dirichlet, micro_nu_sq, b_sq = coercivity_gap(g)
        assert dirichlet == 0.0 and micro_nu_sq == 0.0 and b_sq == 0.0


def complex_fft_density(g):
    """The density a of moments by a full-spectrum complex FFT."""
    return oracles.real_field(g.grid, oracles.full_spectrum(g.coeffs, g.grid.n_x)[:, 0])


def complex_fft_poisson(grid, a):
    """solve_poisson by full-spectrum complex FFTs."""
    phi_c = oracles.fourier_field(grid, a) * oracles.inverse_laplacian(grid)
    return (oracles.real_field(grid, phi_c),
            oracles.real_field(grid, phi_c * (1j * oracles.wavenumbers(grid))))


def complex_fft_coupling(g, grad_phi, epsilon):
    """vpfp_rhs, the field terms, on the full spectrum by complex FFTs,
    returned as a half-spectrum."""
    grid = g.grid
    full = oracles.full_spectrum(g.coeffs, grid.n_x)
    rhs = np.zeros_like(full)
    rhs[:, 1] -= oracles.fourier_field(grid, grad_phi) / epsilon
    phys = oracles.real_field(grid, oracles.hermite_shift(full, "raising"))
    prod = oracles.fourier_field(grid, phys * grad_phi[:, None])
    rhs -= prod * oracles.dealias_mask(grid)[:, None] / epsilon
    return oracles.half_spectrum(rhs)


def real_field_coeffs(rng, n_x, n_v):
    """Half-spectrum of a random real, neutral field."""
    half = oracles.random_half_spectrum(rng, n_x, n_v)
    half[0, 0] = 0.0
    return half


def max_rel_diff(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestHalfSpectrumMatchesComplexFft:
    """The real-FFT operators against the full-spectrum complex-FFT formulas."""

    cases = given(
        n_x=st.integers(2, 64).map(lambda h: 2 * h),
        n_v=st.integers(4, 48),
        epsilon=st.floats(1e-3, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )

    @staticmethod
    def field(n_x, n_v, seed):
        grid, basis = SpatialGrid(n_x=n_x), HermiteBasis(n_v=n_v)
        coeffs = real_field_coeffs(np.random.default_rng(seed), n_x, n_v)
        return SpectralField(grid, basis, coeffs)

    @settings(max_examples=40, deadline=None)
    @cases
    def test_moments_and_poisson(self, n_x, n_v, epsilon, seed):
        g = self.field(n_x, n_v, seed)
        mac = moments(g)
        a = complex_fft_density(g)
        assert max_rel_diff(mac.a, a) <= 1e-14
        want_phi, want_grad = complex_fft_poisson(g.grid, a)
        phi, grad_phi = solve_poisson(g.grid, a)
        assert max_rel_diff(phi, want_phi) <= 1e-14
        for grad_phi in (grad_phi, mac.grad_phi):
            assert max_rel_diff(grad_phi, want_grad) <= 1e-14

    @settings(max_examples=40, deadline=None)
    @cases
    def test_rhs(self, n_x, n_v, epsilon, seed):
        # the coupling with g's own field, from the oracle's Poisson solve
        g = self.field(n_x, n_v, seed)
        _, grad_phi = complex_fft_poisson(g.grid, complex_fft_density(g))
        got = vpfp_rhs(g, epsilon)
        assert max_rel_diff(got, complex_fft_coupling(g, grad_phi, epsilon)) <= 1e-14
