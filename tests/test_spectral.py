"""Spectral substrate: velocity nodes, transforms, derivatives, the d/dv
recurrence.

The recurrence is checked against the Gauss-Hermite quadrature oracle of
tests/oracles.py, which integrates products of basis functions exactly and
never touches the coefficient-space implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpfp.operators import moments
from vpfp.spectral import (
    MAX_N_V,
    ConfigurationError,
    HermiteBasis,
    SpatialGrid,
    SpectralField,
    hermite_shift_coeffs,
    inverse_transform,
    parseval_sq,
    real_field,
)

import oracles
from conftest import basis_element, random_distribution
from oracles import (
    HERMEGAUSS_MAX_N_V,
    analysis,
    christoffel_weights,
    forward_transform,
    l2_norm,
    quad_weights,
    quadrature_oracle_moment,
    spatial_derivative,
)


def psi0(v):
    return (2 * np.pi) ** (-0.25) * np.exp(-(v**2) / 4)


class TestGridAndBasis:
    def test_grid_invariants(self, grid):
        assert grid.nodes[0] == 0.0
        assert len(grid.nodes) == grid.n_x
        spacing = np.diff(grid.nodes)
        assert np.allclose(spacing, spacing[0])
        assert grid.nodes[-1] < grid.length  # endpoint-exclusive

    @pytest.mark.parametrize("bad", [3, 5, 2])
    def test_grid_rejects_bad_sizes(self, bad):
        with pytest.raises(ConfigurationError):
            SpatialGrid(n_x=bad)

    def test_n_v_cap_builds_finite_orthonormal_rule(self):
        # the nodes and table are finite, psi_0 is a normal double at every
        # node, and the Christoffel weights make an orthonormal rule
        basis = HermiteBasis(n_v=MAX_N_V)
        v = basis.quad_nodes
        assert v.shape == (2 * MAX_N_V,) and np.all(np.diff(v) > 0)
        assert np.all(np.isfinite(v)) and np.all(np.isfinite(basis.synthesis))
        assert np.min(basis.synthesis[:, 0]) >= np.finfo(float).tiny
        gram = analysis(basis, christoffel_weights(basis)) @ basis.synthesis
        assert np.max(np.abs(gram - np.eye(MAX_N_V))) < 1e-13

    def test_n_v_above_cap_rejected(self):
        with pytest.raises(ConfigurationError, match=f"\\[4, {MAX_N_V}\\].*underflows"):
            HermiteBasis(n_v=MAX_N_V + 1)
        # the cap is tight: psi_0 at the largest root of He_{2 (MAX_N_V + 1)}
        # (numpy's hermeroots) is subnormal
        roots = np.polynomial.hermite_e.hermeroots([0] * (2 * MAX_N_V + 2) + [1])
        assert psi0(np.max(roots)) < np.finfo(float).tiny

    @pytest.mark.parametrize("n_v", [4, 5, 16, 64, 127, 128, HERMEGAUSS_MAX_N_V, 256, MAX_N_V])
    def test_nodes_match_golub_welsch(self, n_v):
        # the asymptotic guesses polished by Halley steps against the
        # eigenvalues of the Jacobi matrix, to 8 ulps of max(|v|, 1): near
        # v = 0 the psi recurrence fixes a root only to about 1e-16, which
        # is many ulps of a node such as 0.06
        v = HermiteBasis(n_v=n_v).quad_nodes
        want = oracles.golub_welsch_nodes(n_v)
        assert v.shape == (2 * n_v,) and np.all(np.diff(v) > 0)
        assert np.all(np.abs(v - want) <= 8 * np.spacing(np.maximum(np.abs(want), 1.0)))

    @pytest.mark.parametrize("n_v", [4, 64, MAX_N_V])
    def test_basis_needs_no_eigensolver(self, monkeypatch, n_v):
        def refuse(*args, **kwargs):
            raise AssertionError("the basis called an eigensolver")

        for name in ("eigvalsh", "eigh", "eigvals"):
            monkeypatch.setattr(np.linalg, name, refuse)
        basis = HermiteBasis(n_v=n_v)
        assert np.all(np.isfinite(basis.synthesis))

    @pytest.mark.parametrize("n_v", [4, 5, 16, 64, 127, HERMEGAUSS_MAX_N_V])
    def test_nodes_match_hermegauss(self, n_v):
        # the nodes against numpy's, and the Christoffel weights
        # against hermegauss's plain-measure weights, where those are finite
        basis = HermiteBasis(n_v=n_v)
        nodes, _ = np.polynomial.hermite_e.hermegauss(2 * n_v)
        assert np.max(np.abs(basis.quad_nodes - nodes)) <= 1e-14 * np.max(nodes)
        w = quad_weights(basis)
        assert np.max(np.abs(christoffel_weights(basis) - w) / w) < 1e-12

    def test_orthonormality_under_quadrature(self, basis):
        gram = analysis(basis) @ basis.synthesis
        assert np.max(np.abs(gram - np.eye(basis.n_v))) < 1e-12

    def test_psi0_is_sqrt_maxwellian(self, basis):
        v = basis.quad_nodes
        expected = (2 * np.pi) ** (-0.25) * np.exp(-(v**2) / 4)
        assert np.allclose(basis.synthesis[:, 0], expected, atol=1e-14)
        # int psi_0 sqrt(M) dv = 1
        total = np.sum(quad_weights(basis) * basis.synthesis[:, 0] ** 2)
        assert abs(total - 1.0) < 1e-12


class TestTransforms:
    def test_constant_maxwellian_field(self, grid, basis):
        values = np.ones((grid.n_x, 1)) * basis.synthesis[:, 0]
        f = forward_transform(grid, basis, values)
        assert abs(f.coeffs[0, 0] - 1.0) < 1e-12
        rest = f.coeffs.copy()
        rest[0, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-12

    def test_cos_psi1_lands_on_two_modes(self, grid, basis):
        x = grid.nodes
        values = np.cos(x)[:, None] * basis.synthesis[:, 1][None, :]
        f = forward_transform(grid, basis, values)
        # level 1, mode 1; its conjugate mode -1 is implied by the half-spectrum
        assert f.coeffs.shape == (basis.n_v, grid.n_x // 2 + 1)
        assert abs(f.coeffs[1, 1] - 0.5) < 1e-12
        masked = f.coeffs.copy()
        masked[1, 1] = 0.0
        assert np.max(np.abs(masked)) < 1e-12

    def test_round_trip_band_limited(self, grid, basis, rng):
        g = random_distribution(rng, grid, basis, neutral=False)
        values = inverse_transform(g)
        back = forward_transform(grid, basis, values)
        scale = np.max(np.abs(g.coeffs))
        assert np.max(np.abs(back.coeffs - g.coeffs)) < 1e-12 * scale

    def test_round_trip_against_direct_evaluation(self, grid, basis, rng):
        # oracle: evaluate the basis expansion sum at the nodes directly
        g = random_distribution(rng, grid, basis, neutral=False)
        x = grid.nodes
        wavenumbers = 2 * np.pi * np.fft.fftfreq(grid.n_x, grid.length / grid.n_x)
        modes = np.exp(1j * np.outer(x, wavenumbers))
        direct = np.real(modes @ oracles.full_spectrum(g.coeffs, grid.n_x)) @ basis.synthesis.T
        assert np.allclose(direct, inverse_transform(g), atol=1e-11)

    def test_shape_mismatch_rejected(self, grid, basis):
        # a field's coefficients are the half-spectrum of its grid and basis
        for shape in [(basis.n_v, grid.n_x), (grid.n_half, basis.n_v), (basis.n_v + 1, grid.n_half)]:
            with pytest.raises(ConfigurationError, match="does not match"):
                SpectralField(grid, basis, np.zeros(shape, dtype=complex))

    def test_parseval(self, grid, basis, rng):
        g = random_distribution(rng, grid, basis, neutral=False)
        values = inverse_transform(g)
        dx = grid.length / grid.n_x
        quad_sq = np.sum(quad_weights(basis) * values**2) * dx
        coeff_sq = l2_norm(g) ** 2
        assert abs(quad_sq - coeff_sq) < 1e-10 * coeff_sq

    def test_parseval_sq_rows_and_orders(self, grid, basis, rng):
        # one norm per Hermite row, and the H^1_x weight 1 + k^2, against
        # sums over the full spectrum
        c = random_distribution(rng, grid, basis, neutral=False).coeffs
        full_sq = np.abs(oracles.full_spectrum(c, grid.n_x)) ** 2
        sq = c.real**2 + c.imag**2
        rows = parseval_sq(grid, sq)
        assert rows.shape == (basis.n_v,)
        assert np.allclose(rows, grid.length * full_sq.sum(axis=0), rtol=1e-13, atol=0)
        h1 = parseval_sq(grid, sq.sum(axis=0), 1)
        expected = grid.length * np.sum((1.0 + oracles.k_sq(grid))[:, None] * full_sq)
        assert h1 == pytest.approx(expected, rel=1e-13)

    def test_batch_reduces_per_member(self, grid, basis, rng):
        # a batch's point values are those of each member alone
        members = [random_distribution(rng, grid, basis, neutral=False) for _ in range(3)]
        batch = SpectralField(grid, basis, np.stack([m.coeffs for m in members], axis=1))
        values = inverse_transform(batch)
        assert values.shape == (3, grid.n_x, 2 * basis.n_v)
        for i, g in enumerate(members):
            assert np.array_equal(values[i], inverse_transform(g))


class TestSpatialDerivative:
    def test_sin_to_cos(self, grid, basis):
        x = grid.nodes
        values = np.sin(x)[:, None] * basis.synthesis[:, 0]
        f = forward_transform(grid, basis, values)
        df = spatial_derivative(f)
        expected = np.cos(x)[:, None] * basis.synthesis[:, 0]
        assert np.allclose(inverse_transform(df), expected, atol=1e-12)

    def test_constant_to_zero(self, grid, basis):
        f = basis_element(grid, basis, 0, 0)
        assert np.max(np.abs(spatial_derivative(f).coeffs)) == 0.0

    def test_cos2x(self, grid, basis):
        x = grid.nodes
        values = np.cos(2 * x)[:, None] * basis.synthesis[:, 0]
        df = spatial_derivative(forward_transform(grid, basis, values))
        expected = -2 * np.sin(2 * x)[:, None] * basis.synthesis[:, 0]
        assert np.allclose(inverse_transform(df), expected, atol=1e-12)

    def test_hermitian_symmetry_preserved(self, grid, basis, rng):
        # a half-spectrum is the spectrum of a real field iff its rows m = 0
        # and m = n_x/2 are real; the derivative symbol is 0 at the Nyquist
        # mode, so both stay real, and the rest matches the complex FFT
        g = random_distribution(rng, grid, basis)
        df = spatial_derivative(g)
        assert np.all(df.coeffs[:, [0, -1]].imag == 0.0)
        assert np.all(df.coeffs[:, -1] == 0.0)
        full = oracles.full_spectrum(g.coeffs, grid.n_x) * (1j * oracles.wavenumbers(grid))[:, None]
        want = oracles.half_spectrum(full)[:, :-1]
        assert np.max(np.abs(df.coeffs[:, :-1] - want)) < 1e-13

    def test_commutes_with_shifts(self, grid, basis, rng):
        g = random_distribution(rng, grid, basis)
        n_v = basis.n_v
        one = spatial_derivative(g.with_coeffs(hermite_shift_coeffs(g.coeffs)[:n_v]))
        dg = spatial_derivative(g)
        two = dg.with_coeffs(hermite_shift_coeffs(dg.coeffs)[:n_v])
        assert np.max(np.abs(one.coeffs - two.coeffs)) < 1e-13


class TestHermiteShifts:
    """The d/dv recurrence is compared against the quadrature moment oracle."""

    def shift_oracle(self, grid, basis, f):
        """Project the analytically differentiated point values onto each psi_k."""
        shifted = self.dv_pointwise(basis, f)
        out = np.zeros((grid.n_x, basis.n_v))
        for k in range(basis.n_v):
            psi_k = basis.synthesis[:, k]
            out[:, k] = quadrature_oracle_moment(grid, basis, shifted, lambda _v, p=psi_k: p)
        return out

    @staticmethod
    def dv_pointwise(basis, f):
        """d/dv of the expansion, evaluated exactly from the coefficients
        via the derivative of the Hermite functions (chain rule on the
        tabulated recurrence with one extra level)."""
        ext = basis.functions(n_levels=basis.n_v + 1)
        v = basis.quad_nodes
        coeffs_x = np.fft.irfft(f.coeffs, n=f.grid.n_x, norm="forward").T
        # psi_n' = (sqrt(n) psi_{n-1} - sqrt(n+1) psi_{n+1}) / 2  evaluated pointwise
        n = np.arange(basis.n_v)
        dpsi = 0.5 * (np.sqrt(n)[None, :] * np.pad(ext[:, :-2], ((0, 0), (1, 0)))[:, : basis.n_v]
                      - np.sqrt(n + 1)[None, :] * ext[:, 1 : basis.n_v + 1])
        return coeffs_x @ dpsi.T

    @pytest.mark.parametrize("n_in,expected", [
        (2, {1: np.sqrt(2.0) / 2, 3: -np.sqrt(3.0) / 2}),
        (0, {1: -0.5}),
    ])
    def test_single_mode_against_oracle(self, grid, basis, n_in, expected):
        f = basis_element(grid, basis, 0, n_in)
        shifted = f.with_coeffs(hermite_shift_coeffs(f.coeffs)[: basis.n_v])
        oracle = self.shift_oracle(grid, basis, f)
        for n_out, val in expected.items():
            assert abs(shifted.coeffs[n_out, 0] - val) < 1e-10
            assert abs(oracle[0, n_out] - val) < 1e-10
        assert np.max(np.abs(shifted.coeffs[:, 0].real - oracle[0])) < 1e-10

    def test_all_band_limited_modes_match_oracle(self, grid, basis, rng):
        # content below the top mode, so truncation plays no role
        g = random_distribution(rng, grid, basis, band_limit=basis.n_v - 1)
        shifted = g.with_coeffs(hermite_shift_coeffs(g.coeffs)[: basis.n_v])
        oracle = self.shift_oracle(grid, basis, g)
        recon = inverse_transform(shifted)
        oracle_recon = oracle @ basis.synthesis.T
        assert np.max(np.abs(recon - oracle_recon)) < 1e-10

    def test_truncation_drops_top_spill(self, grid, basis):
        top = basis.n_v - 1
        f = basis_element(grid, basis, 0, top)
        extended = hermite_shift_coeffs(f.coeffs)
        assert extended.shape[0] == basis.n_v + 1
        assert extended[top + 1, 0] == -np.sqrt(top + 1) / 2  # the spill gets the extra level
        shifted = extended[: basis.n_v]
        assert shifted[top - 1, 0] == np.sqrt(top) / 2  # only the level below is fed
        shifted[top - 1, 0] = 0.0
        assert np.max(np.abs(shifted)) == 0.0  # spill beyond n_v dropped

    @settings(max_examples=60, deadline=None)
    @given(shape=st.lists(st.integers(1, 6), min_size=0, max_size=2),
           n_in=st.integers(1, 12), extend=st.integers(0, 1),
           is_complex=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_padded_formula(self, shape, n_in, extend, is_complex, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal((*shape, n_in))
        if is_complex:
            coeffs = coeffs + 1j * rng.standard_normal((*shape, n_in))
        # the package shifts along axis 0 and keeps the spill level, which a
        # truncating caller slices off; the padded oracle shifts along the last axis
        got = hermite_shift_coeffs(np.moveaxis(coeffs, -1, 0))[: n_in + extend]
        want = np.moveaxis(oracles.hermite_shift(coeffs, "d_dv", extend), -1, 0)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(first=st.integers(0, 3), n_in=st.integers(0, 12), width=st.integers(1, 6),
           spare=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def test_levels_from_first_equal_zero_padded_field(self, first, n_in, width, spare, seed):
        # a view that drops the zero levels below first, as the diagnostics
        # pass (I - P) g, shifts to the bits of the padded field, signed
        # zeros included, with or without a scratch array for the second term
        # and an output buffer, both holding stale values, as a tower reuses them
        rng = np.random.default_rng(seed)
        padded = np.zeros((first + n_in, width), dtype=complex)
        padded[first:] = rng.standard_normal((n_in, width)) + 1j * rng.standard_normal((n_in, width))
        padded[first:, 0] = -0.0
        want = hermite_shift_coeffs(padded).tobytes()
        scratch = np.full((n_in + spare, width), np.nan, dtype=complex)
        out = np.full((first + n_in + 1 + spare, width), np.nan, dtype=complex)
        for buffers in ((None, None), (scratch, None), (None, out), (scratch, out)):
            got = hermite_shift_coeffs(padded[first:], first, *buffers)
            assert got.shape == (first + n_in + 1, width) and got.tobytes() == want


class TestQuadratureExactness:
    """The order-2 n_v Gauss-Hermite rule at the basis's nodes is exact on
    every retained level: with numpy's hermegauss weights where they are
    finite, and with Christoffel weights from there up to MAX_N_V."""

    @staticmethod
    def check_rule(n_v, n_x, seed, weights_of, bound):
        basis, grid = HermiteBasis(n_v=n_v), SpatialGrid(n_x=n_x)
        weights = weights_of(basis)
        assert np.max(np.abs(analysis(basis, weights) @ basis.synthesis - np.eye(n_v))) <= bound

        coeffs = oracles.random_half_spectrum(np.random.default_rng(seed), n_x, n_v)
        coeffs[0, 0] = 0.0
        g = SpectralField(grid, basis, coeffs)
        values = inverse_transform(g)
        a = quadrature_oracle_moment(grid, basis, values, psi0, weights)
        b = quadrature_oracle_moment(grid, basis, values, lambda v: v * psi0(v), weights)
        mac_a, mac_b = moments(g).a, real_field(grid, coeffs[1])  # b is Hermite row 1
        assert np.max(np.abs(a - mac_a)) <= bound * np.max(np.abs(mac_a))
        assert np.max(np.abs(b - mac_b)) <= bound * np.max(np.abs(mac_b))

    @settings(max_examples=40, deadline=None)
    @given(n_v=st.integers(4, HERMEGAUSS_MAX_N_V), n_x=st.integers(2, 24).map(lambda h: 2 * h),
           seed=st.integers(0, 2**32 - 1))
    def test_orthonormal_and_reproduces_moments(self, n_v, n_x, seed):
        self.check_rule(n_v, n_x, seed, quad_weights, 1e-13)

    @settings(max_examples=20, deadline=None)
    @given(n_v=st.integers(HERMEGAUSS_MAX_N_V + 1, MAX_N_V),
           n_x=st.integers(2, 24).map(lambda h: 2 * h), seed=st.integers(0, 2**32 - 1))
    def test_christoffel_rule_up_to_cap(self, n_v, n_x, seed):
        self.check_rule(n_v, n_x, seed, christoffel_weights, 1e-13)


class TestQuadratureOracle:
    def test_maxwellian_mass(self, grid, basis):
        values = np.ones((grid.n_x, 1)) * basis.synthesis[:, 0]
        sqrt_m = lambda v: (2 * np.pi) ** (-0.25) * np.exp(-(v**2) / 4)
        moment = quadrature_oracle_moment(grid, basis, values, sqrt_m)
        assert np.allclose(moment, 1.0, atol=1e-12)

    def test_unit_variance(self, grid, basis):
        v = basis.quad_nodes
        sqrt_m = (2 * np.pi) ** (-0.25) * np.exp(-(v**2) / 4)
        values = np.ones((grid.n_x, 1)) * (v * sqrt_m)[None, :]
        moment = quadrature_oracle_moment(
            grid, basis, values, lambda v: v * (2 * np.pi) ** (-0.25) * np.exp(-(v**2) / 4))
        assert np.allclose(moment, 1.0, atol=1e-12)

    def test_stress_weight_on_psi2(self, grid, basis):
        # Gaussian moment identity: E[v^4] - 2 E[v^2] + 1 = 2, normalized by
        # the psi_2 coefficient sqrt(2)
        values = np.ones((grid.n_x, 1)) * basis.synthesis[:, 2][None, :]
        weight = lambda v: (v**2 - 1) * (2 * np.pi) ** (-0.25) * np.exp(-(v**2) / 4)
        moment = quadrature_oracle_moment(grid, basis, values, weight)
        assert np.allclose(moment, np.sqrt(2.0), atol=1e-12)
