import numpy as np
import pytest

from fracsol.kp import (
    blt_ratio,
    dx_inv_dy,
    field2d_from_function,
    field2d_from_values,
    kp_identity_consistency,
    kp_rescale,
    make_grid2d,
)


@pytest.fixture(scope="module")
def grid2d():
    return make_grid2d(128, 128, 20.0, 20.0)


def gaussian2d(x, y):
    return np.exp(-(x**2) - y**2)


class TestGrid2D:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            make_grid2d(100, 128, 10.0, 10.0)
        with pytest.raises(ValueError):
            make_grid2d(128, 128, -1.0, 10.0)

    def test_wavenumbers(self, grid2d):
        assert grid2d.xi.shape == (128, 1)
        assert grid2d.eta.shape == (1, 128)
        assert np.count_nonzero(grid2d.xi == 0.0) == 1


class TestDxInvDy:
    def test_exact_x_derivative_maps_to_y_derivative(self, grid2d):
        # g must have y-independent x-integral (here zero: odd in x) so that
        # dg/dy stays inside the zero-x-mean space the operator maps into
        g = lambda x, y: x * gaussian2d(x, y)
        u = field2d_from_function(
            grid2d, lambda x, y: (1.0 - 2.0 * x**2) * gaussian2d(x, y))  # dg/dx
        out = dx_inv_dy(u)
        expected = field2d_from_function(
            grid2d, lambda x, y: -2.0 * y * g(x, y))  # dg/dy
        assert np.max(np.abs(out.values - expected.values)) < 1e-10

    def test_single_fourier_mode(self, grid2d):
        # on the box, sin(kx x) sin(ky y) maps with multiplier ky/kx
        kx = np.pi / grid2d.Lx
        ky = 2.0 * np.pi / grid2d.Ly
        u = field2d_from_function(grid2d, lambda x, y: np.sin(kx * x) * np.sin(ky * y))
        out = dx_inv_dy(u)
        expected = field2d_from_function(
            grid2d, lambda x, y: (ky / kx) * -np.cos(kx * x) * np.cos(ky * y))
        assert np.max(np.abs(out.values - expected.values)) < 1e-12

    def test_rejects_nonzero_x_mean(self, grid2d):
        u = field2d_from_function(grid2d, lambda x, y: gaussian2d(x, y))
        with pytest.raises(ValueError, match="zero x-line means"):
            dx_inv_dy(u)

    def test_projection_repairs_field(self, grid2d):
        u = field2d_from_function(grid2d, gaussian2d)
        # removing every x-line mean projects onto the operator's domain
        proj = field2d_from_values(grid2d, u.values - u.values.mean(axis=0))
        out = dx_inv_dy(proj)  # no raise
        assert np.all(np.isfinite(out.values))

    def test_composition_with_x_derivative(self, grid2d):
        # dx_inv_dy . d/dx = d/dy on smooth zero-x-mean fields
        g = field2d_from_function(grid2d, lambda x, y: np.sin(np.pi * x / 10.0)
                                  * gaussian2d(x / 3.0, y / 3.0))
        gx_hat = 1j * grid2d.xi * np.fft.fft2(g.values)
        gx = field2d_from_values(grid2d, np.fft.ifft2(gx_hat).real)
        out = dx_inv_dy(gx)
        gy_hat = 1j * grid2d.eta * np.fft.fft2(g.values)
        gy = np.fft.ifft2(gy_hat).real
        assert np.max(np.abs(out.values - gy)) < 1e-10


class TestIdentityChain:
    def test_reference_point(self):
        rep = kp_identity_consistency(1.0, 1.0, -1)
        ints = rep.integrals
        assert (ints.a, ints.b, ints.d, ints.e) == (0.25, 3.0, 0.25, 1.0)
        assert rep.residual_po1 < 1e-15
        assert rep.residual_po2 < 1e-15
        assert rep.residual_energ < 1e-15
        assert not rep.nonexistence

    def test_critical_alpha_boundary(self):
        rep = kp_identity_consistency(0.8, 1.0, -1)
        assert rep.integrals.a == 0.0
        assert rep.nonexistence

    def test_supercritical_alpha_flags_nonexistence(self):
        rep = kp_identity_consistency(0.5, 1.0, -1)
        assert rep.integrals.a < 0.0
        assert rep.nonexistence

    def test_defocusing_forces_trivial_solution(self):
        for alpha in (0.5, 1.0, 1.9):
            rep = kp_identity_consistency(alpha, 1.0, 1)
            assert rep.trivial_only
            assert rep.integrals.d == rep.integrals.e == 0.0

    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0, 4.0 / 3.0, 1.9])
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_chain_closes_algebraically(self, alpha, c):
        for eps in (-1, 1):
            rep = kp_identity_consistency(alpha, c, eps)
            assert rep.residual_po1 <= 1e-12
            assert rep.residual_po2 <= 1e-12
            assert rep.residual_energ <= 1e-12

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            kp_identity_consistency(1.0, -1.0, -1)
        with pytest.raises(ValueError):
            kp_identity_consistency(1.0, 1.0, 2)
        # a non-finite alpha or c made NaN residuals that max() then dropped
        for alpha, c in ((np.nan, 1.0), (np.inf, 1.0), (1.0, np.inf)):
            with pytest.raises(ValueError):
                kp_identity_consistency(alpha, c, -1)


class TestBLT:
    def x_derivative_field(self, grid2d):
        return field2d_from_function(grid2d, lambda x, y: -2.0 * x * gaussian2d(x, y))

    def test_exponent_bookkeeping(self, grid2d):
        rep = blt_ratio(self.x_derivative_field(grid2d), 1.0)
        assert abs(rep.exp_l2 - 1.0 / 3.0) < 1e-15
        assert abs(rep.exp_hx - 13.0 / 6.0) < 1e-15
        assert abs(rep.exp_l2 + rep.exp_hx + 0.5 - 3.0) < 1e-15

    def test_amplitude_invariance(self, grid2d):
        f = self.x_derivative_field(grid2d)
        r1 = blt_ratio(f, 0.9).ratio
        big = field2d_from_values(grid2d, 7.0 * f.values)
        r2 = blt_ratio(big, 0.9).ratio
        assert abs(r2 - r1) < 1e-12 * r1

    def test_translation_invariance(self):
        # needs the fields fully resolved so the off-lattice shift costs nothing
        fine = make_grid2d(256, 256, 16.0, 16.0)
        f = field2d_from_function(
            fine, lambda x, y: -2.0 * (x - 1.5) * gaussian2d(x - 1.5, y + 2.0))
        f0 = field2d_from_function(fine, lambda x, y: -2.0 * x * gaussian2d(x, y))
        r1 = blt_ratio(f, 0.9).ratio
        r0 = blt_ratio(f0, 0.9).ratio
        assert abs(r1 - r0) < 1e-12 * r0

    def test_dilation_family_uniformly_bounded(self, grid2d):
        ratios = []
        for lam in np.linspace(0.5, 2.0, 10):
            f = kp_rescale(lambda x, y: -2.0 * x * gaussian2d(x, y),
                           float(lam), 0.9, grid2d)
            ratios.append(blt_ratio(f, 0.9).ratio)
        assert max(ratios) < 10.0 * min(ratios)

    def test_rejects_y_independent(self, grid2d):
        f = field2d_from_function(
            grid2d, lambda x, y: -2.0 * x * np.exp(-(x**2)) * np.ones_like(y))
        with pytest.raises(ValueError, match="depend on y"):
            blt_ratio(f, 0.9)

    def test_rejects_alpha_out_of_range(self, grid2d):
        with pytest.raises(ValueError):
            blt_ratio(self.x_derivative_field(grid2d), 0.7)


class TestKPScaling:
    def test_l2_critical_exponent(self):
        # |u_lam|_2 = lam^{(3 alpha - 4)/4} |u|_2; at alpha = 4/3 the norm is
        # scale-invariant; the compressed fields need the finer grid
        fine = make_grid2d(256, 256, 16.0, 16.0)
        f = lambda x, y: -2.0 * x * gaussian2d(x, y)
        base = field2d_from_function(fine, f)
        area = fine.dx * fine.dy
        n0 = np.sqrt(area * np.sum(base.values**2))
        for alpha, lam in ((4.0 / 3.0, 1.5), (1.0, 1.25), (0.9, 2.0)):
            scaled = kp_rescale(f, lam, alpha, fine)
            n1 = np.sqrt(area * np.sum(scaled.values**2))
            predicted = lam ** ((3.0 * alpha - 4.0) / 4.0) * n0
            assert abs(n1 - predicted) < 1e-8 * predicted
