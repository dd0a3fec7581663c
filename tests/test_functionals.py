import numpy as np
import pytest

from helpers import two_sided_xi

from fracsol import (
    DispersionSymbol,
    bbm_hamiltonian,
    bbm_quadratic,
    energy_fkdv,
    field_from_values,
    gn_check,
    make_grid,
    mass,
    shift_field,
    weinstein,
)

POWER_1 = DispersionSymbol.power(1.0)


def bo_profile(grid):
    return field_from_values(grid, 4.0 / (1.0 + grid.x**2))


class TestMass:
    def test_zero(self):
        g = make_grid(64, 5.0)
        assert mass(field_from_values(g, np.zeros(g.n))) == 0.0

    def test_constant(self):
        g = make_grid(64, 5.0)
        u = field_from_values(g, np.full(g.n, 3.0))
        assert abs(mass(u) - 9.0 * 5.0) < 1e-12  # c^2 L

    def test_benjamin_ono_analytic(self, grid_desk):
        # int (4/(1+x^2))^2 dx = 8 pi, mass = 4 pi
        assert abs(mass(bo_profile(grid_desk)) - 4.0 * np.pi) < 1e-4


class TestEnergy:
    def test_zero(self):
        g = make_grid(64, 5.0)
        fv = energy_fkdv(field_from_values(g, np.zeros(g.n)), POWER_1)
        assert fv.value == 0.0

    def test_benjamin_ono_terms(self, grid_desk):
        fv = energy_fkdv(bo_profile(grid_desk), POWER_1)
        parts = dict(fv.components)
        assert abs(parts["kinetic"] - 2.0 * np.pi) < 1e-3
        assert abs(parts["cubic"] + 4.0 * np.pi) < 1e-3
        assert abs(fv.value + 2.0 * np.pi) < 1e-3

    def test_components_sum_to_value(self, grid_desk, rng):
        u = field_from_values(grid_desk, rng.standard_normal(grid_desk.n)
                              * np.exp(-(grid_desk.x / 30.0) ** 2))
        fv = energy_fkdv(u, DispersionSymbol.power(0.7))
        assert abs(fv.value - sum(v for _, v in fv.components)) < 1e-12 * (1 + abs(fv.value))

    def test_sign_flip_parity(self, grid_desk):
        u = bo_profile(grid_desk)
        minus = energy_fkdv(-1.0 * u, POWER_1)
        plus = energy_fkdv(u, POWER_1)
        kinetic = dict(plus.components)["kinetic"]
        cubic = -dict(plus.components)["cubic"]
        assert abs(minus.value - (kinetic + cubic)) < 1e-10


class TestBBMFunctionals:
    def test_quadratic_zero(self):
        g = make_grid(64, 5.0)
        zero = field_from_values(g, np.zeros(g.n))
        assert bbm_quadratic(zero, DispersionSymbol.power(0.8)) == 0.0

    def test_quadratic_sine(self):
        g = make_grid(256, np.pi)
        u = field_from_values(g, np.sin(g.x))
        assert abs(bbm_quadratic(u, POWER_1) - np.pi) < 1e-12

    def test_quadratic_dominates_mass(self, grid_desk, rng):
        u = field_from_values(grid_desk,
                              rng.standard_normal(grid_desk.n)
                              * np.exp(-(grid_desk.x / 40.0) ** 2))
        assert bbm_quadratic(u, DispersionSymbol.power(0.75)) >= mass(u)

    def test_hamiltonian_constant(self):
        g = make_grid(64, 1.0)  # box length 2
        u = field_from_values(g, np.ones(g.n))
        assert abs(bbm_hamiltonian(u) - 4.0 / 3.0) < 1e-12

    def test_hamiltonian_minus_mass_is_cubic_sixth(self, grid_desk):
        u = bo_profile(grid_desk)
        cubic = grid_desk.dx * np.sum(u.values**3)
        assert abs(bbm_hamiltonian(u) - mass(u) - cubic / 6.0) < 1e-10


class TestWeinstein:
    def test_benjamin_ono_value(self, grid_desk):
        # FrLe.7 at alpha = 1 gives (2/3) sqrt(pi)
        target = (2.0 / 3.0) * np.sqrt(np.pi)
        assert abs(weinstein(bo_profile(grid_desk), 1.0) - target) < 1e-3 * target

    def test_amplitude_invariance_at_alpha_one(self, grid_desk):
        u = bo_profile(grid_desk)
        j1 = weinstein(u, 1.0)
        j2 = weinstein(2.0 * u, 1.0)
        assert abs(j2 - j1) < 1e-12 * j1

    def test_amplitude_invariance_any_alpha(self, grid_desk):
        u = bo_profile(grid_desk)
        for alpha in (0.6, 0.75, 1.4):
            j1 = weinstein(u, alpha)
            j2 = weinstein(7.0 * u, alpha)
            assert abs(j2 - j1) < 1e-12 * j1

    def test_zero_field_rejected(self):
        g = make_grid(64, 5.0)
        with pytest.raises(ValueError):
            weinstein(field_from_values(g, np.zeros(g.n)), 0.75)

    def test_alpha_range(self, grid_desk):
        u = bo_profile(grid_desk)
        with pytest.raises(ValueError):
            weinstein(u, 0.3)
        # the lower end is p/(p+2)
        weinstein(u, 0.45)
        with pytest.raises(ValueError, match="2/4"):
            weinstein(u, 0.45, p=2)

    def test_power_p_scale_invariance(self, grid_desk):
        # at p = 2 the exponents p/(2a) and ((p+2)a - p)/(2a) cancel both the
        # amplitude and (at a = 2, where the symbol is smooth) the dilation
        u = field_from_values(grid_desk, np.exp(-grid_desk.x**2))
        wide = field_from_values(grid_desk, np.exp(-((grid_desk.x / 3.0) ** 2)))
        j = weinstein(u, 2.0, p=2)
        assert abs(weinstein(5.0 * u, 2.0, p=2) - j) < 1e-12 * j
        assert abs(weinstein(wide, 2.0, p=2) - j) < 1e-10 * j


class TestGNCheck:
    def test_ratio_is_inverse_weinstein(self, grid_desk):
        u = bo_profile(grid_desk)
        rep = gn_check(u, 0.75, C=1.0)
        assert abs(rep.ratio - 1.0 / weinstein(u, 0.75)) < 1e-12

    def test_ground_state_saturates(self, q075_wave):
        # sharp constant = 1/J(Q); at C = 1/J(Q) the ground state sits at equality
        q = q075_wave.profile
        sharp = 1.0 / weinstein(q, 0.75)
        rep = gn_check(q, 0.75, C=sharp * (1.0 + 1e-10))
        assert rep.holds
        gauss = field_from_values(q.grid, np.exp(-q.grid.x**2))
        rep_g = gn_check(gauss, 0.75, C=sharp)
        assert rep_g.holds
        assert rep_g.ratio < rep.ratio

    def test_rejects_energy_supercritical(self, grid_desk):
        with pytest.raises(ValueError):
            gn_check(bo_profile(grid_desk), 0.2, C=1.0)


class TestOracleAgreement:
    """Direct DFT-matrix quadrature oracle on a coarse grid (no FFT path)."""

    def setup_method(self):
        self.g = make_grid(64, 10.0)
        self.u = field_from_values(self.g, np.exp(-self.g.x**2) * (1.0 + 0.2 * self.g.x))

    def _dft_power(self, s):
        x, xi, n = self.g.x, two_sided_xi(self.g), self.g.n
        uhat = np.array([np.sum(self.u.values * np.exp(-1j * w * (x - x[0]))) for w in xi])
        return self.g.dx / n * np.sum(np.abs(xi) ** s * np.abs(uhat) ** 2)

    def test_energy_against_brute_force(self):
        alpha = 0.7
        fv = energy_fkdv(self.u, DispersionSymbol.power(alpha))
        kinetic_oracle = 0.5 * self._dft_power(alpha)
        cubic_oracle = self.g.dx * np.sum(self.u.values**3) / 6.0
        assert abs(fv.value - (kinetic_oracle - cubic_oracle)) < 1e-10

    def test_weinstein_against_brute_force(self):
        alpha = 0.7
        cube = self.g.dx * np.sum(np.abs(self.u.values) ** 3)
        l2 = self.g.dx * np.sum(self.u.values**2)
        oracle = (self._dft_power(alpha) ** (0.5 / alpha)
                  * l2 ** ((3 * alpha - 1) / (2 * alpha)) / cube)
        assert abs(weinstein(self.u, alpha) - oracle) < 1e-10 * oracle


class TestTranslationInvariance:
    @pytest.mark.parametrize("y", [1.234, -17.5])
    def test_all_functionals(self, grid_desk, y):
        u = bo_profile(grid_desk)
        v = shift_field(u, y)
        sym = DispersionSymbol.power(0.75)
        pairs = [
            (mass(u), mass(v)),
            (energy_fkdv(u, sym).value, energy_fkdv(v, sym).value),
            (bbm_quadratic(u, sym), bbm_quadratic(v, sym)),
            (bbm_hamiltonian(u), bbm_hamiltonian(v)),
            (weinstein(u, 0.75), weinstein(v, 0.75)),
        ]
        for a, b in pairs:
            assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)
