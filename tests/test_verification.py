from types import SimpleNamespace

import numpy as np
import pytest

from fracsol import (
    ConvergenceError,
    DispersionSymbol,
    ModelSpec,
    field_from_values,
    make_grid,
    petviashvili,
    solve_refined,
    weinstein,
)
from fracsol import verification
from fracsol.ground_state import FBBM, FKDV, GFKDV, solitary_from_profile
from fracsol.verification import (
    commutator_decay,
    gn_scan,
    identity_suite,
    iq_scaling_check,
    make_scan_battery,
    pohojaev_functional_check,
    smooth_bump,
)

POWER = DispersionSymbol.power


class TestIdentitySuite:
    def test_benjamin_ono_kinetic_fraction_values(self, bo_wave):
        # FrLe.5 at alpha = 1: int |D^{1/2}Q|^2 = (c/2) int Q^2 = 4 pi
        reports = {r.name: r for r in identity_suite(bo_wave, tolerance=1e-3)}
        frac = reports["kinetic_fraction"]
        assert abs(frac.lhs - 4.0 * np.pi) < 1e-2
        assert abs(frac.rhs - 4.0 * np.pi) < 1e-2
        assert frac.passed

    def test_all_pass_on_large_box(self):
        # periodization of the worst row scales like (pi/L)^(1+alpha) with an
        # O(4x) amplification over the pohozaev row; this box meets 1e-6
        wave = solve_refined(ModelSpec(family=FKDV, symbol=POWER(0.75)), 1.0,
                             524288, 25600.0)
        reports = identity_suite(wave, tolerance=1e-6)
        assert all(r.passed for r in reports), [
            (r.name, r.relative_residual) for r in reports]

    def test_perturbed_profile_fails(self, q075_wave):
        import dataclasses

        g = q075_wave.profile.grid
        perturbed = field_from_values(
            g, q075_wave.profile.values + 0.01 * np.exp(-g.x**2))
        # keep the converged residual metadata so only the identities judge it
        fake = dataclasses.replace(q075_wave, profile=perturbed)
        reports = identity_suite(fake, tolerance=1e-3)
        assert any(not r.passed for r in reports)

    def test_rejects_unconverged_input(self, q075_wave):
        g = q075_wave.profile.grid
        rough = field_from_values(g, np.exp(-g.x**2))
        wave = solitary_from_profile(rough, 1.0, q075_wave.model)
        with pytest.raises(ValueError, match="residual"):
            identity_suite(wave)

    def test_rejects_non_power_symbol(self, grid_desk):
        model = ModelSpec(family=FKDV, symbol=DispersionSymbol.whitham())
        wave = petviashvili(model, 1.4, grid_desk)
        with pytest.raises(ValueError, match="pure-power"):
            identity_suite(wave)

    @pytest.mark.parametrize("model, c, n, L, tol", [
        (ModelSpec(family=FKDV, symbol=POWER(0.75)), 1.0, 4096, 200.0, 1e-3),
        (ModelSpec(family=GFKDV, symbol=POWER(1.5), p=2), 1.0, 4096, 200.0, 1e-3),
        # the stability gate's grid and tolerance for this model
        (ModelSpec(family=FBBM, symbol=POWER(0.75), bbm_form="derived"), 2.0,
         16384, 400.0, 2e-3),
    ], ids=["fkdv", "gfkdv_p2", "fbbm_derived"])
    def test_each_model_meets_its_identities(self, model, c, n, L, tol):
        wave = petviashvili(model, c, make_grid(n, L))
        reports = identity_suite(wave, tolerance=tol)
        assert [r.name for r in reports] == [
            "energy", "pohozaev", "kinetic_mass", "kinetic_fraction", "cubic_fraction"]
        assert all(r.passed for r in reports), [
            (r.name, r.relative_residual) for r in reports]

    def test_residual_report_structure(self, bo_wave):
        for rep in identity_suite(bo_wave, tolerance=1e-3):
            expected = abs(rep.lhs - rep.rhs) / max(abs(rep.lhs), abs(rep.rhs), 1e-300)
            assert rep.relative_residual == expected
            assert rep.passed == (rep.relative_residual < rep.tolerance)


class TestPohojaevFunctional:
    def test_alpha_zero_exact(self, grid_desk):
        phi = field_from_values(grid_desk, np.exp(-grid_desk.x**2))
        rep = pohojaev_functional_check(phi, 0.0)
        assert rep.relative_residual < 1e-12

    def test_alpha_two_analytic_oracle(self, grid_desk):
        # for phi = exp(-x^2): the x-weighted integral is (1/2) sqrt(pi/2) and
        # g = int phi'^2 = sqrt(pi/2); the report carries both sides shifted
        # by g, so lhs = rhs = (3/2) sqrt(pi/2)
        phi = field_from_values(grid_desk, np.exp(-grid_desk.x**2))
        rep = pohojaev_functional_check(phi, 2.0)
        target = 1.5 * np.sqrt(np.pi / 2.0)
        assert abs(rep.lhs - target) < 1e-8
        assert abs(rep.rhs - target) < 1e-8
        assert rep.relative_residual < 1e-8

    def test_fractional_alpha_on_large_box(self):
        grid = make_grid(131072, 12800.0)
        phi = field_from_values(grid, np.exp(-grid.x**2))
        for alpha in (0.6, 1.0):
            rep = pohojaev_functional_check(phi, alpha)
            assert rep.relative_residual < 1e-6, alpha

    def test_rejects_boundary_supported_field(self, grid_desk):
        phi = field_from_values(grid_desk, np.cos(np.pi / grid_desk.L * grid_desk.x))
        with pytest.raises(ValueError, match="boundary"):
            pohojaev_functional_check(phi, 0.6)


class TestSmoothBump:
    def test_plateau_and_support(self):
        t = np.array([-2.5, -2.0, -1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
        vals = smooth_bump(t)
        np.testing.assert_allclose(vals[[2, 3, 4, 5]], [1, 1, 1, 1])
        np.testing.assert_allclose(vals[[0, 1, 7, 8]], [0, 0, 0, 0])
        assert 0.0 < vals[6] < 1.0

    def test_continuity_at_junctions(self):
        eps = 1e-8
        assert abs(smooth_bump(np.array([1.0 + eps]))[0] - 1.0) < 1e-6
        assert smooth_bump(np.array([2.0 - eps]))[0] < 1e-6


class TestCommutatorDecay:
    @pytest.fixture(scope="class")
    def big_grid(self):
        return make_grid(16384, 1600.0)

    def test_algebraic_tail_field_attains_rate(self, big_grid):
        # v ~ |x|^(-1/4) realizes the worst-case exponent 1/4 - alpha
        v = field_from_values(big_grid, (1.0 + big_grid.x**2) ** -0.125)
        for alpha in (0.75, 1.0):
            decay = commutator_decay(alpha, v, [4, 8, 16, 32])
            assert abs(decay.slope - (0.25 - alpha)) < 0.15

    def test_gaussian_decays_at_tail_rate(self, big_grid):
        # rapidly decaying v: the commutator is dominated by the algebraic
        # tail of D^alpha v and decays like r^(-(alpha + 1/2)), strictly
        # faster than the worst-case bound
        v = field_from_values(big_grid, np.exp(-big_grid.x**2))
        for alpha in (0.75, 1.0):
            decay = commutator_decay(alpha, v, [4, 8, 16, 32])
            assert abs(decay.slope - (-(alpha + 0.5))) < 0.15

    def test_complement_cutoff_same_rate(self, big_grid):
        v = field_from_values(big_grid, (1.0 + big_grid.x**2) ** -0.125)
        decay = commutator_decay(0.75, v, [4, 8, 16, 32], complement=True)
        assert abs(decay.slope - (-0.5)) < 0.15

    def test_zero_field_degenerate(self, big_grid):
        v = field_from_values(big_grid, np.zeros(big_grid.n))
        decay = commutator_decay(0.75, v, [4, 8, 16, 32])
        assert decay.degenerate
        assert all(nm == 0.0 for nm in decay.norms)

    def test_rejects_oversized_radius(self):
        grid = make_grid(4096, 100.0)
        v = field_from_values(grid, np.exp(-grid.x**2))
        with pytest.raises(ValueError, match="support"):
            commutator_decay(0.75, v, [4, 8, 30])

    def test_rejects_unordered_radii(self, big_grid):
        v = field_from_values(big_grid, np.exp(-big_grid.x**2))
        with pytest.raises(ValueError, match="increasing"):
            commutator_decay(0.75, v, [8, 4])


class TestIqScaling:
    def test_theta_one_is_exact(self):
        grid = make_grid(2048, 100.0)
        result = iq_scaling_check(0.75, 4.0, [1.0], grid, tolerance=1e-10)
        ratio = next(r for r in result.checks if r.name.startswith("iq_scaling"))
        assert ratio.passed

    def test_plumbing_at_desk_scale(self):
        grid = make_grid(4096, 200.0)
        result = iq_scaling_check(0.75, 4.0, [2.0], grid, tolerance=5e-2)
        bounds = {"iq_scaling": 5e-2, "mass_law": 5e-4, "energy_law": 5e-2}
        for r in result.checks:
            assert r.relative_residual < bounds[r.name.rsplit("_theta_", 1)[0]], r.name
        # resolved as given: no refinement
        assert result.n == 4096 and result.tail <= 1e-4

    def test_rejects_alpha_range(self, grid_desk):
        with pytest.raises(ValueError):
            iq_scaling_check(1.2, 1.0, [2.0], grid_desk)

    def test_refines_until_resolved(self):
        # the q = 25 minimizer is narrower by 2^(1/(2a-1)) = 4: its top modes
        # carry 11% of the peak at n = 4096 and 3.3e-5 at 16384 (L = 200)
        result = iq_scaling_check(0.75, 12.5, [2.0], make_grid(4096, 200.0))
        assert result.n == 16384
        assert result.tail <= 1e-4
        assert all(r.passed for r in result.checks)

    def test_refines_unresolved_base_for_theta_below_one(self):
        # theta = 1/2 widens both fields the base is compared with, so only
        # the q = 25 base itself shows the 11% tail at n = 4096 (L = 200)
        result = iq_scaling_check(0.75, 25.0, [0.5], make_grid(4096, 200.0))
        assert result.n == 16384
        assert result.tail <= 1e-4
        assert all(r.passed for r in result.checks)

    @pytest.fixture()
    def minimizations(self, monkeypatch):
        """Spy on iq_scaling_check's minimize_iq calls: one record of mass,
        n, iterations and whether a seed was passed per call."""
        calls = []

        def spy(mass, alpha, grid, *args, _original=verification.minimize_iq, **kwargs):
            res = _original(mass, alpha, grid, *args, **kwargs)
            calls.append(SimpleNamespace(mass=mass, n=grid.n, iterations=res.iterations,
                                         seeded=kwargs.get("seed_profile") is not None))
            return res

        monkeypatch.setattr(verification, "minimize_iq", spy)
        return calls

    @pytest.mark.parametrize("q, thetas", [(12.5, [2.0]), (25.0, [0.5])],
                             ids=["theta_above_one", "theta_below_one"])
    def test_unresolved_level_minimizes_only_its_narrowest_field(self, minimizations, q, thetas):
        # the mass 25 minimizer is the narrowest field of both checks; its
        # tail alone shows n = 4096 and 8192 unresolved (L = 200)
        result = iq_scaling_check(0.75, q, thetas, make_grid(4096, 200.0))
        assert result.n == 16384
        assert [(c.mass, c.n) for c in minimizations] == [
            (25.0, 4096), (25.0, 8192), (25.0, 16384), (12.5, 16384)]

    def test_refined_levels_start_from_the_coarse_minimizer(self, minimizations):
        # the README command iq-scaling --q 12.5 --thetas 2: mass 25 is
        # seeded on n = 8192 and 16384 from the level below, mass 12.5 is
        # first minimized on 16384 and starts from the Gaussian.  The
        # unseeded, unmixed flow took 160 + 236 + 202 + 181 = 779 iterations
        iq_scaling_check(0.75, 12.5, [2.0], make_grid(4096, 200.0))
        assert [c.seeded for c in minimizations] == [False, True, True, False]
        assert sum(c.iterations for c in minimizations) <= 200

    def test_gives_up_past_sixteen_times_n(self):
        with pytest.raises(ConvergenceError, match=r"spectral tail share .* n = 4096"):
            iq_scaling_check(0.75, 12.5, [2.0], make_grid(256, 200.0))


class TestGNScan:
    def test_self_battery(self, q075_wave):
        rep = gn_scan(q075_wave, [q075_wave.profile])
        assert abs(rep.min_ratio - 1.0) < 1e-14
        assert rep.passed

    def test_seeded_battery_never_beats_ground_state(self, q075_wave):
        battery = make_scan_battery(q075_wave.profile.grid, seed=7, count=20)
        rep = gn_scan(q075_wave, battery)
        assert rep.passed
        assert rep.min_ratio >= 1.0 - 1e-8

    def test_battery_is_deterministic(self, grid_desk):
        a = make_scan_battery(grid_desk, seed=11, count=6)
        b = make_scan_battery(grid_desk, seed=11, count=6)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.values, fb.values)

    def test_empty_battery_rejected(self, q075_wave):
        with pytest.raises(ValueError):
            gn_scan(q075_wave, [])

    def test_uses_the_model_power(self, grid_desk):
        wave = petviashvili(ModelSpec(family=GFKDV, symbol=POWER(1.5), p=2), 1.0, grid_desk)
        gauss = field_from_values(grid_desk, np.exp(-grid_desk.x**2))
        rep = gn_scan(wave, [gauss])
        assert rep.ground_value == weinstein(wave.profile, 1.5, 2)
        assert rep.passed and rep.min_ratio > 1.0

    def test_gaussian_ratio_strictly_above_one(self, q075_wave):
        g = q075_wave.profile.grid
        gauss = field_from_values(g, np.exp(-g.x**2))
        rep = gn_scan(q075_wave, [gauss])
        assert rep.min_ratio > 1.01  # generic fields are far from sharpness
