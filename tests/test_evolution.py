import numpy as np
import pytest

from helpers import spy_transforms, two_sided_xi

from fracsol import (
    DispersionSymbol,
    ModelSpec,
    energy_norm,
    field_from_values,
    make_grid,
    petviashvili,
    shift_field,
)
from fracsol.errors import NumericalError
from fracsol.evolution import (
    N_CONTOUR,
    _etdrk4_coefficients,
    evolve,
    make_perturbation,
    orbital_distance,
    stability_experiment,
)
from fracsol.functionals import bbm_quadratic
from fracsol.ground_state import FBBM, FKDV, GFKDV, solitary_from_profile

POWER = DispersionSymbol.power


@pytest.fixture(scope="module")
def grid8():
    return make_grid(8192, 200.0)


@pytest.fixture(scope="module")
def wave8(grid8):
    return petviashvili(ModelSpec(family=FKDV, symbol=POWER(0.75)), 1.0, grid8)


@pytest.fixture(scope="module")
def whitham_wave(grid_desk):
    return petviashvili(ModelSpec(family=FKDV, symbol=DispersionSymbol.whitham()),
                        1.2, grid_desk)


@pytest.fixture(scope="module")
def bbm8(grid8):
    model = ModelSpec(family=FBBM, symbol=POWER(0.75), bbm_form="derived")
    return petviashvili(model, 2.0, grid8)


def flip(field):
    return field_from_values(field.grid, np.roll(field.values[::-1], 1))


class TestEvolve:
    def test_zero_initial_data(self, grid8):
        model = ModelSpec(family=FKDV, symbol=POWER(0.75))
        zero = field_from_values(grid8, np.zeros(grid8.n))
        trace = evolve(model, zero, 1.0, 2.0**-6, record_every=16)
        assert np.all(trace.conserved["mass"] == 0.0)
        assert np.all(trace.conserved["energy"] == 0.0)
        assert np.max(np.abs(trace.final_state.values)) == 0.0

    def test_traveling_wave_orbit(self, wave8):
        trace = evolve(wave8.model, wave8.profile, 5.0, 2.0**-9,
                       record_every=256, track_orbit=wave8)
        assert np.max(trace.orbital_distance_series) < 1e-5
        exact = shift_field(wave8.profile, -5.0 * wave8.c)
        assert np.max(np.abs(trace.final_state.values - exact.values)) < 1e-5

    def test_conservation_short_horizon(self, wave8):
        trace = evolve(wave8.model, wave8.profile, 5.0, 2.0**-10, record_every=512)
        assert trace.conserved_drift() < 1e-8

    def test_fourth_order_convergence(self, wave8):
        dt0 = 2.0**-5
        ref = evolve(wave8.model, wave8.profile, 1.0, dt0 / 8,
                     record_every=10**9).final_state.values
        e1 = np.max(np.abs(evolve(wave8.model, wave8.profile, 1.0, dt0,
                                  record_every=10**9).final_state.values - ref))
        e2 = np.max(np.abs(evolve(wave8.model, wave8.profile, 1.0, dt0 / 2,
                                  record_every=10**9).final_state.values - ref))
        assert 12.0 <= e1 / e2 <= 20.0

    def test_fbbm_fourth_order_convergence(self, bbm8):
        model, wave = bbm8.model, bbm8
        dt0 = 2.0**-5
        ref = evolve(model, wave.profile, 1.0, dt0 / 8,
                     record_every=10**9).final_state.values
        e1 = np.max(np.abs(evolve(model, wave.profile, 1.0, dt0,
                                  record_every=10**9).final_state.values - ref))
        e2 = np.max(np.abs(evolve(model, wave.profile, 1.0, dt0 / 2,
                                  record_every=10**9).final_state.values - ref))
        assert 12.0 <= e1 / e2 <= 20.0

    def test_time_reversal_closure(self, wave8):
        forward = evolve(wave8.model, wave8.profile, 2.0, 2.0**-9,
                         record_every=10**9).final_state
        back = evolve(wave8.model, flip(forward), 2.0, 2.0**-9,
                      record_every=10**9).final_state
        assert np.max(np.abs(flip(back).values - wave8.profile.values)) < 1e-6

    def test_fbbm_conservation(self, bbm8):
        model, wave = bbm8.model, bbm8
        trace = evolve(model, wave.profile, 5.0, 2.0**-9, record_every=256,
                       track_orbit=wave)
        assert trace.conserved_drift() < 1e-9
        assert np.max(trace.orbital_distance_series) < 1e-7

    def test_nan_flag_on_unstable_step(self, wave8, bbm8):
        # grossly violating the nonlinear stability bound drives an overflow;
        # at 1e100 times the profile the first step is already NaN
        cases = ((wave8, 5.0, ("nan", "blowup")), (wave8, 1e100, ("nan",)),
                 (bbm8, 1e100, ("nan",)))
        for wave, scale, flags in cases:
            with pytest.warns(UserWarning), np.errstate(all="ignore"):
                trace = evolve(wave.model, scale * wave.profile, 4.0, 0.5,
                               record_every=1)
            assert trace.flag in flags
            assert trace.times[-1] < 4.0
            assert all(len(s) == len(trace.times) for s in trace.conserved.values())

    def test_eight_transforms_per_step(self, wave8, monkeypatch):
        # the end-of-step irfft serves the next step's first nonlinear term
        calls = spy_transforms(monkeypatch)
        counts = []
        for steps in (4, 8):
            calls.clear()
            evolve(wave8.model, wave8.profile, steps * 2.0**-9, 2.0**-9,
                   record_every=10**9)
            counts.append(len(calls))
        assert counts[1] - counts[0] == 8 * 4

    def test_blocked_coefficients_match_one_shot_contour(self, grid8):
        # 4097 modes: the last block is not a whole CONTOUR_BLOCK
        xi = grid8.xi_r
        dt = 2.0**-9
        for lin in (1j * xi * xi**0.75, -1j * xi / (1.0 + xi**0.75)):
            z = dt * lin
            zr = z[:, None] + np.exp(2j * np.pi * (np.arange(N_CONTOUR) + 0.5) / N_CONTOUR)
            ez = np.exp(zr)
            one_shot = (
                np.exp(z), np.exp(z / 2.0),
                dt * np.mean((np.exp(zr / 2.0) - 1.0) / zr, axis=1),
                dt * np.mean((-4.0 - zr + ez * (4.0 - 3.0 * zr + zr**2)) / zr**3, axis=1),
                2.0 * (dt * np.mean((2.0 + zr + ez * (zr - 2.0)) / zr**3, axis=1)),
                dt * np.mean((-4.0 - 3.0 * zr - zr**2 + ez * (4.0 - zr)) / zr**3, axis=1),
            )
            for blocked, full in zip(_etdrk4_coefficients(lin, dt), one_shot):
                np.testing.assert_array_equal(blocked, full)

    def test_rejects_bad_arguments(self, wave8):
        with pytest.raises(ValueError):
            evolve(wave8.model, wave8.profile, -1.0, 0.01)
        with pytest.raises(ValueError):
            evolve(wave8.model, wave8.profile, 1.0, 0.01, record_every=0)
        with pytest.raises(ValueError):
            evolve(wave8.model, wave8.profile, float("inf"), 0.01)


class TestOrbitalDistance:
    def test_exact_orbit_member(self, wave8):
        u = shift_field(wave8.profile, 3.7)
        dist, y_star = orbital_distance(u, wave8)
        assert dist < 1e-9
        assert abs(y_star - (-3.7)) < 1e-6

    def test_perturbation_upper_bound(self, wave8, rng):
        g = wave8.profile.grid
        bump = field_from_values(g, 0.05 * np.exp(-((g.x - 3.0) / 2.0) ** 2))
        dist, _ = orbital_distance(wave8.profile + bump, wave8)
        assert dist <= energy_norm(bump, POWER(0.75)) + 1e-12

    def test_matches_brute_force_scan(self, wave8):
        g = wave8.profile.grid
        qhat = np.fft.fft(wave8.profile.values)
        xi = two_sided_xi(g)
        w = g.dx / g.n * (1.0 + np.abs(xi) ** 0.75)
        shifts = np.linspace(-2.0 * g.dx, 2.0 * g.dx, 4001)
        nyq = g.n // 2
        # a scaled profile (y_star = 0) and one with an off-centre bump
        for bump in (0.0, 0.5):
            u = 1.05 * wave8.profile + field_from_values(
                g, bump * np.exp(-((g.x - 2.0) / 1.5) ** 2))
            dist, y_star = orbital_distance(u, wave8)
            # oracle: dense scan over sub-grid shifts of the squared objective
            uhat = np.fft.fft(u.values)
            objective = []
            for z in shifts:
                phase = np.exp(1j * xi * z)
                phase[nyq] = np.cos(xi[nyq] * z)
                objective.append(np.sum(w * np.abs(phase * uhat - qhat) ** 2))
            best = int(np.argmin(objective))
            assert abs(dist - np.sqrt(objective[best])) < 1e-6
            assert abs(y_star - shifts[best]) <= shifts[1] - shifts[0]
            assert (abs(y_star) > 0.2 * g.dx) == (bump > 0.0)

    def test_zero_field_is_profile_norm(self, wave8):
        # C vanishes identically, so the curvature guard stops the refinement
        g = wave8.profile.grid
        dist, y_star = orbital_distance(field_from_values(g, np.zeros(g.n)), wave8)
        assert dist == energy_norm(wave8.profile, POWER(0.75))
        assert y_star == 0.0

    def test_whitham_distance_is_the_model_s_energy_norm(self, grid_desk, whitham_wave):
        # the weight is 1 + p(xi) of the wave's symbol: for Whitham the
        # zero field sits at sqrt(2 * quadratic(Q)), not at sqrt(2) ||Q||_2
        wave = whitham_wave
        dist, _ = orbital_distance(field_from_values(grid_desk, np.zeros(grid_desk.n)), wave)
        expected = np.sqrt(2.0 * bbm_quadratic(wave.profile, wave.model.symbol))
        assert abs(dist - expected) <= 1e-12 * expected

    def test_translation_invariance(self, wave8, rng):
        g = wave8.profile.grid
        u = wave8.profile + field_from_values(
            g, 0.01 * np.exp(-((g.x + 5.0) / 3.0) ** 2))
        d0, _ = orbital_distance(u, wave8)
        d1, _ = orbital_distance(shift_field(u, 11.3), wave8)
        assert abs(d0 - d1) < 1e-9

    def test_symmetric_under_shifting_profile(self, wave8):
        g = wave8.profile.grid
        u = wave8.profile + field_from_values(
            g, 0.01 * np.exp(-(g.x / 3.0) ** 2))
        shifted_wave = solitary_from_profile(
            shift_field(wave8.profile, 7.21), wave8.c, wave8.model)
        d0, _ = orbital_distance(u, wave8)
        d1, _ = orbital_distance(u, shifted_wave)
        assert abs(d0 - d1) < 1e-9

    def test_grid_mismatch_rejected(self, wave8):
        other = make_grid(4096, 200.0)
        u = field_from_values(other, np.zeros(other.n))
        with pytest.raises(ValueError, match="different grids"):
            orbital_distance(u, wave8)


class TestPerturbations:
    @pytest.mark.parametrize("kind", ["gaussian", "dilation", "random"])
    def test_normalization(self, wave8, kind):
        pert = make_perturbation(wave8, kind, 0.01, seed=3)
        target = 0.01 * energy_norm(wave8.profile, POWER(0.75))
        assert abs(energy_norm(pert, POWER(0.75)) - target) < 1e-12 * target

    def test_zero_delta(self, wave8):
        pert = make_perturbation(wave8, "gaussian", 0.0)
        assert np.all(pert.values == 0.0)

    def test_unknown_kind(self, wave8):
        with pytest.raises(ValueError):
            make_perturbation(wave8, "sawtooth", 0.01)

    def test_random_kind_is_seed_deterministic(self, wave8):
        a = make_perturbation(wave8, "random", 0.01, seed=5)
        b = make_perturbation(wave8, "random", 0.01, seed=5)
        np.testing.assert_array_equal(a.values, b.values)


class TestMakePerturbation:
    def test_whitham_wave_is_sized_in_its_own_norm(self, whitham_wave):
        # the perturbation size is measured in 1 + p(xi) of the wave's own
        # symbol, the norm orbital_distance measures in
        symbol = whitham_wave.model.symbol
        target = 0.01 * energy_norm(whitham_wave.profile, symbol)
        for kind in ("gaussian", "dilation", "random"):
            pert = make_perturbation(whitham_wave, kind, 0.01)
            assert abs(energy_norm(pert, symbol) - target) <= 1e-12 * target, kind


class TestStabilityExperiment:
    def test_unperturbed_wave_is_bounded(self, wave8):
        report, trace = stability_experiment(wave8, 0.0, "gaussian", 5.0, 2.0**-9)
        assert report.verdict == "bounded"
        assert report.sup_distance < 1e-5
        assert trace.flag is None

    def test_small_perturbation_short_horizon(self, wave8):
        report, _ = stability_experiment(wave8, 0.01, "gaussian", 10.0, 2.0**-9)
        assert report.verdict == "bounded"
        assert report.sup_distance >= report.distance_at_end >= 0.0
        assert report.conserved_drift < 1e-6

    def test_expected_unstable_regime_still_reports(self, grid8):
        # alpha <= 1/2: no theorem; the experiment must run and return a
        # verdict without claiming boundedness
        Q = petviashvili(ModelSpec(family=FKDV, symbol=POWER(0.40)), 1.0, grid8)
        report, _ = stability_experiment(Q, 0.01, "gaussian", 5.0, 2.0**-9,
                                         gate_tolerance=np.inf)
        assert report.verdict in ("bounded", "growing", "inconclusive")

    def test_gfkdv_passes_the_gate(self, grid_desk):
        # the gate checks the p = 2 identities, not the quadratic ones
        Q = petviashvili(ModelSpec(family=GFKDV, symbol=POWER(1.5), p=2), 1.0, grid_desk)
        report, _ = stability_experiment(Q, 0.01, "gaussian", 1.0, 2.0**-9)
        assert report.verdict == "bounded"

    def test_runs_on_the_wave_s_model_and_grid(self, grid_desk):
        # the desk box holds the alpha 0.6 identities to 7.1e-3
        Q = petviashvili(ModelSpec(family=FKDV, symbol=POWER(0.6)), 1.0, grid_desk)
        report, trace = stability_experiment(Q, 0.01, "gaussian", 0.5, 2.0**-9,
                                             gate_tolerance=1e-2)
        assert report.alpha == 0.6
        assert report.c == Q.c
        assert trace.model is Q.model
        assert trace.final_state.grid is Q.profile.grid

    def test_gate_rejects_bad_profile(self, wave8):
        import dataclasses

        g = wave8.profile.grid
        spoiled = field_from_values(
            g, wave8.profile.values + 0.05 * np.exp(-g.x**2))
        fake = dataclasses.replace(wave8, profile=spoiled)
        with pytest.raises(NumericalError, match="identity gate"):
            stability_experiment(fake, 0.01, "gaussian", 1.0, 2.0**-9)

    def test_report_serialization(self, wave8):
        report, _ = stability_experiment(wave8, 0.0, "gaussian", 1.0, 2.0**-9)
        d = report.to_dict()
        assert d["verdict"] == report.verdict
        assert set(d) >= {"alpha", "c", "delta", "perturbation_kind", "horizon",
                          "sup_distance", "distance_at_end", "conserved_drift"}
