import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import sample_interpolant, spy_transforms, two_sided_xi

from fracsol import (
    ConvergenceError,
    DispersionSymbol,
    ModelSpec,
    NoSolitaryWaveError,
    cstar,
    dilate_field,
    energy_norm,
    field_from_values,
    make_grid,
    mass,
    minimize_iq,
    petviashvili,
    quad_form,
    rescale_solitary,
)
from fracsol import ground_state, spectral
from fracsol.ground_state import (
    FBBM,
    FKDV,
    GFKDV,
    MIX_DEPTH,
    default_seed,
    paper_form,
    profile_residual,
    sample_interpolant_uniform,
    solitary_from_profile,
    upsample_field,
)

POWER = DispersionSymbol.power


class TestModelSpec:
    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            ModelSpec(family="kp", symbol=POWER(1.0))

    def test_rejects_power_nonlinearity_on_quadratic_families(self):
        with pytest.raises(ValueError):
            ModelSpec(family=FKDV, symbol=POWER(1.0), p=2)

    def test_warns_outside_subcritical_regime(self):
        with pytest.warns(UserWarning, match="subcritical"):
            ModelSpec(family=GFKDV, symbol=POWER(0.8), p=2)

    def test_gfkdv_subcritical_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ModelSpec(family=GFKDV, symbol=POWER(1.5), p=2)


class TestPetviashvili:
    def test_benjamin_ono_profile(self):
        grid = make_grid(8192, 400.0)
        wave = petviashvili(ModelSpec(family=FKDV, symbol=POWER(1.0)), 1.0, grid)
        window = np.abs(grid.x) <= 20.0
        exact = 4.0 / (1.0 + grid.x**2)
        assert np.max(np.abs(wave.profile.values - exact)[window]) < 1e-4
        assert abs(wave.profile.values.max() - 4.0) < 1e-4

    def test_kdv_soliton(self, grid_desk):
        wave = petviashvili(ModelSpec(family=FKDV, symbol=POWER(2.0)), 1.0, grid_desk)
        exact = 3.0 / np.cosh(grid_desk.x / 2.0) ** 2
        assert np.max(np.abs(wave.profile.values - exact)) < 1e-6
        assert abs(wave.profile.values.max() - 3.0) < 1e-6

    def test_kdv_velocity_sweep_peak(self, grid_desk):
        # peak of the alpha=2 family is 3c
        wave = petviashvili(ModelSpec(family=FKDV, symbol=POWER(2.0)), 1.7, grid_desk)
        assert abs(wave.profile.values.max() - 3.0 * 1.7) < 1e-5

    def test_reference_solve_properties(self, q075_wave):
        assert q075_wave.residual_sup < 1e-8
        vals = q075_wave.profile.values
        sup = np.max(np.abs(vals))
        # evenness about the origin sample and positivity
        assert np.max(np.abs(vals[1:] - vals[1:][::-1])) < 1e-7 * sup
        assert vals.min() > -1e-9 * sup

    def test_residual_diagnostics_match_recomputation(self, q075_wave):
        # the reported residuals come from the loop's last residual check on
        # the carried spectrum; recomputing from the samples alone takes the
        # spectrum afresh, so the two agree to roundoff, not bit for bit
        tol = 1e-10  # petviashvili's default
        r = profile_residual(q075_wave.model, q075_wave.c, q075_wave.profile)
        recomputed = np.max(np.abs(r))
        assert q075_wave.residual_sup < 10.0 * tol and recomputed < 10.0 * tol
        assert abs(recomputed - q075_wave.residual_sup) <= 1e-13
        l2 = np.sqrt(q075_wave.profile.grid.dx * np.sum(r**2))
        assert abs(l2 - q075_wave.residual_l2) <= 1e-13

    def test_whitham_symbol_solve(self, grid_desk):
        model = ModelSpec(family=FKDV, symbol=DispersionSymbol.whitham())
        wave = petviashvili(model, 1.4, grid_desk)
        assert wave.residual_sup < 1e-8
        assert wave.profile.values.max() > 0

    def test_fbbm_paper_form_equals_fkdv_profile(self, grid_desk, q075_wave):
        model = ModelSpec(family=FBBM, symbol=POWER(0.75), bbm_form="paper")
        wave = petviashvili(model, 1.0, grid_desk)
        np.testing.assert_allclose(wave.profile.values, q075_wave.profile.values,
                                   atol=1e-9)

    def test_fbbm_derived_form_matches_scaled_family(self, grid_desk):
        # c D^a u + (c-1) u = u^2/2 has solution c * Q_{(c-1)/c}
        c = 2.0
        model = ModelSpec(family=FBBM, symbol=POWER(0.75), bbm_form="derived")
        wave = petviashvili(model, c, grid_desk)
        assert wave.residual_sup < 1e-8
        half = petviashvili(ModelSpec(family=FKDV, symbol=POWER(0.75)), 0.5, grid_desk)
        np.testing.assert_allclose(wave.profile.values, c * half.profile.values,
                                   atol=1e-7)

    def test_fbbm_derived_needs_supersonic_velocity(self, grid_desk):
        model = ModelSpec(family=FBBM, symbol=POWER(0.75), bbm_form="derived")
        with pytest.raises(ValueError):
            petviashvili(model, 0.9, grid_desk)

    def test_nonconvergence_raises(self, grid_desk):
        with pytest.raises(ConvergenceError):
            petviashvili(ModelSpec(family=FKDV, symbol=POWER(0.75)), 1.0,
                         grid_desk, max_iter=3)

    def test_rejects_max_iter_below_one(self, grid_desk):
        with pytest.raises(ValueError, match="max_iter"):
            petviashvili(ModelSpec(family=FKDV, symbol=POWER(0.75)), 1.0,
                         grid_desk, max_iter=0)

    def test_zero_collapse_detected_without_stabilization(self, grid_desk):
        seed = field_from_values(grid_desk, 1e-3 * np.exp(-grid_desk.x**2))
        with pytest.raises(NoSolitaryWaveError):
            petviashvili(ModelSpec(family=FKDV, symbol=POWER(0.75)), 1.0,
                         grid_desk, gamma=0.0, seed_profile=seed)

    def test_two_transforms_per_sweep(self, grid_desk, monkeypatch):
        # a sweep takes two even transforms of the half-grid, each an rfft of
        # n/2 points and an irfft of n/4: 1.5 n points where the full-grid
        # rfft/irfft pair took 2 n.  Besides the sweeps, the seed and each
        # residual check take one even transform
        calls = spy_transforms(monkeypatch)
        transforms = []

        def spy_even_rfft(x, out, work=None, _original=ground_state._even_rfft):
            transforms.append(x.size)
            return _original(x, out, work)

        monkeypatch.setattr(ground_state, "_even_rfft", spy_even_rfft)
        wave = petviashvili(ModelSpec(family=FKDV, symbol=POWER(0.75)), 1.0, grid_desk)
        monkeypatch.undo()
        n = grid_desk.n
        points = sum(max(a.size, out.size) for _, a, out in calls)
        assert transforms == [n // 2 + 1] * len(transforms)
        extra = len(transforms) - 2 * wave.iterations
        assert 2 <= extra <= 3  # the seed and one or two residual checks
        assert points <= 1.5 * n * wave.iterations + 0.75 * n * extra
        assert len(calls) == 2 * len(transforms)

    def test_mixing_keeps_spectrum_consistent(self, monkeypatch):
        # a sweep transforms N = Q^2/2 and then the mixed spectrum, both on
        # the even half-grid.  S taken from the carried real spectrum (its
        # Parseval numerator) must match S of the half samples the previous
        # sweep returned on every sweep, with the numerator recomputed from
        # the full-grid rfft of their even extension: the map absorbs a
        # stale spectrum into one S, so the sweep count and the final
        # residual alone would not show it
        events = []

        def spy_quad_form(*args, _original=ground_state.quad_form, **kwargs):
            events.append(("numerator", _original(*args, **kwargs)))
            return events[-1][1]

        def spy_even_rfft(x, out, work=None, _original=ground_state._even_rfft):
            events.append(("transform", x.copy(), _original(x, out, work).copy()))
            return out

        monkeypatch.setattr(ground_state, "quad_form", spy_quad_form)
        monkeypatch.setattr(ground_state, "_even_rfft", spy_even_rfft)
        grid = make_grid(8192, 200.0)
        n, tol = grid.n, 1e-12
        wave = petviashvili(ModelSpec(family=FKDV, symbol=POWER(0.75)), 1.0, grid, tol=tol)
        monkeypatch.undo()
        # each sweep: its numerator, then the transforms of N and of the mix
        starts = [i for i, e in enumerate(events) if e[0] == "numerator"]
        assert len(starts) == wave.iterations
        assert all(events[i + 1][0] == events[i + 2][0] == "transform" for i in starts)
        sweeps = [(events[i][1], events[i + 1][1:], events[i + 2][1:]) for i in starts]
        lin = 1.0 + grid.xi_r**0.75
        mixed = 0
        for (_, _, (_, q_prev)), (numerator, (nl, nl_hat), (update, _)) in zip(
                sweeps, sweeps[1:]):
            q_prev = q_prev * (1.0 / n)
            np.testing.assert_array_equal(nl, q_prev**2 / 2)
            full = np.concatenate((q_prev, q_prev[-2:0:-1]))
            denom = grid.dx * np.sum(full**3 / 2)
            s_spectrum = numerator / denom
            s_samples = quad_form(np.fft.rfft(full), grid, lin) / denom
            assert abs(s_spectrum - s_samples) < 1e-12 * s_samples
            # the plain step would hand S^2 N_hat / lin to the transform
            plain = s_spectrum**2 * nl_hat / lin
            mixed += np.max(np.abs(update - plain)) > 1e-6 * np.max(np.abs(update))
        assert mixed >= 1
        assert wave.residual_sup < 10.0 * tol

    @pytest.mark.parametrize("c", [1.2, 1.4])
    def test_whitham_profile_stays_centred(self, grid_desk, c):
        # an extrapolation along the slow mode once translated these profiles
        # off centre (odd part 3.08 and 3.49) and took 66 sweeps
        model = ModelSpec(family=FKDV, symbol=DispersionSymbol.whitham())
        wave = petviashvili(model, c, grid_desk)
        v = wave.profile.values
        assert np.array_equal(v, np.roll(v[::-1], 1))  # even by construction
        assert wave.iterations <= 25

    def test_odd_part_of_seed_is_dropped(self, grid_desk):
        # the iteration runs on the even half-grid and keeps the even part
        # of its seed, so an odd perturbation leaves the profile unchanged
        model = ModelSpec(family=FKDV, symbol=POWER(0.75))
        seed = default_seed(model, 1.0, grid_desk)
        x = grid_desk.x
        odd = field_from_values(grid_desk, x * np.exp(-(x / 4.0) ** 2))
        assert np.array_equal(odd.values[1:], -odd.values[1:][::-1])
        even = petviashvili(model, 1.0, grid_desk, tol=1e-12, seed_profile=seed)
        kicked = petviashvili(model, 1.0, grid_desk, tol=1e-12, seed_profile=seed + odd)
        assert np.max(np.abs(kicked.profile.values - even.profile.values)) <= 1e-12

    @pytest.mark.parametrize("model, c, sweeps", [
        (ModelSpec(family=FKDV, symbol=POWER(0.75)), 1.0, 52),
        (ModelSpec(family=FBBM, symbol=POWER(0.75), bbm_form="derived"), 2.0, 52),
        (ModelSpec(family=GFKDV, symbol=POWER(1.5), p=2), 1.0, 25),
    ], ids=["fkdv", "fbbm_derived", "gfkdv_p2"])
    def test_desk_sweep_counts(self, grid_desk, model, c, sweeps):
        # the counts of the unmixed iteration with extrapolation every 8 sweeps
        assert petviashvili(model, c, grid_desk).iterations <= sweeps

    def test_sweeps_run_in_preallocated_buffers(self):
        # on the half-grid: the samples, Q_hat and lin (n/2 float64 each),
        # the ring of 2 (MIX_DEPTH + 1) real spectra (n/2 each), the even
        # transform's work space (n) and its cached twiddles (n/4), plus a
        # quarter array of slack.  Measured 6.77 arrays with the twiddles
        # taken afresh; the full-grid iteration peaked at 10.8
        grid = make_grid(1 << 16, 3200.0)
        model = ModelSpec(family=FKDV, symbol=POWER(0.75))
        seed = default_seed(model, 1.0, grid)
        spectral._quarter_twiddle.cache_clear()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            petviashvili(model, 1.0, grid, seed_profile=seed)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        arrays = 3 * 0.5 + (MIX_DEPTH + 1) + 1 + 0.25 + 0.25
        assert peak <= arrays * 8 * grid.n

    def test_energy_supercritical_warns_and_violates_line_identity(self):
        # the periodic box still carries a wave at alpha < 1/3, but the line
        # balance (3a-1) g = c m fails wildly, signaling non-existence
        grid = make_grid(4096, 200.0)
        with pytest.warns(UserWarning, match="1/3"):
            model = ModelSpec(family=FKDV, symbol=POWER(0.30))
            wave = petviashvili(model, 1.0, grid)
        uhat = np.fft.fft(wave.profile.values)
        g = grid.dx / grid.n * np.sum(np.abs(two_sided_xi(grid)) ** 0.3 * np.abs(uhat) ** 2)
        m = grid.dx * np.sum(wave.profile.values**2)
        assert abs((3 * 0.3 - 1) * g - m) / m > 0.5


class TestInterpolant:
    def test_chunked_evaluator_is_exact_on_band_limited(self):
        g = make_grid(512, 25.0)
        u = field_from_values(g, np.cos(3.0 * np.pi / 25.0 * g.x))
        pts = np.array([0.123, -7.7, 12.001])
        np.testing.assert_allclose(sample_interpolant(u, pts),
                                   np.cos(3.0 * np.pi / 25.0 * pts), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, L, start, step, count, stride", [
        (256, 12.0, -5.0, 0.0317, 300, 1),
        (256, 12.0, -5.0, 0.0317, 50, 1),
        (32768, 400.0, -200.0, 0.5 * 800.0 / 32768, 32768, 256),  # a lam = 0.5 dilation
    ], ids=["more_points_than_modes", "fewer_points_than_modes", "n32768_half_step"])
    def test_uniform_evaluator_matches_chunked(self, n, L, start, step, count, stride):
        g = make_grid(n, L)
        u = field_from_values(g, np.exp(-g.x**2) * (1 + 0.5 * np.sin(g.x)))
        k = np.arange(0, count, stride)
        np.testing.assert_allclose(
            sample_interpolant_uniform(u, start, step, count)[k],
            sample_interpolant(u, start + step * k), rtol=0, atol=1e-11,
        )

    def test_upsample_is_exact(self):
        g = make_grid(512, 50.0)
        u = field_from_values(g, np.exp(-g.x**2) * np.cos(g.x))
        fine = upsample_field(u, 2048)
        exact = np.exp(-fine.grid.x**2) * np.cos(fine.grid.x)
        np.testing.assert_allclose(fine.values, exact, rtol=0, atol=1e-12)


class TestRescale:
    def test_identity_rescale(self, q075_wave):
        assert rescale_solitary(q075_wave, q075_wave.c) is q075_wave

    def test_mass_scaling_law(self, bo_wave):
        # mass(Q_c)/mass(Q_1) = c^{(2a-1)/a} = c at alpha = 1
        scaled = rescale_solitary(bo_wave, 2.0)
        ratio = mass(scaled.profile) / mass(bo_wave.profile)
        assert abs(ratio - 2.0) < 1e-6 * 2.0

    def test_mass_scaling_law_fractional(self, q075_wave):
        c = 1.7
        scaled = rescale_solitary(q075_wave, c)
        predicted = c ** ((2 * 0.75 - 1) / 0.75)
        ratio = mass(scaled.profile) / mass(q075_wave.profile)
        # algebraic tails truncated at the desk box dominate the error
        assert abs(ratio - predicted) < 1e-4 * predicted

    def test_analytic_family_and_residual(self):
        # needs a box large enough that the boundary tail does not pollute
        # the residual of the spliced dilation
        grid = make_grid(262144, 6400.0)
        wave = petviashvili(ModelSpec(family=FKDV, symbol=POWER(1.0)), 1.0, grid)
        scaled = rescale_solitary(wave, 2.0)
        exact = 8.0 / (1.0 + 4.0 * grid.x**2)
        assert np.max(np.abs(scaled.profile.values - exact)) < 1e-5
        assert scaled.residual_sup < 1e-6

    def test_rejects_non_power_symbol(self, grid_desk):
        model = ModelSpec(family=FKDV, symbol=DispersionSymbol.whitham())
        wave = petviashvili(model, 1.4, grid_desk)
        with pytest.raises(ValueError, match="pure-power"):
            rescale_solitary(wave, 2.0)

    def test_rejects_nonpositive_velocity(self, q075_wave):
        with pytest.raises(ValueError):
            rescale_solitary(q075_wave, -1.0)

    @pytest.mark.parametrize("c_new", [1.5, 2.0])
    def test_gfkdv_amplitude_law(self, grid_desk, c_new):
        # Q_c = c^{1/p} Q(c^{1/alpha} x) solves the p = 2 profile equation
        wave = petviashvili(ModelSpec(family=GFKDV, symbol=POWER(1.5), p=2), 1.0, grid_desk)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = rescale_solitary(wave, c_new)
        assert scaled.residual_sup < 1e-4

    def test_rejects_derived_fbbm(self, grid_desk):
        model = ModelSpec(family=FBBM, symbol=POWER(0.75), bbm_form="derived")
        wave = petviashvili(model, 2.0, grid_desk)
        with pytest.raises(ValueError, match="derived"):
            rescale_solitary(wave, 3.0)


class TestPaperForm:
    def test_derived_fbbm_maps_to_psi(self, grid_desk):
        model = ModelSpec(family=FBBM, symbol=POWER(0.75), bbm_form="derived")
        wave = petviashvili(model, 2.0, grid_desk)
        psi = paper_form(wave)
        assert psi.c == 0.5 and psi.model.bbm_form == "paper"
        np.testing.assert_array_equal(psi.profile.values, wave.profile.values * 0.5)
        direct = solitary_from_profile(psi.profile, psi.c, psi.model)
        assert abs(direct.residual_sup - psi.residual_sup) <= 1e-3 * psi.residual_sup


class TestCstar:
    def test_base_point(self):
        assert cstar(4.0, 8.0, 0.75) == 1.0

    def test_benjamin_ono_arithmetic(self):
        assert abs(cstar(16.0 * np.pi, 8.0 * np.pi, 1.0) - 4.0) < 1e-14

    def test_direct_power_evaluation(self):
        # (2q/|Q|^2)^(a/(2a-1)) with ratio 4 and a = 3/4 gives 4^(3/2) = 8
        assert abs(cstar(2.0, 1.0, 0.75) - 8.0) < 1e-13

    def test_mass_of_rescaled_profile_attains_q(self, q075_wave):
        # modest compression so the rescaled profile stays resolved at desk dx
        l2sq = 2.0 * mass(q075_wave.profile)
        q = 1.2 * mass(q075_wave.profile)
        c = cstar(q, l2sq, 0.75)
        scaled = rescale_solitary(q075_wave, c)
        assert abs(mass(scaled.profile) - q) < 1e-4 * q

    def test_rejects_degenerate_alpha(self):
        with pytest.raises(ValueError):
            cstar(1.0, 1.0, 0.5)


class TestMinimizeIq:
    @pytest.fixture(scope="class")
    def result(self):
        grid = make_grid(4096, 100.0)
        return minimize_iq(5.0, 0.75, grid), grid

    def test_negative_infimum(self, result):
        res, _ = result
        assert res.I_q < 0.0

    def test_mass_constraint(self, result):
        res, _ = result
        assert abs(res.q - 5.0) < 1e-10 * 5.0
        assert abs(mass(res.profile) - 5.0) < 1e-10 * 5.0

    def test_multiplier_is_positive(self, result):
        res, _ = result
        assert res.theta > 0.0

    def test_euler_lagrange_residual(self, result):
        # FrLe.8: D^alpha psi - psi^2/2 + theta psi = 0
        res, grid = result
        psi = res.profile.values
        du = np.fft.ifft(np.abs(two_sided_xi(grid)) ** 0.75 * np.fft.fft(psi)).real
        r = du - 0.5 * psi**2 + res.theta * psi
        assert np.sqrt(grid.dx * np.sum(r**2)) < 1e-7

    def test_minimizer_is_positive_and_even(self, result):
        res, _ = result
        vals = res.profile.values
        sup = np.max(vals)
        assert vals.min() > -1e-9 * sup
        assert np.max(np.abs(vals[1:] - vals[1:][::-1])) < 1e-5 * sup

    def test_rejects_alpha_out_of_range(self):
        grid = make_grid(1024, 50.0)
        for alpha in (0.5, 1.0, 0.3):
            with pytest.raises(ValueError):
                minimize_iq(1.0, alpha, grid)

    @pytest.mark.parametrize("q", [2.0, 4.0, 8.0, 12.5])
    def test_desk_grid_converges_in_few_iterations(self, grid_desk, q):
        # the preconditioned step does not scale with max |xi|^alpha; the
        # explicit step needed 1,320 (q = 12.5) to 5,230 (q = 4) iterations
        # and did not converge at q = 2 within 20,000
        res = minimize_iq(q, 0.75, grid_desk)
        assert res.converged and res.I_q < 0.0
        assert res.iterations <= 400

    def test_two_transforms_per_iteration(self, grid_desk, monkeypatch):
        # one rfft of the seed, an rfft of u^2/2 and an irfft of the update
        # per iteration (the last iteration stops after its rfft) and one rfft
        # of the final energy
        calls = spy_transforms(monkeypatch)
        res = minimize_iq(4.0, 0.75, grid_desk)
        assert len(calls) <= 2 * res.iterations + 2


class TestDilateField:
    def test_gaussian_transformation_laws(self):
        grid = make_grid(8192, 200.0)
        v = field_from_values(grid, np.exp(-(grid.x / 3.0) ** 2))
        theta, alpha = 3.0, 0.75
        lam = theta ** (1.0 / (2 * alpha - 1))
        amp = theta ** (alpha / (2 * alpha - 1))
        vt = dilate_field(v, lam, amplitude=amp)
        assert abs(mass(vt) / (theta * mass(v)) - 1.0) < 1e-10

    def test_rejects_bad_factor(self, q075_wave):
        with pytest.raises(ValueError):
            dilate_field(q075_wave.profile, -2.0)
