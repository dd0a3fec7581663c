import gc
import re
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import sample_interpolant, spy_even_rfft, spy_transforms, two_sided_xi

from fracsol import (
    ConvergenceError,
    DispersionSymbol,
    ModelSpec,
    NoSolitaryWaveError,
    NumericalError,
    cstar,
    dilate_field,
    energy_fkdv,
    energy_norm,
    field_from_values,
    identity_suite,
    make_grid,
    mass,
    minimize_iq,
    orbital_distance,
    petviashvili,
    quad_form,
    rescale_solitary,
    solve_refined,
    spectral_tail,
    weinstein,
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
from fracsol.spectral import _even_rfft, _even_work_size

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

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_tol_not_finite_and_positive(self, grid_desk, tol):
        # -1 and nan ran all 500 sweeps and ended in "did not converge"
        with pytest.raises(ValueError, match="tol"):
            petviashvili(ModelSpec(family=FKDV, symbol=POWER(0.75)), 1.0, grid_desk, tol=tol)

    def test_zero_collapse_detected_without_stabilization(self, grid_desk):
        seed = field_from_values(grid_desk, 1e-3 * np.exp(-grid_desk.x**2))
        with pytest.raises(NoSolitaryWaveError):
            petviashvili(ModelSpec(family=FKDV, symbol=POWER(0.75)), 1.0,
                         grid_desk, gamma=0.0, seed_profile=seed)

    def test_two_transforms_per_sweep(self, grid_desk, monkeypatch):
        # a sweep takes two even transforms of the half-grid.  On the desk
        # grid n/2 is below spectral._EVEN_BASE, so each is an rfft of n/2
        # points and an irfft of n/4: 1.5 n points where the full-grid
        # rfft/irfft pair took 2 n.  Besides the sweeps, the seed and each
        # residual check take one even transform
        calls = spy_transforms(monkeypatch)
        transforms = spy_even_rfft(monkeypatch)
        wave = petviashvili(ModelSpec(family=FKDV, symbol=POWER(0.75)), 1.0, grid_desk)
        monkeypatch.undo()
        n = grid_desk.n
        points = sum(max(a.size, out.size) for _, a, out in calls)
        assert transforms == [n // 2 + 1] * len(transforms)
        extra = len(transforms) - 2 * wave.iterations
        assert 2 <= extra <= 3  # the seed and one or two residual checks
        assert points <= 1.5 * n * wave.iterations + 0.75 * n * extra
        assert len(calls) == 2 * len(transforms)

    def test_recursive_transform_points_per_sweep(self, monkeypatch):
        # above the base the even transform recurses on its even fold: at
        # n = 2^16 it takes irffts of n/4, n/8, n/16 and n/32 points and one
        # rfft of n/16, 0.53 n points, so a sweep's two transforms take
        # 1.06 n where the base path alone took 1.5 n
        calls = spy_transforms(monkeypatch)
        transforms = spy_even_rfft(monkeypatch)
        grid = make_grid(1 << 16, 200.0)
        wave = petviashvili(ModelSpec(family=FKDV, symbol=POWER(0.75)), 1.0, grid)
        monkeypatch.undo()
        n = grid.n
        points = [max(a.size, out.size) for _, a, out in calls]
        assert wave.residual_sup < 1e-9
        assert len(transforms) >= 2 * wave.iterations
        assert max(points) <= n // 4  # no transform of the base path's n/2 points
        assert 2 * sum(points) <= 1.07 * n * len(transforms)

    def test_mixing_keeps_spectrum_consistent(self, monkeypatch):
        # a sweep transforms Q^2 and then the mixed spectrum, both on the even
        # half-grid, with every spectrum scaled by 1/n.  S taken from the
        # carried real spectrum (its Parseval numerator, the even sum of
        # (c + p(D)) Q_hat with Q_hat) must match S of the half samples the
        # previous sweep returned on every sweep, with the numerator
        # recomputed from the full-grid rfft of their even extension: the map
        # absorbs a stale spectrum into one S, so the sweep count and the
        # final residual alone would not show it
        events = []

        def spy_even_dot(a, b, _original=ground_state._even_dot):
            events.append(("dot", a.copy(), _original(a, b)))
            return events[-1][2]

        def record_even_rfft(x, out, work=None, _original=ground_state._even_rfft):
            events.append(("transform", x.copy(), _original(x, out, work).copy()))
            return out

        monkeypatch.setattr(ground_state, "_even_dot", spy_even_dot)
        monkeypatch.setattr(ground_state, "_even_rfft", record_even_rfft)
        grid = make_grid(8192, 200.0)
        n, tol = grid.n, 1e-12
        wave = petviashvili(ModelSpec(family=FKDV, symbol=POWER(0.75)), 1.0, grid, tol=tol)
        monkeypatch.undo()
        # each sweep: the denominator, the transform of Q^2, the numerator and
        # the transform of the mix; residual checks add a transform, the
        # reported l^2 residual a final sum
        kinds = "".join(e[0][0] for e in events)
        starts = [m.start() for m in re.finditer("dtdt", kinds)]
        assert len(starts) == wave.iterations
        sweeps = [events[i:i + 4] for i in starts]
        lin = 1.0 + grid.xi_r**0.75
        mixed = 0
        for prev, (denominator, (_, nl, nl_hat), numerator, (_, update, _)) in zip(
                sweeps, sweeps[1:]):
            q_prev = prev[3][2]
            np.testing.assert_array_equal(denominator[1], q_prev)
            np.testing.assert_array_equal(nl, q_prev**2)
            full = np.concatenate((q_prev, q_prev[-2:0:-1]))
            denom = grid.dx * np.sum(full**3 / 2)
            s_spectrum = n * grid.dx * numerator[2] / denom
            s_samples = quad_form(np.fft.rfft(full), grid, lin) / denom
            assert abs(s_spectrum - s_samples) < 1e-12 * s_samples
            # the plain step would hand S^2 (Q^2/2)_hat / (n lin) to the transform
            plain = s_spectrum**2 * nl_hat / (2 * n * lin)
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

    @pytest.mark.parametrize("n, L", [(8192, 200.0), (4096, 400.0)], ids=["n", "L"])
    def test_seed_on_another_grid_rejected(self, grid_desk, n, L):
        model = ModelSpec(family=FKDV, symbol=POWER(0.75))
        seed = default_seed(model, 1.0, make_grid(n, L))
        with pytest.raises(ValueError, match="different grids"):
            petviashvili(model, 1.0, grid_desk, seed_profile=seed)

    @pytest.mark.parametrize("model, c, sweeps", [
        (ModelSpec(family=FKDV, symbol=POWER(0.75)), 1.0, 24),
        (ModelSpec(family=FBBM, symbol=POWER(0.75), bbm_form="derived"), 2.0, 24),
        (ModelSpec(family=GFKDV, symbol=POWER(1.5), p=2), 1.0, 25),
    ], ids=["fkdv", "fbbm_derived", "gfkdv_p2"])
    def test_desk_sweep_counts(self, grid_desk, model, c, sweeps):
        # fKdV and derived fBBM: the counts at MIX_DEPTH 4 (28 and 29 at
        # depth 3, 52 unmixed with extrapolation every 8 sweeps); gfKdV p 2:
        # the unmixed count (14 at depth 4)
        assert petviashvili(model, c, grid_desk).iterations <= sweeps

    def test_sweeps_run_in_preallocated_buffers(self, monkeypatch):
        # on the half-grid: the samples, Q_hat and lin (n/2 float64 each),
        # the ring of 2 (MIX_DEPTH + 1) real spectra (n/2 each), the even
        # transform's work space (about n/2, _even_work_size) and the
        # temporaries of its one twiddle table (n/4; the table itself lives
        # in a memory mapping, which tracemalloc does not see), plus three
        # quarters of an array of slack for first-call imports.  The grid's
        # x and xi_r are read before, as the solve's inputs.  Measured 7.08
        # arrays at MIX_DEPTH 4 in a fresh process with the twiddles taken
        # afresh (7.77 with one twiddle table per level on the heap, 7.99
        # with a work space of n values); the full-grid iteration peaked at
        # 10.8 at MIX_DEPTH 3
        grid = make_grid(1 << 16, 3200.0)
        model = ModelSpec(family=FKDV, symbol=POWER(0.75))
        seed = default_seed(model, 1.0, grid)
        grid.xi_r
        monkeypatch.setattr(spectral, "_twiddles", np.ones(1, dtype=np.complex128))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            petviashvili(model, 1.0, grid, seed_profile=seed)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        arrays = 3 * 0.5 + (MIX_DEPTH + 1) + 0.5 + 0.25 + 0.75
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


class TestAndersonRing:
    def test_history_never_holds_the_next_slot(self):
        # the solver loops write slot k, mix, and write (k + 1) % depth next:
        # after each mix the history must be at most MIX_DEPTH consecutive
        # slots ending at k.  Three laps of the ring, with orthogonal residuals
        # of falling norm, a restart once the history is full, and later a
        # residual that nearly repeats the one before, so that the normalized
        # Gram matrix passes MIX_COND and _mix_weights drops the older slots
        depth = MIX_DEPTH + 1
        restart_at, repeat_at = depth + 1, 2 * depth + 1
        G, F = np.zeros((2, depth, 3 * depth))
        gram = np.zeros((depth, depth))
        hist, out = [], np.empty(3 * depth)
        start = 0  # the step that began the history
        for step in range(3 * depth):
            k = step % depth
            G[k] = np.arange(3 * depth) + step
            if step == repeat_at:
                F[k] = 0.99 * F[(k - 1) % depth]
                F[k, 0] += 1e-12
                start = step
            else:
                F[k] = 0.0
                F[k, step] = 0.5**step
            if step == restart_at:
                start = step
            ground_state._anderson_mix(G, F, gram, hist, k, out=out,
                                       restart=step == restart_at)
            length = min(step - start + 1, MIX_DEPTH)
            assert hist == [(k - j) % depth for j in range(length - 1, -1, -1)], step
            assert (k + 1) % depth not in hist
            if step == start:
                np.testing.assert_array_equal(out, G[k])
        assert len(hist) == MIX_DEPTH  # the history ends full


def assert_carries_its_spectrum(u):
    """u carries rfft(u.values), real and read-only."""
    ref = np.fft.rfft(u.values)
    assert u.spectrum.dtype == np.float64 and not u.spectrum.flags.writeable
    assert np.max(np.abs(u.spectrum - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestAttachedSpectrum:
    def test_desk_fkdv_wave(self, q075_wave):
        assert_carries_its_spectrum(q075_wave.profile)

    def test_derived_fbbm_wave(self, grid_desk):
        model = ModelSpec(family=FBBM, symbol=POWER(0.75), bbm_form="derived")
        assert_carries_its_spectrum(petviashvili(model, 2.0, grid_desk).profile)

    @pytest.fixture(scope="class")
    def large_wave(self):
        model = ModelSpec(family=FKDV, symbol=POWER(0.75))
        return petviashvili(model, 1.0, make_grid(1 << 16, 3200.0))

    def test_large_solve(self, large_wave):
        assert_carries_its_spectrum(large_wave.profile)

    def test_weinstein_holds_one_array_of_the_wave(self, large_wave):
        # |u|^(p+2) is raised in place, after the forms' temporaries are
        # gone: one array of n values (the power of a separate |u| held two)
        u = large_wave.profile
        gc.collect()
        tracemalloc.start()
        try:
            weinstein(u, 0.75)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= u.values.nbytes + 64 * 1024

    def test_upsampled_wave(self, q075_wave):
        # the real spectrum of a wave gives the fine samples by one even
        # transform; they match the complex zero-padding route, and the seed
        # carries no spectrum, so it holds no more than its samples
        u = q075_wave.profile
        fine = upsample_field(u, 4 * u.grid.n)
        plain = upsample_field(field_from_values(u.grid, u.values), 4 * u.grid.n)
        assert fine.spectrum is None and plain.spectrum is None
        assert np.max(np.abs(fine.values - plain.values)) <= 1e-14 * np.max(u.values)
        assert np.array_equal(fine.values[1:], fine.values[:0:-1])

    def test_checks_of_a_solved_wave_take_no_rfft(self, q075_wave, monkeypatch):
        calls = spy_transforms(monkeypatch)
        identity_suite(q075_wave)
        weinstein(q075_wave.profile, 0.75)
        assert [name for name, _, _ in calls if name == "rfft"] == []


STAGED_SCHEDULES = {  # n -> (n, tol, max_iter) of each petviashvili call
    1024: [(1024, 1e-10, 500)],
    4096: [(4096, 1e-10, 500)],
    8192: [(4096, 1e-9, 2000), (8192, 1e-10, 500)],
    32768: [(4096, 1e-9, 2000), (16384, 1e-9, 2000), (32768, 1e-10, 500)],
    1 << 17: [(4096, 1e-9, 2000), (16384, 1e-9, 2000), (65536, 1e-9, 2000),
              (1 << 17, 1e-10, 500)],
    1 << 19: [(8192, 1e-9, 2000), (32768, 1e-9, 2000), (1 << 17, 1e-9, 2000),
              (1 << 19, 1e-10, 500)],
    1 << 20: [(16384, 1e-9, 2000), (65536, 1e-9, 2000), (1 << 18, 1e-9, 2000),
              (1 << 20, 1e-10, 500)],
    1 << 22: [(65536, 1e-9, 2000), (1 << 18, 1e-9, 2000), (1 << 20, 1e-9, 2000),
              (1 << 22, 1e-10, 500)],
}


def recorded_schedule(monkeypatch, n):
    """The (n, tol, max_iter) of each petviashvili call of solve_refined(n),
    with petviashvili and upsample_field replaced by recorders, so no solve
    runs.  Also checks that each stage is seeded by the previous stage's
    profile upsampled to its own size."""
    calls = []

    def fake_petviashvili(model, c, grid, tol, max_iter, seed_profile):
        expected = None if not calls else ("upsampled", ("profile", calls[-1][0]), grid.n)
        assert seed_profile == expected
        calls.append((grid.n, tol, max_iter))
        return SimpleNamespace(profile=("profile", grid.n))

    monkeypatch.setattr(ground_state, "petviashvili", fake_petviashvili)
    monkeypatch.setattr(ground_state, "upsample_field",
                        lambda u, n_new: ("upsampled", u, n_new))
    model = ModelSpec(family=FKDV, symbol=POWER(0.75))
    ground_state.solve_refined(model, 1.0, n, 25600.0)
    return calls


class TestSolveRefined:
    @pytest.mark.parametrize("n", sorted(STAGED_SCHEDULES))
    def test_schedule(self, monkeypatch, n):
        assert recorded_schedule(monkeypatch, n) == STAGED_SCHEDULES[n]

    def test_bench_chains_measure_the_library_schedule(self, monkeypatch):
        # the refine_chain workload spells out its own stage list, which must
        # stay the library's; exec of the source leaves no bytecode in bench/
        path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
        workloads = {"__name__": "workloads"}
        exec(compile(path.read_text(), str(path), "exec"), workloads)
        for _, n, _ in workloads["CHAINS"]:
            library = [size for size, _, _ in recorded_schedule(monkeypatch, n)]
            assert workloads["solve_stages"](n) + [n] == library

    def test_final_stage_memory(self):
        # the final stage holds the ring of 2 (MIX_DEPTH + 1) rows of n/2 + 1
        # values, the samples, Q_hat and lin (3 rows) and the even
        # transform's work space (about n values: from n = 2^17 on, the
        # helper thread's odd half works beside the caller's even half).  The
        # seed, passed inline, is dropped once its even half is taken, and
        # neither the previous stage's wave nor a grid's xi_r is held; the
        # bound keeps 2 rows for them all the same.  The twiddles are cached
        # first.  Measured 15.05 rows (17.8 with the seed, xi_r and that wave)
        n = 1 << 18
        _even_rfft(np.zeros(n // 2 + 1), np.empty(n // 2 + 1))
        model = ModelSpec(family=FKDV, symbol=POWER(0.75))
        gc.collect()
        tracemalloc.start()
        try:
            wave = solve_refined(model, 1.0, n, 12800.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = 2 * (MIX_DEPTH + 1) + 3 + 1 + 1
        bound = 8 * (rows * (n // 2 + 1) + _even_work_size(n // 2)) + 64 * 1024
        assert wave.residual_sup < 1e-9
        assert peak <= bound


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

    def test_grids_hold_no_array_after_a_solve_and_its_checks(self):
        # a seeded solve, the identity suite and the Weinstein ratio read x
        # and xi_r of the wave's grid and of the seed's; neither keeps them
        model = ModelSpec(family=FKDV, symbol=POWER(1.0))
        coarse = petviashvili(model, 1.0, make_grid(1024, 100.0))
        seed = upsample_field(coarse.profile, 4096)
        grid = make_grid(4096, 100.0)
        wave = petviashvili(model, 1.0, grid, seed_profile=seed)
        identity_suite(wave)
        weinstein(wave.profile, 1.0)
        assert seed.grid is not grid
        assert vars(grid).keys() == vars(seed.grid).keys() == {"n", "L", "dx"}


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


class TestMinimizerCorrespondence:
    # criterion 04 away from c* = 1: at q = M(Q1) cstar is exactly 1 and
    # rescale_solitary hands back Q1 itself, so only here does its dilation
    # meet the minimizer; the box holds both waves to a tail below 1e-4
    @pytest.mark.parametrize("factor, n, L", [(0.5, 65536, 3200.0), (2.0, 65536, 800.0)],
                             ids=["half_mass", "double_mass"])
    def test_minimizer_is_the_rescaled_ground_state(self, factor, n, L):
        alpha = 0.75
        grid = make_grid(n, L)
        Q1 = petviashvili(ModelSpec(family=FKDV, symbol=POWER(alpha)), 1.0, grid)
        q = factor * mass(Q1.profile)
        res = minimize_iq(q, alpha, grid)
        c_star = cstar(q, 2.0 * mass(Q1.profile), alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # within the resampling bound
            Qs = rescale_solitary(Q1, c_star)
        assert Qs is not Q1 and Qs.c == c_star != 1.0
        assert max(spectral_tail(res.profile), spectral_tail(Qs.profile)) <= 1e-4
        E_pred = c_star / (3.0 * alpha - 1.0) * (0.5 - alpha) * 2.0 * q
        assert abs(res.theta - c_star) < 1e-4 * c_star
        assert abs(res.I_q - E_pred) < 1e-4 * abs(E_pred) and res.I_q < 0.0
        dist, _ = orbital_distance(res.profile, Qs)
        assert dist < 1e-3 * energy_norm(Qs.profile, POWER(alpha))


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

    @pytest.mark.parametrize("kwargs", [dict(tol=0.0), dict(tol=-1.0), dict(tol=np.nan),
                                        dict(tol=np.inf), dict(max_iter=0)],
                             ids=["tol_zero", "tol_negative", "tol_nan", "tol_inf",
                                  "max_iter_zero"])
    def test_rejects_bad_budget(self, kwargs):
        # a nan tol ran every iteration of the budget; max_iter 0 ended in
        # ConvergenceError
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            minimize_iq(1.0, 0.75, make_grid(1024, 50.0), **kwargs)

    def test_non_finite_gradient_stops_at_once(self):
        # q 1e308 puts infinite samples on the mass sphere; the NaN gradient
        # failed the stopping test and every energy comparison, so the flow
        # ran its 20,000 iterations before it raised ConvergenceError
        with pytest.raises(NumericalError, match="non-finite projected gradient nan at iteration 1$"):
            minimize_iq(1e308, 0.75, make_grid(256, 20.0))

    @pytest.mark.parametrize("q", [2.0, 4.0, 8.0, 12.5])
    def test_desk_grid_converges_in_few_iterations(self, grid_desk, q):
        # the preconditioned step does not scale with max |xi|^alpha; the
        # explicit step needed 1,320 (q = 12.5) to 5,230 (q = 4) iterations
        # and did not converge at q = 2 within 20,000, the unmixed flow
        # 147-196, the mixed one 20-39
        res = minimize_iq(q, 0.75, grid_desk)
        assert res.grad_norm < 1e-8 and res.I_q < 0.0
        assert res.iterations <= 60

    def test_depth_four_desk_iterations(self, grid_desk):
        # the mix at MIX_DEPTH 4 takes 18 iterations at q 4 (20 at depth 3)
        assert minimize_iq(4.0, 0.75, grid_desk).iterations <= 18

    def test_energy_restart_keeps_the_mix_off_the_constant_state(self, grid_desk):
        # without the energy restart the mix converges here to the constant
        # state u = sqrt(2q / 2L) (theta 0.025, I_q -(2q)^(3/2) / (6 sqrt(2L))),
        # a higher critical point than the minimizer
        q, L = 0.5, grid_desk.L
        res = minimize_iq(q, 0.9, grid_desk)
        assert res.I_q < -(2 * q) ** 1.5 / (6 * np.sqrt(2 * L))
        assert abs(res.theta - 0.0268153) < 1e-6

    def test_seeded_with_its_minimizer_stops_at_once(self, result):
        res, grid = result
        again = minimize_iq(5.0, 0.75, grid, seed_profile=res.profile)
        assert again.iterations == 1
        assert abs(again.I_q - res.I_q) < 1e-12 * abs(res.I_q)

    @pytest.mark.parametrize("n, L", [(8192, 200.0), (4096, 400.0)], ids=["n", "L"])
    def test_seed_on_another_grid_rejected(self, grid_desk, n, L):
        grid = make_grid(n, L)
        seed = field_from_values(grid, np.exp(-grid.x**2))
        with pytest.raises(ValueError, match="different grids"):
            minimize_iq(4.0, 0.75, grid_desk, seed_profile=seed)

    def test_zero_seed_rejected(self, grid_desk):
        with pytest.raises(ValueError, match="zero"):
            minimize_iq(4.0, 0.75, grid_desk,
                        seed_profile=field_from_values(grid_desk, np.zeros(grid_desk.n)))

    def test_two_transforms_per_iteration(self, grid_desk, monkeypatch):
        # even transforms of the half-grid: one of the seed, one of u^2/2 and
        # one of the update per iteration (the last iteration stops after
        # u^2/2), and none for the final energy.  On the desk grid each is an
        # rfft of n/2 points and an irfft of n/4: 1.5 n points per iteration
        # where the full-grid rfft/irfft pair took 2 n
        calls = spy_transforms(monkeypatch)
        transforms = spy_even_rfft(monkeypatch)
        res = minimize_iq(4.0, 0.75, grid_desk)
        monkeypatch.undo()
        n = grid_desk.n
        assert transforms == [n // 2 + 1] * (2 * res.iterations)
        assert sum(max(a.size, out.size) for _, a, out in calls) <= 1.5 * n * res.iterations

    def test_odd_part_of_seed_is_dropped(self, grid_desk):
        # like petviashvili, the iteration keeps the even part of its seed,
        # so an odd perturbation leaves the minimizer unchanged
        x = grid_desk.x
        seed = field_from_values(grid_desk, np.exp(-(x / 3.0) ** 2))
        odd = field_from_values(grid_desk, x * np.exp(-(x / 4.0) ** 2))
        plain = minimize_iq(4.0, 0.75, grid_desk, seed_profile=seed)
        kicked = minimize_iq(4.0, 0.75, grid_desk, seed_profile=seed + odd)
        assert np.max(np.abs(kicked.profile.values - plain.profile.values)) <= 1e-12

    def test_checks_of_the_minimizer_read_its_spectrum(self, result, monkeypatch):
        # the minimizer carries its real spectrum: its energy and its tail
        # read it and transform nothing, and upsampling it takes the one even
        # transform of the fine half-grid
        res, grid = result
        assert_carries_its_spectrum(res.profile)
        calls = spy_transforms(monkeypatch)
        assert energy_fkdv(res.profile, POWER(0.75)) == res.I_q
        spectral_tail(res.profile)
        assert calls == []
        transforms = spy_even_rfft(monkeypatch)
        fine = upsample_field(res.profile, 2 * grid.n)
        assert transforms == [grid.n + 1]
        assert np.array_equal(fine.values[1:], fine.values[:0:-1])


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
