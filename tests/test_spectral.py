import ast
import os
import pathlib
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from helpers import two_sided_xi

from fracsol import (
    DispersionSymbol,
    ModelSpec,
    apply_multiplier,
    bbm_quadratic,
    d_alpha,
    energy_norm,
    field_from_values,
    integrate,
    l2_norm,
    make_grid,
    petviashvili,
    quad_form,
    resolvent,
    shift_field,
    spectral_tail,
)
from fracsol import spectral
from fracsol.spectral import _even_rfft, _even_work_size

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "fracsol"
POWER = DispersionSymbol.power


def band_limited(grid, rng, n_modes=50):
    coef = np.zeros(grid.n, dtype=complex)
    coef[1 : n_modes + 1] = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
    coef[-n_modes:] = np.conj(coef[1 : n_modes + 1][::-1])
    return field_from_values(grid, np.fft.ifft(coef).real)


def mean_and_nyquist(grid):
    """The two modes the one-sided spectrum counts once: the mean and the
    Nyquist mode cos(pi x / dx)."""
    return field_from_values(grid, 0.3 + 0.2 * np.cos(np.pi * grid.x / grid.dx))


class TestMakeGrid:
    def test_small_grid_arithmetic(self):
        g = make_grid(8, 4.0)
        assert g.dx == 1.0
        np.testing.assert_allclose(g.xi_r / (np.pi / 4.0), [0, 1, 2, 3, 4], atol=1e-15)
        np.testing.assert_allclose(np.sort(two_sided_xi(g)) / (np.pi / 4.0),
                                   [-4, -3, -2, -1, 0, 1, 2, 3], atol=1e-15)

    def test_default_grid_spacing(self):
        g = make_grid(4096, 200.0)
        assert g.dx == 400.0 / 4096
        assert g.dx * g.n == 2.0 * g.L  # exact in floating point
        assert np.count_nonzero(g.xi_r == 0.0) == 1

    def test_sample_points(self):
        g = make_grid(16, 8.0)
        assert g.x[0] == -8.0
        np.testing.assert_allclose(np.diff(g.x), g.dx)

    @pytest.mark.parametrize("n", [6, 7, 12, 100])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ValueError):
            make_grid(n, 1.0)

    @pytest.mark.parametrize("L", [0.0, -3.0])
    def test_rejects_bad_length(self, L):
        with pytest.raises(ValueError):
            make_grid(8, L)

    def test_coordinates_on_demand(self):
        # a grid is the plain value (n, L, dx) and holds no array: x and
        # xi_r are built on each read, bitwise by their formulas, and every
        # read is a fresh array that its reader owns
        n, L = 1 << 20, 25600.0
        tracemalloc.start()
        try:
            grid = make_grid(n, L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 1024
        x, xi_r = grid.x, grid.xi_r
        assert x.tobytes() == (-L + grid.dx * np.arange(n)).tobytes()
        assert xi_r.tobytes() == (2.0 * np.pi * np.fft.rfftfreq(n, grid.dx)).tobytes()
        assert grid.x is not x and grid.xi_r is not xi_r
        assert x.flags.writeable and xi_r.flags.writeable
        assert vars(grid).keys() == {"n", "L", "dx"}

    def test_same_n_and_L_is_the_same_grid(self):
        a = field_from_values(make_grid(64, 5.0), np.ones(64))
        b = field_from_values(make_grid(64, 5), np.ones(64))
        assert a.grid is not b.grid
        np.testing.assert_array_equal((a + b).values, 2.0)


class TestApplyMultiplier:
    def test_eigenfunction(self):
        g = make_grid(256, np.pi)
        k, alpha = 3.0, 0.7
        u = field_from_values(g, np.sin(k * g.x))
        out = apply_multiplier(u, lambda xi: np.abs(xi) ** alpha)
        np.testing.assert_allclose(out.values, k**alpha * np.sin(k * g.x), atol=1e-12)

    def test_identity_multiplier(self, rng):
        g = make_grid(128, 10.0)
        u = band_limited(g, rng, 30)
        out = apply_multiplier(u, lambda xi: np.ones_like(xi))
        np.testing.assert_allclose(out.values, u.values, atol=1e-13)

    def test_whitham_value_matches_small_frequency_expansion(self):
        sym = DispersionSymbol.whitham()
        val = float(sym(np.array([0.1]))[0])
        assert abs(val - np.sqrt(np.tanh(0.1) / 0.1)) < 1e-14
        assert abs(val - 0.998335) < 1e-5
        assert abs(val - (1.0 - 0.1**2 / 6.0)) < 1e-4
        assert float(sym(np.array([0.0]))[0]) == 1.0

    def test_whitham_tension_symbol(self):
        sym = DispersionSymbol.whitham_tension(2.0)
        xi = np.array([0.0, 0.5, -0.5])
        vals = sym(xi)
        assert vals[0] == 1.0
        assert vals[1] == vals[2]
        expected = np.sqrt(1.0 + 2.0 * 0.25) * np.sqrt(np.tanh(0.5) / 0.5)
        np.testing.assert_allclose(vals[1], expected)

    def test_rejects_non_finite_multiplier(self, rng):
        g = make_grid(64, 5.0)
        u = band_limited(g, rng, 10)
        with pytest.raises(ValueError, match="finite"):
            apply_multiplier(u, lambda xi: 1.0 / xi)

    def test_rejects_odd_multiplier(self, rng):
        g = make_grid(64, 5.0)
        u = band_limited(g, rng, 10)
        with pytest.raises(ValueError, match="even"):
            apply_multiplier(u, lambda xi: xi)


class TestDAlpha:
    def test_zero_order_is_identity(self, rng):
        g = make_grid(128, 7.0)
        u = band_limited(g, rng, 20)
        assert d_alpha(u, 0.0) is u

    def test_cosine_eigenfunction(self):
        g = make_grid(256, np.pi)
        u = field_from_values(g, np.cos(2.0 * g.x))
        out = d_alpha(u, 1.0)
        np.testing.assert_allclose(out.values, 2.0 * np.cos(2.0 * g.x), atol=1e-12)

    def test_matches_direct_transform_summation(self):
        # oracle: explicit DFT sums, no FFT machinery
        g = make_grid(64, 10.0)
        u = field_from_values(g, np.exp(-g.x**2))
        s = 0.75
        out = d_alpha(u, s)
        xis = two_sided_xi(g)
        for m in range(0, 64, 8):
            uhat = np.array([np.sum(u.values * np.exp(-1j * xi * (g.x - g.x[0])))
                             for xi in xis])
            direct = np.sum(np.abs(xis) ** s * uhat
                            * np.exp(1j * xis * (g.x[m] - g.x[0]))).real / g.n
            assert abs(out.values[m] - direct) < 1e-12

    def test_rejects_negative_order(self, bo_wave):
        with pytest.raises(ValueError):
            d_alpha(bo_wave.profile, -0.5)

    def test_additive_in_order(self, rng):
        g = make_grid(256, 10.0)
        u = band_limited(g, rng, 40)
        both = d_alpha(d_alpha(u, 0.4), 0.9)
        once = d_alpha(u, 1.3)
        np.testing.assert_allclose(both.values, once.values, rtol=1e-12, atol=1e-12)


class TestResolvent:
    def test_right_inverse_of_shifted_operator(self, rng):
        g = make_grid(256, 20.0)
        sym = DispersionSymbol.power(0.6)
        u = band_limited(g, rng, 60)
        inv = resolvent(u, 1.3, sym)
        back = apply_multiplier(inv, lambda xi: 1.3 + sym(xi))
        np.testing.assert_allclose(back.values, u.values, atol=1e-12)

    def test_constant_field_zero_mode(self):
        g = make_grid(64, 5.0)
        u = field_from_values(g, np.ones(g.n))
        out = resolvent(u, 2.0, DispersionSymbol.power(0.8))
        np.testing.assert_allclose(out.values, 0.5, atol=1e-14)

    def test_sine_eigenvalue(self):
        g = make_grid(256, np.pi)
        u = field_from_values(g, np.sin(g.x))
        out = resolvent(u, 1.0, DispersionSymbol.power(1.0))
        np.testing.assert_allclose(out.values, np.sin(g.x) / 2.0, atol=1e-13)

    def test_rejects_nonpositive_velocity(self, bo_wave):
        with pytest.raises(ValueError):
            resolvent(bo_wave.profile, 0.0, DispersionSymbol.power(1.0))


class TestEnergyNorm:
    def test_zero_field(self):
        g = make_grid(64, 5.0)
        assert energy_norm(field_from_values(g, np.zeros(g.n)), POWER(1.0)) == 0.0

    def test_sine_on_pi_box(self):
        g = make_grid(256, np.pi)
        u = field_from_values(g, np.sin(g.x))
        np.testing.assert_allclose(energy_norm(u, POWER(1.0)), np.sqrt(2.0 * np.pi), rtol=1e-13)

    def test_monotone_in_alpha_above_unit_frequency(self):
        g = make_grid(256, np.pi)
        u = field_from_values(g, np.sin(2.0 * g.x) + 0.5 * np.cos(3.0 * g.x))
        norms = [energy_norm(u, POWER(a)) for a in (0.4, 0.8, 1.2, 1.6, 2.0)]
        assert all(b >= a for a, b in zip(norms, norms[1:]))

    def test_rejects_alpha_out_of_range(self):
        # the norm takes a symbol, and the symbol owns the alpha range
        for alpha in (0.0, -1.0, 2.5):
            with pytest.raises(ValueError, match="alpha in"):
                POWER(alpha)

    def test_whitham_is_twice_the_bbm_quadratic(self, rng):
        g = make_grid(256, 15.0)
        u = band_limited(g, rng, 60)
        whitham = DispersionSymbol.whitham()
        assert energy_norm(u, whitham) == np.sqrt(2.0 * bbm_quadratic(u, whitham))


class TestShiftField:
    def test_zero_shift(self, rng):
        g = make_grid(128, 10.0)
        u = band_limited(g, rng, 20)
        np.testing.assert_allclose(shift_field(u, 0.0).values, u.values, atol=1e-14)

    def test_full_period(self, rng):
        g = make_grid(128, 10.0)
        u = band_limited(g, rng, 20)
        np.testing.assert_allclose(shift_field(u, 2.0 * g.L).values, u.values, atol=1e-12)

    def test_quarter_period_of_sine(self):
        g = make_grid(256, np.pi)
        u = field_from_values(g, np.sin(g.x))
        out = shift_field(u, np.pi / 2.0)
        np.testing.assert_allclose(out.values, np.cos(g.x), atol=1e-12)

    def test_nyquist_convention_matches_full_spectrum(self, rng):
        g = make_grid(128, 10.0)
        u = band_limited(g, rng, 20) + mean_and_nyquist(g)
        y = 0.37
        # full-spectrum phase with the real-even cos convention at Nyquist
        xi = two_sided_xi(g)
        phase = np.exp(1j * xi * y)
        phase[g.n // 2] = np.cos(xi[g.n // 2] * y)
        expected = np.fft.ifft(phase * np.fft.fft(u.values)).real
        np.testing.assert_allclose(shift_field(u, y).values, expected, rtol=0, atol=1e-13)

    def test_preserves_norms(self, rng):
        g = make_grid(256, 15.0)
        u = band_limited(g, rng, 60)
        y = 3.71234
        v = shift_field(u, y)
        assert abs(l2_norm(v) - l2_norm(u)) < 1e-12 * l2_norm(u)
        norm = energy_norm(u, POWER(0.8))
        assert abs(energy_norm(v, POWER(0.8)) - norm) < 1e-12 * norm


class TestAlgebraicProperties:
    def test_multiplier_composition(self, rng):
        g = make_grid(256, 12.0)
        u = band_limited(g, rng, 50)
        m1 = lambda xi: 1.0 / (1.0 + xi**2)
        m2 = lambda xi: np.abs(xi) ** 0.5
        twice = apply_multiplier(apply_multiplier(u, m1), m2)
        once = apply_multiplier(u, lambda xi: m1(xi) * m2(xi))
        np.testing.assert_allclose(twice.values, once.values, rtol=1e-12, atol=1e-13)

    def test_parseval(self, rng):
        g = make_grid(512, 30.0)
        u = band_limited(g, rng, 100) + mean_and_nyquist(g)
        physical = g.dx * np.sum(u.values**2)
        uhat = np.fft.fft(u.values)
        spectral = g.dx / g.n * np.sum(np.abs(uhat) ** 2)
        assert abs(physical - spectral) < 1e-12 * physical
        # the one-sided form against the full-spectrum sum, with and without a weight
        half = np.fft.rfft(u.values)
        assert abs(quad_form(half, g, 1.0) - spectral) < 1e-12 * spectral
        full = g.dx / g.n * np.sum((1.0 + np.abs(two_sided_xi(g)) ** 0.7) * np.abs(uhat) ** 2)
        assert abs(quad_form(half, g, 1.0 + g.xi_r**0.7) - full) < 1e-12 * full

    def test_two_spectrum_parseval(self, rng):
        # int (m(D)u) v by polarization of the one-spectrum form, against the samples
        g = make_grid(512, 30.0)
        u = band_limited(g, rng, 100) + mean_and_nyquist(g)
        v = band_limited(g, rng, 100) + mean_and_nyquist(g) * 0.5
        weight = 1.0 / (1.0 + g.xi_r**0.7)
        mv = apply_multiplier(v, lambda xi: 1.0 / (1.0 + np.abs(xi) ** 0.7))
        physical = g.dx * np.sum(u.values * mv.values)
        plus = quad_form(np.fft.rfft(u.values + v.values), g, weight)
        minus = quad_form(np.fft.rfft(u.values - v.values), g, weight)
        assert abs((plus - minus) / 4.0 - physical) < 1e-12 * (plus + minus)

    def test_spectral_tail(self):
        g = make_grid(1024, 50.0)
        wide = field_from_values(g, np.exp(-g.x**2))
        narrow = field_from_values(g, np.exp(-(g.x / 0.05) ** 2))
        assert spectral_tail(wide) < 1e-12
        assert spectral_tail(narrow) > 1e-1
        assert spectral_tail(field_from_values(g, np.zeros(g.n))) == 0.0

    def test_linearity(self, rng):
        g = make_grid(128, 8.0)
        u, v = band_limited(g, rng, 30), band_limited(g, rng, 30)
        a, b = 2.5, -1.25
        sym = DispersionSymbol.power(0.9)
        left = apply_multiplier(a * u + b * v, sym)
        right = a * apply_multiplier(u, sym) + b * apply_multiplier(v, sym)
        np.testing.assert_allclose(left.values, right.values, atol=1e-12)

    def test_integrate_constant(self):
        g = make_grid(64, 3.0)
        u = field_from_values(g, np.full(g.n, 2.0))
        assert abs(integrate(u) - 12.0) < 1e-12


def mirrored(half):
    """The even sequence of length 2N whose samples 0..N are half."""
    return np.concatenate((half, half[-2:0:-1]))


class TestEvenRfft:
    # n/2 just below, at and just above spectral._EVEN_BASE (4096), where the
    # recursion on the even fold starts, and two sizes that recurse three and
    # five levels
    SIZES = [8, 16, 4096, 8192, 16384, 1 << 16, 1 << 18]

    @staticmethod
    def halves(n, rng):
        x = np.linspace(-1.0, 0.0, n // 2 + 1)
        # random even data and an algebraically decaying profile
        return [rng.standard_normal(n // 2 + 1), 1.0 / (1.0 + (200.0 * x) ** 2) ** 0.875]

    @pytest.mark.parametrize("n", SIZES)
    def test_matches_rfft_of_mirrored_sequence(self, n, rng):
        for half in self.halves(n, rng):
            X = np.fft.rfft(mirrored(half))
            out = _even_rfft(half, np.empty(n // 2 + 1))
            assert np.max(np.abs(out - X)) <= 1e-14 * np.max(np.abs(X))

    @pytest.mark.parametrize("n", SIZES)
    def test_is_its_own_inverse_up_to_n(self, n, rng):
        for half in self.halves(n, rng):
            spectrum = _even_rfft(half, np.empty(n // 2 + 1))
            back = _even_rfft(spectrum, np.empty(n // 2 + 1)) / n
            assert np.max(np.abs(back - half)) <= 1e-14 * np.max(np.abs(half))

    def test_work_buffer_gives_same_result(self, rng):
        # at the base and where the recursion runs, no value of the work space
        # is read before it is written
        for n in (8192, 1 << 16):
            half = rng.standard_normal(n // 2 + 1)
            work = np.full(n + 2, np.nan)
            np.testing.assert_array_equal(_even_rfft(half, np.empty(half.size), work),
                                          _even_rfft(half, np.empty(half.size)))

    @pytest.mark.parametrize("N", [4096, 8192, 1 << 16, 1 << 18])
    def test_exact_workspace(self, N, rng):
        # the recursion reuses its work space: the child works past the even
        # fold, the odd half in the first N + 2 values once the child is done;
        # from _EVEN_SPLIT on, the helper's odd half works in the N + 2 values
        # past the even half's
        half = rng.standard_normal(N + 1)
        work = np.full(_even_work_size(N), np.nan)
        np.testing.assert_array_equal(_even_rfft(half, np.empty(N + 1), work),
                                      _even_rfft(half, np.empty(N + 1)))

    @pytest.mark.parametrize("N", [1 << 16, 1 << 17, 1 << 18])
    def test_helper_thread_gives_the_one_thread_bits(self, N, rng, monkeypatch):
        # from _EVEN_SPLIT on, the helper thread takes the odd half of the top
        # level only; with the split moved past N, the caller takes both
        assert N >= spectral._EVEN_SPLIT
        threads = []

        def odd(x, out, twiddle, work, _original=spectral._odd_outputs):
            threads.append((x.size - 1, threading.get_ident()))
            _original(x, out, twiddle, work)

        for half in self.halves(2 * N, rng):
            with monkeypatch.context() as patch:
                patch.setattr(spectral, "_EVEN_SPLIT", 2 * N)
                serial = _even_rfft(half, np.empty(N + 1))
            threads.clear()
            with monkeypatch.context() as patch:
                patch.setattr(spectral, "_odd_outputs", odd)
                split = _even_rfft(half, np.empty(N + 1))
            assert split.tobytes() == serial.tobytes()
            helper = {size: ident for size, ident in threads}
            assert helper.pop(N) != threading.get_ident()
            assert set(helper.values()) == {threading.get_ident()}

    def test_threads_share_the_helper(self, rng, monkeypatch):
        # more threads than cores transforming different inputs at once, with
        # short switch intervals: each gets its one-thread result bitwise
        N = 1 << 17
        inputs = [rng.standard_normal(N + 1) for _ in range(4)]
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_EVEN_SPLIT", 2 * N)
            expected = [_even_rfft(x, np.empty(N + 1)).tobytes() for x in inputs]
        start = threading.Barrier(len(inputs))

        def transform(x):
            start.wait(timeout=10)
            return [_even_rfft(x, np.empty(N + 1)).tobytes() for _ in range(5)]

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(inputs)) as pool:
                results = list(pool.map(transform, inputs, timeout=60))
        finally:
            sys.setswitchinterval(switch)
        for got, want in zip(results, expected):
            assert got == [want] * 5

    def test_waits_for_the_helper_when_its_own_half_raises(self, rng, monkeypatch):
        # out one value short: the caller's even half fails its copy while the
        # slowed helper still writes; the error leaves only after the helper
        N = spectral._EVEN_SPLIT
        x = rng.standard_normal(N + 1)
        expected = _even_rfft(x, np.empty(N + 1)).tobytes()
        finished = []

        def slow_odd(x, out, twiddle, work, _original=spectral._odd_outputs):
            if x.size == N + 1:
                time.sleep(0.2)
            _original(x, out, twiddle, work)
            finished.append(x.size - 1)

        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_odd_outputs", slow_odd)
            with pytest.raises(ValueError):
                _even_rfft(x, np.empty(N))
            assert N in finished
        assert _even_rfft(x, np.empty(N + 1)).tobytes() == expected

    @pytest.mark.skipif(len(spectral._CPUS) < 2, reason="needs two CPUs")
    def test_helper_keeps_off_the_callers_cpu(self, rng, monkeypatch):
        # the helper takes every CPU the process may use but the caller's,
        # and follows the caller when it moves
        assert spectral._cpu() in spectral._CPUS
        N = spectral._EVEN_SPLIT
        x = rng.standard_normal(N + 1)
        for cpu in sorted(spectral._CPUS)[:2]:
            monkeypatch.setattr(spectral, "_cpu", lambda cpu=cpu: cpu)
            _even_rfft(x, np.empty(N + 1))
            helper_cpus = spectral._helper.submit(os.sched_getaffinity, 0).result(timeout=10)
            assert helper_cpus == spectral._CPUS - {cpu}

    @pytest.mark.parametrize("first", [1 << 18, 2], ids=["larger_first", "smaller_first"])
    def test_one_twiddle_table_serves_every_level(self, first, monkeypatch):
        # a level reads every (M/m)-th entry of the one table of the largest
        # m = M asked for, bitwise equal to its own table, built first or not
        monkeypatch.setattr(spectral, "_twiddles", np.ones(1, dtype=np.complex128))
        spectral._quarter_twiddle(first)
        for m in [1 << j for j in range(1, 19)]:
            t = spectral._quarter_twiddle(m)
            assert not t.flags.writeable
            assert t.tobytes() == np.exp(0.5j * np.pi / m * np.arange(m // 2 + 1)).tobytes()
        assert spectral._twiddles.size == (1 << 17) + 1

    def test_threads_read_correct_twiddles_while_the_table_grows(self, monkeypatch):
        # solves in sweep threads replace the table without a lock: a view
        # taken from a replaced table stays valid and bitwise correct
        sizes = [1 << j for j in range(1, 13)]
        expected = {m: np.exp(0.5j * np.pi / m * np.arange(m // 2 + 1)).tobytes() for m in sizes}

        def read(order):
            return [spectral._quarter_twiddle(m).tobytes() == expected[m] for m in order]

        rng = np.random.default_rng(0)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for _ in range(20):
                    monkeypatch.setattr(spectral, "_twiddles", np.ones(1, dtype=np.complex128))
                    futures = [pool.submit(read, rng.permutation(sizes)) for _ in range(8)]
                    assert all(all(f.result(timeout=10)) for f in futures)
        finally:
            sys.setswitchinterval(switch)

    def test_workspace_size(self):
        # 2N + 2 at or below the base; above it the even fold and its gap
        # (N/2 + 2) before the child's work space, and at least the N + 2
        # of the odd half; from _EVEN_SPLIT on, N + 2 more for the helper's
        # odd half: 528,400 + 524,290 values for the 2^20-point grid
        assert [_even_work_size(N) for N in (8, 4096)] == [18, 8194]
        assert _even_work_size(8192) == 4096 + 2 + 8194
        assert _even_work_size(1 << 15) == spectral._fold_work_size(1 << 15)
        assert _even_work_size(1 << 19) == 528400 + (1 << 19) + 2

    def test_petviashvili_residual_floor(self):
        # the even transform keeps the accuracy of the rfft: the solve reaches
        # 6.6e-13 with full-grid transforms, and a cumulative-sum cosine
        # transform raised it to 3.0e-12
        grid = make_grid(8192, 200.0)
        model = ModelSpec(family="fkdv", symbol=DispersionSymbol.power(0.75))
        wave = petviashvili(model, 1.0, grid, tol=1e-12)
        assert wave.residual_sup <= 2e-12


class TestFieldValidation:
    def test_rejects_wrong_length(self):
        g = make_grid(64, 5.0)
        with pytest.raises(ValueError):
            field_from_values(g, np.zeros(32))

    def test_rejects_non_finite(self):
        g = make_grid(64, 5.0)
        bad = np.zeros(g.n)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            field_from_values(g, bad)

    def test_rejects_mixed_grids(self):
        a = field_from_values(make_grid(64, 5.0), np.zeros(64))
        b = field_from_values(make_grid(64, 6.0), np.zeros(64))
        with pytest.raises(ValueError):
            _ = a + b


class TestKernelOwnership:
    def test_half_spectrum_convention_lives_in_spectral(self):
        """1D transforms of real fields are rfft/irfft, and only the grid
        modules build wavenumber lattices (kp keeps its own 2D ones)."""
        sources = sorted(SRC.glob("*.py"))
        assert sources
        offenders = []
        for path in sources:
            for lineno, line in enumerate(path.read_text().splitlines(), start=1):
                complex_1d = re.search(r"np\.fft\.(fft|ifft)\(", line)
                lattice = "fftfreq" in line and path.name not in ("spectral.py", "kp.py")
                if complex_1d or lattice:
                    offenders.append(f"{path.name}:{lineno}: {line.strip()}")
        assert not offenders, "\n".join(offenders)

    def test_functionals_and_checks_transform_through_spectral(self):
        """functionals takes no transform of its own, verification only the
        irfft that draws its random fields, and no module outside spectral
        spells out the multiplier round trip irfft(m * rfft(u))."""
        offenders = [f"functionals.py:{i}" for i, line in enumerate(
            (SRC / "functionals.py").read_text().splitlines(), start=1) if "np.fft" in line]
        source = (SRC / "verification.py").read_text()
        draw = next(node for node in ast.parse(source).body
                    if getattr(node, "name", None) == "_random_low_modes")
        offenders += [f"verification.py:{i}" for i, line in enumerate(source.splitlines(), start=1)
                      if "np.fft" in line and not draw.lineno <= i <= draw.end_lineno]
        for path in sorted(SRC.glob("*.py")):
            if path.name != "spectral.py":
                offenders += [f"{path.name}:{i}" for i, line in enumerate(
                    path.read_text().splitlines(), start=1)
                    if re.search(r"irfft\(.*\*\s*np\.fft\.rfft\(", line)]
        assert not offenders, offenders

    def test_field_transforms_go_through_spectrum(self):
        """A field's forward transform is read only through spectral._spectrum,
        which returns the spectrum a solved wave carries instead of taking it
        again."""
        source = (SRC / "spectral.py").read_text()
        accessor = next(node for node in ast.parse(source).body
                        if getattr(node, "name", None) == "_spectrum")
        offenders = []
        for path in sorted(SRC.glob("*.py")):
            for i, line in enumerate(path.read_text().splitlines(), start=1):
                inside = path.name == "spectral.py" and accessor.lineno <= i <= accessor.end_lineno
                if re.search(r"np\.fft\.rfft\(\s*\w+\.values", line) and not inside:
                    offenders.append(f"{path.name}:{i}: {line.strip()}")
        assert not offenders, "\n".join(offenders)

    def test_solvers_transform_through_the_even_kernel(self):
        """petviashvili and minimize_iq take every transform with
        spectral._even_rfft: in ground_state only upsample_field, which also
        resamples fields without a real spectrum, calls np.fft."""
        source = (SRC / "ground_state.py").read_text()
        upsample = next(node for node in ast.parse(source).body
                        if getattr(node, "name", None) == "upsample_field")
        offenders = [f"ground_state.py:{i}: {line.strip()}"
                     for i, line in enumerate(source.splitlines(), start=1)
                     if "np.fft" in line and not upsample.lineno <= i <= upsample.end_lineno]
        assert not offenders, "\n".join(offenders)

    def test_import_loads_no_scipy(self):
        """numpy is the only dependency: importing the package loads no scipy
        module."""
        code = ("import fracsol, sys; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=str(SRC.parent))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "[]"
