"""Shared test utilities: the two-sided wavenumber lattice and the direct
trigonometric-interpolant evaluator for oracles, and a recorder of the
library's 1D transforms."""

import numpy as np

from fracsol.ground_state import _interp_weights

INTERP_CHUNK = 512  # evaluation points per block of sample_interpolant


def two_sided_xi(grid):
    """The fft-ordered wavenumbers 2*pi*fftfreq(n, dx) of a grid, for oracles
    on the full spectrum; the library keeps only the one-sided xi_r."""
    return 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)


def spy_transforms(monkeypatch):
    """Wrap np.fft.rfft and np.fft.irfft for the rest of the test; every call
    appends (name, copy of the input, copy of the output) to the returned
    list.  The library calls both through the np.fft module attribute."""
    calls = []
    for name in ("rfft", "irfft"):
        def wrapper(a, *args, _name=name, _original=getattr(np.fft, name), **kwargs):
            out = _original(a, *args, **kwargs)
            calls.append((_name, np.array(a), out.copy()))
            return out
        monkeypatch.setattr(np.fft, name, wrapper)
    return calls


def sample_interpolant(u, points):
    """Evaluate the trigonometric interpolant of u at arbitrary points by the
    direct O(n * len(points)) sum: the oracle for the library's chirp-z
    evaluator sample_interpolant_uniform."""
    grid = u.grid
    weights, xi_r = _interp_weights(u)
    pts = np.asarray(points, dtype=np.float64)
    out = np.empty(pts.shape, dtype=np.float64)
    flat = pts.ravel()
    res = out.ravel()
    x0 = grid.x[0]
    for start in range(0, flat.size, INTERP_CHUNK):
        sl = slice(start, min(start + INTERP_CHUNK, flat.size))
        phases = np.exp(1j * np.outer(flat[sl] - x0, xi_r))
        res[sl] = (phases @ weights).real
    return out
