"""Shared test utilities: the two-sided wavenumber lattice and the direct
trigonometric-interpolant evaluator for oracles, a recorder of the library's
1D transforms, and staged coarse-to-fine ground-state solves for the large
boxes that tight identity tolerances require."""

import numpy as np

from fracsol import make_grid, petviashvili
from fracsol.ground_state import _interp_weights, upsample_field

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


def solve_big(model, c, n, L, tol=1e-10):
    """Petviashvili on an (n, L) grid through a chain of refinements by 4 in
    n at fixed L, each seeded with the previous stage's profile upsampled by
    zero-padding its spectrum.  The coarse stages do not resolve the core,
    so a stage does not merely polish its seed: the seeds of the alpha = 0.75
    (n 2^19) and 0.7 (n 2^20) chains at L = 25600 start at sup residual
    0.12-1.36, and those of the acceptance chains at 1e-9 to 6.4."""
    stages = []
    size = n
    while size > 4096 and size > n // 64:
        size //= 4
    size = max(size, 4096)
    while size < n:
        stages.append(size)
        size *= 4
    wave = None
    for m_pts in stages:
        seed = None if wave is None else upsample_field(wave.profile, m_pts)
        wave = petviashvili(model, c, make_grid(m_pts, L), tol=1e-9,
                            max_iter=2000, seed_profile=seed)
    seed = None if wave is None else upsample_field(wave.profile, n)
    return petviashvili(model, c, make_grid(n, L), tol=tol, max_iter=500,
                        seed_profile=seed)
