"""Shared test utilities: the two-sided wavenumber lattice for full-spectrum
oracles, and staged coarse-to-fine ground-state solves for the large boxes
that tight identity tolerances require."""

import numpy as np

from fracsol import make_grid, petviashvili
from fracsol.ground_state import upsample_field


def two_sided_xi(grid):
    """The fft-ordered wavenumbers 2*pi*fftfreq(n, dx) of a grid, for oracles
    on the full spectrum; the library keeps only the one-sided xi_r."""
    return 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)


def solve_big(model, c, n, L, tol=1e-10):
    """Petviashvili on an (n, L) grid through a chain of spectral refinements,
    so each stage only polishes the previous one."""
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
