"""Shared test utilities: the two-sided wavenumber lattice, the direct
trigonometric-interpolant evaluator, the expression-form ETDRK4 loop, the
40-digit ETDRK4 coefficients and the periodic Benjamin-Ono wave and its
integrals for oracles, and recorders of the library's 1D transforms and of
the solvers' even transforms."""

from decimal import Decimal, localcontext

import numpy as np

from fracsol import ground_state
from fracsol.evolution import _etdrk4_coefficients
from fracsol.ground_state import FBBM, _interp_weights
from fracsol.spectral import _spectrum

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


def spy_even_rfft(monkeypatch):
    """Wrap the solvers' even transform ground_state._even_rfft for the rest
    of the test; every call appends the size of its input to the returned
    list."""
    sizes = []

    def spy(x, out, work=None, _original=ground_state._even_rfft):
        sizes.append(x.size)
        return _original(x, out, work)

    monkeypatch.setattr(ground_state, "_even_rfft", spy)
    return sizes


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


def etdrk4_expression_form(model, u0, dt, n_steps):
    """The samples after n_steps ETDRK4 steps of evolution.evolve, with
    every product and sum a fresh array: the reference that the buffered
    loop of evolve must match bitwise."""
    grid = u0.grid
    xi_r = grid.xi_r
    mask = np.ones(xi_r.size)
    mask[xi_r > (2.0 / 3.0) * xi_r[-1]] = 0.0
    ik = 1j * xi_r
    ik[-1] = 0.0
    p, symbol = model.p, model.symbol
    if model.family == FBBM:
        lin = -ik / (1.0 + symbol(xi_r))
        nl_mult = lin * mask / 2.0
    else:
        lin = ik * symbol(xi_r)
        nl_mult = -ik * mask / (p + 1)
    E, E2, Q, f1, f2x2, f3 = _etdrk4_coefficients(lin, dt)

    def nonlinear(vhat):
        return nl_mult * np.fft.rfft(np.fft.irfft(vhat, n=grid.n) ** (p + 1))

    uhat = _spectrum(u0)
    for _ in range(n_steps):
        n0 = nonlinear(uhat)
        e2u = E2 * uhat
        a = e2u + Q * n0
        na = nonlinear(a)
        b = e2u + Q * na
        nb = nonlinear(b)
        c = E2 * a + Q * (2.0 * nb - n0)
        nc = nonlinear(c)
        uhat = E * uhat + f1 * n0 + f2x2 * (na + nb) + f3 * nc
    return np.fft.irfft(uhat, n=grid.n)


def etdrk4_coefficients_reference(theta, dt):
    """Q, f1, f2x2, f3 of evolution._etdrk4_coefficients at z = i*theta
    (theta a float, taken exactly) for the step dt, as 40-digit sums of
    their Taylor series, rounded once:
    Q = dt sum_k (z/2)^k / (2 (k+1)!), f1 = dt sum_k (k+1)^2 z^k / (k+3)!,
    f2x2 = 2 dt sum_k (k+1) z^k / (k+3)! and f3 = dt sum_k (1-k) z^k / (k+3)!."""
    with localcontext() as ctx:
        ctx.prec = 40
        t, step, tiny = Decimal(theta), Decimal(dt), Decimal(10) ** -45
        sums = [[Decimal(0), Decimal(0)] for _ in range(4)]  # real, imaginary
        half, term = Decimal(1), Decimal(1) / 6  # (t/2)^k / (k+1)!, t^k / (k+3)!
        k = 0
        while abs(half) > tiny or abs(term) > tiny:
            sign = 1 if k % 4 < 2 else -1  # i^k = sign, or sign * i for odd k
            for acc, value in zip(sums, (half / 2, (k + 1) ** 2 * term,
                                         2 * (k + 1) * term, (1 - k) * term)):
                acc[k % 2] += sign * value
            k += 1
            half = half * t / (2 * (k + 1))
            term = term * t / (k + 3)
        return [complex(float(step * re), float(step * im)) for re, im in sums]


def benjamin_ono_periodic(x, c, L):
    """The periodic ground state Q_L of speed c on the box [-L, L) at alpha 1,
    where the profile equation c Q + |D| Q = Q^2/2 is Benjamin-Ono's:
    Q_L(x) = 2k sinh(gamma) / (cosh(gamma) - cos(kx)) with k = pi/L and
    gamma = artanh(k/c), which needs c > k.  Its Fourier coefficients are
    2k e^{-|m| gamma}, and as L grows it tends to the line soliton
    4c/(1 + c^2 x^2) (Benjamin, J. Fluid Mech. 29, 1967)."""
    k = np.pi / L
    gamma = np.arctanh(k / c)
    return 2.0 * k * np.sinh(gamma) / (np.cosh(gamma) - np.cos(k * np.asarray(x)))


def benjamin_ono_periodic_integrals(c, L):
    """The integrals of benjamin_ono_periodic over one period, with k = pi/L:
    int Q_L^2 = 8 pi c, int |D^{1/2} Q_L|^2 = 4 pi (c^2 - k^2) and
    int Q_L^3 = 24 pi c^2 - 8 pi k^2."""
    k = np.pi / L
    return {"square": 8.0 * np.pi * c,
            "kinetic": 4.0 * np.pi * (c * c - k * k),
            "cube": 24.0 * np.pi * c * c - 8.0 * np.pi * k * k}
