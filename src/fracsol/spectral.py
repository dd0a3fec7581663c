"""Fourier substrate for periodic pseudospectral computation.

The real line is truncated to the box [-L, L), sampled uniformly at n
points.  Everything downstream (functionals, solitary-wave solvers, time
steppers) manipulates fields through Fourier multipliers on this box:

* fields are real, so every transform is a real-to-complex ``rfft`` on the
  one-sided wavenumbers ``xi_r = pi*j/L``, ``j = 0..n/2``, the only
  wavenumbers the grid keeps,
* integrals are uniform Riemann sums, spectrally accurate for smooth
  periodic integrands,
* quadratic forms ``int m(D)u u`` are Parseval sums over the one-sided
  spectrum (``quad_form``): each interior mode stands for the pair
  ``+-xi`` and counts twice, the mean (DC) and Nyquist modes count once;
  the functionals and checks take a field's form (``_field_form``) and
  each multiplier round trip (``_apply_multiplier_array``) from here,
* the fractional derivative of order ``s`` is the multiplier ``|xi|**s``,
* a field is resolved when its top modes carry a negligible share of its
  peak mode (``spectral_tail``),
* translation is the phase ``exp(1j*xi*y)``, exact for band-limited fields;
  the Nyquist mode moves with the real-even ``cos(xi_nyq*y)``,
* the interpolant at uniformly spaced points is one chirp-z convolution
  (``_chirp_z``) on the same rfft/irfft kernel,
* an even field, u(x) = u(-x), is fixed by its samples 0..n/2 (x from -L
  to 0), and its rfft is real: the cosine transform (DCT-I) of those
  n/2 + 1 samples.  ``_even_rfft`` takes it with one irfft of length n/4
  and the cosine transform of half the size, down to one rfft of length
  at most _EVEN_BASE: about n/2 transform points in all.  It is its own
  inverse up to the factor 1/n.

Grids and fields are immutable after construction and safe to share between
concurrently running solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "Grid1D",
    "RealField",
    "DispersionSymbol",
    "make_grid",
    "field_from_values",
    "apply_multiplier",
    "d_alpha",
    "resolvent",
    "quad_form",
    "spectral_tail",
    "shift_field",
    "integrate",
    "l2_norm",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Uniform periodic sampling of [-L, L) with its one-sided (rfft)
    wavenumbers xi_r."""

    n: int
    L: float
    dx: float
    x: np.ndarray
    xi_r: np.ndarray


def make_grid(n: int, L: float) -> Grid1D:
    """Build the periodic grid with n samples (power of two, >= 8) on [-L, L)."""
    if n < 8 or (n & (n - 1)) != 0:
        raise ValueError(f"n must be a power of two with n >= 8, got {n}")
    if not L > 0:
        raise ValueError(f"L must be positive, got {L}")
    L = float(L)
    dx = 2.0 * L / n  # exact: division by a power of two
    x = -L + dx * np.arange(n)
    xi_r = 2.0 * np.pi * np.fft.rfftfreq(n, d=dx)
    return Grid1D(n=n, L=L, dx=dx, x=_readonly(x), xi_r=_readonly(xi_r))


@dataclass(frozen=True, eq=False)
class RealField:
    """Real-valued samples on a Grid1D; the state of every solver."""

    grid: Grid1D
    values: np.ndarray

    def __add__(self, other):
        if isinstance(other, RealField):
            _same_grid(self.grid, other.grid)
            return RealField(self.grid, _readonly(self.values + other.values))
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, RealField):
            _same_grid(self.grid, other.grid)
            return RealField(self.grid, _readonly(self.values - other.values))
        return NotImplemented

    def __mul__(self, a):
        if np.isscalar(a):
            return RealField(self.grid, _readonly(self.values * a))
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return RealField(self.grid, _readonly(-self.values))


def _same_grid(a: Grid1D, b: Grid1D) -> None:
    """The one equality rule of grids: the same n and the same L."""
    if a is not b and (a.n != b.n or a.L != b.L):
        raise ValueError(f"different grids: (n={a.n}, L={a.L:g}) and (n={b.n}, L={b.L:g})")


def field_from_values(grid: Grid1D, values) -> RealField:
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (grid.n,):
        raise ValueError(f"expected {grid.n} values, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("field values must be finite")
    return RealField(grid=grid, values=_readonly(values))


# -- dispersion symbols -------------------------------------------------------

PURE_POWER = "power"
WHITHAM = "whitham"
WHITHAM_TENSION = "whitham_tension"


@dataclass(frozen=True)
class DispersionSymbol:
    """Even, finite Fourier multiplier p(xi) selecting the model family.

    Kinds:
      power            p(xi) = |xi|**alpha,  0 < alpha <= 2
      whitham          p(xi) = (tanh(xi)/xi)**(1/2), p(0) = 1
      whitham_tension  p(xi) = (1 + beta*xi^2)**(1/2) (tanh(xi)/xi)**(1/2)
    """

    kind: str
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if self.kind == PURE_POWER:
            if not (0.0 < self.alpha <= 2.0):
                raise ValueError(f"power symbol needs alpha in (0, 2], got {self.alpha}")
        elif self.kind == WHITHAM:
            pass
        elif self.kind == WHITHAM_TENSION:
            if self.beta < 0:
                raise ValueError(f"surface-tension parameter must be >= 0, got {self.beta}")
        else:
            raise ValueError(f"unknown symbol kind {self.kind!r}")

    @classmethod
    def power(cls, alpha: float) -> "DispersionSymbol":
        return cls(kind=PURE_POWER, alpha=float(alpha))

    @classmethod
    def whitham(cls) -> "DispersionSymbol":
        return cls(kind=WHITHAM)

    @classmethod
    def whitham_tension(cls, beta: float) -> "DispersionSymbol":
        return cls(kind=WHITHAM_TENSION, beta=float(beta))

    def __call__(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=np.float64)
        if self.kind == PURE_POWER:
            return np.abs(xi) ** self.alpha
        # tanh(xi)/xi is even with removable singularity at 0 (limit 1)
        t = np.ones_like(xi)
        nz = xi != 0.0
        t[nz] = np.tanh(xi[nz]) / xi[nz]
        p = np.sqrt(t)
        if self.kind == WHITHAM_TENSION:
            p = p * np.sqrt(1.0 + self.beta * xi**2)
        return p


# -- multiplier machinery -----------------------------------------------------


def _apply_multiplier_array(u: RealField, m: np.ndarray) -> RealField:
    """Apply a precomputed multiplier on the one-sided lattice xi_r."""
    out = np.fft.irfft(m * np.fft.rfft(u.values), n=u.grid.n)
    return RealField(grid=u.grid, values=_readonly(out))


def apply_multiplier(u: RealField, m: Callable[[np.ndarray], np.ndarray]) -> RealField:
    """Replace u_hat(xi) by m(xi) u_hat(xi) for a real, even symbol m."""
    xi_r = u.grid.xi_r
    marr = np.asarray(m(xi_r), dtype=np.float64)
    if marr.shape != xi_r.shape:
        raise ValueError("multiplier must return one value per grid wavenumber")
    if not np.all(np.isfinite(marr)):
        raise ValueError("multiplier is not finite on all grid wavenumbers")
    if not np.allclose(marr, np.asarray(m(-xi_r), dtype=np.float64), rtol=1e-12, atol=0.0):
        raise ValueError("multiplier must be even in xi")
    return _apply_multiplier_array(u, marr)


def d_alpha(u: RealField, s: float) -> RealField:
    """Fractional derivative |D|^s: the multiplier |xi|**s (identity for s = 0)."""
    if s < 0:
        raise ValueError(f"d_alpha needs s >= 0, got {s}")
    if s == 0:
        return u
    return _apply_multiplier_array(u, u.grid.xi_r ** s)


def resolvent(u: RealField, c: float, p: DispersionSymbol) -> RealField:
    """Apply (c + p(D))^{-1}; exact right-inverse of c + p(D) on the grid."""
    if not c > 0:
        raise ValueError(f"resolvent needs c > 0, got {c}")
    return _apply_multiplier_array(u, 1.0 / (c + p(u.grid.xi_r)))


def integrate(u: RealField) -> float:
    """Integral over the box by the uniform Riemann sum."""
    return float(u.grid.dx * np.sum(u.values))


def l2_norm(u: RealField) -> float:
    return float(np.sqrt(u.grid.dx) * np.linalg.norm(u.values))


def quad_form(uhat: np.ndarray, grid: Grid1D, weight: np.ndarray | float,
              vhat: np.ndarray | None = None, work: np.ndarray | None = None) -> float:
    """Parseval form of int (m(D)u) v dx from the one-sided spectra
    uhat = rfft(u) and vhat = rfft(v) (v = u when vhat is None), with
    weight = m(xi_r) for a real, even symbol m.

    Interior modes stand for the pair +-xi and count twice; the mean and
    Nyquist modes count once.  A real spectrum (of an even field, see
    _even_rfft) has no imaginary products to add.  work, when given, is a
    float64 buffer of at least 2 * uhat.size values (uhat.size for two real
    spectra) that holds the products in place of temporaries.
    """
    vhat = uhat if vhat is None else vhat
    m = uhat.size
    work = np.empty(2 * m) if work is None else work
    power = np.multiply(uhat.real, vhat.real, out=work[:m])
    if np.iscomplexobj(uhat) and np.iscomplexobj(vhat):
        power += np.multiply(uhat.imag, vhat.imag, out=work[m:2 * m])
    power *= weight
    return float(grid.dx / grid.n * (2.0 * np.sum(power) - power[0] - power[-1]))


def _field_form(u: RealField, weight: np.ndarray | float) -> float:
    """int (m(D)u) u dx by quad_form, with weight = m(xi_r)."""
    return quad_form(np.fft.rfft(u.values), u.grid, weight)


TAIL_MODES = 20  # top modes whose amplitude spectral_tail measures


def spectral_tail(u: RealField) -> float:
    """Resolution measure: the largest amplitude among the top TAIL_MODES
    rfft modes of u over its peak amplitude (0 for the zero field)."""
    amp = np.abs(np.fft.rfft(u.values))
    peak = float(amp.max())
    return float(amp[-TAIL_MODES:].max()) / peak if peak > 0 else 0.0


def _shift_phase(grid: Grid1D, y: float) -> np.ndarray:
    """One-sided multiplier of the translation u -> u(. + y).

    The Nyquist mode has no well-defined translation direction and is moved
    with the real-even convention cos(xi_nyq * y).
    """
    phase = np.exp(1j * grid.xi_r * y)
    phase[-1] = np.cos(grid.xi_r[-1] * y)
    return phase


def shift_field(u: RealField, y: float) -> RealField:
    """Translate to u(. + y) by Fourier phases; exact for band-limited fields."""
    return _apply_multiplier_array(u, _shift_phase(u.grid, y))


def _chirp_z(g: np.ndarray, count: int, theta: float) -> np.ndarray:
    """The sums sum_j g_j exp(1j*theta*j*k) for k < count (Bluestein's
    chirp-z): with w_k = exp(1j*theta*k^2/2), jk = (j^2 + k^2 - (k-j)^2)/2
    makes them w_k times the linear convolution of g*w with conj(w) on the
    lags -(n-1) .. count-1, taken on real and imaginary parts by rfft."""
    n = g.size
    w = np.exp(0.5j * theta * np.arange(max(n, count)) ** 2)
    a = g * w[:n]
    b = np.conj(np.concatenate((w[n - 1:0:-1], w[:count])))
    size = 1 << (n + count - 2).bit_length()  # power of two >= n + count - 1
    ar, ai = np.fft.rfft(a.real, size), np.fft.rfft(a.imag, size)
    br, bi = np.fft.rfft(b.real, size), np.fft.rfft(b.imag, size)
    conv = (np.fft.irfft(ar * br - ai * bi, size)
            + 1j * np.fft.irfft(ar * bi + ai * br, size))
    return w[:count] * conv[n - 1:n - 1 + count]


@lru_cache(maxsize=16)
def _quarter_twiddle(m: int) -> np.ndarray:
    """exp(1j*pi*k/(2m)) for k = 0..m/2, read-only."""
    t = np.exp(0.5j * np.pi / m * np.arange(m // 2 + 1))
    t.setflags(write=False)
    return t


_EVEN_BASE = 4096  # largest N whose even outputs _even_rfft takes with one rfft;
# from 1024 to 65536 it made no measurable difference to the transform time


def _even_rfft(x: np.ndarray, out: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """The rfft of the even sequence of length n = 2N whose samples 0..N are
    x (N + 1 values), written into the float64 array out of N + 1 values.
    The spectrum of an even sequence is real and even, so applying the
    transform twice returns n * x.

    The even outputs are the rfft of length N of e_j = x_j + x_{N-j}.  That
    sequence is even with period N, so above N = _EVEN_BASE they are this
    transform of e_0..e_{N/2}, with work[N:2N + 2] as its work space (the
    recursive split of FFTW's REDFT00; Frigo & Johnson, Proc. IEEE 93,
    2005); at or below it, one rfft of length N.  The odd outputs are the
    DCT-III d_0 + 2 sum_{0<j<N/2} d_j cos(pi j (2m+1)/N) of
    d_j = x_j - x_{N-j}, taken by Makhoul's method (IEEE TASSP 28, 1980)
    with one irfft of length N/2.  So the transform takes N + _EVEN_BASE/2
    transform points above the base and 3N/2 at or below it.  Both steps
    keep the accuracy of the rfft; the cumulative-sum recurrence of the
    single-FFT cosine transform does not.  N must be a power of two.  work,
    when given, is a float64 buffer of at least 2N + 2 values that holds the
    intermediates in place of temporaries.
    """
    N = x.size - 1
    m = N // 2
    h = m // 2
    work = np.empty(2 * N + 2) if work is None else work
    if N > _EVEN_BASE:
        e = np.add(x[:m + 1], x[N:m - 1:-1], out=work[:m + 1])
        _even_rfft(e, out[0::2], work[N:2 * N + 2])
    else:
        spec = work[N:2 * N + 2].view(np.complex128)  # N/2 + 1 modes
        e = np.add(x[:N], x[N:0:-1], out=work[:N])
        np.fft.rfft(e, out=spec)
        np.copyto(out[0::2], spec.real)
    # the odd outputs z_j = out[2j+1], reordered as y_i = z_{2i} and
    # y_{m-1-i} = z_{2i+1}, are the irfft of the half spectrum
    # vhat_k = exp(1j*pi*k/(2m)) (d_k - 1j d_{m-k}), k <= m/2, with d_m = 0
    d = np.subtract(x[:m], x[N:m:-1], out=work[:m])
    vhat = work[m:2 * m + 2].view(np.complex128)  # m/2 + 1 modes
    vhat.real = d[:h + 1]
    vhat.imag[0] = 0.0
    np.negative(d[m - 1:h - 1:-1], out=vhat.imag[1:])
    vhat *= _quarter_twiddle(m)
    y = np.fft.irfft(vhat, m, norm="forward", out=work[N + 2:N + 2 + m])
    out[1::4] = y[:h]
    out[3::4] = y[:h - 1:-1]
    return out
