"""Fourier substrate for periodic pseudospectral computation.

The real line is truncated to the box [-L, L), sampled uniformly at n
points.  Everything downstream (functionals, solitary-wave solvers, time
steppers) manipulates fields through Fourier multipliers on this box:

* fields are real, so every transform is a real-to-complex ``rfft`` on the
  one-sided wavenumbers ``xi_r = pi*j/L``, ``j = 0..n/2``, the only
  wavenumbers a grid computes,
* integrals are uniform Riemann sums, spectrally accurate for smooth
  periodic integrands,
* quadratic forms ``int m(D)u u`` are Parseval sums over the one-sided
  spectrum of u (``quad_form``): each interior mode stands for the pair
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
  at most _EVEN_BASE: about n/2 transform points in all, in a work space
  of about n/2 values (``_even_work_size``).  From n/2 = _EVEN_SPLIT on,
  one helper thread takes the irfft half, on another CPU than the
  caller's, while the calling thread takes the cosine-transform half, so
  the two run on two cores (pocketfft releases the GIL), in a work space
  of about n values; only that top level splits, and the output is
  bitwise that of one thread.  It is its own inverse up to the factor 1/n,
* a field may carry its spectrum rfft(values) (``RealField.spectrum``):
  a solve keeps the real spectrum of the even profile it returns, and
  ``_spectrum`` is the one place that reads a field's transform, the
  attached one or a fresh one that is not kept, so no forward transform
  of a solved wave is taken twice.

Grids and fields are immutable after construction and safe to share between
concurrently running solves.  A grid is the plain value (n, L, dx) and
holds no array: ``x`` and ``xi_r`` are computed on each read, so a caller
reads each at most once and owns what it reads (``_xi_power`` raises the
wavenumbers to a power in place).
"""

from __future__ import annotations

import mmap
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
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


def _kept(a: np.ndarray) -> np.ndarray:
    """A read-only copy of a in an anonymous memory mapping of its own, for
    the one array kept after the call that builds it, the twiddle table.
    On the malloc heap, amid a solve's short-lived buffers, it held room
    that later solves needed (ROADMAP item 1)."""
    kept = np.frombuffer(mmap.mmap(-1, a.nbytes), dtype=a.dtype)
    kept[...] = a
    kept.setflags(write=False)
    return kept


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Uniform periodic sampling of [-L, L); holds no array: x and xi_r
    are computed on each read, a fresh array that the caller owns."""

    n: int
    L: float
    dx: float

    @property
    def x(self) -> np.ndarray:
        """The sample points -L + dx*j, j < n, built in place: one array."""
        x = np.arange(self.n, dtype=np.float64)
        x *= self.dx
        x += -self.L
        return x

    @property
    def xi_r(self) -> np.ndarray:
        """The wavenumbers 2 pi rfftfreq(n, dx), bitwise, built in place:
        one array, where rfftfreq holds an integer one beside it."""
        xi = np.arange(self.n // 2 + 1, dtype=np.float64)
        xi *= 1.0 / (self.n * self.dx)
        xi *= 2.0 * np.pi
        return xi


def _xi_power(grid: Grid1D, s: float) -> np.ndarray:
    """|xi|**s on the one-sided lattice xi_r, raised in place: one array."""
    w = grid.xi_r
    w **= s
    return w


def make_grid(n: int, L: float) -> Grid1D:
    """The periodic grid with n samples (power of two, >= 8) on [-L, L)."""
    if n < 8 or (n & (n - 1)) != 0:
        raise ValueError(f"n must be a power of two with n >= 8, got {n}")
    if not L > 0:
        raise ValueError(f"L must be positive, got {L}")
    return Grid1D(n=n, L=float(L), dx=2.0 * L / n)  # exact: division by a power of two


@dataclass(frozen=True, eq=False)
class RealField:
    """Real-valued samples on a Grid1D; the state of every solver.

    spectrum, when set, is rfft(values), read-only (real for an even
    field).  Only the profiles that solves return carry one; read a field's
    transform through _spectrum."""

    grid: Grid1D
    values: np.ndarray
    spectrum: np.ndarray | None = field(default=None, repr=False)

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
        elif self.kind == WHITHAM_TENSION:
            if self.beta < 0:
                raise ValueError(f"surface-tension parameter must be >= 0, got {self.beta}")
        elif self.kind != WHITHAM:
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
    out = np.fft.irfft(m * _spectrum(u), n=u.grid.n)
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
    return _apply_multiplier_array(u, _xi_power(u.grid, s))


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


def quad_form(uhat: np.ndarray, grid: Grid1D, weight: np.ndarray | float) -> float:
    """Parseval form of int (m(D)u) u dx from the one-sided spectrum
    uhat = rfft(u), with weight = m(xi_r) for a real, even symbol m.

    Interior modes stand for the pair +-xi and count twice; the mean and
    Nyquist modes count once.  A real spectrum (of an even field, see
    _even_rfft) has no imaginary products to add.
    """
    power = uhat.real * uhat.real
    if np.iscomplexobj(uhat):
        power += uhat.imag * uhat.imag
    power *= weight
    return float(grid.dx / grid.n * (2.0 * np.sum(power) - power[0] - power[-1]))


def _spectrum(u: RealField) -> np.ndarray:
    """rfft(u.values): the spectrum u carries, or a transform that is not kept."""
    return np.fft.rfft(u.values) if u.spectrum is None else u.spectrum


def _field_form(u: RealField, weight: np.ndarray | float) -> float:
    """int (m(D)u) u dx by quad_form, with weight = m(xi_r)."""
    return quad_form(_spectrum(u), u.grid, weight)


TAIL_MODES = 20  # top modes whose amplitude spectral_tail measures


def spectral_tail(u: RealField) -> float:
    """Resolution measure: the largest amplitude among the top TAIL_MODES
    rfft modes of u over its peak amplitude (0 for the zero field)."""
    amp = np.abs(_spectrum(u))
    peak = float(amp.max())
    return float(amp[-TAIL_MODES:].max()) / peak if peak > 0 else 0.0


def _shift_phase(xi_r: np.ndarray, y: float) -> np.ndarray:
    """One-sided multiplier of the translation u -> u(. + y) on the
    wavenumbers xi_r of a grid.

    The Nyquist mode has no well-defined translation direction and is moved
    with the real-even convention cos(xi_nyq * y).
    """
    phase = np.exp(1j * xi_r * y)
    phase[-1] = np.cos(xi_r[-1] * y)
    return phase


def shift_field(u: RealField, y: float) -> RealField:
    """Translate to u(. + y) by Fourier phases; exact for band-limited fields."""
    return _apply_multiplier_array(u, _shift_phase(u.grid.xi_r, y))


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


_twiddles = np.ones(1, dtype=np.complex128)  # _quarter_twiddle's table: M = 2 (size - 1)


def _quarter_twiddle(m: int) -> np.ndarray:
    """exp(1j*pi*k/(2m)), k = 0..m/2, read-only: every (M/m)-th entry (bitwise,
    as M/m is a power of two) of the one table, for the largest m = M so far.
    Views outlive a replacement of the table, so threads need no lock."""
    global _twiddles
    table = _twiddles
    if table.size < m // 2 + 1:
        table = _twiddles = _kept(np.exp(0.5j * np.pi / m * np.arange(m // 2 + 1)))
    return table[::2 * (table.size - 1) // m]


_EVEN_BASE = 4096  # largest N whose even outputs _even_rfft takes with one rfft;
# from 1024 to 65536 it made no measurable difference to the transform time
_EVEN_SPLIT = 1 << 16  # smallest N whose odd half _even_rfft hands to the helper thread
_helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="fracsol-odd-half")
# the one helper thread: it starts at the first transform that splits; pocketfft
# releases the GIL, so the two halves run on two cores
_CPUS = frozenset(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else frozenset()


def _cpu() -> int | None:
    """The CPU the calling thread runs on, or None where /proc does not say."""
    try:
        with open("/proc/thread-self/stat", "rb") as stat:
            return int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _odd_half(caller_cpu: int | None, x: np.ndarray, out: np.ndarray,
              twiddle: np.ndarray, work: np.ndarray) -> None:
    """_odd_outputs on the helper thread, kept off caller_cpu, the CPU of the
    thread that handed it the work.  Left to the kernel, the helper woke on
    the caller's CPU whenever the other virtual CPU of a shared 2-core
    x86-64 VM looked busy to the guest, and the two halves took turns on
    one core: 12 sweeps of a 2^20-point solve ran no faster than on one
    thread, and about 30% faster with the helper kept off the caller's
    CPU."""
    if caller_cpu is not None and len(_CPUS) > 1:
        try:
            os.sched_setaffinity(0, _CPUS - {caller_cpu})
        except OSError:  # the CPUs may have changed; the helper runs where it is
            pass
    _odd_outputs(x, out, twiddle, work)


def _fold_work_size(N: int) -> int:
    """Float64 values of work space that one thread's transform of N + 1
    samples uses: W(N) = 2N + 2 up to _EVEN_BASE and
    max(N/2 + 2 + W(N/2), N + 2) above it, about N + _EVEN_BASE."""
    if N <= _EVEN_BASE:
        return 2 * N + 2
    return max(N // 2 + 2 + _fold_work_size(N // 2), N + 2)


def _even_work_size(N: int) -> int:
    """Float64 values of work space that _even_rfft of N + 1 samples uses:
    _fold_work_size(N), about N + _EVEN_BASE, below _EVEN_SPLIT; from it on,
    N + 2 more for the odd half that the helper thread takes beside the even
    one, about 2N in all."""
    size = _fold_work_size(N)
    return size + N + 2 if N >= _EVEN_SPLIT else size


def _even_rfft(x: np.ndarray, out: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """The rfft of the even sequence of length n = 2N whose samples 0..N are
    x (N + 1 values), written into the float64 array out of N + 1 values.
    The spectrum of an even sequence is real and even, so applying the
    transform twice returns n * x.

    The even outputs out[0::2] are the rfft of length N of the fold
    e_j = x_j + x_{N-j}, taken on one thread (_even_outputs).  The odd
    outputs out[1::2] are a DCT-III of the difference d_j = x_j - x_{N-j}
    (_odd_outputs).  The two halves read only x and write disjoint entries
    of out.  From N = _EVEN_SPLIT on, the helper thread takes the odd half
    in work[_fold_work_size(N):], on another CPU than the caller's
    (_odd_half), while the calling thread takes the even half.  The caller
    waits for the helper before it returns, also when its own half raises.
    Only this top level splits: the recursion of the even half and the
    helper submit nothing, so threads that transform at the same time
    share the one helper.  The output is bitwise that of the one-thread
    order, in which the odd half follows the even one in the same work
    space, as below _EVEN_SPLIT.  Above N = _EVEN_BASE the transform takes
    N + _EVEN_BASE/2 transform points, and 3N/2 at or below it.  Both
    halves keep the accuracy of the rfft; the cumulative-sum recurrence of
    the single-FFT cosine transform does not.  N must be a power of two.
    work, when given, is a float64 buffer of at least _even_work_size(N)
    values (about N, or 2N from _EVEN_SPLIT on) that holds the
    intermediates in place of temporaries.
    """
    N = x.size - 1
    work = np.empty(_even_work_size(N)) if work is None else work
    twiddle = _quarter_twiddle(N // 2)  # first: the recursion reads views of its table
    if N < _EVEN_SPLIT:
        _even_outputs(x, out, work)
        _odd_outputs(x, out, twiddle, work)
        return out
    odd = _helper.submit(_odd_half, _cpu(), x, out, twiddle, work[_fold_work_size(N):])
    try:
        _even_outputs(x, out, work)
    finally:
        wait((odd,))  # the helper writes into out and work until it is done
    odd.result()  # raises the helper's error, if any
    return out


def _even_outputs(x: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
    """out[0::2] of _even_rfft, in work[:_fold_work_size(N)].

    The fold e_j = x_j + x_{N-j} is even with period N, so above
    N = _EVEN_BASE its rfft is the one-thread transform of e_0..e_{N/2},
    held in work[:N/2 + 1], with work[N/2 + 2:] as the work space of that
    call (the recursive split of FFTW's REDFT00; Frigo & Johnson, Proc.
    IEEE 93, 2005); at or below it, one rfft of length N."""
    N = x.size - 1
    if N > _EVEN_BASE:
        m = N // 2
        e = np.add(x[:m + 1], x[N:m - 1:-1], out=work[:m + 1])
        sub = work[m + 2:]
        _even_outputs(e, out[0::2], sub)
        _odd_outputs(e, out[0::2], _quarter_twiddle(m // 2), sub)
    else:
        spec = work[N:2 * N + 2].view(np.complex128)  # N/2 + 1 modes
        e = np.add(x[:N], x[N:0:-1], out=work[:N])
        np.fft.rfft(e, out=spec)
        np.copyto(out[0::2], spec.real)


def _odd_outputs(x: np.ndarray, out: np.ndarray, twiddle: np.ndarray,
                 work: np.ndarray) -> None:
    """out[1::2] of _even_rfft, in work[:N + 2], with twiddle =
    _quarter_twiddle(N/2): the DCT-III
    d_0 + 2 sum_{0<j<N/2} d_j cos(pi j (2m+1)/N) of d_j = x_j - x_{N-j},
    taken by Makhoul's method (IEEE TASSP 28, 1980) with one irfft of
    length N/2."""
    N = x.size - 1
    m = N // 2
    h = m // 2
    # the odd outputs z_j = out[2j+1], reordered as y_i = z_{2i} and
    # y_{m-1-i} = z_{2i+1}, are the irfft of the half spectrum
    # vhat_k = exp(1j*pi*k/(2m)) (d_k - 1j d_{m-k}), k <= m/2, with d_m = 0,
    # filled straight from x
    vhat = work[:m + 2].view(np.complex128)  # m/2 + 1 modes
    np.subtract(x[:h + 1], x[N:N - h - 1:-1], out=vhat.real)
    vhat.imag[0] = 0.0
    np.subtract(x[m + 1:m + h + 1], x[m - 1:h - 1:-1], out=vhat.imag[1:])
    vhat *= twiddle
    y = np.fft.irfft(vhat, m, norm="forward", out=work[m + 2:2 * m + 2])
    out[1::4] = y[:h]
    out[3::4] = y[:h - 1:-1]
