"""Solitary-wave profiles and constrained minimizers.

Three routes to the same family of objects:

* ``petviashvili``: fixed-point iteration with a power-normalized
  stabilizing factor for the profile equation ``p(D)Q + cQ = Q^{p+1}/(p+1)``
  (and the integrated-BBM variant ``c D^alpha Q + (c-1) Q = Q^2/2``).  The
  ground states are even, so it sweeps the even half-grid, samples 0..n/2,
  with the real cosine transform of the spectral kernel; ``solve_refined``
  chains it from coarse to fine grids to reach large boxes,
* ``rescale_solitary``: the exact velocity rescaling
  ``Q_c(x) = c^{1/p} Q(c^{1/alpha} x)`` of a pure-power profile, realized by
  evaluating the trigonometric interpolant,
* ``minimize_iq``: a preconditioned normalized gradient flow for the energy
  at fixed mass, accelerated by petviashvili's Anderson mixing, whose
  minimizer is the rescaled ground state at velocity ``cstar``.  The
  preconditioner ``(theta + D^alpha)^{-1}`` makes its iteration count
  independent of the grid's top wavenumber.  Like ``petviashvili`` it runs
  on the even half-grid: an iteration takes two even transforms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConvergenceError, NoSolitaryWaveError, NumericalError
from .functionals import energy_fkdv, mass
from .spectral import (
    PURE_POWER,
    DispersionSymbol,
    Grid1D,
    RealField,
    _apply_multiplier_array,
    _chirp_z,
    _even_rfft,
    _even_work_size,
    _same_grid,
    _spectrum,
    _xi_power,
    field_from_values,
    make_grid,
)

__all__ = [
    "ModelSpec",
    "SolitaryWave",
    "MinimizerResult",
    "petviashvili",
    "solve_refined",
    "rescale_solitary",
    "solitary_from_profile",
    "paper_form",
    "cstar",
    "minimize_iq",
    "sample_interpolant_uniform",
    "dilate_field",
]

FKDV = "fkdv"
FBBM = "fbbm"
GFKDV = "gfkdv"

ZERO_COLLAPSE = 1e-8
DILATE_TAPER = 0.1   # outer fraction of a dilated support rolled off to zero
STEP = 0.9           # step length of the preconditioned I_q flow
MIX_DEPTH = 4        # Anderson depth m: a Petviashvili mix combines the last m + 1 sweeps
MIX_COND = 1e12      # condition bound of the normalized Gram matrix of a mix


@dataclass(frozen=True)
class ModelSpec:
    """Which equation a profile or a flow belongs to.

    p is the nonlinearity power (1 for the quadratic fKdV/fBBM case).
    bbm_form selects between the solitary-wave equation as commonly printed,
    (c + D^alpha)u = u^2/2, and the one obtained by integrating the
    traveling-wave substitution, c D^alpha u + (c-1) u = u^2/2 (needs c > 1).
    """

    family: str
    symbol: DispersionSymbol
    p: int = 1
    bbm_form: str = "paper"

    def __post_init__(self):
        if self.family not in (FKDV, FBBM, GFKDV):
            raise ValueError(f"unknown family {self.family!r}")
        if self.p < 1:
            raise ValueError(f"nonlinearity power must be >= 1, got {self.p}")
        if self.family in (FKDV, FBBM) and self.p != 1:
            raise ValueError(f"{self.family} is quadratic; use family='gfkdv' for p != 1")
        if self.bbm_form not in ("paper", "derived"):
            raise ValueError(f"bbm_form must be 'paper' or 'derived', got {self.bbm_form!r}")
        if self.family == GFKDV:
            if self.symbol.kind != PURE_POWER:
                warnings.warn("gfkdv with a non-power symbol is outside the stable-regime defaults")
            elif self.symbol.alpha <= self.p / 2.0:
                warnings.warn(
                    f"gfkdv with alpha={self.symbol.alpha} <= p/2={self.p / 2.0} "
                    "is outside the L^2-subcritical stability regime"
                )


def linear_symbol(model: ModelSpec, c: float, xi: np.ndarray) -> np.ndarray:
    """Multiplier of the linear operator in the profile equation."""
    if model.family == FBBM and model.bbm_form == "derived":
        if not c > 1:
            raise ValueError(f"derived fBBM form needs c > 1, got {c}")
        return c * model.symbol(xi) + (c - 1.0)
    if not c > 0:
        raise ValueError(f"velocity must be positive, got {c}")
    return c + model.symbol(xi)


def _power_p1(u: np.ndarray, p: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """u^{p+1}, written into out when given."""
    out = np.multiply(u, u, out=out)
    for _ in range(p - 1):
        out *= u
    return out


def _nonlinearity(u: np.ndarray, p: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """u^{p+1}/(p+1), written into out when given."""
    out = _power_p1(u, p, out=out)
    out /= p + 1
    return out


def profile_residual(model: ModelSpec, c: float, u: RealField) -> np.ndarray:
    """Pointwise residual lin(D)u - u^{p+1}/(p+1) of the profile equation."""
    lin_u = _apply_multiplier_array(u, linear_symbol(model, c, u.grid.xi_r))
    return lin_u.values - _nonlinearity(u.values, model.p)


def _sup(a: np.ndarray) -> float:
    """max |a| from the two extremes, without writing |a|; NaN if a holds one."""
    return float(max(a.max(), -a.min()))


def _even_dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a*b) over a full period of two even sequences given by their
    samples 0..N: the end samples stand for themselves, the others for a pair."""
    return float(2.0 * np.dot(a, b) - a[0] * b[0] - a[-1] * b[-1])


def _even_half(values: np.ndarray) -> np.ndarray:
    """The even part of n samples on samples 0..n/2: sample j pairs with n - j."""
    half = values.size // 2 + 1
    q = np.array(values[:half])
    q[1:] += values[:half - 2:-1]
    q[1:] *= 0.5
    return q


def _even_profile(grid: Grid1D, q: np.ndarray, qhat: np.ndarray) -> RealField:
    """The even field with samples 0..n/2 q, carrying rfft(values) = n qhat (scaled in place)."""
    values = np.concatenate((q, q[-2:0:-1]))
    qhat *= grid.n
    qhat.setflags(write=False)
    return replace(field_from_values(grid, values), spectrum=qhat)


@dataclass(frozen=True)
class SolitaryWave:
    profile: RealField
    c: float
    model: ModelSpec
    residual_sup: float
    residual_l2: float
    iterations: int

    @property
    def alpha(self) -> float:
        return self.model.symbol.alpha


def paper_form(Q: SolitaryWave) -> SolitaryWave:
    """Q in the form D^a psi + c psi = psi^{p+1}/(p+1) of every pure-power model.

    A derived-form fBBM profile, c D^a Q + (c-1) Q = Q^2/2, maps to psi = Q/c
    at velocity (c-1)/c with residuals divided by c^2; any other wave is
    already in that form and is returned as is.
    """
    model, c = Q.model, Q.c
    if not (model.family == FBBM and model.bbm_form == "derived"):
        return Q
    return SolitaryWave(
        profile=Q.profile * (1.0 / c),
        c=(c - 1.0) / c,
        model=replace(model, bbm_form="paper"),
        residual_sup=Q.residual_sup / c**2,
        residual_l2=Q.residual_l2 / c**2,
        iterations=Q.iterations,
    )


def solitary_from_profile(profile: RealField, c: float, model: ModelSpec,
                          iterations: int = 0) -> SolitaryWave:
    """Wrap an existing profile, recomputing its residual diagnostics."""
    r = profile_residual(model, c, profile)
    return SolitaryWave(
        profile=profile,
        c=c,
        model=model,
        residual_sup=float(np.max(np.abs(r))),
        residual_l2=float(np.sqrt(profile.grid.dx * np.sum(r**2))),
        iterations=iterations,
    )


def default_seed(model: ModelSpec, c: float, grid: Grid1D) -> RealField:
    """sech^2 hump with the amplitude/width of the alpha = 2 soliton family."""
    alpha = model.symbol.alpha if model.symbol.kind == PURE_POWER else 1.0
    if model.family == FBBM and model.bbm_form == "derived":
        # equivalent pure problem at velocity (c-1)/c with amplitude factor c
        ceff = (c - 1.0) / c
        amp, width = 3.0 * c * ceff, ceff ** (1.0 / alpha) / 2.0
    else:
        try:
            amp, width = 3.0 * c, c ** (1.0 / alpha) / 2.0
        except OverflowError:
            raise ValueError(f"velocity c={c} overflows the seed width c^(1/alpha)") from None
    # overflow-safe sech^2
    e = np.exp(-np.abs(width * grid.x))
    vals = amp * (2.0 * e / (1.0 + e * e)) ** 2
    return field_from_values(grid, vals)


def _mix_weights(gram: np.ndarray, hist: list) -> np.ndarray:
    """Weights a with sum 1 that minimize |sum_j a_j F_j| over the ring slots
    in hist, given the Gram matrix of the residuals F_j.  While the Gram
    matrix normalized to unit diagonal has condition number above MIX_COND,
    the oldest slot is dropped from hist (in place).  The matrix is
    symmetric, so its condition number is the ratio of its extreme
    eigenvalue magnitudes."""
    while len(hist) > 1:
        h = gram[hist][:, hist]
        d = np.sqrt(np.diag(h))
        hn = h / np.outer(d, d)
        lam = np.abs(np.linalg.eigvalsh(hn))
        if lam.max() < MIX_COND * lam.min():
            y = np.linalg.solve(hn, 1.0 / d) / d
            return y / y.sum()
        hist.pop(0)
    return np.ones(1)


def _anderson_mix(G: np.ndarray, F: np.ndarray, gram: np.ndarray, hist: list,
                  k: int, out: np.ndarray, restart: bool = False) -> None:
    """One Anderson step on a ring of MIX_DEPTH + 1 outputs G_j and residuals
    F_j (float64 rows, one per slot) whose slot k was just written: add row k
    to the Gram matrix of the F_j, restart hist (the slots of the history,
    oldest first, updated in place) at k when restart is set or |F_k| grew,
    and write the mix sum_j a_j G_j of _mix_weights into out.  On return hist
    holds at most MIX_DEPTH consecutive slots ending at k, so the slot
    written next, (k + 1) % (MIX_DEPTH + 1), is never in it."""
    np.dot(F, F[k], out=gram[k])
    gram[:, k] = gram[k]
    if hist and (restart or not 0.0 < gram[k, k] <= gram[hist[-1], hist[-1]]):
        hist.clear()
    hist.append(k)
    weights = np.zeros(len(G))
    weights[hist] = _mix_weights(gram, hist)
    np.dot(weights, G, out=out)
    del hist[:-MIX_DEPTH]


def petviashvili(
    model: ModelSpec,
    c: float,
    grid: Grid1D,
    tol: float = 1e-10,
    max_iter: int = 500,
    gamma: Optional[float] = None,
    seed_profile: Optional[RealField] = None,
) -> SolitaryWave:
    """Compute a solitary-wave profile by the stabilized fixed-point iteration,
    accelerated by Anderson mixing.

    The Petviashvili map is G(Q) = S^gamma (c + p(D))^{-1} [Q^{p+1}/(p+1)]
    with the normalization S = <Q, (c+p(D))Q> / <Q, Q^{p+1}/(p+1)> and the
    contraction exponent gamma = (p+1)/p.  Converged means both the
    successive-iterate sup change is below tol and the equation residual is
    below 10*tol; stagnation of the iterates alone can mask non-solutions.
    A seed_profile must be sampled on grid; the default is default_seed.

    Anderson (Pulay/DIIS) mixing (Walker & Ni, SIAM J. Numer. Anal. 49,
    2011) keeps the outputs G_j = G(Q_j) and residuals F_j = G_j - Q_j of the
    last MIX_DEPTH + 1 sweeps and takes the next iterate Q = sum_j a_j G_j,
    with the weights sum_j a_j = 1 that minimize |sum_j a_j F_j|.  The norm
    is the l^2 norm of the half spectrum of (c + p(D)) F, the residual
    S^gamma Q^{p+1}/(p+1) - (c + p(D)) Q of the profile equation, which the
    stopping test also bounds.  Each sweep adds one row to the cached Gram
    matrix of the F_j.  The history restarts from the current sweep whenever
    |F_k| > |F_{k-1}|, and its oldest entries are dropped while the Gram
    matrix is ill-conditioned (MIX_COND); a sweep with a history of one is
    the plain Petviashvili step.

    The symbol is even, so the map and the mix keep a profile even, and the
    ground states are even (symmetric-decreasing; Frank & Lenzmann, Acta
    Math. 210, 2013).  The iteration therefore runs on the even half-grid:
    it keeps the even part of the seed on the samples 0..n/2 (x from -L to
    0), and every sample array and every spectrum (real, see
    spectral._even_rfft) has n/2 + 1 values; full-grid sums take the
    even-sum weights.

    The iterate is carried in Fourier space as well: Q_hat is computed once
    from the seed, the numerator of S is the Parseval sum over Q_hat, and
    G_j, F_j and the mix are spectra.  Every spectrum is carried scaled by
    1/n, so the even transform of Q_hat is Q itself, and the 1/n and the
    1/(p+1) of the nonlinearity fold into the one scalar S^gamma / ((p+1) n)
    of the transform of Q^{p+1}.  So a sweep takes two even transforms, of
    Q^{p+1} and of the mixed spectrum: about n transform points (n + 4096
    above n = 8192, 1.5 n up to it).  Besides them and the mix it makes 13
    passes over n/2 + 1 values: Q^{p+1} and its even sum with Q; the
    product (c + p(D)) Q_hat, which gives the numerator of S in one even sum
    and F_k in one subtraction; the scaling of G_k and its division by
    c + p(D); and the sup change and the sup, each read as a max and a min
    of the difference and of the new samples, which are copied into place.
    The residual check reuses Q_hat and adds one transform, and its sup and
    l^2 norms are the reported residuals.  The sweeps run in preallocated
    buffers: the samples, Q_hat and c + p(D) (a row of n/2 + 1 values each),
    a ring of 2 (MIX_DEPTH + 1) spectra and the transform's work space of
    about n/2 values, or n from n = 2^17 on, where a helper thread takes the
    odd half of each transform beside the calling thread's even half, with
    bitwise the same output (spectral._even_rfft, _even_work_size).  The
    nonlinearity, the new samples, the sup change and the residual check
    use the ring slots outside the history.  MIX_DEPTH = 4 is the depth
    measured to take the fewest sweeps on the staged chains and the desk
    grid; depths 5 and 6 took more on the desk solve and on Whitham, and
    each slot costs two rows.  The ring and the work space are freed before
    the full profile is built (_even_profile); it carries its real
    spectrum, so checks and resampling of the wave transform nothing.
    """
    if not (tol > 0 and np.isfinite(tol) and max_iter >= 1):
        raise ValueError(f"need finite tol > 0, max_iter >= 1; got tol={tol}, max_iter={max_iter}")
    if model.family == FKDV and model.symbol.kind == PURE_POWER and model.symbol.alpha <= 1.0 / 3.0:
        warnings.warn(
            f"alpha={model.symbol.alpha} <= 1/3: no finite-energy solitary wave exists; "
            "expect collapse"
        )
    p = model.p
    if gamma is None:
        gamma = (p + 1) / p
    lin = linear_symbol(model, c, grid.xi_r)  # also validates c for the chosen form
    depth = MIX_DEPTH + 1

    n = grid.n
    half = n // 2 + 1
    if seed_profile is None:
        seed_profile = default_seed(model, c, grid)
    _same_grid(seed_profile.grid, grid)
    q = _even_half(seed_profile.values)
    del seed_profile  # not held through the sweeps: solve_refined passes its seeds inline
    work = np.empty(_even_work_size(n // 2))
    # spectra are carried scaled by 1/n, so the even transform of Q_hat is Q
    qhat = _even_rfft(q, np.empty(half), work)
    qhat *= 1.0 / n
    ring = np.zeros((2, depth, half))
    G, F = ring
    gram = np.zeros((depth, depth))
    hist = []  # ring slots of the mixing history, oldest first
    for n_iter in range(1, max_iter + 1):
        k, k_next = (n_iter - 1) % depth, n_iter % depth
        # slot k is free until the mix: F[k] holds Q^{p+1} and then (c + p(D)) Q_hat,
        # G[k] the transform of Q^{p+1}
        nl = _power_p1(q, p, out=F[k])
        denom = _even_dot(q, nl)
        if denom == 0.0 or not np.isfinite(denom):
            raise NumericalError("Petviashvili normalization degenerated")
        _even_rfft(nl, G[k], work)
        lin_q = np.multiply(lin, qhat, out=F[k])
        # Parseval: <Q, (c + p(D))Q> = n dx _even_dot(lin_q, Q_hat) for the scaled spectrum
        s = (p + 1) * n * _even_dot(lin_q, qhat) / denom
        G[k] *= s**gamma / ((p + 1) * n)
        # F holds (c + p(D)) F_k, so the Gram matrix is in the equation-residual norm
        np.subtract(G[k], lin_q, out=F[k])
        G[k] /= lin
        _anderson_mix(G, F, gram, hist, k, out=qhat)
        # the next sweep's slot has left the history: G[k_next] takes the new
        # samples and F[k_next] is work space until that sweep
        q_new = _even_rfft(qhat, G[k_next], work)
        scratch = F[k_next]
        change = _sup(np.subtract(q_new, q, out=scratch))
        np.copyto(q, q_new)
        sup = _sup(q)
        if not np.isfinite(sup) or sup > 1e8:
            raise NumericalError(f"Petviashvili iteration diverged at step {n_iter}")
        if sup < ZERO_COLLAPSE:
            raise NoSolitaryWaveError(
                f"no solitary wave found: profile collapsed to zero at step {n_iter}"
            )
        if change < tol:
            # the residual lin(D)Q - Q^{p+1}/(p+1) on the half-grid
            r = _even_rfft(np.multiply(lin, qhat, out=scratch), q_new, work)
            r -= _nonlinearity(q, p, out=scratch)
            residual_sup = _sup(r)
            if residual_sup < 10.0 * tol:
                break
    else:
        raise ConvergenceError(
            f"Petviashvili did not converge within {max_iter} iterations "
            f"(last sup change {change:.3e})"
        )
    residual_l2 = float(np.sqrt(grid.dx * _even_dot(r, r)))
    if q.max() <= 0:
        raise NumericalError("converged profile has non-positive maximum")
    del ring, G, F, nl, lin_q, q_new, scratch, r, work  # free the sweep buffers before the profile
    return SolitaryWave(
        profile=_even_profile(grid, q, qhat),
        c=c,
        model=model,
        residual_sup=residual_sup,
        residual_l2=residual_l2,
        iterations=n_iter,
    )


# -- trigonometric resampling -------------------------------------------------


def _interp_weights(u: RealField):
    """One-sided spectral weights of the real trigonometric interpolant."""
    weights = _spectrum(u) / u.grid.n
    weights[1:-1] *= 2.0  # interior modes carry both signs; ends stay single
    return weights, u.grid.xi_r


def sample_interpolant_uniform(u: RealField, start: float, step: float,
                               count: int) -> np.ndarray:
    """Evaluate the trigonometric interpolant of u at start + k*step,
    k < count, via the chirp-z transform in O((n + count) log).

    Exact (to roundoff) for the band-limited function the samples represent;
    the Nyquist mode is taken in the real-even convention."""
    weights, xi_r = _interp_weights(u)
    g = weights * np.exp(1j * xi_r * (start + u.grid.L))  # x_0 = -L
    return _chirp_z(g, count, xi_r[1] * step).real


def upsample_field(u: RealField, n_new: int) -> RealField:
    """Resample onto a finer grid with the same box by zero-padding the
    spectrum; exact for the band-limited interpolant.  Useful for seeding a
    fine solve from a coarse one.  The real spectrum of a solved wave gives
    the fine samples with one even transform of the half grid.  The fine
    field carries no spectrum: a seed that kept one would hold n/2 + 1 more
    values through the solve it seeds, which transforms its seed anyway."""
    grid = u.grid
    if n_new < grid.n:
        raise ValueError(f"upsample_field needs n_new >= n, got {n_new} < {grid.n}")
    if n_new == grid.n:
        return u
    fine = make_grid(n_new, grid.L)
    uhat = _spectrum(u)
    padded = np.zeros(n_new // 2 + 1, dtype=uhat.dtype)
    padded[: uhat.size] = uhat
    padded[uhat.size - 1] *= 0.5  # split the Nyquist mode symmetrically
    if np.iscomplexobj(padded):
        vals = np.fft.irfft(padded, n=n_new)
        vals *= n_new / grid.n
    else:
        half = n_new // 2 + 1
        vals = np.empty(n_new)
        _even_rfft(padded, vals[:half])
        vals[:half] *= 1.0 / grid.n
        vals[half:] = vals[half - 2:0:-1]
    return field_from_values(fine, vals)


def solve_refined(model: ModelSpec, c: float, n: int, L: float) -> SolitaryWave:
    """Petviashvili on the (n, L) grid, seeded through stages of
    max(4096, n // 64) points times powers of 4 below n, each solved to 1e-9
    (at most 2000 sweeps) from its predecessor's upsampled profile; the final
    solve runs to 1e-10 (at most 500 sweeps).  The coarse stages do not resolve
    the core, so the seeds of the alpha = 0.75 (n 2^19) and 0.7 (n 2^20)
    chains at L = 25600 start at sup residual 0.12-1.36.  Each seed is
    passed inline and its stage's wave is gone by then, so a stage's solve
    holds neither its seed, once it has taken the seed's even half, nor the
    wave before it."""
    stages = []
    size = max(4096, n // 64)
    while size < n:
        stages.append(size)
        size *= 4
    return petviashvili(model, c, make_grid(n, L), tol=1e-10, max_iter=500,
                        seed_profile=_stage_seed(model, c, L, stages, n))


def _stage_seed(model: ModelSpec, c: float, L: float, stages: list, n: int) -> Optional[RealField]:
    """The profile of solve_refined's last stage of sizes stages, itself
    seeded by the stages before it, upsampled to n points; None when there
    are no stages."""
    if not stages:
        return None
    *coarser, size = stages
    wave = petviashvili(model, c, make_grid(size, L), tol=1e-9, max_iter=2000,
                        seed_profile=_stage_seed(model, c, L, coarser, size))
    return upsample_field(wave.profile, n)


def dilate_field(u: RealField, lam: float, amplitude: float = 1.0) -> RealField:
    """The field amplitude * u(lam * x), extending u by zero outside the box.

    Zero extension is the line-function reading of the samples; it is
    faithful only when u is negligible at the box boundary.  For lam > 1 the
    dilated support ends inside the box; its outer DILATE_TAPER fraction is rolled
    off with a smooth cosine ramp so the splice to zero stays
    derivative-friendly (the ramp only touches boundary-tail-sized values).
    """
    if not lam > 0:
        raise ValueError(f"dilation factor must be positive, got {lam}")
    grid = u.grid
    x = grid.x
    y = lam * x
    inside = np.flatnonzero(np.abs(y) <= grid.L)  # contiguous index run
    vals = np.zeros(grid.n)
    if inside.size:
        k0 = int(inside[0])
        vals[inside] = sample_interpolant_uniform(
            u, start=y[k0], step=lam * grid.dx, count=inside.size
        )
        if lam > 1.0:
            edge = grid.L / lam
            flat = (1.0 - DILATE_TAPER) * edge
            t = (np.abs(x[inside]) - flat) / (edge - flat)
            ramp = np.where(t <= 0.0, 1.0,
                            np.where(t >= 1.0, 0.0, 0.5 * (1.0 + np.cos(np.pi * np.clip(t, 0, 1)))))
            vals[inside] *= ramp
    return field_from_values(grid, amplitude * vals)


def rescale_solitary(Q: SolitaryWave, c_new: float) -> SolitaryWave:
    """Map a pure-power profile at velocity c to c_new via
    Q_c = c^{1/p} Q(c^{1/alpha} x)."""
    if Q.model.symbol.kind != PURE_POWER:
        raise ValueError("velocity rescaling is only valid for the pure-power symbol")
    if Q.model.family == FBBM and Q.model.bbm_form == "derived":
        raise ValueError("no dilation maps the derived fBBM profile equation onto itself")
    if not c_new > 0:
        raise ValueError(f"target velocity must be positive, got {c_new}")
    if Q.residual_sup >= 1e-6:
        raise ValueError(
            f"input profile residual {Q.residual_sup:.3e} too large to rescale (need < 1e-6)"
        )
    if c_new == Q.c:
        return Q
    ratio = c_new / Q.c
    amp = ratio ** (1.0 / Q.model.p)
    lam = ratio ** (1.0 / Q.alpha)
    profile = dilate_field(Q.profile, lam, amplitude=amp)
    wave = solitary_from_profile(profile, c_new, Q.model, iterations=Q.iterations)
    # resampling error: the box boundary tail reenters through the dilation
    grid = Q.profile.grid
    tail = float(np.abs(Q.profile.values[0]))
    bound = amp * tail * (c_new + float(np.max(Q.model.symbol(grid.xi_r)))) + 1e-12
    if wave.residual_sup > 10.0 * Q.residual_sup + bound:
        warnings.warn(
            f"rescaled residual {wave.residual_sup:.3e} exceeds 10x input "
            f"({Q.residual_sup:.3e}) plus the resampling bound {bound:.3e}"
        )
    return wave


# -- constrained minimization --------------------------------------------------


def cstar(q: float, Q_l2_sq: float, alpha: float) -> float:
    """Velocity at which the rescaled ground state attains mass q:
    cstar = (2q / |Q|_2^2)^{alpha/(2 alpha - 1)}."""
    if not alpha > 0.5:
        raise ValueError(f"cstar needs alpha > 1/2, got {alpha}")
    if not q > 0:
        raise ValueError(f"mass constraint must be positive, got {q}")
    if not Q_l2_sq > 0:
        raise ValueError(f"|Q|_2^2 must be positive, got {Q_l2_sq}")
    return float((2.0 * q / Q_l2_sq) ** (alpha / (2.0 * alpha - 1.0)))


@dataclass(frozen=True)
class MinimizerResult:
    profile: RealField
    q: float
    theta: float          # Lagrange multiplier estimate
    I_q: float            # achieved energy
    iterations: int
    grad_norm: float      # L^2 norm of the projected gradient at exit


def minimize_iq(
    q: float,
    alpha: float,
    grid: Grid1D,
    tol: float = 1e-8,
    max_iter: int = 20000,
    seed_profile: Optional[RealField] = None,
) -> MinimizerResult:
    """Minimize E(u) = (1/2)|D^{a/2}u|_2^2 - (1/6) int u^3 at fixed mass q.

    Preconditioned normalized gradient flow (Bao & Du, SIAM J. Sci. Comput.
    25, 2004), accelerated by Anderson mixing.  With the gradient
    g = D^alpha u - u^2/2, the Rayleigh multiplier
    theta = int (u^2/2 - D^alpha u) u / int u^2, the projected gradient
    g_perp = g + theta u and the preconditioner
    P = (max(theta, 1e-3) + D^alpha)^{-1}, the direction
    d = P g_perp - (<u, P g_perp> / <u, P u>) P u is tangent to the mass
    sphere, and the plain step is u <- Pi_q(u - STEP d), where Pi_q rescales
    the L^2 norm to sqrt(2q).  P equalizes the stiff high modes, so the
    iteration count does not grow with the grid's top wavenumber.  Converged
    when g_perp has L^2 norm below tol; theta then solves the Euler-Lagrange
    equation D^alpha u - u^2/2 + theta u = 0 to the same accuracy.  A
    seed_profile must be sampled on grid, and only its even part is kept;
    the default is the Gaussian exp(-(x/3)^2).  Either is rescaled onto the
    mass sphere.

    The mix is petviashvili's: the flow outputs G_j = u_j - STEP d_j and
    residuals F_j = -STEP d_j of the last MIX_DEPTH + 1 iterations give
    u <- Pi_q(sum_j a_j G_j), with the weights sum_j a_j = 1 (_mix_weights)
    that minimize the L^2 norm |sum_j a_j F_j|.  Each iteration adds one row
    to the cached Gram matrix of the F_j.  The history restarts from the
    current iteration when |F_k| > |F_{k-1}| and when the energy lies above
    the lowest energy of the earlier iterations; a history of one is the
    plain flow step, a descent step.  Mixing solves F = 0, which any
    critical point of E on the mass sphere does, so the energy rule is what
    keeps it on the way down: without it the mix converges for alpha 0.9,
    q 0.5 on the 4096/200 grid to the constant state, a saddle above the
    minimizer.  Comparing with the previous energy only is not enough there:
    after a mix has raised the energy, the mixes that follow descend towards
    the saddle again (1,695 iterations instead of 130).

    The minimizer is even, so the iteration runs in petviashvili's format:
    samples 0..n/2, real spectra scaled by 1/n, and every inner product the
    Parseval sum int u v = n dx _even_dot(u_hat, v_hat).  An iteration takes
    two even transforms, of u^2/2 and of the new spectrum, and the mix keeps
    the G_j and F_j in a ring of 2 (MIX_DEPTH + 1) spectra.  The profile
    carries its real spectrum.
    """
    if not (tol > 0 and np.isfinite(tol) and max_iter >= 1):
        raise ValueError(f"need finite tol > 0, max_iter >= 1; got tol={tol}, max_iter={max_iter}")
    if not (0.5 < alpha < 1.0):
        raise ValueError(f"minimize_iq needs alpha in (1/2, 1), got {alpha}")
    if not q > 0:
        raise ValueError(f"mass constraint must be positive, got {q}")
    n = grid.n
    half = n // 2 + 1
    if seed_profile is None:
        u = np.exp(-((grid.x[:half] / 3.0) ** 2))
    else:
        _same_grid(seed_profile.grid, grid)
        u = _even_half(seed_profile.values)
    mult = _xi_power(grid, alpha)
    l2_sq = 2.0 * q  # int u^2 on the constraint set
    parseval = n * grid.dx  # int u v = parseval * _even_dot(u_hat, v_hat)
    depth = MIX_DEPTH + 1

    work = np.empty(_even_work_size(n // 2))
    uhat = _even_rfft(u, np.empty(half), work)
    uhat *= 1.0 / n
    seed_sq = parseval * _even_dot(uhat, uhat)
    if not seed_sq > 0:
        raise ValueError("seed_profile must not be zero")
    scale = np.sqrt(l2_sq / seed_sq)
    uhat *= scale
    u *= scale
    ring = np.zeros((2, depth, half))
    G, F = ring
    # F holds sqrt(w) F_k, w = 2 on interior modes and 1 on the ends, so the
    # Gram matrix is the L^2 (Parseval) one
    root_w = np.full(half, np.sqrt(2.0))
    root_w[[0, -1]] = 1.0
    gram = np.zeros((depth, depth))
    hist = []  # ring slots of the mixing history, oldest first

    energy_prev = energy_low = np.inf
    bad_steps = 0
    for n_iter in range(1, max_iter + 1):
        k = (n_iter - 1) % depth
        u_sq = u * u
        cubic = grid.dx * _even_dot(u_sq, u)
        # the transform of u^2/2 is its 1/n-scaled spectrum
        half_sq_hat = _even_rfft(u_sq * (0.5 / n), np.empty(half), work)
        kinetic = parseval * _even_dot(mult * uhat, uhat)
        energy = 0.5 * kinetic - cubic / 6.0
        theta = (0.5 * cubic - kinetic) / l2_sq
        g_perp = uhat * (mult + theta) - half_sq_hat
        grad_norm = float(np.sqrt(parseval * _even_dot(g_perp, g_perp)))
        if grad_norm < tol:
            break
        if not math.isfinite(grad_norm):
            raise NumericalError(
                f"minimize_iq: non-finite projected gradient {grad_norm} at iteration {n_iter}"
            )
        if energy > energy_prev:
            bad_steps += 1
            if bad_steps >= 50:
                raise NumericalError(
                    "minimize_iq diverged: energy increased over 50 consecutive steps"
                )
        else:
            bad_steps = 0
        energy_prev = energy
        above_low = energy > energy_low
        energy_low = min(energy_low, energy)
        prec = 1.0 / (mult + max(theta, 1e-3))
        prec_u = prec * uhat
        tangent = _even_dot(prec_u, g_perp) / _even_dot(prec_u, uhat)
        step = (g_perp - uhat * tangent) * prec * -STEP  # -STEP d
        G[k] = uhat + step
        F[k] = step * root_w
        _anderson_mix(G, F, gram, hist, k, out=uhat, restart=above_low)
        uhat *= np.sqrt(l2_sq / (parseval * _even_dot(uhat, uhat)))
        _even_rfft(uhat, u, work)
    else:
        raise ConvergenceError(
            f"minimize_iq did not converge within {max_iter} iterations "
            f"(projected gradient {grad_norm:.3e})"
        )
    del ring, G, F, work  # free the ring before the profile
    profile = _even_profile(grid, u, uhat)
    return MinimizerResult(
        profile=profile,
        q=float(mass(profile)),
        theta=float(theta),
        I_q=energy_fkdv(profile, DispersionSymbol.power(alpha)),
        iterations=n_iter,
        grad_norm=grad_norm,
    )
