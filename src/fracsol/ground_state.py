"""Solitary-wave profiles and constrained minimizers.

Three routes to the same family of objects:

* ``petviashvili``: fixed-point iteration with a power-normalized
  stabilizing factor for the profile equation ``p(D)Q + cQ = Q^{p+1}/(p+1)``
  (and the integrated-BBM variant ``c D^alpha Q + (c-1) Q = Q^2/2``),
* ``rescale_solitary``: the exact velocity rescaling
  ``Q_c(x) = c^{1/p} Q(c^{1/alpha} x)`` of a pure-power profile, realized by
  evaluating the trigonometric interpolant,
* ``minimize_iq``: projected gradient descent for the energy at fixed mass,
  whose minimizer is the rescaled ground state at velocity ``cstar``.
"""

from __future__ import annotations

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
    _chirp_z,
    field_from_values,
    make_grid,
    quad_form,
)

__all__ = [
    "ModelSpec",
    "SolitaryWave",
    "MinimizerResult",
    "petviashvili",
    "rescale_solitary",
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


def _residual(lin: np.ndarray, p: int, uhat: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Profile-equation residual lin(D)u - u^{p+1}/(p+1) of the samples u,
    given their spectrum uhat = rfft(u)."""
    return np.fft.irfft(lin * uhat, n=u.size) - u ** (p + 1) / (p + 1)


def profile_residual(model: ModelSpec, c: float, u: RealField) -> np.ndarray:
    """Pointwise residual of the profile equation for u."""
    lin = linear_symbol(model, c, u.grid.xi_r)
    return _residual(lin, model.p, np.fft.rfft(u.values), u.values)


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
        amp, width = 3.0 * c, c ** (1.0 / alpha) / 2.0
    # overflow-safe sech^2
    e = np.exp(-np.abs(width * grid.x))
    vals = amp * (2.0 * e / (1.0 + e * e)) ** 2
    return field_from_values(grid, vals)


def petviashvili(
    model: ModelSpec,
    c: float,
    grid: Grid1D,
    tol: float = 1e-10,
    max_iter: int = 500,
    gamma: Optional[float] = None,
    seed_profile: Optional[RealField] = None,
) -> SolitaryWave:
    """Compute a solitary-wave profile by the stabilized fixed-point iteration.

    Each sweep applies Q <- S^gamma (c + p(D))^{-1} [Q^{p+1}/(p+1)] with the
    normalization S = <Q, (c+p(D))Q> / <Q, Q^{p+1}/(p+1)> and the contraction
    exponent gamma = (p+1)/p.  Converged means both the successive-iterate
    sup change is below tol and the equation residual is below 10*tol;
    stagnation of the iterates alone can mask non-solutions.

    The iterate is carried in Fourier space as well: Q_hat = rfft(Q) is
    computed once from the seed, the numerator of S is the Parseval sum over
    Q_hat, and the update is formed as a spectrum.  So a sweep transforms
    twice, rfft of the nonlinearity and irfft of the new spectrum; the
    residual check reuses Q_hat and adds one irfft.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if model.family == FKDV and model.symbol.kind == PURE_POWER and model.symbol.alpha <= 1.0 / 3.0:
        warnings.warn(
            f"alpha={model.symbol.alpha} <= 1/3: no finite-energy solitary wave exists; "
            "expect collapse"
        )
    p = model.p
    if gamma is None:
        gamma = (p + 1) / p
    lin = linear_symbol(model, c, grid.xi_r)  # also validates c for the chosen form
    inv = 1.0 / lin

    q = (seed_profile.values if seed_profile is not None else default_seed(model, c, grid).values).copy()
    qhat = np.fft.rfft(q)
    delta_prev = None
    for n_iter in range(1, max_iter + 1):
        nl = q ** (p + 1) / (p + 1)
        denom = np.sum(q * nl)
        if denom == 0.0 or not np.isfinite(denom):
            raise NumericalError("Petviashvili normalization degenerated")
        s = quad_form(qhat, grid, lin) / (grid.dx * denom)
        qhat_new = s**gamma * inv * np.fft.rfft(nl)
        q_new = np.fft.irfft(qhat_new, n=grid.n)
        delta = q_new - q
        change = float(np.max(np.abs(delta)))
        q = q_new
        # Aitken extrapolation along the dominant (slow, low-frequency)
        # contraction mode; the fixed point is unchanged.  The step is linear
        # in the iterate, so the spectrum moves with it.
        if delta_prev is not None and n_iter % 8 == 0:
            num = float(np.dot(delta, delta_prev))
            den = float(np.dot(delta_prev, delta_prev))
            rho = num / den if den > 0 else 0.0
            if 0.2 < rho < 0.995:
                r = rho / (1.0 - rho)
                cand = q + delta * r
                if np.all(np.isfinite(cand)) and np.max(np.abs(cand)) < 1e8:
                    q = cand
                    qhat_new += r * (qhat_new - qhat)
                    delta = None
        qhat = qhat_new
        delta_prev = delta
        sup = float(np.max(np.abs(q)))
        if not np.isfinite(sup) or sup > 1e8:
            raise NumericalError(f"Petviashvili iteration diverged at step {n_iter}")
        if sup < ZERO_COLLAPSE:
            raise NoSolitaryWaveError(
                f"no solitary wave found: profile collapsed to zero at step {n_iter}"
            )
        if change < tol:
            if float(np.max(np.abs(_residual(lin, p, qhat, q)))) < 10.0 * tol:
                break
    else:
        raise ConvergenceError(
            f"Petviashvili did not converge within {max_iter} iterations "
            f"(last sup change {change:.3e})"
        )

    profile = field_from_values(grid, q)
    wave = solitary_from_profile(profile, c, model, iterations=n_iter)
    if wave.profile.values.max() <= 0:
        raise NumericalError("converged profile has non-positive maximum")
    return wave


# -- trigonometric resampling -------------------------------------------------


def _interp_weights(u: RealField):
    """One-sided spectral weights of the real trigonometric interpolant."""
    grid = u.grid
    uhat = np.fft.rfft(u.values)
    weights = uhat / grid.n
    weights[1:-1] *= 2.0  # interior modes carry both signs; ends stay single
    return weights, grid.xi_r


def sample_interpolant_uniform(u: RealField, start: float, step: float,
                               count: int) -> np.ndarray:
    """Evaluate the trigonometric interpolant of u at start + k*step,
    k < count, via the chirp-z transform in O((n + count) log).

    Exact (to roundoff) for the band-limited function the samples represent;
    the Nyquist mode is taken in the real-even convention."""
    weights, xi_r = _interp_weights(u)
    g = weights * np.exp(1j * xi_r * (start - u.grid.x[0]))
    return _chirp_z(g, count, xi_r[1] * step).real


def upsample_field(u: RealField, n_new: int) -> RealField:
    """Resample onto a finer grid with the same box by zero-padding the
    spectrum; exact for the band-limited interpolant.  Useful for seeding a
    fine solve from a coarse one."""
    grid = u.grid
    if n_new < grid.n:
        raise ValueError(f"upsample_field needs n_new >= n, got {n_new} < {grid.n}")
    if n_new == grid.n:
        return u
    fine = make_grid(n_new, grid.L)
    uhat = np.fft.rfft(u.values)
    padded = np.zeros(n_new // 2 + 1, dtype=complex)
    padded[: uhat.size] = uhat
    padded[uhat.size - 1] *= 0.5  # split the Nyquist mode symmetrically
    vals = np.fft.irfft(padded, n=n_new) * (n_new / grid.n)
    return field_from_values(fine, vals)


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
    y = lam * grid.x
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
            t = (np.abs(grid.x[inside]) - flat) / (edge - flat)
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
    converged: bool
    iterations: int
    grad_norm: float      # L^2 norm of the projected gradient at exit


def minimize_iq(
    q: float,
    alpha: float,
    grid: Grid1D,
    tol: float = 1e-8,
    max_iter: int = 20000,
) -> MinimizerResult:
    """Minimize E(u) = (1/2)|D^{a/2}u|_2^2 - (1/6) int u^3 at fixed mass q.

    Projected gradient descent: u <- Pi_q(u - tau (D^alpha u - u^2/2)) where
    Pi_q rescales the L^2 norm to sqrt(2q).  Converged when the component of
    the gradient orthogonal to u has L^2 norm below tol; the Rayleigh
    multiplier theta = int (u^2/2 - D^alpha u) u / int u^2 then solves the
    Euler-Lagrange equation D^alpha u - u^2/2 + theta u = 0 to the same
    accuracy.
    """
    if not (0.5 < alpha < 1.0):
        raise ValueError(f"minimize_iq needs alpha in (1/2, 1), got {alpha}")
    if not q > 0:
        raise ValueError(f"mass constraint must be positive, got {q}")

    dx = grid.dx
    mult = grid.xi_r**alpha
    xi_max_pow = float(mult.max())

    u = np.exp(-((grid.x / 3.0) ** 2))
    u = u * np.sqrt(2.0 * q / (dx * np.sum(u**2)))

    def split(u):
        uhat = np.fft.rfft(u)
        du = np.fft.irfft(mult * uhat, n=grid.n)  # D^alpha u
        e = 0.5 * quad_form(uhat, grid, mult) - dx * np.sum(u**3) / 6.0
        return du, e

    energy_prev = np.inf
    bad_steps = 0
    theta = 0.0
    grad_norm = np.inf
    n_iter = 0
    converged = False
    for n_iter in range(1, max_iter + 1):
        du, energy = split(u)
        g = du - 0.5 * u**2
        l2_sq = dx * np.sum(u**2)
        theta = -dx * np.sum(g * u) / l2_sq
        g_perp = g + theta * u
        grad_norm = float(np.sqrt(dx * np.sum(g_perp**2)))
        if grad_norm < tol:
            converged = True
            break
        if energy > energy_prev:
            bad_steps += 1
            if bad_steps >= 50:
                raise NumericalError(
                    "minimize_iq diverged: energy increased over 50 consecutive steps"
                )
        else:
            bad_steps = 0
        energy_prev = energy
        # explicit stability bound for the linearized flow
        tau = 0.5 / (max(theta, 1e-3) + xi_max_pow)
        v = u - tau * g
        u = v * np.sqrt(2.0 * q / (dx * np.sum(v**2)))
    if not converged:
        raise ConvergenceError(
            f"minimize_iq did not converge within {max_iter} iterations "
            f"(projected gradient {grad_norm:.3e})"
        )

    profile = field_from_values(grid, u)
    return MinimizerResult(
        profile=profile,
        q=float(mass(profile)),
        theta=float(theta),
        I_q=float(energy_fkdv(profile, DispersionSymbol.power(alpha)).value),
        converged=converged,
        iterations=n_iter,
        grad_norm=grad_norm,
    )
