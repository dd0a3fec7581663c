"""Numerical verification of the identities and decay estimates obeyed by
solitary-wave profiles and by the fields around them.

Every check produces an IdentityReport with both sides of the identity, a
relative residual, and a pass flag.  Residuals of profile identities are
dominated by the periodization of algebraically decaying tails, which scales
like (pi/L)^(1+alpha); the box has to grow as alpha approaches 1/2 for tight
tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConvergenceError
from .functionals import Report, energy_fkdv, mass, weinstein
from .ground_state import SolitaryWave, dilate_field, minimize_iq, paper_form, upsample_field
from .spectral import (
    PURE_POWER,
    DispersionSymbol,
    Grid1D,
    RealField,
    _apply_multiplier_array,
    _field_form,
    _xi_power,
    field_from_values,
    make_grid,
    spectral_tail,
)

__all__ = [
    "IdentityReport",
    "IqScalingReport",
    "CommutatorDecay",
    "GNScanReport",
    "identity_suite",
    "pohojaev_functional_check",
    "commutator_decay",
    "smooth_bump",
    "iq_scaling_check",
    "gn_scan",
    "make_scan_battery",
]

RESIDUAL_FLOOR = 1e-300
RESOLVED_TAIL = 1e-4   # largest spectral_tail share a field may have to be read
MAX_REFINE = 16        # iq_scaling_check refines n up to this factor
MASS_LAW_TOL = 1e-6    # tolerance of iq_scaling_check's mass-law rows
ENERGY_LAW_TOL = 1e-3  # and of its energy-law rows


@dataclass(frozen=True)
class IdentityReport(Report):
    name: str
    lhs: float
    rhs: float
    relative_residual: float
    tolerance: float
    passed: bool


def _report(name: str, lhs: float, rhs: float, tol: float) -> IdentityReport:
    rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), RESIDUAL_FLOOR)
    return IdentityReport(
        name=name, lhs=float(lhs), rhs=float(rhs),
        relative_residual=float(rel), tolerance=tol, passed=bool(rel < tol),
    )


def identity_suite(Q: SolitaryWave, tolerance: float = 1e-6) -> list[IdentityReport]:
    """The five integral identities of a pure-power profile.

    For D^a Q + c Q = Q^{p+1}/(p+1), the profile equation of fKdV and
    paper-form fBBM (p = 1) and of gfKdV (any p), write g = int |D^{a/2}Q|^2,
    m = int Q^2, k = int Q^{p+2} and s = (p+2)a - p:
      energy            g + c m = k/(p+1)
      pohozaev          ((1-a)/2) g + (c/2) m = k/((p+1)(p+2))
      kinetic_mass      s g = p c m
      kinetic_fraction  g = p c m / s
      cubic_fraction    k = (p+1)(p+2) a c m / s
    A derived-form fBBM profile, c D^a Q + (c-1) Q = Q^2/2, is checked in its
    paper form psi = Q/c at velocity (c-1)/c, so its rows (and the residual
    precondition) are in the psi variables.
    """
    if Q.model.symbol.kind != PURE_POWER:
        raise ValueError("identity_suite applies to pure-power dispersion only")
    Q = paper_form(Q)
    if Q.residual_sup >= 1e-6:
        raise ValueError(
            f"profile residual {Q.residual_sup:.3e} too large for identity checks (need < 1e-6)"
        )
    u, c, grid, alpha, p = Q.profile, Q.c, Q.profile.grid, Q.alpha, Q.model.p
    g = _field_form(u, _xi_power(grid, alpha))
    m = 2.0 * mass(u)
    k = float(grid.dx * np.sum(u.values ** (p + 2)))
    s = (p + 2) * alpha - p
    return [
        _report("energy", g + c * m, k / (p + 1), tolerance),
        _report("pohozaev", (1.0 - alpha) / 2 * g + c / 2 * m, k / ((p + 1) * (p + 2)), tolerance),
        _report("kinetic_mass", s * g, p * c * m, tolerance),
        _report("kinetic_fraction", g, p * c * m / s, tolerance),
        _report("cubic_fraction", k, (p + 1) * (p + 2) * alpha * c * m / s, tolerance),
    ]


def pohojaev_functional_check(phi: RealField, alpha: float,
                              tolerance: float = 1e-6) -> IdentityReport:
    """Check int (D^alpha phi) x phi' dx = ((alpha-1)/2) int |D^{alpha/2} phi|^2.

    The x-weighted integrand is not periodic, so phi must be effectively
    supported away from the box boundary.  The report carries both sides with
    the quadratic form g = int |D^{alpha/2} phi|^2 added, i.e.
    lhs + g = ((alpha+1)/2) g, so that neither side vanishes at alpha = 0 or
    alpha = 1 and the relative residual stays meaningful there.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    grid = phi.grid
    sup = float(np.max(np.abs(phi.values)))
    boundary = max(abs(phi.values[0]), abs(phi.values[-1]))
    if sup > 0 and boundary > 1e-10 * sup:
        raise ValueError(
            f"boundary value {boundary:.3e} exceeds 1e-10 * sup {sup:.3e}; "
            "the x-weighted identity is not periodic-safe"
        )
    # the Nyquist mode of an odd multiplier is dropped
    xi = grid.xi_r
    dmult = 1j * xi
    dmult[-1] = 0.0
    dphi = _apply_multiplier_array(phi, dmult).values
    # the round trip even at alpha = 0, where d_alpha would return phi itself
    mult = xi
    mult **= alpha  # in place: xi is not read again
    dalpha_phi = _apply_multiplier_array(phi, mult).values
    weighted = float(grid.dx * np.sum(dalpha_phi * grid.x * dphi))
    g = _field_form(phi, mult)
    return _report("pohozaev_functional", weighted + g, (alpha + 1.0) / 2.0 * g, tolerance)


# -- commutator decay ----------------------------------------------------------


def smooth_bump(t: np.ndarray) -> np.ndarray:
    """C^infty cutoff: 1 on [-1, 1], supported on [-2, 2].

    exp(1 - 1/(1 - s^2)) with s = |t| - 1 on the transition region.
    """
    t = np.abs(np.asarray(t, dtype=np.float64))
    out = np.zeros_like(t)
    out[t <= 1.0] = 1.0
    trans = (t > 1.0) & (t < 2.0)
    s = t[trans] - 1.0
    out[trans] = np.exp(1.0 - 1.0 / (1.0 - s**2))
    return out


@dataclass(frozen=True)
class CommutatorDecay(Report):
    alpha: float
    radii: tuple
    norms: tuple
    slope: float
    intercept: float
    degenerate: bool


def commutator_decay(alpha: float, v: RealField, r_list: Sequence[float],
                     complement: bool = False) -> CommutatorDecay:
    """L^2 norms of [D^alpha, phi_r] v over a list of cutoff radii, with the
    least-squares log-log slope.

    phi_r(x) = phi(x/r) for the fixed smooth bump (1 on [-r, r], support
    [-2r, 2r]); with complement=True the complementary cutoff
    psi_r = sqrt(1 - phi_r^2) is used instead.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    grid = v.grid
    rs = [float(r) for r in r_list]
    if any(r2 <= r1 for r1, r2 in zip(rs, rs[1:])):
        raise ValueError("radii must be strictly increasing")
    if rs and 2.0 * rs[-1] > grid.L / 2.0:
        raise ValueError(
            f"cutoff support [-2r, 2r] with r = {rs[-1]} exceeds half the box (L = {grid.L})"
        )
    mult = _xi_power(grid, alpha)
    dv = _apply_multiplier_array(v, mult).values
    x = grid.x
    norms = []
    for r in rs:
        cut = smooth_bump(x / r)
        if complement:
            cut = np.sqrt(np.clip(1.0 - cut**2, 0.0, 1.0))
        comm = _apply_multiplier_array(RealField(grid, cut * v.values), mult).values - cut * dv
        norms.append(float(np.sqrt(grid.dx * np.sum(comm**2))))
    degenerate = any(nm <= 1e-300 for nm in norms) or len(norms) < 2
    if degenerate:
        slope, intercept = float("nan"), float("nan")
    else:
        slope, intercept = np.polyfit(np.log(rs), np.log(norms), 1)
    return CommutatorDecay(
        alpha=alpha, radii=tuple(rs), norms=tuple(norms),
        slope=float(slope), intercept=float(intercept), degenerate=degenerate,
    )


# -- minimization scaling law ---------------------------------------------------


@dataclass(frozen=True)
class IqScalingReport:
    n: int           # grid size the checks ran on, after refinement
    tail: float      # largest spectral_tail share of the fields the checks read
    checks: tuple    # IdentityReport rows


def iq_scaling_check(
    alpha: float,
    q: float,
    theta_list: Sequence[float],
    grid: Grid1D,
    tolerance: float = 1e-3,
) -> IqScalingReport:
    """Check I_{theta q} = theta^((3a-1)/(2a-1)) I_q by independent minimizations,
    plus the mass/energy transformation laws of the rescaling
    v_theta(x) = theta^(a/(2a-1)) v(theta^(1/(2a-1)) x) applied to the minimizer.

    The mass law is quadrature-exact for localized fields (MASS_LAW_TOL); the
    energy law carries the |xi|^alpha lattice-kink error of the kinetic term,
    of size (pi/L)^(1+alpha) |int v|^2, hence its looser ENERGY_LAW_TOL.

    The theta q minimizer and v_theta are narrower than the base minimizer
    by theta^(1/(2a-1)) for theta > 1 and wider for theta < 1.  The checks
    are taken only on a grid that resolves all three fields they read: n is
    doubled at fixed L, and every minimization redone, until their
    spectral_tail shares are at most RESOLVED_TAIL; past MAX_REFINE times
    the given n this raises ConvergenceError.  On each grid the minimizers
    are computed narrowest first (largest mass first), and the first one
    found unresolved moves the check to the next n.  There each mass
    minimized on the coarser grid is seeded with that minimizer, upsampled;
    a mass first minimized on this grid starts from minimize_iq's seed."""
    if not (0.5 < alpha < 1.0):
        raise ValueError(f"iq_scaling_check needs alpha in (1/2, 1), got {alpha}")
    for theta in theta_list:
        if not theta > 0:
            raise ValueError(f"theta must be positive, got {theta}")
    exponent = (3.0 * alpha - 1.0) / (2.0 * alpha - 1.0)
    sym = DispersionSymbol.power(alpha)
    fine = grid
    coarse = {}
    while True:
        tail = 0.0
        minimizers = {}
        for theta in sorted({1.0, *theta_list}, reverse=True):
            prev = coarse.get(theta)
            seed = None if prev is None else upsample_field(prev.profile, fine.n)
            res = minimize_iq(theta * q, alpha, fine, seed_profile=seed)
            minimizers[theta] = res
            tail = max(tail, spectral_tail(res.profile))
            if tail > RESOLVED_TAIL:
                break
        else:
            base = minimizers[1.0]
            reports = []
            for theta in theta_list:
                reports.append(_report(
                    f"iq_scaling_theta_{theta:g}",
                    minimizers[theta].I_q / base.I_q, theta**exponent, tolerance,
                ))
                # transformation laws measured on the explicitly rescaled minimizer
                lam = theta ** (1.0 / (2.0 * alpha - 1.0))
                amp = theta ** (alpha / (2.0 * alpha - 1.0))
                v_theta = dilate_field(base.profile, lam, amplitude=amp)
                reports.append(_report(
                    f"mass_law_theta_{theta:g}",
                    mass(v_theta), theta * mass(base.profile), MASS_LAW_TOL,
                ))
                reports.append(_report(
                    f"energy_law_theta_{theta:g}",
                    energy_fkdv(v_theta, sym),
                    theta**exponent * energy_fkdv(base.profile, sym),
                    ENERGY_LAW_TOL,
                ))
                tail = max(tail, spectral_tail(v_theta))
            if tail <= RESOLVED_TAIL:
                return IqScalingReport(n=fine.n, tail=tail, checks=tuple(reports))
        if fine.n >= MAX_REFINE * grid.n:
            raise ConvergenceError(
                f"iq_scaling_check: spectral tail share {tail:.3e} > {RESOLVED_TAIL:g} "
                f"at n = {fine.n} (L = {grid.L:g}), {MAX_REFINE}x the given n"
            )
        coarse = minimizers
        fine = make_grid(2 * fine.n, grid.L)


# -- Weinstein-functional scan ---------------------------------------------------


@dataclass(frozen=True)
class GNScanReport(Report):
    alpha: float
    ground_value: float
    min_ratio: float
    argmin: int
    ratios: tuple
    passed: bool


def gn_scan(Q: SolitaryWave, battery: Sequence[RealField],
            slack: float = 1e-8) -> GNScanReport:
    """Assert the ground state minimizes the Weinstein ratio, at the alpha
    and the nonlinearity power of its model, over a battery."""
    if len(battery) == 0:
        raise ValueError("gn_scan needs a non-empty battery")
    alpha, p = Q.alpha, Q.model.p
    j_ground = weinstein(Q.profile, alpha, p)
    ratios = tuple(weinstein(f, alpha, p) / j_ground for f in battery)
    argmin = int(np.argmin(ratios))
    min_ratio = float(ratios[argmin])
    return GNScanReport(
        alpha=alpha,
        ground_value=float(j_ground),
        min_ratio=min_ratio,
        argmin=argmin,
        ratios=ratios,
        passed=bool(min_ratio >= 1.0 - slack),
    )


def _random_low_modes(rng, grid: Grid1D, n_modes: int) -> np.ndarray:
    """Samples of the irfft of standard-normal complex coefficients on modes
    1..n_modes, the real parts drawn before the imaginary parts."""
    coef = np.zeros(grid.n // 2 + 1, dtype=complex)
    coef[1 : n_modes + 1] = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
    return np.fft.irfft(coef, n=grid.n)


def make_scan_battery(grid: Grid1D, seed: int, count: int = 20) -> list[RealField]:
    """Deterministic battery of Gaussians and random fields on the lowest
    tenth of the modes."""
    rng = np.random.default_rng(seed)
    fields = []
    widths = np.linspace(0.5, 8.0, max(1, count // 2))
    x = grid.x
    for w in widths:
        fields.append(field_from_values(grid, np.exp(-((x / w) ** 2))))
    n_random = count - len(fields)
    n_modes = max(2, int(0.1 * grid.n / 2))
    for _ in range(n_random):
        vals = _random_low_modes(rng, grid, n_modes)
        vals /= max(np.max(np.abs(vals)), 1e-30)
        # localize so the field represents a line function
        vals *= np.exp(-((x / (grid.L / 4.0)) ** 2))
        fields.append(field_from_values(grid, vals))
    return fields
