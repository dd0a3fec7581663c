"""Pseudospectral time integration and orbital-stability experiments.

The fKdV family u_t = d/dx p(D) u - d/dx u^{p+1}/(p+1) and the fBBM family
u_t = -(1 + p(D))^{-1} d/dx (u + u^2/2) are advanced by the one fourth-order
exponential integrator of Cox-Matthews, with the phi-coefficients evaluated
in closed form (by Taylor series near 0).  A family fixes only its diagonal
linear multiplier, applied exactly, its nonlinear multiplier on the 2/3-rule
dealiased u^{p+1}, and its conserved pair.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalError
from .functionals import Report, bbm_hamiltonian, bbm_quadratic, energy_fkdv, energy_norm, mass
from .ground_state import FBBM, ModelSpec, SolitaryWave, _sup, dilate_field
from .spectral import (
    RealField,
    _same_grid,
    _shift_phase,
    _spectrum,
    field_from_values,
    quad_form,
)
from .verification import _random_low_modes, identity_suite

__all__ = [
    "EvolutionTrace",
    "StabilityReport",
    "evolve",
    "orbital_distance",
    "stability_experiment",
    "make_perturbation",
]

BLOWUP_FACTOR = 1e6
DELTA_FLOOR = 1e-5
THRESHOLD_FACTOR = 5.0  # stability threshold / (max(delta, DELTA_FLOOR) ||Q||)
TAYLOR_RADIUS = 1.0  # |z| below which the phi-functions are summed as series
TAYLOR_TERMS = 18  # terms of the phi_1 series: the first one left out is < 1e-17
NEWTON_CAP = 20  # Newton steps of the orbital-distance shift refinement
RECORD_INTERVAL = 0.25  # time between the records of a stability run and of the evolve command


@dataclass(frozen=True)
class EvolutionTrace:
    """conserved: mass/energy for fKdV, quadratic/hamiltonian for fBBM."""

    model: ModelSpec
    dt: float
    times: np.ndarray
    final_state: RealField
    conserved: dict[str, np.ndarray]
    orbital_distance_series: Optional[np.ndarray] = None
    flag: Optional[str] = None

    def conserved_drift(self) -> float:
        """Largest relative drift across the tracked conserved pair."""
        drift = 0.0
        for series in self.conserved.values():
            ref = max(abs(series[0]), 1e-300)
            drift = max(drift, float(np.max(np.abs(series - series[0])) / ref))
        return drift


def _phi_series(z: np.ndarray):
    """phi_1, phi_2, phi_3 of z (|z| < TAYLOR_RADIUS) by Horner's rule on
    phi_1(z) = sum_k z^k / (k+1)!, whose inner sums are phi_3 and then phi_2."""
    phi3 = np.full(z.shape, 1.0 / math.factorial(TAYLOR_TERMS), dtype=complex)
    for k in range(TAYLOR_TERMS - 1, 2, -1):
        phi3 = phi3 * z + 1.0 / math.factorial(k)
    phi2 = phi3 * z + 0.5
    return phi2 * z + 1.0, phi2, phi3


def _expm1(z: np.ndarray) -> np.ndarray:
    """e^z - 1 without the cancellation near the zeros of e^z - 1: for
    z = x + iy it is expm1(x) cos y - 2 sin^2(y/2) + i e^x sin y."""
    x, y = z.real, z.imag
    half_sin = np.sin(y / 2.0)
    out = np.empty_like(z)
    out.real = np.expm1(x) * np.cos(y) - 2.0 * half_sin * half_sin
    out.imag = np.exp(x) * np.sin(y)
    return out


def _etdrk4_coefficients(lin: np.ndarray, dt: float):
    """E, E2 = exp(z), exp(z/2) of z = dt*lin and the phi-coefficients
    Q = dt phi_1(z/2)/2, f1 = dt(phi_1 - 3 phi_2 + 4 phi_3),
    f2x2 = 2 dt(phi_2 - 2 phi_3) and f3 = dt(4 phi_3 - phi_2).  From
    |z| = TAYLOR_RADIUS up the phi-functions take the closed forms
    phi_1 = (e^z - 1)/z, phi_2 = (phi_1 - 1)/z and phi_3 = (phi_2 - 1/2)/z,
    below it (z = 0 included) their Taylor series; each row is built in place.
    e^z - 1 is taken by _expm1, so Q keeps its digits near its zeros
    z = 4 pi i m, where e^{z/2} - 1 would cancel."""
    z = dt * np.asarray(lin, dtype=complex)
    E = np.exp(z)
    E2 = np.divide(z, 2.0)
    np.exp(E2, out=E2)

    series = np.abs(z) < 2.0 * TAYLOR_RADIUS  # |z/2| below the radius
    Q = _expm1(z / 2.0)
    np.divide(Q, z, out=Q, where=~series)  # (e^{z/2} - 1)/z = phi_1(z/2)/2
    Q[series] = _phi_series(z[series] / 2.0)[0] / 2.0
    Q *= dt

    series = np.abs(z) < TAYLOR_RADIUS
    closed = ~series
    phi1 = _expm1(z)
    np.divide(phi1, z, out=phi1, where=closed)
    phi2 = np.subtract(phi1, 1.0)
    np.divide(phi2, z, out=phi2, where=closed)
    phi3 = np.subtract(phi2, 0.5)
    np.divide(phi3, z, out=phi3, where=closed)
    phi1[series], phi2[series], phi3[series] = _phi_series(z[series])

    # the phi rows become f1, f2x2 and f3; the row of z is spent and does the work
    f1, f2x2, f3 = phi1, phi2, phi3
    work = np.multiply(3.0, phi2, out=z)
    f1 -= work
    f1 += np.multiply(4.0, phi3, out=work)
    np.subtract(work, phi2, out=f3)  # 4 phi_3 - phi_2
    f2x2 *= 2.0
    f2x2 -= work  # 2 phi_2 - 4 phi_3
    for row in (f1, f2x2, f3):
        row *= dt
    return E, E2, Q, f1, f2x2, f3


def _misses(T: float, dt: float) -> bool:
    """Whether the round(T/dt) steps of dt that evolve takes end more than
    1e-9 max(T, 1) away from T."""
    return abs(int(round(T / dt)) * dt - T) > 1e-9 * max(T, 1.0)


def evolve(
    model: ModelSpec,
    u0: RealField,
    T: float,
    dt: float,
    record_every: int = 1,
    track_orbit: Optional[SolitaryWave] = None,
) -> EvolutionTrace:
    """Advance u0 for n = round(T/dt) steps, recording conserved quantities
    (and, optionally, the orbital distance to a solitary wave) every
    record_every steps.  The nonlinear term is always dealiased by the
    2/3 rule: modes above 2/3 of the Nyquist wavenumber are zeroed.

    Blow-up (sup-norm growth beyond 1e6 times the initial) and a NaN or
    infinite sample (flag "nan") both stop the integration and return a
    flagged partial trace; each step reads both from one max and one min of
    its new samples.  A blown-up state is recorded as the last entry; a NaN
    state cannot be, so the trace ends at the last finite record.  The
    steps run in eight preallocated spectra and one sample row, and a
    record copies the samples into the field it keeps.
    """
    if not T > 0 or not dt > 0:
        raise ValueError("T and dt must be positive")
    if not np.isfinite(T / dt):
        raise ValueError(f"horizon T={T} is not a finite number of steps dt={dt}")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    grid = u0.grid
    xi_r = grid.xi_r
    n_steps = int(round(T / dt))
    if n_steps < 1:
        raise ValueError(f"horizon T={T} shorter than one step dt={dt}")
    if _misses(T, dt):
        warnings.warn(
            f"dt={dt} does not divide T={T}; integrating to t={n_steps * dt} instead"
        )

    mask = np.ones(xi_r.size)
    mask[xi_r > (2.0 / 3.0) * xi_r[-1]] = 0.0
    # odd multiplier: the Nyquist mode of the derivative is dropped
    ik = 1j * xi_r
    ik[-1] = 0.0
    p, symbol = model.p, model.symbol
    if model.family == FBBM:
        lin = -ik / (1.0 + symbol(xi_r))
        nl_mult = lin * mask / 2.0
        pair = {"quadratic": lambda u: bbm_quadratic(u, symbol), "hamiltonian": bbm_hamiltonian}
    else:
        lin = ik * symbol(xi_r)
        nl_mult = -ik * mask / (p + 1)
        pair = {"mass": mass, "energy": lambda u: energy_fkdv(u, symbol, p)}

    # the linear part is exact, so only the nonlinear term bounds dt
    sup0 = _sup(u0.values)
    bound = dt * (p + 1) * sup0**p * _sup(nl_mult.imag)  # nl_mult is imaginary
    if bound > 4.0:
        warnings.warn(f"{model.family} stability bound dt (p+1) sup^p max|N| = {bound:.2f} > 4")
    E, E2, Q, f1, f2x2, f3 = _etdrk4_coefficients(lin, dt)
    # the step runs in these buffers; every product keeps the operand order
    # of its expression a * b, as np.multiply(a, b, out=...): with fused
    # multiply-adds a complex product need not round alike both ways round.
    # The buffers are kept for speed: the 512 steps of a desk evolve --T 5
    # (n 4096) took 0.141-0.148 s in them and 0.148-0.155 s written as
    # expressions, bitwise alike (best of 15, three runs, shared 2-core
    # Xeon, numpy 2.4); evolve takes over half of a desk_session pass
    uhat, n0, na, nb, nc, e2u, a, b = np.empty((8, xi_r.size), dtype=complex)
    v = np.empty(grid.n)  # the sample row

    def nonlinear(out, vhat=None):
        """nl_mult * rfft(v ** (p + 1)) into out, for the samples v of vhat,
        which the row takes first when vhat is given; the row is overwritten."""
        samples = v if vhat is None else np.fft.irfft(vhat, n=grid.n, out=v)
        samples **= p + 1
        return np.multiply(nl_mult, np.fft.rfft(samples, out=out), out=out)

    times, dists = [], []
    conserved = {name: [] for name in pair}

    def record(t, u_field):
        times.append(t)
        for name, functional in pair.items():
            conserved[name].append(functional(u_field))
        if track_orbit is not None:
            dists.append(orbital_distance(u_field, track_orbit)[0])

    np.copyto(uhat, _spectrum(u0))
    # the samples of uhat; each step's blow-up check refreshes them for the next
    np.fft.irfft(uhat, n=grid.n, out=v)
    record(0.0, u0)
    flag = None
    u_field = u0
    for step in range(1, n_steps + 1):
        nonlinear(n0)
        np.multiply(E2, uhat, out=e2u)
        np.add(e2u, np.multiply(Q, n0, out=a), out=a)
        nonlinear(na, a)
        np.add(e2u, np.multiply(Q, na, out=b), out=b)
        nonlinear(nb, b)
        # c = E2 a + Q (2 nb - n0) in b, with e2u as the work row
        tmp = np.subtract(np.multiply(2.0, nb, out=e2u), n0, out=e2u)
        c = np.add(np.multiply(E2, a, out=b), np.multiply(Q, tmp, out=tmp), out=b)
        nonlinear(nc, c)
        # uhat = E uhat + f1 n0 + f2x2 (na + nb) + f3 nc
        np.multiply(E, uhat, out=uhat)
        np.add(uhat, np.multiply(f1, n0, out=n0), out=uhat)
        np.add(uhat, np.multiply(f2x2, np.add(na, nb, out=na), out=na), out=uhat)
        np.add(uhat, np.multiply(f3, nc, out=nc), out=uhat)

        np.fft.irfft(uhat, n=grid.n, out=v)
        sup = _sup(v)  # NaN or inf when a sample is
        if not np.isfinite(sup):
            flag = "nan"
            break
        if sup > BLOWUP_FACTOR * max(sup0, 1e-300):
            flag = "blowup"
        if flag is not None or step % record_every == 0 or step == n_steps:
            u_field = field_from_values(grid, v.copy())  # the field keeps its samples read-only
            record(step * dt, u_field)
            if flag is not None:
                break

    return EvolutionTrace(
        model=model,
        dt=dt,
        times=np.asarray(times),
        final_state=u_field,
        conserved={name: np.asarray(series) for name, series in conserved.items()},
        orbital_distance_series=np.asarray(dists) if track_orbit is not None else None,
        flag=flag,
    )


def _record_every(dt: float) -> int:
    """Steps between records at every RECORD_INTERVAL time units, or at every
    step when dt is longer."""
    return max(1, int(round(RECORD_INTERVAL / dt)))


# -- distance to the ground-state orbit ----------------------------------------


def orbital_distance(u: RealField, Q: SolitaryWave) -> tuple[float, float]:
    """inf over y of the energy-norm distance between u(. + y) and Q, in the
    norm of the wave's own model: the weight is w = 1 + p(xi) for its symbol
    p, so 1 + |xi|^alpha for a pure power.

    The squared distance is a constant minus 2 C(y),
    C(y) = sum_k c_k w_k Re(uhat_k conj(qhat_k) e^{i xi_k y}), where c_k is 2
    for interior modes and 1 for the mean and Nyquist modes.  One irfft of the
    weighted cross-spectrum gives C at every whole-grid shift; Newton steps on
    C' = 0 from the best of them, each clipped to one cell around it, refine
    the shift.  Returns the distance, as the norm of the aligned difference,
    and the aligning shift y_star, normalized to [-L, L).
    """
    grid = u.grid
    _same_grid(grid, Q.profile.grid)
    uhat = _spectrum(u)
    qhat = _spectrum(Q.profile)
    xi = grid.xi_r
    weight = 1.0 + Q.model.symbol(xi)
    cross = weight * uhat * np.conj(qhat)
    z0 = int(np.argmax(np.fft.irfft(cross, n=grid.n))) * grid.dx
    cross[1:-1] *= 2.0  # now C(y) = Re sum_k cross_k e^{i xi_k y}
    z = z0
    xi2 = xi**2
    for _ in range(NEWTON_CAP):
        terms = cross * np.exp(1j * xi * z)
        d1 = -float(np.sum(xi * terms.imag))
        d2 = -float(np.sum(xi2 * terms.real))
        if d2 >= 0.0:
            break
        step = min(max(z - d1 / d2, z0 - grid.dx), z0 + grid.dx) - z
        z += step
        if abs(step) < 1e-13 * max(1.0, abs(z)):
            break
    dist = np.sqrt(quad_form(_shift_phase(xi, z) * uhat - qhat, grid, weight))
    y_star = (z + grid.L) % (2.0 * grid.L) - grid.L
    return float(dist), float(y_star)


# -- stability experiments ------------------------------------------------------


@dataclass(frozen=True)
class StabilityReport(Report):
    alpha: float
    c: float
    delta: float
    perturbation_kind: str
    horizon: float
    sup_distance: float
    distance_at_end: float
    conserved_drift: float
    threshold: float
    verdict: str


def make_perturbation(Q: SolitaryWave, kind: str, delta: float, seed: int = 0) -> RealField:
    """A perturbation of the requested kind on the grid of Q, normalized so its
    energy norm (in the symbol of Q's model) is delta times that of the profile."""
    grid = Q.profile.grid
    if kind == "gaussian":
        raw = field_from_values(grid, np.exp(-((grid.x / 4.0) ** 2)))
    elif kind == "dilation":
        raw = dilate_field(Q.profile, 1.05) - Q.profile
    elif kind == "random":
        vals = _random_low_modes(np.random.default_rng(seed), grid, max(2, grid.n // 16))
        raw = field_from_values(grid, vals * np.exp(-((grid.x / (grid.L / 4.0)) ** 2)))
    else:
        raise ValueError(f"unknown perturbation kind {kind!r}")
    if delta == 0.0:
        return field_from_values(grid, np.zeros(grid.n))
    norm = energy_norm(raw, Q.model.symbol)
    if norm == 0.0:
        raise NumericalError("perturbation construction produced the zero field")
    return raw * (delta * energy_norm(Q.profile, Q.model.symbol) / norm)


def stability_experiment(
    Q: SolitaryWave,
    delta: float,
    perturbation_kind: str,
    horizon: float,
    dt: float,
    seed: int = 0,
    gate_tolerance: float = 1e-3,
) -> tuple[StabilityReport, EvolutionTrace]:
    """Perturb a verified solitary wave and measure the orbital distance along
    the flow.  The wave is the one source of the model that is evolved, the
    grid it runs on, and the velocity and alpha that are reported.

    The bounded verdict requires the running sup of the orbital distance to
    stay below the threshold THRESHOLD_FACTOR * max(delta, DELTA_FLOOR) * ||Q||
    and the conserved pair to drift by less than 1e-6; blow-up or sustained
    growth past the threshold is reported as growing, anything else as
    inconclusive.  The factor 5 is fixed by fiat, since the stability theory
    guarantees smallness without a rate; the distance to the family member of
    the perturbed mass, against the theory's Lyapunov bound, is to replace
    the rule (ROADMAP item 6).  The orbital distance is recorded every
    RECORD_INTERVAL time units (every step when dt is longer).  The identity
    gate runs at gate_tolerance, loose enough for the periodization level of
    desk-scale boxes while still rejecting unconverged or perturbed profiles.
    delta must be finite and >= 0 (a negative one flips the perturbation while
    the threshold falls to the floor).
    """
    if not (delta >= 0 and np.isfinite(delta)):
        raise ValueError(f"delta must be finite and >= 0, got {delta}")
    gate = identity_suite(Q, tolerance=gate_tolerance)
    bad = [r.name for r in gate if not r.passed]
    if bad:
        raise NumericalError(f"profile failed the identity gate: {', '.join(bad)}")

    pert = make_perturbation(Q, perturbation_kind, delta, seed=seed)
    u0 = Q.profile + pert
    trace = evolve(Q.model, u0, horizon, dt, record_every=_record_every(dt), track_orbit=Q)

    dists = trace.orbital_distance_series
    sup_d = float(np.max(dists))
    end_d = float(dists[-1])
    drift = trace.conserved_drift()
    norm = energy_norm(Q.profile, Q.model.symbol)
    threshold = THRESHOLD_FACTOR * max(delta, DELTA_FLOOR) * norm

    if trace.flag is not None:
        verdict = "growing"
    elif sup_d < threshold and drift < 1e-6:
        verdict = "bounded"
    else:
        growing = (
            sup_d >= threshold
            and end_d >= 0.8 * sup_d
            and len(dists) > 4
            and end_d > 3.0 * float(np.max(dists[: max(2, len(dists) // 4)]))
        )
        verdict = "growing" if growing else "inconclusive"

    report = StabilityReport(
        alpha=Q.alpha,
        c=Q.c,
        delta=delta,
        perturbation_kind=perturbation_kind,
        horizon=horizon,
        sup_distance=sup_d,
        distance_at_end=end_d,
        conserved_drift=drift,
        threshold=float(threshold),
        verdict=verdict,
    )
    return report, trace
