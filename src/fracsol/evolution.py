"""Pseudospectral time integration and orbital-stability experiments.

The fKdV family u_t = d/dx p(D) u - d/dx u^{p+1}/(p+1) and the fBBM family
u_t = -(1 + p(D))^{-1} d/dx (u + u^2/2) are advanced by the one fourth-order
exponential integrator of Cox-Matthews, with the phi-coefficients evaluated
by contour averages (Kassam-Trefethen).  A family fixes only its diagonal
linear multiplier, applied exactly, its nonlinear multiplier on the 2/3-rule
dealiased u^{p+1}, and its conserved pair.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalError
from .functionals import Report, bbm_hamiltonian, bbm_quadratic, energy_fkdv, energy_norm, mass
from .ground_state import FBBM, ModelSpec, SolitaryWave, dilate_field
from .spectral import (
    RealField,
    _same_grid,
    _shift_phase,
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
N_CONTOUR = 32  # contour points per mode
CONTOUR_BLOCK = 1024  # modes per block of contour arrays
NEWTON_CAP = 20  # Newton steps of the orbital-distance shift refinement


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


def _etdrk4_coefficients(lin: np.ndarray, dt: float):
    """phi-function coefficients (f2 doubled) by Cauchy contour averages
    around dt*lin, in blocks of at least CONTOUR_BLOCK modes; a shorter block
    would skip numpy's in-place temporaries and round unlike the one-shot mean."""
    z = dt * lin.astype(complex)
    roots = np.exp(2j * np.pi * (np.arange(N_CONTOUR) + 0.5) / N_CONTOUR)
    q, f1, f2, f3 = (np.empty_like(z) for _ in range(4))
    for blk in np.array_split(np.arange(z.size), max(1, z.size // CONTOUR_BLOCK)):
        zr = z[blk, None] + roots[None, :]
        ez = np.exp(zr)
        q[blk] = dt * np.mean((np.exp(zr / 2.0) - 1.0) / zr, axis=1)
        f1[blk] = dt * np.mean((-4.0 - zr + ez * (4.0 - 3.0 * zr + zr**2)) / zr**3, axis=1)
        f2[blk] = dt * np.mean((2.0 + zr + ez * (zr - 2.0)) / zr**3, axis=1)
        f3[blk] = dt * np.mean((-4.0 - 3.0 * zr - zr**2 + ez * (4.0 - zr)) / zr**3, axis=1)
    return np.exp(z), np.exp(z / 2.0), q, f1, 2.0 * f2, f3


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

    Blow-up (sup-norm growth beyond 1e6 times the initial) and NaN both stop
    the integration and return a flagged partial trace.  A blown-up state is
    recorded as the last entry; a NaN state cannot be, so the trace ends at
    the last finite record.
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
    if abs(n_steps * dt - T) > 1e-9 * max(T, 1.0):
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
        pair = {"mass": mass, "energy": lambda u: energy_fkdv(u, symbol, p).value}

    # the linear part is exact, so only the nonlinear term bounds dt
    sup0 = float(np.max(np.abs(u0.values)))
    bound = dt * (p + 1) * sup0**p * float(np.max(np.abs(nl_mult)))
    if bound > 4.0:
        warnings.warn(f"{model.family} stability bound dt (p+1) sup^p max|N| = {bound:.2f} > 4")
    E, E2, Q, f1, f2x2, f3 = _etdrk4_coefficients(lin, dt)

    def nonlinear(vhat, v=None):
        """v = irfft(vhat) when the caller already holds it."""
        if v is None:
            v = np.fft.irfft(vhat, n=grid.n)
        return nl_mult * np.fft.rfft(v ** (p + 1))

    times, dists = [], []
    conserved = {name: [] for name in pair}

    def record(t, u_field):
        times.append(t)
        for name, functional in pair.items():
            conserved[name].append(functional(u_field))
        if track_orbit is not None:
            dists.append(orbital_distance(u_field, track_orbit)[0])

    uhat = np.fft.rfft(u0.values)
    # the samples of uhat; each step's blow-up check refreshes them for the next
    u_vals = np.fft.irfft(uhat, n=grid.n)
    record(0.0, u0)
    flag = None
    u_field = u0
    for step in range(1, n_steps + 1):
        n0 = nonlinear(uhat, u_vals)
        e2u = E2 * uhat
        a = e2u + Q * n0
        na = nonlinear(a)
        b = e2u + Q * na
        nb = nonlinear(b)
        c = E2 * a + Q * (2.0 * nb - n0)
        nc = nonlinear(c)
        uhat = E * uhat + f1 * n0 + f2x2 * (na + nb) + f3 * nc

        u_vals = np.fft.irfft(uhat, n=grid.n)
        if not np.all(np.isfinite(u_vals)):
            flag = "nan"
            break
        if np.max(np.abs(u_vals)) > BLOWUP_FACTOR * max(sup0, 1e-300):
            flag = "blowup"
        if flag is not None or step % record_every == 0 or step == n_steps:
            u_field = field_from_values(grid, u_vals)
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
    uhat = np.fft.rfft(u.values)
    qhat = np.fft.rfft(Q.profile.values)
    weight = 1.0 + Q.model.symbol(grid.xi_r)
    cross = weight * uhat * np.conj(qhat)
    z0 = int(np.argmax(np.fft.irfft(cross, n=grid.n))) * grid.dx
    cross[1:-1] *= 2.0  # now C(y) = Re sum_k cross_k e^{i xi_k y}
    xi = grid.xi_r
    z = z0
    for _ in range(NEWTON_CAP):
        terms = cross * np.exp(1j * xi * z)
        d1 = -float(np.sum(xi * terms.imag))
        d2 = -float(np.sum(xi**2 * terms.real))
        if d2 >= 0.0:
            break
        step = min(max(z - d1 / d2, z0 - grid.dx), z0 + grid.dx) - z
        z += step
        if abs(step) < 1e-13 * max(1.0, abs(z)):
            break
    dist = np.sqrt(quad_form(_shift_phase(grid, z) * uhat - qhat, grid, weight))
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
    K: float = 5.0,
    gate_tolerance: float = 1e-3,
) -> tuple[StabilityReport, EvolutionTrace]:
    """Perturb a verified solitary wave and measure the orbital distance along
    the flow.  The wave is the one source of the model that is evolved, the
    grid it runs on, and the velocity and alpha that are reported.

    The bounded verdict requires the running sup of the orbital distance to
    stay below K * delta * ||Q|| (with a small floor for delta = 0) and the
    conserved pair to drift by less than 1e-6; blow-up or sustained growth
    past the threshold is reported as growing, anything else as inconclusive.
    K is an experiment parameter: the stability theory guarantees smallness
    without a rate.  The orbital distance is recorded every 0.25 time units
    (every step when dt is longer).  The identity gate runs at gate_tolerance,
    loose enough for the periodization level of desk-scale boxes while still
    rejecting unconverged or perturbed profiles.
    """
    gate = identity_suite(Q, tolerance=gate_tolerance)
    bad = [r.name for r in gate if not r.passed]
    if bad:
        raise NumericalError(f"profile failed the identity gate: {', '.join(bad)}")

    pert = make_perturbation(Q, perturbation_kind, delta, seed=seed)
    u0 = Q.profile + pert
    trace = evolve(Q.model, u0, horizon, dt, record_every=max(1, int(round(0.25 / dt))),
                   track_orbit=Q)

    dists = trace.orbital_distance_series
    sup_d = float(np.max(dists))
    end_d = float(dists[-1])
    drift = trace.conserved_drift()
    threshold = K * max(delta, DELTA_FLOOR) * energy_norm(Q.profile, Q.model.symbol)

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
