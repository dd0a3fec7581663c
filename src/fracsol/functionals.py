"""Conserved quantities and variational functionals evaluated on fields.

Sign conventions: the cubic integral enters the energy with the signed
``u**3`` while the Weinstein ratio uses ``|u|**(p+2)`` at power p; the two
differ for sign-changing fields.  The BBM pair keeps
the factor 1/2 on the quadratic form, i.e. ``bbm_quadratic`` is half of
int ((1 + p(D)) u) u and ``bbm_hamiltonian`` is the integral of
``u^2/2 + u^3/6``.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from .spectral import DispersionSymbol, RealField, _field_form, _xi_power

__all__ = [
    "mass",
    "energy_fkdv",
    "bbm_quadratic",
    "energy_norm",
    "bbm_hamiltonian",
    "weinstein",
]

POWER_FLOOR = 1e-14


class Report:
    """Base of the report dataclasses: ``to_dict`` is the JSON form, every
    field under its own name except ``passed``, which is written as ``pass``."""

    def to_dict(self) -> dict:
        d = asdict(self)
        if "passed" in d:
            d["pass"] = d.pop("passed")
        return d


def mass(u: RealField) -> float:
    """M(u) = (1/2) integral of u^2."""
    return float(0.5 * u.grid.dx * np.sum(u.values**2))


def energy_fkdv(u: RealField, p_symbol: DispersionSymbol, p: int = 1) -> float:
    """E(u) = (1/2) int |p(D)^{1/2} u|^2 - int u^{p+2} / ((p+1)(p+2)).

    The Hamiltonian of the fKdV flow with nonlinearity u^p u_x; for the
    quadratic case p = 1 the potential term is (1/6) int u^3.
    """
    kinetic = 0.5 * _field_form(u, p_symbol(u.grid.xi_r))
    cubic = u.grid.dx * np.sum(u.values ** (p + 2)) / ((p + 1) * (p + 2))
    return float(kinetic - cubic)


def bbm_quadratic(u: RealField, p_symbol: DispersionSymbol) -> float:
    """P(u) = (1/2) int (u^2 + |p(D)^{1/2} u|^2), half the squared energy norm."""
    return 0.5 * _field_form(u, 1.0 + p_symbol(u.grid.xi_r))


def energy_norm(u: RealField, p_symbol: DispersionSymbol) -> float:
    """(int u^2 + |p(D)^{1/2} u|^2)^{1/2}, the energy-space norm of symbol p."""
    return float(np.sqrt(2.0 * bbm_quadratic(u, p_symbol)))


def bbm_hamiltonian(u: RealField) -> float:
    """H_B(u) = int (u^2/2 + u^3/6)."""
    v = u.values
    return float(u.grid.dx * np.sum(v**2 / 2.0 + v**3 / 6.0))


def weinstein(u: RealField, alpha: float, p: int = 1) -> float:
    """Scale-invariant ratio
    (int |u|^{p+2})^-1 (int |D^{a/2}u|^2)^{p/(2a)} (int u^2)^{((p+2)a-p)/(2a)}.

    Its infimum over nonzero fields is attained by the ground state of the
    power-p nonlinearity and gives the sharp Gagliardo-Nirenberg constant.
    """
    if not (p / (p + 2) < alpha <= 2.0):
        raise ValueError(f"weinstein needs alpha in ({p}/{p + 2}, 2], got {alpha}")
    grad_sq = _field_form(u, _xi_power(u.grid, alpha))
    l2_sq = 2.0 * mass(u)
    a = np.abs(u.values)
    a **= p + 2  # in place, after the forms' temporaries: one array of n values
    power = float(u.grid.dx * np.sum(a))
    if power <= POWER_FLOOR:
        raise ValueError(f"weinstein is undefined: integral of |u|^{p + 2} vanishes")
    return (grad_sq ** (0.5 * p / alpha)
            * l2_sq ** (((p + 2) * alpha - p) / (2.0 * alpha)) / power)
