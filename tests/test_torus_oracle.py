"""The alpha = 1 torus oracle.  On the box [-L, L) the Benjamin-Ono ground
state has the closed form Q_L of helpers.benjamin_ono_periodic, so the
solver, the identity rows and the evolution are checked against known
truth rather than against another copy of the code: the solver error and
the periodization are measured apart."""

import numpy as np
import pytest

from helpers import benjamin_ono_periodic, benjamin_ono_periodic_integrals

from fracsol import (
    DispersionSymbol,
    ModelSpec,
    energy_norm,
    field_from_values,
    make_grid,
    mass,
    petviashvili,
    spectral_tail,
)
from fracsol.evolution import evolve, orbital_distance
from fracsol.ground_state import FKDV, solitary_from_profile
from fracsol.spectral import _field_form, _xi_power
from fracsol.verification import identity_suite

BO = ModelSpec(family=FKDV, symbol=DispersionSymbol.power(1.0))
# (c, n, L); measured sup errors of the solve 3.3e-11, 1.1e-11, 5.3e-12, 2.2e-11
BOXES = [(1.0, 1024, 25.0), (1.0, 4096, 200.0), (1.0, 8192, 400.0), (2.0, 2048, 50.0)]


# the integrals' boxes add c 2 on 4096/200, the one whose solve is
# resolution-limited; its kinetic form is the worst, 1.1e-10 relative
INTEGRAL_BOXES = BOXES + [(2.0, 4096, 200.0)]


@pytest.fixture(scope="module", params=BOXES, ids=lambda box: "c{:g}-{}-{:g}".format(*box))
def torus_wave(request):
    c, n, L = request.param
    return petviashvili(BO, c, make_grid(n, L))


def test_solver_matches_the_closed_form(torus_wave):
    grid = torus_wave.profile.grid
    exact = benjamin_ono_periodic(grid.x, torus_wave.c, grid.L)
    assert np.max(np.abs(torus_wave.profile.values - exact)) < 1e-10


def test_identity_rows_are_the_closed_form_periodization(torus_wave):
    # with k = pi/L, int Q_L^2 = 8 pi c, int |D^{1/2} Q_L|^2 = 4 pi (c^2 - k^2)
    # and int Q_L^3 = 24 pi c^2 - 8 pi k^2: the energy row holds exactly, the
    # kinetic rows miss by (k/c)^2 and the pohozaev and cubic rows by a third
    # of that.  The worst measured distance from these is 1.9e-8 relative (4096/200)
    rows = {r.name: r.relative_residual for r in identity_suite(torus_wave)}
    e = (np.pi / (torus_wave.c * torus_wave.profile.grid.L)) ** 2
    periodization = {"kinetic_mass": e, "kinetic_fraction": e,
                     "pohozaev": e / 3, "cubic_fraction": e / 3}
    for name, value in periodization.items():
        assert abs(rows[name] - value) <= 5e-8 * value, (name, rows[name], value)
    assert rows["energy"] < 1e-14


@pytest.mark.parametrize("c, n, L", INTEGRAL_BOXES)
def test_integrals_match_the_closed_form(c, n, L):
    grid = make_grid(n, L)
    u = petviashvili(BO, c, grid).profile
    measured = {"square": 2.0 * mass(u), "kinetic": _field_form(u, _xi_power(grid, 1.0)),
                "cube": grid.dx * float(np.sum(u.values**3))}
    for name, exact in benjamin_ono_periodic_integrals(c, L).items():
        assert abs(measured[name] - exact) <= 5e-10 * exact, (name, measured[name], exact)


@pytest.mark.parametrize("c", [2.0, 3.0])
def test_spectral_tail_bounds_the_solver_error(c):
    # at fixed L, the sup error and the tail fall together as dx halves:
    # where resolution limits the solve the error was 0.7-5.6 times the
    # tail, and below a tail of 1e-11 it sits at the solver's 1e-11; the
    # worst row (c 3, n 2048) uses 0.56 of the bound
    L = 200.0
    for n in (1024, 2048, 4096, 8192):
        grid = make_grid(n, L)
        u = petviashvili(BO, c, grid).profile
        error = np.max(np.abs(u.values - benjamin_ono_periodic(grid.x, c, L)))
        assert error <= 10.0 * spectral_tail(u) + 1e-10, (n, error, spectral_tail(u))


def test_evolution_travels_at_speed_c_to_fourth_order():
    # Q_L travels at speed c exactly, so the error of evolve is ETDRK4's
    # alone: measured sup errors 8.1e-5 at dt 2^-6 and 3.7e-6 at dt 2^-7, a
    # ratio of 22, and shift errors of the orbital distance 3.1e-5 and 1.4e-6
    c, T, grid = 1.0, 20.0, make_grid(1024, 25.0)
    u0 = field_from_values(grid, benjamin_ono_periodic(grid.x, c, grid.L))
    exact = benjamin_ono_periodic(grid.x - c * T, c, grid.L)
    wave = solitary_from_profile(u0, c, BO)
    errors, shift_errors = [], []
    for dt in (2.0**-6, 2.0**-7):
        trace = evolve(BO, u0, T, dt, record_every=int(round(T / dt)), track_orbit=wave)
        final = trace.final_state.values
        errors.append(np.max(np.abs(final - exact)))
        dist, shift = orbital_distance(trace.final_state, wave)
        assert trace.orbital_distance_series[-1] == dist
        # the orbit member at the exact shift c T bounds the distance
        assert dist <= energy_norm(field_from_values(grid, final - exact), BO.symbol)
        shift_errors.append(abs(shift - c * T))
    assert 12.0 <= errors[0] / errors[1] <= 32.0
    assert 12.0 <= shift_errors[0] / shift_errors[1] <= 32.0
    assert errors[1] < 1e-5
