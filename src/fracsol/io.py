"""Persistence: profile CSV files with JSON sidecars, evolution trace CSVs,
2D field CSVs, and report JSON.

One CSV writer (17 significant digits: save -> load is bit for bit), one
CSV reader and one sidecar reader serve every artifact; the loaders check the
CSV's coordinates against the sidecar's grid and raise ValueError naming the
file.  Report JSON uses sorted keys and shortest-round-trip floats, so the
same inputs give byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from typing import Optional

import numpy as np

from .evolution import EvolutionTrace
from .ground_state import FBBM, ModelSpec, SolitaryWave, solitary_from_profile
from .kp import RealField2D, field2d_from_values, make_grid2d
from .spectral import DispersionSymbol, RealField, field_from_values, make_grid

__all__ = [
    "save_profile",
    "load_profile",
    "save_wave",
    "load_wave",
    "save_trace",
    "save_field2d",
    "load_field2d",
    "dump_json",
]

SPACING_RTOL = 1e-9
SIDECAR_NUMBERS = ("n", "L", "c", "alpha", "beta", "p", "iterations", "nx", "ny", "Lx", "Ly")
SIDECAR_COUNTS = ("n", "p", "iterations", "nx", "ny")


def _sidecar_path(path: str) -> str:
    root, _ = os.path.splitext(path)
    return root + ".json"


def dump_json(obj, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, columns: dict) -> None:
    """The column names, then one %.17g row per index up to the shortest column."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(row % fields for fields in zip(*(c.tolist() for c in columns.values())))


def _read_csv(path: str, header: str) -> np.ndarray:
    """The rows under the expected header, one column per name; blank lines
    are skipped, a '#' row is non-numeric, NaN and infinity are rejected."""
    with open(path) as fh:
        got = fh.readline().strip()
        if got != header:
            raise ValueError(f"{path}: expected header {header!r}, got {got!r}")
    try:  # given the path, numpy parses in chunks; given a file, line by line
        data = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, skiprows=1)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    width = header.count(",") + 1
    if len(data) and data.shape[1] != width:
        raise ValueError(f"{path}: expected {width} columns, got {data.shape[1]}")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: NaN or infinite entries")
    return data


def _read_sidecar(path: str, required=()) -> dict:
    """The JSON sidecar of the CSV at path ({} when there is none): an object
    with the required keys whose SIDECAR_NUMBERS are finite numbers (not
    bools: JSON gives exact types), whole for SIDECAR_COUNTS."""
    meta: dict = {}
    sidecar = _sidecar_path(path)
    if os.path.exists(sidecar):
        with open(sidecar) as fh:
            meta = json.load(fh)
        if not isinstance(meta, dict):
            raise ValueError(f"{sidecar}: sidecar is not a JSON object")
    bad = [f"{k}={v!r}" for k, v in meta.items() if k in SIDECAR_NUMBERS
           and not (type(v) is int or (type(v) is float and math.isfinite(v)
                                       and (k not in SIDECAR_COUNTS or v.is_integer())))]
    if bad:
        raise ValueError(f"{path}: non-numeric sidecar {', '.join(bad)} (finite numbers "
                         f"expected, whole for {', '.join(SIDECAR_COUNTS)})")
    missing = [k for k in required if k not in meta]
    if missing:
        raise ValueError(f"{path}: sidecar lacks {', '.join(missing)}")
    return meta


def save_profile(field: RealField, path: str, meta: Optional[dict] = None) -> None:
    """Write the x,value CSV; optionally a JSON sidecar (with the grid) next to it."""
    _write_csv(path, {"x": field.grid.x, "value": field.values})
    if meta is not None:
        dump_json({"n": field.grid.n, "L": field.grid.L, **meta}, _sidecar_path(path))


def load_profile(path: str, required=()) -> tuple[RealField, dict]:
    """Read an x,value CSV and its sidecar (with the required keys) into a
    field and a dict on one uniform grid; a missing row is a spacing error at
    its line."""
    data = _read_csv(path, "x,value")
    if len(data) < 8:
        raise ValueError(f"{path}: too few rows ({len(data)})")
    x, v = data.T
    dx = x[1] - x[0]
    bad = np.abs(np.diff(x) - dx) > SPACING_RTOL * abs(dx)
    if np.any(bad):
        lineno = int(np.argmax(bad)) + 3  # header + 1-based + gap offset
        raise ValueError(f"{path}:{lineno}: non-uniform spacing (missing row?)")
    n = x.size
    L = -x[0]
    if abs(n * dx - 2.0 * L) > SPACING_RTOL * 2.0 * L:
        raise ValueError(f"{path}: x range is not the periodic box [-L, L)")
    meta = _read_sidecar(path, required)
    if meta.get("n", n) != n or abs(meta.get("L", L) - L) > SPACING_RTOL * max(L, 1.0):
        raise ValueError(f"{path}: grid mismatch: sidecar n={meta.get('n')}, "
                         f"L={meta.get('L')}; CSV rows={n}, L={L}")
    return field_from_values(make_grid(n, L), v), meta


def save_wave(wave: SolitaryWave, path: str) -> None:
    """Profile CSV plus the JSON sidecar with velocity, model, and residuals."""
    sym = wave.model.symbol
    meta = {
        "c": wave.c,
        "alpha": sym.alpha,
        "family": wave.model.family,
        "symbol": sym.kind,
        "beta": sym.beta,
        "p": wave.model.p,
        "residual_sup": wave.residual_sup,
        "residual_l2": wave.residual_l2,
        "iterations": wave.iterations,
    }
    if wave.model.family == FBBM:
        meta["bbm_form"] = wave.model.bbm_form
    save_profile(wave.profile, path, meta)


def load_wave(path: str) -> SolitaryWave:
    """Rebuild a SolitaryWave from a profile CSV + sidecar, recomputing the
    residual diagnostics from the loaded samples."""
    field, meta = load_profile(path, required=("c", "alpha", "family"))
    symbol = DispersionSymbol(kind=meta.get("symbol", "power"), alpha=float(meta["alpha"]),
                              beta=float(meta.get("beta", 0.0)))
    model = ModelSpec(
        family=meta["family"],
        symbol=symbol,
        p=int(meta.get("p", 1)),
        bbm_form=meta.get("bbm_form", "paper"),
    )
    return solitary_from_profile(field, float(meta["c"]), model,
                                 iterations=int(meta.get("iterations", 0)))


def save_trace(trace: EvolutionTrace, path: str) -> None:
    """Plot-ready CSV: t, the conserved pair (mass,energy for the fKdV family,
    quadratic,hamiltonian for fBBM)[, orbital_distance]."""
    columns = {"t": trace.times, **trace.conserved}
    if trace.orbital_distance_series is not None:
        columns["orbital_distance"] = trace.orbital_distance_series
    _write_csv(path, columns)


def save_field2d(field: RealField2D, path: str) -> None:
    """Row-major x,y,value CSV plus a JSON grid sidecar."""
    g = field.grid
    _write_csv(path, {"x": np.repeat(g.x, g.ny), "y": np.tile(g.y, g.nx),
                      "value": field.values.ravel()})
    dump_json({"nx": g.nx, "ny": g.ny, "Lx": g.Lx, "Ly": g.Ly}, _sidecar_path(path))


def load_field2d(path: str) -> RealField2D:
    """Read a row-major x,y,value CSV on the grid its sidecar declares."""
    meta = _read_sidecar(path, required=("nx", "ny", "Lx", "Ly"))
    g = make_grid2d(int(meta["nx"]), int(meta["ny"]), meta["Lx"], meta["Ly"])
    data = _read_csv(path, "x,y,value")
    if len(data) != g.nx * g.ny:
        raise ValueError(f"{path}: expected {g.nx * g.ny} rows, got {len(data)}")
    x, y, v = np.moveaxis(data.reshape(g.nx, g.ny, 3), 2, 0)
    if (np.any(np.abs(x - g.x[:, None]) > SPACING_RTOL * g.dx)
            or np.any(np.abs(y - g.y) > SPACING_RTOL * g.dy)):
        raise ValueError(f"{path}: grid mismatch: x,y columns off the sidecar's grid")
    return field2d_from_values(g, v)
