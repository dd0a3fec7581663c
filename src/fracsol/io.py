"""Persistence: profile CSV files with JSON sidecars, evolution trace CSVs,
and report JSON.

One CSV writer (17 significant digits: save -> load is bit for bit), one
CSV reader and one sidecar reader serve every artifact; the profile loader
checks the CSV's coordinates against the sidecar's grid.  Every loading
error is a ValueError that names the file and, where a row is at fault, its
file line (the header is line 1, blank lines count).  Report JSON uses
sorted keys and shortest-round-trip floats, so the same inputs give
byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from typing import Optional

import numpy as np

from .evolution import EvolutionTrace
from .ground_state import FBBM, ModelSpec, SolitaryWave, solitary_from_profile
from .spectral import DispersionSymbol, RealField, field_from_values, make_grid

__all__ = [
    "save_profile",
    "load_profile",
    "save_wave",
    "load_wave",
    "save_trace",
    "dump_json",
]

SPACING_RTOL = 1e-9
SIDECAR_NUMBERS = ("n", "L", "c", "alpha", "beta", "p", "iterations")
SIDECAR_COUNTS = ("n", "p", "iterations")


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


def _data_lines(path: str):
    """(file line, text) of each non-blank line under the header: the rows."""
    with open(path) as fh:
        yield from ((n, line) for n, line in enumerate(fh, 1) if n > 1 and line.strip())


def _is_row(line: str, width: int) -> bool:
    """Whether a line is width finite numbers as numpy reads them (no '_' in them)."""
    try:
        values = [float(f) for f in line.split(",")]
    except ValueError:
        return False
    return len(values) == width and "_" not in line and all(map(math.isfinite, values))


def _read_csv(path: str, header: str) -> np.ndarray:
    """The rows under the expected header, one column per name; blank lines
    are skipped, a '#' row is non-numeric, NaN and infinity are rejected."""
    width = header.count(",") + 1
    with open(path) as fh:
        got = fh.readline().strip()
        if got != header:
            raise ValueError(f"{path}: expected header {header!r}, got {got!r}")
        if not any(line.strip() for line in fh):  # loadtxt would warn of no data
            return np.empty((0, width))
    error = None
    try:  # given the path, numpy parses in chunks; given a file, line by line
        data = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, skiprows=1)
        if data.shape[1] == width and np.isfinite(data).all():
            return data
    except ValueError as exc:
        error = exc
    for n, line in _data_lines(path):  # numpy's row numbers skip the header and blanks
        if not _is_row(line, width):
            raise ValueError(f"{path}:{n}: expected {width} finite numbers, got {line.strip()!r}")
    raise ValueError(f"{path}: {error}")


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
        row = int(np.argmax(bad)) + 1  # the row after the gap
        lineno = next(itertools.islice(_data_lines(path), row, None))[0]
        raise ValueError(f"{path}:{lineno}: non-uniform spacing (missing row?)")
    n = x.size
    L = -x[0]
    if abs(n * dx - 2.0 * L) > SPACING_RTOL * 2.0 * L:
        raise ValueError(f"{path}: x range is not the periodic box [-L, L)")
    meta = _read_sidecar(path, required)
    if meta.get("n", n) != n or abs(meta.get("L", L) - L) > SPACING_RTOL * max(L, 1.0):
        raise ValueError(f"{path}: grid mismatch: sidecar n={meta.get('n')}, "
                         f"L={meta.get('L')}; CSV rows={n}, L={L}")
    try:
        grid = make_grid(n, L)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return field_from_values(grid, v), meta


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
    try:  # every value below comes from the sidecar
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
    except ValueError as exc:
        raise ValueError(f"{_sidecar_path(path)}: {exc}") from exc


def save_trace(trace: EvolutionTrace, path: str) -> None:
    """Plot-ready CSV: t, the conserved pair (mass,energy for the fKdV family,
    quadratic,hamiltonian for fBBM)[, orbital_distance]."""
    columns = {"t": trace.times, **trace.conserved}
    if trace.orbital_distance_series is not None:
        columns["orbital_distance"] = trace.orbital_distance_series
    _write_csv(path, columns)
