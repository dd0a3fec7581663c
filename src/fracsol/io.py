"""Persistence: profile CSV files with JSON sidecars, evolution trace CSVs,
2D field CSVs, and report JSON.

Floats are written with 17 significant digits, which round-trips float64
exactly, so save -> load reproduces values bit for bit.  Report JSON uses
sorted keys and Python's shortest-round-trip float repr, making repeated
runs with the same inputs byte-identical.
"""

from __future__ import annotations

import json
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
SIDECAR_NUMBERS = ("n", "L", "c", "alpha", "beta", "p", "iterations")


def _sidecar_path(path: str) -> str:
    root, _ = os.path.splitext(path)
    return root + ".json"


def dump_json(obj, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_profile(field: RealField, path: str, meta: Optional[dict] = None) -> None:
    """Write the x,value CSV; optionally a JSON sidecar next to it."""
    with open(path, "w") as fh:
        fh.write("x,value\n")
        for x, v in zip(field.grid.x, field.values):
            fh.write(f"{x:.17g},{v:.17g}\n")
    if meta is not None:
        meta = dict(meta)
        meta.setdefault("n", field.grid.n)
        meta.setdefault("L", field.grid.L)
        dump_json(meta, _sidecar_path(path))


def load_profile(path: str) -> tuple[RealField, dict]:
    """Read an x,value CSV back into a field, verifying the format.

    Raises on a malformed header, non-numeric or NaN entries, and non-uniform
    spacing (a missing row shows up as a spacing violation at its line).
    """
    xs, vs = [], []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "x,value":
            raise ValueError(f"{path}: expected header 'x,value', got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'x,value', got {line!r}")
            try:
                x, v = float(parts[0]), float(parts[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric entry {line!r}") from None
            xs.append(x)
            vs.append(v)
    x = np.asarray(xs)
    v = np.asarray(vs)
    if x.size < 8:
        raise ValueError(f"{path}: too few rows ({x.size})")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
        raise ValueError(f"{path}: NaN or infinite entries")
    dx = x[1] - x[0]
    gaps = np.diff(x)
    bad = np.abs(gaps - dx) > SPACING_RTOL * abs(dx)
    if np.any(bad):
        lineno = int(np.argmax(bad)) + 3  # header + 1-based + gap offset
        raise ValueError(f"{path}:{lineno}: non-uniform spacing (missing row?)")
    n = x.size
    L = -x[0]
    if abs(n * dx - 2.0 * L) > SPACING_RTOL * 2.0 * L:
        raise ValueError(f"{path}: x range is not the periodic box [-L, L)")
    grid = make_grid(n, L)
    field = field_from_values(grid, v)

    meta: dict = {}
    sidecar = _sidecar_path(path)
    if os.path.exists(sidecar):
        with open(sidecar) as fh:
            meta = json.load(fh)
        bad = [f"{k}={meta[k]!r}" for k in SIDECAR_NUMBERS
               if k in meta and not isinstance(meta[k], (int, float))]
        if bad:
            raise ValueError(f"{path}: non-numeric sidecar {', '.join(bad)}")
        if "n" in meta and int(meta["n"]) != n:
            raise ValueError(f"{path}: grid mismatch: sidecar n={meta['n']}, CSV rows={n}")
        if "L" in meta and abs(float(meta["L"]) - L) > SPACING_RTOL * max(L, 1.0):
            raise ValueError(f"{path}: grid mismatch: sidecar L={meta['L']}, CSV L={L}")
    return field, meta


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
    field, meta = load_profile(path)
    required = ("c", "alpha", "family")
    missing = [k for k in required if k not in meta]
    if missing:
        raise ValueError(f"{path}: sidecar lacks {', '.join(missing)}")
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
    header = ",".join(["t", *trace.conserved])
    cols = [trace.times, *trace.conserved.values()]
    if trace.orbital_distance_series is not None:
        header += ",orbital_distance"
        cols.append(trace.orbital_distance_series)
    n_rows = min(len(c) for c in cols)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(n_rows):
            fh.write(",".join(f"{c[i]:.17g}" for c in cols) + "\n")


def save_field2d(field: RealField2D, path: str) -> None:
    """Row-major x,y,value CSV plus a JSON grid sidecar."""
    grid = field.grid
    with open(path, "w") as fh:
        fh.write("x,y,value\n")
        for i in range(grid.nx):
            xi = grid.x[i]
            for j in range(grid.ny):
                fh.write(f"{xi:.17g},{grid.y[j]:.17g},{field.values[i, j]:.17g}\n")
    dump_json({"nx": grid.nx, "ny": grid.ny, "Lx": grid.Lx, "Ly": grid.Ly},
              _sidecar_path(path))


def load_field2d(path: str) -> RealField2D:
    sidecar = _sidecar_path(path)
    if not os.path.exists(sidecar):
        raise ValueError(f"{path}: missing grid sidecar {sidecar}")
    with open(sidecar) as fh:
        meta = json.load(fh)
    grid = make_grid2d(int(meta["nx"]), int(meta["ny"]), float(meta["Lx"]), float(meta["Ly"]))
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.shape[0] != grid.nx * grid.ny:
        raise ValueError(f"{path}: expected {grid.nx * grid.ny} rows, got {data.shape[0]}")
    vals = data[:, 2].reshape(grid.nx, grid.ny)
    return field2d_from_values(grid, vals)
