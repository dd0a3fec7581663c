import json
import os

import numpy as np
import pytest

from fracsol import DispersionSymbol, ModelSpec, field_from_values, make_grid
from fracsol.evolution import evolve
from fracsol.ground_state import FKDV
from fracsol.io import (
    load_field2d,
    load_profile,
    load_wave,
    save_field2d,
    save_profile,
    save_trace,
    save_wave,
)
from fracsol.kp import field2d_from_function, make_grid2d


@pytest.fixture()
def field(rng):
    g = make_grid(64, 20.0)
    return field_from_values(g, rng.standard_normal(g.n))


class TestProfileRoundTrip:
    def test_bit_exact(self, tmp_path, field):
        path = str(tmp_path / "p.csv")
        save_profile(field, path)
        loaded, meta = load_profile(path)
        np.testing.assert_array_equal(loaded.values, field.values)
        assert loaded.grid.n == field.grid.n
        assert loaded.grid.L == field.grid.L
        assert meta == {}

    def test_sidecar_round_trip(self, tmp_path, field):
        path = str(tmp_path / "p.csv")
        save_profile(field, path, {"c": 1.5, "alpha": 0.75})
        _, meta = load_profile(path)
        assert meta["c"] == 1.5
        assert meta["n"] == 64

    def test_missing_row_names_line(self, tmp_path, field):
        path = str(tmp_path / "p.csv")
        save_profile(field, path)
        lines = open(path).read().splitlines()
        del lines[10]  # drop a data row
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"p\.csv:1[01]"):
            load_profile(path)

    def test_rejects_nan(self, tmp_path, field):
        path = str(tmp_path / "p.csv")
        save_profile(field, path)
        text = open(path).read().replace(f"{field.values[5]:.17g}", "nan", 1)
        open(path, "w").write(text)
        with pytest.raises(ValueError):
            load_profile(path)

    def test_rejects_bad_header(self, tmp_path):
        path = str(tmp_path / "p.csv")
        open(path, "w").write("a,b\n0,0\n")
        with pytest.raises(ValueError, match="header"):
            load_profile(path)

    @pytest.mark.parametrize("row", ["{x},{v},0", "{x},abc", "# {x},{v}"],
                             ids=["three_columns", "non_numeric", "comment"])
    def test_rejects_malformed_row(self, tmp_path, field, row):
        path = str(tmp_path / "p.csv")
        save_profile(field, path)
        lines = open(path).read().splitlines()
        lines[5] = row.format(x=field.grid.x[4], v=field.values[4])
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"p\.csv: "):
            load_profile(path)

    def test_grid_mismatch(self, tmp_path, field):
        path = str(tmp_path / "p.csv")
        save_profile(field, path, {"c": 1.0})
        sidecar = json.load(open(str(tmp_path / "p.json")))
        sidecar["n"] = 128
        json.dump(sidecar, open(str(tmp_path / "p.json"), "w"))
        with pytest.raises(ValueError, match="grid mismatch"):
            load_profile(path)


class TestWaveRoundTrip:
    def test_wave_round_trip(self, tmp_path, q075_wave):
        path = str(tmp_path / "q.csv")
        save_wave(q075_wave, path)
        loaded = load_wave(path)
        np.testing.assert_array_equal(loaded.profile.values, q075_wave.profile.values)
        assert loaded.c == q075_wave.c
        assert loaded.model.family == FKDV
        assert loaded.model.symbol.alpha == 0.75
        # residuals recomputed from the loaded samples agree
        assert abs(loaded.residual_sup - q075_wave.residual_sup) < 1e-12

    def test_wave_requires_sidecar_fields(self, tmp_path, field):
        path = str(tmp_path / "p.csv")
        save_profile(field, path, {"c": 1.0})  # alpha and family missing
        with pytest.raises(ValueError, match="lacks"):
            load_wave(path)

    def test_wave_rejects_unknown_symbol_kind(self, tmp_path, field):
        path = str(tmp_path / "p.csv")
        save_profile(field, path, {"c": 1.0, "alpha": 0.75, "family": "fkdv",
                                   "symbol": "bogus"})
        with pytest.raises(ValueError, match="bogus"):
            load_wave(path)

    @pytest.mark.parametrize("key, value", [
        *[pytest.param(key, value, id=f"{vid}-{key}")
          for vid, value in (("None", None), ("value1", [1.0]), ("fast", "fast"), ("True", True))
          for key in ("c", "alpha", "beta", "p", "iterations")],
        # counts are whole and numbers finite: int() would read p = 1.7 as 1
        pytest.param("p", 1.7, id="fraction-p"),
        pytest.param("n", 4096.5, id="fraction-n"),
        pytest.param("c", float("nan"), id="nan-c"),
    ])
    def test_wave_rejects_malformed_numbers(self, tmp_path, field, key, value):
        meta = {"c": 1.0, "alpha": 0.75, "family": "fkdv", key: value}
        path = str(tmp_path / "p.csv")
        save_profile(field, path, meta)
        with pytest.raises(ValueError, match=f"sidecar {key}="):
            load_wave(path)


class TestTraceCSV:
    def test_fkdv_trace_columns(self, tmp_path, q075_wave):
        trace = evolve(q075_wave.model, q075_wave.profile, 0.5, 2.0**-7,
                       record_every=16, track_orbit=q075_wave)
        path = str(tmp_path / "trace.csv")
        save_trace(trace, path)
        lines = open(path).read().splitlines()
        assert lines[0] == "t,mass,energy,orbital_distance"
        assert len(lines) == 1 + len(trace.times)

    def test_fbbm_trace_columns(self, tmp_path, grid_desk):
        from fracsol import petviashvili
        from fracsol.ground_state import FBBM

        model = ModelSpec(family=FBBM, symbol=DispersionSymbol.power(0.75),
                          bbm_form="derived")
        wave = petviashvili(model, 2.0, grid_desk)
        trace = evolve(model, wave.profile, 0.5, 2.0**-7, record_every=16)
        path = str(tmp_path / "trace.csv")
        save_trace(trace, path)
        assert open(path).read().splitlines()[0] == "t,quadratic,hamiltonian"


class TestField2D:
    def test_round_trip(self, tmp_path):
        g = make_grid2d(16, 32, 4.0, 8.0)
        f = field2d_from_function(g, lambda x, y: np.sin(np.pi * x / 4.0) * np.cos(np.pi * y / 8.0))
        path = str(tmp_path / "f.csv")
        save_field2d(f, path)
        loaded = load_field2d(path)
        np.testing.assert_array_equal(loaded.values, f.values)
        assert loaded.grid.nx == 16 and loaded.grid.ny == 32

    def test_missing_sidecar(self, tmp_path):
        path = str(tmp_path / "f.csv")
        open(path, "w").write("x,y,value\n")
        with pytest.raises(ValueError, match="sidecar"):
            load_field2d(path)

    @pytest.mark.parametrize("sidecar, match", [
        ("[16, 32, 4.0, 8.0]", "not a JSON object"),
        ('{"nx": 16, "ny": 32, "Lx": 4.0}', "lacks Ly"),
        ('{"nx": 16, "ny": 32, "Lx": 4.0, "Ly": "8"}', "sidecar Ly="),
        ('{"nx": 16.5, "ny": 32, "Lx": 4.0, "Ly": 8.0}', "sidecar nx="),
        ('{"nx": 16, "ny": 32, "Lx": 5.0, "Ly": 8.0}', "grid mismatch"),
        ('{"nx": 16, "ny": 32, "Lx": 4.0, "Ly": 9.0}', "grid mismatch"),
    ], ids=["not_object", "missing_key", "string_number", "fraction_count", "x_off_grid",
            "y_off_grid"])
    def test_rejects_malformed_sidecar(self, tmp_path, sidecar, match):
        # the sidecar follows the profile sidecar's rules, and the CSV's x,y
        # columns must lie on the grid it declares
        g = make_grid2d(16, 32, 4.0, 8.0)
        path = str(tmp_path / "f.csv")
        save_field2d(field2d_from_function(g, lambda x, y: x * y), path)
        (tmp_path / "f.json").write_text(sidecar + "\n")
        with pytest.raises(ValueError, match=match):
            load_field2d(path)


def test_save_load_save_is_byte_identical(tmp_path, q075_wave):
    """Loading an artifact and saving it again rewrites the same bytes: a
    profile with its wave sidecar, and a 2D field with its grid sidecar."""
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    save_wave(q075_wave, str(first / "q.csv"))
    field, meta = load_profile(str(first / "q.csv"))
    save_profile(field, str(second / "q.csv"), meta)
    g = make_grid2d(16, 32, 4.0, 8.0)
    save_field2d(field2d_from_function(g, lambda x, y: np.exp(-x**2 - y**2)), str(first / "f.csv"))
    save_field2d(load_field2d(str(first / "f.csv")), str(second / "f.csv"))
    for name in ("q.csv", "q.json", "f.csv", "f.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
