import json
import warnings

import numpy as np
import pytest

from fracsol import DispersionSymbol, ModelSpec, field_from_values, make_grid
from fracsol.evolution import evolve
from fracsol.ground_state import FKDV
from fracsol.io import load_profile, load_wave, save_profile, save_trace, save_wave


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
        with pytest.raises(ValueError, match=r"p\.csv:6: "):
            load_profile(path)

    @pytest.mark.parametrize("row, match", [
        ("abc,0", "expected 2 finite numbers, got 'abc,0'"),
        ("nan,0", "expected 2 finite numbers, got 'nan,0'"),
        (None, "non-uniform spacing"),
    ], ids=["non_numeric", "nan", "missing_row"])
    def test_line_numbers_count_blank_lines(self, tmp_path, field, row, match):
        # the header is line 1 and a blank line counts, as an editor shows them:
        # after a blank line 3, the third data row (or the fourth, when the
        # third is dropped) is line 5
        path = str(tmp_path / "p.csv")
        save_profile(field, path)
        lines = open(path).read().splitlines()
        lines[3:4] = [] if row is None else [row]
        open(path, "w").write("\n".join(lines[:2] + [""] + lines[2:]) + "\n")
        with pytest.raises(ValueError, match=rf"p\.csv:5: {match}"):
            load_profile(path)

    @pytest.mark.parametrize("body", ["", "\n \n"], ids=["no_rows", "blank_rows"])
    def test_header_only_is_too_few_rows_without_warning(self, tmp_path, body):
        path = str(tmp_path / "e.csv")
        open(path, "w").write("x,value\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"e\.csv: too few rows \(0\)"):
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

    @pytest.mark.parametrize("meta, rows, culprit, message", [
        ({}, 100, "csv", "n must be a power of two with n >= 8, got 100"),
        ({"family": "xyz"}, 64, "json", "unknown family 'xyz'"),
        ({"symbol": "nope"}, 64, "json", "unknown symbol kind 'nope'"),
        ({"alpha": 3.0}, 64, "json", "power symbol needs alpha in (0, 2], got 3.0"),
        ({"family": "fbbm", "bbm_form": "odd"}, 64, "json",
         "bbm_form must be 'paper' or 'derived', got 'odd'"),
        ({"p": 0}, 64, "json", "nonlinearity power must be >= 1, got 0"),
        ({"c": -1.0}, 64, "json", "velocity must be positive, got -1.0"),
    ], ids=["rows", "family", "symbol", "alpha", "bbm_form", "p", "c"])
    def test_rejected_values_name_their_file(self, tmp_path, meta, rows, culprit, message):
        # the CSV for its row count, the sidecar for a value the model rejects
        dx = 20.0 / 64
        with open(tmp_path / "p.csv", "w") as fh:
            fh.write("x,value\n")
            fh.writelines(f"{(i - rows / 2) * dx!r},0.0\n" for i in range(rows))
        sidecar = {"n": rows, "L": rows * dx / 2, "c": 1.0, "alpha": 0.75, "family": "fkdv"}
        json.dump({**sidecar, **meta}, open(tmp_path / "p.json", "w"))
        path = str(tmp_path / "p.csv")
        with pytest.raises(ValueError) as err:
            load_wave(path)
        assert str(err.value) == f"{path[:-3]}{culprit}: {message}"


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


def test_save_load_save_is_byte_identical(tmp_path, q075_wave):
    """Loading a profile with its wave sidecar and saving it again rewrites
    the same bytes."""
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    save_wave(q075_wave, str(first / "q.csv"))
    field, meta = load_profile(str(first / "q.csv"))
    save_profile(field, str(second / "q.csv"), meta)
    for name in ("q.csv", "q.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
