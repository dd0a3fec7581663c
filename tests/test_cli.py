import json
import os
import warnings

import numpy as np
import pytest

from fracsol import cli, field_from_values, make_grid
from fracsol.cli import COMMANDS, TOLERANCES, _resolve, build_parser, main
from fracsol.io import save_profile


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestGroundStateCommand:
    def test_end_to_end(self, tmp_path):
        out = str(tmp_path / "q.csv")
        report = str(tmp_path / "report.json")
        code = main(["ground-state", "--alpha", "0.75", "--c", "1", "--n", "4096",
                     "--L", "200", "--out", out, "--report", report])
        assert code == 0
        assert os.path.exists(out)
        assert os.path.exists(str(tmp_path / "q.json"))
        payload = json.load(open(report))
        assert payload["residual_sup"] < 1e-8
        assert all(row["pass"] for row in payload["identities"])
        assert payload["config"]["alpha"] == 0.75

    def test_verify_round_trip(self, tmp_path):
        out = str(tmp_path / "q.csv")
        assert main(["ground-state", "--alpha", "0.75", "--c", "1", "--n", "4096",
                     "--L", "200", "--out", out]) == 0
        # every profile behind a verdict meets its residual bound: no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--profile", out,
                         "--report", str(tmp_path / "v.json")]) == 0

    def test_determinism(self, tmp_path):
        # identical resolved config (same paths, same seed) twice over
        report = str(tmp_path / "a.json")
        args = ["ground-state", "--alpha", "0.8", "--c", "1.2", "--n", "4096",
                "--L", "200", "--report", report]
        assert main(args) == 0
        first = read(report)
        assert main(args) == 0
        assert read(report) == first

    def test_gfkdv_reports_identities(self, tmp_path):
        report = str(tmp_path / "g.json")
        assert main(["ground-state", "--family", "gfkdv", "--p", "2", "--alpha", "1.5",
                     "--report", report]) == 0
        rows = json.load(open(report))["identities"]
        assert len(rows) == 5
        assert all(row["pass"] for row in rows)

    def test_validation_error_exit_2(self, tmp_path):
        code = main(["ground-state", "--alpha", "3.0", "--n", "4096",
                     "--L", "200"])
        assert code == 2

    def test_zero_max_iter_exit_2(self, tmp_path):
        report = str(tmp_path / "err.json")
        code = main(["ground-state", "--max-iter", "0", "--n", "256", "--L", "20",
                     "--report", report])
        assert code == 2
        payload = json.load(open(report))
        assert payload["error"] == "ValueError"

    def test_numerical_failure_exit_1(self, tmp_path):
        report = str(tmp_path / "err.json")
        code = main(["ground-state", "--alpha", "0.75", "--c", "1", "--n", "4096",
                     "--L", "200", "--max-iter", "2", "--report", report])
        assert code == 1
        payload = json.load(open(report))
        assert payload["error"] == "ConvergenceError"


class TestConfigFile:
    def test_file_provides_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.8\nn = 4096\nL = 200\n# comment\nc = 1.5\n")
        report = str(tmp_path / "r.json")
        assert main(["ground-state", "--config", str(cfg), "--c", "1.0",
                     "--report", report]) == 0
        payload = json.load(open(report))
        assert payload["config"]["alpha"] == 0.8   # from file
        assert payload["config"]["c"] == 1.0       # flag wins
        assert payload["config"]["n"] == 4096

    def test_non_finite_config_value_rejected(self, tmp_path):
        # a float key from the file obeys the flag's rule: finite
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("alpha = nan\nn = 256\nL = 20\n")
        report = str(tmp_path / "err.json")
        assert main(["ground-state", "--config", str(cfg), "--report", report]) == 2
        payload = json.load(open(report))
        assert payload["error"] == "ValueError"
        assert "--alpha must be finite" in payload["message"]

    def test_malformed_config_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha 0.8\n")
        assert main(["ground-state", "--config", str(cfg)]) == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("alpah = 0.9\n")
        report = str(tmp_path / "err.json")
        assert main(["ground-state", "--config", str(cfg), "--n", "256", "--L", "20",
                     "--report", report]) == 2
        payload = json.load(open(report))
        assert payload["error"] == "ValueError"
        assert "alpah" in payload["message"]

    def test_config_report_receives_error(self, tmp_path):
        cfg = tmp_path / "r.cfg"
        report = tmp_path / "err.json"
        cfg.write_text(f"alpha = 3.0\nn = 256\nL = 20\nreport = {report}\n")
        assert main(["ground-state", "--config", str(cfg)]) == 2
        assert json.load(open(report))["error"] == "ValueError"

    def test_directory_as_config_exit_2(self, tmp_path):
        report = str(tmp_path / "err.json")
        assert main(["ground-state", "--config", str(tmp_path), "--report", report]) == 2
        assert json.load(open(report))["error"] == "IsADirectoryError"

    def test_unwritable_report_exit_2(self, tmp_path, capsys):
        report = str(tmp_path / "missing" / "r.json")
        assert main(["ground-state", "--n", "64", "--L", "10", "--report", report]) == 2
        assert not os.path.exists(report)
        assert "cannot write the error report" in capsys.readouterr().err

    def test_other_command_key_allowed(self, tmp_path):
        # one file can serve several commands: evolve's keys pass ground-state
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("alpha = 0.8\nn = 4096\nL = 200\nrecord_every = 0\n")
        report = str(tmp_path / "r.json")
        assert main(["ground-state", "--config", str(cfg), "--report", report]) == 0
        assert "record_every" not in json.load(open(report))["config"]


@pytest.mark.parametrize("argv", [["stability", "--K", "5"], ["evolve", "--no-track"]],
                         ids=["stability_K", "evolve_no_track"])
def test_removed_flags_are_unknown(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["K = 5", "track = no"])
def test_removed_config_keys_are_unknown(line, tmp_path):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(line + "\n")
    report = str(tmp_path / "err.json")
    assert main(["ground-state", "--config", str(cfg), "--report", report]) == 2
    assert "no command accepts config key(s)" in json.load(open(report))["message"]


def _table_keys():
    return [(cmd, key) for cmd, (_, _, defaults) in COMMANDS.items() for key in defaults]


@pytest.mark.parametrize("cmd,key", _table_keys())
def test_flag_and_config_parity(cmd, key, tmp_path):
    """A key's default, given as a flag or as a config entry, resolves to
    itself with its own type."""
    defaults = COMMANDS[cmd][2]
    default = defaults[key]
    flag = f"--{key.replace('_', '-')}"
    if isinstance(default, bool):
        argv = [flag if default else f"--no-{flag[2:]}"]
    else:
        argv = [flag, str(default)]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {default}\n")
    for args in (build_parser().parse_args([cmd] + argv),
                 build_parser().parse_args([cmd, "--config", str(cfg)])):
        value = _resolve(args, defaults)[key]
        assert value == default
        assert type(value) is type(default)


# hand-picked cases, id -> argv; the overflow cases raised OverflowError (exit
# 1, a traceback, no report) at the default step's int(round(T / dt)) and at
# the seed's c^(1/alpha)
_BAD_STEP_FLAGS = {
    "evolve_dt_negative": ["evolve", "--dt", "-1"],
    "evolve_dt_nan": ["evolve", "--dt", "nan"],
    "evolve_record_every_negative": ["evolve", "--record-every", "-1"],
    "stability_dt_negative": ["stability", "--dt", "-1", "--n", "4096", "--L", "200"],
    "ground_state_tol_negative": ["ground-state", "--tol", "-1"],
    "ground_state_tol_nan": ["ground-state", "--tol", "nan"],
    "minimize_iq_tol_nan": ["minimize-iq", "--tol", "nan", "--max-iter", "3000"],
    "minimize_iq_max_iter_zero": ["minimize-iq", "--max-iter", "0"],
    "stability_T_overflow": ["stability", "--T", "1e308"],
    "evolve_T_overflow": ["evolve", "--T", "1e308"],
    "ground_state_c_overflow": ["ground-state", "--c", "1e308", "--n", "256", "--L", "20"],
    "stability_c_overflow": ["stability", "--c", "1e308", "--n", "256", "--L", "20"],
}
_LIST_FLAGS = ("thetas", "radii", "alphas", "cs")


def _bad_flag_cases():
    """The hand-picked cases, then every float flag of every command with
    nan and inf, every tolerance with -1, and every value list empty, nan,
    inf or a word; each is a usage error."""
    cases = dict(_BAD_STEP_FLAGS)
    for cmd, (_, _, defaults) in COMMANDS.items():
        for key, default in defaults.items():
            values = {}
            if isinstance(default, float):
                values.update(nan="nan", inf="inf")
            if key in TOLERANCES:
                values["negative"] = "-1"
            if key in _LIST_FLAGS:
                values.update(empty=",", nan="nan", inf="inf", word="abc")
            for label, value in values.items():
                case_id = f"{cmd}_{key}_{label}".replace("-", "_")
                cases.setdefault(case_id, [cmd, f"--{key.replace('_', '-')}", value])
    return [pytest.param(argv, id=case_id) for case_id, argv in cases.items()]


class TestOtherCommands:
    def test_verify_rejects_unknown_symbol_kind(self, tmp_path):
        grid = make_grid(256, 20.0)
        path = str(tmp_path / "q.csv")
        save_profile(field_from_values(grid, np.exp(-grid.x**2)), path,
                     {"c": 1.0, "alpha": 0.75, "family": "fkdv", "symbol": "bogus"})
        report = str(tmp_path / "v.json")
        assert main(["verify", "--profile", path, "--report", report]) == 2
        payload = json.load(open(report))
        assert payload["error"] == "ValueError"
        assert "bogus" in payload["message"]

    def test_verify_rejects_null_sidecar_value(self, tmp_path):
        grid = make_grid(256, 20.0)
        path = str(tmp_path / "q.csv")
        save_profile(field_from_values(grid, np.exp(-grid.x**2)), path,
                     {"c": None, "alpha": 0.75, "family": "fkdv"})
        report = str(tmp_path / "v.json")
        assert main(["verify", "--profile", path, "--report", report]) == 2
        payload = json.load(open(report))
        assert payload["error"] == "ValueError"
        assert "sidecar c=None" in payload["message"]

    def test_verify_derived_fbbm_reports(self, tmp_path):
        # the Weinstein family is solved in the paper form psi = Q/c, so the
        # command reaches its verdicts instead of rejecting velocity c/2 = 1
        src = str(tmp_path / "b.csv")
        main(["ground-state", "--family", "fbbm", "--bbm-form", "derived", "--c", "2",
              "--out", src])
        report = str(tmp_path / "v.json")
        assert main(["verify", "--profile", src, "--report", report]) == 1
        payload = json.load(open(report))
        assert len(payload["weinstein_values"]) == 3
        assert 0.99 < payload["gn_scan"]["min_ratio"] < 1.0

    def test_evolve_command(self, tmp_path):
        src = str(tmp_path / "q.csv")
        assert main(["ground-state", "--alpha", "0.75", "--c", "1", "--n", "4096",
                     "--L", "200", "--out", src]) == 0
        trace = str(tmp_path / "trace.csv")
        code = main(["evolve", "--profile", src, "--T", "1.0", "--dt", "0.0078125",
                     "--out", trace, "--report", str(tmp_path / "e.json")])
        assert code == 0
        header = open(trace).readline().strip()
        assert header == "t,mass,energy,orbital_distance"

    def test_default_step_lands_on_the_horizon(self, tmp_path):
        # neither 0.1 dx (evolve: 30.72 steps) nor 2^-9 (stability: 153.6
        # steps) divides T = 0.3; each default becomes T / ceil(T / step) and
        # the run ends on 0.3 without a warning, where it ran on to 0.3027 and
        # 0.3008.  An explicit --dt that misses is kept, with the warning.
        src = str(tmp_path / "q.csv")
        assert main(["ground-state", "--out", src]) == 0  # dx = 400 / 4096
        out = [str(tmp_path / name) for name in ("e.csv", "e.json", "s.csv", "s.json")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["evolve", "--profile", src, "--T", "0.3",
                         "--out", out[0], "--report", out[1]]) == 0
            assert main(["stability", "--T", "0.3", "--n", "4096",
                         "--out", out[2], "--report", out[3]]) == 0
        assert json.load(open(out[1]))["dt"] == 0.3 / 31
        assert json.load(open(out[3]))["horizon"] == 0.3
        for trace in (out[0], out[2]):
            assert abs(np.loadtxt(trace, delimiter=",", skiprows=1)[-1, 0] - 0.3) < 1e-15
        with pytest.warns(UserWarning, match="does not divide"):
            assert main(["evolve", "--profile", src, "--T", "0.3", "--dt", "0.009765625",
                         "--report", out[1]]) == 0
        assert json.load(open(out[1]))["dt"] == 0.009765625

    def test_minimize_iq_command(self, tmp_path):
        report = str(tmp_path / "m.json")
        code = main(["minimize-iq", "--alpha", "0.75", "--q", "4.0", "--n", "2048",
                     "--L", "100", "--report", report])
        assert code == 0
        payload = json.load(open(report))
        assert payload["I_q"] < 0
        assert "converged" not in payload

    def test_minimize_iq_small_mass_at_defaults(self, tmp_path):
        report = str(tmp_path / "m.json")
        assert main(["minimize-iq", "--q", "2", "--report", report]) == 0
        assert json.load(open(report))["I_q"] < 0

    def test_commutator_command(self, tmp_path):
        report = str(tmp_path / "c.json")
        code = main(["commutator", "--alpha", "0.75", "--n", "8192", "--L", "800",
                     "--radii", "4,8,16,32", "--report", report])
        assert code == 0
        payload = json.load(open(report))
        assert abs(payload["slope"] - payload["target_slope"]) < 0.15

    def test_commutator_gaussian_is_report_only(self, tmp_path):
        code = main(["commutator", "--alpha", "0.75", "--field", "gaussian",
                     "--n", "4096", "--L", "400", "--radii", "4,8,16,32",
                     "--report", str(tmp_path / "g.json")])
        assert code == 0
        payload = json.load(open(str(tmp_path / "g.json")))
        assert payload["checked"] is False

    def test_commutator_unknown_field_exit_2(self, tmp_path):
        report = str(tmp_path / "c.json")
        assert main(["commutator", "--field", "spectral", "--n", "256", "--L", "50",
                     "--report", report]) == 2
        payload = json.load(open(report))
        assert payload["error"] == "ValueError"
        assert "unknown field kind 'spectral'" in payload["message"]

    def test_kp_check_fails_on_a_nan_residual(self, tmp_path):
        # Python's max dropped every NaN residual after the first entry, so
        # the chain passed with a worst residual of 0
        report = str(tmp_path / "kp.json")
        assert main(["kp-check", "--alphas", "1e308", "--report", report]) == 1
        payload = json.load(open(report))
        assert np.isnan(payload["worst_residual"])
        assert payload["pass"] is False

    def test_kp_check_command(self, tmp_path):
        report = str(tmp_path / "kp.json")
        assert main(["kp-check", "--report", report]) == 0
        payload = json.load(open(report))
        assert payload["worst_residual"] <= 1e-12
        assert payload["pass"]

    def test_stability_command_quick(self, tmp_path):
        report = str(tmp_path / "s.json")
        code = main(["stability", "--alpha", "0.75", "--c", "1", "--delta", "0.0",
                     "--T", "2.0", "--dt", "0.001953125", "--n", "8192",
                     "--L", "200", "--report", report])
        assert code == 0
        payload = json.load(open(report))
        assert payload["verdict"] == "bounded"

    def test_stability_rejects_a_non_power_symbol_before_solving(self, tmp_path, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("stability solved before it checked --symbol")

        monkeypatch.setattr(cli, "petviashvili", no_solve)
        report = str(tmp_path / "s.json")
        assert main(["stability", "--symbol", "whitham", "--report", report]) == 2
        payload = json.load(open(report))
        assert payload["error"] == "ValueError"
        assert "--symbol power" in payload["message"]

    def test_stability_infinite_horizon_exit_2(self, tmp_path):
        report = str(tmp_path / "s.json")
        assert main(["stability", "--T", "inf", "--n", "4096", "--L", "200",
                     "--report", report]) == 2
        payload = json.load(open(report))
        assert payload["error"] == "ValueError"

    def test_stability_negative_delta_exit_2(self, tmp_path):
        report = str(tmp_path / "s.json")
        assert main(["stability", "--delta", "-0.01", "--n", "4096", "--L", "200",
                     "--report", report]) == 2
        payload = json.load(open(report))
        assert payload["error"] == "ValueError"
        assert "delta" in payload["message"]

    @pytest.mark.parametrize("argv", _bad_flag_cases())
    def test_bad_step_flag_exit_2(self, argv, tmp_path):
        # 0 is the only value that selects the default step; tol and
        # max_iter have no default to select and must be positive; a float
        # is finite, a tolerance >= 0 and a value list holds finite values
        grid = make_grid(256, 20.0)
        path = str(tmp_path / "q.csv")
        save_profile(field_from_values(grid, np.exp(-grid.x**2)), path,
                     {"c": 1.0, "alpha": 0.75, "family": "fkdv"})
        report = str(tmp_path / "r.json")
        profile = ["--profile", path] if argv[0] in ("evolve", "verify") else []
        horizon = ["--T", "0.5"] if argv[0] in ("evolve", "stability") else []
        # the case's own flags come last, so its --T wins over the horizon
        assert main(argv[:1] + profile + horizon + argv[1:] + ["--report", report]) == 2
        payload = json.load(open(report))
        assert payload["error"] == "ValueError"
        # the flag as the CLI spells it, or the parameter the library names
        assert argv[1].lstrip("-") in payload["message"].replace("_", "-")

    @pytest.mark.parametrize("command, sidecar", [("verify", "5"), ("evolve", '"abc"')],
                             ids=["verify_sidecar_number", "evolve_sidecar_string"])
    def test_sidecar_not_an_object_exit_2(self, command, sidecar, tmp_path):
        # a sidecar that parses as JSON but is no object is a usage error;
        # it raised TypeError (exit 1, a traceback, no error JSON)
        grid = make_grid(256, 20.0)
        path = str(tmp_path / "q.csv")
        save_profile(field_from_values(grid, np.exp(-grid.x**2)), path)
        (tmp_path / "q.json").write_text(sidecar + "\n")
        report = str(tmp_path / "r.json")
        horizon = ["--T", "0.5"] if command == "evolve" else []
        assert main([command, "--profile", path] + horizon + ["--report", report]) == 2
        payload = json.load(open(report))
        assert payload["error"] == "ValueError"
        assert "not a JSON object" in payload["message"]

    def test_iq_scaling_command(self, tmp_path):
        report = str(tmp_path / "iq.json")
        code = main(["iq-scaling", "--alpha", "0.75", "--q", "4.0", "--thetas", "1",
                     "--n", "2048", "--L", "100", "--report", report])
        assert code == 0
        assert json.load(open(report))["n"] == 2048

    def test_iq_scaling_refines_readme_command(self, tmp_path):
        # at the default grid the q = 25 minimizer is unresolved; the check
        # refines n to 16384 at L = 200 and passes there
        report = str(tmp_path / "iq.json")
        code = main(["iq-scaling", "--alpha", "0.75", "--q", "12.5", "--thetas", "2",
                     "--report", report])
        assert code == 0
        payload = json.load(open(report))
        assert payload["n"] == 16384
        assert payload["config"]["n"] == 4096
        assert all(row["pass"] for row in payload["checks"])


class TestSweep:
    def test_two_point_sweep(self, tmp_path):
        out = str(tmp_path / "sweep")
        code = main(["sweep", "--command", "ground-state", "--out", out,
                     "--jobs", "2", "--param", "alpha=0.8,0.9",
                     "--param", "n=4096", "--param", "L=200"])
        assert code == 0
        index = json.load(open(os.path.join(out, "index.json")))
        assert len(index["points"]) == 2
        for entry in index["points"]:
            assert entry["exit_code"] == 0
            assert os.path.exists(os.path.join(entry["dir"], "report.json"))
            assert os.path.exists(os.path.join(entry["dir"], "profile.csv"))

    def test_negative_jobs_exit_2(self, tmp_path, capsys):
        # 0 selects one worker; a negative count is a usage error, not one worker
        out = str(tmp_path / "sweep2")
        code = main(["sweep", "--command", "ground-state", "--out", out,
                     "--jobs", "-1", "--param", "alpha=0.8", "--param", "n=4096",
                     "--param", "L=200"])
        assert code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "index.json"))

    def test_usage_error_written_to_report(self, tmp_path, capsys):
        # like evolve --dt -1 --report, a rejected sweep leaves its error as JSON
        report = tmp_path / "r.json"
        out = tmp_path / "sw"
        code = main(["sweep", "--jobs", "-3", "--param", "alpha=0.8",
                     "--out", str(out), "--report", str(report)])
        assert code == 2
        assert "--jobs" in capsys.readouterr().err
        assert json.loads(report.read_text()) == {
            "error": "ValueError",
            "message": "--jobs must be finite and >= 0 (0 selects the default), got -3"}
        assert not out.exists()

    def test_report_holds_the_index(self, tmp_path):
        # a completed sweep writes its index with the resolved configuration
        # to --report; the point still writes its own report.json
        out = str(tmp_path / "sweep5")
        report = tmp_path / "r.json"
        code = main(["sweep", "--command", "ground-state", "--out", out,
                     "--param", "alpha=0.8", "--report", str(report)])
        assert code == 0
        index = json.load(open(os.path.join(out, "index.json")))
        written = json.loads(report.read_text())
        assert written.pop("config")["report"] == str(report)
        assert written == index
        assert os.path.exists(os.path.join(index["points"][0]["dir"], "report.json"))

    def test_stdout_follows_point_order(self, tmp_path, capsys):
        # the 4096-point solve finishes first, yet its line comes second
        out = str(tmp_path / "sweep6")
        main(["sweep", "--command", "ground-state", "--param", "n=16384,4096",
              "--jobs", "2", "--out", out])
        index = json.load(open(os.path.join(out, "index.json")))
        assert [entry["point"]["n"] for entry in index["points"]] == ["16384", "4096"]
        reports = [json.load(open(os.path.join(entry["dir"], "report.json")))
                   for entry in index["points"]]
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("ground-state:")]
        assert printed == [f"ground-state: c=1.0 residual_sup={r['residual_sup']:.3e} "
                           f"iterations={r['iterations']}" for r in reports]

    def test_sweep_requires_params(self, tmp_path):
        assert main(["sweep", "--command", "ground-state",
                     "--out", str(tmp_path / "s")]) == 2

    def test_point_exception_recorded(self, tmp_path, monkeypatch):
        # an exception of any type at one point is that point's failure
        handler, help_text, defaults = COMMANDS["ground-state"]

        def failing(cfg, args):
            if cfg["alpha"] == 0.9:
                raise RuntimeError("injected failure")
            return handler(cfg, args)

        monkeypatch.setitem(COMMANDS, "ground-state", (failing, help_text, defaults))
        out = str(tmp_path / "sweep4")
        code = main(["sweep", "--command", "ground-state", "--out", out,
                     "--jobs", "2", "--param", "alpha=0.8,0.9",
                     "--param", "n=4096", "--param", "L=200"])
        assert code == 1
        index = json.load(open(os.path.join(out, "index.json")))
        entries = {entry["point"]["alpha"]: entry for entry in index["points"]}
        assert entries["0.8"] == {"point": {"L": "200", "alpha": "0.8", "n": "4096"},
                                  "dir": entries["0.8"]["dir"], "exit_code": 0}
        assert entries["0.9"]["exit_code"] == 1
        assert entries["0.9"]["error"] == "RuntimeError"
        assert entries["0.9"]["message"] == "injected failure"

    def test_rejected_point_recorded(self, tmp_path):
        # argparse rejects n=abc inside the worker and a directory is no
        # config file; the other point still runs
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("L = 200\n")
        out = str(tmp_path / "sweep3")
        code = main(["sweep", "--command", "ground-state", "--out", out, "--jobs", "2",
                     "--param", "n=abc,4096", "--param", f"config={tmp_path},{cfg}"])
        assert code == 2
        index = json.load(open(os.path.join(out, "index.json")))
        codes = {(entry["point"]["n"], entry["point"]["config"]): entry["exit_code"]
                 for entry in index["points"]}
        assert codes == {("abc", str(tmp_path)): 2, ("abc", str(cfg)): 2,
                         ("4096", str(tmp_path)): 2, ("4096", str(cfg)): 0}
