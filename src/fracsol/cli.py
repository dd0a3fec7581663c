"""Command-line front end: solves, verification suites, evolution runs,
stability experiments, and parameter sweeps, with JSON/CSV artifacts.

Every subcommand is one entry of ``COMMANDS``: its handler, its help line and
its defaults.  Each default declares one flag (``--key``; a bool default gives
``--key/--no-key``) and one config-file key, both typed by ``_convert``.
Configuration precedence: command-line flags override the optional
``key = value`` config file (--config), which overrides built-in defaults.  A
config key that no subcommand accepts is a usage error, so one file can serve
several subcommands but a typo cannot pass silently.
All randomness flows from the --seed flag.  Reports embed the resolved
configuration and serialize deterministically: identical configuration and
seed give byte-identical files.

Exit codes: 0 all requested checks pass, 1 numerical failure (error JSON is
written), 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import contextvars
import functools
import io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import io as fio
from .errors import NumericalError
from .evolution import evolve, stability_experiment
from .functionals import mass, weinstein
from .ground_state import (
    FBBM,
    FKDV,
    GFKDV,
    ModelSpec,
    minimize_iq,
    paper_form,
    petviashvili,
)
from .kp import blt_ratio, field2d_from_function, kp_identity_consistency, make_grid2d, kp_rescale
from .spectral import PURE_POWER, DispersionSymbol, field_from_values, make_grid
from .verification import (
    commutator_decay,
    gn_scan,
    identity_suite,
    iq_scaling_check,
    make_scan_battery,
    pohojaev_functional_check,
)

# Desk-scale identity tolerance: profile identities are periodization-limited
# at the default box, around (pi/L)^(1+alpha); 1e-6 needs a much larger box.
DESK_IDENTITY_TOL = 1e-3
# a verdict tolerance below 0 fails every check, and a solver's must be > 0
TOLERANCES = ("tol", "identity_tol", "spread_tol", "gn_slack", "gate_tol", "slope_tol",
              "residual_tol")


def _parse_config_file(path):
    cfg = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: expected 'key = value', got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            cfg[key.replace("-", "_")] = value
    return cfg


def _convert(default):
    """String-to-value converter for a key, shared by its flag and its
    config-file entry: the default's own type, with yes/no words for bools."""
    if isinstance(default, bool):
        return lambda value: value.lower() in ("1", "true", "yes", "on")
    return type(default)


def _resolve(args, defaults):
    """flags > config file > defaults; returns the full resolved dict, with
    every float value finite and every tolerance >= 0."""
    file_cfg = _parse_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_cfg) - CONFIG_KEYS)
    if unknown:
        raise ValueError(f"{args.config}: no command accepts config key(s) {', '.join(unknown)}")
    resolved = {}
    for key, default in defaults.items():
        flag = getattr(args, key)
        if flag is not None:
            resolved[key] = flag
        elif key in file_cfg:
            resolved[key] = _convert(default)(file_cfg[key])
        else:
            resolved[key] = default
        value, flag = resolved[key], f"--{key.replace('_', '-')}"
        if isinstance(default, float) and not np.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
        if key in TOLERANCES and value < 0:
            raise ValueError(f"{flag} must be >= 0, got {value}")
    return resolved


def _symbol(cfg) -> DispersionSymbol:
    kind = cfg["symbol"]
    if kind == "power":
        return DispersionSymbol.power(cfg["alpha"])
    if kind == "whitham":
        return DispersionSymbol.whitham()
    if kind == "whitham-tension":
        return DispersionSymbol.whitham_tension(cfg["beta"])
    raise ValueError(f"unknown symbol {kind!r}")


def _model(cfg) -> ModelSpec:
    return ModelSpec(family=cfg["family"], symbol=_symbol(cfg), p=cfg["p"],
                     bbm_form=cfg["bbm_form"])


def _or_default(cfg, key, default):
    """The value of a key whose 0 selects the command's default; a negative
    value is a usage error, never a silent fallback."""
    value = cfg[key]
    if value < 0:
        raise ValueError(f"--{key.replace('_', '-')} must be finite and >= 0 "
                         f"(0 selects the default), got {value}")
    return value or default


def _floats(cfg, key) -> list:
    """A list key's comma-separated values: at least one, all finite."""
    values = [float(tok) for tok in cfg[key].split(",") if tok.strip()]
    if not (values and np.all(np.isfinite(values))):
        raise ValueError(f"--{key} must list one or more finite values, got {cfg[key]!r}")
    return values


# the console of the running command: a sweep point's buffer in its worker
# thread, sys.stdout (looked up at each write) everywhere else
_CONSOLE = contextvars.ContextVar("console", default=None)


def _stdout():
    console = _CONSOLE.get()
    return sys.stdout if console is None else console


def _say(*args, **kwargs):
    print(*args, file=_stdout(), **kwargs)


def _write_report(report: dict, cfg: dict, path):
    report = dict(report)
    report["config"] = {k: v for k, v in sorted(cfg.items())}
    if path:
        fio.dump_json(report, path)
    else:
        json.dump(report, _stdout(), indent=2, sort_keys=True)
        _say()


def _print_table(reports):
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        _say(f"  {r.name:<24} lhs={r.lhs: .9e} rhs={r.rhs: .9e} "
             f"rel={r.relative_residual:.3e} [{status}]")


# -- commands -------------------------------------------------------------------


def cmd_ground_state(cfg, args) -> int:
    model = _model(cfg)
    grid = make_grid(cfg["n"], cfg["L"])
    wave = petviashvili(model, cfg["c"], grid, tol=cfg["tol"], max_iter=cfg["max_iter"])
    reports = []
    if model.symbol.kind == PURE_POWER:
        reports = identity_suite(wave, tolerance=cfg["identity_tol"])
    if cfg["out"]:
        fio.save_wave(wave, cfg["out"])
    payload = {
        "residual_sup": wave.residual_sup,
        "residual_l2": wave.residual_l2,
        "iterations": wave.iterations,
        "mass": mass(wave.profile),
        "identities": [r.to_dict() for r in reports],
    }
    _write_report(payload, cfg, cfg["report"])
    _say(f"ground-state: c={cfg['c']} residual_sup={wave.residual_sup:.3e} "
         f"iterations={wave.iterations}")
    _print_table(reports)
    return 0 if all(r.passed for r in reports) else 1


def cmd_verify(cfg, args) -> int:
    if not cfg["profile"]:
        raise ValueError("verify needs --profile")
    # J is amplitude-invariant, so the family is solved around psi = Q/c for
    # a derived-form fBBM profile
    wave = paper_form(fio.load_wave(cfg["profile"]))
    alpha, p = wave.alpha, wave.model.p
    grid = wave.profile.grid

    reports = identity_suite(wave, tolerance=cfg["identity_tol"])
    gaussian = field_from_values(grid, np.exp(-grid.x**2))
    poho = [pohojaev_functional_check(gaussian, a, tolerance=cfg["identity_tol"])
            for a in (0.0, 0.6, 1.0, 2.0)]

    family = [petviashvili(wave.model, f * wave.c, grid) for f in (0.5, 2.0)]
    js = [weinstein(w.profile, alpha, p) for w in (family[0], wave, family[1])]
    spread = (max(js) - min(js)) / min(js)
    spread_ok = spread < cfg["spread_tol"]

    battery = make_scan_battery(grid, seed=cfg["seed"]) + [w.profile for w in family]
    scan = gn_scan(wave, battery, slack=cfg["gn_slack"])

    payload = {
        "identities": [r.to_dict() for r in reports],
        "pohojaev": [r.to_dict() for r in poho],
        "weinstein_values": js,
        "weinstein_spread": spread,
        "weinstein_spread_pass": spread_ok,
        "gn_scan": scan.to_dict(),
    }
    _write_report(payload, cfg, cfg["report"])
    _print_table(reports + poho)
    _say(f"  weinstein spread {spread:.3e} [{'pass' if spread_ok else 'FAIL'}]")
    _say(f"  gn scan min ratio {scan.min_ratio:.9f} [{'pass' if scan.passed else 'FAIL'}]")
    ok = (all(r.passed for r in reports) and all(r.passed for r in poho)
          and spread_ok and scan.passed)
    return 0 if ok else 1


def cmd_evolve(cfg, args) -> int:
    if not cfg["profile"]:
        raise ValueError("evolve needs --profile")
    wave = fio.load_wave(cfg["profile"])
    grid = wave.profile.grid
    dt = _or_default(cfg, "dt", 0.1 * grid.dx)
    record = _or_default(cfg, "record_every", max(1, int(round(0.25 / dt))))
    trace = evolve(wave.model, wave.profile, cfg["T"], dt, record_every=record,
                   track_orbit=wave if cfg["track"] else None)
    if cfg["out"]:
        fio.save_trace(trace, cfg["out"])
    payload = {
        "dt": dt,
        "drift": trace.conserved_drift(),
        "flag": trace.flag,
        "max_orbital_distance": (
            float(np.max(trace.orbital_distance_series))
            if trace.orbital_distance_series is not None else None
        ),
    }
    _write_report(payload, cfg, cfg["report"])
    _say(f"evolve: T={cfg['T']} dt={dt:.5g} drift={payload['drift']:.3e} "
         f"flag={trace.flag}")
    return 1 if trace.flag else 0


def cmd_stability(cfg, args) -> int:
    dt = _or_default(cfg, "dt", 2.0**-9)
    wave = petviashvili(_model(cfg), cfg["c"], make_grid(cfg["n"], cfg["L"]))
    report, trace = stability_experiment(
        wave, cfg["delta"], cfg["perturb"], cfg["T"], dt,
        seed=cfg["seed"], K=cfg["K"], gate_tolerance=cfg["gate_tol"],
    )
    if cfg["out"]:
        fio.save_trace(trace, cfg["out"])
    _write_report(report.to_dict(), cfg, cfg["report"])
    _say(f"stability: verdict={report.verdict} sup={report.sup_distance:.4e} "
         f"threshold={report.threshold:.4e} drift={report.conserved_drift:.2e}")
    return 0 if report.verdict != "growing" else 1


def cmd_minimize_iq(cfg, args) -> int:
    grid = make_grid(cfg["n"], cfg["L"])
    res = minimize_iq(cfg["q"], cfg["alpha"], grid, tol=cfg["tol"],
                      max_iter=cfg["max_iter"])
    if cfg["out"]:
        fio.save_profile(res.profile, cfg["out"],
                         {"q": res.q, "alpha": cfg["alpha"], "theta": res.theta})
    _write_report({
        "q": res.q,
        "theta": res.theta,
        "I_q": res.I_q,
        "iterations": res.iterations,
        "negative": res.I_q < 0,
    }, cfg, cfg["report"])
    _say(f"minimize-iq: q={res.q:.6g} theta={res.theta:.8g} I_q={res.I_q:.8g} "
         f"({res.iterations} iterations)")
    return 0 if res.I_q < 0 else 1


def cmd_iq_scaling(cfg, args) -> int:
    grid = make_grid(cfg["n"], cfg["L"])
    result = iq_scaling_check(cfg["alpha"], cfg["q"], _floats(cfg, "thetas"),
                              grid, tolerance=cfg["tol"])
    _write_report({"n": result.n, "tail": result.tail,
                   "checks": [r.to_dict() for r in result.checks]}, cfg, cfg["report"])
    _say(f"iq-scaling: n={result.n} tail={result.tail:.2e}")
    _print_table(result.checks)
    return 0 if all(r.passed for r in result.checks) else 1


def cmd_commutator(cfg, args) -> int:
    grid = make_grid(cfg["n"], cfg["L"])
    if cfg["field"] == "gaussian":
        v = field_from_values(grid, np.exp(-grid.x**2))
    elif cfg["field"] == "algebraic":
        v = field_from_values(grid, (1.0 + grid.x**2) ** -0.125)
    else:
        raise ValueError(f"unknown field kind {cfg['field']!r}")
    decay = commutator_decay(cfg["alpha"], v, _floats(cfg, "radii"),
                             complement=cfg["complement"])
    target = 0.25 - cfg["alpha"]
    # only the worst-case (algebraic-tail) field realizes the estimate's rate
    checked = cfg["field"] == "algebraic"
    ok = (not checked) or (not decay.degenerate
                           and abs(decay.slope - target) < cfg["slope_tol"])
    payload = decay.to_dict()
    payload.update({"target_slope": target, "checked": checked, "pass": ok})
    _write_report(payload, cfg, cfg["report"])
    _say(f"commutator: slope={decay.slope:.4f} target={target:.4f} "
         f"[{'pass' if ok else 'FAIL' if checked else 'measured'}]")
    return 0 if ok else 1


def cmd_kp_check(cfg, args) -> int:
    chain = []
    worst = 0.0
    for alpha in _floats(cfg, "alphas"):
        for c in _floats(cfg, "cs"):
            for eps in (-1, 1):
                rep = kp_identity_consistency(alpha, c, eps)
                worst = max(worst, rep.residual_po1, rep.residual_po2, rep.residual_energ)
                chain.append(rep.to_dict())
    grid = make_grid2d(cfg["nx"], cfg["ny"], cfg["Lx"], cfg["Ly"])

    def f(x, y):
        return -2.0 * x * np.exp(-(x**2) - y**2)

    ratios = []
    for lam in np.linspace(0.5, 2.0, 10):
        field = kp_rescale(f, float(lam), cfg["blt_alpha"], grid)
        ratios.append(blt_ratio(field, cfg["blt_alpha"]).ratio)
    base = blt_ratio(field2d_from_function(grid, f), cfg["blt_alpha"]).ratio
    amp = blt_ratio(field2d_from_function(grid, lambda x, y: 7.0 * f(x, y)),
                    cfg["blt_alpha"]).ratio
    amp_invariant = abs(amp - base) / base < 1e-12
    ok = worst <= cfg["residual_tol"] and amp_invariant and max(ratios) < np.inf
    _write_report({
        "chain": chain,
        "worst_residual": worst,
        "blt_ratios": ratios,
        "blt_amplitude_invariant": amp_invariant,
        "pass": ok,
    }, cfg, cfg["report"])
    _say(f"kp-check: worst chain residual {worst:.2e}, blt ratio range "
         f"[{min(ratios):.4f}, {max(ratios):.4f}] [{'pass' if ok else 'FAIL'}]")
    return 0 if ok else 1


def cmd_sweep(cfg, args) -> int:
    if cfg["command"] not in SWEEPABLE:
        raise ValueError(f"sweep supports {SWEEPABLE}, got {cfg['command']!r}")
    jobs = _or_default(cfg, "jobs", 1)
    lists = {}
    for spec in args.param or []:
        if "=" not in spec:
            raise ValueError(f"--param needs name=v1,v2,..., got {spec!r}")
        name, values = spec.split("=", 1)
        lists[name.replace("-", "_")] = values.split(",")
    if not lists:
        raise ValueError("sweep needs at least one --param")
    names = sorted(lists)
    points = [[]]
    for name in names:
        points = [pt + [(name, v)] for pt in points for v in lists[name]]
    os.makedirs(cfg["out"], exist_ok=True)

    def run_point(i_pt):
        i, pt = i_pt
        pt_dir = os.path.join(cfg["out"], f"point_{i:04d}")
        os.makedirs(pt_dir, exist_ok=True)
        argv = [cfg["command"]]
        for name, value in pt:
            argv += [f"--{name.replace('_', '-')}", value]
        argv += ["--report", os.path.join(pt_dir, "report.json")]
        if cfg["command"] in ("ground-state", "minimize-iq"):
            argv += ["--out", os.path.join(pt_dir, "profile.csv")]
        entry = {"point": dict(pt), "dir": pt_dir}
        # the point prints into its own buffer, so points can finish in any order
        console = io.StringIO()
        token = _CONSOLE.set(console)
        try:
            entry["exit_code"] = main(argv)
        except SystemExit:  # argparse rejected the point's flags
            entry["exit_code"] = 2
        except Exception as exc:  # one failing point must not abort the pool
            entry.update(exit_code=1, error=type(exc).__name__, message=str(exc))
        finally:
            _CONSOLE.reset(token)
        return entry, console.getvalue()

    index = []
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        # map yields in point order, so each point's output follows the one before
        for entry, printed in pool.map(run_point, enumerate(points)):
            _say(printed, end="")
            index.append(entry)
    payload = {"command": cfg["command"], "points": index}
    fio.dump_json(payload, os.path.join(cfg["out"], "index.json"))
    if cfg["report"]:
        _write_report(payload, cfg, cfg["report"])
    worst = max(entry["exit_code"] for entry in index)
    _say(f"sweep: {len(index)} points, worst exit code {worst}")
    return worst


# -- command table ----------------------------------------------------------------


SWEEPABLE = ("ground-state", "stability", "minimize-iq")
CHOICES = {
    "family": (FKDV, FBBM, GFKDV),
    "symbol": ("power", "whitham", "whitham-tension"),
    "bbm_form": ("paper", "derived"),
    "perturb": ("gaussian", "dilation", "random"),
}
MODEL = dict(family=FKDV, symbol="power", alpha=0.75, beta=0.0, p=1, bbm_form="paper", c=1.0)

# name -> (handler, help, defaults); each default is one flag and one config key
COMMANDS = {
    "ground-state": (cmd_ground_state, "solitary-wave solve + identity suite", dict(
        **MODEL, n=4096, L=200.0, tol=1e-10, max_iter=500,
        identity_tol=DESK_IDENTITY_TOL, out="", report="")),
    # the family members in the scan battery are fresh solves on the profile's
    # grid, within the same periodization envelope as the identity suite,
    # hence the desk-scale slack
    "verify": (cmd_verify, "identity suite + functional checks on a profile", dict(
        profile="", identity_tol=DESK_IDENTITY_TOL, spread_tol=1e-3,
        gn_slack=DESK_IDENTITY_TOL, seed=0, report="")),
    "evolve": (cmd_evolve, "time integration of a stored profile", dict(
        profile="", T=20.0, dt=0.0, record_every=0, track=True, out="", report="")),
    "stability": (cmd_stability, "orbital-stability experiment", dict(
        **MODEL, delta=0.01, perturb="gaussian", T=50.0, dt=0.0, n=8192, L=200.0,
        seed=0, K=5.0, gate_tol=DESK_IDENTITY_TOL, out="", report="")),
    "minimize-iq": (cmd_minimize_iq, "constrained energy minimization", dict(
        alpha=0.75, q=4.0, n=4096, L=200.0, tol=1e-8, max_iter=20000, out="",
        report="")),
    "iq-scaling": (cmd_iq_scaling, "scaling law of the constrained minimum", dict(
        alpha=0.75, q=4.0, thetas="2", n=4096, L=200.0, tol=1e-3, report="")),
    "commutator": (cmd_commutator, "cutoff-commutator decay fit", dict(
        alpha=0.75, field="algebraic", radii="4,8,16,32", n=16384, L=1600.0,
        complement=False, slope_tol=0.15, report="")),
    "kp-check": (cmd_kp_check, "2D identity chain + anisotropic GN battery", dict(
        alphas="0.5,0.8,1.0,1.3333333333333333,1.9", cs="0.5,1,2", blt_alpha=0.9,
        nx=128, ny=128, Lx=20.0, Ly=20.0, residual_tol=1e-12, report="")),
    "sweep": (cmd_sweep, "cartesian parameter sweep of a command", dict(
        command="ground-state", out="sweep_out", jobs=0, report="")),
}
CONFIG_KEYS = {key for _, _, defaults in COMMANDS.values() for key in defaults}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracsol",
        description="Ground states, identity verification, and orbital-stability "
                    "experiments for fractional KdV/BBM-type equations.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (_, help_text, defaults) in COMMANDS.items():
        s = sub.add_parser(name, help=help_text)
        for key, default in defaults.items():
            kw = (dict(action=argparse.BooleanOptionalAction) if isinstance(default, bool)
                  else dict(type=_convert(default), choices=CHOICES.get(key)))
            s.add_argument(f"--{key.replace('_', '-')}", **kw)
        s.add_argument("--config", type=str)
    sub.choices["sweep"].add_argument("--param", action="append",
                                      help="name=v1,v2,... (repeatable)")
    return parser


# built once per process: parse_args leaves the parser as it is, so sweep
# threads share it, and main looks the handler up in COMMANDS at call time
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler, _, defaults = COMMANDS[args.cmd]
    report = getattr(args, "report", None)  # the flag, until the config resolves
    try:
        cfg = _resolve(args, defaults)
        report = cfg.get("report")
        return handler(cfg, args)
    except (ValueError, OSError, NumericalError) as exc:
        numerical = isinstance(exc, NumericalError)
        if report:
            try:
                fio.dump_json({"error": type(exc).__name__, "message": str(exc)}, report)
            except OSError as write_exc:
                print(f"error: cannot write the error report: {write_exc}", file=sys.stderr)
        print(f"{'numerical failure' if numerical else 'error'}: {exc}", file=sys.stderr)
        return 1 if numerical else 2


if __name__ == "__main__":
    sys.exit(main())
