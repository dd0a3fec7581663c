"""The three benchmark workloads and their per-operation checks.

An operation is one staged solve, one CLI command or one sweep point.  It
fails on an exception, a non-zero exit code or a failed check; failures are
counted, never skipped.  ``check_failed`` marks an operation that reported
success but produced output that fails its check: a wrong answer the program
did not flag, which makes the run's ``correct`` false.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import warnings

import fracsol
import fracsol.cli
import fracsol.ground_state

# (alpha, final n, L) of the two staged chains; acceptance criterion 02 grids
CHAINS = ((0.75, 1 << 19, 25600.0), (0.7, 1 << 20, 25600.0))
CHAIN_TOL = 1e-10
IDENTITY_TOL = 1e-6
# stability horizon: long enough for 10 orbital-distance records per call
STABILITY_T = "2.5"
DRIFT_LIMIT = 1e-6
SWEEP_JOBS = 2


class OpResult:
    def __init__(self, name):
        self.name = name
        self.ok = False
        self.check_failed = False
        self.error = None
        self.seconds = 0.0
        self.warnings = []

    def to_dict(self):
        return {"op": self.name, "ok": self.ok, "check_failed": self.check_failed,
                "error": self.error, "seconds": self.seconds, "warnings": self.warnings}


@contextlib.contextmanager
def operation(results, tracer, name, clock):
    """Run one operation: time it, capture its warnings and console output,
    and record an exception as its failure."""
    res = OpResult(name)
    results.append(res)
    span = tracer.span(f"op.{name}") if tracer is not None else contextlib.nullcontext()
    t0 = clock()
    with warnings.catch_warnings(record=True) as caught, span, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("always")
        try:
            yield res
        except Exception as exc:  # an operation failure, counted and reported
            res.ok = False
            res.error = f"{type(exc).__name__}: {exc}"[:300]
    res.seconds = clock() - t0
    res.warnings = [str(w.message)[:200] for w in caught]


def fail_check(res, message):
    res.ok = False
    res.check_failed = True
    res.error = message


def solve_stages(n):
    """Stage sizes below n of the coarse-to-fine schedule used by the
    acceptance suite: start at max(4096, n/64) rounded by factors of 4."""
    stages = []
    size = n
    while size > 4096 and size > n // 64:
        size //= 4
    size = max(size, 4096)
    while size < n:
        stages.append(size)
        size *= 4
    return stages


class RefineChain:
    """Two staged Petviashvili chains to 2^19 and 2^20 points, each checked by
    the identity suite at 1e-6 and the Weinstein functional."""

    def __init__(self, workdir, seed):
        self.chains = []
        for alpha, n, L in CHAINS:
            model = fracsol.ModelSpec(family="fkdv", symbol=fracsol.DispersionSymbol.power(alpha))
            grids = [fracsol.make_grid(m, L) for m in solve_stages(n) + [n]]
            self.chains.append((alpha, model, grids))

    def run_pass(self, tracer, clock):
        results = []
        for alpha, model, grids in self.chains:
            with operation(results, tracer, f"chain_a{alpha}_n{grids[-1].n}", clock) as res:
                wave = None
                for grid in grids[:-1]:
                    seed = None if wave is None else fracsol.ground_state.upsample_field(wave.profile, grid.n)
                    wave = fracsol.petviashvili(model, 1.0, grid, tol=1e-9, max_iter=2000,
                                                seed_profile=seed)
                seed = fracsol.ground_state.upsample_field(wave.profile, grids[-1].n)
                wave = fracsol.petviashvili(model, 1.0, grids[-1], tol=CHAIN_TOL, max_iter=500,
                                            seed_profile=seed)
                reports = fracsol.identity_suite(wave, tolerance=IDENTITY_TOL)
                j = fracsol.weinstein(wave.profile, alpha)
                res.ok = True
                bad = [r.name for r in reports if not r.passed]
                if bad:
                    fail_check(res, f"identities failed at {IDENTITY_TOL}: {', '.join(bad)}")
                elif not wave.residual_sup < 10 * CHAIN_TOL:
                    fail_check(res, f"residual_sup {wave.residual_sup:.3e} >= {10 * CHAIN_TOL}")
                elif not (j > 0 and j < float("inf")):
                    fail_check(res, f"Weinstein functional {j!r} not finite and positive")
        return results


class Stability:
    """The CLI stability command in-process at the criterion-09 (fKdV) and
    criterion-10 (derived fBBM) configurations, with a seeded random kick."""

    def __init__(self, workdir, seed):
        self.reports = [os.path.join(workdir, f"stab_{i}.json") for i in range(2)]
        common = ["--perturb", "random", "--seed", str(seed), "--T", STABILITY_T,
                  "--dt", repr(2.0**-9)]
        self.argvs = [
            ["stability", "--family", "fkdv", "--alpha", "0.75", "--c", "1",
             "--n", "8192", "--L", "200", *common, "--report", self.reports[0]],
            ["stability", "--family", "fbbm", "--bbm-form", "derived", "--alpha", "0.75",
             "--c", "2", "--n", "16384", "--L", "400", "--gate-tol", "2e-3", *common,
             "--report", self.reports[1]],
        ]

    def run_pass(self, tracer, clock):
        results = []
        for argv, report in zip(self.argvs, self.reports):
            with operation(results, tracer, f"stability_{argv[2]}", clock) as res:
                code = fracsol.cli.main(argv)
                if code != 0:
                    res.error = f"exit code {code}"
                else:
                    with open(report) as fh:
                        rep = json.load(fh)
                    res.ok = True
                    if rep["verdict"] != "bounded":
                        fail_check(res, f"verdict {rep['verdict']}")
                    elif not rep["conserved_drift"] < DRIFT_LIMIT:
                        fail_check(res, f"drift {rep['conserved_drift']:.3e} >= {DRIFT_LIMIT}")
        return results


class DeskSession:
    """The README command block at desk scale, in order, in a work directory."""

    SWEEP_POINTS = ("2", "4", "8", "12.5")

    def __init__(self, workdir, seed):
        self.workdir = workdir
        self.commands = [
            ["ground-state", "--out", "q.csv"],
            ["verify", "--profile", "q.csv", "--seed", str(seed)],
            ["evolve", "--profile", "q.csv", "--T", "5"],
            ["sweep", "--command", "minimize-iq", "--param",
             "q=" + ",".join(self.SWEEP_POINTS), "--jobs", str(SWEEP_JOBS)],
            ["iq-scaling", "--q", "12.5", "--thetas", "2"],
            ["commutator"],
            ["kp-check"],
        ]

    def run_pass(self, tracer, clock):
        results = []
        cwd = os.getcwd()
        # start from an empty directory so no check can pass on a stale file
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        os.chdir(self.workdir)
        try:
            for argv in self.commands:
                if argv[0] == "sweep":
                    self._sweep(argv, results, tracer, clock)
                    continue
                with operation(results, tracer, argv[0], clock) as res:
                    code = fracsol.cli.main(argv)
                    res.ok = code == 0
                    if code != 0:
                        res.error = f"exit code {code}"
                    elif argv[0] == "ground-state" and not os.path.exists("q.csv"):
                        fail_check(res, "ground-state exited 0 without writing q.csv")
        finally:
            os.chdir(cwd)
        return results

    def _sweep(self, argv, results, tracer, clock):
        """One sweep command; each of its points is an operation, judged by
        the exit code the sweep records in its index."""
        sweep_res = []
        with operation(sweep_res, tracer, "sweep", clock) as res:
            fracsol.cli.main(argv)
            with open(os.path.join("sweep_out", "index.json")) as fh:
                index = json.load(fh)
            res.ok = True
        points = {e["point"]["q"]: e["exit_code"] for e in index["points"]} if res.ok else {}
        for q in self.SWEEP_POINTS:
            # points run concurrently: each carries the whole sweep's wall
            # time, and the first carries the warnings caught during it
            pt = OpResult(f"sweep_q{q}")
            pt.warnings = res.warnings if q == self.SWEEP_POINTS[0] else []
            pt.seconds = res.seconds
            code = points.get(q)
            pt.ok = code == 0
            if code is None:
                pt.error = res.error or "missing from sweep index"
            elif code != 0:
                pt.error = f"exit code {code}"
            results.append(pt)


WORKLOADS = {"refine_chain": RefineChain, "stability": Stability, "desk_session": DeskSession}
