"""fracsol benchmark: one workload per run, end-to-end metrics by default,
per-layer metrics with ``--trace 1``.

    python3 bench/run.py --workload refine_chain --seed 1 --seconds 42 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy.  The run repeats the
workload's pass until ``--seconds`` would be exceeded (at least one pass) and
reports medians over passes.  ``setup_s`` is the median over fresh
interpreters, one started before each pass, of the time to import fracsol
and build the workload's inputs.
The last line of standard output is the JSON result; the same record, with
the environment and per-operation details, is appended to ``--out``.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread: the only extra threads are the sweep pool's two
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def import_fracsol():
    """Import fracsol from this checkout's src; return the seconds it took."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import fracsol
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(fracsol.__file__).startswith(SRC + os.sep):
        raise ImportError(f"fracsol was imported from {fracsol.__file__}, not from {SRC}")
    return elapsed


def setup(workload, seed, workdir):
    """Import fracsol and build the workload's inputs; returns (state, import_s)."""
    import_s = import_fracsol()
    sys.path.insert(0, BENCH_DIR)
    import workloads
    os.makedirs(workdir, exist_ok=True)
    return workloads.WORKLOADS[workload](workdir, seed), import_s


def probe_setup(workload, seed, workdir):
    """Time one fresh interpreter from start to inputs ready; returns
    (seconds to ready, seconds of the import alone)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--workdir", workdir]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait() != 0 or not line.strip():
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return ready, json.loads(line)["import_s"]


def environment():
    env = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "sweep_jobs": sys.modules["workloads"].SWEEP_JOBS,
        "cpu_model": platform.processor() or platform.machine(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        if models:
            env["cpu_model"] = models[0]
    except OSError:
        pass
    import numpy
    import scipy
    env["numpy"] = numpy.__version__
    env["scipy"] = scipy.__version__
    return env


def cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def traced_pass(i):
    """In a traced run, pass 0 is an untraced warm-up; then passes alternate
    untraced/traced in the order U T T U U T T U ..., so each adjacent pair
    (1, 2), (3, 4), ... times both sides under the same host conditions, with
    either side first in turn."""
    return i >= 1 and (i - 1) % 4 in (1, 2)


def measure(state, seconds, tracer, probe):
    """Alternate a setup probe and a pass while the next pair is expected to
    end within `seconds` (at least one pass, three in a traced run), so that
    both samples spread over the whole run."""
    clock = time.perf_counter
    t_start = clock()
    min_passes = 1 if tracer is None else 3
    passes, probes = [], []
    while True:
        probes.append(probe())
        traced = tracer is not None and traced_pass(len(passes))
        if traced:
            tracer.reset()
            tracer.install()
        cpu0, t0 = cpu_seconds(), clock()
        try:
            ops = state.run_pass(tracer if traced else None, clock)
        finally:
            if traced:
                tracer.uninstall()
        wall, cpu = clock() - t0, cpu_seconds() - cpu0
        record = {"run_s": wall, "cpu_s": cpu, "traced": traced,
                  "ops": [o.to_dict() for o in ops]}
        if traced:
            record["layers"] = tracer.metrics()
        passes.append(record)
        cycle = (statistics.median(p["run_s"] for p in passes)
                 + statistics.median(ready for ready, _ in probes))
        if len(passes) >= min_passes and clock() - t_start + cycle > seconds:
            return passes, probes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("refine_chain", "stability", "desk_session"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=42.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(ROOT, ".bench_runs", "runs.jsonl"),
                    help="JSONL file the full run record is appended to")
    ap.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    workdir = args.workdir or os.path.join(ROOT, ".bench_runs", f"work-{os.getpid()}")

    if args.setup_probe:
        _, import_s = setup(args.workload, args.seed, workdir)
        print(json.dumps({"import_s": import_s}), flush=True)
        return 0

    try:
        state, _ = setup(args.workload, args.seed, workdir)
        probe_dir = os.path.join(workdir, "probe")
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
        passes, probes = measure(state, args.seconds, tracer,
                                 lambda: probe_setup(args.workload, args.seed, probe_dir))
        # the spans of the last traced pass
        spans = [s.to_dict() for s in tracer.spans] if tracer is not None else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for p in passes for op in p["ops"]]
    attempted = len(ops)
    failed = sum(1 for op in ops if not op["ok"])
    correct = not any(op["check_failed"] for op in ops)
    run_s = statistics.median(p["run_s"] for p in passes)
    setup_s = statistics.median(ready for ready, _ in probes)
    end_to_end = {
        "run_s": run_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        untraced = [p for p in passes if not p["traced"]]
        pairs = [(passes[i], passes[i + 1]) for i in range(1, len(passes) - 1, 2)]
        # per-pass samples of the metrics measured outside the tracer
        outside = {
            "setup.import_s": [imp for _, imp in probes],
            "process.cpu_s": [p["cpu_s"] for p in untraced],
            "trace.overhead": [(a if a["traced"] else b)["run_s"] / (b if a["traced"] else a)["run_s"]
                               for a, b in pairs],
            "cli.warnings": [sum(len(op["warnings"]) for op in p["ops"]) for p in traced],
        }
        metrics = {}
        for m in declared["per_layer"]:
            samples = outside.get(m["name"]) or [p["layers"][m["name"]] for p in traced]
            metrics[m["name"]] = {"value": statistics.median(samples), "unit": m["unit"]}
    else:
        metrics = {m["name"]: {"value": end_to_end[m["name"]], "unit": m["unit"]}
                   for m in declared["end_to_end"]}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "finished": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "env": environment(), "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "correct": correct,
        "end_to_end": end_to_end, "metrics": metrics,
        "setup_probes": probes, "passes": passes, "spans": spans,
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "a") as fh:
        fh.write(json.dumps(record) + "\n")

    for op in ops:
        if not op["ok"]:
            print(f"failed: {op['op']}: {op['error']}")
    print(f"{args.workload} seed={args.seed} passes={len(passes)} trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':<44} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
