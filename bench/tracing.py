"""Tracing from outside the package: timing wrappers around the public
functions of every ``fracsol`` module and counters around the FFT entry
points, installed and removed by the benchmark alone.

A wrapper opens a span (name, layer, start, end, parent) on a per-thread
stack.  Wrappers are rebound in every ``fracsol`` module namespace that
holds the original function, so calls between modules (for example
``stability_experiment`` -> ``evolve`` -> ``orbital_distance``) are caught.
The ``sweep`` thread pool is replaced by one that hands the submitting span
to its workers as their parent.  Spans stay in memory; ``layer_metrics``
derives self times and counts from them at the end of a pass.
"""

from __future__ import annotations

import contextlib
import inspect
import itertools
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.fft
import scipy.signal

LAYERS = ("spectral", "functionals", "ground_state", "verification",
          "evolution", "kp", "io", "cli")
# public functions outside the modules' __all__ that the benchmark names
EXTRA = {"ground_state": ("upsample_field",), "cli": ("main",)}
COMPLEX_FFTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")
REAL_FFTS = ("rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")
IO_WRITERS = ("dump_json", "save_profile", "save_wave", "save_trace", "save_field2d")


class Span:
    __slots__ = ("id", "name", "layer", "parent", "start", "end", "fft", "attrs", "error")

    def __init__(self, sid, name, layer, parent):
        self.id = sid
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = time.perf_counter()
        self.end = None
        self.fft = [0, 0, 0, 0]  # calls, complex calls, points, bytes computed
        self.attrs = {}
        self.error = None

    def to_dict(self):
        return {"id": self.id, "name": self.name, "layer": self.layer,
                "parent": self.parent, "start": self.start, "end": self.end,
                "fft": self.fft, "attrs": self.attrs, "error": self.error}


class Tracer:
    def __init__(self):
        self.spans = []
        self.orphan_fft = [0, 0, 0, 0]
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []

    # -- span stack ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name, layer):
        stack = self._stack()
        parent = stack[-1].id if stack else getattr(self._local, "adopted", None)
        span = Span(next(self._ids), name, layer, parent)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name, layer="bench"):
        """A span opened by the benchmark itself, such as one operation."""
        s = self.open(name, layer)
        try:
            yield s
        except BaseException as e:
            s.error = type(e).__name__
            raise
        finally:
            self.close(s)

    def reset(self):
        self.spans = []
        self.orphan_fft = [0, 0, 0, 0]

    def metrics(self):
        return layer_metrics(self)

    # -- installation -------------------------------------------------------

    def _rebind(self, original, replacement, modules):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self):
        """Wrap the public functions of every fracsol layer and the FFT entry
        points; ``uninstall`` restores the originals."""
        fracsol_mods = [m for name, m in list(sys.modules.items())
                        if m is not None and (name == "fracsol" or name.startswith("fracsol."))]
        for layer in LAYERS:
            mod = sys.modules[f"fracsol.{layer}"]
            names = list(getattr(mod, "__all__", ())) + list(EXTRA.get(layer, ()))
            for name in names:
                fn = getattr(mod, name)
                if inspect.isfunction(fn):
                    self._rebind(fn, self._wrap(layer, name, fn), fracsol_mods)
        cli = sys.modules["fracsol.cli"]
        self._rebind(cli.ThreadPoolExecutor, self._pool_class(), [cli])
        for mod in (np.fft, scipy.fft):
            for name in COMPLEX_FFTS + REAL_FFTS:
                fn = getattr(mod, name)
                wrapped = self._count(fn, name in COMPLEX_FFTS)
                setattr(mod, name, wrapped)
                self._undo.append((mod, name, fn))
        czt = scipy.signal.czt
        scipy.signal.czt = self._count(czt, True)
        self._undo.append((scipy.signal, "czt", czt))

    def uninstall(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo = []

    def _wrap(self, layer, name, fn):
        tracer = self
        qual = f"{layer}.{name}"
        hook = HOOKS.get(qual)
        sig = inspect.signature(fn) if hook is not None else None

        def wrapper(*args, **kwargs):
            span = tracer.open(qual, layer)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                span.error = type(e).__name__
                raise
            finally:
                tracer.close(span)
                if hook is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(span, bound.arguments, result, exc)

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn, is_complex):
        tracer = self

        def counted(a, /, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            span = tracer.current()
            c = span.fft if span is not None else tracer.orphan_fft
            a_arr = a if isinstance(a, np.ndarray) else np.asarray(a)
            c[0] += 1
            c[1] += int(is_complex)
            c[2] += max(a_arr.size, out.size)
            c[3] += a_arr.nbytes + out.nbytes
            return out

        counted.__name__ = fn.__name__
        counted.__wrapped__ = fn
        return counted

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            """Runs each task with the submitting span as its parent."""

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()
                parent_id = parent.id if parent is not None else None

                def run(*a, **kw):
                    tracer._local.adopted = parent_id
                    try:
                        return fn(*a, **kw)
                    finally:
                        tracer._local.adopted = None

                return super().submit(run, *args, **kwargs)

        return TracedPool


# -- per-call attributes read from arguments and results ----------------------


def _petviashvili(span, args, result, exc):
    span.attrs["n"] = args["grid"].n
    if result is not None:
        span.attrs["iterations"] = result.iterations


def _minimize_iq(span, args, result, exc):
    if result is not None:
        span.attrs["iterations"] = result.iterations
    elif type(exc).__name__ == "ConvergenceError":
        span.attrs["iterations"] = args["max_iter"]


def _evolve(span, args, result, exc):
    span.attrs["family"] = args["model"].family
    if result is not None:
        span.attrs["steps"] = int(round(result.times[-1] / result.dt))


def _cli_main(span, args, result, exc):
    argv = args["argv"] or []
    span.attrs["command"] = argv[0] if argv else None
    span.attrs["exit_code"] = result


def _io_write(span, args, result, exc):
    # sidecars are written through dump_json, which has a span of its own
    path = args["path"]
    span.attrs["path"] = path
    span.attrs["bytes"] = os.path.getsize(path) if os.path.exists(path) else 0


HOOKS = {
    "ground_state.petviashvili": _petviashvili,
    "ground_state.minimize_iq": _minimize_iq,
    "evolution.evolve": _evolve,
    "cli.main": _cli_main,
    **{f"io.{name}": _io_write for name in IO_WRITERS},
}


# -- derived per-layer metrics -------------------------------------------------


def _union_length(intervals):
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metrics of one pass from the tracer's closed spans."""
    spans = [s for s in tracer.spans if s.end is not None]
    by_id = {s.id: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    self_s = {}
    for s in spans:
        kids = [(max(k.start, s.start), min(k.end, s.end)) for k in children.get(s.id, ())]
        self_s[s.id] = (s.end - s.start) - _union_length([iv for iv in kids if iv[1] > iv[0]])

    def subtree(s):
        out, todo = [], [s]
        while todo:
            cur = todo.pop()
            out.append(cur)
            todo.extend(children.get(cur.id, ()))
        return out

    def named(name):
        return [s for s in spans if s.name == name]

    def self_of(name):
        return sum(self_s[s.id] for s in named(name))

    fft = [sum(col) for col in zip(tracer.orphan_fft, *(s.fft for s in spans))]
    m = {
        "fft.calls": fft[0],
        "fft.complex_calls": fft[1],
        "fft.points": fft[2],
        "fft.bytes_computed": fft[3],
    }

    pv = named("ground_state.petviashvili")
    sweeps = sum(s.attrs.get("iterations", 0) for s in pv)
    pv_fft = sum(d.fft[0] for s in pv for d in subtree(s))
    fine = 0
    for op in (s for s in spans if s.layer == "bench" and s.name.startswith("op.")):
        solves = [d for d in subtree(op) if d.name == "ground_state.petviashvili"]
        if solves:
            fine += max(solves, key=lambda d: d.start).attrs.get("iterations", 0)
    m.update({
        "ground_state.petviashvili.sweeps": sweeps,
        "ground_state.petviashvili.fine_sweeps": fine,
        "ground_state.petviashvili.fft_per_sweep": _ratio(pv_fft, sweeps),
        "ground_state.petviashvili.self_s": self_of("ground_state.petviashvili"),
        "ground_state.upsample_field.self_s": self_of("ground_state.upsample_field"),
    })

    mi = named("ground_state.minimize_iq")
    iters = sum(s.attrs.get("iterations", 0) for s in mi)
    mi_self = self_of("ground_state.minimize_iq")
    m.update({
        "ground_state.minimize_iq.iterations": iters,
        "ground_state.minimize_iq.us_per_iter": 1e6 * _ratio(mi_self, iters),
        "ground_state.minimize_iq.self_s": mi_self,
        "ground_state.minimize_iq.failed": sum(1 for s in mi if s.error),
        "ground_state.dilate_field.self_s": self_of("ground_state.dilate_field"),
    })

    ev = named("evolution.evolve")
    steps = sum(s.attrs.get("steps", 0) for s in ev)
    per_family = {}
    for s in ev:
        stepper = "rk4" if s.attrs.get("family") == "fbbm" else "etdrk4"
        t, k = per_family.get(stepper, (0.0, 0))
        per_family[stepper] = (t + self_s[s.id], k + s.attrs.get("steps", 0))
    od = named("evolution.orbital_distance")
    m.update({
        "evolution.evolve.steps": steps,
        "evolution.etdrk4.us_per_step": 1e6 * _ratio(*per_family.get("etdrk4", (0.0, 0))),
        "evolution.rk4.us_per_step": 1e6 * _ratio(*per_family.get("rk4", (0.0, 0))),
        "evolution.fft_per_step": _ratio(sum(s.fft[0] for s in ev), steps),
        "evolution.orbital_distance.calls": len(od),
        "evolution.orbital_distance.us_per_call": 1e6 * _ratio(self_of("evolution.orbital_distance"), len(od)),
        "evolution.stability_experiment.self_s": self_of("evolution.stability_experiment"),
    })

    for name in ("identity_suite", "gn_scan", "iq_scaling_check", "commutator_decay"):
        m[f"verification.{name}.self_s"] = self_of(f"verification.{name}")
    for layer in ("functionals", "spectral", "kp", "io", "cli"):
        in_layer = [s for s in spans if s.layer == layer]
        m[f"{layer}.self_s"] = sum(self_s[s.id] for s in in_layer)
        if layer in ("functionals", "spectral"):
            m[f"{layer}.calls"] = len(in_layer)

    def rewrites_parent_file(s):
        # save_wave(path) hands the same path to save_profile: count it once
        p = by_id.get(s.parent)
        return p is not None and p.layer == "io" and p.attrs.get("path") == s.attrs.get("path")

    m["io.bytes_written"] = sum(s.attrs.get("bytes", 0) for s in spans
                                if s.layer == "io" and not rewrites_parent_file(s))
    busy = wall = 0.0
    for s in named("cli.main"):
        if s.attrs.get("command") == "sweep":
            wall += s.end - s.start
            busy += sum(k.end - k.start for k in children.get(s.id, ()) if k.name == "cli.main")
    m["cli.sweep.concurrency"] = _ratio(busy, wall)
    return m
