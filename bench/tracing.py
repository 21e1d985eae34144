"""In-memory spans and counters around okstab's public functions.

Nothing here is imported by okstab itself: `Tracer.install` rebinds each
layer's public functions (at their defining module and at every
`from .x import` site inside the package) to span-recording wrappers, and
wraps the numpy/scipy FFT entry points and `eigh` with counters that are
charged to the innermost open span.  `Tracer.uninstall` restores every
binding.  Spans stay in memory until `dump` writes them out.

A span is the list [name, start, end, parent_index, grid_size, counters],
where counters maps a counter kind ("fft", "eigh") to [calls, work].
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

LAYERS = ("torus", "shapes", "energy", "stability", "flow", "cli")
FFT_NAMES = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn",
             "irfftn", "fft2", "ifft2", "rfft2", "irfft2")
DCT_NAMES = ("dct", "idct", "dctn", "idctn")
# public methods that are layer entry points in their own right
METHODS = (("torus", "TorusGrid", "ksq"),)


def _grid_size(args):
    """Leading grid size of a ScalarField or FlowState first argument."""
    if not args:
        return None
    a0 = args[0]
    grid = getattr(a0, "grid", None)
    if grid is None:
        grid = getattr(getattr(a0, "u", None), "grid", None)
    sizes = getattr(grid, "sizes", None)
    return sizes[0] if sizes else None


def _points(args, out):
    return int(getattr(out, "size", 0))


def _n_cubed(args, out):
    n = len(args[0])
    return n * n * n


class Tracer:
    def __init__(self):
        self.spans = []
        self.outside = {}          # counters hit while no span was open
        self._stack = []
        self._saved = []           # (owner, attribute, original)

    # -- recording --------------------------------------------------------
    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   _grid_size(args), None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return wrapper

    def _counter(self, kind, fn, work):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if stack:
                rec = spans[stack[-1]]
                if rec[5] is None:
                    rec[5] = {}
                bucket = rec[5]
            else:
                bucket = self.outside
            c = bucket.setdefault(kind, [0, 0])
            c[0] += 1
            c[1] += work(args, out)
            return out
        return wrapper

    def _rebind(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- installation -----------------------------------------------------
    def install(self):
        import numpy as np
        import scipy.fft
        import scipy.linalg

        import okstab
        layer_of = {f"okstab.{layer}": layer for layer in LAYERS}
        mods = [okstab] + [sys.modules[m] for m in layer_of if m in sys.modules]
        wrapped = {}
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                layer = layer_of.get(getattr(obj, "__module__", None))
                if attr.startswith("_") or layer is None or not inspect.isfunction(obj):
                    continue
                if obj not in wrapped:
                    wrapped[obj] = self._span(f"{layer}.{obj.__name__}", obj)
                self._rebind(mod, attr, wrapped[obj])
        for layer, cls, meth in METHODS:
            owner = getattr(sys.modules[f"okstab.{layer}"], cls)
            self._rebind(owner, meth,
                         self._span(f"{layer}.{meth}", getattr(owner, meth)))
        for name in FFT_NAMES:
            self._rebind(np.fft, name,
                         self._counter("fft", getattr(np.fft, name), _points))
        for name in FFT_NAMES + DCT_NAMES:
            self._rebind(scipy.fft, name,
                         self._counter("fft", getattr(scipy.fft, name), _points))
        self._rebind(np.linalg, "eigh",
                     self._counter("eigh", np.linalg.eigh, _n_cubed))
        self._rebind(scipy.linalg, "eigh",
                     self._counter("eigh", scipy.linalg.eigh, _n_cubed))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def dump(self):
        return {"spans": self.spans, "outside": self.outside}


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def merge(dumps):
    """Concatenate span dumps from several processes, re-basing parents."""
    spans, outside = [], {}
    for d in dumps:
        base = len(spans)
        for name, t0, t1, parent, size, counters in d["spans"]:
            spans.append([name, t0, t1, parent + base if parent >= 0 else -1,
                          size, counters])
        for kind, (calls, work) in d["outside"].items():
            c = outside.setdefault(kind, [0, 0])
            c[0] += calls
            c[1] += work
    return {"spans": spans, "outside": outside}


def summarize(dump) -> dict:
    """Per-layer metrics from one (merged) dump.

    `<layer>.<function>.calls|self_s|p50_ms` for every span name,
    `<layer>.<function>.<grid>.p50_ms` where a grid size was recorded,
    `<layer>.<counter>.calls|work` for counters charged to the innermost
    span of that layer, and the per-accepted-step ratios of the flow.
    """
    spans = dump["spans"]
    n = len(spans)
    child = [0.0] * n
    in_step = [False] * n
    for i, (name, t0, t1, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += t1 - t0
        in_step[i] = name == "flow.flow_step" or (parent >= 0 and in_step[parent])

    durs, sized, selfs = {}, {}, {}
    counters = {}
    step_fft = step_ksq = step_energy = steps = 0
    for i, (name, t0, t1, parent, size, cnt) in enumerate(spans):
        d = t1 - t0
        durs.setdefault(name, []).append(d)
        selfs[name] = selfs.get(name, 0.0) + d - child[i]
        if size is not None:
            sized.setdefault((name, size), []).append(d)
        if cnt:
            layer = name.partition(".")[0]
            for kind, (calls, work) in cnt.items():
                c = counters.setdefault((layer, kind), [0, 0])
                c[0] += calls
                c[1] += work
                if kind == "fft" and in_step[i]:
                    step_fft += calls
        if name == "flow.flow_step":
            steps += 1
        elif parent >= 0 and in_step[parent]:
            if name == "torus.ksq":
                step_ksq += 1
            elif name == "flow.diffuse_energy" and spans[parent][0] == "flow.flow_step":
                step_energy += 1

    out = {}
    for name, ds in durs.items():
        out[f"{name}.calls"] = len(ds)
        out[f"{name}.self_s"] = selfs[name]
        out[f"{name}.p50_ms"] = 1e3 * statistics.median(ds)
    for (name, size), ds in sized.items():
        out[f"{name}.{size}.p50_ms"] = 1e3 * statistics.median(ds)
    for (layer, kind), (calls, work) in counters.items():
        out[f"{layer}.{kind}.calls"] = calls
        out[f"{layer}.{kind}.{'points' if kind == 'fft' else 'work_n3'}"] = work
    # every flow_step returns exactly once, after its accepted candidate;
    # each candidate (accepted or rejected) costs one diffuse_energy call
    out["flow.steps_accepted"] = steps
    out["flow.rejections"] = step_energy - steps
    if steps:
        out["flow.accept_ratio"] = steps / step_energy
        out["flow.fft.calls_per_step"] = step_fft / steps
        out["flow.ksq.calls_per_step"] = step_ksq / steps
    return out
