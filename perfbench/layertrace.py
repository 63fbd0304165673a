"""Layer spans recorded from outside the kinlab package.

`Tracer.install()` replaces every public function of each kinlab module,
and every public method of the module's public classes, with a wrapper that
records a span: its name, its layer (the module), start and end, the span
that caused it (per thread), whether it raised, and a few work counts taken
from its arguments and result.  A name is patched where callers look it up:
on the class for methods (so `GridFunction.sample` is patched once, on
`GridFunction`), and in every kinlab module whose globals hold the function
(so `from .geometry import dilate_5Q` in `covering` sees the wrapper too).
Functions reached only through a container captured at import time, such as
the cli's command table, get no span of their own.

Spans stay in memory; `layer_metrics` turns them into the per-layer figures
once the run is over.  `uninstall()` puts back exactly the objects it
replaced.
"""

import functools
import importlib
import itertools
import threading
import time
import types

import numpy as np

LAYERS = ("gridfn", "geometry", "kernel", "covering", "solvers", "degiorgi",
          "cli")
GROUP_OPS = ("geometry.compose", "geometry.inverse", "geometry.scale",
             "geometry.sup_norm")


class Span:
    __slots__ = ("id", "name", "layer", "parent", "start", "end", "error",
                 "counts")

    def __init__(self, sid, name, layer, parent, start):
        self.id = sid
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = start
        self.end = start
        self.error = None
        self.counts = None

    def as_dict(self):
        return {"id": self.id, "name": self.name, "layer": self.layer,
                "parent": self.parent.id if self.parent else None,
                "start": self.start, "end": self.end, "error": self.error,
                "counts": self.counts}


# ---------------------------------------------------------------------------
# Work counts, read from a call's arguments and result after it returns
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _sample_counts(args, kwargs, result):
    ndim = len(args[0].axes)
    points = int(result[0].size)
    # coordinates read, 2**ndim corner values gathered, one value written
    return {"points": points, "bytes": 8 * points * (ndim + 2 ** ndim + 1)}


def _convolve_counts(args, kwargs, result):
    g = _arg(args, kwargs, 1, "g")
    return {"pairs": int(result.out.values.size) * int(np.count_nonzero(g.values))}


def _elliptic_counts(args, kwargs, result):
    hist = result.info["residual_history"]
    return {"unknowns": int(result.u.values.size), "iterations": len(hist),
            "final_residual": float(hist[-1]) if hist else 0.0}


def _kinetic_counts(args, kwargs, result):
    problem = _arg(args, kwargs, 0, "P")
    return {"cell_steps": int(result.u.values.size) * int(problem.nt),
            "mass_drift": abs(float(result.info["mass_drift"]))}


def _distance_batch_counts(args, kwargs, result):
    best, gap = result
    return {"pairs": int(best.size),
            "max_gap": float(gap.max()) if gap.size else 0.0}


COUNTERS = {
    "gridfn.GridFunction.sample": _sample_counts,
    "kernel.kin_convolve": _convolve_counts,
    "kernel.gamma": lambda a, k, r: {"evals": int(np.size(r))},
    "covering.synthesize_ink_spots_instance":
        lambda a, k, r: {"cells": int(r[0].mask.size)},
    "covering.ink_spots_check":
        lambda a, k, r: {"flagged": int(r.family["flagged"]),
                         "stack_checked": int(r.family["stack_checked"])},
    "solvers.solve_elliptic": _elliptic_counts,
    "solvers.solve_kinetic_fp": _kinetic_counts,
    "geometry.kinetic_distance_batch": _distance_batch_counts,
    "cli.write_csv": lambda a, k, r: {"rows": len(_arg(a, k, 2, "rows"))},
}


# ---------------------------------------------------------------------------
# The tracer
# ---------------------------------------------------------------------------

def _public_targets(module, layer):
    """(owner, attribute, span name) for each public function and method
    defined in `module`."""
    out = []
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, type):
            for attr, member in sorted(vars(obj).items()):
                if not attr.startswith("_") and isinstance(member, types.FunctionType):
                    out.append((obj, attr, f"{layer}.{name}.{attr}"))
        elif isinstance(obj, types.FunctionType):
            out.append((module, name, f"{layer}.{name}"))
    return out


class Tracer:
    """Records spans at the public boundary of every kinlab module."""

    def __init__(self):
        self.modules = {layer: importlib.import_module(f"kinlab.{layer}")
                        for layer in LAYERS}
        self.spans = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, func, name, layer):
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = Span(next(self._ids), name, layer,
                        stack[-1] if stack else None, clock())
            stack.append(span)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
                self.spans.append(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        for layer, module in self.modules.items():
            for owner, attr, name in _public_targets(module, layer):
                original = vars(owner)[attr]
                wrapper = self._wrap(original, name, layer)
                sites = [(owner, attr)]
                if owner is module:
                    sites = [(m, n) for m in self.modules.values()
                             for n, v in vars(m).items() if v is original]
                for site, site_attr in sites:
                    self._patched.append((site, site_attr, original))
                    setattr(site, site_attr, wrapper)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []


# ---------------------------------------------------------------------------
# From spans to per-layer metrics
# ---------------------------------------------------------------------------

def covered(intervals, lo, hi):
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span, children):
    """Duration of `span` minus the part of it its child spans cover."""
    kids = [(c.start, c.end) for c in children.get(span.id, ())]
    return (span.end - span.start) - covered(kids, span.start, span.end)


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans):
    """Per-layer figures of one traced `lab` run, rooted at `cli.main`.

    Times are sums of span durations, including spans that raised; a
    layer's share is the union of its spans' intervals over the root span's
    duration.
    """
    roots = [s for s in spans if s.name == "cli.main" and s.parent is None]
    if len(roots) != 1:
        raise ValueError(f"expected one cli.main root span, got {len(roots)}")
    root = roots[0]
    wall = root.end - root.start
    by_name, children = {}, {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent.id, []).append(s)

    def group(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.end - s.start for s in group(name))

    def count(name, key):
        return sum(s.counts[key] for s in group(name) if s.counts)

    def peak(name, key):
        return max((s.counts[key] for s in group(name) if s.counts), default=0.0)

    m = {}
    n = "gridfn.GridFunction.sample"
    m["gridfn.sample.calls"] = len(group(n))
    m["gridfn.sample.points"] = count(n, "points")
    m["gridfn.sample.s"] = total(n)
    m["gridfn.sample.points_per_s"] = _rate(count(n, "points"), total(n))
    m["gridfn.sample.bytes_computed"] = count(n, "bytes")

    n = "kernel.kin_convolve"
    m["kernel.kin_convolve.calls"] = len(group(n))
    m["kernel.kin_convolve.pairs"] = count(n, "pairs")
    m["kernel.kin_convolve.s"] = total(n)
    m["kernel.kin_convolve.self_s"] = sum(self_time(s, children) for s in group(n))
    m["kernel.kin_convolve.pairs_per_s"] = _rate(count(n, "pairs"), total(n))
    m["kernel.adjoint_identity_check.s"] = total("kernel.adjoint_identity_check")
    m["kernel.kolmogorov_residual.s"] = total("kernel.kolmogorov_residual")
    m["kernel.gamma.evals"] = count("kernel.gamma", "evals")
    m["kernel.gamma.s"] = total("kernel.gamma")

    n = "covering.synthesize_ink_spots_instance"
    m["covering.synthesize_ink_spots_instance.calls"] = len(group(n))
    m["covering.synthesize_ink_spots_instance.cells"] = count(n, "cells")
    m["covering.synthesize_ink_spots_instance.s"] = total(n)
    n = "covering.ink_spots_check"
    flagged, checked = count(n, "flagged"), count(n, "stack_checked")
    m["covering.ink_spots_check.s"] = total(n)
    m["covering.ink_spots_check.flagged"] = flagged
    m["covering.ink_spots_check.stack_checked"] = checked
    m["covering.ink_spots_check.checked_ratio"] = checked / flagged if flagged else 1.0
    m["covering.RasterMask.add.calls"] = len(group("covering.RasterMask.add"))
    m["covering.RasterMask.add.s"] = total("covering.RasterMask.add")
    m["covering.maximal_function.s"] = total("covering.maximal_function")

    n = "solvers.solve_elliptic"
    work = sum(s.counts["unknowns"] * s.counts["iterations"]
               for s in group(n) if s.counts)
    m["solvers.solve_elliptic.calls"] = len(group(n))
    m["solvers.solve_elliptic.unknowns"] = count(n, "unknowns")
    m["solvers.solve_elliptic.iterations"] = count(n, "iterations")
    m["solvers.solve_elliptic.s"] = total(n)
    m["solvers.solve_elliptic.ns_per_unknown_iter"] = 1e9 * _rate(total(n), work)
    m["solvers.solve_elliptic.final_residual"] = peak(n, "final_residual")
    n = "solvers.solve_kinetic_fp"
    m["solvers.solve_kinetic_fp.calls"] = len(group(n))
    m["solvers.solve_kinetic_fp.cell_steps"] = count(n, "cell_steps")
    m["solvers.solve_kinetic_fp.s"] = total(n)
    m["solvers.solve_kinetic_fp.cell_steps_per_s"] = _rate(count(n, "cell_steps"), total(n))
    m["solvers.solve_kinetic_fp.mass_drift"] = peak(n, "mass_drift")

    n = "geometry.kinetic_distance_batch"
    m["geometry.kinetic_distance_batch.pairs"] = count(n, "pairs")
    m["geometry.kinetic_distance_batch.s"] = total(n)
    m["geometry.kinetic_distance_batch.pairs_per_s"] = _rate(count(n, "pairs"), total(n))
    m["geometry.kinetic_distance_batch.max_gap"] = peak(n, "max_gap")
    n = "geometry.kinetic_distance"
    m["geometry.kinetic_distance.calls"] = len(group(n))
    m["geometry.kinetic_distance.s"] = total(n)
    m["geometry.kinetic_distance.errors"] = sum(1 for s in group(n) if s.error)
    m["geometry.group_ops.calls"] = sum(len(group(g)) for g in GROUP_OPS)
    m["geometry.group_ops.s"] = sum(total(g) for g in GROUP_OPS)

    m["degiorgi.oscillation_profile.s"] = total("degiorgi.oscillation_profile")
    m["degiorgi.harnack_quotient.s"] = total("degiorgi.harnack_quotient")

    below = [(s.start, s.end) for s in spans if s.layer != "cli"]
    m["cli.self_s"] = wall - covered(below, root.start, root.end)
    m["cli.write_csv.rows"] = count("cli.write_csv", "rows")
    m["cli.write_csv.s"] = total("cli.write_csv")

    for layer in LAYERS[:-1]:
        own = [(s.start, s.end) for s in spans if s.layer == layer]
        m[f"{layer}.share"] = covered(own, root.start, root.end) / wall
    return m


def metric_names():
    """Names of the metrics `layer_metrics` reports, in report order."""
    root = Span(0, "cli.main", "cli", None, 0.0)
    root.end = 1.0
    return list(layer_metrics([root]))
