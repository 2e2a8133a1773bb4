"""Span recorder that wraps the program's public functions from outside.

Every public function of the traced modules, the public methods of
``StokesOperator`` and ``SemigroupCache``, the ``StokesOperator``
constructor and the ``expm`` that ``hydrostokes.semigroup`` calls are
replaced, at every name they are bound to in any ``hydrostokes`` module, by
a wrapper that records a span.  A span
stack gives each span its parent and its self time (duration minus the time
covered by child spans).  Spans stay in memory; the worker writes them out
when it ends.
"""

import functools
import inspect
import os
import sys
from contextlib import contextmanager
from time import perf_counter

TRACED_MODULES = ("fields", "nonlinear", "projection", "semigroup", "solver", "lab", "workbench")
TRACED_CLASSES = {"semigroup": ("StokesOperator", "SemigroupCache")}


def _array(field):
    return field.coeffs if hasattr(field, "coeffs") else field.values


def _nbytes_in_out(args, kwargs, out):
    """Bytes a transform reads and writes, computed from array sizes."""
    return _array(args[0]).nbytes + _array(out).nbytes


def _file_bytes(args, kwargs, out):
    return os.path.getsize(args[0])


_MEASURES = {
    "fields.forward_transform": _nbytes_in_out,
    "fields.inverse_transform": _nbytes_in_out,
    "fields.vertical_derivative": _nbytes_in_out,
    "workbench.write_snapshot": _file_bytes,
}


class Recorder:
    """Holds spans as tuples (call, name, parent, start, end, self_s, bytes)."""

    def __init__(self):
        self.spans = []
        self.call = 0
        self._stack = []  # [span index, time covered by children]

    def wrap(self, name, fn):
        measure = _MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            frame = [len(self.spans), 0.0]
            self.spans.append(None)
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += t1 - t0
                self.spans[frame[0]] = (self.call, name, parent, t0, t1, t1 - t0 - frame[1], 0)
            if measure is not None:
                self.spans[frame[0]] = self.spans[frame[0]][:6] + (measure(args, kwargs, out),)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Trace one unit of work; the spans it records carry a new call id."""
        self.call += 1
        with rebind(_targets(), self.wrap):
            yield


def _targets():
    """(owner, attribute, span name) for everything the recorder wraps."""
    out = []
    for short in TRACED_MODULES:
        mod = sys.modules[f"hydrostokes.{short}"]
        for attr, obj in vars(mod).items():
            public = not attr.startswith("_")
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and public:
                out.append((mod, attr, f"{short}.{attr}"))
        for cname in TRACED_CLASSES.get(short, ()):
            cls = getattr(mod, cname)
            for attr, obj in vars(cls).items():
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    out.append((cls, attr, f"{short}.{attr}"))
    semigroup = sys.modules["hydrostokes.semigroup"]
    out.append((semigroup.StokesOperator, "__init__", "semigroup.operator_init"))
    out.append((semigroup, "expm", "semigroup.expm"))
    return out


@contextmanager
def rebind(targets, make_wrapper):
    """Replace each target at every name it is bound to, then restore.

    A module function is rebound in every ``hydrostokes`` module that
    imported it by name; a method is rebound on its class.
    """
    restore = []
    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "hydrostokes" and m]
    try:
        for owner, attr, name in targets:
            original = vars(owner)[attr]
            wrapper = make_wrapper(name, original)
            for holder in modules if inspect.ismodule(owner) else [owner]:
                for key, val in list(vars(holder).items()):
                    if val is original:
                        restore.append((holder, key, val))
                        setattr(holder, key, wrapper)
        yield
    finally:
        for holder, key, val in reversed(restore):
            setattr(holder, key, val)


def _timed(span, *kinds):
    return [(f"{span}.{k}", "count" if k == "calls" else "s") for k in kinds]


# Per-layer metrics of one unit of work.  A name ending in .calls, .s,
# .self_s or .bytes is that aggregate of the spans named by the rest of it.
PER_LAYER = [
    *_timed("fields.forward_transform", "calls", "s"),
    *_timed("fields.inverse_transform", "calls", "s"),
    *_timed("fields.vertical_derivative", "calls", "s"),
    *_timed("fields.norm_anisotropic", "calls", "s"),
    ("fields.transform_bytes", "B_computed"),
    *_timed("nonlinear.advection", "calls", "s"),
    *_timed("projection.project_hydrostatic", "calls", "s"),
    *_timed("semigroup.operator_init", "calls", "s"),
    *_timed("semigroup.semigroup_apply", "calls", "s"),
    *_timed("semigroup.phi1_apply", "calls", "s"),
    *_timed("semigroup.resolvent_apply", "calls", "s"),
    *_timed("semigroup.eigenvalue_report", "calls", "s"),
    ("semigroup.block_builds", "count"),
    ("semigroup.block_requests", "count"),
    ("semigroup.block_hit_ratio", "ratio"),
    *_timed("solver.full_solve", "s", "self_s"),
    *_timed("solver.reference_solve", "s", "self_s"),
    *_timed("solver.picard_iterate", "s", "self_s"),
    *_timed("solver.mild_residual", "s", "self_s"),
    *_timed("solver.mixed_norm", "calls", "s"),
    *_timed("solver.grad_mixed_norm", "calls", "s"),
    *_timed("solver.split_data", "calls"),
    ("solver.picard_iters", "count"),
    *_timed("lab.semigroup_decay_scan", "s"),
    *_timed("lab.resolution_stability", "s"),
    *_timed("lab.resolvent_scan", "s"),
    *_timed("lab.nonlinear_estimate_scan", "s"),
    ("lab.other.s", "s"),
    *_timed("workbench.write_snapshot", "calls", "s"),
    ("workbench.write_snapshot.bytes", "B"),
    *_timed("workbench.parse_config", "s"),
    *_timed("workbench.initial_data", "s"),
    ("trace.overhead_s", "s"),
]
HIGHER_IS_BETTER = {"semigroup.block_hit_ratio"}
_NAMED_LAB = {"lab.semigroup_decay_scan", "lab.resolution_stability", "lab.resolvent_scan",
              "lab.nonlinear_estimate_scan"}
_AGGREGATES = {"calls": 0, "s": 1, "self_s": 2, "bytes": 3}


def layer_metrics(spans, picard_iters):
    """PER_LAYER values (except trace.overhead_s) from the spans of one unit."""
    agg = {}
    for span in spans:
        row = agg.setdefault(span[1], [0, 0.0, 0.0, 0])
        row[0] += 1
        row[1] += span[4] - span[3]
        row[2] += span[5]
        row[3] += span[6]

    def total(name, kind):
        return agg.get(name, [0, 0.0, 0.0, 0])[_AGGREGATES[kind]]

    requests = total("semigroup.get_or_compute", "calls")
    builds = total("semigroup.expm", "calls")
    out = {
        "fields.transform_bytes": sum(
            total(f"fields.{f}", "bytes")
            for f in ("forward_transform", "inverse_transform", "vertical_derivative")
        ),
        "semigroup.block_builds": builds,
        "semigroup.block_requests": requests,
        "semigroup.block_hit_ratio": (requests - builds) / requests if requests else 0.0,
        "solver.picard_iters": picard_iters,
        "lab.other.s": sum(
            (row[1] for name, row in agg.items()
             if name.startswith("lab.") and name not in _NAMED_LAB),
            0.0,
        ),
    }
    for name, _ in PER_LAYER:
        if name not in out and name != "trace.overhead_s":
            span, kind = name.rsplit(".", 1)
            out[name] = total(span, kind)
    return out
