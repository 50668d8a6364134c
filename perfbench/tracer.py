"""Span recorder for the traced run.

``Recorder.install()`` wraps every public function of the trajrot layers
and rebinds the wrapper at every import site: the defining module, every
other trajrot module that did ``from .x import y``, and the package
namespace.  Nothing under ``src/`` changes.  Each call becomes a span
(function, parent span, start, end, work done, exception raised) kept in
flat in-memory arrays; ``summary()`` folds them into per-layer metrics
and ``dump()`` writes them out once at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "bounds", "flow", "fields", "rotation", "gausslink",
          "crofton", "curves")
PACKAGE = "trajrot"


# Work done by one call, as (work, work2), from its arguments and result.
def _points(args, kw, out):
    pts = args[1] if len(args) > 1 else kw["points"]
    return (1 if np.ndim(pts) == 1 else len(pts)), 0


def _samples_out(args, kw, out):
    return out.n_samples, 0


def _samples_in(args, kw, out):
    return args[0].n_samples, 0


def _pairs(args, kw, out):
    return (args[0].n_samples - 1) * (args[1].n_samples - 1), 0


def _draws(args, kw, out):
    return out.draws, out.draws * args[0].curve.n_samples


def _unsatisfied(args, kw, out):
    return (0 if out.satisfied else 1), 0


_WORK = {
    "fields.field_values": _points,
    "flow.integrate_trajectory": _samples_out,
    "rotation.absolute_rotation_point": _samples_in,
    "rotation.signed_winding_plane": _samples_in,
    "rotation.rotation_around_subspace": _samples_in,
    "gausslink.gauss_rotation_pair": _pairs,
    "crofton.crofton_length_estimate": _draws,
}
_WITNESS_MISS = ("WitnessNotFound", "PreconditionLength")


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


class Recorder:
    def __init__(self):
        self.names: list[str] = []          # "layer.function" per id
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.work2 = array("d")
        self.exc: dict[int, str] = {}       # span -> exception class name
        self._stack: list[int] = []

    def _wrap(self, qualname, fn):
        fid = len(self.names)
        self.names.append(qualname)
        work_of = _WORK.get(qualname)
        if qualname.startswith("bounds.check_"):
            work_of = _unsatisfied
        fids, parent, start, end = self.fid, self.parent, self.start, self.end
        work, work2, excs, stack = self.work, self.work2, self.exc, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            i = len(fids)
            fids.append(fid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            work.append(0.0)
            work2.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                out = fn(*args, **kw)
            except BaseException as exc:
                end[i] = perf_counter()
                stack.pop()
                excs[i] = type(exc).__name__
                raise
            end[i] = perf_counter()
            stack.pop()
            if work_of is not None:
                work[i], work2[i] = work_of(args, kw, out)
            return out

        return wrapper

    def install(self):
        """Wrap the public functions of every layer at every import site."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in _public_functions(mod):
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        sites = [m for name, m in sys.modules.items()
                 if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for mod in sites:
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    def _arrays(self):
        return (np.frombuffer(self.fid, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end),
                np.frombuffer(self.work), np.frombuffer(self.work2))

    def dump(self, path):
        """Write every span, once, at the end of the run."""
        fid, parent, start, end, work, work2 = self._arrays()
        exc_span = sorted(self.exc)
        np.savez(
            path, names=np.array(self.names), fid=fid, parent=parent,
            start=start, end=end, work=work, work2=work2,
            exc_span=np.array(exc_span, dtype=np.int64),
            exc_name=np.array([self.exc[i] for i in exc_span], dtype=str))

    def summary(self, passes, wall_s):
        """Per-layer metrics.  Counts and seconds are per pass (totals
        divided by ``passes``); ``wall_s`` is the traced seconds per pass."""
        fid, parent, start, end, work, work2 = self._arrays()
        dur = end - start
        nested = parent >= 0
        child = np.zeros(len(fid))
        np.add.at(child, parent[nested], dur[nested])
        self_s = dur - child
        pfid = np.where(nested, fid[np.maximum(parent, 0)], -1)
        layer_of = np.array([LAYERS.index(q.split(".")[0]) for q in self.names]
                            + [-1])             # index -1: no parent
        layer, player = layer_of[fid], layer_of[pfid]
        ids = {q: i for i, q in enumerate(self.names)}

        def raised(sel, *exc_names):
            spans = [i for i, e in self.exc.items() if e in exc_names]
            hit = np.zeros(len(fid), dtype=bool)
            hit[spans] = True
            return sel & hit

        def per_pass(x):
            return float(np.sum(x)) / passes

        def rate(seconds, amount, scale):
            amount = float(np.sum(amount))
            return scale * float(np.sum(seconds)) / amount if amount else 0.0

        m = {}
        for k, lay in enumerate(LAYERS):
            sel = layer == k
            m[f"{lay}.calls"] = per_pass(sel)
            m[f"{lay}.self_s"] = per_pass(self_s[sel])
            m[f"{lay}.share"] = m[f"{lay}.self_s"] / wall_s

        evals = [ids["fields.field_values"], ids["fields.eval_field"]]
        outer_eval = np.isin(fid, evals) & ~np.isin(pfid, evals)
        points = work[fid == ids["fields.field_values"]]
        m["fields.points"] = per_pass(points)
        m["fields.us_per_point"] = rate(dur[outer_eval], points, 1e6)

        integ = fid == ids["flow.integrate_trajectory"]
        flow_evals = ((fid == ids["fields.eval_field"])
                      & (pfid == ids["flow.integrate_trajectory"]))
        m["flow.samples_out"] = per_pass(work[integ])
        m["flow.field_evals"] = per_pass(flow_evals)
        m["flow.us_per_sample"] = rate(dur[integ], work[integ], 1e6)
        m["flow.evals_per_sample"] = rate(flow_evals, work[integ], 1.0)

        rotation = LAYERS.index("rotation")
        rot = (layer == rotation) & (player != rotation)
        m["rotation.samples_in"] = per_pass(work[rot])
        m["rotation.us_per_sample"] = rate(dur[rot], work[rot], 1e6)
        m["rotation.too_close"] = per_pass(raised(rot, "DistanceTooSmall"))

        pair = ids["gausslink.gauss_rotation_pair"]
        gauss = (fid == pair) & (pfid != pair)
        m["gausslink.pairs"] = per_pass(work[gauss])
        m["gausslink.ns_per_pair"] = rate(dur[gauss], work[gauss], 1e9)

        crof = fid == ids["crofton.crofton_length_estimate"]
        witness = np.isin(fid, [i for q, i in ids.items()
                                if q.endswith("_witness")])
        m["crofton.draws"] = per_pass(work[crof])
        m["crofton.ns_per_draw_sample"] = rate(dur[crof], work2[crof], 1e9)
        m["crofton.witness_misses"] = per_pass(raised(witness, *_WITNESS_MISS))

        checks = np.isin(fid, [i for q, i in ids.items()
                               if q.startswith("bounds.check_")])
        m["bounds.unsatisfied"] = per_pass(work[checks])
        m["trace.coverage"] = per_pass(dur[~nested]) / wall_s
        return m
