"""Span tracing for the traced run (`--trace 1`).

The tracer wraps module attributes of the package from outside, at run
time; nothing under src/ is instrumented.  A wrapped attribute is also
replaced in every package module that imported the same object by name,
so calls through `from .x import f` bindings are caught too.  Spans
(name, start, end, parent) stay in memory in flat arrays until
`summary()`.  A hook whose target no longer exists is recorded as absent.

This module names private functions of the package; only the traced run
imports it.
"""

from __future__ import annotations

import functools
import os
import sys
import types
from array import array
from time import perf_counter

import numpy as np


def _anchor_ties(tracer, args):
    key = np.asarray(args[0])
    tracer.counters["anchor_ties"] += int(np.count_nonzero(key == key.max()))


def _csv_bytes(tracer, args):
    tracer.counters["csv_bytes"] += os.path.getsize(args[0])


def _roll_in_step(tracer, args):
    if tracer.depth.get("solver.step"):
        tracer.counters["roll_in_step"] += 1


# (module, attribute, span name, called before the span, called after it).
# "np.<f>" wraps numpy's f as that one module sees it.
HOOKS = (
    ("sgnwaves.solver", "_step_arrays", "solver.step", None, None),
    ("sgnwaves.solver", "_hydro_step", "solver.hydro", None, None),
    ("sgnwaves.solver", "_nonhydro_pressure", "solver.pressure", None, None),
    ("sgnwaves.solver", "solve_banded", "solver.banded_solve", None, None),
    ("sgnwaves.solver", "_anchor_cell", "solver.anchor", _anchor_ties, None),
    ("sgnwaves.solver", "np.roll", "solver.roll", _roll_in_step, None),
    ("sgnwaves.solver", "diagnostics", "solver.diagnostics", None, None),
    ("sgnwaves.solver", "phase_portrait", "solver.diagnostics", None, None),
    ("sgnwaves.solver", "_write_field_csv", "solver.csv_write", None, _csv_bytes),
    ("sgnwaves.solver", "_write_portrait_csv", "solver.csv_write", None, _csv_bytes),
    ("sgnwaves.solver", "_write_diag_csv", "solver.csv_write", None, _csv_bytes),
    ("sgnwaves.solver", "_write_manifest", "solver.csv_write", None, _csv_bytes),
    ("sgnwaves.modulation", "state_at_rest", "modulation.state", None, None),
    ("sgnwaves.modulation", "assemble_AB", "modulation.assemble", None, None),
    ("sgnwaves.modulation", "_pencil_charpoly", "modulation.charpoly", None, None),
    ("sgnwaves.modulation", "np.roots", "modulation.roots", None, None),
    ("sgnwaves.modulation", "resultant_quartic", "modulation.resultant", None, None),
    ("sgnwaves.waves", "averaged_h", "waves.averages", None, None),
    ("sgnwaves.waves", "averaged_hinv", "waves.averages", None, None),
    ("sgnwaves.waves", "wavelength", "waves.averages", None, None),
    ("sgnwaves.waves", "constants_from_roots", "waves.constants", None, None),
    ("sgnwaves.waves", "profile", "waves.profile", None, None),
    ("sgnwaves.elliptic", "ellip_K", "elliptic", None, None),
    ("sgnwaves.elliptic", "ellip_E", "elliptic", None, None),
    ("sgnwaves.elliptic", "ellip_Pi", "elliptic", None, None),
)
CLI_HOOKS = (("sgnwaves.cli", "main", "cli.command", None, None),)


class Tracer:
    """In-memory spans; wrappers record only while `on` is set."""

    def __init__(self):
        self.on = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.depth: dict[str, int] = {}
        self.counters: dict[str, float] = {"anchor_ties": 0, "csv_bytes": 0, "roll_in_step": 0}
        self.absent: list[str] = []
        self._children: list[dict] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, pre=None, post=None):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(self, args)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            self.depth[name] = self.depth.get(name, 0) + 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.start[idx] = t0
                self.end[idx] = t1
                self._stack.pop()
                self.depth[name] -= 1
                if post is not None:
                    post(self, args)

        return traced

    def merge(self, summary: dict) -> None:
        """Add a span summary written by a traced child process."""
        self._children.append(summary)

    def summary(self) -> dict:
        """Per span name: call count, inclusive and self seconds; plus counters."""
        nid = np.frombuffer(self.name_id, dtype=np.int32) if len(self.name_id) else np.zeros(0, int)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start) if len(self.end) else np.zeros(0)
        parent = np.frombuffer(self.parent, dtype=np.int32) if len(self.parent) else np.zeros(0, int)
        own = dur.copy()
        nested = parent >= 0
        np.subtract.at(own, parent[nested], dur[nested])
        k = len(self.names)
        count = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        self_s = np.bincount(nid, weights=own, minlength=k)
        spans = {
            name: {"count": int(count[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }
        out = {"spans": spans, "counters": dict(self.counters),
               "absent": sorted(set(self.absent)), "n_spans": int(nid.size)}
        for child in self._children:
            for name, s in child["spans"].items():
                mine = out["spans"].setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
                for key in mine:
                    mine[key] += s[key]
            for key, val in child["counters"].items():
                out["counters"][key] = out["counters"].get(key, 0) + val
            out["absent"] = sorted(set(out["absent"]) | set(child["absent"]))
            out["n_spans"] += child["n_spans"]
        return out


def install(tracer: Tracer, hooks=HOOKS):
    """Wrap every hook target; return a function that puts the originals back."""
    package = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "sgnwaves" or n.startswith("sgnwaves."))]
    undo = []
    for modname, attr, span, pre, post in hooks:
        mod = sys.modules.get(modname)
        target = f"{modname}.{attr}"
        if attr.startswith("np."):
            base = getattr(mod, "np", None)
            fname = attr[3:]
            if base is None or not callable(getattr(base, fname, None)):
                tracer.absent.append(target)
                continue
            if not getattr(base, "_perfbench_proxy", False):
                proxy = types.ModuleType(base.__name__)
                proxy.__dict__.update(vars(base))
                proxy._perfbench_proxy = True
                undo.append((mod, "np", base))
                mod.np = base = proxy
            setattr(base, fname, tracer.wrap(span, getattr(base, fname), pre, post))
            continue
        orig = getattr(mod, attr, None)
        if orig is None or not callable(orig):
            tracer.absent.append(target)
            continue
        wrapped = tracer.wrap(span, orig, pre, post)
        for m in package:
            if vars(m).get(attr) is orig:
                undo.append((m, attr, orig))
                setattr(m, attr, wrapped)

    def restore():
        for m, attr, orig in reversed(undo):
            setattr(m, attr, orig)

    return restore
