"""Span recorder for the traced benchmark run.

``install`` wraps the public functions of each traced matchstick module,
and the three public ``MatchstickGraph`` methods the benchmark reports, and
rebinds every wrapper wherever the package's modules bind the original, so a
call from one layer into another (``census.face_census`` calling
``graph.faces``) is recorded as a child of its caller's span.  Spans are kept
in flat arrays in memory and written out once, when the run ends.

``lattice`` and ``geometry`` are not wrapped: they are called once per point
and once per segment pair, so a wrapper there would time itself.  Their cost
stays inside the self time of the layer that calls them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from array import array

LAYERS = ("cli", "graph", "census", "components", "trace", "render",
          "isoperimetry", "oracle", "builders")
ALL_MODULES = LAYERS + ("lattice", "geometry")
METHODS = ("validate", "to_json", "from_json")  # of graph.MatchstickGraph

# Work counted from the results that traced calls return.
RESULT_COUNTS = {
    "graph.validate": ("graph.violations", lambda report: len(report.violations)),
    "components.decompose": ("components.k", lambda report: report.k),
    "render.render_svg": ("render.svg_bytes", lambda svg: len(svg.encode("utf-8"))),
}

# Calls counted per operation, so repeated work shows as an exact count.
PER_OP_CALLS = ("graph.validate", "graph.connectivity", "graph.faces",
                "census.face_census", "graph.boundary",
                "components.component_subgraph")


class Recorder:
    """Flat in-memory store of spans: name id, parent index, start, end."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack = [-1]

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        count = RESULT_COUNTS.get(name)
        opener, closer = self.open, self.close

        def wrapper(*args, **kwargs):
            idx = opener(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                closer(idx)
            if count is not None:
                key, measure = count
                self.counts[key] = self.counts.get(key, 0) + measure(result)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- aggregation ------------------------------------------------------

    def self_times(self, lo: int = 0, hi: int | None = None) -> dict:
        """name -> [self seconds, calls] over the spans with index in [lo, hi).

        A range must hold whole subtrees, as one phase of a run does."""
        hi = len(self.name) if hi is None else hi
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
        out: dict[str, list] = {}
        for i in range(lo, hi):
            agg = out.setdefault(self.names[self.name[i]], [0.0, 0])
            agg[0] += self.end[i] - self.start[i] - child[i - lo]
            agg[1] += 1
        return out

    def per_op_calls(self, op_prefix: str = "op.", transparent=("cli.main",)) -> list:
        """For each operation span: each traced call made directly under it (or
        under a `transparent` span such as the CLI entry point, so each CLI
        command is its own call), with how often each PER_OP_CALLS function
        ran inside that call, itself included."""
        n = len(self.name)
        names = [self.names[k] for k in self.name]
        op_of = array("i", [-1]) * n
        call_of = array("i", [-1]) * n
        ops = []
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                if names[i].startswith(op_prefix):
                    ops.append(i)
                    op_of[i] = i
                continue
            op_of[i] = op_of[p]
            if op_of[i] < 0 or op_of[p] == p and names[i] in transparent:
                continue
            call_of[i] = call_of[p] if call_of[p] >= 0 else i
        calls: dict[int, list] = {op: [] for op in ops}
        counts: dict[int, dict] = {}
        for i in range(n):
            c = call_of[i]
            if c == i:
                calls[op_of[i]].append(i)
            if c >= 0 and names[i] in PER_OP_CALLS:
                by_name = counts.setdefault(c, {})
                by_name[names[i]] = by_name.get(names[i], 0) + 1
        return [{"op": names[op], "calls": [{"call": names[c], "counts": counts.get(c, {})}
                                            for c in calls[op]]}
                for op in ops]

    def dump(self, path, extra: dict) -> None:
        """Write every span, the per-operation call counts and `extra` as gzip JSON."""
        doc = dict(extra)
        doc["names"] = self.names
        doc["spans"] = {"name": self.name.tolist(), "parent": self.parent.tolist(),
                        "start": self.start.tolist(), "end": self.end.tolist()}
        doc["per_op_calls"] = self.per_op_calls()
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh)


def install(recorder: Recorder):
    """Wrap every traced function where the package binds it; returns a
    function that restores the originals."""
    mods = {name: importlib.import_module(f"matchstick.{name}") for name in ALL_MODULES}
    mods["__init__"] = importlib.import_module("matchstick")
    restore = []

    def rebind(original, wrapped):
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    restore.append((mod, attr, original))

    for layer in LAYERS:
        mod = mods[layer]
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__ or inspect.isgeneratorfunction(fn)):
                continue
            rebind(fn, recorder.wrap(f"{layer}.{attr}", fn))

    cls = mods["graph"].MatchstickGraph
    for attr in METHODS:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(recorder.wrap(f"graph.{attr}", raw.__func__))
        else:
            wrapped = recorder.wrap(f"graph.{attr}", raw)
        setattr(cls, attr, wrapped)
        restore.append((cls, attr, raw))

    def uninstall():
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)

    return uninstall


def merge(into: dict, other: dict) -> None:
    """Add aggregated self times from another process into `into`."""
    for name, (self_s, calls) in other.items():
        agg = into.setdefault(name, [0.0, 0])
        agg[0] += self_s
        agg[1] += calls
