"""Tracing from outside the program: spans at layer boundaries, plus counts.

The tracer replaces functions through module attributes; the program's own
files are untouched.  It wraps every public module-level function of each
layer module, the private functions the benchmark calls directly, and every
alias of those functions that another layer module imported by name (so
``from wreathembed.orders import fs_compare`` in ``cli`` is traced too).
Oracles returned by ``base_groups`` functions annotated ``-> GroupOracle``
and ``orders`` functions annotated ``-> OrderOracle`` get their callable
fields wrapped as the ``base_groups.oracle`` and ``orders.less``
boundaries, and the enumeration's ``halting``/``cycling_at`` methods are
wrapped as the ``machines`` boundary.

A call opens a span (name, start, end, parent) only when it crosses into a
different layer; a call within the same layer is counted but adds no span,
which keeps the span list small enough to hold in memory.  Spans are kept in
flat arrays and written once, at the end of the run.  A layer's self time is
the summed duration of its spans minus the part of each that its child spans
cover.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
import types
from array import array
from collections import Counter

LAYERS = ("words", "wreath", "twogen", "base_groups", "machines", "orders", "reductions", "cli")

# Private functions the benchmark calls directly (see workloads.SeparateMock).
EXTRA = {("reductions", "_sign")}

ENUM_METHODS = ("halting", "cycling_at")


class Recorder:
    """Spans in parallel arrays; ``stack`` holds the open span indices."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.layers = [""]  # so that the benchmark's own "bench" spans open too
        self.counts: Counter = Counter()

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def clear(self) -> None:
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        self.counts.clear()

    def wrap(self, layer: str, name: str, fn, after=None):
        """``fn`` traced as ``layer.name``; ``after(parent_layer, result)``
        sees each result and may replace it."""
        key = f"{layer}.{name}"
        nid = self.intern(key)
        counts, layers, stack = self.counts, self.layers, self.stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[key] += 1
            caller = layers[-1]
            if caller == layer:
                result = fn(*args, **kwargs)
            else:
                idx = len(start)
                name_id.append(nid)
                parent.append(stack[-1])
                start.append(clock())
                end.append(0.0)
                stack.append(idx)
                layers.append(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end[idx] = clock()
                    stack.pop()
                    layers.pop()
            if after is not None:
                result = after(caller, result)
            return result

        return traced

    def spans(self) -> list[tuple[str, float, float, int]]:
        return [
            (self.names[n], s, e, p)
            for n, s, e, p in zip(self.name_id, self.start, self.end, self.parent)
        ]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "spans": self.spans(),
                    "counts": dict(sorted(self.counts.items())),
                },
                fh,
            )


def self_times(spans) -> list[float]:
    """Per span: its duration minus the union of its children's intervals,
    each clipped to the span.  ``spans`` holds (name, start, end, parent)
    with ``parent`` an index into ``spans`` or -1."""
    children: dict[int, list[int]] = {}
    for i, (_, _, _, p) in enumerate(spans):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i, (_, s, e, _) in enumerate(spans):
        covered, reach = 0.0, s
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], e)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((e - s) - covered)
    return out


def layer_self_times(spans) -> dict[str, float]:
    out: dict[str, float] = {}
    for (name, *_), t in zip(spans, self_times(spans)):
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + t
    return out


class Tracer:
    """Installs the wrappers on the given layer modules and removes them."""

    def __init__(self, mods: dict) -> None:
        self.mods = mods
        self.rec = Recorder()
        self._patched: list[tuple[object, str, object]] = []

    # -- counting hooks, run after each wrapped call ------------------------

    def _point(self, caller: str, result):
        # An inner decide issued by a twogen scan; trivial values are waste.
        if caller == "twogen":
            self.rec.counts["twogen.points"] += 1
            if getattr(result, "trivial", result) is True:
                self.rec.counts["twogen.points_trivial"] += 1
        return result

    def _oracle_call(self, caller: str, result):
        if caller == "wreath":
            self.rec.counts["wreath.points"] += 1
        return result

    def _compare(self, caller: str, result):
        if caller != "orders":
            self.rec.counts["orders.compare_calls"] += 1
            if caller == "reductions":
                self.rec.counts["reductions.compares"] += 1
        return result

    def _wrap_fields(self, obj, layer: str, name: str, after):
        changes = {
            f.name: self.rec.wrap(layer, name, value, after)
            for f in dataclasses.fields(obj)
            if callable(value := getattr(obj, f.name))
        }
        return dataclasses.replace(obj, **changes)

    def _group_oracle(self, caller: str, result):
        return self._wrap_fields(result, "base_groups", "oracle", self._oracle_call)

    def _order_oracle(self, caller: str, result):
        return self._wrap_fields(result, "orders", "less", self._compare)

    def _hook(self, layer: str, name: str, fn):
        ret = fn.__annotations__.get("return")
        ret = getattr(ret, "__name__", ret)
        if layer == "base_groups" and ret == "GroupOracle":
            return self._group_oracle
        if layer == "orders" and ret == "OrderOracle":
            return self._order_oracle
        if layer == "wreath" and name in ("is_trivial", "semi_trivial"):
            return self._point
        if layer == "orders" and ("less" in name or "compare" in name):
            return self._compare
        return None

    # -- install / uninstall ------------------------------------------------

    def _patch(self, obj, attr: str, value) -> None:
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        wrapped = {}
        for layer, mod in self.mods.items():
            for attr, fn in vars(mod).items():
                if (
                    isinstance(fn, types.FunctionType)
                    and fn.__module__ == mod.__name__
                    and (not attr.startswith("_") or (layer, attr) in EXTRA)
                ):
                    wrapped[fn] = self.rec.wrap(layer, attr, fn, self._hook(layer, attr, fn))
        for mod in self.mods.values():
            for attr, fn in list(vars(mod).items()):
                if isinstance(fn, types.FunctionType) and fn in wrapped:
                    self._patch(mod, attr, wrapped[fn])
        enum_cls = getattr(self.mods["machines"], "DovetailEnumeration", None)
        for meth in ENUM_METHODS:
            if enum_cls is not None and hasattr(enum_cls, meth):
                self._patch(enum_cls, meth, self.rec.wrap("machines", meth, getattr(enum_cls, meth)))

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._patched):
            setattr(obj, attr, value)
        self._patched.clear()

    def count_enum(self, enum_n):
        """``enum_n`` counted as ``base_groups.enum_fetches``; no span, since
        the merge state fetches once per unit of fuel."""
        counts = self.rec.counts

        def fetch(i):
            counts["base_groups.enum_fetches"] += 1
            return enum_n(i)

        return fetch

    # -- metrics ------------------------------------------------------------

    def metrics(self, traced_s: float, untraced_s: float) -> dict:
        """Every per-layer metric; layers that did no work report 0."""
        counts = self.rec.counts
        selfs = layer_self_times(self.rec.spans())
        enum = getattr(self.mods["machines"], "_shared", None)
        ticks = getattr(enum, "_tick", 0)
        decided = len(getattr(enum, "halted", ())) + len(getattr(enum, "cycling", ()))
        points = counts["twogen.points"]
        indices = counts["reductions.separator"]
        out = {f"{layer}.self_s": (selfs.get(layer, 0.0), "s") for layer in LAYERS}
        out.update(
            {
                "twogen.points": (points, "count"),
                "twogen.points_trivial_ratio": (
                    counts["twogen.points_trivial"] / points if points else 0.0, "ratio"),
                "wreath.points": (counts["wreath.points"], "count"),
                "words.parse_calls": (counts["words.parse_word"], "count"),
                "base_groups.oracle_calls": (counts["base_groups.oracle"], "count"),
                "base_groups.enum_fetches": (counts["base_groups.enum_fetches"], "count"),
                "machines.ticks": (ticks, "count"),
                "machines.ticks_per_s": (
                    ticks / selfs["machines"] if selfs.get("machines") else 0.0, "1/s"),
                "machines.live_runs": (len(getattr(enum, "_states", ())), "count"),
                "machines.decided_per_tick": (decided / ticks if ticks else 0.0, "ratio"),
                "orders.compare_calls": (counts["orders.compare_calls"], "count"),
                "reductions.compares_per_index": (
                    counts["reductions.compares"] / indices if indices else 0.0,
                    "ratio"),
                "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
            }
        )
        return out
