"""Spans and counters recorded from outside the fusioncalc modules.

`Tracer.install()` replaces public entry points of each module with
wrappers that record a span (name, start, end, parent span, query id).
Modules import functions with `from .x import f`, so a wrapper replaces
every binding of the original function object in every fusioncalc
module; recursive calls then go through the wrapper too and nest as spans
of the same layer.  The name and substitution layers are called hundreds
of thousands of times at about a microsecond each, so they get counters
only.  Spans live in flat arrays and are written out at the end.  An
entry point the package no longer has is skipped; its metrics read zero.

A layer's self time is the time of its spans minus the time their child
spans cover.
"""

from __future__ import annotations

import array
import json
import sys
import time
from collections import Counter
from pathlib import Path

# cli and mll are imported so that install() finds every module loaded.
from fusioncalc import calgebra, cli, mll, realizability  # noqa: F401

SPANNED = {
    "fusion": ("class_of", "related", "equal", "join", "join_all", "meet",
               "restrict", "remove", "map_fusion", "canonical_subst"),
    "process": ("canonical", "substitute", "struct_eq"),
    "pwf": ("equal_pwf", "par", "bullet", "star", "nu_set", "nu_name",
            "relabel_word", "unrelabel"),
    "reduction": ("step", "reduces_within", "pole_regular_on"),
    "realizability": ("check_laws", "Universe.matrix", "Universe.clip",
                      "Universe._table") + tuple(
        f"Universe.{name}" for name in vars(realizability.Universe)
        if name.startswith("op_")),
    "calgebra": tuple(name for name in vars(calgebra)
                      if name.startswith("check_")),
    "mll": ("check_soundness", "extract_realizer", "evaluate_realizer"),
    "cli": ("main",),
}
COUNTED = {
    "subst.construct.calls": ("subst", "Substitution.__post_init__"),
    "subst.compose.calls": ("subst", "compose"),
    "subst.restrict_away.calls": ("subst", "restrict_away"),
    "names.nameset.construct.calls": ("names", "NameSet.__post_init__"),
}
LAYERS = tuple(SPANNED)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.kind = array.array("H")
        self.parent = array.array("l")
        self.query = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack: list[int] = []
        self.query_id = -1
        self.calls: Counter = Counter()  # counters of the count-only layers
        self.tally: Counter = Counter()  # outcomes at the spanned boundaries
        self.seen: dict[str, set] = {"canonical": set(), "class_of": set()}

    # -- wrappers ---------------------------------------------------------

    def spanned(self, name: str, fn):
        kind_id = len(self.names)
        self.names.append(name)
        kind, parent, query = self.kind, self.parent, self.query
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            i = len(kind)
            kind.append(kind_id)
            parent.append(stack[-1] if stack else -1)
            query.append(tracer.query_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def observed(self, name: str, fn):
        """Inner wrapper for the entry points whose outcomes feed a ratio."""
        tally, seen = self.tally, self.seen
        if name in ("canonical", "class_of"):
            keys = seen[name]

            def repeat(*args, **kwargs):
                key = (args, tuple(kwargs.items()))
                if key in keys:
                    tally[f"{name}.repeats"] += 1
                else:
                    keys.add(key)
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    tally[f"{name}.failed"] += 1
                    raise
            return repeat
        if name == "Universe.clip":
            def clip(u, pwfs):
                pwfs = list(pwfs)
                mask = fn(u, pwfs)
                tally["clip.inputs"] += len(pwfs)
                tally["clip.hits"] += bin(mask).count("1")
                return mask
            return clip
        if name == "Universe._table":
            def table(u, label, op):
                if label not in getattr(u, "_tables", ()):
                    tally["table.cells"] += len(u.members) ** 2
                return fn(u, label, op)
            return table
        if name == "step":
            def step(*args, **kwargs):
                out = fn(*args, **kwargs)
                tally["step.reducts"] += len(out)
                return out
            return step
        if name == "check_soundness":
            def soundness(*args, **kwargs):
                out = fn(*args, **kwargs)
                tally["soundness.assignments"] += len(out)
                return out
            return soundness
        return fn

    def wrap_pole(self, pole):
        """Span and tally the pole callable the benchmark builds."""
        tally = self.tally

        def observed_pole(*args, **kwargs):
            out = pole(*args, **kwargs)
            tally["pole.true"] += bool(out)
            return out

        return self.spanned("realizability.pole", observed_pole)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Replace the entry points.  Run it before importing any module
        that binds them with `from fusioncalc.x import f`."""
        for layer, entries in SPANNED.items():
            for entry in entries:
                self._replace(layer, entry, lambda fn, layer=layer,
                              entry=entry: self.spanned(
                                  f"{layer}.{entry.split('.')[-1]}",
                                  self.observed(entry, fn)))
        for name, (module, entry) in COUNTED.items():
            self._replace(module, entry,
                          lambda fn, name=name: self.counted(name, fn))

    @staticmethod
    def _replace(module: str, entry: str, make) -> None:
        mod = sys.modules[f"fusioncalc.{module}"]
        if "." in entry:
            cls_name, attr = entry.split(".")
            cls = getattr(mod, cls_name)
            if attr in vars(cls):
                setattr(cls, attr, make(vars(cls)[attr]))
            return
        original = getattr(mod, entry, None)
        if original is None:
            return
        wrapper = make(original)
        for name, other in list(sys.modules.items()):
            if name == "fusioncalc" or name.startswith("fusioncalc."):
                for attr, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, attr, wrapper)

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self time, call counts and ratios of one round."""
        n = len(self.kind)
        durations = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += durations[i]
        layer_of = [name.split(".")[0] for name in self.names]
        self_s = Counter()
        incl_s = Counter()
        calls = Counter()
        ids = {name: k for k, name in enumerate(self.names)}
        within = ids.get("reduction.reduces_within", -1)
        step = ids.get("reduction.step", -1)
        steps_within = 0
        for i in range(n):
            k = self.kind[i]
            self_s[layer_of[k]] += durations[i] - covered[i]
            incl_s[self.names[k]] += durations[i]
            calls[self.names[k]] += 1
            if k == step:
                p = self.parent[i]
                while p >= 0 and self.kind[p] != within:
                    p = self.parent[p]
                steps_within += p >= 0
        t = self.tally
        # `calls` counts spans, so recursive calls count once per level.
        out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        out.update({
            "realizability.matrix.incl_s": incl_s["realizability.matrix"],
            "realizability.tables.incl_s": incl_s["realizability._table"],
            "realizability.table.cells": t["table.cells"],
            "realizability.clip.hit_frac": _ratio(t["clip.hits"],
                                                  t["clip.inputs"]),
            "realizability.pole.calls": calls["realizability.pole"],
            "realizability.pole.true_frac": _ratio(
                t["pole.true"], calls["realizability.pole"]),
            "reduction.step.calls": calls["reduction.step"],
            "reduction.step.reducts_per_call": _ratio(
                t["step.reducts"], calls["reduction.step"]),
            "reduction.reduces_within.calls":
                calls["reduction.reduces_within"],
            "reduction.reduces_within.steps_per_call": _ratio(
                steps_within, calls["reduction.reduces_within"]),
            "process.canonical.calls": calls["process.canonical"],
            "process.canonical.repeat_frac": _ratio(
                t["canonical.repeats"], calls["process.canonical"]),
            "process.canonical.failed": t["canonical.failed"],
            "process.substitute.calls": calls["process.substitute"],
            "fusion.class_of.calls": calls["fusion.class_of"],
            "fusion.class_of.repeat_frac": _ratio(
                t["class_of.repeats"], calls["fusion.class_of"]),
            "fusion.equal.calls": calls["fusion.equal"],
            "pwf.star.calls": calls["pwf.star"],
            "pwf.nu_set.calls": calls["pwf.nu_set"],
            "pwf.equal_pwf.calls": calls["pwf.equal_pwf"],
            "calgebra.check.calls": sum(
                c for name, c in calls.items()
                if name.startswith("calgebra.check_")),
            "mll.evaluate_realizer.calls": calls["mll.evaluate_realizer"],
            "mll.soundness.assignments": t["soundness.assignments"],
        })
        out.update({name: self.calls[name] for name in COUNTED})
        return out

    def write_spans(self, path: Path) -> None:
        """Span arrays in native byte order, with a JSON header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("kind", "parent", "query", "start", "end")
        header = {"names": self.names, "count": len(self.kind),
                  "fields": [[f, getattr(self, f).typecode] for f in fields],
                  "byteorder": sys.byteorder}
        path.with_suffix(".json").write_text(json.dumps(header))
        with open(path, "wb") as handle:
            for f in fields:
                getattr(self, f).tofile(handle)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
