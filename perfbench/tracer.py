"""Spans around the public functions of the xtoplat modules.

The tracer patches the program from the outside: every module-level
binding of a traced function, in every loaded ``xtoplat`` module, is
replaced by a wrapper that records one span per call.  A span is the list
``[name, start, end, parent, job, sizes]``: ``parent`` is the index of the
enclosing span (-1 at the top), ``job`` the index of the job being run,
and ``sizes`` the counts read off the return value (``None`` when the
function records no counts or the call was answered from an
``lru_cache``).  Spans stay in memory until :meth:`Tracer.dump`.

Self time is a span's duration minus the durations of its direct
children; spans of one thread nest, so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

# The modules traced, one layer each, in pipeline order.
LAYERS = (
    "cli",
    "formats",
    "poset",
    "lattice",
    "topology",
    "semiring",
    "separation",
    "enumeration",
    "verify",
)

# Methods traced besides the public module-level functions.
METHODS = {
    "lattice": ("FiniteLattice.validate",),
    "poset": ("FinitePoset.upset_masks",),
}

# Counts recorded from a call: name -> f(args, result) -> tuple of ints.
SIZES = {
    "lattice.FiniteLattice.validate": lambda args, result: (
        args[0].poset.n,
        2 * args[0].poset.n ** 2,
    ),
    "topology.build_space": lambda args, result: (
        result.n_points,
        len(result.closed_family),
        result.lattice.n,
    ),
    "semiring.ideals": lambda args, result: (len(result),),
    "semiring.spectrum": lambda args, result: (len(result.spec),),
    "enumeration.all_posets": lambda args, result: (len(result),),
}


def _public_functions(module):
    """(name, callable) for each public function defined in ``module``.

    ``lru_cache`` wrappers count as functions of the module they wrap.
    """
    for name, value in vars(module).items():
        if name.startswith("_"):
            continue
        inner = getattr(value, "__wrapped__", value)
        if inspect.isfunction(inner) and inner.__module__ == module.__name__:
            yield name, value


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = -1
        self.wrapped: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        sizes_of = SIZES.get(name)
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            misses = cache_info().misses if cache_info else 0
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if sizes_of and (not cache_info or cache_info().misses != misses):
                span[5] = sizes_of(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function at every binding in ``xtoplat.*``."""
        replacements = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"xtoplat.{layer}")
            except ModuleNotFoundError:
                continue
            for fname, fn in _public_functions(module):
                name = f"{layer}.{fname}"
                replacements[id(fn)] = (fn, self._wrap(name, fn))
                self.wrapped.append(name)
            for qualname in METHODS.get(layer, ()):
                cls_name, method = qualname.split(".")
                cls = getattr(module, cls_name, None)
                if cls is None or method not in vars(cls):
                    continue
                name = f"{layer}.{qualname}"
                setattr(cls, method, self._wrap(name, vars(cls)[method]))
                self.wrapped.append(name)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "xtoplat" and not mod_name.startswith("xtoplat."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"wrapped": self.wrapped, "spans": self.spans}, handle)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


class Summary:
    """Per-name and per-layer totals of one traced run, or of the spans
    of the jobs whose indices are in ``jobs``."""

    def __init__(self, trace: dict, jobs: set[int] | None = None):
        spans = trace["spans"]
        self.wrapped = set(trace["wrapped"])
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.sizes: dict[str, list[int]] = {}
        for span, own in zip(spans, self_times(spans)):
            if jobs is not None and span[4] not in jobs:
                continue
            name, sizes = span[0], span[5]
            self.self_s[name] += own
            self.self_s[name.split(".", 1)[0]] += own
            self.calls[name] += 1
            if sizes is not None:
                total = self.sizes.setdefault(name, [0] * len(sizes))
                for k, value in enumerate(sizes):
                    total[k] += value

    def has(self, need: str) -> bool:
        """``need`` is a traced name, or a layer with a traced name."""
        if "." in need:
            return need in self.wrapped
        return any(name.startswith(need + ".") for name in self.wrapped)

    def size(self, name: str, k: int) -> int:
        return self.sizes.get(name, [0] * (k + 1))[k]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


_VALIDATE = "lattice.FiniteLattice.validate"
_BUILD = "topology.build_space"

# name -> (unit, traced names or layers it needs, value from a Summary).
PER_LAYER = {
    "cli.self_s": ("s", ("cli",), lambda t: t.self_s["cli"]),
    "formats.self_s": ("s", ("formats",), lambda t: t.self_s["formats"]),
    "poset.self_s": ("s", ("poset",), lambda t: t.self_s["poset"]),
    "poset.upset_masks_s": (
        "s",
        ("poset.FinitePoset.upset_masks",),
        lambda t: t.self_s["poset.FinitePoset.upset_masks"],
    ),
    "lattice.self_s": ("s", ("lattice",), lambda t: t.self_s["lattice"]),
    "lattice.upset_lattice_s": (
        "s",
        ("lattice.upset_lattice",),
        lambda t: t.self_s["lattice.upset_lattice"],
    ),
    "lattice.validate_s": ("s", (_VALIDATE,), lambda t: t.self_s[_VALIDATE]),
    "lattice.elements": ("count", (_VALIDATE,), lambda t: t.size(_VALIDATE, 0)),
    "lattice.table_cells": ("count", (_VALIDATE,), lambda t: t.size(_VALIDATE, 1)),
    "topology.self_s": ("s", ("topology",), lambda t: t.self_s["topology"]),
    "topology.build_space_s": ("s", (_BUILD,), lambda t: t.self_s[_BUILD]),
    "topology.build_space_calls": ("count", (_BUILD,), lambda t: t.calls[_BUILD]),
    "topology.points": ("count", (_BUILD,), lambda t: t.size(_BUILD, 0)),
    "topology.closed_sets": ("count", (_BUILD,), lambda t: t.size(_BUILD, 1)),
    "topology.point_share": (
        "ratio",
        (_BUILD,),
        lambda t: _ratio(t.size(_BUILD, 0), t.size(_BUILD, 2)),
    ),
    "semiring.self_s": ("s", ("semiring",), lambda t: t.self_s["semiring"]),
    "semiring.ideals_s": (
        "s",
        ("semiring.ideals",),
        lambda t: t.self_s["semiring.ideals"],
    ),
    "semiring.spectrum_s": (
        "s",
        ("semiring.spectrum",),
        lambda t: t.self_s["semiring.spectrum"],
    ),
    "semiring.ideal_lattice_s": (
        "s",
        ("semiring.ideal_lattice",),
        lambda t: t.self_s["semiring.ideal_lattice"],
    ),
    "semiring.spec_space_s": (
        "s",
        ("semiring.spec_space",),
        lambda t: t.self_s["semiring.spec_space"],
    ),
    "semiring.ideals": (
        "count",
        ("semiring.ideals",),
        lambda t: t.size("semiring.ideals", 0),
    ),
    "semiring.spec_points": (
        "count",
        ("semiring.spectrum",),
        lambda t: t.size("semiring.spectrum", 0),
    ),
    "semiring.spec_share": (
        "ratio",
        ("semiring.ideals", "semiring.spectrum"),
        lambda t: _ratio(t.size("semiring.spectrum", 0), t.size("semiring.ideals", 0)),
    ),
    "separation.self_s": ("s", ("separation",), lambda t: t.self_s["separation"]),
    "separation.report_s": (
        "s",
        ("separation.separation_report",),
        lambda t: t.self_s["separation.separation_report"],
    ),
    "separation.classify_s": (
        "s",
        ("separation.classify_points",),
        lambda t: t.self_s["separation.classify_points"],
    ),
    "separation.cross_check_s": (
        "s",
        ("separation.cross_check",),
        lambda t: t.self_s["separation.cross_check"],
    ),
    "separation.spaces": (
        "count",
        ("separation.separation_report",),
        lambda t: t.calls["separation.separation_report"],
    ),
    "enumeration.self_s": ("s", ("enumeration",), lambda t: t.self_s["enumeration"]),
    "enumeration.all_posets_s": (
        "s",
        ("enumeration.all_posets",),
        lambda t: t.self_s["enumeration.all_posets"],
    ),
    "enumeration.canonical_form_s": (
        "s",
        ("enumeration.canonical_form",),
        lambda t: t.self_s["enumeration.canonical_form"],
    ),
    "enumeration.canonical_calls": (
        "count",
        ("enumeration.canonical_form",),
        lambda t: t.calls["enumeration.canonical_form"],
    ),
    "enumeration.posets": (
        "count",
        ("enumeration.all_posets",),
        lambda t: t.size("enumeration.all_posets", 0),
    ),
    "enumeration.accept_ratio": (
        "ratio",
        ("enumeration.all_posets", "enumeration.canonical_form"),
        lambda t: _ratio(
            t.size("enumeration.all_posets", 0), t.calls["enumeration.canonical_form"]
        ),
    ),
    "verify.self_s": ("s", ("verify",), lambda t: t.self_s["verify"]),
    "verify.xct_s": ("s", ("verify.verify_xct",), lambda t: t.self_s["verify.verify_xct"]),
    "verify.quarter_s": (
        "s",
        ("verify.verify_quarter",),
        lambda t: t.self_s["verify.verify_quarter"],
    ),
    "verify.discrete_s": (
        "s",
        ("verify.verify_discrete",),
        lambda t: t.self_s["verify.verify_discrete"],
    ),
    "verify.forest_s": (
        "s",
        ("verify.verify_forest",),
        lambda t: t.self_s["verify.verify_forest"],
    ),
}


def layer_metrics(trace: dict) -> tuple[dict[str, dict], list[str], Summary]:
    """(metrics present, names of absent metrics, summary) of one trace.

    A metric is absent when a function or layer it reads is no longer
    traced, e.g. because the program renamed or removed it.
    """
    summary = Summary(trace)
    metrics, absent = {}, []
    for name, (unit, needs, value) in PER_LAYER.items():
        if all(summary.has(need) for need in needs):
            metrics[name] = {"value": value(summary), "unit": unit}
        else:
            absent.append(name)
    return metrics, absent, summary
