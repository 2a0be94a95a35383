"""In-memory span tracer installed around the library's layer boundaries.

The tracer wraps module attributes from outside the program: for each
target it looks up the function where it is defined and rebinds every
``polyctrl`` module attribute that holds that same function, so calls made
through an imported alias (``polyctrl.cli.parse_input``,
``polyctrl.numeric.unfold``) are recorded too.  A target whose name no
longer exists is reported as missing and yields no span.

Spans carry name, start, end and parent; counters are summed per name.
Both stay in memory and are written out once, when the traced process ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _input_bytes(args, kwargs, result) -> dict:
    return {"formats.input_bytes": len(_first(args, kwargs).encode("utf-8"))}


def _edges(args, kwargs, result) -> dict:
    return {"hypergraph.edges": len(result.edges)}


def _matched(args, kwargs, result) -> dict:
    return {"structural.matched": len(result.matching)}


def _accessible(args, kwargs, result) -> dict:
    n = _first(args, kwargs).n
    return {"structural.accessible": sum(1 for v in result if v <= n)}


def _iterations(args, kwargs, result) -> dict:
    return {"numeric.iterations": result.iterations}


def _unfold_cells(args, kwargs, result) -> dict:
    tensor = _first(args, kwargs)
    return {"tensor.unfold_cells": tensor.dim * tensor.dim ** (tensor.order - 1)}


# (span name, defining module, attribute, counter).  Each span name also
# counts its own calls under "<span name>.calls".
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cli.run", "polyctrl.cli", "run", None),
    ("formats.parse_input", "polyctrl.formats", "parse_input", _input_bytes),
    ("hypergraph.build_hypergraph", "polyctrl.hypergraph", "build_hypergraph", _edges),
    ("structural.analyze_hypergraph", "polyctrl.structural", "analyze_hypergraph", None),
    ("structural.detect_dilation", "polyctrl.structural", "detect_dilation", _matched),
    ("structural.accessible_set", "polyctrl.structural", "accessible_set", _accessible),
    ("numeric.strong_controllability", "polyctrl.numeric", "strong_controllability",
     _iterations),
    ("tensor.unfold", "polyctrl.tensor", "unfold", _unfold_cells),
    ("system.sample_realization", "polyctrl.system", "sample_realization", None),
    ("generate.pattern_with_rng", "polyctrl.generate", "pattern_with_rng", None),
)


class Tracer:
    """Collects spans as (name, start, end, parent index) and named counts."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None] | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
                self.counts[f"{name}.calls"] += 1
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[key] += value
            return result

        return traced

    def install(self, targets=TARGETS) -> list[str]:
        """Wrap every target; return the names of targets that do not exist."""
        missing = []
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "polyctrl" or name.startswith("polyctrl."))]
        for name, module_name, attr, counter in targets:
            original = getattr(sys.modules.get(module_name), attr, None)
            if not callable(original):
                missing.append(name)
                continue
            traced = self.wrap(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
        return missing

    def dump(self, path: str, missing: list[str]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts, "missing": missing}, handle)


def self_times(spans: list) -> dict[str, float]:
    """Total self time per span name: duration minus time covered by children.

    Spans of one process run on one thread and nest, so the direct
    children of a span never overlap one another.  A span still open when
    the process ended is None and counts for nothing.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span is not None and span[3] is not None:
            child_time[span[3]] += span[2] - span[1]
    totals: dict[str, float] = defaultdict(float)
    for span, covered in zip(spans, child_time):
        if span is not None:
            totals[span[0]] += (span[2] - span[1]) - covered
    return dict(totals)
