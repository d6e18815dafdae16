"""In-memory spans around matchcert's public functions, and their arithmetic.

A :class:`Tracer` wraps the functions named in :data:`TRACED` on every
``matchcert`` module that holds them, so a caller that resolved a name at
import time (``from .matchers import run_query``) reaches the wrapper too.
No file of the package changes. Each call becomes a span (id, parent,
name, start, end) appended to a list; nothing is written until the run
ends. A layer's self time is its span's duration minus the part of that
interval covered by its child spans.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import weakref
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

# Public functions traced per layer module. Small per-node helpers (for
# example query.single_node_precision) are left out: they run thousands of
# times per trial and would add overhead without naming a layer boundary.
TRACED: dict[str, tuple[str, ...]] = {
    "synth": ("generate_pair",),
    "graphs": (
        "make_network",
        "make_match_set",
        "by_x",
        "load_network",
        "save_network",
        "load_matches",
        "save_matches",
    ),
    "sampling": (
        "sample_without_replacement",
        "stream_without_replacement",
        "split_train_validation",
    ),
    "matchers": ("run_batch", "run_query"),
    "query": (
        "holdout_query_bounds",
        "complete_query_recall",
        "complete_query_precision",
        "error_rate_bounds",
        "true_query_metrics",
        "true_error_rate",
    ),
    "batch": (
        "holdout_batch_recall",
        "holdout_batch_precision",
        "complete_batch_recall",
        "complete_batch_precision",
        "true_batch_metrics",
    ),
    "bounds": ("bound_mean", "hypergeom_invert_lower", "hypergeom_invert_upper"),
    "reports": ("digest_of", "combine_reports"),
    "coverage": ("run_trial",),
    "cli": ("main", "cmd_gen", "cmd_match", "cmd_validate_batch", "cmd_validate_query"),
}

# bound_mean spans are named per bound family: bounds.bound_mean.<family>.
BOUND_FAMILIES = ("hoeffding", "ebs", "hypergeometric")

DISTINCT_BATCHES = "matchers.run_batch.distinct"


def _bound_mean_span(args, kwargs) -> str:
    method = args[2] if len(args) > 2 else kwargs["method"]
    family = "ebs" if method.name == "EBS" else method.name.lower()
    return f"bounds.bound_mean.{family}"


def span_name(layer: str, func: str) -> str:
    return f"{layer}.{func.removeprefix('cmd_')}"


def traced_names() -> list[str]:
    """Every span name a Tracer can record, in a fixed order."""
    names = []
    for layer, funcs in TRACED.items():
        for func in funcs:
            if (layer, func) == ("bounds", "bound_mean"):
                names += [f"bounds.bound_mean.{f}" for f in BOUND_FAMILIES]
            else:
                names.append(span_name(layer, func))
    return names


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float


class Tracer:
    """Collects spans in memory; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        # Plain (id, parent, name, start, end) tuples: the cheapest record
        # to append, since a traced coverage trial makes ~7,000 spans.
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = {DISTINCT_BATCHES: 0}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []
        self._batch_results: dict[int, weakref.ref] = {}

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        return self._wrap(name, fn)(*args, **kwargs)

    def adopt(self, spans: list[Span], parent: int) -> None:
        """Graft spans recorded by another process under span ``parent``."""
        new_id = {s[0]: next(self._ids) for s in spans}
        for sid, sparent, name, start, end in spans:
            self.spans.append(
                (new_id[sid], parent if sparent is None else new_id[sparent],
                 name, start, end)
            )

    def _wrap(self, name, fn, after=None):
        """A wrapper recording one span per call. ``name`` is a string or a
        function of the call's arguments; ``after`` sees each result."""
        spans, stack, ids = self.spans, self._stack, self._ids
        fixed = name if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            span = fixed or name(args, kwargs)
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.append((sid, parent, span, start, perf_counter()))
                stack.pop()
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrapper(self, layer: str, func: str, fn):
        if (layer, func) == ("bounds", "bound_mean"):
            return self._wrap(_bound_mean_span, fn)
        if (layer, func) == ("matchers", "run_batch"):
            return self._wrap("matchers.run_batch", fn, after=self._note_batch)
        return self._wrap(span_name(layer, func), fn)

    def _note_batch(self, result) -> None:
        # A cache hit hands back the object an earlier call returned; a
        # new object means the percolation (or attribute match) really ran.
        ref = self._batch_results.get(id(result))
        if ref is not None and ref() is result:
            return
        self.counters[DISTINCT_BATCHES] += 1
        self._batch_results[id(result)] = weakref.ref(result)

    def install(self) -> None:
        importlib.import_module("matchcert.cli")  # imports every layer
        modules = [
            m
            for name, m in list(sys.modules.items())
            if name == "matchcert" or name.startswith("matchcert.")
        ]
        for layer, funcs in TRACED.items():
            home = importlib.import_module(f"matchcert.{layer}")
            for func in funcs:
                original = getattr(home, func, None)
                if original is None:
                    self.missing.append(f"matchcert.{layer}.{func}")
                    continue
                wrapper = self._wrapper(layer, func, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- output --------------------------------------------------------

    def dump(self, path: Path, meta: dict | None = None) -> None:
        doc = {
            "meta": meta or {},
            "counters": self.counters,
            "missing": self.missing,
            "spans": self.spans,
        }
        Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def load(path: Path) -> tuple[list[Span], dict[str, int], list[str]]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return [Span(*row) for row in doc["spans"]], doc["counters"], doc["missing"]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: duration minus the union of its children,
    clipped to the span's own interval."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in map(Span._make, spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in map(Span._make, spans):
        covered = 0.0
        reach = s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[s.id] = (s.end - s.start) - covered
    return out


def per_name(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """(calls, total self time) per span name."""
    selfs = self_times(spans)
    out: dict[str, tuple[int, float]] = {}
    for s in map(Span._make, spans):
        calls, total = out.get(s.name, (0, 0.0))
        out[s.name] = (calls + 1, total + selfs[s.id])
    return out
