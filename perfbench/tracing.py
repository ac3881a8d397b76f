"""Spans and counts around helibend's layers, recorded from outside the package.

``installed`` swaps the public names one layer calls in the next (looked up
in the calling module's namespace, e.g. ``helibend.pipeline.segment_sections``)
for wrappers that record a span per call and the layer's counts, and puts the
originals back afterwards.  Nothing under ``src/`` is edited.  A target whose
name no longer exists is skipped and reported; a layer that is never entered
records nothing, so its metrics come out absent rather than zero.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
import time
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from importlib import import_module
from typing import Callable


@dataclass(frozen=True)
class Span:
    ident: int
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Keeps spans and counts in memory until ``take`` hands them over."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        # Pool threads start with an empty stack; their work was caused by
        # the span open on the thread that called the CLI.
        self._main_stack = self._stack()
        self._next_ident = 0
        self._spans: list[Span] = []
        self._counts: Counter = Counter()
        self.warning_registry: dict = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            ident = self._next_ident
            self._next_ident += 1
        stack.append(ident)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self._spans.append(Span(ident, name, start, end, parent))

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counts[name] += n

    def take(self) -> tuple[list[Span], Counter]:
        with self._lock:
            spans, counts = self._spans, self._counts
            self._spans, self._counts = [], Counter()
        return spans, counts


def _count_read(tracer, args, result):
    tracer.count("report.read_cloud_csv.bytes", os.path.getsize(args[0]))


def _count_written(tracer, args, result):
    tracer.count("report.write_cloud_csv.bytes", os.path.getsize(args[0]))


def _count_sections(tracer, args, result):
    tracer.count("helix.segment_sections.sections", len(result))


def _count_fit(tracer, args, result):
    tracer.count("conicfit.gn_iterations", result.iterations)
    tracer.count("conicfit.converged", int(result.converged))


@dataclass(frozen=True)
class Target:
    """One wrapped name: ``attr`` in ``module`` (``Class.method`` allowed)."""

    module: str
    attr: str
    layer: str
    command: str  # the CLI command whose path reaches this name
    after: Callable | None = None
    warning: str | None = None  # "module:Class" counted into ``warning_count``
    warning_count: str | None = None


TARGETS = (
    Target("helibend.cli", "read_cloud_csv", "report.read_cloud_csv", "evaluate", _count_read),
    Target("helibend.cli", "evaluate_cloud", "pipeline.evaluate_cloud", "evaluate"),
    Target("helibend.cli", "EvaluationReport.from_result", "report.outputs", "evaluate"),
    Target("helibend.cli", "EvaluationReport.write", "report.outputs", "evaluate"),
    Target("helibend.cli", "sections_csv_text", "report.outputs", "evaluate"),
    Target("helibend.cli", "arc_csv_text", "report.outputs", "evaluate"),
    Target("helibend.pipeline", "segment_sections", "helix.segment_sections", "evaluate",
           _count_sections),
    Target("helibend.pipeline", "canonicalize_section", "geometry.canonicalize_section",
           "evaluate"),
    Target("helibend.pipeline", "detect_direction", "linefit.detect_direction", "evaluate",
           warning="helibend.linefit:LineOffsetWarning",
           warning_count="linefit.offset_warnings"),
    Target("helibend.pipeline", "observe_torsion", "torsion.observe_torsion", "evaluate"),
    Target("helibend.pipeline", "arc_parameters", "helix.arc_parameters", "evaluate"),
    Target("helibend.torsion", "rectify_torsion", "torsion.rectify", "evaluate",
           warning="helibend.errors:AmbiguousBranch",
           warning_count="torsion.ambiguous_branches"),
    Target("helibend.torsion", "fit_trace", "conicfit.fit", "evaluate", _count_fit),
    Target("helibend.torsion", "fit_bookstein", "conicfit.fit", "evaluate", _count_fit),
    Target("helibend.torsion", "fit_gauss_newton", "conicfit.fit", "evaluate", _count_fit),
    Target("helibend.cli", "generate", "helix.generate", "synth"),
    Target("helibend.cli", "write_cloud_csv", "report.write_cloud_csv", "synth", _count_written),
    Target("helibend.cli", "write_truth_csv", "report.write_truth_csv", "synth"),
)

# The span the benchmark opens around ``helibend.cli.main`` on every call.
ROOT_LAYER = "cli.main"


# Counters whose names do not start with the name of the layer that counts them.
_COUNTER_LAYERS = {
    "linefit.offset_warnings": "linefit.detect_direction",
    "torsion.ambiguous_branches": "torsion.rectify",
    "conicfit.gn_iterations": "conicfit.fit",
    "conicfit.converged_ratio": "conicfit.fit",
}


def metric_layer(metric: str) -> str:
    return _COUNTER_LAYERS.get(metric) or metric.rsplit(".", 1)[0]


def layer_commands() -> dict[str, set[str]]:
    commands: dict[str, set[str]] = defaultdict(set)
    for target in TARGETS:
        commands[target.layer].add(target.command)
    return commands


def _resolve(dotted: str):
    module, _, name = dotted.partition(":")
    return getattr(import_module(module), name)


def _wrap(tracer: Tracer, target: Target, fn, category):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(target.layer):
            if category is None:
                result = fn(*args, **kwargs)
            else:
                # helibend runs this layer on the calling thread only, so
                # swapping the process-wide warning filters is safe here.
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = fn(*args, **kwargs)
        if category is not None:
            tracer.count(target.warning_count,
                         sum(issubclass(w.category, category) for w in caught))
            for w in caught:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno,
                                       registry=tracer.warning_registry)
        if target.after is not None:
            target.after(tracer, args, result)
        return result

    return traced


def _lookup(target: Target):
    """(owner, name, raw attribute) of a target, or None when it is gone."""
    try:
        owner = import_module(target.module)
    except ImportError:
        return None
    *path, name = target.attr.split(".")
    for part in path:
        owner = vars(owner).get(part)
        if owner is None:
            return None
    raw = vars(owner).get(name)
    return None if raw is None else (owner, name, raw)


@contextlib.contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Wrap every target for the duration of the block; yields the missing ones."""
    saved = []
    missing = []
    try:
        for target in targets:
            found = _lookup(target)
            if found is None:
                missing.append(f"{target.module}.{target.attr}")
                continue
            owner, name, raw = found
            try:
                category = None if target.warning is None else _resolve(target.warning)
            except (ImportError, AttributeError):
                missing.append(target.warning)
                category = None
            if isinstance(raw, classmethod):
                replacement = classmethod(_wrap(tracer, target, raw.__func__, category))
            else:
                replacement = _wrap(tracer, target, raw, category)
            setattr(owner, name, replacement)
            saved.append((owner, name, raw))
        yield missing
    finally:
        for owner, name, raw in reversed(saved):
            setattr(owner, name, raw)


def _union(intervals) -> float:
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def call_metrics(spans: list[Span], counts: Counter) -> dict[str, float]:
    """Per-layer figures of one traced CLI call.

    For each layer entered: ``busy_s`` (summed span time, which exceeds the
    wall time when pool threads overlap), ``span_s`` (union of its call
    intervals), ``calls``, ``children_s`` (summed time of its direct child
    spans) and ``self_s`` (span time not covered by child spans).  Counts
    recorded by the wrappers are passed through.
    """
    by_layer: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_layer[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)
    out: dict[str, float] = {}
    for layer, group in by_layer.items():
        out[f"{layer}.busy_s"] = sum(s.end - s.start for s in group)
        out[f"{layer}.span_s"] = _union((s.start, s.end) for s in group)
        out[f"{layer}.calls"] = len(group)
        out[f"{layer}.children_s"] = sum(
            c.end - c.start for s in group for c in children[s.ident])
        out[f"{layer}.self_s"] = sum(
            (s.end - s.start)
            - _union((max(c.start, s.start), min(c.end, s.end)) for c in children[s.ident])
            for s in group
        )
    out.update(counts)
    converged = out.pop("conicfit.converged", None)
    if converged is not None and out.get("conicfit.fit.calls"):
        out["conicfit.converged_ratio"] = converged / out["conicfit.fit.calls"]
    return out
