"""In-memory span recorder for the traced benchmark runs.

A :class:`Tracer` replaces public ``stride`` functions with wrappers that
record one span per call: the layer name, the enclosing span, the op the
call belongs to, and start and end times.  Each function is patched under
every module attribute that refers to it, so the span appears whichever
name a caller uses (``stride.scoring.content_digest`` and
``stride.runstore.content_digest`` both feed ``digests.content_digest``).
Nothing under ``src/`` is changed; :meth:`Tracer.uninstall` restores the
originals.  Spans stay in memory until :meth:`Tracer.dump`.

This module imports no ``stride`` code at import time, so the CLI wrapper
can time ``import stride.cli`` on its own.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# Functions that get a span, as ``module.function``; the layer name drops
# the ``stride.`` prefix.
SPAN_FUNCTIONS = (
    "stride.io.decode_manifest",
    "stride.io.parse_manifest",
    "stride.io.manifest_violations",
    "stride.io.parse_weight_config",
    "stride.io.report_to_dict",
    "stride.io.report_to_json",
    "stride.io.report_from_dict",
    "stride.io.parse_population",
    "stride.io.parse_rating_record",
    "stride.io.parse_annotations",
    "stride.model.validate_manifest",
    "stride.model.validate_weight_config",
    "stride.scoring.score_dataset",
    "stride.scoring.component_score",
    "stride.scoring.component_breakdowns",
    "stride.digests.content_digest",
    "stride.runstore.save_run",
    "stride.runstore.load_run",
    "stride.runstore.resolve_run_id",
    "stride.sampling.select_representative_sample",
    "stride.sampling.saturation_curve",
    "stride.sampling.js_divergence",
    "stride.delta.build_delta_report",
    "stride.delta.emit_delta_report",
)


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self) -> None:
        # Each span is [name, parent index or -1, op, start_ns, end_ns].
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.op = 0
        # While paused (the benchmark's own output checks), calls pass
        # straight through and record nothing.
        self.paused = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, function, *args, **kwargs):
        """Call ``function`` inside a span called ``name``."""
        if self.paused:
            return function(*args, **kwargs)
        index = len(self.spans)
        span = [name, self._stack[-1] if self._stack else -1, self.op, 0, 0]
        self.spans.append(span)
        self._stack.append(index)
        span[3] = time.perf_counter_ns()
        try:
            return function(*args, **kwargs)
        finally:
            span[4] = time.perf_counter_ns()
            self._stack.pop()

    def _current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _span_wrapper(self, name: str, function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            return self.span(name, function, *args, **kwargs)

        return traced

    def _canonical_json_wrapper(self, function):
        # A counter, not a span: canonicalisation is part of the digest's cost.
        @functools.wraps(function)
        def counted(value):
            text = function(value)
            if not self.paused:
                self.counters["digests.canonical_bytes"] += len(text.encode("utf-8"))
            return text

        return counted

    def _read_record_wrapper(self, function):
        # save_run reads a record back only when the run id already exists.
        @functools.wraps(function)
        def counted(path):
            if not self.paused and self._current() == "runstore.save_run":
                self.counters["runstore.save_run.existing"] += 1
            return function(path)

        return counted

    def _selection_wrapper(self, function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            result = self.span("sampling.select_representative_sample", function, *args, **kwargs)
            if not self.paused:
                self.counters["sampling.swaps_applied"] += result.swaps_applied
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function under every ``stride`` name bound to it."""
        wrappers = []
        for qualified in SPAN_FUNCTIONS:
            module_name, attribute = qualified.rsplit(".", 1)
            original = getattr(importlib.import_module(module_name), attribute)
            if qualified == "stride.sampling.select_representative_sample":
                wrapper = self._selection_wrapper(original)
            else:
                wrapper = self._span_wrapper(qualified.removeprefix("stride."), original)
            wrappers.append((attribute, original, wrapper))
        digests = importlib.import_module("stride.digests")
        runstore = importlib.import_module("stride.runstore")
        wrappers.append(("canonical_json", digests.canonical_json, self._canonical_json_wrapper(digests.canonical_json)))
        wrappers.append(("_read_record", runstore._read_record, self._read_record_wrapper(runstore._read_record)))

        modules = [m for name, m in sorted(sys.modules.items()) if name == "stride" or name.startswith("stride.")]
        for attribute, original, wrapper in wrappers:
            for module in modules:
                if getattr(module, attribute, None) is original:
                    setattr(module, attribute, wrapper)
                    self._patched.append((module, attribute, original))

    def uninstall(self) -> None:
        for module, attribute, original in reversed(self._patched):
            setattr(module, attribute, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, int]]:
        """Per layer name: call count, total and self time in nanoseconds.

        Self time is a span's duration minus the time its direct children
        cover; spans nest strictly because the benchmark is single-threaded.
        """
        child_ns = [0] * len(self.spans)
        for name, parent, _op, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, dict[str, int]] = {}
        for index, (name, _parent, _op, start, end) in enumerate(self.spans):
            entry = totals.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += end - start - child_ns[index]
        return totals

    def merge(self, counters: dict, spans: list[list], op: int) -> None:
        """Add the spans and counters another process recorded for ``op``."""
        offset = len(self.spans)
        for name, parent, _op, start, end in spans:
            self.spans.append([name, parent + offset if parent >= 0 else -1, op, start, end])
        self.counters.update(counters)

    def dump(self, path, **extra) -> None:
        """Write the spans as JSON lines, after one header line of counters."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"counters": dict(self.counters), **extra}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def load_dump(path) -> tuple[dict, list[list]]:
    """Read a file written by :meth:`Tracer.dump`: header and spans."""
    with open(path, encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        spans = [json.loads(line) for line in handle]
    return header, spans
