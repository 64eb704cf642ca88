"""Spans and counts recorded by shims around mathgrid's public functions.

Each shim replaces a function under the name its caller looks it up by
(``mathgrid.generator.render_image``, ``requests.post``, ...), so nothing
under ``src/`` changes. A span holds its name, start, end, parent span and
request id; the parent comes from a thread-local stack. Spans stay in
memory and are written out when the run ends. A layer's self time is its
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import math
import statistics
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute path, span name). A span whose name is in ROOTS starts a
# new request id in its thread; the spans under it share that id.
SPANS = (
    ("mathgrid.generator", "generate", "generator.generate"),
    ("mathgrid.generator", "build_solved_layout", "generator.build_solved_layout"),
    ("mathgrid.generator", "punch_blanks", "generator.punch_blanks"),
    ("mathgrid.generator", "deduce", "solver.deduce"),
    ("mathgrid.generator", "detect_equations", "solver.detect_equations"),
    ("mathgrid.solver", "detect_equations", "solver.detect_equations"),
    ("mathgrid.harness.sft", "detect_equations", "solver.detect_equations"),
    ("mathgrid.generator", "to_markdown", "render.markdown.to_markdown"),
    ("mathgrid.manifest", "parse_markdown", "render.markdown.parse_markdown"),
    ("mathgrid.generator", "render_image", "render.svg.render_image"),
    ("pathlib", "Path.write_bytes", "generator.file_write"),
    ("mathgrid.cli", "write_manifest", "manifest.write_manifest"),
    ("mathgrid.harness.client", "load_manifest", "manifest.load_manifest"),
    ("mathgrid.harness.client", "build_prompt", "harness.prompts.build_prompt"),
    ("mathgrid.harness.client", "build_chat_payload", "harness.client.build_chat_payload"),
    ("requests", "post", "harness.client.http_post"),
    ("mathgrid.cli", "score_run", "harness.client.score_run"),
    ("mathgrid.harness.client", "load_run_records", "harness.client.load_run_records"),
    ("mathgrid.evaluation", "Prediction.from_text", "evaluation.prediction_from_text"),
    ("mathgrid.harness.client", "evaluate_prediction", "evaluation.evaluate_prediction"),
    ("mathgrid.harness.client", "build_report", "evaluation.build_report"),
    ("mathgrid.harness.sft", "format_solution_steps", "harness.sft.format_solution_steps"),
)
ROOTS = {"generator.generate", "harness.prompts.build_prompt"}

# Functions called too often for a span each: only their calls are counted.
COUNTS = (
    ("mathgrid.core", "Grid.at", "core.grid_at"),
    ("mathgrid.core", "target_order", "core.target_order"),
    ("mathgrid.solver", "target_order", "core.target_order"),
    ("mathgrid.generator", "target_order", "core.target_order"),
    ("mathgrid.render.svg", "target_order", "core.target_order"),
)


class Tracer:
    """Installs the shims, and records spans and counts while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent, request, thread)
        self.missing: set[str] = set()  # shim targets this version of mathgrid lacks
        self._local = threading.local()
        self._lock = threading.Lock()
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self._thread_counts: list[Counter] = []
        self._saved: list[tuple[object, str, object]] = []
        self._http_inflight = 0
        self.http_inflight_max = 0

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        for module, path, name in SPANS:
            self._patch(module, path, lambda fn, name=name: self._span_shim(name, fn))
        for module, path, name in COUNTS:
            self._patch(module, path, lambda fn, name=name: self._count_shim(name, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is None:  # the shim shadowed an inherited attribute
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, module: str, path: str, make) -> None:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        try:
            for part in parents:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
        except AttributeError:
            self.missing.add(f"{module}.{path}")
            return
        is_static = isinstance(raw, staticmethod)
        shim = make(raw.__func__ if is_static else raw)
        self._saved.append((owner, attr, raw if attr in vars(owner) else None))
        setattr(owner, attr, staticmethod(shim) if is_static else shim)

    # -- shims ----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.request = 0
        return stack

    def counts(self) -> Counter:
        """This thread's counter; merged with the others by ``total_counts``."""
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = Counter()
            with self._lock:
                self._thread_counts.append(counts)
        return counts

    def _span_shim(self, name: str, fn):
        local, spans, clock = self._local, self.spans, time.perf_counter
        is_root = name in ROOTS
        is_post = name == "harness.client.http_post"
        is_render = name == "render.svg.render_image"

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack = self._stack()
            if is_root:
                local.request = next(self._request_ids)
            if is_post:
                with self._lock:
                    self._http_inflight += 1
                    self.http_inflight_max = max(self.http_inflight_max, self._http_inflight)
            span_id = next(self._span_ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    (span_id, name, start, end, parent, local.request, threading.get_ident())
                )
                if is_post:
                    with self._lock:
                        self._http_inflight -= 1
            if is_render:
                self.counts()["render.svg.bytes"] += len(result)
            return result

        return shim

    def _count_shim(self, name: str, fn):
        local = self._local

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            try:
                counts = local.counts
            except AttributeError:
                counts = self.counts()
            counts[name] += 1
            return fn(*args, **kwargs)

        return shim

    # -- reading --------------------------------------------------------

    def total_counts(self) -> Counter:
        with self._lock:
            total = Counter()
            for counts in self._thread_counts:
                total.update(counts)
        return total

    def take(self) -> tuple[list[tuple], Counter]:
        """Spans and counts recorded since the last call, which clears them."""
        spans, counts = list(self.spans), self.total_counts()
        self.spans.clear()
        with self._lock:
            for c in self._thread_counts:
                c.clear()
            self.http_inflight_max = 0
        return spans, counts


def write_spans(path: Path, passes: list[list[tuple]]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for index, spans in enumerate(passes):
            for span_id, name, start, end, parent, request, thread in spans:
                fh.write(
                    json.dumps(
                        {
                            "pass": index,
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                            "thread": thread,
                        }
                    )
                    + "\n"
                )


class PassProfile:
    """Per-layer figures of one traced pass."""

    def __init__(self, spans: list[tuple], counts: Counter):
        self.counts = counts
        self.calls: Counter = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        child_s: defaultdict[int, float] = defaultdict(float)
        name_of = {}
        for span_id, name, start, end, parent, _request, _thread in spans:
            name_of[span_id] = name
            child_s[parent] += end - start
        self.children_of: defaultdict[tuple[str, str], int] = defaultdict(int)
        for span_id, name, start, end, parent, _request, _thread in spans:
            self.calls[name] += 1
            self.total_s[name] += end - start
            self.self_s[name] += end - start - child_s[span_id]
            self.children_of[(name_of.get(parent, ""), name)] += 1
        # A logical request runs from build_prompt entry to the return of the
        # last requests.post made for it (retries included).
        begin: dict[int, float] = {}
        finish: dict[int, float] = {}
        for _id, name, start, end, _parent, request, _thread in spans:
            if name == "harness.prompts.build_prompt":
                begin[request] = start
            elif name == "harness.client.http_post":
                finish[request] = max(finish.get(request, 0.0), end)
        self.request_ms = [
            (finish[r] - begin[r]) * 1000 for r in begin if r in finish
        ]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(traced: list[tuple[PassProfile, dict]], examples: int, requests: int) -> dict:
    """Per-layer metrics, name -> (value, unit), each the median over traced
    passes (request percentiles pool every traced request). A layer the
    workload does not run reads 0."""

    def per(n: float, d: float) -> float:
        return n / d if d else 0.0

    rows: dict[str, list[float]] = defaultdict(list)
    units: dict[str, str] = {}

    def put(name: str, value: float, unit: str) -> None:
        rows[name].append(value)
        units[name] = unit

    request_ms: list[float] = []
    for p, result in traced:
        served = result.get("endpoint", {})
        put("generator.build_solved_layout.self_s", p.self_s["generator.build_solved_layout"], "s")
        put("generator.build_solved_layout.calls_per_example",
            per(p.calls["generator.build_solved_layout"], examples), "count")
        put("generator.punch_blanks.self_s", p.self_s["generator.punch_blanks"], "s")
        put("generator.punch.accept_ratio",
            per(p.calls["generator.generate"],
                p.children_of[("generator.punch_blanks", "solver.deduce")]), "ratio")
        put("solver.deduce.s", p.total_s["solver.deduce"], "s")
        put("solver.deduce.calls_per_example", per(p.calls["solver.deduce"], examples), "count")
        put("solver.detect_equations.calls_per_example",
            per(p.calls["solver.detect_equations"], examples), "count")
        put("solver.detect_equations.s", p.total_s["solver.detect_equations"], "s")
        put("core.target_order.calls_per_example", per(p.counts["core.target_order"], examples), "count")
        put("core.grid_at.calls_per_example", per(p.counts["core.grid_at"], examples), "count")
        put("render.markdown.to_markdown.s", p.total_s["render.markdown.to_markdown"], "s")
        put("render.markdown.parse_markdown.s", p.total_s["render.markdown.parse_markdown"], "s")
        put("render.svg.render_image.s", p.total_s["render.svg.render_image"], "s")
        put("render.svg.bytes_per_example", per(p.counts["render.svg.bytes"], examples), "bytes")
        put("generator.file_write.s", p.total_s["generator.file_write"], "s")
        put("manifest.write_manifest.s", p.total_s["manifest.write_manifest"], "s")
        put("manifest.load_manifest.s", p.total_s["manifest.load_manifest"], "s")
        put("manifest.load_manifest.calls", p.calls["manifest.load_manifest"], "count")
        put("harness.prompts.build_prompt.s", p.total_s["harness.prompts.build_prompt"], "s")
        put("harness.client.build_chat_payload.s", p.total_s["harness.client.build_chat_payload"], "s")
        put("harness.client.payload_kb_per_request",
            per(served.get("bytes_in", 0) / 1024, served.get("requests", 0)), "KB")
        put("harness.client.http_post.s", p.total_s["harness.client.http_post"], "s")
        handler_ms = served.get("busy_s", 0.0) * 1000
        put("endpoint.handler_ms_per_request", per(handler_ms, served.get("requests", 0)), "ms")
        put("harness.client.overhead_ms_per_request",
            per(sum(p.request_ms) - handler_ms, len(p.request_ms)), "ms")
        put("harness.client.connections_per_request", per(served.get("connections", 0), requests), "count")
        put("harness.client.retries_per_request", per(served.get("rejected_503", 0), requests), "count")
        put("harness.client.inflight_max", result.get("http_inflight_max", 0), "count")
        put("harness.client.score_run.s", p.total_s["harness.client.score_run"], "s")
        put("harness.client.load_run_records.s", p.total_s["harness.client.load_run_records"], "s")
        put("evaluation.prediction_from_text.s", p.total_s["evaluation.prediction_from_text"], "s")
        put("evaluation.evaluate_prediction.s", p.total_s["evaluation.evaluate_prediction"], "s")
        put("evaluation.build_report.s", p.total_s["evaluation.build_report"], "s")
        put("harness.sft.format_solution_steps.s", p.total_s["harness.sft.format_solution_steps"], "s")
        request_ms.extend(p.request_ms)
    metrics = {name: (median_or_zero(values), units[name]) for name, values in rows.items()}
    metrics["harness.client.request_p50_ms"] = (percentile(request_ms, 50), "ms")
    metrics["harness.client.request_p99_ms"] = (percentile(request_ms, 99), "ms")
    return metrics
