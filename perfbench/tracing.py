"""Spans recorded around calls into tailsum's layers, from outside the library.

A ``Tracer`` replaces module attributes (the layer entry points listed in
``LAYERS``) with timing wrappers while it is installed, and puts the
originals back when it is removed.  Each call records a span: id, parent
id, name, start, end, thread and a few counts.  Spans stay in memory and
are written out by the caller when the run ends.

An attribute that no longer exists (a layer renamed or deleted by a later
change) is reported in ``Tracer.absent`` and skipped; the run goes on.
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


def _rows(args, kwargs):
    return {"rows": int(args[0].shape[0])}


def _conditional_rows(args, kwargs):
    # args[2] is the kernel's output buffer: one integrand value per draw.
    out = args[2]
    return {"rows": int(out.shape[0]), "nonzero": int((out > 0.0).sum())}


def _draw_rows(args, kwargs):
    return {"rows": int(args[2])}


RUN_CHUNKS_SPAN = "montecarlo.run_chunks"
# The per-chunk ``task`` closure that ``_run_chunks`` receives.
TASK_SPAN = "montecarlo.task"

# (module, attribute, span name, counts taken from the call's arguments
# after it returned).  diagnostics binds the estimators and ``approximate``
# by name at import, so its bindings are wrapped as well.
LAYERS = (
    ("tailsum.montecarlo", "conditional_max_mc", "montecarlo.estimate", None),
    ("tailsum.montecarlo", "crude_mc", "montecarlo.estimate", None),
    ("tailsum.diagnostics", "conditional_max_mc", "montecarlo.estimate", None),
    ("tailsum.diagnostics", "crude_mc", "montecarlo.estimate", None),
    ("tailsum.montecarlo", "_conditional_plan", "montecarlo.plan", None),
    ("tailsum.montecarlo", "_run_chunks", RUN_CHUNKS_SPAN, None),
    ("tailsum.montecarlo", "_draw_chunk", "model.draw", _draw_rows),
    ("tailsum._kernels", "conditional_chunk", "kernels.conditional",
     _conditional_rows),
    ("tailsum._kernels", "crude_chunk", "kernels.crude", _rows),
    ("tailsum.diagnostics", "approximate", "asymptotics.approximate", None),
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the calls made while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Time the body as one span; yields the span's counts dict."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            sid = next(self._ids)
        counts: dict = {}
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield counts
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, parent, name, start, end,
                                       threading.get_ident(), counts))

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def _wrap(self, fn, name, count):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as counts:
                result = fn(*args, **kwargs)
            if count is not None:
                counts.update(count(args, kwargs))
            return result

        return traced

    def _wrap_run_chunks(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                parent = tracer.current()
                args, kwargs = _replace_task(args, kwargs,
                                             lambda task: tracer._wrap_task(task, parent))
                return fn(*args, **kwargs)

        return traced

    def _wrap_task(self, task, parent):
        tracer = self

        def traced(*args, **kwargs):
            # Runs on pool threads too: the parent is the _run_chunks span.
            with tracer.span(TASK_SPAN, parent=parent):
                return task(*args, **kwargs)

        return traced

    def install(self) -> None:
        for module_name, attr, name, count in LAYERS:
            label = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(label)
                continue
            if name == RUN_CHUNKS_SPAN:
                traced = self._wrap_run_chunks(fn, name)
            else:
                traced = self._wrap(fn, name, count)
            self._saved.append((module, attr, fn))
            setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def _replace_task(args, kwargs, wrap):
    """Wrap the ``task`` argument of ``_run_chunks(n, seed, workers, task)``."""
    if "task" in kwargs:
        return args, dict(kwargs, task=wrap(kwargs["task"]))
    if args and callable(args[-1]):
        return args[:-1] + (wrap(args[-1]),), kwargs
    return args, kwargs


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit; the order is the order in which they are printed.
LAYER_METRICS = {
    "kernels.conditional_s": "s",
    "kernels.conditional_rows_per_s": "1/s",
    "kernels.conditional_nonzero_frac": "fraction",
    "kernels.conditional_share": "fraction",
    "kernels.crude_s": "s",
    "kernels.crude_share": "fraction",
    "model.draw_s": "s",
    "model.draw_rows_per_s": "1/s",
    "model.draw_share": "fraction",
    "montecarlo.inline_sample_s": "s",
    "montecarlo.inline_sample_share": "fraction",
    "montecarlo.parallel_eff": "fraction",
    "montecarlo.plan_s": "s",
    "montecarlo.plan_calls": "count",
    "montecarlo.plan_share": "fraction",
    "montecarlo.merge_s": "s",
    "montecarlo.rel_stderr_max": "fraction",
    "asymptotics.approximate_s": "s",
    "asymptotics.approximate_calls": "count",
    "asymptotics.approximate_share": "fraction",
    "trace.overhead_frac": "fraction",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0.0 else 0.0


def pass_metrics(spans: list[Span], wall: float, workers: int) -> dict:
    """Layer metrics of one traced pass of ``wall`` seconds.

    Times are busy seconds summed over threads.  A share is busy time over
    the time the workers had, ``workers * wall``; with one worker it is the
    share of the wall time.  A layer that did not run reads 0.
    """
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, dict] = defaultdict(lambda: defaultdict(int))
    for s in spans:
        busy[s.name] += s.duration
        calls[s.name] += 1
        for key, value in s.counts.items():
            counts[s.name][key] += value
    capacity = workers * wall
    kernel_cond = busy["kernels.conditional"]
    kernel_crude = busy["kernels.crude"]
    draw = busy["model.draw"]
    task = busy[TASK_SPAN]
    # Kernel and draw spans are children of task spans.
    inline = task - kernel_cond - kernel_crude - draw
    run_chunks = busy[RUN_CHUNKS_SPAN]
    plan = busy["montecarlo.plan"]
    estimate = busy["montecarlo.estimate"]
    approx = busy["asymptotics.approximate"]
    cond_counts = counts["kernels.conditional"]
    return {
        "kernels.conditional_s": kernel_cond,
        "kernels.conditional_rows_per_s": _ratio(cond_counts["rows"], kernel_cond),
        "kernels.conditional_nonzero_frac": _ratio(cond_counts["nonzero"],
                                                   cond_counts["rows"]),
        "kernels.conditional_share": _ratio(kernel_cond, capacity),
        "kernels.crude_s": kernel_crude,
        "kernels.crude_share": _ratio(kernel_crude, capacity),
        "model.draw_s": draw,
        "model.draw_rows_per_s": _ratio(counts["model.draw"]["rows"], draw),
        "model.draw_share": _ratio(draw, capacity),
        "montecarlo.inline_sample_s": inline,
        "montecarlo.inline_sample_share": _ratio(inline, capacity),
        "montecarlo.parallel_eff": _ratio(task, workers * run_chunks),
        "montecarlo.plan_s": plan,
        "montecarlo.plan_calls": calls["montecarlo.plan"],
        "montecarlo.plan_share": _ratio(plan, capacity),
        "montecarlo.merge_s": estimate - plan - run_chunks,
        "asymptotics.approximate_s": approx,
        "asymptotics.approximate_calls": calls["asymptotics.approximate"],
        "asymptotics.approximate_share": _ratio(approx, capacity),
    }


def median_metrics(per_pass: list[dict]) -> dict:
    """Median of each metric over passes."""
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
