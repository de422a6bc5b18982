"""Traced in-process run: per-layer times from spans around public calls.

Spans are recorded by the benchmark around calls into the modules of
``src/prccsl`` (the program itself is not instrumented).  Each span holds
a name, start, end and parent span, and every span of one run shares a
run id.  Spans stay in memory and are written out when the run ends.

Only these entry points are called: ``parse``, ``elaborate``,
``simulate``, ``simulate_faulty``, ``write_trace``, ``read_trace``,
``eval_expr``, ``check_relations``, ``build_report`` and
``render_text``.  An entry point that no longer exists makes its layer's
metrics absent instead of failing the run.  Tick counts come from the
oracle, not from what the engine returns.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import statistics
import time
import tracemalloc
import uuid
from typing import Any, Callable

from gate import failed_verdicts

ABSENT = object()

ENTRY_POINTS = {
    "parse": "prccsl.speclang",
    "elaborate": "prccsl.speclang",
    "simulate": "prccsl.simulator",
    "simulate_faulty": "prccsl.simulator",
    "write_trace": "prccsl.traceio",
    "read_trace": "prccsl.traceio",
    "eval_expr": "prccsl.exprs",
    "check_relations": "prccsl.relations",
    "build_report": "prccsl.report",
    "render_text": "prccsl.report",
}

EXPR_KINDS = ("ref", "periodicon", "delayfor", "inf", "sup")
RELATION_KINDS = ("subclock", "coincidence", "exclusion", "causality", "precedence")
# Layers with a span of their own in the pipeline.  Expression evaluation
# runs inside relations.check there, so exprs has no self time of its own;
# exprs.eval_s and relations.monitor_s split that span instead.
SPANNED_LAYERS = ("speclang", "simulator", "traceio", "relations", "report")

_TIMED_SPANS = {
    "speclang.parse_s": ("speclang.parse",),
    "speclang.elaborate_s": ("speclang.elaborate",),
    "simulator.simulate_s": ("simulator.simulate",),
    "traceio.write_s": ("traceio.write",),
    "traceio.read_s": ("traceio.read",),
    "exprs.eval_s": tuple(f"exprs.{kind}" for kind in EXPR_KINDS),
    **{f"exprs.{kind}_s": (f"exprs.{kind}",) for kind in EXPR_KINDS},
    "relations.check_s": ("relations.check",),
    **{f"relations.{kind}_s": (f"relations.{kind}",) for kind in RELATION_KINDS},
    "report.build_s": ("report.build",),
    "report.render_s": ("report.render",),
}


def entry_points() -> dict[str, Callable[..., Any] | None]:
    """The public functions the traced run calls, None where one is gone."""
    found = {}
    for name, module in ENTRY_POINTS.items():
        found[name] = getattr(importlib.import_module(module), name, None)
    return found


@dataclasses.dataclass
class Span:
    run_id: str
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable[..., Any] | None, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span named ``name``; ABSENT if it cannot run."""
        if fn is None or any(arg is ABSENT for arg in (*args, *kwargs.values())):
            self.absent.add(name)
            return ABSENT
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(self.run_id, len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dataclasses.asdict(span)) + "\n")


def _self_times(spans: list[Span], root: Span) -> dict[str, float]:
    """Self time per layer (first name component) under ``root``."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    totals = {layer: 0.0 for layer in SPANNED_LAYERS}
    stack = list(children.get(root.id, ()))
    while stack:
        span = stack.pop()
        kids = children.get(span.id, ())
        layer = span.name.split(".", 1)[0]
        if layer in totals:
            totals[layer] += (span.end - span.start) - sum(k.end - k.start for k in kids)
        stack.extend(kids)
    return totals


def _post_order(exprs: list[Any]) -> list[Any]:
    """Distinct sub-expressions, every child before its parent."""
    seen: set[Any] = set()
    order: list[Any] = []

    def visit(expr: Any) -> None:
        if expr in seen:
            return
        for field in dataclasses.fields(expr):
            child = getattr(expr, field.name)
            if dataclasses.is_dataclass(child):
                visit(child)
        seen.add(expr)
        order.append(expr)

    for expr in exprs:
        visit(expr)
    return order


def _tracemalloc_mb(fn: Callable[..., Any], *args: Any) -> float:
    """Traced size in MiB of what ``fn`` builds and returns."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = fn(*args)
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del built
    return size / 2**20


def traced_run(
    prepared: Any, seconds: float, wall_s: float, setup_s: float, out_dir: str
) -> tuple[dict[str, float], list[str], int, int, int]:
    """Repeat the workload's pipeline and per-layer probes for ``seconds``.

    The pipeline makes the same calls as the workload's CLI command; the
    probes after it break evaluation and monitoring down by kind.  Returns
    ``(metrics, absent layers, attempted, failed, repeats)``; each timed
    metric is the median over repeats.  ``trace.overhead_s`` compares the
    traced pipeline with an untraced CLI call less its interpreter
    start-up, ``wall_s - setup_s``.
    """
    from prccsl.simulator import AVParams, FaultSpec

    api = entry_points()
    params = AVParams(seed=prepared.seed, steps=prepared.steps)
    fault = FaultSpec(*prepared.fault) if prepared.fault else None
    nodes = _post_order([e for spec in prepared.relations or () for e in (spec.left, spec.right)])
    tracer = Tracer()
    attempted = failed = 0
    repeats: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while not repeats or time.perf_counter() < deadline:
        pipeline = tracer.open("pipeline")
        if prepared.name == "simulate-csv":
            trace = tracer.call("simulator.simulate", api["simulate_faulty"], params, fault)
            written = tracer.call("traceio.write", api["write_trace"], trace, prepared.out_path)
            tracer.close(pipeline)
            if written is not ABSENT:
                attempted += 1
                failed += 0 if prepared.verify_csv() else 1
        else:
            spec = tracer.call("speclang.parse", api["parse"], prepared.spec_text)
            elaborated = tracer.call("speclang.elaborate", api["elaborate"], spec)
            relations = ABSENT if elaborated is ABSENT else elaborated[1]
            if prepared.name == "verify-av":
                trace = tracer.call("simulator.simulate", api["simulate"], params)
            else:
                trace = tracer.call("traceio.read", api["read_trace"], prepared.csv_path)
            results = tracer.call("relations.check", api["check_relations"], relations, trace)
            report = tracer.call(
                "report.build", api["build_report"], spec=prepared.name,
                trace={"steps": prepared.steps}, settings={}, results=results,
                duration_seconds=0.0,
            )
            tracer.call("report.render", api["render_text"], report)
            tracer.close(pipeline)
            if report is not ABSENT:
                attempted += len(prepared.reference)
                failed += failed_verdicts(report, prepared.reference)
            if trace is not ABSENT and relations is not ABSENT:
                _probe(tracer, api, nodes, relations, trace)
        repeats.append(_timings(tracer, pipeline, wall_s - setup_s))

    metrics = {name: statistics.median(r[name] for r in repeats) for name in repeats[0]}
    metrics.update(_counts(prepared, nodes))
    maker, *args = {
        "verify-av": ("simulate", params),
        "check-csv-dense": ("read_trace", prepared.csv_path),
        "simulate-csv": ("simulate_faulty", params, fault),
    }[prepared.name]
    if api[maker] is None:
        tracer.absent.add("clocks.trace")
    else:
        metrics["clocks.trace_mb"] = _tracemalloc_mb(api[maker], *args)

    absent_layers = {name.split(".", 1)[0] for name in tracer.absent}
    metrics = {k: v for k, v in metrics.items() if k.split(".", 1)[0] not in absent_layers}
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans-{tracer.run_id}.jsonl"))
    return metrics, sorted(absent_layers), attempted, failed, len(repeats)


def _probe(tracer: Tracer, api: dict[str, Any], nodes: list[Any], relations: list[Any], trace: Any) -> None:
    """Time each expression node alone, then each relation alone.

    Nodes are evaluated in post-order with one shared cache, so each
    ``eval_expr`` call pays only for its own node.  Each relation kind's
    time is the sum of ``check_relations([spec], trace)`` over the
    relations of that kind; those calls evaluate their own expressions.
    """
    probe = tracer.open("probe.exprs")
    cache: dict[Any, Any] = {}
    for node in nodes:
        tracer.call(f"exprs.{type(node).__name__.lower()}", api["eval_expr"], node, trace, cache)
    tracer.close(probe)
    probe = tracer.open("probe.relations")
    for spec in relations:
        tracer.call(f"relations.{spec.kind.value}", api["check_relations"], [spec], trace)
    tracer.close(probe)


def _timings(tracer: Tracer, pipeline: Span, untraced_s: float) -> dict[str, float]:
    """Timed metrics of one repeat: the pipeline span and the probes after it."""
    durations: dict[str, float] = {}
    for span in tracer.spans[pipeline.id:]:
        durations[span.name] = durations.get(span.name, 0.0) + (span.end - span.start)
    metrics = {metric: sum(durations.get(name, 0.0) for name in names) for metric, names in _TIMED_SPANS.items()}
    metrics["relations.monitor_s"] = metrics["relations.check_s"] - metrics["exprs.eval_s"]
    for layer, value in _self_times(tracer.spans, pipeline).items():
        metrics[f"{layer}.self_s"] = value
    metrics["trace.total_s"] = pipeline.end - pipeline.start
    metrics["trace.overhead_s"] = metrics["trace.total_s"] - untraced_s
    return metrics


def _counts(prepared: Any, nodes: list[Any]) -> dict[str, float]:
    """Work counts taken from the inputs and the oracle, not the engine."""
    from prccsl.oracle import oracle_expr

    n = prepared.steps
    counts = dict.fromkeys(
        ("simulator.ticks", "traceio.csv_mb", "exprs.nodes", "exprs.ticks_out", "exprs.tick_density",
         "relations.k_total", "relations.m_total", "relations.obs_per_step"),
        0.0,
    )
    if prepared.name == "check-csv-dense":
        counts["traceio.csv_mb"] = os.path.getsize(prepared.csv_path) / 2**20
    else:
        counts["simulator.ticks"] = float(sum(map(len, prepared.dates.values())))
    if prepared.name == "simulate-csv":
        counts["traceio.csv_mb"] = prepared.csv_bytes / 2**20
        return counts
    ticks_out = sum(len(oracle_expr(node, prepared.dates, n)) for node in nodes)
    k_total = sum(k for k, _, _ in prepared.reference.values())
    counts["exprs.nodes"] = float(len(nodes))
    counts["exprs.ticks_out"] = float(ticks_out)
    counts["exprs.tick_density"] = ticks_out / (len(nodes) * n)
    counts["relations.k_total"] = float(k_total)
    counts["relations.m_total"] = float(sum(m for _, m, _ in prepared.reference.values()))
    counts["relations.obs_per_step"] = k_total / (len(prepared.reference) * n)
    return counts
