"""Spans around nff's public functions, recorded from outside the package.

Each public function is wrapped under the name its calling module looks
it up by (``nff.metric.array_field``, ``nff.boundaries.find_crossing``,
...), so calls between nff's own modules are seen without touching its
code.  A span is (name, start, end, parent, op id); spans stay in
compact arrays in memory and are written out when the job ends.  A
layer's self time is its busy time minus the time its child spans cover.

A name whose attribute no longer exists, or that is never called, reports
0 calls.  The tracing overhead is the spans' and counters' measured cost
per call times their number, as a share of the untraced job time.  Cache hits and misses happen inside functions and are not
visible here: counting them needs tracing inside the program.
"""

from __future__ import annotations

import importlib
import os
from array import array
from time import perf_counter

import numpy as np

#: Span name -> the (module, attribute) lookups that reach the function.
TRACED = {
    "cli.main": [("nff.cli", "main")],
    "harness.reproduce_reference": [("nff.cli", "reproduce_reference")],
    "harness.export_table": [("nff.harness", "export_table"), ("nff.cli", "export_table"), ("nff", "export_table")],
    "harness.export_trace": [("nff.harness", "export_trace"), ("nff", "export_trace")],
    "harness.import_trace": [("nff.harness", "import_trace"), ("nff.cli", "import_trace"), ("nff", "import_trace")],
    "harness.trace_error_curve": [("nff.harness", "trace_error_curve"), ("nff", "trace_error_curve")],
    "metric.error_sweep": [("nff.harness", "error_sweep"), ("nff", "error_sweep")],
    "metric.approximation_error": [("nff.metric", "approximation_error")],
    "metric.field_mismatch": [("nff.metric", "field_mismatch")],
    "farfield.analytic_angular_distribution": [("nff.metric", "analytic_angular_distribution")],
    "farfield.auxiliary_fields": [("nff.metric", "auxiliary_fields")],
    "sources.uniform_linear_array": [("nff.harness", "uniform_linear_array"), ("nff", "uniform_linear_array")],
    "sources.array_field": [("nff.metric", "array_field")],
    "sources.nf_precoder": [("nff.metric", "nf_precoder"), ("nff.boundaries", "nf_precoder")],
    "sources.ff_precoder": [("nff.metric", "ff_precoder"), ("nff.boundaries", "ff_precoder")],
    "boundaries.evaluate_boundary": [("nff.harness", "evaluate_boundary"), ("nff", "evaluate_boundary")],
    "boundaries.d_ar": [("nff.boundaries", "d_ar")],
    "boundaries.d_up": [("nff.boundaries", "d_up")],
    "boundaries.d_en": [("nff.boundaries", "d_en")],
    "boundaries.d_ep": [("nff.boundaries", "d_ep")],
    "boundaries.d_wc": [("nff.boundaries", "d_wc")],
    "boundaries.find_crossing": [("nff.boundaries", "find_crossing")],
    "core.stable_excess_path": [("nff.boundaries", "stable_excess_path")],
}
#: Spans that only enclose the job; coverage counts the layers below them.
ENVELOPES = ("cli.main", "harness.reproduce_reference")
#: Spans whose file argument's size is added to ``<name>.bytes``.
FILE_ARG = {"harness.export_table": 1, "harness.export_trace": 1, "harness.import_trace": 0}
SCAN_KINDS = ("ar", "up", "en", "ep")


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self, op_boundary: str | None = None) -> None:
        self.names = list(TRACED)
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        #: Operation id stamped on new spans; the job loop sets it, or it
        #: advances after each ``op_boundary`` span (one fig4 table each).
        self.op_id = 0
        self.op_boundary = op_boundary
        self.bytes = dict.fromkeys(FILE_ARG, 0)
        self.kind: str | None = None
        self.scan_evals = dict.fromkeys(SCAN_KINDS, 0)
        self.searches = dict.fromkeys(SCAN_KINDS, 0)
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        nid = self.names.index(name)
        file_arg = FILE_ARG.get(name)
        advance = name == self.op_boundary
        hook = {"boundaries.evaluate_boundary": self._note_kind,
                "boundaries.find_crossing": self._count_scan}.get(name)

        def traced(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(args, kwargs)
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self.stack.append(i)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self.stack.pop()
                if file_arg is not None and len(args) > file_arg:
                    try:
                        self.bytes[name] += os.path.getsize(args[file_arg])
                    except (OSError, TypeError):
                        pass
                if advance:
                    self.op_id += 1

        return traced

    def _note_kind(self, args, kwargs):
        spec = args[1] if len(args) > 1 else kwargs.get("spec")
        self.kind = getattr(spec, "kind", None)
        if self.kind in self.searches:
            self.searches[self.kind] += 1
        return args, kwargs

    def _count_scan(self, args, kwargs):
        kind = self.kind if self.kind in self.scan_evals else None
        scan = args[0] if args else kwargs.get("scan")
        if kind is None or scan is None:
            return args, kwargs

        def counted(r):
            self.scan_evals[kind] += int(np.size(r))
            return scan(r)

        if args:
            return (counted,) + tuple(args[1:]), kwargs
        return args, dict(kwargs, scan=counted)

    def install(self) -> None:
        for name, sites in TRACED.items():
            found = False
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                found = True
                self._saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn))
            if not found:
                self.missing.append(name)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def counters(self) -> dict:
        return {"bytes": dict(self.bytes), "scan_evals": dict(self.scan_evals),
                "searches": dict(self.searches), "missing": list(self.missing)}


def overhead_costs(calls: int = 100_000) -> dict[str, float]:
    """Seconds a span and a counted scan evaluation add to one call.

    Timed on no-op functions with the same wrappers the job used; the
    job's spans and scan evaluations times these give the tracing
    overhead without a second, untraced run of the job.
    """

    def noop(*args):
        return None

    def loop(fn) -> float:
        t0 = perf_counter()
        for _ in range(calls):
            fn(0)
        return perf_counter() - t0

    probe = Tracer()
    probe.kind = "ar"
    counted = probe._count_scan((noop, 0.0, "first-below"), {})[0][0]
    plain = loop(noop)
    return {"span_s": (loop(probe.wrap("metric.error_sweep", noop)) - plain) / calls,
            "scan_eval_s": (loop(counted) - plain) / calls}


def layer_metrics(spans, counters: dict, job_s: float) -> dict[str, float]:
    """Per-layer metrics from a saved span file and the tracer's counters."""
    names = [str(n) for n in spans["names"]]
    name_id, parent = spans["name_id"], spans["parent"]
    dur = spans["end"] - spans["start"]
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    own = dur - child
    out: dict[str, float] = {}
    for nid, name in enumerate(names):
        mask = name_id == nid
        out[f"{name}.calls"] = int(np.count_nonzero(mask))
        out[f"{name}.busy_s"] = float(np.sum(dur[mask]))
        out[f"{name}.self_s"] = float(np.sum(own[mask]))
    for name, size in counters["bytes"].items():
        out[f"{name}.bytes"] = int(size)
    for kind in SCAN_KINDS:
        out[f"boundaries.scan_evals.{kind}"] = int(counters["scan_evals"][kind])
    searches = sum(counters["searches"].values())
    out["boundaries.evals_per_search"] = (
        sum(counters["scan_evals"].values()) / searches if searches else 0.0
    )
    envelope = np.isin(name_id, [names.index(n) for n in ENVELOPES])
    top = ~envelope & (~has_parent | envelope[np.where(has_parent, parent, 0)])
    out["trace.span_coverage_frac"] = float(np.sum(dur[top]) / job_s) if job_s > 0 else 0.0
    out["trace.spans"] = int(dur.size)
    out["boundaries.d_wc.share"] = out["boundaries.d_wc.busy_s"] / job_s if job_s > 0 else 0.0
    costs = counters.get("costs")
    if costs is not None:
        added = dur.size * costs["span_s"] + sum(counters["scan_evals"].values()) * costs["scan_eval_s"]
        out["trace.overhead_frac"] = added / (job_s - added) if job_s > added else 0.0
    return out
