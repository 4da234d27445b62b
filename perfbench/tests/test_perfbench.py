"""Tests of the benchmark itself: seeded inputs, checks and tracing.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["sweeps", "boundaries"])
def test_same_seed_gives_identical_inputs(workload):
    ops = workloads.generate(workload, 7, 20)
    assert ops == workloads.generate(workload, 7, 20)
    assert ops != workloads.generate(workload, 8, 20)
    # and in another interpreter, with another hash seed
    code = (f"import json, workloads; "
            f"print(json.dumps(workloads.generate({workload!r}, 7, 20)))")
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert json.loads(out) == json.loads(json.dumps(ops))


@pytest.mark.parametrize("seed", [0, 3, 99])
def test_jobs_are_stratified(seed):
    ops = workloads.generate("sweeps", seed, 15)
    assert len(ops) == 108
    for exc in workloads.EXCITATIONS:
        assert sum(op["excitation"] == exc for op in ops) == 36
    assert sum(op["trace"] for op in ops) == 27
    assert not any(op["trace"] and op["excitation"] == "nf-bf" for op in ops)
    searches = workloads.generate("boundaries", seed, 15)
    kinds = [op["kind"] for op in searches]
    assert all(kinds.count(k) == 28 for k, _ in workloads.SEARCH_KINDS)
    for job in (ops, searches):
        sizes = sorted(op["n"] for op in job)
        assert sizes[-1] == 1024  # the largest array, hence peak memory, is steady
        assert sizes[len(sizes) // 2] in range(20, 50)


def _qr_result(op):
    span = (op["n"] - 1) * op["spacing"]
    return {"status": "found", "value": 2 * span * span, "crossings": 0,
            "degenerate": op["n"] == 1}


def test_corrupted_output_is_counted_and_the_job_continues():
    ops = [dict(op, kind="qr", threshold=None) for op in workloads.generate("boundaries", 1, 2)]

    def execute(op):
        if op["i"] == 2:
            raise RuntimeError("boom")
        result = _qr_result(op)
        if op["i"] == 1:
            result["value"] = result["value"] * 1.01 + 1.0  # deliberately wrong
        return result

    outputs, errors, spans, _ = worker.run_ops(ops, execute)
    assert len(outputs) == len(spans) == len(ops)
    failed = worker.check_ops(ops, outputs, errors, worker.SearchJob.check, None)
    assert sorted(failed) == [1, 2]
    assert "raised RuntimeError" in failed[2]


def test_search_check_uses_the_oracle_and_the_reference():
    reference = checks.load_reference("boundaries")
    ops = workloads.generate("boundaries", checks.DEFAULT_SEED, 15)
    found = [op for op in ops if op["kind"] in ("ar", "en") and
             reference[str(op["i"])]["status"] == "found" and
             not reference[str(op["i"])]["degenerate"]]
    assert found
    for op in found[:4]:
        ref = reference[str(op["i"])]
        assert checks.check_search(op, ref, ref) == []
        shifted = dict(ref, value=ref["value"] * 1.001)
        assert checks.check_search(op, shifted, None)  # oracle alone
        assert len(checks.check_search(op, shifted, ref)) >= 2
        assert checks.check_search(op, dict(ref, crossings=ref["crossings"] + 1), ref)


def _write_fig4(out: Path, reference: dict) -> None:
    grid = checks.sweep_grid()
    for name, ref in reference.items():
        if "epsilon" in ref:
            r = np.delete(grid, ref["dropped"])
            lines = ["r_lambda,epsilon"] + [f"{a:.17g},{b!r}" for a, b in zip(r, ref["epsilon"])]
        else:
            lines = ["kind,threshold,status,value_lambda,crossings"] + [
                f"{k},{th},{st},{'' if v is None else repr(v)},{c}"
                for k, th, st, v, c in ref["rows"]]
        (out / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_fig4_check_counts_each_corrupted_table(tmp_path):
    reference = checks.load_reference("fig4")
    assert len(reference) == 19
    _write_fig4(tmp_path, reference)
    assert not any(checks.check_fig4(tmp_path, reference).values())

    curve = tmp_path / "fig4_eps_n8_front_ff.csv"
    lines = curve.read_text().splitlines()
    r, eps = lines[200].split(",")
    lines[200] = f"{r},{float(eps) * (1 + 1e-3)!r}"
    curve.write_text("\n".join(lines) + "\n")
    table = tmp_path / "fig4_boundaries_n64_front.csv"
    table.write_text(table.read_text().replace("found", "unbounded", 1))
    (tmp_path / "fig4_eps_n1_front.csv").unlink()
    problems = checks.check_fig4(tmp_path, reference)
    assert sorted(k for k, v in problems.items() if v) == [
        "fig4_boundaries_n64_front.csv", "fig4_eps_n1_front.csv", "fig4_eps_n8_front_ff.csv"]


def test_sweep_check_catches_a_corrupted_curve():
    nff, _ = worker._import_nff()
    op = {"i": 0, "n": 4, "spacing": 0.5, "theta": 70.0, "phi": 20.0,
          "excitation": "nf-bf", "trace": False}
    r, eps, trace_eps = worker.SweepJob(nff, HERE)(op)
    assert checks.check_curve(op, r, eps) == []
    bad = eps.copy()
    bad[100] *= 1.01
    assert checks.check_curve(op, r, bad)
    assert checks.check_curve(dict(op, trace=True), r, eps, trace_eps=None)


def test_self_time_and_unused_names(tmp_path):
    t = tracer.Tracer()

    def inner(x):
        return x + 1

    wrapped_inner = t.wrap("metric.approximation_error", inner)
    outer = t.wrap("metric.error_sweep", lambda xs: [wrapped_inner(x) for x in xs])
    assert outer([1, 2, 3]) == [2, 3, 4]
    t.save(tmp_path / "spans.npz")
    with np.load(tmp_path / "spans.npz") as spans:
        spans_data = dict(spans)
    m = tracer.layer_metrics(spans_data, t.counters(), job_s=1.0)
    assert m["metric.error_sweep.calls"] == 1
    assert m["metric.approximation_error.calls"] == 3
    assert m["metric.error_sweep.self_s"] == pytest.approx(
        m["metric.error_sweep.busy_s"] - m["metric.approximation_error.busy_s"])
    assert m["boundaries.d_wc.calls"] == 0 and m["boundaries.d_wc.busy_s"] == 0.0
    assert m["boundaries.evals_per_search"] == 0.0
    costs = tracer.overhead_costs(calls=20_000)
    assert costs["span_s"] > 0 and costs["scan_eval_s"] > 0
    m = tracer.layer_metrics(spans_data, dict(t.counters(), costs=costs), job_s=1.0)
    assert m["trace.overhead_frac"] == pytest.approx(4 * costs["span_s"], rel=1e-3)
