"""Tests of the benchmark's own machinery: inputs, tracing, counters, tail rule.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import meanspec
import run
import tracing
import workloads
from meanspec import dde_solver, series_bounds

BENCH = Path(__file__).resolve().parents[1]


def _run_traced(jobs):
    rec = tracing.SpanRecorder()
    outputs = []
    with rec:
        for i, job in enumerate(jobs):
            rec.job = i
            out = job.run()
            rec.job = None
            job.check(out)
            outputs.append(out)
    return rec, outputs


def _counts(spans):
    return {name: value for name, (value, unit) in tracing.layer_metrics(spans).items()
            if unit in ("count", "bytes")}


def test_search_job_has_one_solve_span_per_evaluation_plus_revalidation():
    rec, (result,) = _run_traced([workloads.search_job(1.0, 2.0, seed=3)])
    solves = [s for s in rec.spans if s.name == "solve_sigma"]
    assert len(solves) == result.diagnostics["evaluations"] + 1
    residual = [s for s in rec.spans if s.name == "trapezoid_convolution_with_kernel"]
    assert len(residual) == 1  # only the final re-validation checks the residual


def test_every_binding_is_wrapped_and_restored():
    original = dde_solver.solve_sigma
    rec = tracing.SpanRecorder()
    with rec:
        wrapped = dde_solver.solve_sigma
        assert wrapped is not original
        assert series_bounds.solve_sigma is wrapped
        assert meanspec.solve_sigma is wrapped
        assert rec.binding_count("solve_sigma") >= 6
    assert dde_solver.solve_sigma is original
    assert series_bounds.solve_sigma is original
    assert meanspec.solve_sigma is original


def test_traced_counters_repeat_exactly(tmp_path):
    counts = []
    for attempt in range(2):
        wl = workloads.build("desk", 5, str(tmp_path / f"run{attempt}"))
        rec, _ = _run_traced(wl.passes[0])
        counts.append(_counts(rec.spans))
    assert counts[0] == counts[1]
    # The desk pass reaches every layer.
    for name in ("dde_solver.solve_calls", "dde_solver.residual_calls",
                 "series_bounds.transform_calls", "kernels.delay_calls",
                 "arithmetic_oracle.segments", "spectrum_region.calls",
                 "cli.calls", "cli.bytes_written"):
        assert counts[0][name] > 0, name


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_inputs_depend_only_on_seed(name, tmp_path):
    def params(seed, sub):
        wl = workloads.build(name, seed, str(tmp_path / sub))
        jobs = wl.warmup + wl.jobs
        return [(job.kind, {k: v for k, v in job.params.items() if k != "argv"})
                for job in jobs]

    assert params(11, "a") == params(11, "b")
    assert params(11, "a") != params(12, "c")


def test_tail_is_the_rank_with_ten_jobs_beyond():
    pct = run.tail_percentile(30)
    assert pct == pytest.approx(100 * 19 / 29)
    latencies = [float(i) for i in range(1, 31)]
    assert run.percentile(latencies, pct) == 20.0
    assert run.percentile(latencies + latencies, pct) == 20.0
    assert run.tail_percentile(11) == 0.0


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
