"""Self-test of the benchmark's traced run.

    python3 -m pytest bench -q
"""

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import tracing
import workloads

cli = workloads.import_package()
ORIGINALS = {
    (module, attr): getattr(importlib.import_module(module), attr)
    for module, attr, _name in tracing.TARGETS
}


def assert_restored():
    for (module, attr), original in ORIGINALS.items():
        assert getattr(importlib.import_module(module), attr) is original, f"{module}.{attr}"


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """An untraced and a traced in-process pass of every workload, and one
    importtime spawn, all recorded by one tracer."""
    tracer = tracing.Tracer()
    passes = {}
    for name in workloads.WORKLOADS:
        wl = workloads.make_workload(name, 1, str(tmp_path_factory.mktemp(name)), cli)
        plain = workloads.run_inprocess_pass(wl, workloads.fresh_dir(wl, "plain"), cli)
        tracer.begin_trace()
        with tracer.installed():
            with_spans = workloads.run_inprocess_pass(wl, workloads.fresh_dir(wl, "traced"), cli, tracer)
        passes[name] = (plain, with_spans)
    tracer.begin_trace()
    with tracer.span("startup.spawn") as sid:
        _seconds, log = workloads.time_import(importtime=True)
    tracer.add_import_trace(sid, log)
    return tracer, passes


def test_traced_and_untraced_reports_are_byte_identical(traced):
    _tracer, passes = traced
    for name, (plain, with_spans) in passes.items():
        assert plain.ok and with_spans.ok, (plain.error, with_spans.error)
        assert plain.reports and plain.reports == with_spans.reports, name
        assert plain.artifacts == with_spans.artifacts, name
        for ref, data in plain.reports.items():
            assert workloads.check_report(name, ref, data) == []


def test_wrapped_attributes_are_restored(traced):
    assert_restored()
    tracer = tracing.Tracer()
    tracer.begin_trace()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("stage failed")
    assert_restored()


def test_every_layer_gets_a_span(traced):
    tracer, _passes = traced
    layers = {s["name"].split(".", 1)[0] for s in tracer.spans}
    assert set(tracing.LAYERS) <= layers


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    trace = tracer.begin_trace()
    outer = tracer.add_span("surface.full_report", 0.0, 1.0)
    tracer.add_span("lax.frame_axis_stencil", 0.25, 0.5, outer)
    tracer.add_span("surface.extract_second_form", 0.5, 0.75, outer)
    summary = tracer.summary(trace)
    assert summary["self"] == {"surface": 1.0 - 0.25, "lax": 0.25}
    assert summary["span"]["surface.full_report"] == 1.0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "pipeline_s", "compute_s", "peak_rss_mb", "artifact_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS[:2])


def test_fails_without_package_sources(tmp_path):
    shutil.copytree(workloads.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(workloads.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "flat64-closure",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
