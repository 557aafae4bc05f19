"""Spans and counts at the pipeline's layer boundaries, for the traced run.

The tracer wraps the module attribute each caller looks up (``cli.py`` calls
``integrate_frame`` through its own module globals, ``surface.py`` calls
``inv.riemann`` through the ``invariants`` module, and so on), records one
span per call in memory, and puts every original back when it is done.
Nothing inside the package changes; the spans sit at the boundaries the
benchmark can reach from outside.
"""

import importlib
import json
import os
import statistics
import time
from contextlib import contextmanager

MB = 1e6

# (module, attribute, span name): the attribute a caller in the pipeline
# looks up at call time.  linalg3.unitarity_defect_map is reached both from
# lax (frame_orthonormality_report) and from linalg3 itself (unitarity_defect),
# so both bindings are wrapped under one span name.
TARGETS = (
    ("tzitzeica.cli", "newton_solve", "solver.newton"),
    ("tzitzeica.solver", "splu", "solver.splu"),
    ("tzitzeica.solver", "laplacian_matrix", "solver.laplacian_matrix"),
    ("tzitzeica.wave", "travelling_wave", "wave.travelling_wave"),
    ("tzitzeica.cli", "integrate_frame", "lax.integrate_frame"),
    ("tzitzeica.surface", "frame_axis_stencil", "lax.frame_axis_stencil"),
    ("tzitzeica.cli", "save_field", "grid.save_field"),
    ("tzitzeica.cli", "load_field", "grid.load_field"),
    ("tzitzeica.lax", "trig_upsample", "grid.trig_upsample"),
    ("tzitzeica.cli", "save_frame", "cli.save_frame"),
    ("tzitzeica.cli", "load_frame", "cli.load_frame"),
    ("tzitzeica.cli", "write_report_json", "cli.write_report_json"),
    ("tzitzeica.cli", "build_surface", "surface.build_surface"),
    ("tzitzeica.cli", "full_report", "surface.full_report"),
    ("tzitzeica.surface", "extract_second_form", "surface.extract_second_form"),
    ("tzitzeica.surface", "torus_closure", "surface.torus_closure"),
    ("tzitzeica.invariants", "christoffel_from_field", "invariants.christoffel_from_field"),
    ("tzitzeica.invariants", "riemann", "invariants.riemann"),
    ("tzitzeica.invariants", "codazzi_residual", "invariants.codazzi_residual"),
    ("tzitzeica.invariants", "scalar_invariants", "invariants.scalar_invariants"),
    ("tzitzeica.lax", "unitarity_defect_map", "linalg3.unitarity_defect_map"),
    ("tzitzeica.linalg3", "unitarity_defect_map", "linalg3.unitarity_defect_map"),
    ("tzitzeica.meshout", "save_mesh", "meshout.save_mesh"),
    ("tzitzeica.meshout", "load_mesh_points", "meshout.load_mesh_points"),
    ("tzitzeica.meshout", "grid_faces", "meshout.grid_faces"),
    ("tzitzeica.meshout", "export_mesh", "meshout.export_mesh"),
)

LAYERS = ("startup", "solver", "wave", "lax", "grid", "cli", "surface",
          "invariants", "linalg3", "meshout")

# Counts recorded by wrappers that, with every span call count, must repeat
# exactly in each traced pass of a run.
EXACT_COUNTS = ("solver.newton_iters", "lax.frame_nodes", "lax.rk4_batched_steps",
                "cli.frame_csv_bytes", "meshout.export_bytes")

# Per-layer metrics of a traced run: (name, unit, source).  Sources:
# ("span", name) summed span time per pass; ("calls", name) span count per
# pass; ("count", name) a count recorded by a wrapper; ("self", layer) the
# layer's summed self time per pass.  lax.frame_nodes and
# lax.rk4_batched_steps are computed from array sizes, not counted.
PASS_METRICS = (
    ("solver.newton_s", "s", ("span", "solver.newton")),
    ("solver.newton_iters", "count", ("count", "solver.newton_iters")),
    ("solver.splu_calls", "count", ("calls", "solver.splu")),
    ("solver.splu_s", "s", ("span", "solver.splu")),
    ("solver.laplacian_matrix_s", "s", ("span", "solver.laplacian_matrix")),
    ("wave.stage_s", "s", ("span", "stage.wave")),
    ("wave.travelling_wave_s", "s", ("span", "wave.travelling_wave")),
    ("lax.integrate_frame_s", "s", ("span", "lax.integrate_frame")),
    ("lax.frame_nodes", "count", ("count", "lax.frame_nodes")),
    ("lax.extension_node_share", "ratio", ("share", "lax.extension_nodes", "lax.frame_nodes")),
    ("lax.rk4_batched_steps", "count", ("count", "lax.rk4_batched_steps")),
    ("lax.frame_axis_stencil_s", "s", ("span", "lax.frame_axis_stencil")),
    ("grid.save_field_s", "s", ("span", "grid.save_field")),
    ("grid.load_field_s", "s", ("span", "grid.load_field")),
    ("grid.trig_upsample_s", "s", ("span", "grid.trig_upsample")),
    ("cli.save_frame_s", "s", ("span", "cli.save_frame")),
    ("cli.load_frame_s", "s", ("span", "cli.load_frame")),
    ("cli.load_frame_calls", "count", ("calls", "cli.load_frame")),
    ("cli.frame_csv_mb", "MB", ("mb", "cli.frame_csv_bytes")),
    ("cli.write_report_json_s", "s", ("span", "cli.write_report_json")),
    ("surface.build_surface_s", "s", ("span", "surface.build_surface")),
    ("surface.full_report_s", "s", ("span", "surface.full_report")),
    ("surface.extract_second_form_s", "s", ("span", "surface.extract_second_form")),
    ("surface.torus_closure_s", "s", ("span", "surface.torus_closure")),
    ("invariants.christoffel_from_field_s", "s", ("span", "invariants.christoffel_from_field")),
    ("invariants.christoffel_calls", "count", ("calls", "invariants.christoffel_from_field")),
    ("invariants.riemann_s", "s", ("span", "invariants.riemann")),
    ("invariants.codazzi_residual_s", "s", ("span", "invariants.codazzi_residual")),
    ("invariants.scalar_invariants_s", "s", ("span", "invariants.scalar_invariants")),
    ("linalg3.unitarity_defect_map_calls", "count", ("calls", "linalg3.unitarity_defect_map")),
    ("linalg3.unitarity_defect_map_s", "s", ("span", "linalg3.unitarity_defect_map")),
    ("meshout.save_mesh_s", "s", ("span", "meshout.save_mesh")),
    ("meshout.load_mesh_points_s", "s", ("span", "meshout.load_mesh_points")),
    ("meshout.grid_faces_s", "s", ("span", "meshout.grid_faces")),
    ("meshout.export_mesh_s", "s", ("span", "meshout.export_mesh")),
    ("meshout.export_mb", "MB", ("mb", "meshout.export_bytes")),
) + tuple((f"{layer}.self_s", "s", ("self", layer)) for layer in LAYERS[1:] + ("stage",))

# Startup metrics come from `python -X importtime -c "import tzitzeica.cli"`
# spawns: the cumulative import time of each module, in the order the stage
# processes import them.
IMPORT_SPANS = (
    ("tzitzeica.cli", "startup.import_cli"),
    ("scipy.linalg", "startup.import_scipy_linalg"),
    ("scipy.integrate", "startup.import_scipy_integrate"),
    ("scipy.sparse.linalg", "startup.import_scipy_sparse_linalg"),
)
STARTUP_METRICS = tuple((f"{span}_s", "s", ("span", span)) for _mod, span in IMPORT_SPANS) + (
    ("startup.self_s", "s", ("self", "startup")),
)

RUN_METRICS = (
    ("startup.stage_processes", "count"),
    ("trace.overhead_s", "s"),
    ("trace.spans_per_pass", "count"),
)

PER_LAYER = tuple((n, u) for n, u, _ in STARTUP_METRICS + PASS_METRICS) + RUN_METRICS


def _frame_counts(tracer, args, kwargs, frame):
    ny, nx = frame.unitary.shape[:2]
    tracer.count("lax.frame_nodes", nx * ny)
    tracer.count("lax.extension_nodes", nx * ny - frame.grid.nx * frame.grid.ny)
    # one batched RK4 step per substep: first row along x, then all columns along y
    tracer.count("lax.rk4_batched_steps", frame.substeps * ((nx - 1) + (ny - 1)))


def _frame_csv_bytes(tracer, args, kwargs, result):
    tracer.count("cli.frame_csv_bytes", os.path.getsize(args[1]))  # save_frame(frame, path)


def _export_bytes(tracer, args, kwargs, paths):
    tracer.count("meshout.export_bytes", sum(os.path.getsize(p) for p in paths))


def _newton_iters(tracer, args, kwargs, result):
    tracer.count("solver.newton_iters", result.iterations)


HOOKS = {
    "solver.newton": _newton_iters,
    "lax.integrate_frame": _frame_counts,
    "cli.save_frame": _frame_csv_bytes,
    "meshout.export_mesh": _export_bytes,
}


class Tracer:
    """In-memory spans (name, start, end, parent, trace) and per-trace counts."""

    def __init__(self):
        self.spans = []
        self.counts = {}  # trace id -> {name: value}
        self.trace = -1
        self._stack = []
        self._saved = []

    def begin_trace(self):
        """Start a new trace (one pass or one spawn); returns its id."""
        self.trace += 1
        self.counts[self.trace] = {}
        return self.trace

    def count(self, name, value):
        counts = self.counts[self.trace]
        counts[name] = counts.get(name, 0) + value

    def add_span(self, name, start, end, parent=None):
        self.spans.append({"trace": self.trace, "name": name, "start": start,
                           "end": end, "parent": parent})
        return len(self.spans) - 1

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        sid = self.add_span(name, time.perf_counter(), None, parent)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            self.spans[sid]["end"] = time.perf_counter()

    def _wrapper(self, original, name):
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrapper(original, name))
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    def add_import_trace(self, spawn_span, importtime_log):
        """Child spans of one spawn from its `-X importtime` log."""
        cumulative = {}
        for line in importtime_log.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
        end = self.spans[spawn_span]["end"]
        cli_span = None
        for module, name in IMPORT_SPANS:
            if module not in cumulative:
                continue  # not imported at start-up: zero time
            parent = spawn_span if cli_span is None else cli_span
            sid = self.add_span(name, end - cumulative[module], end, parent)
            if cli_span is None:
                cli_span = sid
        if cli_span is None:
            raise ValueError("importtime log has no tzitzeica.cli entry")

    # -- analysis ----------------------------------------------------------

    def summary(self, trace):
        """Span totals, call counts, per-layer self time and counts of one trace."""
        spans = {sid: s for sid, s in enumerate(self.spans) if s["trace"] == trace}
        child_time = {}
        for s in spans.values():
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        totals, calls, self_time = {}, {}, {}
        for sid, s in spans.items():
            dur = s["end"] - s["start"]
            totals[s["name"]] = totals.get(s["name"], 0.0) + dur
            calls[s["name"]] = calls.get(s["name"], 0) + 1
            layer = s["name"].split(".", 1)[0]
            self_time[layer] = self_time.get(layer, 0.0) + dur - child_time.get(sid, 0.0)
        return {"span": totals, "calls": calls, "self": self_time,
                "count": self.counts.get(trace, {})}

    def dump(self, path, meta):
        """Write the run's metadata and every span as JSON lines."""
        with open(path, "w") as fh:
            fh.write(json.dumps(meta, sort_keys=True) + "\n")
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps(dict(s, id=sid), sort_keys=True) + "\n")


def metric_value(summary, source):
    kind, key = source[0], source[1]
    if kind == "mb":
        return summary["count"].get(key, 0) / MB
    if kind == "share":
        whole = summary["count"].get(source[2], 0)
        return summary["count"].get(key, 0) / whole if whole else 0.0
    return summary[kind].get(key, 0)


def exact_counts(summary):
    """The counts of one pass that must repeat exactly from pass to pass."""
    out = {name: summary["count"].get(name, 0) for name in EXACT_COUNTS}
    out.update(("calls:" + name, n) for name, n in summary["calls"].items())
    return out


def layer_metrics(tracer, pass_traces, spawn_traces):
    """Median over traces of every per-layer metric a trace gives."""
    out = {}
    for metrics, traces in ((STARTUP_METRICS, spawn_traces), (PASS_METRICS, pass_traces)):
        summaries = [tracer.summary(t) for t in traces]
        for name, unit, source in metrics:
            out[name] = (statistics.median(metric_value(s, source) for s in summaries), unit)
    return out
