"""Spans around the program's public entry points, and the per-layer
metrics derived from them.

:func:`install` replaces each entry point listed in :data:`ENTRY_POINTS`
with a wrapper that records one span per call (name, layer, start, end,
parent) and, for some calls, counts read from the call's result.  Spans
stay in memory; :meth:`Recorder.write_jsonl` writes them out when the
run ends.  Work the benchmark itself does inside a wrapper (the CG
residual recomputation) is recorded as a ``bench`` span so that it is
charged to no layer of the program.

A layer's self time is its span's duration minus the part its child
spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

#: (layer, module, attribute) of every wrapped entry point; ``Class.meth``
#: names a method.  Functions are replaced wherever a loaded ``repro``
#: module holds a reference to them (attributes and module-level dicts),
#: so the wrappers see calls however the caller imported the function.
ENTRY_POINTS = (
    ("netlist", "repro.netlist.bookshelf", "read_aux"),
    ("netlist", "repro.netlist.bookshelf", "write_aux"),
    ("core", "repro.core.complx", "ComPLxPlacer.place"),
    ("projection", "repro.projection.projector",
     "FeasibilityProjection.__call__"),
    ("projection", "repro.projection.lal", "project_rectangles"),
    ("projection", "repro.projection.grid", "DensityGrid.usage"),
    ("projection", "repro.projection.shredding", "build_shredded_view"),
    ("models", "repro.models.assembly", "AssemblyPlan.build_system"),
    ("models", "repro.models.hpwl", "hpwl"),
    ("models", "repro.models.hpwl", "weighted_hpwl"),
    ("solvers", "repro.solvers.cg", "solve_spd"),
    ("legalize", "repro.resilience.policies", "legalize_with_fallback"),
    ("legalize", "repro.legalize.abacus", "abacus_legalize"),
    ("legalize", "repro.legalize.tetris", "tetris_legalize"),
    ("detailed", "repro.detailed.dp", "DetailedPlacer.place"),
    ("detailed", "repro.detailed.passes", "global_swap_pass"),
    ("detailed", "repro.detailed.passes", "local_reorder_pass"),
    ("detailed", "repro.detailed.passes", "row_shift_pass"),
    ("resilience", "repro.resilience.supervisor", "Supervisor.run_iteration"),
    ("resilience", "repro.resilience.supervisor", "Supervisor.solve_spd"),
    ("resilience", "repro.resilience.supervisor", "Supervisor.update_best"),
    ("resilience", "repro.resilience.supervisor",
     "Supervisor.maybe_checkpoint"),
    ("diagnostics", "repro.diagnostics.doctor", "diagnose"),
    ("report", "repro.report.render", "build_report"),
    ("report", "repro.report.render", "render_html"),
    ("report", "repro.report.render", "record_stage_totals"),
    ("serve", "repro.serve.worker", "run_job"),
)

#: Modules imported before patching so every holder of a reference is
#: already loaded when the references are swapped.
PRELOAD = ("repro", "repro.cli", "repro.serve.worker")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store fed by the wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.paused = False
        #: What the cross-checks need beyond the spans: the job tracer's
        #: span count and the CG solves whose true residual exceeded tol.
        self.captured: dict = {"residual_violations": [],
                               "worst_converged_residual_ratio": 0.0}

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, time.perf_counter(), parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, layer: str, name: str, fn, on_exit=None):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if recorder.paused:
                return fn(*args, **kwargs)
            index = recorder.open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                recorder.close(index)
            if on_exit is not None:
                bench = recorder.open("bench", "bench")
                try:
                    on_exit(recorder, recorder.spans[index], fn, args,
                            kwargs, out)
                finally:
                    recorder.close(bench)
            return out

        return wrapper

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for i, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": s.name, "layer": s.layer,
                    "start": s.start, "end": s.end, "parent": s.parent,
                    **s.attrs}) + "\n")


# ----------------------------------------------------------------------
# result readers: counts taken from each call's inputs and outputs
# ----------------------------------------------------------------------
def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _on_projection(rec, span, fn, args, kwargs, out):
    span.attrs["regions"] = int(out.stats.num_regions)
    span.attrs["depth"] = int(out.stats.max_recursion_depth)


def _on_build_system(rec, span, fn, args, kwargs, out):
    span.attrs["nnz"] = int(out.matrix.nnz)


def _on_solve(rec, span, fn, args, kwargs, out):
    """Counts from the returned CGResult, and the true residual of every
    solve the solver reports as converged."""
    call = _bound(fn, args, kwargs)
    span.attrs["iterations"] = int(out.iterations)
    span.attrs["converged"] = bool(out.converged)
    size = int(call["rhs"].shape[0])
    # The Jacobi-PCG backend makes one mat-vec for the warm-start
    # residual and one per iteration.
    span.attrs["matvecs"] = int(out.iterations) + 1 if size else 0
    if not out.converged or size == 0:
        return
    b_norm = float(np.linalg.norm(call["rhs"]))
    if b_norm == 0.0:
        return
    true = float(np.linalg.norm(call["matrix"] @ out.x - call["rhs"])) / b_norm
    ratio = true / call["tol"]
    rec.captured["worst_converged_residual_ratio"] = max(
        rec.captured["worst_converged_residual_ratio"], ratio)
    if true > call["tol"]:
        rec.captured["residual_violations"].append(
            {"relative_residual": true, "tol": call["tol"]})


def _on_legalize(rec, span, fn, args, kwargs, out):
    call = _bound(fn, args, kwargs)
    placement = call["placement"]
    legal = out[0] if isinstance(out, tuple) else out
    span.attrs["displacement"] = float(
        np.abs(legal.x - placement.x).sum() + np.abs(legal.y - placement.y).sum())
    if isinstance(out, tuple):
        chain = call["chain"]
        span.attrs["fallback"] = out[1] != chain[0][0]


def _on_pass(rec, span, fn, args, kwargs, out):
    span.attrs["moves"] = int(out)


def _on_detailed(rec, span, fn, args, kwargs, out):
    report = args[0].last_report
    span.attrs["rounds"] = int(report.rounds)
    span.attrs["report_moves"] = int(report.moves)


def _on_diagnose(rec, span, fn, args, kwargs, out):
    span.attrs["findings"] = len(out.findings)


def _on_render(rec, span, fn, args, kwargs, out):
    span.attrs["bytes"] = len(out.encode())


def _on_stage_totals(rec, span, fn, args, kwargs, out):
    tracer = _bound(fn, args, kwargs)["tracer"]
    rec.captured["program_spans"] = len(tracer.spans())


def _on_place(rec, span, fn, args, kwargs, out):
    span.attrs["iterations"] = int(out.iterations)
    span.attrs["history_cg_iterations"] = int(sum(
        getattr(record, "cg_iterations", 0) for record in out.history.records))


ON_EXIT = {
    "FeasibilityProjection.__call__": _on_projection,
    "AssemblyPlan.build_system": _on_build_system,
    "solve_spd": _on_solve,
    "legalize_with_fallback": _on_legalize,
    "abacus_legalize": _on_legalize,
    "tetris_legalize": _on_legalize,
    "global_swap_pass": _on_pass,
    "local_reorder_pass": _on_pass,
    "row_shift_pass": _on_pass,
    "DetailedPlacer.place": _on_detailed,
    "diagnose": _on_diagnose,
    "render_html": _on_render,
    "record_stage_totals": _on_stage_totals,
    "ComPLxPlacer.place": _on_place,
}


def install(recorder: Recorder) -> None:
    """Wrap every entry point of :data:`ENTRY_POINTS`."""
    for name in PRELOAD:
        importlib.import_module(name)
    for layer, module_name, attr in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, recorder.wrap(layer, attr, original,
                                             ON_EXIT.get(attr)))
            continue
        original = getattr(module, attr)
        wrapper = recorder.wrap(layer, attr, original, ON_EXIT.get(attr))
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: Entry points a workload must call; a metric derived only from an
#: entry point that saw no call on such a workload is reported missing.
REQUIRED = {
    "gp": ("read_aux", "write_aux", "ComPLxPlacer.place",
           "FeasibilityProjection.__call__", "project_rectangles",
           "DensityGrid.usage", "build_shredded_view",
           "AssemblyPlan.build_system", "weighted_hpwl", "solve_spd",
           "abacus_legalize"),
    "dp": ("read_aux", "write_aux", "DetailedPlacer.place",
           "global_swap_pass", "local_reorder_pass", "row_shift_pass",
           "legalize_with_fallback", "abacus_legalize"),
    "job": ("read_aux", "ComPLxPlacer.place",
            "FeasibilityProjection.__call__", "project_rectangles",
            "DensityGrid.usage", "build_shredded_view",
            "AssemblyPlan.build_system", "hpwl", "weighted_hpwl",
            "solve_spd", "legalize_with_fallback", "abacus_legalize",
            "Supervisor.run_iteration", "diagnose", "build_report",
            "render_html", "record_stage_totals", "run_job"),
}

#: metric -> (unit, entry points it is derived from).
PER_LAYER = {
    "netlist.read_s": ("s", ("read_aux",)),
    "netlist.write_s": ("s", ("write_aux",)),
    "core.place_s": ("s", ("ComPLxPlacer.place",)),
    "core.init_sweeps_s": ("s", ("ComPLxPlacer.place",
                                 "FeasibilityProjection.__call__")),
    "core.iterations": ("count", ("ComPLxPlacer.place",)),
    "core.self_s": ("s", ("ComPLxPlacer.place",)),
    "core.history_cg_iterations": ("count", ("ComPLxPlacer.place",)),
    "projection.s": ("s", ("FeasibilityProjection.__call__",)),
    "projection.lal_s": ("s", ("project_rectangles",)),
    "projection.rasterize_s": ("s", ("DensityGrid.usage",)),
    "projection.shred_s": ("s", ("build_shredded_view",)),
    "projection.calls": ("count", ("FeasibilityProjection.__call__",)),
    "projection.regions": ("count", ("FeasibilityProjection.__call__",)),
    "projection.max_depth": ("count", ("FeasibilityProjection.__call__",)),
    "models.b2b_build_s": ("s", ("AssemblyPlan.build_system",)),
    "models.b2b_builds": ("count", ("AssemblyPlan.build_system",)),
    "models.nnz": ("count", ("AssemblyPlan.build_system",)),
    "models.hpwl_s": ("s", ("hpwl", "weighted_hpwl")),
    "models.hpwl_calls": ("count", ("hpwl", "weighted_hpwl")),
    "solvers.cg_s": ("s", ("solve_spd",)),
    "solvers.cg_solves": ("count", ("solve_spd",)),
    "solvers.cg_iterations": ("count", ("solve_spd",)),
    "solvers.cg_matvecs": ("count", ("solve_spd",)),
    "solvers.cg_unconverged": ("count", ("solve_spd",)),
    "legalize.s": ("s", ("legalize_with_fallback", "abacus_legalize",
                         "tetris_legalize")),
    "legalize.calls": ("count", ("legalize_with_fallback", "abacus_legalize",
                                 "tetris_legalize")),
    "legalize.fallbacks": ("count", ("legalize_with_fallback",)),
    "legalize.displacement": ("length", ("legalize_with_fallback",
                                         "abacus_legalize",
                                         "tetris_legalize")),
    "detailed.s": ("s", ("DetailedPlacer.place",)),
    "detailed.global_swap_s": ("s", ("global_swap_pass",)),
    "detailed.local_reorder_s": ("s", ("local_reorder_pass",)),
    "detailed.row_shift_s": ("s", ("row_shift_pass",)),
    "detailed.moves": ("count", ("global_swap_pass", "local_reorder_pass",
                                 "row_shift_pass")),
    "detailed.rounds": ("count", ("DetailedPlacer.place",)),
    "resilience.self_s": ("s", ("Supervisor.run_iteration",)),
    "telemetry.spans": ("count", ("record_stage_totals",)),
    "telemetry.series_points": ("count", ("run_job",)),
    "diagnostics.s": ("s", ("diagnose",)),
    "diagnostics.findings": ("count", ("diagnose",)),
    "report.s": ("s", ("build_report", "render_html")),
    "report.bytes": ("bytes", ("render_html",)),
    "serve.job_self_s": ("s", ("run_job",)),
    "trace.overhead_s": ("s", ()),
    "trace.coverage": ("ratio", ()),
}


class SpanIndex:
    """Queries over a finished recorder's spans."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        self.children: dict[int, list[int]] = {}
        for i, s in enumerate(spans):
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(i)

    def of(self, *names: str) -> list[Span]:
        return [s for s in self.spans if s.name in names]

    def outermost(self, *names: str) -> list[Span]:
        """Spans of ``names`` with no ancestor among ``names``."""
        out = []
        for s in self.spans:
            if s.name not in names:
                continue
            parent = s.parent
            while parent is not None and self.spans[parent].name not in names:
                parent = self.spans[parent].parent
            if parent is None:
                out.append(s)
        return out

    def total(self, *names: str) -> float:
        return sum(s.duration for s in self.outermost(*names))

    def self_time(self, index: int) -> float:
        s = self.spans[index]
        return s.duration - sum(self.spans[c].duration
                                for c in self.children.get(index, ()))

    def self_total(self, predicate) -> float:
        return sum(self.self_time(i) for i, s in enumerate(self.spans)
                   if predicate(s))

    def attr_sum(self, name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in self.of(name))


def layer_metrics(recorder: Recorder, kind: str, flow_start: float,
                  flow_end: float,
                  series_points: int | None) -> tuple[dict, list[str]]:
    """Per-layer values (metric -> number) and the metrics reported
    missing because a required entry point saw no call.

    ``trace.coverage`` is the share of the flow's time, less the
    benchmark's own work inside wrappers, that the self times of the
    layers below ``core`` account for.
    """
    idx = SpanIndex(recorder.spans)
    seen = {s.name for s in recorder.spans}
    missing_calls = set(REQUIRED[kind]) - seen
    projections = idx.of("FeasibilityProjection.__call__")
    init_sweeps = 0.0
    for place in idx.of("ComPLxPlacer.place"):
        first = min((p.start for p in projections
                     if place.start <= p.start <= place.end), default=None)
        if first is not None:
            init_sweeps += first - place.start
    legal = idx.outermost("legalize_with_fallback", "abacus_legalize",
                          "tetris_legalize")
    solves = idx.of("solve_spd")

    def in_flow(s: Span) -> bool:
        return flow_start <= s.start and s.end <= flow_end

    bench_s = sum(s.duration for s in idx.of("bench") if in_flow(s))
    layered = idx.self_total(
        lambda s: in_flow(s) and s.layer not in ("core", "bench"))
    values = {
        "netlist.read_s": idx.total("read_aux"),
        "netlist.write_s": idx.total("write_aux"),
        "core.place_s": idx.total("ComPLxPlacer.place"),
        "core.init_sweeps_s": init_sweeps,
        "core.iterations": idx.attr_sum("ComPLxPlacer.place", "iterations"),
        "core.self_s": idx.self_total(lambda s: s.layer == "core"),
        "core.history_cg_iterations": idx.attr_sum(
            "ComPLxPlacer.place", "history_cg_iterations"),
        "projection.s": idx.total("FeasibilityProjection.__call__"),
        "projection.lal_s": idx.total("project_rectangles"),
        "projection.rasterize_s": idx.total("DensityGrid.usage"),
        "projection.shred_s": idx.total("build_shredded_view"),
        "projection.calls": len(projections),
        "projection.regions": sum(s.attrs["regions"] for s in projections),
        "projection.max_depth": max((s.attrs["depth"] for s in projections),
                                    default=0),
        "models.b2b_build_s": idx.total("AssemblyPlan.build_system"),
        "models.b2b_builds": len(idx.of("AssemblyPlan.build_system")),
        "models.nnz": idx.attr_sum("AssemblyPlan.build_system", "nnz"),
        "models.hpwl_s": idx.total("hpwl", "weighted_hpwl"),
        "models.hpwl_calls": len(idx.of("hpwl", "weighted_hpwl")),
        "solvers.cg_s": idx.total("solve_spd"),
        "solvers.cg_solves": len(solves),
        "solvers.cg_iterations": sum(s.attrs["iterations"] for s in solves),
        "solvers.cg_matvecs": sum(s.attrs["matvecs"] for s in solves),
        "solvers.cg_unconverged": sum(not s.attrs["converged"] for s in solves),
        "legalize.s": sum(s.duration for s in legal),
        "legalize.calls": len(legal),
        "legalize.fallbacks": sum(bool(s.attrs.get("fallback"))
                                  for s in idx.of("legalize_with_fallback")),
        "legalize.displacement": sum(s.attrs["displacement"] for s in legal),
        "detailed.s": idx.total("DetailedPlacer.place"),
        "detailed.global_swap_s": idx.total("global_swap_pass"),
        "detailed.local_reorder_s": idx.total("local_reorder_pass"),
        "detailed.row_shift_s": idx.total("row_shift_pass"),
        "detailed.moves": sum(idx.attr_sum(n, "moves") for n in (
            "global_swap_pass", "local_reorder_pass", "row_shift_pass")),
        "detailed.rounds": idx.attr_sum("DetailedPlacer.place", "rounds"),
        "resilience.self_s": idx.self_total(lambda s: s.layer == "resilience"),
        "telemetry.spans": recorder.captured.get("program_spans", 0),
        "telemetry.series_points": series_points or 0,
        "diagnostics.s": idx.total("diagnose"),
        "diagnostics.findings": idx.attr_sum("diagnose", "findings"),
        "report.s": idx.total("build_report", "render_html"),
        "report.bytes": idx.attr_sum("render_html", "bytes"),
        "serve.job_self_s": idx.self_total(lambda s: s.name == "run_job"),
        "trace.coverage": layered / max(flow_end - flow_start - bench_s,
                                        1e-12),
    }
    missing = sorted(
        metric for metric, (_, sources) in PER_LAYER.items()
        if sources and any(src in missing_calls for src in sources)
        and not any(src in seen for src in sources))
    for metric in missing:
        values.pop(metric, None)
    return values, missing


def program_cross_checks(recorder: Recorder, body: dict | None) -> list[str]:
    """Compare the program's own reports with the spans and counts.

    * every CG solve reported converged has ``||Ax-b||/||b|| <= tol``;
    * (dp) the moves the three passes return add up to
      ``DetailedPlacer.last_report.moves``;
    * (job) the registry counter ``cg_iterations_total`` equals the sum
      of the returned ``CGResult.iterations``;
    * (job) each ``stage_<name>_count`` gauge equals the number of
      wrapped calls of the same stage and its ``stage_<name>_total_s``
      agrees with their summed span time to within 5% plus 0.5 ms per
      call (the two clocks bracket slightly different code).
    """
    failures = []
    for v in recorder.captured["residual_violations"][:3]:
        failures.append(
            f"CG reported converged at ||Ax-b||/||b|| = "
            f"{v['relative_residual']:.3g} > tol {v['tol']:.3g}")
    idx = SpanIndex(recorder.spans)
    for place in idx.of("DetailedPlacer.place"):
        passes = sum(s.attrs["moves"] for s in recorder.spans
                     if "moves" in s.attrs and place.start <= s.start
                     and s.end <= place.end)
        if passes != place.attrs["report_moves"]:
            failures.append(f"detailed passes returned {passes} moves, "
                            f"last_report says {place.attrs['report_moves']}")
    if body is None:
        return failures
    metrics = body["metrics"]
    counters = {c["name"]: c["value"] for c in metrics["counters"]}
    gauges = {g["name"]: g["value"] for g in metrics["gauges"]}
    ours = sum(s.attrs["iterations"] for s in idx.of("solve_spd"))
    if counters.get("cg_iterations_total") != ours:
        failures.append(f"registry cg_iterations_total "
                        f"{counters.get('cg_iterations_total')} != "
                        f"{ours} summed from CGResult")
    for stage, entry in STAGE_ENTRY_POINTS.items():
        spans = idx.of(entry)
        count = gauges.get(f"stage_{stage}_count")
        total = gauges.get(f"stage_{stage}_total_s")
        if count != len(spans):
            failures.append(f"stage_{stage}_count {count} != "
                            f"{len(spans)} calls of {entry}")
            continue
        measured = sum(s.duration for s in spans)
        if abs(total - measured) > 0.05 * measured + 5e-4 * len(spans):
            failures.append(f"stage_{stage}_total_s {total:.4f} != "
                            f"{measured:.4f} s spent in {entry}")
    return failures


#: Program stage span -> the wrapped entry point that brackets the same
#: calls.
STAGE_ENTRY_POINTS = {
    "global_place": "ComPLxPlacer.place",
    "projection": "FeasibilityProjection.__call__",
    "lookahead_legalize": "project_rectangles",
    "b2b_build": "AssemblyPlan.build_system",
    "cg_solve": "solve_spd",
}
