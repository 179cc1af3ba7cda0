"""One benchmark step in its own process.

``prepare`` writes a workload's input as Bookshelf files and a manifest
(fingerprints, reference HPWL).  ``run`` sets up, prints ``READY`` the
moment the placer (or the job spec) is constructed, runs one flow, checks
its output and prints one JSON line with the result.  The launcher
(``run.py``) times set-up from process start to ``READY``.  ``offgrid``
runs the detailed placer on a fixed design it overlaps (a known fault)
and prints the failed checks.

    python3 perfbench/flow.py prepare --workload dp-newblue1-3k --seed 202 --dir D
    python3 perfbench/flow.py run --workload dp-newblue1-3k --dir D/design-0 [--trace SPANS.jsonl]
    python3 perfbench/flow.py offgrid --workload dp-newblue1-3k --dir D

All need ``src`` on ``PYTHONPATH``; the launcher sets it, together with
a one-thread BLAS pool.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

from workloads import WORKLOADS

#: Global placement's iteration budget on gp and job.  Free-running, the
#: loop stopped after 44 to 79 (gp) and 45 to 100 (job) iterations
#: depending on the design, and flow time followed the count more than
#: anything else; a budget below every observed stop gives each flow the
#: same work, so the time measures the layers, not the design.
MAX_ITERATIONS = 40


def _fingerprints(directory: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            out[name] = hashlib.sha256(handle.read()).hexdigest()[:16]
    return out


def design_spec(workload, seed: int):
    """The registry entry's synthetic spec at the workload's scale, with
    the given generator seed (load_suite's sizing rule)."""
    from repro.workloads import SyntheticSpec, suite_entry

    entry = suite_entry(workload.suite)
    macro_scale = max(workload.scale, 0.05) ** 0.5
    return SyntheticSpec(
        name=entry.name,
        num_cells=max(int(entry.num_cells * workload.scale), 50),
        num_fixed_macros=max(int(round(entry.num_fixed_macros * macro_scale)),
                             1 if entry.num_fixed_macros else 0),
        num_movable_macros=max(
            int(round(entry.num_movable_macros * macro_scale)),
            1 if entry.num_movable_macros else 0),
        target_density=entry.target_density,
        utilization=entry.utilization,
        num_pads=max(int(64 * macro_scale), 16),
        seed=seed,
    )


def design_seeds(seed: int, count: int) -> list[int]:
    """Generator seeds of a run's designs: the run's seed first."""
    return [seed + 1_000_003 * j for j in range(count)]


def macros_on_site_grid(netlist, placement):
    """The design with every macro widened to whole sites and its left
    edge moved onto the nearest site inside the core.

    Returns ``(netlist, placement)``; fixed macros move in the netlist,
    movable ones in the placement, pin offsets stay.  The generator makes
    macros of fractional width at fractional positions, and the detailed
    placer overlaps cells next to such an edge (see ``offgrid_design``).
    """
    import numpy as np

    from repro.netlist import Netlist, Placement

    site = netlist.core.site_width
    bounds = netlist.core.bounds
    macro = netlist.is_macro
    widths = np.where(macro, np.ceil(netlist.widths / site - 1e-9) * site,
                      netlist.widths)

    def on_grid(x):
        left = bounds.xlo + np.round((x - 0.5 * widths - bounds.xlo) / site) * site
        left = np.clip(left, bounds.xlo, bounds.xhi - widths)
        return np.where(macro, left + 0.5 * widths, x)

    gridded = Netlist(
        netlist.name, netlist.cell_names, widths, netlist.heights,
        netlist.kinds, netlist.movable,
        np.where(netlist.movable, netlist.fixed_x, on_grid(netlist.fixed_x)),
        netlist.fixed_y, netlist.net_names, netlist.net_start,
        netlist.pin_cell, netlist.pin_dx, netlist.pin_dy,
        net_weights=netlist.net_weights, core=netlist.core,
        regions=netlist.regions, pin_is_driver=netlist.pin_is_driver)
    x = np.where(netlist.movable, on_grid(placement.x), gridded.fixed_x)
    return gridded, Placement(x, placement.y.copy())


def offgrid_design():
    """A fixed design on which the detailed placer returns overlapping
    cells, and its legal start.

    Four rows of 32 sites lie between two fixed blocks whose inner edges
    fall mid-site (x = 5.5 and x = 29.5).  Each row holds six cells of
    width 4, abutting from 5.5 to 29.5, and nets tie cells of
    neighbouring rows.  The placer optimizes inside the 24-wide free
    segment, then snaps cells onto the 23 whole sites of that segment,
    which cannot hold them.
    """
    import numpy as np

    from repro.netlist import CellKind, CoreArea, NetlistBuilder, Placement, Rect

    rows, width = 4, 32.0
    builder = NetlistBuilder("offgrid", core=CoreArea.uniform(
        Rect(0.0, 0.0, width, float(rows)), row_height=1.0))
    builder.add_cell("left", 5.5, rows, kind=CellKind.MACRO,
                     fixed_at=(2.75, 0.5 * rows))
    builder.add_cell("right", 2.5, rows, kind=CellKind.MACRO,
                     fixed_at=(width - 1.25, 0.5 * rows))
    for r in range(rows):
        for k in range(6):
            builder.add_cell(f"c{r}_{k}", 4.0, 1.0)
    for r in range(rows):
        for k in range(5):
            builder.add_net(f"n{r}_{k}", [(f"c{r}_{k}", 0.0, 0.0),
                                          (f"c{(r + 1) % rows}_{k + 1}", 0.0, 0.0)])
    netlist = builder.build()
    x, y = netlist.fixed_x.copy(), netlist.fixed_y.copy()
    cells = np.flatnonzero(netlist.movable)
    x[cells] = np.tile(7.5 + 4.0 * np.arange(6), rows)
    y[cells] = np.repeat(0.5 + np.arange(rows), 6)
    return netlist, Placement(x, y)


def prepare(workload, seed: int, directory: str) -> dict:
    """Write the input design; the dp input carries the reference layout
    as its placement, with its macros on the site grid, the others the
    all-at-center start the CLI's ``generate`` writes."""
    import numpy as np

    from checks import pin_box_hpwl
    from repro.netlist import Placement
    from repro.netlist.bookshelf import read_aux, write_aux
    from repro.workloads import generate

    spec = design_spec(workload, seed)
    design = generate(spec)
    netlist = design.netlist
    # The generator's reference arrays leave pads at the origin; fixed
    # cells take the netlist's fixed positions.
    reference = Placement(np.where(netlist.movable, design.golden_x, netlist.fixed_x),
                          np.where(netlist.movable, design.golden_y, netlist.fixed_y))
    if workload.kind == "dp":
        # Off-grid macros make the detailed placer overlap cells on some
        # designs (offgrid_design shows it on a fixed input in every run).
        netlist, reference = macros_on_site_grid(netlist, reference)
    start = reference if workload.kind == "dp" else netlist.initial_placement()
    inputs = os.path.join(directory, "input")
    aux = write_aux(netlist, start, inputs)
    # Measure the reference on the design as it reads back (the .nodes
    # format rounds macro sizes).
    read_back, _ = read_aux(aux)
    manifest = {
        "workload": workload.name, "seed": seed, "suite": workload.suite,
        "scale": workload.scale, "gamma": spec.target_density,
        "aux": os.path.relpath(aux, directory),
        "cells": read_back.num_cells, "nets": read_back.num_nets,
        "pins": read_back.num_pins, "movable": read_back.num_movable,
        "reference_hpwl": pin_box_hpwl(read_back, reference),
        "fingerprints": _fingerprints(inputs),
    }
    with open(os.path.join(directory, "manifest.json"), "w") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
    return manifest


# ----------------------------------------------------------------------
# set-up and flows
# ----------------------------------------------------------------------
def _detailed_placer(netlist):
    """``DetailedPlacer`` with the CLI's legalizer chain (Abacus first,
    Tetris as the degraded fallback); the list collects each
    ``(legal start, legalizer used)``."""
    from repro import legalize as legalizers
    from repro.detailed import DetailedPlacer
    from repro.resilience import legalize_with_fallback

    starts = []

    def chained(nl, placement, check_invariants=False):
        chain = [("abacus", legalizers.abacus_legalize),
                 ("tetris", legalizers.tetris_legalize)]
        legal, used = legalize_with_fallback(
            nl, placement, chain, check_invariants=check_invariants)
        starts.append((legal, used))
        return legal

    return DetailedPlacer(netlist, legalizer=chained), starts


def offgrid() -> dict:
    """Detailed placement of ``offgrid_design``: the known fault, one
    operation of every dp run.  Its failures are the checks'."""
    from checks import check_legal_placement

    netlist, start = offgrid_design()
    placer, _ = _detailed_placer(netlist)
    return {"failures": check_legal_placement(netlist, placer.place(start))}


def _setup(workload, manifest: dict, directory: str):
    """Everything up to a constructed placer; returns the flow thunk."""
    aux = os.path.join(directory, manifest["aux"])
    out_dir = os.path.join(directory, f"out-{os.getpid()}")
    gamma = manifest["gamma"]
    if workload.kind == "gp":
        from repro import ComPLxConfig, ComPLxPlacer
        from repro.legalize import abacus_legalize
        from repro.netlist.bookshelf import read_aux, write_aux

        netlist, _ = read_aux(aux)
        placer = ComPLxPlacer(netlist, ComPLxConfig(
            gamma=gamma, max_iterations=MAX_ITERATIONS))

        def flow():
            result = placer.place()
            legal = abacus_legalize(netlist, result.upper)
            written = write_aux(netlist, legal, out_dir,
                                design=f"{netlist.name}_placed")
            return {"netlist": netlist, "final": legal, "written": written,
                    "iterations": result.iterations}
        return flow

    if workload.kind == "dp":
        from repro.netlist.bookshelf import read_aux, write_aux

        netlist, start = read_aux(aux)
        placer, starts = _detailed_placer(netlist)

        def flow():
            final = placer.place(start)
            written = write_aux(netlist, final, out_dir,
                                design=f"{netlist.name}_placed")
            return {"netlist": netlist, "final": final, "written": written,
                    "legalized": starts}
        return flow

    from repro.serve.jobs import JobSpec
    from repro.serve.worker import run_job

    spec = JobSpec.from_payload({
        "name": "perfbench",
        "workload": {"kind": "aux", "path": manifest["aux"]},
        "config": {"gamma": gamma, "max_iterations": MAX_ITERATIONS},
        "legalizer": "abacus",
        "include_placement": True,
    }, job_id="perfbench")
    payload = {
        "spec": dict(spec.__dict__),
        "tier": {"name": "full", "max_iterations_factor": 1.0,
                 "legalizer": None, "skip_detailed": False},
        "aux_root": directory,
    }

    def flow():
        events = []  # the progress stream a service would forward
        body = run_job(payload, events.append)
        return {"body": body, "iterations": body["iterations"]}
    return flow


def _check(workload, manifest: dict, directory: str, out: dict) -> tuple[dict, list[str]]:
    """Independent output checks; returns (figures, failures)."""
    from checks import check_hpwl, check_legal_placement, check_ratio, \
        pin_box_hpwl
    from repro.metrics import scaled_hpwl
    from repro.models import hpwl
    from repro.netlist import Placement
    from repro.netlist.bookshelf import read_aux

    failures = []
    if workload.kind == "job":
        body = out["body"]
        netlist, _ = read_aux(os.path.join(directory, manifest["aux"]))
        final = Placement(body["placement"]["x"], body["placement"]["y"])
        if body["legalizer"] != "abacus":
            failures.append(f"job legalized with {body['legalizer']!r}, "
                            "not abacus")
        if body["recovery_events"]:
            failures.append(f"job logged {len(body['recovery_events'])} "
                            "recovery events")
        own = pin_box_hpwl(netlist, final)
        if abs(own - body["hpwl_legal"]) > 1e-9 * own:
            failures.append(f"job hpwl_legal {body['hpwl_legal']!r} != "
                            f"recomputed {own!r}")
    else:
        netlist, final = out["netlist"], out["final"]
        # The written file is the output: it must read back as the
        # in-memory result.
        _, written = read_aux(out["written"])
        drift = max(float(abs(written.x - final.x).max()),
                    float(abs(written.y - final.y).max()))
        if not drift <= 1e-6:
            failures.append(f"written placement differs by {drift:.3g}")

    failures += check_legal_placement(netlist, final)
    scaled = scaled_hpwl(netlist, final, manifest["gamma"])
    legal_hpwl, bad = check_hpwl(netlist, final, hpwl(netlist, final),
                                 scaled.scaled)
    failures += bad
    figures = {"scaled_hpwl": scaled.scaled, "hpwl": legal_hpwl,
               "reference_ratio": legal_hpwl / manifest["reference_hpwl"],
               "scaled_hpwl_ratio": scaled.scaled / manifest["reference_hpwl"],
               "iterations": out.get("iterations")}
    failures += check_ratio("legal vs reference layout", legal_hpwl,
                            manifest["reference_hpwl"],
                            workload.reference_limit)
    if workload.kind == "dp":
        if len(out["legalized"]) != 1:
            failures.append(f"detailed placer legalized "
                            f"{len(out['legalized'])} times, expected once")
        else:
            legal_start, used = out["legalized"][0]
            start_hpwl = pin_box_hpwl(netlist, legal_start)
            figures["legal_start_hpwl"] = start_hpwl
            if used != "abacus":
                failures.append(f"start legalized with {used!r}")
            if legal_hpwl > start_hpwl * (1 + 1e-12):
                failures.append(f"detailed result {legal_hpwl:.6g} is worse "
                                f"than its legal start {start_hpwl:.6g}")
    return figures, failures


def run(workload, directory: str, trace_path: str | None,
        setup_only: bool) -> dict:
    recorder = None
    if trace_path is not None:
        from tracing import Recorder, install

        recorder = Recorder()
        install(recorder)
    with open(os.path.join(directory, "manifest.json")) as handle:
        manifest = json.load(handle)
    flow = _setup(workload, manifest, directory)
    print("READY", flush=True)
    if setup_only:
        return {}
    t0 = time.perf_counter()
    out = flow()
    t1 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        recorder.paused = True
    result = {"flow_s": t1 - t0, "peak_rss_mb": peak_rss_mb}
    figures, failures = _check(workload, manifest, directory, out)
    result.update(figures)
    if recorder is not None:
        from tracing import PER_LAYER, layer_metrics, program_cross_checks

        body = out.get("body")
        series_points = None
        if body is not None:
            series_points = sum(len(s["values"])
                                for s in body["metrics"]["series"])
        layers, missing = layer_metrics(recorder, workload.kind, t0, t1,
                                        series_points)
        failures += program_cross_checks(recorder, body)
        recorder.write_jsonl(trace_path)
        result["layers"] = layers
        result["layer_units"] = {k: unit for k, (unit, _) in PER_LAYER.items()}
        result["missing"] = missing
        result["worst_converged_residual_ratio"] = \
            recorder.captured["worst_converged_residual_ratio"]
    result["failures"] = failures
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=("prepare", "run", "offgrid"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="generator seed (prepare); default: the "
                             "registry seed of the workload's suite")
    parser.add_argument("--designs", type=int, default=1,
                        help="prepare: number of designs, written to "
                             "DIR/design-0, DIR/design-1, ...")
    parser.add_argument("--trace", default=None, metavar="SPANS.jsonl")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.step == "prepare":
        seed = args.seed
        if seed is None:
            from repro.workloads import suite_entry

            seed = suite_entry(workload.suite).seed
        result = {"designs": [
            prepare(workload, s, os.path.join(args.dir, f"design-{j}"))
            for j, s in enumerate(design_seeds(seed, args.designs))]}
    elif args.step == "offgrid":
        result = offgrid()
    else:
        result = run(workload, args.dir, args.trace, args.setup_only)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
