"""The benchmark's checks reject broken placements, and a small run of
each workload passes them.

    python -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flow
from checks import (
    check_finite_and_fixed,
    check_hpwl,
    check_legal_placement,
    check_no_overlap,
    check_ratio,
    check_rows_and_sites,
    pin_box_hpwl,
)
from workloads import WORKLOADS

from repro.legalize import abacus_legalize
from repro.models import hpwl
from repro.netlist import Placement
from repro.workloads import SyntheticSpec, generate

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def legal_design():
    """A small design with fixed macros and pads, legalized by Abacus."""
    design = generate(SyntheticSpec("checks", num_cells=300,
                                    num_fixed_macros=2, num_movable_macros=1,
                                    seed=7))
    netlist = design.netlist
    spread = Placement(
        np.where(netlist.movable, design.golden_x, netlist.fixed_x),
        np.where(netlist.movable, design.golden_y, netlist.fixed_y))
    return netlist, abacus_legalize(netlist, spread)


def _copy(placement):
    return Placement(placement.x.copy(), placement.y.copy())


def _std_cell(netlist):
    return int(np.flatnonzero(netlist.movable & ~netlist.is_macro)[0])


def test_legal_placement_passes(legal_design):
    netlist, legal = legal_design
    assert check_legal_placement(netlist, legal) == []


def test_hpwl_recomputation_matches_the_program(legal_design):
    netlist, legal = legal_design
    own, failures = check_hpwl(netlist, legal, hpwl(netlist, legal),
                               hpwl(netlist, legal) * 1.01)
    assert failures == []
    assert own == pytest.approx(hpwl(netlist, legal), rel=1e-12)


def test_overlap_is_rejected(legal_design):
    netlist, legal = legal_design
    broken = _copy(legal)
    std = np.flatnonzero(netlist.movable & ~netlist.is_macro)
    a, b = std[0], std[1]
    broken.x[b], broken.y[b] = broken.x[a] + 0.25, broken.y[a]
    assert check_no_overlap(netlist, broken)


def test_overlap_with_a_fixed_macro_is_rejected(legal_design):
    netlist, legal = legal_design
    broken = _copy(legal)
    macro = int(np.flatnonzero(~netlist.movable & netlist.is_macro)[0])
    cell = _std_cell(netlist)
    row_h = netlist.core.row_height
    site = netlist.core.site_width
    half_w = 0.5 * netlist.widths[cell]
    # Put the cell on a row and a site inside the macro's footprint.
    bottom = netlist.fixed_y[macro] - 0.5 * netlist.heights[macro] + row_h
    broken.x[cell] = np.floor((netlist.fixed_x[macro] - half_w) / site) * site \
        + half_w
    broken.y[cell] = np.floor(bottom / row_h) * row_h + 0.5 * row_h
    assert check_no_overlap(netlist, broken)
    assert check_rows_and_sites(netlist, broken) == []


def test_off_row_cell_is_rejected(legal_design):
    netlist, legal = legal_design
    broken = _copy(legal)
    broken.y[_std_cell(netlist)] += 0.3 * netlist.core.row_height
    assert check_rows_and_sites(netlist, broken)


def test_off_site_cell_is_rejected(legal_design):
    netlist, legal = legal_design
    broken = _copy(legal)
    broken.x[_std_cell(netlist)] += 0.37 * netlist.core.site_width
    assert check_rows_and_sites(netlist, broken)


def test_cell_outside_the_core_is_rejected(legal_design):
    netlist, legal = legal_design
    broken = _copy(legal)
    broken.x[_std_cell(netlist)] = netlist.core.bounds.xhi + 5.0
    assert check_rows_and_sites(netlist, broken)


def test_moved_fixed_cell_is_rejected(legal_design):
    netlist, legal = legal_design
    broken = _copy(legal)
    fixed = int(np.flatnonzero(~netlist.movable)[0])
    broken.x[fixed] += 1.0
    assert check_finite_and_fixed(netlist, broken)


def test_non_finite_coordinate_is_rejected(legal_design):
    netlist, legal = legal_design
    broken = _copy(legal)
    broken.y[_std_cell(netlist)] = np.nan
    assert check_finite_and_fixed(netlist, broken)


def test_wrong_hpwl_is_rejected(legal_design):
    netlist, legal = legal_design
    right = hpwl(netlist, legal)
    _, failures = check_hpwl(netlist, legal, right * (1 + 1e-6), right * 1.1)
    assert failures
    _, failures = check_hpwl(netlist, legal, right, right * 0.99)
    assert failures


def test_pin_box_hpwl_of_one_net():
    design = generate(SyntheticSpec("one", num_cells=20, seed=3))
    netlist = design.netlist
    placement = netlist.initial_placement(jitter=3.0, seed=1)
    assert pin_box_hpwl(netlist, placement) == pytest.approx(
        hpwl(netlist, placement), rel=1e-12)


def test_reference_ratio_limit():
    assert check_ratio("x", 120.0, 100.0, 1.25) == []
    assert check_ratio("x", 130.0, 100.0, 1.25)


# ----------------------------------------------------------------------
# inputs of the dp workload
# ----------------------------------------------------------------------
def test_macros_on_site_grid_are_whole_sites_inside_the_core():
    design = generate(SyntheticSpec("grid", num_cells=300,
                                    num_fixed_macros=2, num_movable_macros=2,
                                    seed=11))
    netlist = design.netlist
    reference = Placement(
        np.where(netlist.movable, design.golden_x, netlist.fixed_x),
        np.where(netlist.movable, design.golden_y, netlist.fixed_y))
    gridded, placement = flow.macros_on_site_grid(netlist, reference)
    macros = np.flatnonzero(netlist.is_macro)
    assert (netlist.widths[macros] % 1.0 != 0).any()
    widths = gridded.widths[macros]
    lefts = placement.x[macros] - 0.5 * widths
    assert np.allclose(widths, np.round(widths))
    assert np.allclose(lefts, np.round(lefts))
    assert (lefts >= 0).all() and (lefts + widths <= gridded.core.bounds.xhi).all()
    fixed = macros[~netlist.movable[macros]]
    assert np.array_equal(placement.x[fixed], gridded.fixed_x[fixed])
    assert (np.abs(placement.x[macros] - reference.x[macros]) <= 1.0).all()
    assert np.array_equal(gridded.pin_dx, netlist.pin_dx)


def test_offgrid_start_is_legal_and_fills_its_segments():
    """The program takes the known-fault input as legal, so the detailed
    placer starts from it unchanged, and each row is packed between the
    blocks' mid-site edges."""
    from repro.netlist import check_legal

    netlist, start = flow.offgrid_design()
    assert check_legal(netlist, start).legal
    assert check_no_overlap(netlist, start) == []
    cells = np.flatnonzero(netlist.movable)
    lefts = start.x[cells] - 0.5 * netlist.widths[cells]
    assert lefts.min() == 5.5
    assert (lefts + netlist.widths[cells]).max() == 29.5


# ----------------------------------------------------------------------
# small runs of every workload
# ----------------------------------------------------------------------
SMALL_SCALE = {"gp": 0.05, "dp": 0.1, "job": 0.1}


def _small(name):
    workload = WORKLOADS[name]
    return dataclasses.replace(workload, scale=SMALL_SCALE[workload.kind])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_run_passes_every_check(name, tmp_path):
    workload = _small(name)
    manifest = flow.prepare(workload, seed=5, directory=str(tmp_path))
    assert manifest["cells"] > 50
    result = flow.run(workload, str(tmp_path), None, setup_only=False)
    assert result["failures"] == []
    assert result["flow_s"] > 0
    assert result["hpwl"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_traced_run_reports_its_layers(name, tmp_path):
    """Traced in a child process: the wrappers patch the program."""
    workload = _small(name)
    flow.prepare(workload, seed=5, directory=str(tmp_path))
    spans = tmp_path / "spans.jsonl"
    script = (
        "import sys, json, dataclasses;"
        f"sys.path[:0] = [{str(HERE)!r}];"
        "import flow; from workloads import WORKLOADS;"
        f"w = dataclasses.replace(WORKLOADS[{name!r}], "
        f"scale={workload.scale!r});"
        f"print(json.dumps(flow.run(w, {str(tmp_path)!r}, {str(spans)!r}, "
        "False)))"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(HERE.parent / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failures"] == []
    assert result["missing"] == []
    layers = result["layers"]
    if workload.kind in ("gp", "job"):
        assert layers["core.iterations"] > 0
        assert layers["solvers.cg_iterations"] > 0
        assert layers["projection.calls"] == layers["core.iterations"]
    if workload.kind == "dp":
        assert layers["detailed.rounds"] >= 1
    if workload.kind == "job":
        assert layers["report.bytes"] > 0
        assert layers["telemetry.spans"] > 0
    assert spans.stat().st_size > 0
