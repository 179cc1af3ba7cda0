"""Independent checks on a placement the program produced.

Nothing here calls the program's own legality checker or HPWL code: each
check is written from the definitions (Bookshelf rows and sites, cell
rectangles, pin bounding boxes) so that a fault in the program cannot
hide itself by also being present in the check.  Every check returns a
list of failure messages; an empty list means the placement passed.
"""

from __future__ import annotations

import numpy as np

#: Absolute tolerance on coordinates (the Bookshelf writer keeps ten
#: significant digits, far finer than this on designs of a few hundred
#: rows).
TOL = 1e-6


def pin_box_hpwl(netlist, placement) -> float:
    """Sum over nets of the half perimeter of the pins' bounding box."""
    net_of_pin = np.repeat(np.arange(netlist.num_nets),
                           np.diff(netlist.net_start))
    px = placement.x[netlist.pin_cell] + netlist.pin_dx
    py = placement.y[netlist.pin_cell] + netlist.pin_dy
    total = 0.0
    for coords in (px, py):
        lo = np.full(netlist.num_nets, np.inf)
        hi = np.full(netlist.num_nets, -np.inf)
        np.minimum.at(lo, net_of_pin, coords)
        np.maximum.at(hi, net_of_pin, coords)
        has_pins = np.isfinite(lo)
        total += float((hi[has_pins] - lo[has_pins]).sum())
    return total


def _rects(netlist, placement, cells):
    x, y = placement.x[cells], placement.y[cells]
    hw, hh = 0.5 * netlist.widths[cells], 0.5 * netlist.heights[cells]
    return x - hw, x + hw, y - hh, y + hh


def check_finite_and_fixed(netlist, placement) -> list[str]:
    """All coordinates are finite and fixed cells sit where the input
    put them."""
    failures = []
    bad = ~(np.isfinite(placement.x) & np.isfinite(placement.y))
    if bad.any():
        failures.append(f"{int(bad.sum())} cells have non-finite coordinates")
    fixed = ~netlist.movable
    moved = fixed & ((np.abs(placement.x - netlist.fixed_x) > TOL)
                     | (np.abs(placement.y - netlist.fixed_y) > TOL))
    if moved.any():
        first = int(np.flatnonzero(moved)[0])
        failures.append(f"{int(moved.sum())} fixed cells moved "
                        f"(first: {netlist.cell_names[first]})")
    return failures


def check_rows_and_sites(netlist, placement) -> list[str]:
    """Movable cells lie inside the core; standard cells sit on a row,
    start on a site and end inside that row."""
    failures = []
    rows = netlist.core.rows
    movable = np.flatnonzero(netlist.movable)
    xlo, xhi, ylo, yhi = _rects(netlist, placement, movable)
    core_xlo = min(r.x for r in rows)
    core_xhi = max(r.x + r.site_width * r.num_sites for r in rows)
    core_ylo = rows[0].y
    core_yhi = rows[-1].y + rows[-1].height
    outside = ((xlo < core_xlo - TOL) | (xhi > core_xhi + TOL)
               | (ylo < core_ylo - TOL) | (yhi > core_yhi + TOL))
    if outside.any():
        failures.append(f"{int(outside.sum())} movable cells leave the core")

    std = ~netlist.is_macro[movable]
    row_y = np.array([r.y for r in rows])
    row_x = np.array([r.x for r in rows])
    row_end = np.array([r.x + r.site_width * r.num_sites for r in rows])
    row_site = np.array([r.site_width for r in rows])
    row_h = np.array([r.height for r in rows])
    bottoms, lefts, rights = ylo[std], xlo[std], xhi[std]
    heights = netlist.heights[movable][std]
    idx = np.clip(np.searchsorted(row_y, bottoms - TOL), 0, len(rows) - 1)
    on_row = (np.abs(row_y[idx] - bottoms) <= TOL) & (heights <= row_h[idx] + TOL)
    if not on_row.all():
        failures.append(f"{int((~on_row).sum())} standard cells are off-row")
    sites = (lefts - row_x[idx]) / row_site[idx]
    on_site = (np.abs(sites - np.round(sites)) <= TOL / row_site[idx]) \
        & (lefts >= row_x[idx] - TOL) & (rights <= row_end[idx] + TOL)
    off_site = on_row & ~on_site
    if off_site.any():
        failures.append(f"{int(off_site.sum())} standard cells are off-site "
                        "or overhang their row")
    return failures


def _row_intervals(netlist, placement, cells):
    """Split each cell rectangle into one x-interval per row it covers.

    Returns (row, xlo, xhi, cell) arrays with a row-major key
    ``row * stride + x`` so one global sort orders every row.
    """
    rows = netlist.core.rows
    row_y = np.array([r.y for r in rows])
    row_top = row_y + np.array([r.height for r in rows])
    xlo, xhi, ylo, yhi = _rects(netlist, placement, cells)
    first = np.searchsorted(row_top, ylo + TOL, side="right")
    last = np.searchsorted(row_y, yhi - TOL, side="left")
    count = np.maximum(last - first, 0)
    cell = np.repeat(cells, count)
    start = np.repeat(first, count)
    within = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    return start + within, np.repeat(xlo, count), np.repeat(xhi, count), cell


def check_no_overlap(netlist, placement) -> list[str]:
    """No movable cell overlaps another movable cell or a fixed object.

    Cells are cut into per-row x-intervals.  Within a row, sorted by left
    edge, an interval overlaps an earlier one exactly when it starts
    before the running maximum of the earlier right edges.  Fixed objects
    are merged per row first and each movable interval is tested against
    the nearest merged fixed interval to its left.
    """
    failures = []
    has_area = netlist.areas > 0
    movable = np.flatnonzero(netlist.movable & has_area)
    fixed = np.flatnonzero(~netlist.movable & has_area)
    bounds = netlist.core.bounds
    stride = 4.0 * (bounds.xhi - bounds.xlo) + 16.0
    offset = bounds.xlo - 2.0 * (bounds.xhi - bounds.xlo) - 4.0

    row, xlo, xhi, _ = _row_intervals(netlist, placement, movable)
    key_lo = row * stride + (xlo - offset)
    key_hi = row * stride + (xhi - offset)
    order = np.argsort(key_lo, kind="stable")
    key_lo, key_hi = key_lo[order], key_hi[order]
    reach = np.maximum.accumulate(key_hi)
    clash = key_lo[1:] < reach[:-1] - TOL
    if clash.any():
        failures.append(f"{int(clash.sum())} overlaps between movable cells")

    if fixed.size and movable.size:
        frow, fxlo, fxhi, _ = _row_intervals(netlist, placement, fixed)
        f_lo = frow * stride + (fxlo - offset)
        f_hi = frow * stride + (fxhi - offset)
        forder = np.argsort(f_lo, kind="stable")
        f_lo, f_hi = f_lo[forder], np.maximum.accumulate(f_hi[forder])
        # After the running maximum, f_hi[j] is the furthest any fixed
        # interval starting at or before f_lo[j] reaches (rows never mix:
        # the stride keeps each row's keys apart).
        left = np.searchsorted(f_lo, key_hi - TOL, side="left") - 1
        hit = (left >= 0) & (f_hi[np.maximum(left, 0)] > key_lo + TOL)
        if hit.any():
            failures.append(f"{int(hit.sum())} movable cell rows overlap "
                            "fixed objects")
    return failures


def check_hpwl(netlist, placement, program_hpwl: float,
               scaled: float) -> tuple[float, list[str]]:
    """The program's HPWL matches the pin-box recomputation, and the
    contest metric is no less than the HPWL it scales."""
    own = pin_box_hpwl(netlist, placement)
    failures = []
    if abs(own - program_hpwl) > 1e-9 * max(abs(own), 1.0):
        failures.append(f"program HPWL {program_hpwl!r} != recomputed {own!r}")
    if not scaled >= own * (1.0 - 1e-12):
        failures.append(f"scaled HPWL {scaled!r} < HPWL {own!r}")
    return own, failures


def check_ratio(label: str, value: float, reference: float,
                limit: float) -> list[str]:
    """``value`` is at most ``limit`` times ``reference``."""
    if not (value > 0 and reference > 0):
        return [f"{label}: non-positive HPWL ({value!r} vs {reference!r})"]
    if value > limit * reference:
        return [f"{label}: HPWL {value:.6g} is {value / reference:.3f}x "
                f"the reference {reference:.6g} (limit {limit}x)"]
    return []


def check_legal_placement(netlist, placement) -> list[str]:
    """Every placement-level check that needs no reference numbers."""
    return (check_finite_and_fixed(netlist, placement)
            + check_rows_and_sites(netlist, placement)
            + check_no_overlap(netlist, placement))
