"""ASCII floorplan rendering.

Draws the device grid (one character per tile) with each placed region
shown by a letter and resource columns marked in the footer -- the
quickest way to eyeball a floorplan in a terminal or a test log.  The
SVG counterpart is :func:`repro.render.render_floorplan_svg`; this
text form stays the default for ``repro-pr partition --floorplan``.

Legend: ``.`` free CLB tile, ``b`` free BRAM tile, ``d`` free DSP tile,
letters ``A``-``Z`` (then ``a``...) the placed regions, row 0 printed at
the bottom like the Xilinx coordinate system.

Like every renderer in this package it is a pure function over its
input -- no IO, no clock, no randomness.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..flow.floorplan import Floorplan

_FREE = {"CLB": ".", "BRAM": "b", "DSP": "d"}

_REGION_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"


def render_floorplan(plan: "Floorplan", max_width: int = 120) -> str:
    """Render a floorplan as a tile map.

    Devices wider than ``max_width`` columns are split into horizontal
    bands so the output stays readable.
    """
    device = plan.device
    grid = [
        [_FREE[col.rtype.name] for col in device.columns]
        for _ in range(device.rows)
    ]
    legend: list[str] = []
    for k, placement in enumerate(plan.placements):
        char = _REGION_CHARS[k % len(_REGION_CHARS)]
        legend.append(f"{char}={placement.region_name}")
        for row, col in placement.tiles():
            grid[row][col] = char

    lines: list[str] = [
        f"{device.name}: {device.rows} rows x {device.column_count} columns"
    ]
    for band_start in range(0, device.column_count, max_width):
        band_end = min(band_start + max_width, device.column_count)
        if band_start:
            lines.append(f"-- columns {band_start}..{band_end - 1} --")
        for row in range(device.rows - 1, -1, -1):  # row 0 at the bottom
            lines.append(
                f"r{row:<2} " + "".join(grid[row][band_start:band_end])
            )
    lines.append("legend: " + "  ".join(legend))
    lines.append("free tiles: . CLB   b BRAM   d DSP")
    return "\n".join(lines)


def occupancy(plan: "Floorplan") -> float:
    """Fraction of device tiles covered by placed regions."""
    device = plan.device
    total = device.rows * device.column_count
    covered = sum(p.n_rows * p.n_cols for p in plan.placements)
    return covered / total if total else 0.0
