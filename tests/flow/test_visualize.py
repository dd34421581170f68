"""Floorplan-rendering tests."""

from __future__ import annotations

import pytest

from repro.core.baselines import one_module_per_region_scheme
from repro.flow.floorplan import floorplan
from repro.render.ascii import occupancy, render_floorplan


@pytest.fixture
def plan(receiver, fx70t):
    return floorplan(one_module_per_region_scheme(receiver), fx70t)


class TestRenderFloorplan:
    def test_contains_legend_for_every_region(self, plan, receiver):
        text = render_floorplan(plan)
        for region in one_module_per_region_scheme(receiver).regions:
            assert region.name in text

    def test_grid_dimensions(self, plan, fx70t):
        text = render_floorplan(plan, max_width=10_000)
        rows = [l for l in text.splitlines() if l.startswith("r")]
        assert len(rows) == fx70t.rows
        # every grid row has the same width: "rN  " prefix + columns
        widths = {len(r) for r in rows}
        assert len(widths) == 1

    def test_row_zero_at_bottom(self, plan):
        text = render_floorplan(plan, max_width=10_000)
        rows = [l for l in text.splitlines() if l.startswith("r")]
        assert rows[-1].startswith("r0 ")

    def test_region_chars_present(self, plan):
        text = render_floorplan(plan)
        grid = "\n".join(l for l in text.splitlines() if l.startswith("r"))
        for char in "ABCDE":  # five regions
            assert char in grid

    def test_banding_splits_wide_devices(self, plan):
        text = render_floorplan(plan, max_width=20)
        assert "-- columns 20.." in text

    def test_free_tile_legend(self, plan):
        assert "free tiles" in render_floorplan(plan)


class TestOccupancy:
    def test_between_zero_and_one(self, plan):
        assert 0.0 < occupancy(plan) <= 1.0

    def test_matches_placed_rectangles(self, plan, fx70t):
        covered = sum(p.n_rows * p.n_cols for p in plan.placements)
        assert occupancy(plan) == pytest.approx(
            covered / (fx70t.rows * fx70t.column_count)
        )
