"""Pareto-front exploration tests."""

from __future__ import annotations

import pytest

from repro.arch.resources import ResourceVector
from repro.core.cost import total_reconfiguration_frames
from repro.core.pareto import ParetoPoint, pareto_front, render_front
from repro.core.partitioner import partition


@pytest.fixture
def front(tiny_design):
    return pareto_front(tiny_design, ResourceVector(600, 8, 8))


class TestFrontStructure:
    def test_non_empty(self, front):
        assert front

    def test_no_dominated_points(self, front):
        """Three-objective dominance: usage, total and worst case."""
        for i, a in enumerate(front):
            for j, b in enumerate(front):
                if i == j:
                    continue
                dominated = (
                    a.usage.fits_in(b.usage)
                    and a.total_frames <= b.total_frames
                    and a.worst_frames <= b.worst_frames
                    and (
                        a.usage != b.usage
                        or a.total_frames < b.total_frames
                        or a.worst_frames < b.worst_frames
                    )
                )
                assert not dominated, f"{i} dominates {j}"

    def test_sorted_by_clb(self, front):
        clbs = [p.usage.clb for p in front]
        assert clbs == sorted(clbs)

    def test_all_points_fit_budget(self, tiny_design):
        budget = ResourceVector(600, 8, 8)
        for p in pareto_front(tiny_design, budget):
            assert p.usage.fits_in(budget)

    def test_costs_consistent_with_schemes(self, front):
        for p in front:
            assert p.total_frames == total_reconfiguration_frames(p.scheme)
            assert p.usage == p.scheme.resource_usage()


class TestFrontContents:
    def test_contains_the_optimum(self, tiny_design):
        budget = ResourceVector(600, 8, 8)
        best = partition(tiny_design, budget)
        front = pareto_front(tiny_design, budget)
        assert min(p.total_frames for p in front) == best.total_frames

    def test_tighter_budget_never_extends_lower_times(self, tiny_design):
        loose = pareto_front(tiny_design, ResourceVector(600, 8, 8))
        tight = pareto_front(tiny_design, ResourceVector(340, 8, 8))
        assert min(p.total_frames for p in tight) >= min(
            p.total_frames for p in loose
        )

    def test_trade_off_exists_on_tiny_design(self, front):
        """With enough budget headroom the front shows a real trade:
        more area <-> less reconfiguration time."""
        if len(front) < 2:
            pytest.skip("front collapsed to a single point")
        assert front[0].total_frames >= front[-1].total_frames

    def test_single_region_present_when_it_fits(self, tiny_design):
        budget = ResourceVector(260, 0, 0)
        front = pareto_front(tiny_design, budget)
        assert any(p.scheme.strategy == "single-region" for p in front)


class TestRendering:
    def test_render_front(self, front):
        text = render_front(front)
        assert "Pareto" in text
        assert str(front[0].usage.clb) in text

    def test_max_points_cap(self, receiver, budget):
        front = pareto_front(
            receiver, budget, max_candidate_sets=2, max_points=5
        )
        assert 1 <= len(front) <= 5


class TestBestByWorstCase:
    def test_minimises_worst(self, tiny_design):
        from repro.core.pareto import best_by_worst_case, pareto_front
        from repro.arch.resources import ResourceVector

        budget = ResourceVector(600, 8, 8)
        best = best_by_worst_case(tiny_design, budget)
        front = pareto_front(tiny_design, budget)
        assert best.worst_frames == min(p.worst_frames for p in front)

    def test_never_worse_than_total_optimum_on_worst(self, receiver, budget):
        from repro.core.pareto import best_by_worst_case
        from repro.core.partitioner import partition

        by_worst = best_by_worst_case(receiver, budget, max_candidate_sets=3)
        by_total = partition(receiver, budget)
        assert by_worst.worst_frames <= by_total.worst_frames

    def test_infeasible_raises(self, tiny_design):
        from repro.core.pareto import best_by_worst_case
        from repro.arch.resources import ResourceVector

        import pytest as _pytest
        with _pytest.raises(ValueError):
            best_by_worst_case(tiny_design, ResourceVector(10, 0, 0))
