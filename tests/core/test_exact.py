"""Exact-reference partitioner tests: the heuristic's quality oracle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.resources import ResourceVector
from repro.core.clustering import enumerate_base_partitions
from repro.core.cost import total_reconfiguration_frames
from repro.core.covering import cover
from repro.core.exact import (
    MAX_EXACT_PARTITIONS,
    exact_candidate_set,
    partition_exact,
)
from repro.core.matrix import ConnectivityMatrix
from repro.core.partitioner import InfeasibleError, partition

from ..conftest import make_design


def first_cps(design):
    cm = ConnectivityMatrix.from_design(design)
    return cover(enumerate_base_partitions(design, cm), cm)


class TestExactCandidateSet:
    def test_refuses_oversized_sets(self, receiver):
        cps = first_cps(receiver)
        assert len(cps.partitions) > 5
        with pytest.raises(ValueError, match="limited to"):
            exact_candidate_set(
                receiver,
                cps,
                ResourceVector(10**6, 10**4, 10**4),
                max_partitions=5,
            )

    def test_unconstrained_optimum_is_all_separate(self, tiny_design):
        cps = first_cps(tiny_design)
        outcome = exact_candidate_set(
            tiny_design, cps, ResourceVector(10**5, 100, 100)
        )
        assert outcome.found
        assert outcome.best_cost == 0
        assert len(outcome.best_groups) == len(cps.partitions)

    def test_infeasible_budget(self, tiny_design):
        cps = first_cps(tiny_design)
        outcome = exact_candidate_set(tiny_design, cps, ResourceVector(1, 0, 0))
        assert not outcome.found

    def test_enumeration_count_positive(self, tiny_design):
        cps = first_cps(tiny_design)
        outcome = exact_candidate_set(
            tiny_design, cps, ResourceVector(340, 0, 0)
        )
        assert outcome.states_enumerated >= 1


class TestHeuristicOptimality:
    """The restarted greedy search must match the exhaustive optimum on
    small designs across a range of budgets."""

    @pytest.mark.parametrize("clb_budget", [340, 400, 460, 520, 600])
    def test_tiny_design_budget_sweep(self, tiny_design, clb_budget):
        budget = ResourceVector(clb_budget, 0, 0)
        exact = partition_exact(tiny_design, budget)
        heuristic = partition(tiny_design, budget)
        assert heuristic.total_frames == total_reconfiguration_frames(exact)

    @pytest.mark.parametrize("clb_budget", [420, 480, 520, 560, 620])
    def test_paper_example_matches_exact(self, paper_example, clb_budget):
        budget = ResourceVector(clb_budget, 16, 16)
        exact = partition_exact(paper_example, budget)
        heuristic = partition(paper_example, budget)
        assert heuristic.total_frames == total_reconfiguration_frames(exact)

    def test_random_small_designs(self):
        """Randomised cross-check over structured small designs."""
        rng = np.random.default_rng(7)
        checked = 0
        for trial in range(8):
            modules = {}
            for m in range(int(rng.integers(2, 4))):
                modules[f"M{m}"] = {
                    f"M{m}.{k}": (int(rng.integers(20, 300)), 0, 0)
                    for k in range(int(rng.integers(1, 3)))
                }
            mode_names = {m: list(v) for m, v in modules.items()}
            configs = []
            seen = set()
            for _ in range(int(rng.integers(2, 5))):
                present = [m for m in modules if rng.random() < 0.8] or list(modules)[:1]
                pick = tuple(
                    mode_names[m][int(rng.integers(len(mode_names[m])))]
                    for m in present
                )
                if frozenset(pick) not in seen:
                    seen.add(frozenset(pick))
                    configs.append(pick)
            design = make_design(modules, configs, name=f"x{trial}")
            need = sum(
                max(r[0] for r in modes.values()) for modes in modules.values()
            )
            budget = ResourceVector(int(need * 1.2) + 40, 8, 8)
            try:
                exact = partition_exact(design, budget)
            except (InfeasibleError, ValueError):
                continue
            heuristic = partition(design, budget)
            assert heuristic.total_frames <= total_reconfiguration_frames(exact)
            checked += 1
        assert checked >= 4


class TestPartitionExact:
    def test_infeasible_raises(self, tiny_design):
        with pytest.raises(InfeasibleError):
            partition_exact(tiny_design, ResourceVector(10, 0, 0))

    def test_strategy_tag(self, tiny_design):
        scheme = partition_exact(tiny_design, ResourceVector(400, 0, 0))
        assert scheme.strategy in ("exact", "single-region")

    def test_single_region_fallback(self, tiny_design):
        scheme = partition_exact(tiny_design, ResourceVector(260, 0, 0))
        assert scheme.strategy == "single-region"
