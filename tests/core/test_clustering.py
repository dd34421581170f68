"""Clustering tests: Table I reproduction plus structural properties."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.resources import ResourceVector
from repro.core.clustering import (
    BasePartition,
    agglomerate,
    enumerate_base_partitions,
    partitions_by_label,
    verify_agglomeration_matches,
)
from repro.core.matrix import ConnectivityMatrix
from repro.eval.example_design import TABLE1_EXPECTED

from ..conftest import make_design


class TestTable1:
    """The paper's Table I, exactly."""

    def test_labels_and_weights(self, paper_example):
        got = {
            bp.label: bp.frequency_weight
            for bp in enumerate_base_partitions(paper_example)
        }
        assert got == TABLE1_EXPECTED

    def test_count(self, paper_example):
        assert len(enumerate_base_partitions(paper_example)) == 26

    def test_non_joint_clique_excluded_by_default(self, paper_example):
        labels = {bp.label for bp in enumerate_base_partitions(paper_example)}
        assert "{A1, B2, C1}" not in labels

    def test_non_joint_clique_included_on_request(self, paper_example):
        labels = {
            bp.label
            for bp in enumerate_base_partitions(
                paper_example, include_non_joint_cliques=True
            )
        }
        assert "{A1, B2, C1}" in labels
        default = {bp.label for bp in enumerate_base_partitions(paper_example)}
        assert labels > default

    def test_full_configurations_present_with_weight_1(self, paper_example):
        by_label = partitions_by_label(enumerate_base_partitions(paper_example))
        for label in ("{A3, B2, C3}", "{A1, B1, C1}", "{A2, B2, C3}"):
            assert by_label[label].frequency_weight == 1


class TestBasePartition:
    def _bp(self, modes, weight=1, clb=10):
        return BasePartition(
            modes=frozenset(modes),
            frequency_weight=weight,
            resources=ResourceVector(clb, 0, 0),
            modules=frozenset(m[0] for m in modes),
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            self._bp([])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            self._bp(["A1"], weight=-1)

    def test_label_sorted(self):
        assert self._bp(["B1", "A1"]).label == "{A1, B1}"

    def test_size(self):
        assert self._bp(["A1", "B1"]).size == 2

    def test_frames_quantised(self):
        assert self._bp(["A1"], clb=21).frames == 2 * 36

    def test_overlaps(self):
        assert self._bp(["A1", "B1"]).overlaps(self._bp(["B1"]))
        assert not self._bp(["A1"]).overlaps(self._bp(["B1"]))

    def test_sort_key_orders_by_size_then_weight_then_area(self):
        small = self._bp(["A1"], weight=5, clb=100)
        pair_light = self._bp(["A1", "B1"], weight=1, clb=10)
        pair_heavy = self._bp(["A2", "B2"], weight=1, clb=500)
        pair_frequent = self._bp(["A3", "B3"], weight=2, clb=10)
        ordered = sorted(
            [pair_frequent, pair_heavy, small, pair_light],
            key=BasePartition.sort_key,
        )
        assert ordered[0] is small
        assert ordered[1] is pair_light
        assert ordered[2] is pair_heavy
        assert ordered[3] is pair_frequent


class TestPartitionSemantics:
    def test_resources_are_summed_over_members(self, paper_example):
        by_label = partitions_by_label(enumerate_base_partitions(paper_example))
        a3 = paper_example.mode("A3").resources
        b2 = paper_example.mode("B2").resources
        assert by_label["{A3, B2}"].resources == a3 + b2

    def test_modules_recorded(self, paper_example):
        by_label = partitions_by_label(enumerate_base_partitions(paper_example))
        assert by_label["{A3, B2, C3}"].modules == frozenset("ABC")

    def test_at_most_one_mode_per_module(self, paper_example):
        for bp in enumerate_base_partitions(
            paper_example, include_non_joint_cliques=True
        ):
            assert len(bp.modules) == bp.size

    def test_singletons_present_for_every_active_mode(self, paper_example):
        labels = {bp.label for bp in enumerate_base_partitions(paper_example)}
        for m in ("A1", "A2", "A3", "B1", "B2", "C1", "C2", "C3"):
            assert "{" + m + "}" in labels


class TestAgglomeration:
    def test_events_in_descending_weight(self, paper_example):
        events = list(agglomerate(paper_example))
        weights = [e.edge_weight for e in events]
        assert weights == sorted(weights, reverse=True)

    def test_first_edge_is_heaviest(self, paper_example):
        # Paper walks through linking A3-B2 first (weight 2).
        first = next(iter(agglomerate(paper_example)))
        assert first.edge_weight == 2
        assert first.edge in (frozenset(("A3", "B2")), frozenset(("B2", "C3")))

    def test_every_event_contains_its_edge_as_clique(self, paper_example):
        for event in agglomerate(paper_example):
            assert event.edge in event.new_cliques

    def test_incremental_matches_direct(self, paper_example):
        incremental, direct = verify_agglomeration_matches(paper_example)
        assert incremental == direct

    def test_incremental_matches_direct_single_mode_mix(self, single_mode_mix):
        incremental, direct = verify_agglomeration_matches(single_mode_mix)
        assert incremental == direct


class TestSingleModeMix:
    """Sec. IV-D: single-mode modules with absent-module configurations."""

    def test_configurations_become_partitions(self, single_mode_mix):
        labels = {bp.label for bp in enumerate_base_partitions(single_mode_mix)}
        assert "{C1, F1}" in labels
        assert "{E1, P1, R1}" in labels

    def test_no_cross_configuration_cliques(self, single_mode_mix):
        # Modes of different configurations never co-occur.
        labels = {bp.label for bp in enumerate_base_partitions(single_mode_mix)}
        assert "{C1, E1}" not in labels


@st.composite
def small_designs(draw):
    """Random 2-4 module designs with 1-6 random configurations."""
    n_modules = draw(st.integers(2, 4))
    modules = {}
    for i in range(n_modules):
        n_modes = draw(st.integers(1, 3))
        modules[f"M{i}"] = {
            f"M{i}.{k}": (draw(st.integers(1, 200)), draw(st.integers(0, 8)),
                          draw(st.integers(0, 8)))
            for k in range(n_modes)
        }
    mode_names = {m: list(modes) for m, modes in modules.items()}
    n_configs = draw(st.integers(1, 6))
    configs = []
    seen = set()
    for _ in range(n_configs):
        present = [
            m for m in modules if draw(st.booleans())
        ] or [next(iter(modules))]
        choice = tuple(
            draw(st.sampled_from(mode_names[m])) for m in present
        )
        if frozenset(choice) not in seen:
            seen.add(frozenset(choice))
            configs.append(choice)
    return make_design(modules, configs)


class TestClusteringProperties:
    @settings(max_examples=40, deadline=None)
    @given(small_designs())
    def test_every_partition_is_subset_of_some_configuration(self, design):
        cm = ConnectivityMatrix.from_design(design)
        for bp in enumerate_base_partitions(design, cm):
            assert any(
                bp.modes <= frozenset(c.modes) for c in design.configurations
            )

    @settings(max_examples=40, deadline=None)
    @given(small_designs())
    def test_frequency_weight_positive_and_bounded(self, design):
        for bp in enumerate_base_partitions(design):
            assert 1 <= bp.frequency_weight <= design.configuration_count

    @settings(max_examples=40, deadline=None)
    @given(small_designs())
    def test_sorted_by_covering_order(self, design):
        bps = enumerate_base_partitions(design)
        keys = [bp.sort_key() for bp in bps]
        assert keys == sorted(keys)

    @settings(max_examples=40, deadline=None)
    @given(small_designs())
    def test_singleton_weight_equals_node_weight(self, design):
        cm = ConnectivityMatrix.from_design(design)
        for bp in enumerate_base_partitions(design, cm):
            if bp.size == 1:
                (mode,) = bp.modes
                assert bp.frequency_weight == cm.node_weight(mode)
