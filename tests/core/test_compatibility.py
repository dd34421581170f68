"""Compatibility-relation tests anchored to the paper's examples."""

from __future__ import annotations

import pytest

from repro.core.clustering import enumerate_base_partitions, partitions_by_label
from repro.core.compatibility import are_compatible


@pytest.fixture
def bps(paper_example):
    return partitions_by_label(enumerate_base_partitions(paper_example))


class TestPaperExamples:
    def test_a1_a2_compatible(self, paper_example, bps):
        # Paper: "{A1} and {A2} are compatible partitions since they do
        # not co-exist in any of the possible configurations".
        assert are_compatible(bps["{A1}"], bps["{A2}"], paper_example)

    def test_a1_b1_incompatible(self, paper_example, bps):
        # Paper: "{A1} and {B1} are not compatible, since there is a
        # configuration S -> A1 -> B1 -> C1".
        assert not are_compatible(bps["{A1}"], bps["{B1}"], paper_example)

    def test_overlapping_partitions_incompatible(self, paper_example, bps):
        assert not are_compatible(bps["{A1}"], bps["{A1, B1}"], paper_example)

    def test_symmetric(self, paper_example, bps):
        for a in ("{A1}", "{B2}", "{A3, B2}"):
            for b in ("{A2}", "{C1}", "{B1, C1}"):
                assert are_compatible(bps[a], bps[b], paper_example) == are_compatible(
                    bps[b], bps[a], paper_example
                )

    def test_full_configs_incompatible_via_shared_third_config(
        self, paper_example, bps
    ):
        # {A1, B1, C1} (Conf.2) vs {A2, B2, C3} (Conf.5): A1 also occurs
        # in Conf.4 together with B2, so the partitions' modes co-occur
        # there -- incompatible even though their home configurations
        # differ.
        assert not are_compatible(
            bps["{A1, B1, C1}"], bps["{A2, B2, C3}"], paper_example
        )

    def test_disjoint_usage_partitions_compatible(self, paper_example, bps):
        # {A2} lives only in Conf.5; {A1, C2} lives only in Conf.4 --
        # usages are disjoint, so they may share a region.
        assert are_compatible(bps["{A2}"], bps["{A1, C2}"], paper_example)
