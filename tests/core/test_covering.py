"""Covering-algorithm tests: candidate partition sets and the outer loop."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.clustering import enumerate_base_partitions
from repro.core.covering import (
    CandidatePartitionSet,
    CoveringError,
    candidate_partition_sets,
    cover,
)
from repro.core.matrix import ConnectivityMatrix
from repro.eval.casestudy import casestudy_design
from repro.synth.generator import generate_population


@pytest.fixture
def setup(paper_example):
    cm = ConnectivityMatrix.from_design(paper_example)
    bps = enumerate_base_partitions(paper_example, cm)
    return paper_example, cm, bps


class TestFirstCover:
    def test_first_cps_is_all_singletons(self, setup):
        # Paper: "the first candidate partition set is {{A2}, {B1}, {C2},
        # {A1}, {C1}, {C3}, {A3}, and {B2}} ... actually all the modes".
        design, cm, bps = setup
        cps = cover(bps, cm)
        assert cps is not None
        assert set(cps.labels) == {
            "{A1}", "{A2}", "{A3}", "{B1}", "{B2}", "{C1}", "{C2}", "{C3}"
        }

    def test_cover_assignment_valid(self, setup):
        design, cm, bps = setup
        cps = cover(bps, cm)
        cps.validate(design)

    def test_cover_assignment_per_configuration(self, setup):
        design, cm, bps = setup
        cps = cover(bps, cm)
        # Conf.1 = A3, B2, C3 covered by those three singletons.
        assert set(cps.cover["Conf.1"]) == {"{A3}", "{B2}", "{C3}"}

    def test_useless_partition_skipped(self, setup):
        design, cm, bps = setup
        cps = cover(bps, cm)
        # After all singletons, larger partitions cover nothing new.
        assert all(lbl.count(",") == 0 for lbl in cps.labels)


class TestCoverFailure:
    def test_returns_none_when_matrix_not_reducible(self, setup):
        design, cm, bps = setup
        # Remove every partition containing B2: Conf.1 can't be covered.
        pruned = [bp for bp in bps if "B2" not in bp.modes]
        assert cover(pruned, cm) is None

    def test_empty_list(self, setup):
        design, cm, bps = setup
        assert cover([], cm) is None


class TestOuterLoop:
    def test_head_removal_produces_new_sets(self, setup):
        design, cm, bps = setup
        sets = list(candidate_partition_sets(bps, cm))
        assert len(sets) >= 2
        # First set is the all-singleton one.
        assert all(lbl.count(",") == 0 for lbl in sets[0].labels)
        # Later sets use at least one multi-mode partition (paper: after
        # removing {A2}, "{A2, B2} is added to the new candidate set").
        multi = [s for s in sets[1:] if any("," in lbl for lbl in s.labels)]
        assert multi

    def test_a2_removal_introduces_a2_b2(self, setup):
        design, cm, bps = setup
        sets = list(candidate_partition_sets(bps, cm))
        # The head of the covering list is {A2} (size 1, weight 1, area
        # min among weight-1 singletons depends on resources); find the
        # first set lacking singleton {A2}: it must cover A2 via a pair.
        for cps in sets:
            if "{A2}" not in cps.labels:
                assert any(
                    "A2" in lbl and "," in lbl for lbl in cps.labels
                )
                break
        else:
            pytest.fail("head removal never dropped {A2}")

    def test_all_sets_valid(self, setup):
        design, cm, bps = setup
        for cps in candidate_partition_sets(bps, cm):
            cps.validate(design)

    def test_max_sets_cap(self, setup):
        design, cm, bps = setup
        sets = list(candidate_partition_sets(bps, cm, max_sets=3))
        assert len(sets) == 3

    def test_terminates(self, setup):
        design, cm, bps = setup
        sets = list(candidate_partition_sets(bps, cm))
        assert len(sets) <= len(bps)

    def test_consecutive_duplicates_skipped(self, setup):
        design, cm, bps = setup
        sets = list(candidate_partition_sets(bps, cm))
        for a, b in zip(sets, sets[1:]):
            assert a.labels != b.labels


class TestCandidatePartitionSet:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CandidatePartitionSet(partitions=(), cover={})

    def test_partition_lookup(self, setup):
        design, cm, bps = setup
        cps = cover(bps, cm)
        assert cps.partition("{B2}").label == "{B2}"
        with pytest.raises(KeyError):
            cps.partition("{ZZ}")

    def test_covering_partitions(self, setup):
        design, cm, bps = setup
        cps = cover(bps, cm)
        covering = cps.covering_partitions("Conf.4")
        assert {p.label for p in covering} == {"{A1}", "{B2}", "{C2}"}

    def test_validate_detects_missing_configuration(self, setup):
        design, cm, bps = setup
        cps = cover(bps, cm)
        broken = CandidatePartitionSet(
            partitions=cps.partitions,
            cover={k: v for k, v in cps.cover.items() if k != "Conf.1"},
        )
        with pytest.raises(CoveringError, match="missing"):
            broken.validate(design)

    def test_validate_detects_incomplete_cover(self, setup):
        design, cm, bps = setup
        cps = cover(bps, cm)
        broken_cover = dict(cps.cover)
        broken_cover["Conf.1"] = tuple(
            lbl for lbl in broken_cover["Conf.1"] if lbl != "{B2}"
        )
        broken = CandidatePartitionSet(
            partitions=cps.partitions, cover=broken_cover
        )
        with pytest.raises(CoveringError, match="not fully covered"):
            broken.validate(design)

    def test_validate_detects_non_subset(self, setup):
        design, cm, bps = setup
        cps = cover(bps, cm)
        broken_cover = dict(cps.cover)
        # {A1} is not a subset of Conf.1 (= A3, B2, C3).
        broken_cover["Conf.1"] = broken_cover["Conf.1"] + ("{A1}",)
        broken = CandidatePartitionSet(
            partitions=cps.partitions, cover=broken_cover
        )
        with pytest.raises(CoveringError, match="not a"):
            broken.validate(design)


class TestSingleModeMixCovering:
    def test_covers_with_singletons(self, single_mode_mix):
        cm = ConnectivityMatrix.from_design(single_mode_mix)
        bps = enumerate_base_partitions(single_mode_mix, cm)
        cps = cover(bps, cm)
        assert cps is not None
        cps.validate(single_mode_mix)

    def test_eventually_covers_with_full_configs(self, single_mode_mix):
        cm = ConnectivityMatrix.from_design(single_mode_mix)
        bps = enumerate_base_partitions(single_mode_mix, cm)
        sets = list(candidate_partition_sets(bps, cm))
        # With all singletons removed, the pairs/triples must take over.
        last = sets[-1]
        assert any("," in lbl for lbl in last.labels)


#: sha256 of :func:`sequence_digest` over the case study and over the
#: perfbench pool (``generate_population(240, seed=2013)``).
CASESTUDY_DIGEST = "a616b294feb1fc07bf1f03d98a0fae54c5774ca0f7c8adbb913698df0c9ce113"
POOL_DIGEST = "60bdb9a90320fb2602306eb840a0b63f6c796a5f157b577936739a6ec77b2259"


def cps_sequence(design):
    """Labels, cover maps and order of every candidate set of a design."""
    cm = ConnectivityMatrix.from_design(design)
    bps = enumerate_base_partitions(design, cm)
    return [
        [list(cps.labels), [[name, list(lbls)] for name, lbls in cps.cover.items()]]
        for cps in candidate_partition_sets(bps, cm)
    ]


def sequence_digest(designs):
    payload = [[d.name, cps_sequence(d)] for d in designs]
    blob = json.dumps(payload, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


class TestGoldenSequence:
    """The full CPS sequence pinned as a digest of canonical JSON.

    Recorded with the numpy-matrix covering pass that the bitset pass
    replaced; any change is a change in the candidate sets the search
    sees, not a refactor.
    """

    def test_case_study(self):
        assert sequence_digest([casestudy_design()]) == CASESTUDY_DIGEST

    def test_perfbench_pool(self):
        designs = [d for _cls, d in generate_population(240, seed=2013)]
        assert sequence_digest(designs) == POOL_DIGEST
