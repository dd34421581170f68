"""End-to-end integration tests: XML -> partition -> floorplan -> UCF ->
bitstreams -> runtime replay, plus cross-model consistency oracles."""

from __future__ import annotations

import pytest

from repro.arch.library import virtex5_full, virtex5_ladder
from repro.arch.resources import ResourceVector
from repro.core.baselines import baseline_schemes
from repro.core.cost import (
    TransitionPolicy,
    total_reconfiguration_frames,
    transition_frames,
)
from repro.core.partitioner import partition, partition_with_device_selection
from repro.eval.casestudy import CASESTUDY_BUDGET, casestudy_design
from repro.flow.bitstream import generate_bitstreams
from repro.flow.constraints import emit_ucf, parse_ranges
from repro.flow.floorplan import floorplan
from repro.flow.netlist import build_netlists, variant_count
from repro.flow.xmlio import design_to_xml, parse_design
from repro.runtime.adaptive import UniformEnvironment
from repro.runtime.manager import ConfigurationManager, replay


class TestFullToolFlow:
    """Fig. 2 end to end, starting from an XML design description."""

    def test_xml_to_bitstreams(self):
        design = casestudy_design()
        xml = design_to_xml(design, device_name="FX70T", budget=CASESTUDY_BUDGET)
        doc = parse_design(xml)

        library = virtex5_full()
        device = library.get(doc.device_name)
        result = partition(doc.design, doc.budget)

        plan = floorplan(result.scheme, device)
        ucf = emit_ucf(result.scheme, plan)
        groups = parse_ranges(ucf)
        assert len(groups) == result.scheme.region_count

        netlists = build_netlists(result.scheme)
        bits = generate_bitstreams(result.scheme, device, plan)
        assert len(bits.partials) == variant_count(netlists)
        assert bits.total_storage_bytes > bits.full_bytes

    def test_partition_then_replay(self):
        design = casestudy_design()
        result = partition(design, CASESTUDY_BUDGET)
        trace = UniformEnvironment(design).trace(300, seed=42)
        stats = replay(result.scheme, trace)
        assert stats.transitions == 299
        assert stats.worst_frames <= result.worst_frames


class TestCrossModelConsistency:
    """The runtime simulator and the analytic cost model must agree up to
    the documented policy gap: the LENIENT proxy treats a region coming
    into use as already loaded (the information Eq. 7 cannot have), while
    the simulator charges the actual load.  STRICT over-counts instead,
    so every real transition lands between the two."""

    def test_fresh_transition_bracketed_by_policies(self):
        design = casestudy_design()
        schemes = baseline_schemes(design)
        schemes["proposed"] = partition(design, CASESTUDY_BUDGET).scheme
        names = [c.name for c in design.configurations]
        for scheme in schemes.values():
            for a in names[:4]:
                for b in names[4:]:
                    mgr = ConfigurationManager(scheme)
                    mgr.goto(a)
                    measured = mgr.goto(b).frames
                    assert transition_frames(
                        scheme, a, b, TransitionPolicy.LENIENT
                    ) <= measured <= transition_frames(
                        scheme, a, b, TransitionPolicy.STRICT
                    )

    def test_fresh_transition_exact_when_regions_always_active(self):
        """For the modular receiver every module appears in every
        configuration, so no region is ever unused and the simulator
        agrees with Eq. 8 exactly under both policies."""
        design = casestudy_design()
        scheme = baseline_schemes(design)["modular"]
        names = [c.name for c in design.configurations]
        for a in names[:4]:
            for b in names[4:]:
                mgr = ConfigurationManager(scheme)
                mgr.goto(a)
                assert mgr.goto(b).frames == transition_frames(scheme, a, b)

    def test_all_pairs_tour_total_bracketed(self):
        """Fresh per-pair visits land between the LENIENT and STRICT
        totals; a continuous tour can only be cheaper than fresh visits
        (stale contents persist)."""
        import itertools

        design = casestudy_design()
        scheme = partition(design, CASESTUDY_BUDGET).scheme
        names = [c.name for c in design.configurations]

        fresh_total = 0
        for a, b in itertools.combinations(names, 2):
            mgr = ConfigurationManager(scheme)
            mgr.goto(a)
            fresh_total += mgr.goto(b).frames
        assert (
            total_reconfiguration_frames(scheme, TransitionPolicy.LENIENT)
            <= fresh_total
            <= total_reconfiguration_frames(scheme, TransitionPolicy.STRICT)
        )

        # A continuous tour is bounded above by STRICT summed over its
        # consecutive hops (each hop rewrites at most what STRICT counts).
        tour = [n for pair in itertools.combinations(names, 2) for n in pair]
        stats = replay(scheme, tour)
        strict_hops = sum(
            transition_frames(scheme, a, b, TransitionPolicy.STRICT)
            for a, b in zip(tour, tour[1:])
        )
        assert stats.total_frames <= strict_hops

    def test_strict_policy_upper_bounds_runtime(self):
        """STRICT Eq. 7 over-counts relative to any actual trace."""
        design = casestudy_design()
        scheme = partition(design, CASESTUDY_BUDGET).scheme
        names = [c.name for c in design.configurations]
        trace = names + names[::-1]
        stats = replay(scheme, trace)
        pairwise_strict = sum(
            transition_frames(scheme, a, b, TransitionPolicy.STRICT)
            for a, b in zip(trace, trace[1:])
        )
        assert stats.total_frames <= pairwise_strict


class TestDeviceSelectionIntegration:
    def test_feedback_loop_places_every_design(self):
        """The paper's future-work item, implemented: a scheme that fits
        by aggregate area may not be placeable (the partitioner fills the
        device), so floorplan failures feed back into partitioning
        (budget tightening, then device escalation) until a placed
        scheme exists."""
        from repro.flow.feedback import partition_and_place
        from repro.synth.generator import generate_population

        library = virtex5_ladder()
        for _, design in generate_population(6, seed=31):
            placed = partition_and_place(design, library)
            placed.plan.validate(placed.scheme)
            assert placed.scheme.fits(
                placed.device.usable_capacity(design.static_resources)
            )

    def test_feedback_loop_reports_attempts(self):
        from repro.flow.feedback import partition_and_place
        from repro.synth.generator import generate_population

        library = virtex5_ladder()
        _, design = next(iter(generate_population(1, seed=31)))
        placed = partition_and_place(design, library)
        assert placed.partition_attempts >= 1
        assert placed.device_escalations >= 0


class TestPolicyConsistency:
    def test_lenient_total_never_exceeds_strict(self):
        design = casestudy_design()
        for scheme in baseline_schemes(design).values():
            assert total_reconfiguration_frames(
                scheme, TransitionPolicy.LENIENT
            ) <= total_reconfiguration_frames(scheme, TransitionPolicy.STRICT)

    def test_partitioner_with_strict_policy_still_beats_single(self):
        from repro.core.baselines import (
            one_module_per_region_scheme,
            single_region_scheme,
        )
        from repro.core.partitioner import PartitionerOptions

        design = casestudy_design()
        opts = PartitionerOptions(policy=TransitionPolicy.STRICT)
        result = partition(design, CASESTUDY_BUDGET, opts)
        single = single_region_scheme(design)
        assert result.total_frames <= total_reconfiguration_frames(
            single, TransitionPolicy.STRICT
        )
        # ... and the modular baseline charged under the same policy.
        assert result.total_frames <= total_reconfiguration_frames(
            one_module_per_region_scheme(design), TransitionPolicy.STRICT
        )
