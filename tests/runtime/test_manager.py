"""Configuration-manager simulator tests."""

from __future__ import annotations

import itertools

import pytest

from repro.core.baselines import (
    one_module_per_region_scheme,
    single_region_scheme,
    static_scheme,
)
from repro.core.cost import transition_frames
from repro.core.partitioner import partition
from repro.eval.casestudy import CASESTUDY_BUDGET
from repro.runtime.adaptive import BurstyEnvironment, UniformEnvironment
from repro.runtime.icap import CUSTOM_DMA_CONTROLLER, IcapModel
from repro.runtime.manager import (
    ConfigurationManager,
    TraceError,
    compare_schemes_on_trace,
    replay,
)


@pytest.fixture
def modular(receiver):
    return one_module_per_region_scheme(receiver)


class TestBasics:
    def test_initial_load_not_charged(self, modular):
        mgr = ConfigurationManager(modular)
        rec = mgr.goto("Conf.1")
        assert rec.frames > 0 or rec.regions_rewritten == ()
        assert mgr.stats.transitions == 0
        assert mgr.current_configuration == "Conf.1"

    def test_initial_load_charged_when_requested(self, modular):
        mgr = ConfigurationManager(modular, charge_initial=True)
        mgr.goto("Conf.1")
        assert mgr.stats.transitions == 1

    def test_unknown_configuration(self, modular):
        mgr = ConfigurationManager(modular)
        with pytest.raises(TraceError):
            mgr.goto("Conf.99")

    def test_self_transition_free(self, modular):
        mgr = ConfigurationManager(modular)
        mgr.goto("Conf.1")
        rec = mgr.goto("Conf.1")
        assert rec.frames == 0
        assert rec.regions_rewritten == ()

    def test_loaded_contents_tracked(self, modular):
        mgr = ConfigurationManager(modular)
        mgr.goto("Conf.1")
        loaded = {x for x in mgr.loaded_contents if x is not None}
        assert loaded == {
            lbl for lbl in modular.activity("Conf.1") if lbl is not None
        }


class TestSemantics:
    def test_transition_matches_analytic_cost(self, modular):
        """A fresh A->B transition costs exactly Eq. 8 under LENIENT."""
        names = [c.name for c in modular.design.configurations]
        for a, b in itertools.combinations(names, 2):
            mgr = ConfigurationManager(modular)
            mgr.goto(a)
            rec = mgr.goto(b)
            assert rec.frames == transition_frames(modular, a, b)

    def test_stale_content_reused(self, modular):
        """Leaving and returning to a configuration whose region content
        survived costs nothing for that region (the LENIENT rationale)."""
        # Conf.1 and Conf.2 differ only in V (V1 vs V2) for the receiver.
        mgr = ConfigurationManager(modular)
        mgr.goto("Conf.1")
        first = mgr.goto("Conf.2").frames
        back = mgr.goto("Conf.1").frames
        assert back == first  # only the V region swaps back

    def test_single_region_rewrites_everything_each_time(self, receiver):
        scheme = single_region_scheme(receiver)
        frames = scheme.regions[0].frames
        mgr = ConfigurationManager(scheme)
        mgr.goto("Conf.1")
        for target in ("Conf.2", "Conf.3", "Conf.4"):
            assert mgr.goto(target).frames == frames

    def test_static_scheme_never_reconfigures(self, receiver):
        scheme = static_scheme(receiver)
        stats = replay(scheme, ["Conf.1", "Conf.4", "Conf.2", "Conf.8"])
        assert stats.total_frames == 0

    def test_unused_region_keeps_stale_content(self, receiver_modified):
        result = partition(receiver_modified, CASESTUDY_BUDGET)
        scheme = result.scheme
        mgr = ConfigurationManager(scheme)
        # Walk every configuration twice; regions never rewritten for
        # configurations that do not use them.
        names = [c.name for c in scheme.design.configurations]
        for name in names + names:
            rec = mgr.goto(name)
            required = scheme.activity(name)
            touched = set(rec.regions_rewritten)
            for region, need in zip(scheme.regions, required):
                if need is None:
                    assert region.name not in touched


class TestStats:
    def test_totals_accumulate(self, modular):
        mgr = ConfigurationManager(modular)
        trace = ["Conf.1", "Conf.4", "Conf.1", "Conf.8"]
        per_step = []
        for t in trace:
            per_step.append(mgr.goto(t).frames)
        assert mgr.stats.total_frames == sum(per_step[1:])  # first is free
        assert mgr.stats.worst_frames == max(per_step[1:])
        assert mgr.stats.transitions == len(trace) - 1

    def test_rewrites_by_region(self, modular):
        stats = replay(modular, ["Conf.1", "Conf.4", "Conf.1"])
        assert all(v > 0 for v in stats.rewrites_by_region.values())

    def test_mean_frames(self, modular):
        stats = replay(modular, ["Conf.1", "Conf.4"])
        assert stats.mean_frames == stats.total_frames / stats.transitions

    def test_mean_frames_empty(self, modular):
        mgr = ConfigurationManager(modular)
        assert mgr.stats.mean_frames == 0.0

    def test_seconds_use_icap_model(self, modular):
        fast = replay(modular, ["Conf.1", "Conf.4"], icap=CUSTOM_DMA_CONTROLLER)
        slow = replay(
            modular,
            ["Conf.1", "Conf.4"],
            icap=IcapModel(name="slow", efficiency=0.01),
        )
        assert slow.total_seconds > fast.total_seconds
        assert fast.total_frames == slow.total_frames


class TestCompare:
    def test_compare_schemes_on_trace(self, receiver):
        schemes = [
            one_module_per_region_scheme(receiver),
            single_region_scheme(receiver),
        ]
        trace = ["Conf.1", "Conf.5", "Conf.2", "Conf.8", "Conf.3"]
        out = compare_schemes_on_trace(schemes, trace)
        assert set(out) == {"modular", "single-region"}
        # The single-region scheme rewrites everything every time; the
        # modular scheme only what changes.
        assert out["modular"].total_frames < out["single-region"].total_frames

    @pytest.mark.parametrize(
        "environment",
        [UniformEnvironment, lambda d: BurstyEnvironment(d, dwell=0.9)],
        ids=["uniform", "bursty"],
    )
    def test_proposed_never_worse_than_single_region(self, receiver,
                                                     environment):
        trace = environment(receiver).trace(1000, seed=7)
        proposed = replay(partition(receiver, CASESTUDY_BUDGET).scheme, trace)
        single = replay(single_region_scheme(receiver), trace)
        assert proposed.total_frames <= single.total_frames

    def test_history_records_everything(self, modular):
        mgr = ConfigurationManager(modular)
        mgr.goto("Conf.1")
        mgr.goto("Conf.2")
        assert len(mgr.history) == 2
        assert mgr.history[0].from_configuration is None
        assert mgr.history[1].from_configuration == "Conf.1"
        assert mgr.history[1].to_configuration == "Conf.2"
