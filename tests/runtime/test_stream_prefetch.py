"""ICAP stream-consumption and prefetching-manager tests."""

from __future__ import annotations

import pytest

from repro.core.baselines import one_module_per_region_scheme
from repro.core.partitioner import partition
from repro.eval.casestudy import CASESTUDY_BUDGET, casestudy_design
from repro.flow.bitgen import (
    BitstreamFormatError,
    BitstreamInfo,
    build_partial_bitstream,
)
from repro.runtime.adaptive import MarkovEnvironment, uniform_markov
from repro.runtime.icap import CUSTOM_DMA_CONTROLLER, VENDOR_HWICAP, IcapModel
from repro.runtime.manager import replay
from repro.runtime.prefetch import (
    PrefetchingManager,
    markov_predictor,
    oracle_predictor,
    replay_with_prefetch,
)
from repro.runtime.stream import consume_bitstream, stream_scheme_bitstreams


def _bits(frames=4):
    return build_partial_bitstream(
        BitstreamInfo(
            design="d", region="R", partition_label="{X}",
            frame_address=0x40, frames=frames,
        )
    )


class TestStreamConsumer:
    def test_counts_payload_words(self):
        report = consume_bitstream(_bits(frames=4))
        assert report.words_payload == 4 * 41

    def test_cycles_at_least_words(self):
        report = consume_bitstream(_bits())
        assert report.cycles >= report.words_total - 4  # header absorbed

    def test_full_rate_controller_no_stalls(self):
        report = consume_bitstream(_bits(), IcapModel(name="x", efficiency=1.0))
        assert report.stall_cycles == 0
        assert report.efficiency <= 1.0

    def test_slow_controller_stalls(self):
        fast = consume_bitstream(_bits(), CUSTOM_DMA_CONTROLLER)
        slow = consume_bitstream(_bits(), VENDOR_HWICAP)
        assert slow.cycles > fast.cycles
        assert slow.stall_cycles > 0
        assert slow.seconds > fast.seconds

    def test_long_form_payload(self):
        report = consume_bitstream(_bits(frames=60))
        assert report.words_payload == 60 * 41

    def test_garbage_rejected(self):
        with pytest.raises(BitstreamFormatError):
            consume_bitstream(b"nonsense")

    def test_missing_desync_rejected(self):
        data = _bits()
        with pytest.raises(BitstreamFormatError):
            consume_bitstream(data[:-8])  # drop DESYNC tail

    def test_directory_helper(self, tmp_path, receiver, fx70t):
        from repro.flow.bitgen import write_scheme_bitstreams
        from repro.flow.floorplan import floorplan

        scheme = one_module_per_region_scheme(receiver)
        plan = floorplan(scheme, fx70t)
        paths = write_scheme_bitstreams(scheme, plan, tmp_path)
        reports = stream_scheme_bitstreams(paths)
        assert len(reports) == len(paths)
        assert all(r.words_payload > 0 for r in reports.values())


@pytest.fixture
def design():
    return casestudy_design()


@pytest.fixture
def scheme(design):
    return partition(design, CASESTUDY_BUDGET).scheme


class TestPrefetching:
    def test_oracle_predictor_hides_everything_hideable(self, design, scheme):
        """With a perfect predictor, every rewrite of a region idle in
        the previous configuration is hidden."""
        env = uniform_markov(design)
        trace = env.trace(400, seed=3)
        plain = replay(scheme, trace)
        oracle = replay_with_prefetch(scheme, trace, oracle_predictor(trace))
        assert oracle.total_frames <= plain.total_frames
        # Hidden work is real work: prefetched frames were loaded.
        assert oracle.prefetched_frames >= plain.total_frames - oracle.total_frames

    def test_markov_predictor_helps_on_skewed_chain(self, design, scheme):
        names = [c.name for c in design.configurations]
        matrix = {}
        for src in names:
            matrix[src] = {dst: 0.02 / (len(names) - 2) for dst in names if dst != src}
        # Strong Conf.4 <-> Conf.1 alternation.
        matrix["Conf.4"] = {"Conf.1": 0.98, **{n: 0.02 / 6 for n in names if n not in ("Conf.4", "Conf.1")}}
        matrix["Conf.1"] = {"Conf.4": 0.98, **{n: 0.02 / 6 for n in names if n not in ("Conf.1", "Conf.4")}}
        for src, row in matrix.items():
            total = sum(row.values())
            matrix[src] = {k: v / total for k, v in row.items()}
        env = MarkovEnvironment(design, matrix)
        trace = env.trace(600, seed=4)
        plain = replay(scheme, trace)
        fetched = replay_with_prefetch(
            scheme, trace, markov_predictor(matrix)
        )
        assert fetched.total_frames <= plain.total_frames
        assert fetched.prefetch_hits > 0

    def test_hiding_is_ordered_by_predictor_quality(self, design, scheme):
        """Oracle <= Markov <= no prefetch on a chain that mostly steps
        to the next configuration."""
        names = [c.name for c in design.configurations]
        matrix = {}
        for i, src in enumerate(names):
            nxt = names[(i + 1) % len(names)]
            rest = [n for n in names if n not in (src, nxt)]
            matrix[src] = {nxt: 0.9, **{n: 0.1 / len(rest) for n in rest}}
        trace = MarkovEnvironment(design, matrix).trace(1500, seed=3)
        plain = replay(scheme, trace)
        markov = replay_with_prefetch(scheme, trace, markov_predictor(matrix))
        oracle = replay_with_prefetch(scheme, trace, oracle_predictor(trace))
        assert oracle.total_frames <= markov.total_frames
        assert markov.total_frames <= plain.total_frames

    def test_never_prefetches_active_region(self, design, scheme):
        """A region serving the current configuration must never be
        speculatively rewritten (that would corrupt the system)."""
        env = uniform_markov(design)
        trace = env.trace(200, seed=5)
        mgr = PrefetchingManager(
            scheme, markov_predictor(uniform_markov(design).matrix)
        )
        for name in trace:
            mgr.goto(name)
            needed = scheme.activity(name)
            for idx, need in enumerate(needed):
                if need is not None:
                    assert mgr._loaded[idx] == need

    def test_demand_correctness_unchanged(self, design, scheme):
        """Prefetching must not change which configuration is reachable:
        after goto(c), every region c needs holds the right content."""
        env = uniform_markov(design)
        trace = env.trace(300, seed=6)
        mgr = PrefetchingManager(scheme, oracle_predictor(trace))
        for name in trace:
            mgr.goto(name)
            for idx, need in enumerate(scheme.activity(name)):
                if need is not None:
                    assert mgr._loaded[idx] == need

    def test_bad_predictor_rejected(self, design, scheme):
        mgr = PrefetchingManager(scheme, lambda c: "ghost")
        from repro.runtime.manager import TraceError

        with pytest.raises(TraceError):
            mgr.goto("Conf.1")
            mgr.goto("Conf.2")

    def test_wasted_speculation_counted(self, design, scheme):
        """A predictor that always guesses wrong accumulates waste but
        never slows the demand path beyond the plain manager."""
        names = [c.name for c in design.configurations]

        def contrarian(current: str) -> str:
            return names[0] if current != names[0] else names[1]

        env = uniform_markov(design)
        trace = env.trace(300, seed=7)
        plain = replay(scheme, trace)
        wrong = replay_with_prefetch(scheme, trace, contrarian)
        assert wrong.total_frames <= plain.total_frames  # hits still possible
