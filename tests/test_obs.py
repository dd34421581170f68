"""Observability layer: spans, metrics, progress events, JSON traces.

Covers the tracer primitives in isolation (with a fake clock, so timing
assertions are exact), the no-op guarantees of the default tracer, the
JSON schema round-trip, and the integration contract: a traced
``partition()`` on the paper example must produce the stage spans and
counters documented in docs/OBSERVABILITY.md.  The final class shells
out to ``python -m repro example --trace --trace-json`` as the CI smoke
check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import NULL_TRACER, RecordingTracer, ResourceVector
from repro.core.partitioner import partition, partition_with_device_selection
from repro.obs import (
    ProgressEvent,
    Trace,
    TraceError,
    Tracer,
    render_trace_summary,
    stage_summary_rows,
    trace_from_dict,
    trace_from_json,
)


class FakeClock:
    """Deterministic clock: each call advances by ``step`` seconds."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        t = self.now
        self.now += self.step
        return t

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestNullTracer:
    def test_is_disabled(self):
        assert NULL_TRACER.enabled is False
        assert Tracer().enabled is False

    def test_all_operations_are_noops(self):
        seen = []
        NULL_TRACER.on_progress(seen.append)
        with NULL_TRACER.span("stage", depth=3) as span:
            span.annotate(extra=1)
            NULL_TRACER.count("metric", 5)
            NULL_TRACER.gauge("level", 2.5)
            NULL_TRACER.progress("tick", i=0)
        assert seen == []

    def test_shared_instance_accumulates_no_state(self):
        before = dict(vars(type(NULL_TRACER)))
        NULL_TRACER.count("x")
        NULL_TRACER.gauge("y", 1)
        # the no-op tracer has no instance dict growth at all
        assert vars(NULL_TRACER) == {}
        assert dict(vars(type(NULL_TRACER))).keys() == before.keys()


class TestSpans:
    def test_nesting_and_timing(self):
        clock = FakeClock(step=0.0)
        t = RecordingTracer(clock=clock)
        with t.span("outer", design="d"):
            clock.advance(2.0)
            with t.span("inner"):
                clock.advance(1.0)
            clock.advance(0.5)
        (outer,) = t.spans
        assert outer.name == "outer"
        assert outer.attrs == {"design": "d"}
        assert outer.duration_s == pytest.approx(3.5)
        (inner,) = outer.children
        assert inner.name == "inner"
        assert inner.start_s == pytest.approx(2.0)
        assert inner.duration_s == pytest.approx(1.0)

    def test_siblings_share_parent(self):
        t = RecordingTracer(clock=FakeClock(step=0.0))
        with t.span("root"):
            with t.span("a"):
                pass
            with t.span("b"):
                pass
        (root,) = t.spans
        assert [c.name for c in root.children] == ["a", "b"]

    def test_multiple_roots(self):
        t = RecordingTracer(clock=FakeClock(step=0.0))
        with t.span("first"):
            pass
        with t.span("second"):
            pass
        assert [s.name for s in t.spans] == ["first", "second"]

    def test_current_span_tracks_stack(self):
        t = RecordingTracer(clock=FakeClock(step=0.0))
        assert t.current_span is None
        with t.span("outer"):
            assert t.current_span.name == "outer"
            with t.span("inner"):
                assert t.current_span.name == "inner"
            assert t.current_span.name == "outer"
        assert t.current_span is None

    def test_annotate_after_open(self):
        t = RecordingTracer(clock=FakeClock(step=0.0))
        with t.span("stage", fixed=1) as span:
            span.annotate(late="value")
        assert t.spans[0].attrs == {"fixed": 1, "late": "value"}

    def test_span_closed_on_exception(self):
        t = RecordingTracer(clock=FakeClock(step=0.0))
        with pytest.raises(RuntimeError):
            with t.span("doomed"):
                raise RuntimeError("boom")
        assert t.current_span is None
        assert t.spans[0].duration_s is not None

    def test_walk_and_find(self):
        t = RecordingTracer(clock=FakeClock(step=0.0))
        with t.span("root"):
            with t.span("leaf"):
                pass
            with t.span("leaf"):
                pass
        trace = t.trace()
        paths = [p for p, _ in trace.walk()]
        assert paths == [("root",), ("root", "leaf"), ("root", "leaf")]
        assert len(trace.find("leaf")) == 2
        assert trace.span_names() == {"root", "leaf"}


class TestMetrics:
    def test_counters_accumulate(self):
        t = RecordingTracer(clock=FakeClock(step=0.0))
        t.count("hits")
        t.count("hits", 4)
        assert t.counters == {"hits": 5}

    def test_gauges_keep_last_value(self):
        t = RecordingTracer(clock=FakeClock(step=0.0))
        t.gauge("level", 3)
        t.gauge("level", 7)
        assert t.gauges == {"level": 7}

    def test_metrics_land_on_innermost_span_and_trace(self):
        t = RecordingTracer(clock=FakeClock(step=0.0))
        with t.span("outer"):
            t.count("outer.work", 1)
            with t.span("inner"):
                t.count("inner.work", 2)
                t.gauge("inner.depth", 9)
        (outer,) = t.spans
        (inner,) = outer.children
        assert outer.counters == {"outer.work": 1}
        assert inner.counters == {"inner.work": 2}
        assert inner.gauges == {"inner.depth": 9}
        assert t.counters == {"outer.work": 1, "inner.work": 2}
        assert t.gauges == {"inner.depth": 9}

    def test_observe_many_matches_repeated_observe(self):
        one = RecordingTracer(clock=FakeClock(step=0.0))
        many = RecordingTracer(clock=FakeClock(step=0.0))
        values = [0, 3, 3, 7, 40]
        for v in values:
            one.observe("steps", v, bounds=(1.0, 5.0))
        many.observe_many("steps", values, bounds=(1.0, 5.0))
        a, b = one.histograms["steps"], many.histograms["steps"]
        assert a.bounds == b.bounds == (1.0, 5.0)
        assert a.bucket_counts == b.bucket_counts == [1, 2, 2]
        assert a.summary.count == b.summary.count == 5
        NULL_TRACER.observe_many("steps", values)


class TestProgress:
    def test_callbacks_receive_events(self):
        t = RecordingTracer(clock=FakeClock(step=0.0))
        seen: list[ProgressEvent] = []
        t.on_progress(seen.append)
        t.progress("tick", i=0)
        t.progress("tick", i=1)
        assert [e.payload["i"] for e in seen] == [0, 1]
        assert all(e.name == "tick" for e in seen)
        assert len(t.events) == 2

    def test_retention_cap_keeps_stream_flowing(self):
        t = RecordingTracer(clock=FakeClock(step=0.0), max_events=2)
        seen = []
        t.on_progress(seen.append)
        for i in range(5):
            t.progress("tick", i=i)
        assert len(t.events) == 2
        assert t.events_dropped == 3
        assert len(seen) == 5  # callbacks see everything
        assert t.trace().events == 5


class TestSerialisation:
    def _sample_tracer(self) -> RecordingTracer:
        t = RecordingTracer(clock=FakeClock(step=0.25))
        with t.span("root", design="x") as root:
            t.count("root.items", 3)
            with t.span("child"):
                t.gauge("child.depth", 2)
            root.annotate(outcome="ok")
        t.progress("done")
        return t

    def test_round_trip_preserves_everything(self):
        t = self._sample_tracer()
        trace = t.trace()
        rebuilt = trace_from_json(t.to_json())
        assert rebuilt.to_dict() == trace.to_dict()
        assert rebuilt.span_names() == {"root", "child"}
        assert rebuilt.counters == {"root.items": 3}
        assert rebuilt.gauges == {"child.depth": 2}
        assert rebuilt.events == 1

    def test_schema_header(self):
        doc = self._sample_tracer().trace().to_dict()
        assert doc["format"] == "repro-trace"
        assert doc["version"] == 2
        assert set(doc) == {
            "format", "version", "counters", "gauges", "events", "spans",
        }

    def test_histograms_block_appears_only_when_observed(self):
        tracer = self._sample_tracer()
        assert "histograms" not in tracer.trace().to_dict()
        tracer.observe("stage.latency_s", 0.25)
        doc = tracer.trace().to_dict()
        assert set(doc["histograms"]) == {"stage.latency_s"}

    def test_version_1_documents_still_load(self):
        doc = self._sample_tracer().trace().to_dict()
        doc["version"] = 1
        doc.pop("histograms", None)
        rebuilt = trace_from_dict(doc)
        assert rebuilt.histograms == {}
        assert rebuilt.span_names() == {"root", "child"}

    def test_json_is_plain_json(self):
        text = self._sample_tracer().to_json()
        doc = json.loads(text)
        assert doc["spans"][0]["children"][0]["name"] == "child"

    def test_rejects_wrong_format(self):
        with pytest.raises(TraceError):
            trace_from_dict({"format": "other", "version": 1})

    def test_rejects_wrong_version(self):
        with pytest.raises(TraceError):
            trace_from_dict({"format": "repro-trace", "version": 99})

    def test_rejects_invalid_json(self):
        with pytest.raises(TraceError):
            trace_from_json("{not json")

    def test_rejects_malformed_span(self):
        with pytest.raises(TraceError):
            trace_from_dict(
                {"format": "repro-trace", "version": 1, "spans": [{"no": 1}]}
            )


class TestRendering:
    def test_summary_rows_aggregate_by_path(self):
        t = RecordingTracer(clock=FakeClock(step=0.0))
        clock = t._clock
        with t.span("partition"):
            for _ in range(3):
                with t.span("covering"):
                    clock.advance(1.0)
        rows = stage_summary_rows(t.trace())
        stages = [r[0] for r in rows]
        assert stages == ["partition", "  covering"]
        assert rows[1][1] == 3  # three calls aggregated into one row

    def test_render_accepts_all_input_types(self):
        t = RecordingTracer(clock=FakeClock(step=0.0))
        with t.span("stage"):
            t.count("stage.n", 2)
        from repro.eval.report import render_trace_summary as eval_render

        for arg in (t, t.trace(), t.trace().to_dict(), t.to_json()):
            out = eval_render(arg)
            assert "stage" in out and "stage.n" in out

    def test_render_rejects_unknown_type(self):
        from repro.eval.report import render_trace_summary as eval_render

        with pytest.raises(TypeError):
            eval_render(42)

    def test_title_is_prepended(self):
        t = RecordingTracer(clock=FakeClock(step=0.0))
        with t.span("stage"):
            pass
        from repro.eval.report import render_trace_summary as eval_render

        assert eval_render(t, title="My trace").startswith("My trace\n")


class TestPipelineIntegration:
    BUDGET = ResourceVector(520, 16, 16)

    def test_partition_emits_documented_stages(self, paper_example):
        t = RecordingTracer()
        partition(paper_example, self.BUDGET, tracer=t)
        trace = t.trace()
        assert {
            "partition", "connectivity_matrix", "clustering",
            "covering", "merge_search",
        } <= trace.span_names()
        (root,) = trace.spans
        assert root.name == "partition"
        assert root.duration_s is not None and root.duration_s > 0
        for name in ("connectivity_matrix", "clustering", "merge_search"):
            spans = trace.find(name)
            assert spans, f"missing {name} span"
            assert all(s.duration_s is not None for s in spans)

    def test_partition_counters_and_gauges(self, paper_example):
        t = RecordingTracer()
        result = partition(paper_example, self.BUDGET, tracer=t)
        c, g = t.counters, t.gauges
        assert g["clustering.base_partitions"] == 26  # Sec. IV-C
        assert c["merge.states_explored"] > 0
        assert c["merge.cache_hits"] + c["merge.cache_misses"] > 0
        assert c["covering.sets_produced"] == c["partition.candidate_sets"]
        assert g["partition.total_frames"] == result.total_frames
        assert g["partition.regions"] == len(result.scheme.regions)

    def test_partition_progress_stream(self, paper_example):
        t = RecordingTracer()
        seen = []
        t.on_progress(seen.append)
        partition(paper_example, self.BUDGET, tracer=t)
        names = {e.name for e in seen}
        assert "covering.set_produced" in names
        assert "partition.candidate_set_searched" in names

    def test_largest_pool_design_fits_the_ring(self):
        """Merge restarts are a histogram, not one event each, so the
        heaviest perfbench pool design (index 164, most merge work) stays
        inside the default 10k-event ring."""
        from repro.arch import virtex5_ladder
        from repro.synth.generator import generate_population

        design = list(generate_population(165, seed=2013))[164][1]
        t = RecordingTracer()
        partition_with_device_selection(design, virtex5_ladder(), tracer=t)
        assert t.events_dropped == 0
        assert "obs.events_dropped" not in t.counters
        assert "merge.restart" not in {e.name for e in t.events}
        steps = t.histograms["merge.restart_steps"].summary
        assert steps.count == t.counters["merge.initial_pairs"]
        assert steps.total == t.counters["merge.descent_steps"]

    def test_device_selection_root_span(self, paper_example):
        from repro.arch import virtex5_full

        t = RecordingTracer()
        dres = partition_with_device_selection(
            paper_example, virtex5_full(), tracer=t
        )
        (root,) = t.trace().spans
        assert root.name == "device_selection"
        assert root.attrs["device"] == dres.device.name
        assert root.attrs["escalations"] == dres.escalations
        assert root.find("partition")

    def test_untraced_result_identical(self, paper_example):
        baseline = partition(paper_example, self.BUDGET)
        traced = partition(paper_example, self.BUDGET, tracer=RecordingTracer())
        assert traced.total_frames == baseline.total_frames
        assert traced.scheme.describe() == baseline.scheme.describe()

    def test_exact_traced(self, paper_example):
        from repro.core.exact import partition_exact

        t = RecordingTracer()
        partition_exact(paper_example, self.BUDGET, tracer=t)
        assert "exact_search" in t.trace().span_names()
        assert t.counters["exact.states_enumerated"] > 0


class TestCliSmoke:
    """CI smoke check: the traced CLI run must exit 0 with a valid trace."""

    def _run(self, *argv: str, tmp_path: Path):
        env = dict(os.environ)
        root = Path(__file__).resolve().parents[1]
        env["PYTHONPATH"] = str(root / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
            timeout=120,
        )

    def test_example_trace_json(self, tmp_path):
        out = tmp_path / "trace.json"
        proc = self._run(
            "example", "--trace", "--trace-json", str(out), tmp_path=tmp_path
        )
        assert proc.returncode == 0, proc.stderr
        assert "Pipeline trace" in proc.stdout
        trace = trace_from_json(out.read_text(encoding="utf-8"))
        assert isinstance(trace, Trace)
        assert {"partition", "clustering", "covering", "merge_search"} <= (
            trace.span_names()
        )
        root = trace.spans[0]
        assert root.duration_s is not None and root.duration_s > 0
        assert trace.counters["merge.states_explored"] > 0
        assert trace.gauges["clustering.base_partitions"] == 26

    def test_trace_json_to_stdout(self, tmp_path):
        proc = self._run("example", "--trace-json", "-", tmp_path=tmp_path)
        assert proc.returncode == 0, proc.stderr
        start = proc.stdout.index('{\n "format"')
        trace = trace_from_json(proc.stdout[start:])
        assert trace.counters["partition.candidate_sets"] > 0
