"""Per-layer metrics read from the program's own spans and counters.

The program already emits stage spans (``partition``, ``clustering``,
``covering``, ``merge_search``, ``replay_batch``...) and counters
(``merge.heap_pushes``...) on any ``RecordingTracer`` passed through
the public ``tracer=`` arguments; this module only folds them.
"""

from __future__ import annotations

from spans import self_time

POLICIES = ("no-prefetch", "prefetch-oracle", "evict-lru")

#: Every per-layer metric, in BENCHMARK.json order, with its unit.  A
#: workload that bypasses a layer reports 0 for it.
PER_LAYER = {
    "synth.generate_s": "s",
    "runtime.profile_s": "s",
    "core.clustering.s": "s",
    "core.clustering.cliques_enumerated": "count",
    "core.covering.s": "s",
    "core.covering.partitions_considered": "count",
    "core.covering.sets_produced": "count",
    "core.allocation.s": "s",
    "core.allocation.share": "ratio",
    "merge.states_explored": "count",
    "merge.descent_steps": "count",
    "merge.heap_pushes": "count",
    "merge.heap_stale_drops": "count",
    "merge.stale_drop_ratio": "ratio",
    "merge.cache_hit_ratio": "ratio",
    "search.nodes_expanded": "count",
    "core.partitioner.s": "s",
    "core.partitioner.unattributed_s": "s",
    "core.partitioner.calls_per_design": "count",
    "core.partitioner.escalations": "count",
    "core.partitioner.infeasible": "count",
    "replay.trace.generate_s": "s",
    "replay.trace.events": "count",
    **{f"replay.kernel.s.{p}": "s" for p in POLICIES},
    **{f"replay.kernel.events_per_s.{p}": "1/s" for p in POLICIES},
    "replay.kernel.vector_share": "ratio",
    "replay.service.scheme_resolve_s": "s",
    "pool.warm_hits": "count",
    "replay.store.put_many_s": "s",
    "replay.store.bytes_written": "bytes",
    "replay.store.segments": "count",
    "replay.store.probe_many_s": "s",
    "replay.store.segment_index_s": "s",
    "service.cache.hit_ratio": "ratio",
    "service.cached_cells_per_s": "1/s",
    "service.jobs.submit_s": "s",
    "service.jobs.log_bytes": "bytes",
    "service.pool.busy_s": "s",
    "service.pool.utilisation": "ratio",
    "service.pool.unattributed_s": "s",
    "bench.failed_frac": "ratio",
    "obs.trace_overhead_frac": "ratio",
    "obs.events_dropped": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def partition_layers(trace, designs: int) -> dict[str, float]:
    """Stage self times and search counters of every partition in ``trace``."""
    selfs = {"clustering": 0.0, "covering": 0.0, "merge_search": 0.0}
    partition_s = 0.0
    calls = 0
    for _path, span in trace.walk():
        if span.name in selfs:
            selfs[span.name] += self_time(span)
        elif span.name == "partition":
            partition_s += span.duration_s or 0.0
            calls += 1
    c = trace.counters
    hits = c.get("merge.cache_hits", 0)
    misses = c.get("merge.cache_misses", 0)
    pushes = c.get("merge.heap_pushes", 0)
    return {
        "core.clustering.s": selfs["clustering"],
        "core.clustering.cliques_enumerated": c.get("clustering.cliques_enumerated", 0),
        "core.covering.s": selfs["covering"],
        "core.covering.partitions_considered": c.get("covering.partitions_considered", 0),
        "core.covering.sets_produced": c.get("covering.sets_produced", 0),
        "core.allocation.s": selfs["merge_search"],
        "merge.states_explored": c.get("merge.states_explored", 0),
        "merge.descent_steps": c.get("merge.descent_steps", 0),
        "merge.heap_pushes": pushes,
        "merge.heap_stale_drops": c.get("merge.heap_stale_drops", 0),
        "merge.stale_drop_ratio": _ratio(c.get("merge.heap_stale_drops", 0), pushes),
        "merge.cache_hit_ratio": _ratio(hits, hits + misses),
        "search.nodes_expanded": c.get("search.nodes_expanded", 0),
        "core.partitioner.s": partition_s,
        "core.partitioner.unattributed_s": partition_s - sum(selfs.values()),
        "core.partitioner.calls_per_design": calls / designs,
        "core.partitioner.escalations": c.get("partition.device_escalations", 0),
        "obs.events_dropped": c.get("obs.events_dropped", 0),
    }


def scheme_resolve_s(trace) -> float:
    """Time adopted replay jobs spent outside their ``replay_batch`` span.

    That is XML parsing, cache lookup and -- on a miss -- the partition
    search: everything a job does to obtain its scheme.
    """
    total = 0.0
    for _path, span in trace.walk():
        if span.name != "job":
            continue
        replayed = sum(
            child.duration_s or 0.0
            for child in span.children
            if child.name == "replay_batch"
        )
        total += (span.duration_s or 0.0) - replayed
    return total
