"""One benchmark repetition, run by ``run.py`` in a fresh interpreter.

Usage: ``python3 perfbench/rep.py SPEC.json`` -- the spec names the
workload and its parameters and where to write the result.  Set-up time
is measured from the first line of this file, so it includes importing
the program.  A failed output check exits 3; any other error exits 1.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.arch.library import virtex5_ladder  # noqa: E402
from repro.core.partitioner import (  # noqa: E402
    InfeasibleError,
    PartitionerOptions,
    partition_with_device_selection,
)
from repro.obs import RecordingTracer  # noqa: E402
from repro.replay import (  # noqa: E402
    WorkloadSuite,
    iter_trace,
    replay_record,
    replay_store_for,
    replay_trace,
    submit_replay_suite,
)
from repro.replay.service import replay_probe_keys  # noqa: E402
from repro.replay.store import ReplayResultStore  # noqa: E402
from repro.replay.trace import (  # noqa: E402
    TraceSpec,
    config_names,
    generator_matrix,
    trace_key,
)
from repro.service import JobStore, ResultCache, run_batch  # noqa: E402
from repro.service.pool import partition_problem_key  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
from spans import Spans  # noqa: E402

#: The committed fleet shape (BENCH_replay.json): 11 designs x 96
#: traces x 3 policies of 64 events, one design's traces per job.  The
#: designs are the committed ones (suite seed 2013, three of whose jobs
#: fail on an infeasible device escalation); the workload seed draws
#: the traces.
FLEET_DESIGN_SEED = 2013
FLEET_DESIGNS = 11
FLEET_TRACES_PER_DESIGN = 96
FLEET_LENGTH = 64
FLEET_MAX_SETS = 3
#: Stored records re-derived with the reference replay loop per run.
FLEET_CHECK_SAMPLE = 24


def _proc_children() -> list[int]:
    pids = []
    for task in Path("/proc/self/task").glob("*/children"):
        pids.extend(int(p) for p in task.read_text().split())
    return pids


def _hwm_mb(pid: str | int = "self") -> float:
    """Peak resident set of one process (VmHWM), in MB."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def peak_rss_mb() -> tuple[float, list[int]]:
    """Peak RSS of this process plus its live workers, and the worker pids."""
    workers = _proc_children()
    return _hwm_mb() + sum(_hwm_mb(pid) for pid in workers), workers


def failure_reason(error: str | None) -> str:
    """The exception class on a recorded traceback's last line."""
    lines = (error or "").strip().splitlines()
    return lines[-1].split(":", 1)[0].strip() if lines else "unknown"


# ----------------------------------------------------------------------
# sweeps: paper-sweep, profiled-sweep
# ----------------------------------------------------------------------


def run_sweep(spec: dict) -> dict:
    spans = Spans()
    workload = spec["workload"]
    library = virtex5_ladder()
    expected = inputs.load_expected(workload)
    indices = inputs.stratified_sample(expected, spec["strata"], spec["seed"])
    indices = indices[spec["part"]::spec["parts"]]
    with spans.span("setup.generate"):
        pool = inputs.pool_designs()
    probabilities = {}
    with spans.span("setup.profile"):
        if workload == "profiled-sweep":
            for i in indices:
                probabilities[i] = inputs.pair_probabilities(pool[i], i)
    setup_s = time.perf_counter() - T0

    tracer = RecordingTracer() if spec["traced"] else None
    design_s = []
    outcomes = []
    with spans.span("sweep"):
        for i in indices:
            design = pool[i]
            options = PartitionerOptions(pair_probabilities=probabilities.get(i))
            with spans.span("design", id=design.name) as span:
                try:
                    dres = partition_with_device_selection(
                        design, library, options, tracer=tracer
                    )
                except InfeasibleError as exc:
                    # The reference engine placed every pool design.
                    raise checks.CheckError(f"{design.name}: {exc}") from exc
            design_s.append(span["end"] - span["start"])
            outcomes.append((design, dres, expected[design.name], probabilities.get(i)))
    for design, dres, row, probs in outcomes:
        checks.check_design(design, dres, row, probs)

    rss, workers = peak_rss_mb()
    result = {
        "setup_s": setup_s,
        "items_s": design_s,
        "params": {
            "pool_seed": inputs.POOL_SEED, "pool_size": inputs.POOL_SIZE,
            "stratum": inputs.STRATUM, "strata": spec["strata"],
            "part": spec["part"], "parts": spec["parts"],
            "profile_length": inputs.PROFILE_LENGTH, "library": "virtex5_ladder",
        },
        "attempted": len(indices),
        "failed": 0,
        "failures": {},
        "peak_rss_mb": rss,
        "worker_pids": workers,
        "spans": spans.records,
    }
    if tracer is not None:
        trace = tracer.trace()
        found = layers.partition_layers(trace, len(indices))
        found.update({
            "synth.generate_s": spans.total("setup.generate"),
            "runtime.profile_s": spans.total("setup.profile"),
            "core.allocation.share": found["core.allocation.s"] / spans.total("sweep"),
        })
        result["layers"] = found
    return result


# ----------------------------------------------------------------------
# fleet-replay
# ----------------------------------------------------------------------


class TimedJobStore(JobStore):
    """A ``JobStore`` whose ``submit`` calls are spanned from outside."""

    def __init__(self, directory, spans: Spans) -> None:
        super().__init__(directory)
        self.spans = spans

    def submit(self, *args, **kwargs):
        with self.spans.span("jobs.submit") as span:
            job = super().submit(*args, **kwargs)
        span["id"] = job.id
        return job


@dataclass(frozen=True)
class FleetSuite(WorkloadSuite):
    """A suite whose trace seeds come from ``trace_seed``, not the design seed."""

    trace_seed: int = 0

    def spec_for(self, design_index: int, trace_index: int) -> TraceSpec:
        spec = super().spec_for(design_index, trace_index)
        seed = self.trace_seed * 1_000_003 + design_index * 10_007 + trace_index
        return replace(spec, seed=seed)


def _cells(job) -> int:
    return len(job.replay["traces"])


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _phase(spans, tag, work, suite, cache, workers, tracer):
    queue = work / f"queue-{tag}"
    store = JobStore(queue) if tracer is None else TimedJobStore(queue, spans)
    with spans.span(f"{tag}.submit"):
        jobs = submit_replay_suite(
            store, suite, layers.POLICIES,
            max_candidate_sets=FLEET_MAX_SETS, max_attempts=1,
            batch_size=FLEET_TRACES_PER_DESIGN,
        )
    with spans.span(f"{tag}.run_batch"):
        report = run_batch(
            store, cache, workers=workers, tracer=tracer,
            collect_worker_traces=tracer is not None,
        )
    wall = spans.total(f"{tag}.submit") + spans.total(f"{tag}.run_batch")
    return store, jobs, report, wall


def _member_index(jobs, cache):
    """Record key -> (scheme, names, spec, policy) for every done cell."""
    schemes = {}
    index = {}
    for job in jobs:
        pkey = partition_problem_key(job)
        if pkey not in schemes:
            entry = cache.lookup(pkey)
            schemes[pkey] = None if entry is None else entry.result.scheme
        scheme = schemes[pkey]
        if scheme is None:
            continue
        _key, members = replay_probe_keys(job)
        names = config_names(scheme.design)
        policy = job.replay["policy"]
        for member, doc in zip(members, job.replay["traces"]):
            index[member] = (pkey, scheme, names, TraceSpec.from_dict(doc), policy)
    return index


def run_fleet(spec: dict) -> dict:
    spans = Spans()
    work = Path(spec["work"])
    suite = FleetSuite(
        designs=FLEET_DESIGNS,
        traces_per_design=FLEET_TRACES_PER_DESIGN,
        length=FLEET_LENGTH,
        seed=FLEET_DESIGN_SEED,
        trace_seed=spec["seed"],
    )
    with spans.span("setup.generate"):
        list(suite.iter_workloads())
    cache = ResultCache(work / "cache")
    workers = os.cpu_count() or 1
    setup_s = time.perf_counter() - T0

    traced = spec["traced"]
    cold_tracer = RecordingTracer() if traced else None
    warm_tracer = RecordingTracer() if traced else None
    cold_store, jobs, cold, cold_wall = _phase(
        spans, "cold", work, suite, cache, workers, cold_tracer
    )
    warm_store, _, warm, warm_wall = _phase(
        spans, "warm", work, suite, cache, workers, warm_tracer
    )
    rss, worker_pids = peak_rss_mb()

    # Output checks.
    done_jobs = [j for j in cold_store.jobs() if j.state == "done"]
    failed_jobs = [j for j in cold_store.jobs() if j.state == "failed"]
    done_cells = sum(_cells(j) for j in done_jobs)
    total_cells = sum(_cells(j) for j in jobs)
    if cold.done + cold.failed != len(jobs) or cold.cache_hits != 0:
        raise checks.CheckError(f"cold phase did not drain: {cold.to_dict()}")
    if warm.cache_hits != cold.done or warm.done != cold.done:
        raise checks.CheckError(
            f"resubmission served {warm.cache_hits} of {cold.done} done jobs"
        )
    if warm.failed != cold.failed:
        raise checks.CheckError("resubmission failed a different job set")
    store = replay_store_for(cache)
    if len(store) != done_cells:
        raise checks.CheckError(f"store holds {len(store)} != {done_cells} cells")
    members = _member_index(done_jobs, cache)
    if len(members) != done_cells:
        raise checks.CheckError("done cells without a cached scheme")
    for key in checks.sample_keys(members, FLEET_CHECK_SAMPLE, spec["seed"]):
        pkey, scheme, names, tspec, policy = members[key]
        reference = replay_trace(
            scheme, iter_trace(names, tspec), policy,
            matrix=generator_matrix(names, tspec), problem_key=pkey,
            trace_key=trace_key(names, tspec), engine="reference",
        )
        if checks.canonical(store.get_record(key)) != checks.canonical(
            replay_record(reference)
        ):
            raise checks.CheckError(f"stored record {key} != reference replay")

    failures: dict[str, int] = {}
    for job in failed_jobs:
        reason = failure_reason(job.error)
        failures[reason] = failures.get(reason, 0) + _cells(job)
    result = {
        "setup_s": setup_s,
        "items_s": [j.compute_s for j in done_jobs],
        "cells_per_s": done_cells / cold_wall,
        "cached_cells_per_s": done_cells / warm_wall,
        "params": {
            "design_seed": FLEET_DESIGN_SEED, "designs": FLEET_DESIGNS,
            "traces_per_design": FLEET_TRACES_PER_DESIGN, "length": FLEET_LENGTH,
            "policies": list(layers.POLICIES), "batch_size": FLEET_TRACES_PER_DESIGN,
            "max_candidate_sets": FLEET_MAX_SETS, "workers": workers,
            "check_sample": FLEET_CHECK_SAMPLE,
        },
        "attempted": total_cells,
        "failed": total_cells - done_cells,
        "failures": failures,
        "jobs": len(jobs),
        "peak_rss_mb": rss,
        "worker_pids": worker_pids,
        "spans": spans.records,
    }
    if traced:
        result["layers"] = fleet_layers(
            spans, cold_tracer.trace(), warm_tracer.trace(), cold, warm,
            cold_store, warm_store, members, cache, work, workers, cold_wall,
        )
        result["layers"]["core.partitioner.infeasible"] = sum(
            1 for job in failed_jobs
            if failure_reason(job.error).endswith("InfeasibleError")
        )
    return result


def fleet_layers(spans, cold_trace, warm_trace, cold, warm, cold_store,
                 warm_store, members, cache, work, workers, cold_wall):
    """Per-layer split of one traced fleet repetition.

    Partition and service layers come from the program's own spans and
    counters (worker traces adopted into the cold tracer).  Trace
    generation, the replay kernel and the store have no program spans,
    so the same inputs are replayed here through their public functions.
    """
    found = layers.partition_layers(cold_trace, FLEET_DESIGNS)
    c = cold_trace.counters
    found["core.allocation.share"] = found["core.allocation.s"] / (cold_wall * workers)
    found["replay.service.scheme_resolve_s"] = layers.scheme_resolve_s(cold_trace)
    found["pool.warm_hits"] = c.get("pool.warm_hits", 0)
    found["synth.generate_s"] = spans.total("setup.generate")
    found["obs.events_dropped"] += warm_trace.counters.get("obs.events_dropped", 0)

    # Trace generation and the kernel, per policy, on the cold inputs.
    traces = {}
    with spans.span("replay.trace.generate"):
        for key, (_pkey, _scheme, names, tspec, _policy) in members.items():
            traces[key] = list(iter_trace(names, tspec))
    events = sum(len(t) for t in traces.values())
    found["replay.trace.generate_s"] = spans.total("replay.trace.generate")
    found["replay.trace.events"] = events
    for policy in layers.POLICIES:
        policy_events = 0
        with spans.span(f"replay.kernel.{policy}"):
            for key, (pkey, scheme, names, tspec, pdoc) in members.items():
                if pdoc["name"] != policy:
                    continue
                replay_trace(
                    scheme, traces[key], pdoc,
                    matrix=generator_matrix(names, tspec), problem_key=pkey,
                )
                policy_events += len(traces[key])
        seconds = spans.total(f"replay.kernel.{policy}")
        found[f"replay.kernel.s.{policy}"] = seconds
        found[f"replay.kernel.events_per_s.{policy}"] = (
            policy_events / seconds if seconds else 0.0
        )
    found["replay.kernel.vector_share"] = c.get("replay.vector_events", 0) / max(1, events)

    # Store: the same records rewritten as one segment per job, then the
    # warm phase's bulk probe and segment index on fresh instances.
    live = replay_store_for(cache)
    scratch = ReplayResultStore(work / "store-rewrite")
    with spans.span("replay.store.put_many"):
        for job in cold_store.jobs():
            if job.state != "done":
                continue
            _key, keys = replay_probe_keys(job)
            scratch.put_many({k: live.get_record(k) for k in keys})
    put_s = spans.total("replay.store.put_many")
    found["replay.store.put_many_s"] = put_s
    found["replay.store.bytes_written"] = _dir_bytes(scratch.root)
    found["replay.store.segments"] = len(live.segment_paths())
    with spans.span("replay.store.segment_index"):
        replay_store_for(cache).segment_index()
    with spans.span("replay.store.probe_many"):
        replay_store_for(cache).probe_many(list(members))
    found["replay.store.segment_index_s"] = spans.total("replay.store.segment_index")
    found["replay.store.probe_many_s"] = spans.total("replay.store.probe_many")

    found["service.cache.hit_ratio"] = warm.cache_hits / max(1, warm.total)
    found["service.jobs.submit_s"] = spans.total("jobs.submit")
    found["service.jobs.log_bytes"] = _dir_bytes(cold_store.directory) + _dir_bytes(
        warm_store.directory
    )
    found["service.pool.busy_s"] = cold.busy_s
    found["service.pool.utilisation"] = cold.worker_utilisation
    found["service.pool.unattributed_s"] = cold.duration_s - cold.busy_s / workers
    return found


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    runner = run_fleet if spec["workload"] == "fleet-replay" else run_sweep
    try:
        result = runner(spec)
    except checks.CheckError as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        return 3
    Path(spec["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
