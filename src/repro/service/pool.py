"""Supervised multiprocessing batch runner: fan pending jobs out across
cores and never let one of them wedge the batch.

``run_batch`` drains a :class:`~repro.service.jobs.JobStore`:

1. every pending job's :func:`repro.core.problem_key` is computed in the
   parent (cheap: one XML parse + one SHA-256) and probed in the
   :class:`~repro.service.cache.ResultCache` (envelope check only, no
   result deserialisation) -- hits complete immediately, **without
   dispatching a worker or re-running any search stage**;
2. misses are executed in (priority desc, fair round-robin, FIFO) order
   -- the :meth:`~repro.service.jobs.JobStore.pending` schedule --
   inline for ``workers=1`` with no supervision, else on one module-level
   pool of persistent, killable worker processes, at most ``workers`` in
   flight.  Workers survive across jobs and batches, so per-process
   scheme caches keep paying off (``pool.warm_hits``); only a worker
   that dies or is killed is respawned;
3. a worker exception never poisons the batch: the traceback travels
   back as data, the job re-queues until its attempt cap, then lands in
   ``failed`` while every other job keeps flowing;
4. a pool worker that *dies* without reporting (OOM kill, segfault)
   fails only its own job, detected the moment its pipe or process
   sentinel fires.  Supervision adds checks to the same drain loop:
   each worker **heartbeats** (touches a per-job file every
   ``heartbeat_interval_s``) while computing, and the loop enforces a
   per-job ``job_timeout_s`` deadline plus a ``heartbeat_timeout_s``
   staleness threshold -- a hung worker is killed, its job fails with a
   ``timeout ...`` error and re-queues until its attempt cap, and the
   freed slot is refilled so the batch always terminates.

Deterministic fault injection for all of the above lives in
:mod:`repro.service.faults` and threads through the worker payload --
production runs never construct a plan.

Progress streams through the :mod:`repro.obs` tracer (``batch.*``
events, ``service.*`` counters -- see docs/OBSERVABILITY.md) and the
run aggregates into a :class:`BatchReport` (throughput, cache hit rate,
timeouts, worker utilisation).
"""

from __future__ import annotations

import atexit
import heapq
import json
import multiprocessing
import os
import signal
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.registry import RunRegistry

from ..arch.library import DeviceLibrary
from ..core.fingerprint import problem_key
from ..core.partitioner import (
    PartitionerOptions,
    PartitionResult,
    partition,
    partition_with_device_selection,
)
from ..obs import NULL_TRACER, RecordingTracer, TelemetrySink, Tracer
from ..obs.resources import job_resources, sample_self
from .cache import ResultCache
from .faults import FaultPlan, inject, spec_from_payload
from .jobs import Job, JobStore
from .problem import ResolvedProblem, resolve_problem_text

#: Default worker beat period under supervision (seconds).
DEFAULT_HEARTBEAT_INTERVAL_S = 0.5

#: Scratch space (heartbeat files) inside the queue dir.
WORK_DIRNAME = ".work"


class ServiceError(RuntimeError):
    """Raised for batch-service misuse (not for per-job failures)."""


def _job_options(max_candidate_sets: int | None) -> PartitionerOptions:
    return PartitionerOptions(max_candidate_sets=max_candidate_sets)


def job_problem_key(job: Job, library: DeviceLibrary | None = None) -> str:
    """The content-address of a job's problem, whatever its kind.

    ``partition`` jobs key on the partitioning problem alone
    (:func:`partition_problem_key`); ``replay`` jobs fold the trace and
    policy in on top (:func:`repro.replay.service.replay_job_key`), so
    the same scheme replayed under a different workload or policy is a
    distinct cache entry.
    """
    if job.kind in ("replay", "replay-batch"):
        from ..replay.service import replay_probe_keys

        return replay_probe_keys(job, library)[0]
    return partition_problem_key(job, library)


def partition_problem_key(job: Job, library: DeviceLibrary | None = None) -> str:
    """The content-address of a job's *partitioning* problem.

    Fixed-device jobs hash (design, budget, options, device name);
    auto-select jobs have no budget until a device is chosen, so they
    hash (design, options) plus the library's device ladder -- the
    selection protocol is deterministic given those.
    """
    return partition_problem_key_text(
        job.design_xml, job.device, job.max_candidate_sets, library
    )


def partition_problem_key_text(
    design_xml: str,
    device: str | None,
    max_candidate_sets: int | None,
    library: DeviceLibrary | None = None,
) -> str:
    """:func:`partition_problem_key` from raw spec fields (worker side)."""
    problem = resolve_problem_text(design_xml, device, library)
    return partition_problem_key_resolved(problem, max_candidate_sets)


def partition_problem_key_resolved(
    problem: ResolvedProblem, max_candidate_sets: int | None
) -> str:
    """:func:`partition_problem_key` from an already-resolved problem.

    Callers that need both the key and the resolved design (the replay
    key helpers) resolve once and key from the result, instead of
    paying a second XML parse inside :func:`partition_problem_key_text`.
    """
    options = _job_options(max_candidate_sets)
    if problem.device is not None:
        assert problem.capacity is not None
        return problem_key(
            problem.design,
            problem.capacity,
            options,
            extra={"device": problem.device.name},
        )
    return problem_key(
        problem.design,
        None,
        options,
        extra={"device": None, "library": list(problem.library.names)},
    )


def _compute(
    problem: ResolvedProblem,
    options: PartitionerOptions,
    tracer: Tracer = NULL_TRACER,
) -> tuple[PartitionResult, str]:
    """Run the partitioner for a resolved problem; returns (result, device)."""
    if problem.device is not None:
        assert problem.capacity is not None
        return partition(
            problem.design, problem.capacity, options, tracer=tracer
        ), problem.device.name
    selected = partition_with_device_selection(
        problem.design, problem.library, options, tracer=tracer
    )
    return selected.result, selected.device.name


class _Heartbeat:
    """Worker-side beat emitter: rewrite ``path`` every ``interval_s``.

    Runs on a daemon thread so it beats *while the search computes*,
    with no cooperation from the pipeline.  ``stop()`` silences it --
    which is also how an injected ``hang`` simulates a wedged worker.

    Each beat atomically replaces the file with a live
    :func:`~repro.obs.resources.sample_self` snapshot (cumulative CPU +
    RSS high-water mark) -- the supervisor still watches the file's
    mtime for staleness exactly as before, but can now also *read* the
    beat and stream worker resources mid-job.  A reader always sees a
    complete JSON document or the previous one, never a torn write.
    """

    def __init__(self, path: str | Path, interval_s: float):
        self.path = Path(path)
        self.interval_s = interval_s
        self._stopped = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _beat(self) -> None:
        doc: dict[str, Any] = {"ts": time.time()}
        sampled = sample_self()
        if sampled is not None:
            doc.update(sampled.to_dict())
        _write_json_atomic(self.path, doc)

    def start(self) -> "_Heartbeat":
        self._beat()
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stopped.wait(self.interval_s):
            try:
                self._beat()
            except OSError:
                return

    def stop(self) -> None:
        # Join: no late beat may recreate a file the parent retired.
        self._stopped.set()
        self._thread.join()


def execute_job_payload(payload: dict[str, Any]) -> dict[str, Any]:
    """Worker entry point: run one job, write the cache, report as data.

    Runs inside a pool worker (:func:`_worker_loop`) and must never let
    a job failure raise -- exceptions become ``ok=False`` payloads so
    one bad job cannot take down its worker.
    Interrupts (``KeyboardInterrupt``/``SystemExit``) still propagate:
    with ``workers=1`` this runs inline in the parent, and Ctrl-C must
    stop the batch, not count as a job failure.

    Optional payload slots: ``heartbeat_path``/``heartbeat_interval_s``
    start a :class:`_Heartbeat` for the duration of the job; ``fault``
    (a :meth:`FaultSpec.to_payload` dict) fires a deterministic
    injected fault before the compute; ``collect_trace`` runs the
    pipeline under a private :class:`~repro.obs.RecordingTracer` and
    ships its serialised trace back in the outcome (``"trace"``) so the
    parent can re-root it -- the worker half of cross-process telemetry.
    """
    started = time.perf_counter()
    started_resources = sample_self()
    heartbeat = None
    worker_tracer: RecordingTracer | None = None
    if payload.get("collect_trace"):
        worker_tracer = RecordingTracer()
    if payload.get("heartbeat_path"):
        heartbeat = _Heartbeat(
            payload["heartbeat_path"],
            payload.get("heartbeat_interval_s") or DEFAULT_HEARTBEAT_INTERVAL_S,
        ).start()
    try:
        if payload.get("fault"):
            inject(spec_from_payload(payload["fault"]), heartbeat=heartbeat)
        if payload.get("kind", "partition") == "replay":
            from ..replay.service import run_replay_payload

            outcome = run_replay_payload(
                payload, started=started, tracer=worker_tracer or NULL_TRACER
            )
        elif payload.get("kind") == "replay-batch":
            from ..replay.service import run_replay_batch_payload

            outcome = run_replay_batch_payload(
                payload, started=started, tracer=worker_tracer or NULL_TRACER
            )
        else:
            problem = resolve_problem_text(
                payload["design_xml"], payload["device"], payload.get("library")
            )
            options = _job_options(payload["max_candidate_sets"])
            result, device_name = _compute(
                problem, options, worker_tracer or NULL_TRACER
            )
            compute_s = time.perf_counter() - started
            ResultCache(payload["cache_root"]).put(
                payload["key"],
                result,
                device_name=device_name,
                compute_s=compute_s,
            )
            outcome = {
                "job_id": payload["job_id"],
                "ok": True,
                "key": payload["key"],
                "device": device_name,
                "total_frames": result.total_frames,
                "compute_s": compute_s,
            }
        if worker_tracer is not None:
            outcome["trace"] = worker_tracer.trace().to_dict()
        outcome["resources"] = job_resources(started_resources)
        return outcome
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException:
        outcome = {
            "job_id": payload["job_id"],
            "ok": False,
            "error": traceback.format_exc(),
            "compute_s": time.perf_counter() - started,
        }
        if worker_tracer is not None:
            # The spans up to the failure point still tell the story.
            outcome["trace"] = worker_tracer.trace().to_dict()
        outcome["resources"] = job_resources(started_resources)
        return outcome
    finally:
        if heartbeat is not None:
            heartbeat.stop()


def _write_json_atomic(path: Path, doc: dict[str, Any]) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.stem}-",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@dataclass
class BatchReport:
    """Aggregate outcome and throughput metrics of one ``run_batch``."""

    total: int
    done: int
    failed: int
    cache_hits: int
    computed: int
    retries: int
    timeouts: int
    workers: int
    duration_s: float
    busy_s: float
    failed_ids: tuple[str, ...] = ()
    results: dict[str, str] = field(default_factory=dict)  # job id -> key

    @property
    def jobs_per_s(self) -> float:
        """Jobs drained (done + failed) per wall second."""
        return self.total / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0

    @property
    def worker_utilisation(self) -> float:
        """Summed worker compute time over the pool's wall-time budget."""
        budget = self.duration_s * self.workers
        return min(1.0, self.busy_s / budget) if budget > 0 else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "total": self.total,
            "done": self.done,
            "failed": self.failed,
            "cache_hits": self.cache_hits,
            "computed": self.computed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "workers": self.workers,
            "duration_s": self.duration_s,
            "busy_s": self.busy_s,
            "jobs_per_s": self.jobs_per_s,
            "cache_hit_rate": self.cache_hit_rate,
            "worker_utilisation": self.worker_utilisation,
            "failed_ids": list(self.failed_ids),
        }


class _PoolTelemetry:
    """Occupancy gauges and resource records for one ``run_batch``.

    One instance per run, shared by both execution paths.  It
    deduplicates occupancy samples (the drain loop observes the same
    shape many times; only *changes* land in the sink) and keeps the
    tracer's ``service.pool_in_flight`` / ``service.pool_queue_depth``
    gauges current.  Everything here is best-effort display/report data -- a
    failure to read a heartbeat file never fails the batch.
    """

    def __init__(self, sink: TelemetrySink | None, tracer: Tracer):
        self.sink = sink
        self.tracer = tracer
        self._last: tuple[int, int] | None = None
        self.peak_in_flight = 0

    def occupancy(self, in_flight: int, queue_depth: int) -> None:
        """Record the pool shape; no-op unless it changed."""
        self.peak_in_flight = max(self.peak_in_flight, in_flight)
        shape = (in_flight, queue_depth)
        if shape == self._last:
            return
        self._last = shape
        self.tracer.gauge("service.pool_in_flight", float(in_flight))
        self.tracer.gauge("service.pool_queue_depth", float(queue_depth))
        if self.sink is not None:
            self.sink.append(
                "pool", in_flight=in_flight, queue_depth=queue_depth
            )

    def job(self, outcome: dict[str, Any]) -> None:
        """Record one job's resource delta (shipped in its outcome)."""
        resources = outcome.get("resources")
        if not resources:
            return
        self.tracer.observe(
            "service.job_cpu_s",
            (resources.get("cpu_user_s") or 0.0)
            + (resources.get("cpu_sys_s") or 0.0),
        )
        if self.sink is not None:
            self.sink.append(
                "resource", job=outcome["job_id"], live=False, **resources
            )

    def live(self, job_id: str, heartbeat_path: Path) -> None:
        """Record a live heartbeat sample from a supervised worker.

        Live CPU counters are cumulative (see
        :mod:`repro.obs.resources`); they are stored as-is and report
        folding takes CPU only from job (delta) samples.
        """
        if self.sink is None:
            return
        try:
            doc = json.loads(heartbeat_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return
        if not isinstance(doc, dict) or "pid" not in doc:
            return
        self.sink.append(
            "resource",
            job=job_id,
            live=True,
            pid=doc.get("pid"),
            rss_peak_mb=doc.get("rss_peak_mb"),
            cpu_user_s=doc.get("cpu_user_s"),
            cpu_sys_s=doc.get("cpu_sys_s"),
        )


def run_batch(
    store: JobStore,
    cache: ResultCache,
    workers: int = 1,
    library: DeviceLibrary | None = None,
    tracer: Tracer | None = None,
    job_timeout_s: float | None = None,
    heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
    heartbeat_timeout_s: float | None = None,
    faults: FaultPlan | None = None,
    sink: TelemetrySink | None = None,
    collect_worker_traces: bool | None = None,
    registry: "RunRegistry | None" = None,
    run_meta: dict[str, Any] | None = None,
) -> BatchReport:
    """Drain every pending job in ``store`` through ``cache`` + pool.

    ``job_timeout_s`` is the per-job wall deadline; ``heartbeat_timeout_s``
    the staleness threshold on worker beats (beats are emitted every
    ``heartbeat_interval_s``).  Setting either -- or injecting
    ``faults`` (the deterministic test-only plan from
    :mod:`repro.service.faults`, which may crash or wedge workers on
    purpose) -- engages *supervision*: heartbeat, deadline and
    staleness checks in the pool's drain loop, which then runs jobs on
    killable pool workers even with ``workers=1``.  Without
    supervision, ``workers=1`` runs jobs inline in the parent (nothing
    can preempt the caller's own thread).  Every other batch drains on
    one module-level pool of persistent worker processes that survives
    across batches, keeping per-worker scheme caches hot
    (``pool.warm_hits``); a worker that dies fails only its own job.

    ``sink`` persists the run's telemetry (progress events, one ``job``
    record per outcome keyed by job id + problem key, one end-of-run
    ``run`` record) to a :class:`~repro.obs.TelemetrySink` directory.
    ``collect_worker_traces`` makes each worker record its pipeline run
    on a private tracer and ship the spans back for re-rooting under
    this run's ``batch_run`` span; it defaults to on exactly when
    someone is looking (a recording ``tracer`` or a ``sink``).

    ``registry`` registers the run in a durable
    :class:`~repro.obs.registry.RunRegistry`: a ``start`` record before
    any job dispatches, a ``finish`` record (status + report summary)
    when the batch returns.  A crash between the two leaves the honest
    ``running`` entry.  ``run_meta`` rides along in the start record,
    and the run id stamps the end-of-run ``run`` sink record so
    telemetry joins cleanly against the registry.
    """
    if workers < 1:
        raise ServiceError("workers must be at least 1")
    if job_timeout_s is not None and job_timeout_s <= 0:
        raise ServiceError("job_timeout_s must be positive")
    if heartbeat_timeout_s is not None and heartbeat_timeout_s <= 0:
        raise ServiceError("heartbeat_timeout_s must be positive")
    # Supervision (heartbeats, deadlines, kill-and-requeue) engages only
    # when the caller asks for something that needs it: deadlines,
    # heartbeat staleness, or injected faults (which may crash/wedge
    # workers on purpose).
    supervised = (
        job_timeout_s is not None
        or heartbeat_timeout_s is not None
        or bool(faults)
    )
    if faults and faults.has_hang and not (
        job_timeout_s is not None or heartbeat_timeout_s is not None
    ):
        raise ServiceError(
            "a 'hang' fault needs a job_timeout_s or heartbeat_timeout_s "
            "to ever be detected -- refusing to deadlock the batch"
        )
    tracer = tracer or NULL_TRACER
    if collect_worker_traces is None:
        collect_worker_traces = tracer.enabled or sink is not None
    if sink is not None:
        sink.attach(tracer)
    started = time.perf_counter()
    hits = computed = failed = retries = timeouts = 0
    busy_s = 0.0
    failed_ids: list[Job] = []
    results: dict[str, str] = {}
    job_started_rel: dict[str, float] = {}
    initial = len(store.pending())
    pool_tele = _PoolTelemetry(sink, tracer)

    run_id: str | None = None
    if registry is not None:
        run_id = registry.start(
            kinds={job.kind for job in store.pending()},
            jobs=initial,
            workers=workers,
            config={
                "workers": workers,
                "supervised": supervised,
                "job_timeout_s": job_timeout_s,
                "heartbeat_interval_s": heartbeat_interval_s,
                "heartbeat_timeout_s": heartbeat_timeout_s,
                "collect_worker_traces": collect_worker_traces,
            },
            telemetry=sink.directory if sink is not None else None,
            meta=run_meta,
        )
    if sink is not None:
        sink.append(
            "pool", phase="start", pending=initial, workers=workers,
            in_flight=0, queue_depth=initial,
        )

    with tracer.span(
        "batch_run", workers=workers, pending=initial, supervised=supervised
    ):
        # Phase 1: serve every job already answered by the cache.  A job
        # whose spec cannot even be keyed (unparseable XML, unknown
        # device) fails terminally here -- the failure is deterministic
        # before any worker could run, so retrying it is pointless.
        # Replay jobs probe the replay record store (a sibling subtree
        # of the partition cache) instead of the cache itself -- in ONE
        # bulk ``probe_many`` over every member record key, so a fully
        # cached N-trace sweep costs O(shards + segments) reads, not N
        # file opens.  A replay/replay-batch job is a hit exactly when
        # every one of its member records is stored.
        keyed: list[tuple[Job, str, list[str] | None]] = []
        replay_members: list[str] = []
        for job in store.pending():
            try:
                if job.kind in ("replay", "replay-batch"):
                    from ..replay.service import replay_probe_keys

                    key, members = replay_probe_keys(job, library)
                else:
                    key, members = partition_problem_key(job, library), None
            except Exception:
                error = traceback.format_exc()
                while True:
                    store.mark_running(job.id)
                    job = store.mark_failed(job.id, error)
                    if job.state == "failed":
                        break
                failed += 1
                failed_ids.append(job)
                if tracer.enabled:
                    tracer.progress(
                        "batch.job_failed",
                        job=job.id,
                        key=None,
                        attempts=job.attempts,
                    )
                if sink is not None:
                    sink.append(
                        "job", job=job.id, key=None, status="failed",
                        attempts=job.attempts, timeout=False,
                    )
                continue
            keyed.append((job, key, members))
            if members is not None:
                replay_members.extend(members)

        present: set[str] = set()
        if replay_members:
            from ..replay.service import replay_store_for

            replay_store = replay_store_for(cache)
            probe_started = time.perf_counter()
            present = replay_store.probe_many(replay_members)
            tracer.observe(
                "service.cache_probe_s", time.perf_counter() - probe_started
            )

        misses: list[tuple[Job, str]] = []
        for job, key, members in keyed:
            if members is not None:
                hit = all(m in present for m in members)
            else:
                probe_started = time.perf_counter()
                hit = cache.probe(key)
                tracer.observe(
                    "service.cache_probe_s", time.perf_counter() - probe_started
                )
            if hit:
                store.mark_done(job.id, key, cache_hit=True)
                results[job.id] = key
                hits += 1
                if tracer.enabled:
                    tracer.progress("batch.job_cached", job=job.id, key=key)
                if sink is not None:
                    sink.append("job", job=job.id, key=key, status="cached")
            else:
                misses.append((job, key))
        tracer.count("service.cache_hits", hits)
        tracer.count("service.cache_misses", len(misses))

        # Phase 2: compute the misses, re-queueing failures until their
        # attempt caps.  The work heap preserves the store's (priority,
        # round-robin, FIFO) dispatch order -- ``seq`` rises
        # monotonically, so a retry rejoins *behind* queued work of its
        # own priority but still ahead of lower priorities.
        key_of = {job.id: key for job, key in misses}
        heap: list[tuple[int, int, Job, str]] = []
        seq = 0

        def push(job: Job, key: str) -> None:
            nonlocal seq
            heapq.heappush(heap, (-job.priority, seq, job, key))
            seq += 1

        for job, key in misses:
            push(job, key)

        def adopt(outcome: dict[str, Any], job_id: str, key: str) -> None:
            """Re-root a worker's shipped trace under the batch span."""
            if not outcome.get("trace"):
                return
            if isinstance(tracer, RecordingTracer):
                tracer.adopt_trace(
                    outcome["trace"],
                    name="job",
                    start_s=job_started_rel.get(job_id),
                    job=job_id,
                    key=key,
                )

        def handle(outcome: dict[str, Any]) -> None:
            nonlocal computed, failed, retries, timeouts, busy_s
            busy_s += outcome.get("compute_s") or 0.0
            job_id = outcome["job_id"]
            key = key_of[job_id]
            adopt(outcome, job_id, key)
            pool_tele.job(outcome)
            if outcome["ok"]:
                store.mark_done(
                    job_id,
                    outcome["key"],
                    cache_hit=False,
                    compute_s=outcome["compute_s"],
                )
                results[job_id] = outcome["key"]
                computed += 1
                if outcome.get("batch"):
                    tracer.count("replay.batch_jobs", 1)
                tracer.observe("service.job_wall_s", outcome["compute_s"])
                if tracer.enabled:
                    tracer.progress(
                        "batch.job_done",
                        job=job_id,
                        key=outcome["key"],
                        total_frames=outcome["total_frames"],
                        compute_s=outcome["compute_s"],
                    )
                if sink is not None:
                    extra: dict[str, Any] = {}
                    if outcome.get("replay") is not None:
                        extra["replay"] = outcome["replay"]
                    sink.append(
                        "job", job=job_id, key=outcome["key"], status="done",
                        compute_s=outcome["compute_s"],
                        total_frames=outcome["total_frames"],
                        **extra,
                    )
                return
            timed_out = bool(outcome.get("timeout"))
            if timed_out:
                timeouts += 1
            job = store.mark_failed(job_id, outcome["error"])
            if job.state == "failed":
                failed += 1
                failed_ids.append(job)
                status = "failed"
                if tracer.enabled:
                    tracer.progress(
                        "batch.job_failed",
                        job=job_id,
                        key=key,
                        attempts=job.attempts,
                    )
            else:
                retries += 1
                push(job, key)
                status = "retried"
                if tracer.enabled:
                    tracer.progress(
                        "batch.job_retried",
                        job=job_id,
                        key=key,
                        attempts=job.attempts,
                    )
            if sink is not None:
                sink.append(
                    "job", job=job_id, key=key, status=status,
                    attempts=job.attempts, timeout=timed_out,
                )

        def payload_for(job: Job, key: str) -> dict[str, Any]:
            claimed = store.mark_running(job.id)
            job_started_rel[job.id] = tracer.now()
            if tracer.enabled:
                tracer.progress("batch.job_started", job=job.id, key=key)
            payload: dict[str, Any] = {
                "job_id": job.id,
                "design_xml": job.design_xml,
                "device": job.device,
                "max_candidate_sets": job.max_candidate_sets,
                "kind": job.kind,
                "replay": job.replay,
                "cache_root": str(cache.root),
                "key": key,
                "library": library,
                "collect_trace": collect_worker_traces,
            }
            if faults:
                payload["fault"] = faults.payload_for(job.name, claimed.attempts)
            return payload

        if workers == 1 and not supervised:
            while heap:
                _prio, _seq, job, key = heapq.heappop(heap)
                pool_tele.occupancy(1, len(heap))
                handle(execute_job_payload(payload_for(job, key)))
        else:
            workdir = None
            if supervised:
                workdir = store.directory / WORK_DIRNAME
                workdir.mkdir(parents=True, exist_ok=True)
            _drain(
                heap=heap,
                workers=workers,
                payload_for=payload_for,
                handle=handle,
                pool_tele=pool_tele,
                tracer=tracer,
                workdir=workdir,
                job_timeout_s=job_timeout_s,
                heartbeat_interval_s=heartbeat_interval_s,
                heartbeat_timeout_s=heartbeat_timeout_s,
            )
        pool_tele.occupancy(0, 0)

        duration = time.perf_counter() - started
        tracer.count("service.jobs_done", hits + computed)
        tracer.count("service.jobs_failed", failed)
        tracer.count("service.job_retries", retries)
        tracer.count("service.timeouts", timeouts)
        # Same definition as BatchReport.jobs_per_s: jobs drained
        # (total == done + failed once the queue is empty) per second.
        tracer.gauge(
            "service.jobs_per_s", initial / duration if duration > 0 else 0.0
        )
        tracer.gauge(
            "service.cache_hit_rate",
            hits / initial if initial else 0.0,
        )

    report = BatchReport(
        total=initial,
        done=hits + computed,
        failed=failed,
        cache_hits=hits,
        computed=computed,
        retries=retries,
        timeouts=timeouts,
        workers=workers,
        duration_s=duration,
        busy_s=busy_s,
        failed_ids=tuple(j.id for j in failed_ids),
        results=results,
    )
    if sink is not None:
        record: dict[str, Any] = {"report": report.to_dict()}
        if run_id is not None:
            record["run_id"] = run_id
        if isinstance(tracer, RecordingTracer):
            trace = tracer.trace()
            record["counters"] = dict(trace.counters)
            record["gauges"] = dict(trace.gauges)
            record["histograms"] = {
                name: h.to_dict() for name, h in trace.histograms.items()
            }
        sink.append("run", **record)
    if registry is not None and run_id is not None:
        registry.finish(
            run_id,
            status="done" if failed == 0 else "failed",
            summary=report.to_dict(),
        )
    return report


def _kill(process: multiprocessing.process.BaseProcess) -> None:
    """Stop a worker: SIGTERM, then SIGKILL if it ignores that."""
    process.terminate()
    process.join(timeout=1.0)
    if process.is_alive():
        process.kill()
        process.join(timeout=5.0)


def _worker_loop(conn: Connection) -> None:
    """Pool worker entry: run each received payload, send back its outcome.

    SIGINT is ignored: Ctrl-C reaches the whole process group, and
    stopping a batch is the parent's call (its drain kills the busy
    workers), so idle workers stay warm for the next batch.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            payload = conn.recv()
        except EOFError:
            return
        conn.send(execute_job_payload(payload))


@dataclass
class _Worker:
    """One persistent pool process and the parent's end of its pipe."""

    process: multiprocessing.process.BaseProcess
    conn: Connection

    @classmethod
    def spawn(cls) -> "_Worker":
        # Default start method (fork on Linux): respawns skip re-imports.
        ctx = multiprocessing.get_context()
        conn, child = ctx.Pipe()
        process = ctx.Process(
            target=_worker_loop, args=(child,), daemon=True,
            name="repro-batch-worker",
        )
        process.start()
        child.close()
        return cls(process, conn)

    def stop(self) -> None:
        _kill(self.process)
        self.conn.close()


#: The batch worker pool.  It grows to the largest ``workers`` any
#: ``run_batch`` asked for; a slot is respawned only when its process
#: died or was killed, so every other worker -- and the replay
#: service's module-level scheme cache inside it (``pool.warm_hits``)
#: -- survives across jobs *and* ``run_batch`` calls.
_POOL: list[_Worker] = []


def _live_worker(slot: int) -> _Worker:
    """Pool worker ``slot``, (re)spawned if it is missing or dead."""
    while len(_POOL) <= slot:
        _POOL.append(_Worker.spawn())
    if not _POOL[slot].process.is_alive():
        _POOL[slot].stop()
        _POOL[slot] = _Worker.spawn()
    return _POOL[slot]


def _shutdown_pool() -> None:
    while _POOL:
        _POOL.pop().stop()


atexit.register(_shutdown_pool)


@dataclass
class _InFlight:
    """Parent-side view of one busy pool worker."""

    job_id: str
    key: str
    started_perf: float
    heartbeat_path: Path | None = None
    last_beat_wall: float = 0.0


def _drain(
    heap, workers, payload_for, handle, pool_tele, tracer,
    workdir, job_timeout_s, heartbeat_interval_s, heartbeat_timeout_s,
) -> None:
    """Drain ``heap`` on the first ``workers`` pool workers.

    Each idle worker takes the next job; the loop then waits on the
    busy workers' pipes and process sentinels, and refills every slot
    the moment its job ends, so the loop terminates whenever every job
    reaches a terminal state.  Each event goes through ``handle``:

    * an outcome on the pipe -- the worker finished (ok or not);
    * EOF or a dead sentinel -- the worker died without reporting;
      only its own job fails, and only that worker is respawned;
    * under supervision (``workdir`` holds the heartbeat files):
      ``job_timeout_s`` exceeded, or no heartbeat for
      ``heartbeat_timeout_s`` -- the worker is killed.

    The wait blocks when unsupervised; supervised, it wakes at least
    every ``heartbeat_interval_s`` and at the nearest deadline.
    Whatever escapes the loop (``KeyboardInterrupt`` included), the
    busy workers are killed and their heartbeat files retired.
    """
    busy: dict[int, _InFlight] = {}

    def retire(slot: int) -> _InFlight:
        flight = busy.pop(slot)
        if flight.heartbeat_path is not None:
            flight.heartbeat_path.unlink(missing_ok=True)
        return flight

    def supervise(slot: int, now_wall: float) -> None:
        """Observe one busy worker's heartbeat; kill it if overdue."""
        flight = busy[slot]
        assert flight.heartbeat_path is not None
        try:
            beat = flight.heartbeat_path.stat().st_mtime
        except OSError:
            beat = flight.last_beat_wall
        elapsed = time.perf_counter() - flight.started_perf
        if beat > flight.last_beat_wall:
            flight.last_beat_wall = beat
            if tracer.enabled:
                tracer.progress(
                    "batch.heartbeat",
                    job=flight.job_id,
                    key=flight.key,
                    elapsed_s=elapsed,
                )
            pool_tele.live(flight.job_id, flight.heartbeat_path)
        reason = None
        if job_timeout_s is not None and elapsed > job_timeout_s:
            reason = f"deadline {job_timeout_s:g}s exceeded"
        elif (
            heartbeat_timeout_s is not None
            and now_wall - flight.last_beat_wall > heartbeat_timeout_s
        ):
            reason = (
                f"no heartbeat for {now_wall - flight.last_beat_wall:.2f}s "
                f"(threshold {heartbeat_timeout_s:g}s)"
            )
        if reason is None:
            return
        _kill(_POOL[slot].process)
        retire(slot)
        if tracer.enabled:
            tracer.progress(
                "batch.job_timeout",
                job=flight.job_id,
                key=flight.key,
                reason=reason,
                elapsed_s=elapsed,
            )
        handle({
            "job_id": flight.job_id,
            "ok": False,
            "error": f"timeout after {elapsed:.2f}s: {reason}",
            "compute_s": elapsed,
            "timeout": True,
        })

    try:
        while heap or busy:
            for slot in range(workers):
                if not heap:
                    break
                if slot in busy:
                    continue
                _prio, _seq, job, key = heapq.heappop(heap)
                worker = _live_worker(slot)
                payload = payload_for(job, key)
                flight = _InFlight(job.id, key, time.perf_counter())
                if workdir is not None:
                    flight.heartbeat_path = workdir / f"{job.id}.heartbeat"
                    flight.heartbeat_path.unlink(missing_ok=True)
                    flight.last_beat_wall = time.time()
                    payload["heartbeat_path"] = str(flight.heartbeat_path)
                    payload["heartbeat_interval_s"] = heartbeat_interval_s
                busy[slot] = flight
                try:
                    worker.conn.send(payload)
                except OSError:
                    pass  # a dead worker is reported through its sentinel
            pool_tele.occupancy(len(busy), len(heap))

            timeout = None
            if workdir is not None:
                timeout = heartbeat_interval_s
                if job_timeout_s is not None:
                    oldest = min(f.started_perf for f in busy.values())
                    timeout = min(
                        timeout,
                        max(0.0, oldest + job_timeout_s - time.perf_counter()),
                    )
            handles = [
                h for slot in busy
                for h in (_POOL[slot].conn, _POOL[slot].process.sentinel)
            ]
            ready = set(wait(handles, timeout))
            now_wall = time.time()
            for slot in list(busy):
                worker = _POOL[slot]
                if worker.conn in ready or worker.process.sentinel in ready:
                    flight = retire(slot)
                    try:
                        outcome = worker.conn.recv() if worker.conn.poll() else None
                    except (EOFError, OSError):
                        outcome = None
                    if outcome is None:  # EOF or a dead sentinel: reap it
                        _kill(worker.process)
                        outcome = {
                            "job_id": flight.job_id,
                            "ok": False,
                            "error": "worker process died without reporting "
                            f"(exit code {worker.process.exitcode})",
                            "compute_s": time.perf_counter() - flight.started_perf,
                        }
                    handle(outcome)
                elif workdir is not None:
                    supervise(slot, now_wall)
    finally:
        # Never leak a busy worker, whatever interrupted the drain; the
        # killed slots respawn on their next dispatch.
        for slot in list(busy):
            _kill(_POOL[slot].process)
            retire(slot)
