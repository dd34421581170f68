"""Repository benchmark: paper-sweep, profiled-sweep and fleet-replay.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 35 --trace 0

Every repetition runs in a fresh interpreter (``rep.py``) with fresh
cache and queue directories, because the program keeps warm state
(scheme LRUs, persistent worker pools) for the life of a process.  All
workloads are closed loops with one client.

``--trace 0`` prints the end-to-end metrics.  Every workload reports
the same keys: ``throughput_per_s`` is designs per second on the sweeps
and done cells per second of the cold phase (submit to ``run_batch``
return) on fleet-replay; ``item_p50_s``/``item_p90_s`` are per-design
or per-job seconds; ``peak_rss_mb`` is the median over repetitions of
the process's peak plus its pool workers'.  The stdout lines also give
these under their workload names (``designs_per_s``, ``cells_per_s``,
...), with ``cached_cells_per_s`` and ``failed_frac``.

``--trace 1`` prints the per-layer split of a traced repetition next to
an untraced one of the same inputs (half the sweep sample, so the pair
takes about ``--seconds``).  Human-readable lines come first; the last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  The full result, stamped with host facts and
provenance, is written to ``perfbench/_out/``.  Exit codes: 0 ok,
2 a repetition crashed (no result printed), 3 an output check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("paper-sweep", "profiled-sweep", "fleet-replay")
#: Sweep sample size per measured second: the stratified pool sample
#: (one design per stratum) takes about ``--seconds`` on a 2-core host.
STRATA_PER_SECOND = 80 / 35
#: Sweep repetitions per run: the sample is split over this many fresh
#: interpreters, so set-up is measured several times.
SWEEP_PARTS = 5
#: Fleet repetitions: as many as fit in ``--seconds``, at least this many.
FLEET_MIN_REPS = 3
REP_TIMEOUT_S = 150


class RepError(RuntimeError):
    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().split(")")[-1].split()[0]
    except OSError:
        return False
    return state != "Z"


def run_rep(spec: dict, work: Path) -> dict:
    """Run one repetition in a fresh interpreter; stop all it started."""
    spec = dict(spec, work=str(work), out=str(work / "result.json"))
    work.mkdir(parents=True)
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), str(spec_path)],
        cwd=ROOT, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        _out, err = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepError("repetition timed out", 2)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise RepError(f"repetition exited {proc.returncode}",
                       3 if proc.returncode == 3 else 2)
    result = json.loads(Path(spec["out"]).read_text())
    # Pool workers outlive their parent only until the kill above lands.
    deadline = time.monotonic() + 10
    while any(_alive(p) for p in result["worker_pids"]):
        if time.monotonic() > deadline:
            raise RepError("worker processes did not stop", 2)
        time.sleep(0.05)
    shutil.rmtree(work)
    return result


def hd_quantile(samples: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A Beta-weighted mean of every order statistic instead of a single
    one: per-design times have gaps between neighbours in the tail, so
    the plain sample quantile jumps by a gap whenever host noise
    reorders two designs, while this estimate moves smoothly.
    """
    ordered = sorted(samples)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    # Beta(a, b) CDF at i/n by midpoint integration of its log density.
    steps = 200 * n
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    cdf = [0.0]
    acc = 0.0
    for k in range(steps):
        x = (k + 0.5) / steps
        acc += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)) / steps
        if (k + 1) % 200 == 0:
            cdf.append(acc)
    total = cdf[-1]
    return sum((cdf[i + 1] - cdf[i]) / total * v for i, v in enumerate(ordered))


def percentile_summary(samples: list[float]) -> dict:
    """Median and p90 of ``samples``, with the sample counts behind them."""
    n = len(samples)
    p90 = hd_quantile(samples, 0.9)
    return {
        "p50": hd_quantile(samples, 0.5),
        "p90": p90,
        "n": n,
        "beyond_p90": sum(1 for s in samples if s > p90),
    }


def host_facts() -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_sha": sha,
    }


def measure(args, work: Path) -> tuple[dict, list[dict]]:
    """Untraced repetitions -> end-to-end metrics."""
    base = {"workload": args.workload, "seed": args.seed, "traced": False}
    reps = []
    if args.workload == "fleet-replay":
        started = time.perf_counter()
        while len(reps) < FLEET_MIN_REPS or time.perf_counter() - started < args.seconds:
            reps.append(run_rep(base, work / f"rep{len(reps)}"))
        throughput = statistics.median(r["cells_per_s"] for r in reps)
    else:
        strata = max(SWEEP_PARTS, round(args.seconds * STRATA_PER_SECOND))
        for part in range(SWEEP_PARTS):
            spec = dict(base, strata=strata, part=part, parts=SWEEP_PARTS)
            reps.append(run_rep(spec, work / f"rep{part}"))
        items = [s for r in reps for s in r["items_s"]]
        throughput = len(items) / sum(items)
    items = percentile_summary([s for r in reps for s in r["items_s"]])
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
        "throughput_per_s": (throughput, "1/s"),
        "item_p50_s": (items["p50"], "s"),
        "item_p90_s": (items["p90"], "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }
    stats = {"reps": len(reps), "items": items,
             "items_s": [s for r in reps for s in r["items_s"]],
             "setups_s": [r["setup_s"] for r in reps],
             "peaks_mb": [r["peak_rss_mb"] for r in reps]}
    if args.workload == "fleet-replay":
        stats["cached_cells_per_s"] = statistics.median(
            r["cached_cells_per_s"] for r in reps
        )
    return {"metrics": metrics, "stats": stats}, reps


def traced(args, work: Path) -> tuple[dict, list[dict]]:
    """One untraced and one traced repetition of the same inputs."""
    base = {"workload": args.workload, "seed": args.seed}
    if args.workload != "fleet-replay":
        strata = max(2, round(args.seconds * STRATA_PER_SECOND / 2))
        base.update(strata=strata, part=0, parts=1)
    plain = run_rep(dict(base, traced=False), work / "plain")
    rich = run_rep(dict(base, traced=True), work / "traced")
    found = dict.fromkeys(layers.PER_LAYER, 0.0)
    found.update(rich["layers"])
    if args.workload == "fleet-replay":
        found["service.cached_cells_per_s"] = plain["cached_cells_per_s"]
        overhead = plain["cells_per_s"] / rich["cells_per_s"] - 1
    else:
        overhead = sum(rich["items_s"]) / sum(plain["items_s"]) - 1
    found["obs.trace_overhead_frac"] = overhead
    found["bench.failed_frac"] = plain["failed"] / plain["attempted"]
    metrics = {k: (found[k], unit) for k, unit in layers.PER_LAYER.items()}
    return {"metrics": metrics, "stats": {"reps": 2}}, [plain, rich]


#: The issue's workload-specific names for the generic end-to-end keys.
ALIASES = {
    "paper-sweep": {"throughput_per_s": "designs_per_s",
                    "item_p50_s": "design_p50_s", "item_p90_s": "design_p90_s"},
    "fleet-replay": {"throughput_per_s": "cells_per_s",
                     "item_p50_s": "job_p50_s", "item_p90_s": "job_p90_s"},
}
ALIASES["profiled-sweep"] = ALIASES["paper-sweep"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: the program source (src/repro) is missing", file=sys.stderr)
        return 2

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    started = time.time()
    try:
        summary, reps = (traced if args.trace else measure)(args, work)
    except RepError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        if exc.code == 3:
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                              "metrics": {}}))
        return exc.code
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    failures: dict[str, int] = {}
    for r in reps:
        for reason, n in r["failures"].items():
            failures[reason] = failures.get(reason, 0) + n
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": reps[0]["params"],
        "started": started,
        "host": host_facts(),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        **summary["stats"],
        "spans": [r["spans"] for r in reps],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in summary["metrics"].items()},
    }
    out = HERE / "_out"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n")

    aliases = ALIASES[args.workload]
    for key, (value, unit) in summary["metrics"].items():
        label = f"{key} ({aliases[key]})" if key in aliases else key
        print(f"{args.workload:15s} {label:45s} {value:14.6g} {unit}")
    if "cached_cells_per_s" in summary["stats"]:
        print(f"{args.workload:15s} {'cached_cells_per_s':45s} "
              f"{summary['stats']['cached_cells_per_s']:14.6g} 1/s")
    print(f"{args.workload:15s} {'failed_frac':45s} {failed / attempted:14.6g} "
          f"ratio {failures or ''}")
    if "items" in summary["stats"]:
        items = summary["stats"]["items"]
        print(f"{args.workload:15s} percentiles over n={items['n']} samples, "
              f"{items['beyond_p90']} beyond p90")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
