"""Synthetic renderer inputs shared by the render tests and goldens.

Pure in-memory builders (fixed numbers, no clock, no filesystem) so the
dashboard golden file regenerates to identical bytes on any machine:
``REPRO_UPDATE_GOLDENS=1 pytest tests/render`` rewrites it.
"""

from __future__ import annotations

from repro.obs.metrics import Histogram
from repro.obs.report import RunReport


def sample_report() -> RunReport:
    """A populated RunReport exercising every dashboard section."""
    report = RunReport(directory="tests/render/sample-telemetry")
    report.runs = 2
    report.events = 11
    report.jobs_done = 6
    report.jobs_cached = 3
    report.jobs_failed = 1
    report.retries = 2
    report.timeouts = 1
    report.job_latencies_s = [0.11, 0.14, 0.18, 0.22, 0.35, 0.61]
    report.counters = {"batch.jobs.done": 6.0, "batch.cache.hits": 3.0}
    report.gauges = {"batch.queue.depth": 0.0}
    hist = Histogram()
    for value in (0.02, 0.04, 0.05, 0.11, 0.3, 0.9, 1.4):
        hist.observe(value)
    report.histograms = {"service.job_wall_s": hist}
    return report
