"""ASCII rendering shared by examples and the CLI.

Everything the paper presents is a table or an x/y series; these helpers
render both without any plotting dependency, so regenerated output can be
eyeballed against the paper directly in a terminal or a log file.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..obs.render import render_table  # noqa: F401  (re-exported)


def render_series(
    series: Mapping[str, Sequence[float]],
    x_label: str = "design",
    y_label: str = "value",
    width: int = 72,
    height: int = 16,
    title: str | None = None,
) -> str:
    """A coarse ASCII scatter of several named series over a shared x.

    Each series gets a marker character; points are bucketed into a
    width x height character grid (log-free, linear axes).  Good enough
    to compare the *shape* of Fig. 7/8 against the paper.
    """
    if not series:
        return "(empty series)"
    markers = "*o+x#@%&"
    n = max(len(v) for v in series.values())
    y_max = max((max(v) for v in series.values() if len(v)), default=1.0)
    y_max = max(y_max, 1e-12)
    grid = [[" "] * width for _ in range(height)]
    for k, (name, values) in enumerate(series.items()):
        marker = markers[k % len(markers)]
        for i, y in enumerate(values):
            cx = min(width - 1, int(i * (width - 1) / max(1, n - 1)))
            cy = min(height - 1, int((1 - y / y_max) * (height - 1)))
            grid[cy][cx] = marker
    lines = []
    if title:
        lines.append(title)
    lines.append(f"y: {y_label} (max {y_max:g})")
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    lines.append(f"x: {x_label} (n={n})")
    legend = "  ".join(
        f"{markers[k % len(markers)]}={name}" for k, name in enumerate(series)
    )
    lines.append("legend: " + legend)
    return "\n".join(lines)


def render_histogram(
    bin_edges: Sequence[float],
    counts: Sequence[int],
    title: str | None = None,
    width: int = 50,
) -> str:
    """A horizontal bar chart (Fig. 9 style)."""
    if len(counts) != len(bin_edges) - 1:
        raise ValueError("counts must have one entry per bin")
    peak = max(counts) if counts else 1
    peak = max(peak, 1)
    lines = []
    if title:
        lines.append(title)
    for i, count in enumerate(counts):
        lo, hi = bin_edges[i], bin_edges[i + 1]
        bar = "#" * int(round(count * width / peak))
        lines.append(f"[{lo:>6.0f}, {hi:>6.0f})  {count:>5}  {bar}")
    return "\n".join(lines)


def format_percent(value: float, digits: int = 1) -> str:
    return f"{value:.{digits}f}%"


def kv_block(pairs: Mapping[str, object], title: str | None = None) -> str:
    """Aligned key/value listing for summary statistics."""
    width = max((len(k) for k in pairs), default=0)
    lines = [title] if title else []
    lines.extend(f"{k.ljust(width)} : {v}" for k, v in pairs.items())
    return "\n".join(lines)


def render_batch_report(report: object, title: str | None = None) -> str:
    """Throughput summary of a batch run (``repro-pr batch run`` output).

    Accepts a :class:`repro.service.BatchReport` or its ``to_dict()``
    form, so saved reports render through the same entry point.
    """
    doc = report.to_dict() if hasattr(report, "to_dict") else dict(report)  # type: ignore[call-overload]
    pairs: dict[str, object] = {
        "jobs": doc.get("total", 0),
        "done": doc.get("done", 0),
        "failed": doc.get("failed", 0),
        "timeouts": doc.get("timeouts", 0),
        "cache hits": doc.get("cache_hits", 0),
        "cache hit rate": format_percent(100.0 * doc.get("cache_hit_rate", 0.0)),
        "workers": doc.get("workers", 1),
        "wall time": f"{doc.get('duration_s', 0.0):.2f} s",
        "throughput": f"{doc.get('jobs_per_s', 0.0):.2f} jobs/s",
        "worker utilisation": format_percent(
            100.0 * doc.get("worker_utilisation", 0.0)
        ),
    }
    return kv_block(pairs, title=title or "Batch report")


def render_trace_summary(trace: object, title: str | None = None) -> str:
    """Per-stage summary of a recorded pipeline trace.

    Accepts a :class:`repro.obs.Trace`, a :class:`repro.obs.RecordingTracer`,
    a trace dict, or JSON text (the ``--trace-json`` file format), so
    live tracers and saved traces render through one entry point.
    """
    from ..obs import RecordingTracer, Trace, trace_from_dict, trace_from_json
    from ..obs.render import render_trace_summary as _render

    if isinstance(trace, str):
        trace = trace_from_json(trace)
    elif isinstance(trace, Mapping):
        trace = trace_from_dict(trace)
    elif isinstance(trace, RecordingTracer):
        trace = trace.trace()
    if not isinstance(trace, Trace):
        raise TypeError(f"cannot render a trace from {type(trace).__name__}")
    body = _render(trace)
    return f"{title}\n{body}" if title else body
