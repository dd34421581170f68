"""Human-readable stage summaries of recorded traces.

Dependency-free: this package sits below :mod:`repro.eval`, so the
boxed-table formatter lives here and :mod:`repro.eval.report`
re-exports it next to the paper-table renderers.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .tracer import RecordingTracer, Trace


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """A boxed, column-aligned ASCII table."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"

    rule = "+-" + "-+-".join("-" * w for w in widths) + "-+"
    out = []
    if title:
        out.append(title)
    out.extend([rule, line(list(headers)), rule])
    for row in str_rows:
        out.append(line(row))
    out.append(rule)
    return "\n".join(out)


def _fmt_metric(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:g}"
    return str(int(value))


def _fmt_quantile(value: float | None) -> str:
    return "-" if value is None else f"{value:.4g}"


def stage_summary_rows(
    trace: Trace,
) -> list[tuple[str, int, float, float]]:
    """Aggregate spans by path: (indented stage, calls, seconds, percent).

    Repeated spans at the same path (one ``merge_search`` per candidate
    set) collapse into a single row with a call count; rows appear in
    first-occurrence order, indented by nesting depth.
    """
    order: list[tuple[str, ...]] = []
    calls: dict[tuple[str, ...], int] = {}
    seconds: dict[tuple[str, ...], float] = {}
    for path, span in trace.walk():
        if path not in calls:
            order.append(path)
            calls[path] = 0
            seconds[path] = 0.0
        calls[path] += 1
        seconds[path] += span.duration_s or 0.0
    total = trace.total_duration_s or 1e-12
    return [
        (
            "  " * (len(path) - 1) + path[-1],
            calls[path],
            seconds[path],
            100.0 * seconds[path] / total,
        )
        for path in order
    ]


def render_trace_summary(trace: Trace | RecordingTracer) -> str:
    """The per-stage summary table plus counter/gauge listings."""
    if isinstance(trace, RecordingTracer):
        trace = trace.trace()
    rows = [
        (stage, calls, f"{secs:.4f}", f"{pct:5.1f}")
        for stage, calls, secs, pct in stage_summary_rows(trace)
    ]
    blocks = [
        render_table(("stage", "calls", "time (s)", "% of total"), rows)
        if rows
        else "(no spans recorded)"
    ]
    if trace.counters:
        width = max(len(k) for k in trace.counters)
        blocks.append(
            "counters:\n"
            + "\n".join(
                f"  {k.ljust(width)} : {_fmt_metric(v)}"
                for k, v in sorted(trace.counters.items())
            )
        )
    if trace.gauges:
        width = max(len(k) for k in trace.gauges)
        blocks.append(
            "gauges:\n"
            + "\n".join(
                f"  {k.ljust(width)} : {_fmt_metric(v)}"
                for k, v in sorted(trace.gauges.items())
            )
        )
    if trace.histograms:
        rows = [
            (
                name,
                h.count,
                _fmt_quantile(h.percentile(50)),
                _fmt_quantile(h.percentile(90)),
                _fmt_quantile(h.percentile(99)),
                _fmt_quantile(h.maximum),
            )
            for name, h in sorted(trace.histograms.items())
        ]
        blocks.append(
            "histograms:\n"
            + render_table(
                ("histogram", "count", "p50", "p90", "p99", "max"), rows
            )
        )
    if trace.events:
        blocks.append(f"progress events: {trace.events}")
    return "\n".join(blocks)
