"""Declarative SLO rules over a :class:`~repro.obs.report.RunReport`.

A committed TOML file states what a healthy run looks like::

    [[slo]]
    metric = "job_wall_s.p95"        # histogram percentile
    max = 30.0

    [[slo]]
    metric = "cache_hit_rate"        # report field
    min = 0.5

    [[slo]]
    metric = "worker_peak_rss_mb"    # resource telemetry
    max = 2048.0
    allow_missing = true             # platforms without getrusage

``repro obs check DIR --slo FILE`` aggregates the telemetry directory,
evaluates every rule against ``RunReport.to_dict()``, and exits 3 on
any breach -- the same exit-code convention as ``render --check``, so
CI wires it in as one blocking step.

Metric selectors resolve in this order:

1. **derived metrics** computed here (currently none beyond what the
   report already exposes -- the hook exists so selectors stay stable
   if report fields move);
2. a **dotted walk** of the report document, longest-prefix first, so
   ``counters.obs.events_dropped`` finds the literal key
   ``"obs.events_dropped"`` inside ``counters`` (dots inside key names
   never need quoting);
3. a **histogram percentile**: ``<name>.pNN`` looks up ``<name>`` in
   the report's histograms -- by exact name first, then by unique
   dot-suffix, so ``job_wall_s.p95`` matches ``service.job_wall_s``.

A selector that resolves to nothing is a **breach** (a guard that
silently stops measuring is worse than one that fires) unless the rule
says ``allow_missing = true``.

TOML parsing uses :mod:`tomllib` where available (Python >= 3.11) and
falls back to a small strict subset parser (``[[slo]]`` tables with
``key = number | bool | "string"`` pairs and comments) on 3.10 -- the
full grammar is deliberately not needed by SLO files.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from .metrics import Histogram

try:  # pragma: no cover - version-dependent import
    import tomllib as _tomllib
except ImportError:  # pragma: no cover - Python 3.10
    _tomllib = None


class SloError(ValueError):
    """Raised for unreadable SLO files or malformed rules."""


# ----------------------------------------------------------------------
# TOML loading (tomllib + a tested strict-subset fallback)
# ----------------------------------------------------------------------

_BARE_KEY = re.compile(r"^[A-Za-z0-9_-]+$")


def _parse_toml_subset(text: str, where: str) -> dict[str, Any]:
    """Parse the SLO subset of TOML: ``[[table]]`` + scalar pairs.

    Strict on what it accepts -- anything outside the subset raises
    :class:`SloError` rather than guessing, so a file that parses here
    parses identically under :mod:`tomllib`.
    """
    doc: dict[str, Any] = {}
    current: dict[str, Any] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[[") and line.endswith("]]"):
            name = line[2:-2].strip()
            if not _BARE_KEY.match(name):
                raise SloError(f"{where}:{lineno}: invalid table name {name!r}")
            current = {}
            doc.setdefault(name, []).append(current)
            continue
        if "=" not in line:
            raise SloError(f"{where}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not _BARE_KEY.match(key):
            raise SloError(f"{where}:{lineno}: invalid key {key!r}")
        if current is None:
            raise SloError(
                f"{where}:{lineno}: top-level keys are not supported -- "
                "put rules under [[slo]] tables"
            )
        if value.startswith('"') and value.endswith('"') and len(value) >= 2:
            try:
                current[key] = json.loads(value)
            except json.JSONDecodeError as exc:
                raise SloError(f"{where}:{lineno}: bad string: {exc}") from exc
        elif value in ("true", "false"):
            current[key] = value == "true"
        else:
            try:
                current[key] = int(value)
            except ValueError:
                try:
                    current[key] = float(value)
                except ValueError as exc:
                    raise SloError(
                        f"{where}:{lineno}: unsupported value {value!r} "
                        "(subset parser: number, bool, or quoted string)"
                    ) from exc
    return doc


def _load_toml(path: Path) -> dict[str, Any]:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SloError(f"cannot read {path}: {exc}") from exc
    if _tomllib is not None:
        try:
            return _tomllib.loads(text)
        except _tomllib.TOMLDecodeError as exc:
            raise SloError(f"{path}: {exc}") from exc
    return _parse_toml_subset(text, str(path))


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SloRule:
    """One threshold: ``min <= metric <= max`` (either bound optional)."""

    metric: str
    min: float | None = None
    max: float | None = None
    allow_missing: bool = False

    def __post_init__(self) -> None:
        if not self.metric:
            raise SloError("SLO rule needs a metric selector")
        if self.min is None and self.max is None:
            raise SloError(
                f"SLO rule for {self.metric!r} needs a min or a max"
            )


def load_slo(path: str | Path) -> list[SloRule]:
    """Parse a TOML SLO file into rules, validating as it goes."""
    path = Path(path)
    doc = _load_toml(path)
    tables = doc.get("slo")
    if not isinstance(tables, list) or not tables:
        raise SloError(f"{path}: no [[slo]] rules")
    rules: list[SloRule] = []
    for i, table in enumerate(tables, start=1):
        if not isinstance(table, Mapping):
            raise SloError(f"{path}: [[slo]] #{i} is not a table")
        unknown = set(table) - {"metric", "min", "max", "allow_missing"}
        if unknown:
            raise SloError(
                f"{path}: [[slo]] #{i} has unknown keys: {sorted(unknown)}"
            )
        metric = table.get("metric")
        if not isinstance(metric, str):
            raise SloError(f"{path}: [[slo]] #{i} needs a string 'metric'")
        bounds: dict[str, float | None] = {}
        for bound in ("min", "max"):
            value = table.get(bound)
            if value is not None and not isinstance(value, (int, float)):
                raise SloError(
                    f"{path}: [[slo]] #{i} {bound} must be a number"
                )
            bounds[bound] = None if value is None else float(value)
        allow_missing = table.get("allow_missing", False)
        if not isinstance(allow_missing, bool):
            raise SloError(
                f"{path}: [[slo]] #{i} allow_missing must be a bool"
            )
        rules.append(
            SloRule(
                metric=metric,
                min=bounds["min"],
                max=bounds["max"],
                allow_missing=allow_missing,
            )
        )
    return rules


# ----------------------------------------------------------------------
# Metric resolution
# ----------------------------------------------------------------------

_PERCENTILE = re.compile(r"^(?P<name>.+)\.p(?P<pct>\d{1,2}(?:\.\d+)?)$")


def _walk(doc: Mapping[str, Any], selector: str) -> tuple[bool, Any]:
    """Dotted lookup, longest literal prefix first.

    Trying the longest joined prefix before splitting means keys that
    themselves contain dots (``counters["obs.events_dropped"]``) win
    over any accidental nesting, and plain paths resolve as expected.
    """
    parts = selector.split(".")
    for take in range(len(parts), 0, -1):
        head = ".".join(parts[:take])
        if head not in doc:
            continue
        value = doc[head]
        rest = parts[take:]
        if not rest:
            return True, value
        if isinstance(value, Mapping):
            found, inner = _walk(value, ".".join(rest))
            if found:
                return True, inner
    return False, None


def _histogram_percentile(
    doc: Mapping[str, Any], name: str, pct: float
) -> tuple[bool, float | None]:
    """``<name>.pNN`` against the report's histogram map.

    Exact name first, then unique dot-suffix match -- ``job_wall_s``
    finds ``service.job_wall_s`` as long as no other histogram ends the
    same way (ambiguity is an error, not a guess).
    """
    histograms = doc.get("histograms")
    if not isinstance(histograms, Mapping):
        return False, None
    candidates = []
    if name in histograms:
        candidates = [name]
    else:
        candidates = [
            full for full in histograms if str(full).endswith(f".{name}")
        ]
        if len(candidates) > 1:
            raise SloError(
                f"ambiguous histogram selector {name!r}: "
                f"matches {sorted(candidates)}"
            )
    if not candidates:
        return False, None
    hist_doc = histograms[candidates[0]]
    if not isinstance(hist_doc, Mapping):
        return False, None
    return True, Histogram.from_dict(hist_doc).percentile(pct)


def resolve_metric(doc: Mapping[str, Any], selector: str) -> float | None:
    """The numeric value of ``selector`` in a report document.

    Returns ``None`` when the selector does not resolve or resolves to
    a missing measurement (e.g. ``worker_peak_rss_mb`` with no resource
    samples, a percentile of an empty histogram).
    """
    found, value = _walk(doc, selector)
    if not found:
        match = _PERCENTILE.match(selector)
        if match:
            found, value = _histogram_percentile(
                doc, match.group("name"), float(match.group("pct"))
            )
    if not found or value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SloError(
            f"metric {selector!r} is not numeric: {value!r}"
        )
    return float(value)


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SloVerdict:
    """One rule evaluated against one report."""

    rule: SloRule
    value: float | None
    ok: bool
    reason: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "metric": self.rule.metric,
            "min": self.rule.min,
            "max": self.rule.max,
            "value": self.value,
            "ok": self.ok,
            "reason": self.reason,
        }


@dataclass
class SloResult:
    """Every rule's verdict; breached when any verdict failed."""

    verdicts: list[SloVerdict] = field(default_factory=list)

    @property
    def breaches(self) -> list[SloVerdict]:
        return [v for v in self.verdicts if not v.ok]

    @property
    def ok(self) -> bool:
        return not self.breaches

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "rules": len(self.verdicts),
            "breaches": len(self.breaches),
            "verdicts": [v.to_dict() for v in self.verdicts],
        }


def evaluate_slo(
    doc: Mapping[str, Any], rules: list[SloRule]
) -> SloResult:
    """Check every rule against a ``RunReport.to_dict()`` document."""
    result = SloResult()
    for rule in rules:
        value = resolve_metric(doc, rule.metric)
        if value is None:
            if rule.allow_missing:
                result.verdicts.append(
                    SloVerdict(rule, None, True, "missing (allowed)")
                )
            else:
                result.verdicts.append(
                    SloVerdict(
                        rule, None, False,
                        "metric missing (set allow_missing to tolerate)",
                    )
                )
            continue
        if rule.min is not None and value < rule.min:
            result.verdicts.append(
                SloVerdict(
                    rule, value, False,
                    f"{value:g} < min {rule.min:g}",
                )
            )
        elif rule.max is not None and value > rule.max:
            result.verdicts.append(
                SloVerdict(
                    rule, value, False,
                    f"{value:g} > max {rule.max:g}",
                )
            )
        else:
            result.verdicts.append(SloVerdict(rule, value, True, "ok"))
    return result


def render_slo_result(result: SloResult) -> str:
    """Human-readable verdict table plus a one-line summary."""
    lines = []
    width = max((len(v.rule.metric) for v in result.verdicts), default=0)
    for v in result.verdicts:
        bounds = []
        if v.rule.min is not None:
            bounds.append(f">= {v.rule.min:g}")
        if v.rule.max is not None:
            bounds.append(f"<= {v.rule.max:g}")
        shown = "-" if v.value is None else f"{v.value:g}"
        status = "ok" if v.ok else "BREACH"
        lines.append(
            f"  {v.rule.metric.ljust(width)} : {shown} "
            f"({' and '.join(bounds)})  {status}"
            + ("" if v.reason in ("ok",) else f" -- {v.reason}")
        )
    verdict = (
        f"{len(result.breaches)} breach(es) of {len(result.verdicts)} rule(s)"
    )
    return "\n".join(["slo:", *lines, verdict])
