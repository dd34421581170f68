"""Deeper analysis of synthetic-sweep results.

The paper reports aggregate percentages; this module breaks the sweep
down along the axes the generator controls, answering the questions the
paper's conclusion raises ("may not tell the whole story"):

* per circuit class: where does the algorithm help most?
* by structure: does the win grow with mode count / configuration count?
* who wins the worst-case metric, and what does it cost in total time?
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
import numpy as np

from .experiments import SweepRecord, SweepResult
from .report import render_table
from .stats import improvement_profile


@dataclass(frozen=True)
class ClassBreakdown:
    """Improvement statistics for one circuit class."""

    circuit_class: str
    n: int
    total_vs_modular_mean: float
    total_vs_single_mean: float
    worst_vs_modular_mean: float
    escalated: int


def by_circuit_class(sweep: SweepResult) -> list[ClassBreakdown]:
    """Per-class improvement means (order: generator round-robin)."""
    groups: dict[str, list[SweepRecord]] = defaultdict(list)
    for record in sweep.records:
        groups[record.circuit_class].append(record)
    out = []
    for cls, records in groups.items():
        a = improvement_profile(
            "tm", [r.modular_total for r in records], [r.proposed_total for r in records]
        )
        b = improvement_profile(
            "ts", [r.single_total for r in records], [r.proposed_total for r in records]
        )
        c = improvement_profile(
            "wm", [r.modular_worst for r in records], [r.proposed_worst for r in records]
        )
        out.append(
            ClassBreakdown(
                circuit_class=cls,
                n=len(records),
                total_vs_modular_mean=a.mean,
                total_vs_single_mean=b.mean,
                worst_vs_modular_mean=c.mean,
                escalated=sum(1 for r in records if r.escalations > 0),
            )
        )
    out.sort(key=lambda b: b.circuit_class)
    return out


def render_class_breakdown(sweep: SweepResult) -> str:
    rows = [
        (
            b.circuit_class,
            b.n,
            f"{b.total_vs_modular_mean:.1f}%",
            f"{b.total_vs_single_mean:.1f}%",
            f"{b.worst_vs_modular_mean:.1f}%",
            b.escalated,
        )
        for b in by_circuit_class(sweep)
    ]
    return render_table(
        (
            "class",
            "n",
            "total vs modular",
            "total vs single",
            "worst vs modular",
            "escalated",
        ),
        rows,
        title="per-circuit-class mean improvement",
    )


def correlation_with_structure(sweep: SweepResult) -> dict[str, float]:
    """Pearson correlation of the total-vs-modular improvement with
    design-structure features.  Guides where the algorithm pays off."""
    records = [r for r in sweep.records if r.modular_total > 0]
    if len(records) < 3:
        return {}
    improvement = np.array(
        [
            100.0 * (r.modular_total - r.proposed_total) / r.modular_total
            for r in records
        ]
    )

    def corr(values) -> float:
        v = np.asarray(values, dtype=float)
        if v.std() == 0 or improvement.std() == 0:
            return 0.0
        return float(np.corrcoef(v, improvement)[0, 1])

    return {
        "modes": corr([r.modes for r in records]),
        "configurations": corr([r.configurations for r in records]),
        "device_index": corr([r.device_index for r in records]),
    }


def worst_case_trade(sweep: SweepResult) -> dict[str, float]:
    """How often optimising total time sacrifices the worst case.

    The paper's Fig. 8 discussion: the single-region scheme sometimes
    wins on worst case precisely because the proposed scheme optimises
    total time.  Quantify the exchange rate: among designs where the
    proposed scheme has a *worse* worst case than single-region, how
    much total time does it win in return?
    """
    sacrificed = [
        r
        for r in sweep.records
        if r.proposed_worst > r.single_worst and r.single_total > 0
    ]
    if not sacrificed:
        return {"designs": 0.0, "mean_total_gain_pct": 0.0, "mean_worst_loss_pct": 0.0}
    total_gain = float(
        np.mean(
            [
                100.0 * (r.single_total - r.proposed_total) / r.single_total
                for r in sacrificed
            ]
        )
    )
    worst_loss = float(
        np.mean(
            [
                100.0 * (r.proposed_worst - r.single_worst) / r.single_worst
                for r in sacrificed
                if r.single_worst > 0
            ]
        )
    )
    return {
        "designs": float(len(sacrificed)),
        "mean_total_gain_pct": total_gain,
        "mean_worst_loss_pct": worst_loss,
    }


def render_analysis(sweep: SweepResult) -> str:
    """Full analysis block (``repro-pr sweep --analysis`` prints this)."""
    parts = [render_class_breakdown(sweep)]
    corr = correlation_with_structure(sweep)
    if corr:
        parts.append(
            render_table(
                ("feature", "corr. with total-vs-modular improvement"),
                [(k, f"{v:+.2f}") for k, v in corr.items()],
                title="structure correlations",
            )
        )
    trade = worst_case_trade(sweep)
    parts.append(
        render_table(
            ("designs sacrificing worst case", "mean total gain", "mean worst loss"),
            [
                (
                    int(trade["designs"]),
                    f"{trade['mean_total_gain_pct']:.1f}%",
                    f"{trade['mean_worst_loss_pct']:.1f}%",
                )
            ],
            title="the Fig. 8 trade, quantified",
        )
    )
    return "\n\n".join(parts)
