"""Output checks: every benchmark result is verified, a mismatch fails the run.

Sweeps: each ``partition_with_device_selection`` outcome must equal the
committed reference-engine outcome and pass the scheme invariants.
Fleet replay: a seeded sample of stored records must be byte-equal to
the reference replay loop, and the resubmission must serve every cell
the cold phase completed.
"""

from __future__ import annotations

import json
import random

from repro.core.baselines import single_region_scheme
from repro.core.cost import (
    total_reconfiguration_frames,
    weighted_total_frames,
    worst_case_frames,
)


class CheckError(AssertionError):
    """A benchmark output disagrees with its oracle."""


def outcome_row(index: int, design, dres) -> dict:
    """The comparable outcome of one device-selected partition."""
    result = dres.result
    return {
        "index": index,
        "design": design.name,
        "device": dres.device.name,
        "escalations": dres.escalations,
        "regions": [sorted(region.labels) for region in result.scheme.regions],
        "total_frames": result.total_frames,
        "worst_frames": result.worst_frames,
        "objective": result.objective,
    }


def check_design(design, dres, expected: dict, probabilities=None) -> None:
    """Compare one outcome with its reference row and check invariants."""
    row = outcome_row(expected["index"], design, dres)
    for field in ("device", "escalations", "regions", "total_frames",
                  "worst_frames", "objective"):
        if row[field] != expected[field]:
            raise CheckError(
                f"{design.name}: {field} {row[field]!r} != "
                f"reference {expected[field]!r}"
            )
    scheme = dres.result.scheme
    covered = set()
    for region in scheme.regions:
        covered |= region.mode_names
    for config in design.configurations:
        if not config.modes <= covered:
            raise CheckError(f"{design.name}: {config.name} not covered")
    if not scheme.fits(dres.device.usable_capacity(design.static_resources)):
        raise CheckError(f"{design.name}: scheme does not fit {dres.device.name}")
    if total_reconfiguration_frames(scheme) != dres.result.total_frames:
        raise CheckError(f"{design.name}: total_frames disagrees with cost")
    if worst_case_frames(scheme) != dres.result.worst_frames:
        raise CheckError(f"{design.name}: worst_frames disagrees with cost")
    single = single_region_scheme(design)
    if probabilities is None:
        objective = float(total_reconfiguration_frames(scheme))
        single_objective = float(total_reconfiguration_frames(single))
    else:
        objective = weighted_total_frames(scheme, probabilities)
        single_objective = weighted_total_frames(single, probabilities)
    # The search sums the weighted objective in its own order, so the
    # recomputation agrees to rounding, not bit for bit.
    if abs(objective - dres.result.objective) > 1e-9 * max(1.0, abs(objective)):
        raise CheckError(f"{design.name}: objective disagrees with cost")
    if objective > single_objective:
        raise CheckError(f"{design.name}: worse than the single-region scheme")


def canonical(record: dict) -> bytes:
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


def sample_keys(keys, count: int, seed: int) -> list[str]:
    """A seeded sample of stored record keys to re-derive."""
    keys = sorted(keys)
    return random.Random(seed).sample(keys, min(count, len(keys)))
