"""Regenerate the sweeps' committed expected outputs with the reference engine.

Usage (from the repository root; takes several minutes per workload)::

    python3 perfbench/make_expected.py paper-sweep
    python3 perfbench/make_expected.py profiled-sweep

Each row holds the device-selected outcome of one pool design under
``AllocationOptions(engine="reference")`` plus ``work``, the wall
seconds the default engine took on it, which orders the pool into
strata.  Only the order matters, and it is fixed once committed, so the
sample a seed draws never depends on the code under test.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.arch.library import virtex5_ladder  # noqa: E402
from repro.core.allocation import AllocationOptions  # noqa: E402
from repro.core.partitioner import (  # noqa: E402
    PartitionerOptions,
    partition_with_device_selection,
)

import inputs  # noqa: E402
from checks import outcome_row  # noqa: E402


def main(workload: str) -> None:
    if workload not in ("paper-sweep", "profiled-sweep"):
        raise SystemExit(f"unknown sweep workload {workload!r}")
    library = virtex5_ladder()
    rows = []
    for index, design in enumerate(inputs.pool_designs()):
        probabilities = (
            inputs.pair_probabilities(design, index)
            if workload == "profiled-sweep" else None
        )
        started = time.perf_counter()
        partition_with_device_selection(
            design, library, PartitionerOptions(pair_probabilities=probabilities)
        )
        work = time.perf_counter() - started
        options = PartitionerOptions(
            allocation=AllocationOptions(engine="reference"),
            pair_probabilities=probabilities,
        )
        dres = partition_with_device_selection(design, library, options)
        row = outcome_row(index, design, dres)
        row["work"] = round(work, 4)
        rows.append(row)
        print(index, design.name, row["device"], row["work"], flush=True)
    doc = {
        "workload": workload,
        "engine": "reference",
        "pool_seed": inputs.POOL_SEED,
        "pool_size": inputs.POOL_SIZE,
        "designs": rows,
    }
    path = inputs.EXPECTED_DIR / f"{workload}.json"
    path.write_text(dump(doc))


def dump(doc: dict) -> str:
    """The expected-output file: metadata, then one design per line."""
    rows = ",\n  ".join(json.dumps(row, sort_keys=True) for row in doc["designs"])
    head = json.dumps({k: v for k, v in doc.items() if k != "designs"}, sort_keys=True)
    return head[:-1] + ',\n "designs": [\n  ' + rows + "\n ]\n}\n"


if __name__ == "__main__":
    main(sys.argv[1])
