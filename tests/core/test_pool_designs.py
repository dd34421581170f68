"""Device-selected partitioning of the pool designs with the most configurations.

Designs 87 (14 configurations) and 185 (12) of the Sec. V pool
``generate_population(240, seed=2013)`` are the largest the benchmark
sweeps meet.  Their outcomes, unweighted and under profiled pair
probabilities, are pinned to the reference-engine results committed in
``perfbench/expected/*.json``, so the merge search above a dozen
configurations is covered exactly, weighted float objective included.
"""

from __future__ import annotations

import itertools

import pytest

from repro.arch.library import virtex5_ladder
from repro.core.partitioner import (
    PartitionerOptions,
    partition_with_device_selection,
)
from repro.replay.trace import TraceSpec, config_names, iter_trace
from repro.runtime.profile import pair_frequencies
from repro.synth.generator import generate_population

POOL_SIZE, POOL_SEED = 240, 2013

DESIGN_87_SHARED = [
    ["{M0.0}"],
    ["{M0.1}"],
    ["{M0.2}", "{M2.0}", "{M2.1}"],
    ["{M1.0}", "{M4.3}"],
    ["{M1.1}", "{M2.3}", "{M4.2}"],
]
# The two objectives place {M4.0} and {M4.1} differently.
DESIGN_87_REGIONS = DESIGN_87_SHARED + [
    ["{M2.2}", "{M4.0}"], ["{M3.0}"], ["{M3.1}"], ["{M4.1}"],
]
DESIGN_87_WEIGHTED_REGIONS = DESIGN_87_SHARED + [
    ["{M2.2}", "{M4.1}"], ["{M3.0}"], ["{M3.1}"], ["{M4.0}"],
]
DESIGN_185_REGIONS = [
    ["{M0.0}", "{M0.2}", "{M3.0}", "{M3.2}"],
    ["{M0.1}", "{M4.1}"],
    ["{M0.3}", "{M1.1}", "{M1.2}", "{M1.3}", "{M3.1}"],
    ["{M1.0}"],
    ["{M2.0}", "{M2.1}"],
    ["{M4.0}"],
]

# (index, configurations, weighted, device, regions, total, worst, objective)
CASES = [
    (
        87, 14, False, "FX95T", DESIGN_87_REGIONS,
        374870, 16120, 374870.0,
    ),
    (
        87, 14, True, "FX95T", DESIGN_87_WEIGHTED_REGIONS,
        375176, 16120, 4326.148727984344,
    ),
    (
        185, 12, False, "SX70T", DESIGN_185_REGIONS,
        586094, 19626, 586094.0,
    ),
    (
        185, 12, True, "SX70T", DESIGN_185_REGIONS,
        586094, 19626, 8520.814090019569,
    ),
]


@pytest.fixture(scope="module")
def pool_prefix():
    """The pool's designs up to index 185, in generation order."""
    population = generate_population(POOL_SIZE, seed=POOL_SEED)
    return [design for _cls, design in itertools.islice(population, 186)]


def _profiled_probabilities(design, index):
    spec = TraceSpec(
        environment="markov", length=512, seed=7 * 1_000_003 + index
    )
    return pair_frequencies(list(iter_trace(config_names(design), spec)))


@pytest.mark.parametrize(
    "index, configurations, weighted, device, regions, total, worst, objective",
    CASES,
    ids=[f"{c[0]}-{'weighted' if c[2] else 'unweighted'}" for c in CASES],
)
def test_matches_reference_outcome(
    pool_prefix, index, configurations, weighted, device, regions, total,
    worst, objective,
):
    design = pool_prefix[index]
    assert len(design.configurations) == configurations
    probabilities = (
        _profiled_probabilities(design, index) if weighted else None
    )
    dres = partition_with_device_selection(
        design,
        virtex5_ladder(),
        PartitionerOptions(pair_probabilities=probabilities),
    )
    result = dres.result
    assert dres.device.name == device
    assert [sorted(r.labels) for r in result.scheme.regions] == regions
    assert result.total_frames == total
    assert result.worst_frames == worst
    assert result.objective == objective
