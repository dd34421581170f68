"""Merge-search work counters: golden values and engine agreement.

The incremental engine's heap traffic (``merge.heap_*``), exact pair
evaluations (``search.nodes_expanded``) and cache books are
deterministic, so refactors of its inner loop must leave them exactly
as they were.  The golden values below were recorded with the
per-restart heap rebuild the base-pair stream replaced; any change to
them is a change in the amount of search work, not a refactor.

The differential half runs the reference and incremental engines on
perfbench pool designs with 12 or more base partitions per candidate
set -- large enough that the base-pair stream, its mode flip and the
pending-materialisation set all see real traffic, unlike the small
designs of ``test_engine_differential.py`` -- and on two seeded
small-band designs searched over every candidate set.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.arch.resources import ResourceVector
from repro.arch.tiles import quantised_footprint
from repro.core.allocation import (
    AllocationOptions,
    _MergeCache,
    search_candidate_set,
)
from repro.core.clustering import enumerate_base_partitions
from repro.core.cost import TransitionPolicy
from repro.core.covering import candidate_partition_sets
from repro.core.matrix import ConnectivityMatrix
from repro.core.partitioner import PartitionerOptions, partition
from repro.eval.casestudy import CASESTUDY_BUDGET, casestudy_design
from repro.obs import RecordingTracer
from repro.synth.generator import (
    GeneratorConfig,
    generate_design,
    generate_population,
)
from repro.synth.profiles import CIRCUIT_CLASSES

from .test_engine_differential import budget_for, weight_matrix

COUNTERS = (
    "merge.heap_pushes",
    "merge.heap_pops",
    "merge.heap_stale_drops",
    "merge.heap_rebuilds",
    "search.nodes_expanded",
    "merge.cache_hits",
    "merge.cache_misses",
    "merge.states_explored",
    "merge.descent_steps",
)


def casestudy_weights(design):
    names = [c.name for c in design.configurations]
    return {(names[0], names[1]): 0.6, (names[-1], names[0]): 1.7}


def synthetic_design(seed):
    """A Sec. V-size design (default generator bands)."""
    return generate_design(
        np.random.default_rng(seed),
        CIRCUIT_CLASSES[seed % len(CIRCUIT_CLASSES)],
        f"golden{seed}",
        GeneratorConfig(),
    )


def partition_counters(design, capacity, policy, probabilities=None):
    tracer = RecordingTracer()
    options = PartitionerOptions(
        policy=policy, pair_probabilities=probabilities
    )
    result = partition(design, capacity, options, tracer)
    counters = {k: tracer.counters.get(k, 0) for k in COUNTERS}
    return counters, result.total_frames


def golden(pushes, pops, stale, rebuilds, hits, misses, states, steps):
    return {
        "merge.heap_pushes": pushes,
        "merge.heap_pops": pops,
        "merge.heap_stale_drops": stale,
        "merge.heap_rebuilds": rebuilds,
        # Every push is one exact pair evaluation.
        "search.nodes_expanded": pushes,
        "merge.cache_hits": hits,
        "merge.cache_misses": misses,
        "merge.states_explored": states,
        "merge.descent_steps": steps,
    }


class TestGoldenCounters:
    @pytest.mark.parametrize(
        "policy, weighted, expected, frames",
        [
            (
                TransitionPolicy.STRICT, False,
                golden(6522, 1398, 3845, 8, 2673, 153, 2253, 1398),
                245946,
            ),
            (
                TransitionPolicy.LENIENT, False,
                golden(6533, 1396, 3787, 8, 2670, 153, 2250, 1395),
                243122,
            ),
            (
                TransitionPolicy.LENIENT, True,
                golden(6538, 1395, 3873, 8, 2669, 153, 2249, 1394),
                247392,
            ),
        ],
        ids=["strict", "lenient", "weighted"],
    )
    def test_case_study(self, policy, weighted, expected, frames):
        design = casestudy_design()
        probabilities = casestudy_weights(design) if weighted else None
        counters, total = partition_counters(
            design, CASESTUDY_BUDGET, policy, probabilities
        )
        assert counters == expected
        assert total == frames

    @pytest.mark.parametrize(
        "seed, expected, frames",
        [
            (
                # Tight enough that 241 descents flip to cost-first.
                3,
                golden(139303, 14727, 93738, 241, 28685, 1237, 17934, 14632),
                114788,
            ),
            (
                5,
                golden(106241, 11574, 69357, 0, 23745, 1135, 13726, 11574),
                542416,
            ),
        ],
        ids=["seed3", "seed5"],
    )
    def test_synthetic(self, seed, expected, frames):
        design = synthetic_design(seed)
        counters, total = partition_counters(
            design, budget_for(design), TransitionPolicy.LENIENT
        )
        assert counters == expected
        assert total == frames


#: perfbench pool (``generate_population(240, seed=2013)``) indices with
#: 19-22 base partitions per candidate set; the reference engine
#: searches each in about a second.
POOL_INDICES = (1, 12, 31)

#: Seeded designs of the ``small`` generator band (at most 4 modules of
#: 3 modes), budgeted at 1.4x the quantised footprint of all their
#: modes.  Their 28-30 candidate sets hold 5-10 base partitions each,
#: so every set is searched and no size floor applies.
SMALL_SEEDS = (7000, 7001)
SMALL_KEYS = tuple(f"small{seed}" for seed in SMALL_SEEDS)


def footprint_capacity(design, scale=1.4):
    total = ResourceVector.sum(m.resources for m in design.all_modes)
    q = quantised_footprint(total)
    return ResourceVector(
        clb=int(q.clb * scale) + 20,
        bram=int(q.bram * scale) + 4,
        dsp=int(q.dsp * scale) + 8,
    )


@pytest.fixture(scope="module")
def pool():
    """key -> (design, capacity, min partitions per set, max sets)."""
    last = max(POOL_INDICES)
    designs = itertools.islice(generate_population(240, seed=2013), last + 1)
    out = {
        i: (d, budget_for(d), 12, 4)
        for i, (_cls, d) in enumerate(designs)
        if i in POOL_INDICES
    }
    for k, (key, seed) in enumerate(zip(SMALL_KEYS, SMALL_SEEDS)):
        design = generate_design(
            np.random.default_rng(seed),
            CIRCUIT_CLASSES[k % len(CIRCUIT_CLASSES)],
            key,
            GeneratorConfig(max_modules=4, max_modes=3),
        )
        out[key] = (design, footprint_capacity(design), 0, None)
    return out


def search_fingerprint(design, capacity, engine, policy, weights=None,
                       alloc_kwargs=None, min_partitions=12, max_sets=4):
    """Results, engine-independent counters and the cache key set of
    every candidate set searched through one shared cache."""
    opts = AllocationOptions(
        policy=policy, engine=engine, pair_weights=weights,
        **(alloc_kwargs or {}),
    )
    cache = _MergeCache(weights)
    cm = ConnectivityMatrix.from_design(design)
    bps = enumerate_base_partitions(design, cm)
    out = []
    for cps in candidate_partition_sets(bps, cm, max_sets=max_sets):
        assert len(cps.partitions) >= min_partitions
        tracer = RecordingTracer()
        res = search_candidate_set(design, cps, capacity, opts, cache, tracer)
        groups = None
        if res.best_groups is not None:
            groups = tuple(
                tuple(p.label for p in g.members) for g in res.best_groups
            )
        # Hits depend on how often an engine re-asks the cache; misses
        # (distinct merged groups) and the search shape do not.
        counters = {
            k: tracer.counters.get(k, 0)
            for k in (
                "merge.states_explored",
                "merge.feasible_states",
                "merge.initial_pairs",
                "merge.descent_steps",
                "merge.cache_misses",
            )
        }
        out.append((groups, res.best_cost, counters))
    out.append(sorted(tuple(sorted(k)) for k in cache._cache))
    return out


class TestPoolDifferential:
    @pytest.mark.parametrize("index", POOL_INDICES + SMALL_KEYS)
    @pytest.mark.parametrize(
        "caps", [None, {"max_initial_pairs": 6}], ids=["all-pairs", "capped"]
    )
    @pytest.mark.parametrize(
        "policy, weighted",
        [(TransitionPolicy.LENIENT, False), (TransitionPolicy.STRICT, True)],
        ids=["lenient", "strict-weighted"],
    )
    def test_engines_agree(self, pool, index, caps, policy, weighted):
        design, capacity, min_partitions, max_sets = pool[index]
        weights = weight_matrix(design) if weighted else None
        ref = search_fingerprint(
            design, capacity, "reference", policy, weights, caps,
            min_partitions, max_sets,
        )
        inc = search_fingerprint(
            design, capacity, "incremental", policy, weights, caps,
            min_partitions, max_sets,
        )
        assert ref == inc
