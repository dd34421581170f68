"""Seeded benchmark inputs: the committed design pool and its samples.

The sweeps draw their designs from one fixed Sec. V population (the
*pool*) so that every design they can meet has a committed expected
output (``perfbench/expected/*.json``, produced by ``make_expected.py``
with the reference merge engine).  Per-design partition time is heavy
tailed -- the slowest tenth of a population holds about 60% of its
wall time -- so a plain random sample of 80 designs moves the sweep's
total by ~40% between seeds.  The pool is therefore sorted by a
deterministic work count (merge states explored, from the expected
file) and cut into strata of ``STRATUM`` consecutive designs; the
workload seed picks one design per stratum.  Every seed then sees the
same spread of easy and hard designs, but not the same designs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.replay.trace import TraceSpec, config_names, iter_trace
from repro.runtime.profile import pair_frequencies
from repro.synth.generator import generate_population

#: The pool: ``generate_population(POOL_SIZE, seed=POOL_SEED)`` -- the
#: paper's default sweep seed.
POOL_SEED = 2013
POOL_SIZE = 240
#: Designs per stratum; a run partitions one design of each stratum.
STRATUM = 3
#: The markov trace behind each design's pair probabilities
#: (profiled-sweep).  Its seed is fixed per pool slot, not per run, so
#: the weighted expected outputs stay valid for every workload seed.
PROFILE_LENGTH = 512
PROFILE_SEED = 7

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def pool_designs():
    """The pool's designs, in generation order."""
    return [d for _cls, d in generate_population(POOL_SIZE, seed=POOL_SEED)]


def profile_trace(design, index: int) -> list[str]:
    """The seeded markov trace profiled into ``design``'s probabilities."""
    spec = TraceSpec(
        environment="markov",
        length=PROFILE_LENGTH,
        seed=PROFILE_SEED * 1_000_003 + index,
    )
    return list(iter_trace(config_names(design), spec))


def pair_probabilities(design, index: int) -> dict[tuple[str, str], float]:
    """``pair_frequencies`` of the design's profile trace."""
    return pair_frequencies(profile_trace(design, index))


def load_expected(workload: str) -> dict[str, dict]:
    """Committed reference outcomes of ``workload``, keyed by design name."""
    path = EXPECTED_DIR / f"{workload}.json"
    doc = json.loads(path.read_text())
    return {row["design"]: row for row in doc["designs"]}


def stratified_sample(expected: dict[str, dict], strata: int, seed: int) -> list[int]:
    """Pool indices of one design per stratum, in a seeded order.

    With fewer ``strata`` than the pool holds, the strata used are
    spread evenly over the whole work ordering, so a shorter run keeps
    the pool's mix of light and heavy designs.
    """
    order = sorted(
        expected.values(), key=lambda row: (row["work"], row["index"])
    )
    total = len(order) // STRATUM
    strata = max(1, min(strata, total))
    rng = random.Random(seed)
    picked = []
    for s in range(strata):
        stratum_index = (s * total) // strata
        members = order[stratum_index * STRATUM : (stratum_index + 1) * STRATUM]
        picked.append(rng.choice(members)["index"])
    rng.shuffle(picked)
    return picked
