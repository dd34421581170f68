"""Region-allocation merge search (paper Sec. IV-C, Fig. 6 inner loops).

Starting from a candidate partition set with every base partition in its
own region (the minimum-reconfiguration-time arrangement), the search
repeatedly assigns two *compatible* partitions (or partition groups) to a
shared region.  Merging shrinks the total footprint -- a shared region is
sized for the larger member instead of both -- at the price of extra
reconfigurations whenever consecutive configurations need different
members.  Every feasible arrangement encountered is scored by total
reconfiguration frames (Eq. 10); the best one wins.

Following the paper, the greedy descent is restarted once from every
possible *initial* compatible pair ("assigns two compatible base
partitions to the same region, which are distinct from those used to
begin the previous iterations"), so a locally bad first merge cannot trap
the search.  Restart count and step counts are configurable to keep large
synthetic designs within the paper's seconds-to-a-minute runtime.

Two engines produce bit-identical results (see docs/PERFORMANCE.md):

* ``engine="reference"`` -- the straightforward implementation: each
  descent step rescans all O(n^2) group pairs for the best merge;
* ``engine="incremental"`` (default) -- lazy-invalidation candidate
  selection over two sources.  Base-base pair entries are the same on
  every restart, so they are sorted once per candidate set and key
  mode into a *base stream*; a small min-heap holds only the pairs
  involving merged groups (the initial merge's at the start of a
  restart, the newly merged group's after each step).  Each pop takes
  the smaller head, and entries naming dead groups are dropped when
  reached.  Candidate keys carry monotone *slot* numbers so ties pop in
  the reference engine's positional scan order, and per-pair merge
  stats are memoised so repeated restarts never recompute them.
  Running footprint totals replace the per-state ``_fits`` rescan.

Implementation note: this is the hot loop of the whole library (the
Fig. 7-9 sweep runs it hundreds of thousands of times), so the internal
:class:`_Group` works on plain int tuples -- (clb, bram, dsp) -- instead
of :class:`ResourceVector`, quantisation is inlined, and merged groups
are memoised by member bitmask.  Switch statistics come from plain
Python pair loops over the activity tuple: up to the 16 configurations
the design generators reach, those loops are at least as fast as numpy
array kernels (docs/PERFORMANCE.md).  The public surface still speaks
``ResourceVector``/:class:`PartitioningScheme`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..arch.resources import ResourceVector
from ..obs import NULL_TRACER, Tracer
from .clustering import BasePartition
from .cost import DEFAULT_POLICY, TransitionPolicy
from .covering import CandidatePartitionSet
from .model import PRDesign
from .result import PartitioningScheme, Region

# Tile constants inlined from repro.arch.tiles (kept in sync by tests).
_CLB_PER_TILE, _BRAM_PER_TILE, _DSP_PER_TILE = 20, 4, 8
_CLB_FRAMES, _BRAM_FRAMES, _DSP_FRAMES = 36, 30, 28

#: Histogram bucket bounds for descent steps per restart (counts).
_STEP_BOUNDS = (0.0, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0)

Vec = tuple[int, int, int]


def _quantise(req: Vec) -> tuple[Vec, int]:
    """(footprint, frames) of a region sized for ``req`` (Eqs. 3-6)."""
    c, b, d = req
    tc = -(-c // _CLB_PER_TILE)
    tb = -(-b // _BRAM_PER_TILE)
    td = -(-d // _DSP_PER_TILE)
    footprint = (tc * _CLB_PER_TILE, tb * _BRAM_PER_TILE, td * _DSP_PER_TILE)
    frames = tc * _CLB_FRAMES + tb * _BRAM_FRAMES + td * _DSP_FRAMES
    return footprint, frames


@dataclass(frozen=True, slots=True)
class _Group:
    """One (tentative) region during the search.

    ``activity`` has one entry per configuration: the label of the member
    partition serving that configuration, or ``None``.  ``usage`` is the
    bitmask of configuration indices touching any member's modes -- two
    groups may merge iff their usage masks are disjoint (the paper's
    compatibility relation lifted to groups).  ``mask`` is the member
    bitmask: bit ``codec[label]`` per member, under the label codec of
    the merge cache the group belongs to, so within one cache it
    identifies the member set exactly as ``signature`` does.
    """

    members: tuple[BasePartition, ...]
    activity: tuple[str | None, ...]
    usage: int  # bitmask over configuration indices
    requirement: Vec
    frames: int
    footprint: Vec
    switch_pairs_strict: float
    switch_pairs_lenient: float
    signature: frozenset[str]
    mask: int

    def switch_pairs(self, policy: TransitionPolicy) -> float:
        if policy is TransitionPolicy.STRICT:
            return self.switch_pairs_strict
        return self.switch_pairs_lenient

    def cost(self, policy: TransitionPolicy) -> float:
        """This group's contribution to Eq. 10 (weighted when the search
        carries pair weights; then a float, otherwise an integral count
        times the frame footprint)."""
        return self.frames * self.switch_pairs(policy)


def _switch_pair_counts(activity: Sequence[str | None]) -> tuple[int, int]:
    """(strict, lenient) pair counts for an activity vector.

    strict:  unordered pairs with differing entries (None is a value);
    lenient: unordered pairs with differing entries, both non-None.
    """
    n = len(activity)
    non_none = n - activity.count(None)
    same = same_non_none = 0
    for label in set(activity):
        k = activity.count(label)
        pairs = k * (k - 1) // 2
        same += pairs
        if label is not None:
            same_non_none += pairs
    strict = n * (n - 1) // 2 - same
    lenient = non_none * (non_none - 1) // 2 - same_non_none
    return strict, lenient


def _weighted_switch_sums(
    activity: Sequence[str | None], weights
) -> tuple[float, float]:
    """(strict, lenient) switch sums under a symmetric pair-weight matrix.

    ``weights[i, j]`` is the importance of the (configuration i,
    configuration j) transition -- the paper's "statistical information
    about the probabilities of different configurations" extension.
    O(C^2); only used when weights are supplied.
    """
    strict = lenient = 0.0
    n = len(activity)
    for i in range(n):
        ai = activity[i]
        for j in range(i + 1, n):
            aj = activity[j]
            if ai == aj:
                continue
            w = float(weights[i, j])
            strict += w
            if ai is not None and aj is not None:
                lenient += w
    return strict, lenient


def _switch_stats(
    activity: Sequence[str | None], weights
) -> tuple[float, float]:
    """(strict, lenient) switch stats: pair counts, or pair-weight sums
    when the search carries a weight matrix."""
    if weights is None:
        return _switch_pair_counts(activity)
    return _weighted_switch_sums(activity, weights)


def _overlay_stats(
    a: _Group, b: _Group, weights
) -> tuple[tuple[str | None, ...], Vec, int, Vec, float, float]:
    """(activity, requirement, frames, footprint, strict, lenient) of the
    region holding two compatible groups.

    The requirement is the componentwise max, and the activity takes
    whichever side is active per configuration (the sides are disjoint,
    so the overlay is symmetric).
    """
    ra, rb = a.requirement, b.requirement
    requirement = (
        ra[0] if ra[0] >= rb[0] else rb[0],
        ra[1] if ra[1] >= rb[1] else rb[1],
        ra[2] if ra[2] >= rb[2] else rb[2],
    )
    footprint, frames = _quantise(requirement)
    activity = tuple(
        x if x is not None else y for x, y in zip(a.activity, b.activity)
    )
    strict, lenient = _switch_stats(activity, weights)
    return activity, requirement, frames, footprint, strict, lenient


def _initial_groups(
    design: PRDesign,
    cps: CandidatePartitionSet,
    cache: _MergeCache | None = None,
) -> list[_Group]:
    """Each candidate partition in its own region.

    Groups merged through one cache must be built from it: switch stats
    are taken under ``cache.weights`` and each member bit is numbered
    through ``cache.codec`` on first sight of its label.  Without a
    cache, a fresh unweighted one numbers the bits in partition order.
    """
    if cache is None:
        cache = _MergeCache()
    weights = cache.weights
    codec = cache.codec
    config_modes = [frozenset(c.modes) for c in design.configurations]
    config_names = [c.name for c in design.configurations]
    groups: list[_Group] = []
    for bp in cps.partitions:
        label = bp.label
        activity = tuple(
            label if label in cps.cover[name] else None
            for name in config_names
        )
        usage = 0
        for i, modes in enumerate(config_modes):
            if bp.modes & modes:
                usage |= 1 << i
        requirement = bp.resources.as_tuple()
        footprint, frames = _quantise(requirement)
        strict, lenient = _switch_stats(activity, weights)
        groups.append(
            _Group(
                members=(bp,),
                activity=activity,
                usage=usage,
                requirement=requirement,
                frames=frames,
                footprint=footprint,
                switch_pairs_strict=strict,
                switch_pairs_lenient=lenient,
                signature=frozenset((label,)),
                mask=1 << codec.setdefault(label, len(codec)),
            )
        )
    return groups


class _MergeCache:
    """Memoises merged groups by member set.

    A cache is bound to one pair-weight matrix (or none); mixing weighted
    and unweighted searches requires separate caches.  ``hits``/``misses``
    are plain ints maintained unconditionally (two integer adds per merge
    -- negligible next to group construction) so tracers can report cache
    effectiveness without touching the hot path.  ``codec`` numbers the
    member-mask bits of every group built for this cache.

    Lookups go through ``_index``, keyed by member mask (one int OR per
    merge).  ``_cache`` holds the same groups keyed by label set; it is
    written on misses only and serves inspection (the engine
    differential tests compare its key sets).
    """

    def __init__(self, weights=None) -> None:
        self._cache: dict[frozenset[str], _Group] = {}
        self._index: dict[int, _Group] = {}
        self.weights = weights
        self.codec: dict[str, int] = {}
        self.hits = 0
        self.misses = 0

    def merge(self, a: _Group, b: _Group) -> _Group:
        key = a.mask | b.mask
        merged = self._index.get(key)
        if merged is None:
            self.misses += 1
            activity, requirement, frames, footprint, strict, lenient = (
                _overlay_stats(a, b, self.weights)
            )
            merged = _Group(
                members=a.members + b.members,
                activity=activity,
                usage=a.usage | b.usage,
                requirement=requirement,
                frames=frames,
                footprint=footprint,
                switch_pairs_strict=strict,
                switch_pairs_lenient=lenient,
                signature=a.signature | b.signature,
                mask=key,
            )
            self._index[key] = merged
            self._cache[merged.signature] = merged
        else:
            self.hits += 1
        return merged


def _mergeable(a: _Group, b: _Group) -> bool:
    return not (a.usage & b.usage)


def _fits(groups: Sequence[_Group], capacity: Vec) -> bool:
    c = b = d = 0
    for g in groups:
        fc, fb, fd = g.footprint
        c += fc
        b += fb
        d += fd
    return c <= capacity[0] and b <= capacity[1] and d <= capacity[2]


def _total_cost(groups: Sequence[_Group], policy: TransitionPolicy) -> float:
    return sum(g.cost(policy) for g in groups)


class _PairStats:
    """Memoised (merged cost, merged footprint) of compatible base pairs.

    :meth:`peek` reports exactly what ``cache.merge(a, b)`` would (an
    existing cache entry is consulted first -- a cache shared across the
    candidate sets of one design may hold a group whose activity was
    derived under an earlier set's cover, and the reference engine
    scores with that entry), but never allocates the merged
    :class:`_Group` or touches the cache's hit/miss books.  It ranks
    ``initial_pairs`` and the incremental engine's base stream; absent a
    cache entry it derives the value from the overlay directly.

    Callers derive the reference engine's scan values in the reference's
    operand order (``merged - lower - upper``), keeping weighted floats
    bit-identical.  Memos are keyed by object identity: every group of a
    search is kept alive by the base list or the merge cache, and the
    overlay of a *compatible* pair is symmetric, so one entry serves
    both orders.
    """

    __slots__ = ("_strict", "_cache", "_memo")

    def __init__(self, policy: TransitionPolicy, cache: _MergeCache) -> None:
        self._strict = policy is TransitionPolicy.STRICT
        self._cache = cache
        self._memo: dict[tuple[int, int], tuple[float, Vec]] = {}

    def _value_of(self, merged: _Group) -> tuple[float, Vec]:
        sw = (
            merged.switch_pairs_strict
            if self._strict
            else merged.switch_pairs_lenient
        )
        return (merged.frames * sw, merged.footprint)

    def peek(self, a: _Group, b: _Group) -> tuple[float, Vec]:
        ka, kb = id(a), id(b)
        key = (ka, kb) if ka < kb else (kb, ka)
        val = self._memo.get(key)
        if val is None:
            cached = self._cache._index.get(a.mask | b.mask)
            if cached is not None:
                val = self._value_of(cached)
            else:
                _, _, frames, footprint, sw_strict, sw_lenient = (
                    _overlay_stats(a, b, self._cache.weights)
                )
                val = (
                    frames * (sw_strict if self._strict else sw_lenient),
                    footprint,
                )
            self._memo[key] = val
        return val


class _HeapStats:
    """Counters of the incremental engine's candidate traffic
    (``merge.heap_*``), counted as if one heap held every live pair:
    ``pushes`` are also the candidate merges evaluated exactly
    (``search.nodes_expanded``)."""

    __slots__ = ("pushes", "pops", "stale_drops", "rebuilds")

    def __init__(self) -> None:
        self.pushes = 0
        self.pops = 0
        self.stale_drops = 0
        self.rebuilds = 0


_ENGINES = ("incremental", "reference")


@dataclass
class AllocationOptions:
    """Tuning knobs for the merge search.

    Defaults follow the paper's exhaustive-restart description; the caps
    exist so very large synthetic designs stay within the paper's
    seconds-to-a-minute runtime envelope.  ``max_initial_pairs=None``
    means every compatible pair seeds one descent.  ``engine`` selects
    the search implementation -- the heap-driven ``"incremental"``
    engine (default) is bit-identical to ``"reference"`` and several
    times faster (docs/PERFORMANCE.md).
    """

    policy: TransitionPolicy = DEFAULT_POLICY
    max_initial_pairs: int | None = None
    max_descent_steps: int | None = None
    #: Optional symmetric (C x C) transition-importance matrix in
    #: configuration declaration order; switches the objective from the
    #: all-pairs count (Eq. 7) to the probability-weighted variant the
    #: paper proposes as future work.
    pair_weights: "object | None" = None
    engine: str = "incremental"

    def __post_init__(self) -> None:
        if self.max_initial_pairs is not None and self.max_initial_pairs < 1:
            raise ValueError("max_initial_pairs must be positive or None")
        if self.max_descent_steps is not None and self.max_descent_steps < 1:
            raise ValueError("max_descent_steps must be positive or None")
        if self.engine not in _ENGINES:
            raise ValueError(
                f"engine must be one of {_ENGINES}, got {self.engine!r}"
            )


@dataclass
class AllocationOutcome:
    """Result of searching one candidate partition set."""

    best_groups: list[_Group] | None
    best_cost: float | None
    states_explored: int
    feasible_states: int

    @property
    def found(self) -> bool:
        return self.best_groups is not None


def search_candidate_set(
    design: PRDesign,
    cps: CandidatePartitionSet,
    capacity: ResourceVector,
    options: AllocationOptions | None = None,
    merge_cache: _MergeCache | None = None,
    tracer: Tracer | None = None,
) -> AllocationOutcome:
    """Run the restarted greedy merge search for one CPS.

    Every feasible state encountered (including the all-separate start)
    competes; the arrangement with minimum total reconfiguration frames is
    returned as raw groups (convert with :func:`groups_to_scheme`).
    A shared ``merge_cache`` may be passed when several candidate sets of
    one design are searched in sequence; it must be bound to the very
    ``options.pair_weights`` object (``ValueError`` otherwise).  Metric
    totals are batched into the ``tracer`` once per call, so the inner
    loops stay tracer-free.
    """
    options = options or AllocationOptions()
    tracer = tracer or NULL_TRACER
    policy = options.policy
    cap: Vec = capacity.as_tuple()
    weights = options.pair_weights
    if merge_cache is not None and merge_cache.weights is not weights:
        # Base groups would be scored with one matrix and merged groups
        # with the other.
        raise ValueError(
            "merge_cache is bound to a different pair-weight matrix than "
            "options.pair_weights"
        )
    cache = merge_cache or _MergeCache(weights)
    cache_hits0, cache_misses0 = cache.hits, cache.misses

    base = _initial_groups(design, cps, cache)
    best_groups: list[_Group] | None = None
    best_cost: float | None = None
    states = 0
    feasible = 0

    def consider(groups: list[_Group], fits: bool | None = None) -> None:
        nonlocal best_groups, best_cost, states, feasible
        states += 1
        if fits is None:
            fits = _fits(groups, cap)
        if fits:
            feasible += 1
            cost = _total_cost(groups, policy)
            if best_cost is None or cost < best_cost or (
                cost == best_cost
                and best_groups is not None
                and len(groups) < len(best_groups)
            ):
                best_cost = cost
                best_groups = list(groups)

    consider(base)

    # All compatible pairs at the start, ordered by the cost delta of the
    # merge so capped runs try the most promising seeds first.  The delta
    # comes from the pair-stat peek -- identical to materialising the
    # merged group, but without seeding the merge cache for pairs that
    # max_initial_pairs would discard anyway.
    pair_stats = _PairStats(policy, cache)

    def seed_delta(ij: tuple[int, int]) -> float:
        a, b = base[ij[0]], base[ij[1]]
        merged_cost, _ = pair_stats.peek(a, b)
        return merged_cost - a.cost(policy) - b.cost(policy)

    pairs = [
        (i, j)
        for i, j in itertools.combinations(range(len(base)), 2)
        if _mergeable(base[i], base[j])
    ]
    initial_pairs = sorted(pairs, key=seed_delta)
    if options.max_initial_pairs is not None:
        initial_pairs = initial_pairs[: options.max_initial_pairs]

    descent_steps = 0
    heap_stats = _HeapStats()
    # Steps taken by each restart's descent, for the trace's histogram.
    restart_steps: list[int] | None = [] if tracer.enabled else None

    if options.engine == "reference":
        seen_states: set[frozenset[frozenset[str]]] = set()
        for i, j in initial_pairs:
            groups = [g for k, g in enumerate(base) if k not in (i, j)]
            groups.append(cache.merge(base[i], base[j]))
            consider(groups)
            steps = _greedy_descent(
                groups, cap, options, consider, seen_states, cache
            )
            descent_steps += steps
            if restart_steps is not None:
                restart_steps.append(steps)
    else:
        descent_steps, unfit = _run_restarts_incremental(
            base,
            pairs,
            initial_pairs,
            cap,
            options,
            consider,
            cache,
            pair_stats,
            heap_stats,
            restart_steps,
        )
        states += unfit

    tracer.count("merge.states_explored", states)
    tracer.count("merge.feasible_states", feasible)
    tracer.count("merge.initial_pairs", len(initial_pairs))
    tracer.count("merge.descent_steps", descent_steps)
    tracer.count("merge.cache_hits", cache.hits - cache_hits0)
    tracer.count("merge.cache_misses", cache.misses - cache_misses0)
    if restart_steps:
        tracer.observe_many(
            "merge.restart_steps", restart_steps, bounds=_STEP_BOUNDS
        )
    if options.engine != "reference":
        tracer.count("merge.heap_pushes", heap_stats.pushes)
        tracer.count("merge.heap_pops", heap_stats.pops)
        tracer.count("merge.heap_stale_drops", heap_stats.stale_drops)
        tracer.count("merge.heap_rebuilds", heap_stats.rebuilds)
        tracer.count("search.nodes_expanded", heap_stats.pushes)
    return AllocationOutcome(
        best_groups=best_groups,
        best_cost=best_cost,
        states_explored=states,
        feasible_states=feasible,
    )


def _run_restarts_incremental(
    base: list[_Group],
    pairs: list[tuple[int, int]],
    initial_pairs: list[tuple[int, int]],
    capacity: Vec,
    options: AllocationOptions,
    consider: Callable[..., None],
    cache: _MergeCache,
    pair_stats: _PairStats,
    heap_stats: _HeapStats,
    restart_steps: list[int] | None = None,
) -> tuple[int, int]:
    """Stream-plus-heap restart loop, bit-identical to the reference engine.

    Returns (descent steps, explored states that do not fit).  Only
    fitting states reach ``consider``: the others cannot change the
    best arrangement, so their group list is never built.

    Groups carry monotone *slot* numbers: base groups take 0..n-1, every
    merged group a fresh higher slot.  The live arrangement is a dict in
    slot (== reference list position) order, so candidate entries
    ``(key1, key2, slot_lo, slot_hi)`` break key ties exactly like the
    reference's positional first-seen-minimum scan.  The pre-fit phase
    keys by (-footprint saved, cost delta) and the post-fit phase by
    (cost delta, -footprint saved); within one descent the quantised
    footprint sum never increases under merging, so the mode flips at
    most once.

    Base-base entries (``pairs``, the compatible base pairs) are the
    same tuples on every restart, so each key mode's entries are sorted
    once per candidate set, on first need, into a *base stream*.  A
    restart walks the stream from its head next to a small heap that
    only holds pairs involving merged groups (seeded with the initial
    merged group's pairs, grown by one group's pairs per step); each
    pop takes the smaller of the two heads, so entries come out in
    exactly the order one heap of every live pair would give.  Entries
    naming dead slots are dropped when reached; stream entries already
    dead when the stream was (re)seeded were never part of that heap
    and are skipped without counting as stale.  At the mode flip the
    descent moves to the other mode's stream and rebuilds the heap from
    merged-group pairs only.

    Bookkeeping is bitmask-based, so no step rescans the live groups:

    * a merged group's base partners are the set bits of its
      *compatibility mask* (per base slot, the compatible base slots;
      ANDed over a group's members) within the live-base mask, visited
      in ascending slot order, then the live merged groups are checked
      by usage -- the order the reference's positional scan visits
      them in;
    * seen states are keyed by the frozenset of the *merged* groups'
      member masks: for one candidate set the singletons are implied,
      so the key is exact;
    * each ordered pair's (cost delta, footprint saved) is memoised, so
      a pair re-entering a later restart costs one dict lookup, with
      the weighted float operands in the same order.

    Pair *evaluation* is deliberately kept congruent with the reference
    scan: a state's candidates are only seeded (and new-group pairs
    only evaluated) after that state passes the step-cap and seen-state
    gates -- exactly when the reference engine would rescan it -- and
    the first evaluation of a pair (in either order) materialises the
    merged group through ``cache.merge``.  The stream itself is ranked
    from the :meth:`_PairStats.peek` memo (the same values), so base
    pairs are materialised separately: a pending list holds those not
    yet evaluated, and each gated restart drains the ones live in its
    start state.  Searches later in a ``partition()``
    run read values out of that cache, so matching its *contents* (not
    just this search's result) is part of the bit-identical contract.
    """
    policy = options.policy
    if policy is TransitionPolicy.STRICT:

        def gcost(g: _Group) -> float:
            return g.frames * g.switch_pairs_strict

    else:

        def gcost(g: _Group) -> float:
            return g.frames * g.switch_pairs_lenient

    cap_c, cap_b, cap_d = capacity
    max_steps = options.max_descent_steps
    n = len(base)
    base_c = base_b = base_d = 0
    for g in base:
        fc, fb, fd = g.footprint
        base_c += fc
        base_b += fb
        base_d += fd
    n_pairs = len(pairs)
    deg = [0] * n
    compat = [0] * n
    for k, l in pairs:
        deg[k] += 1
        deg[l] += 1
        compat[k] |= 1 << l
        compat[l] |= 1 << k
    base_slots = dict(enumerate(base))
    all_base = (1 << n) - 1

    def pair_delta(lo, hi, merged_cost, merged_fp):
        lo_fp = lo.footprint
        hi_fp = hi.footprint
        # Same operand order as the reference scan: (merged - lo) - hi.
        delta = merged_cost - gcost(lo) - gcost(hi)
        saved = (
            (lo_fp[0] + hi_fp[0] - merged_fp[0])
            + (lo_fp[1] + hi_fp[1] - merged_fp[1])
            + (lo_fp[2] + hi_fp[2] - merged_fp[2])
        )
        return delta, saved

    # (lo mask, hi mask) -> (delta, saved) of pairs with a merged member.
    # An entry in either order means the pair is materialised.
    deltas: dict[tuple[int, int], tuple[float, int]] = {}
    index = cache._index

    def entry_for(slot_lo, slot_hi, lo, hi, mode_fits):
        lm, hm = lo.mask, hi.mask
        found = deltas.get((lm, hm))
        if found is None:
            if (hm, lm) in deltas:
                merged = index[lm | hm]
            else:
                merged = cache.merge(lo, hi)
            found = deltas[(lm, hm)] = pair_delta(
                lo, hi, gcost(merged), merged.footprint
            )
        delta, saved = found
        if mode_fits:
            return (delta, -saved, slot_lo, slot_hi)
        return (-saved, delta, slot_lo, slot_hi)

    streams: dict[bool, list] = {}

    def stream_for(mode_fits):
        stream = streams.get(mode_fits)
        if stream is None:
            entries = []
            for k, l in pairs:
                delta, saved = pair_delta(
                    base[k], base[l], *pair_stats.peek(base[k], base[l])
                )
                if mode_fits:
                    entries.append((delta, -saved, k, l))
                else:
                    entries.append((-saved, delta, k, l))
            entries.sort()
            stream = streams[mode_fits] = entries
        return stream

    def merged_entries(alive, mcompat, mode_fits):
        """Entries of every compatible live pair with a merged member."""
        entries = []
        merged_slots = list(mcompat)
        for sx, gx in alive.items():
            ux = gx.usage
            for sy in merged_slots:
                if sy <= sx:
                    continue
                gy = alive[sy]
                if ux & gy.usage:
                    continue
                entries.append(entry_for(sx, sy, gx, gy, mode_fits))
        heapq.heapify(entries)
        return entries

    seen: set[frozenset[int]] = set()
    pending = pairs
    total_steps = 0
    unfit = 0
    push = heapq.heappush
    pop = heapq.heappop

    for i, j in initial_pairs:
        gi, gj = base[i], base[j]
        merged = cache.merge(gi, gj)
        alive = base_slots.copy()
        del alive[i]
        del alive[j]
        slot = n
        alive[slot] = merged

        mc, mb, md = merged.footprint
        run_c = base_c - gi.footprint[0] - gj.footprint[0] + mc
        run_b = base_b - gi.footprint[1] - gj.footprint[1] + mb
        run_d = base_d - gi.footprint[2] - gj.footprint[2] + md
        fits_now = run_c <= cap_c and run_b <= cap_b and run_d <= cap_d

        if fits_now:
            consider(list(alive.values()), True)
        else:
            unfit += 1

        steps = 0
        merged_masks = {merged.mask}
        state_sig = frozenset(merged_masks)
        # max_descent_steps is validated positive, so the reference's
        # step-cap check never fires before the first step.
        if len(alive) > 1 and state_sig not in seen:
            seen.add(state_sig)
            if pending:
                # Materialise the start state's not-yet-evaluated base
                # pairs, as the reference's first rescan would.
                rest = []
                for k, l in pending:
                    if k == i or k == j or l == i or l == j:
                        rest.append((k, l))
                    else:
                        cache.merge(base[k], base[l])
                pending = rest
            mode = fits_now
            stream = stream_for(mode)
            stream_len = len(stream)
            pos = 0
            # Per base slot: 1 live, 2 merged since the stream was
            # (re)seeded, 0 dead before it.  A stream entry's product
            # is 1 when live, 0 when it was never seeded, else stale.
            state = [1] * n
            state[i] = state[j] = 0
            live_base = all_base ^ (1 << i) ^ (1 << j)
            # Merged slot -> compatibility mask, in slot order.
            mcompat = {slot: compat[i] & compat[j]}
            stale = 0
            heap = []
            partners = mcompat[slot] & live_base
            while partners:
                low = partners & -partners
                partners ^= low
                k = low.bit_length() - 1
                heap.append(entry_for(k, slot, base[k], merged, mode))
            heapq.heapify(heap)
            seeded = n_pairs - deg[i] - deg[j] + 1 + len(heap)
            heap_stats.pushes += seeded

            while True:
                entry = None
                while True:
                    if pos < stream_len:
                        candidate = stream[pos]
                        if not heap or candidate < heap[0]:
                            pos += 1
                            live = state[candidate[2]] * state[candidate[3]]
                            if live == 1:
                                entry = candidate
                                break
                            if live:
                                stale += 1
                            continue
                        candidate = pop(heap)
                    elif heap:
                        candidate = pop(heap)
                    else:
                        break
                    if candidate[2] in alive and candidate[3] in alive:
                        entry = candidate
                        break
                    stale += 1
                if entry is None:
                    break
                heap_stats.pops += 1
                delta = entry[0] if mode else entry[1]
                if fits_now and delta >= 0:
                    break
                slot_lo, slot_hi = entry[2], entry[3]
                ga = alive.pop(slot_lo)
                gb = alive.pop(slot_hi)
                # slot_lo < slot_hi, so a merged lo implies a merged hi.
                if slot_lo < n:
                    state[slot_lo] = 2
                    live_base ^= 1 << slot_lo
                    new_compat = compat[slot_lo]
                    if slot_hi < n:
                        state[slot_hi] = 2
                        live_base ^= 1 << slot_hi
                        new_compat &= compat[slot_hi]
                    else:
                        new_compat &= mcompat.pop(slot_hi)
                        merged_masks.discard(gb.mask)
                else:
                    new_compat = mcompat.pop(slot_lo) & mcompat.pop(slot_hi)
                    merged_masks.discard(ga.mask)
                    merged_masks.discard(gb.mask)
                merged_next = cache.merge(ga, gb)
                slot += 1
                alive[slot] = merged_next
                mcompat[slot] = new_compat
                merged_masks.add(merged_next.mask)
                run_c += merged_next.footprint[0] - ga.footprint[0] - gb.footprint[0]
                run_b += merged_next.footprint[1] - ga.footprint[1] - gb.footprint[1]
                run_d += merged_next.footprint[2] - ga.footprint[2] - gb.footprint[2]
                fits_now = run_c <= cap_c and run_b <= cap_b and run_d <= cap_d
                if fits_now:
                    consider(list(alive.values()), True)
                else:
                    unfit += 1
                steps += 1
                if len(alive) <= 1:
                    break
                if max_steps is not None and steps >= max_steps:
                    break
                state_sig = frozenset(merged_masks)
                if state_sig in seen:
                    break
                seen.add(state_sig)
                if fits_now and not mode:
                    # The arrangement started fitting: re-key every live
                    # pair from footprint-first to cost-first.  Footprint
                    # sums are non-increasing under merging, so this
                    # happens at most once per descent.
                    mode = True
                    stream = stream_for(True)
                    stream_len = len(stream)
                    pos = 0
                    dead = [k for k in range(n) if state[k] != 1]
                    for k in dead:
                        state[k] = 0
                    # Live base pairs: all, less those touching a dead
                    # slot (inclusion-exclusion over dead-dead pairs).
                    live_pairs = n_pairs - sum(deg[k] for k in dead)
                    for a, b in itertools.combinations(dead, 2):
                        if not base[a].usage & base[b].usage:
                            live_pairs += 1
                    heap = merged_entries(alive, mcompat, True)
                    heap_stats.rebuilds += 1
                    heap_stats.pushes += live_pairs + len(heap)
                else:
                    # fits_now never reverts, so mode == fits_now here.
                    # Base partners in ascending slot order (lowest set
                    # bit first), then merged partners.
                    partners = new_compat & live_base
                    heap_stats.pushes += partners.bit_count()
                    while partners:
                        low = partners & -partners
                        partners ^= low
                        k = low.bit_length() - 1
                        push(heap, entry_for(k, slot, base[k], merged_next, mode))
                    mu = merged_next.usage
                    for s in mcompat:
                        if s == slot:
                            continue
                        g = alive[s]
                        if g.usage & mu:
                            continue
                        push(heap, entry_for(s, slot, g, merged_next, mode))
                        heap_stats.pushes += 1
            heap_stats.stale_drops += stale

        total_steps += steps
        if restart_steps is not None:
            restart_steps.append(steps)
    return total_steps, unfit


def _greedy_descent(
    groups: list[_Group],
    capacity: Vec,
    options: AllocationOptions,
    consider: Callable[[list[_Group]], None],
    seen_states: set[frozenset[frozenset[str]]],
    cache: _MergeCache,
) -> int:
    """Best-improvement merging until no merge helps and the state fits.

    While the arrangement does not fit the budget, the merge shrinking the
    footprint most is forced (cost-delta as tiebreak); once it fits, only
    cost-improving merges are applied.  Returns the number of merge steps
    taken (for the ``merge.descent_steps`` counter).

    This is the ``engine="reference"`` step loop -- the straightforward
    O(n^2)-rescan-per-step implementation the incremental engine is
    differentially tested against.
    """
    policy = options.policy
    steps = 0
    while len(groups) > 1:
        if options.max_descent_steps is not None and steps >= options.max_descent_steps:
            return steps
        signature = frozenset(g.signature for g in groups)
        if signature in seen_states:
            return steps
        seen_states.add(signature)

        fits = _fits(groups, capacity)
        best_merge: tuple[int, int, _Group] | None = None
        best_key: tuple[int, int] | None = None
        n = len(groups)
        for i in range(n):
            gi = groups[i]
            ui = gi.usage
            for j in range(i + 1, n):
                gj = groups[j]
                if ui & gj.usage:
                    continue
                merged = cache.merge(gi, gj)
                delta_cost = (
                    merged.cost(policy) - gi.cost(policy) - gj.cost(policy)
                )
                saved = (
                    gi.footprint[0] + gj.footprint[0] - merged.footprint[0]
                ) + (
                    gi.footprint[1] + gj.footprint[1] - merged.footprint[1]
                ) + (
                    gi.footprint[2] + gj.footprint[2] - merged.footprint[2]
                )
                # Cost first once feasible; footprint saving first before.
                key = (delta_cost, -saved) if fits else (-saved, delta_cost)
                if best_key is None or key < best_key:
                    best_key = key
                    best_merge = (i, j, merged)
        if best_merge is None:
            return steps
        i, j, merged = best_merge
        delta_cost = (
            merged.cost(policy) - groups[i].cost(policy) - groups[j].cost(policy)
        )
        if fits and delta_cost >= 0:
            return steps
        groups = [g for k, g in enumerate(groups) if k not in (i, j)]
        groups.append(merged)
        consider(groups)
        steps += 1
    return steps


def groups_to_scheme(
    design: PRDesign,
    cps: CandidatePartitionSet,
    groups: Iterable[_Group],
    strategy: str = "proposed",
) -> PartitioningScheme:
    """Materialise raw search groups as a validated scheme.

    Regions are numbered in a deterministic order (sorted by member
    labels) so repeated runs print identical tables.
    """
    ordered = sorted(groups, key=lambda g: sorted(g.signature))
    regions = tuple(
        Region(name=f"PRR{i + 1}", partitions=g.members)
        for i, g in enumerate(ordered)
    )
    return PartitioningScheme(
        design=design,
        regions=regions,
        cover={k: tuple(v) for k, v in cps.cover.items()},
        strategy=strategy,
    )
