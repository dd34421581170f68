"""Agglomerative clustering: base-partition discovery (paper Sec. IV-C).

Starting from disconnected mode nodes, edges are added between the two
modes with the highest remaining co-occurrence weight; after every edge,
newly *complete sub-graphs* (cliques) are recorded.  Each clique is a
**base partition**: a set of modes that can be loaded into a region as one
unit.  Its **frequency weight** is

* the node weight for singletons (k = 0 edges),
* the edge weight for pairs (k = 1), and
* the smallest internal edge weight for larger cliques,

which is also exactly the iteration bucket at which the clique becomes
complete -- a clique is complete once its lightest edge is added.

Because modes of one module never co-occur, the co-occurrence graph is
multipartite over modules and every clique holds at most one mode per
module; the number of cliques is bounded by prod(modes_m + 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import networkx as nx

from ..arch.resources import ResourceVector
from ..arch.tiles import frames_for
from ..obs import NULL_TRACER, Tracer
from .matrix import ConnectivityMatrix
from .model import PRDesign


@dataclass(frozen=True)
class BasePartition:
    """A cluster of modes loadable into a region as one unit.

    ``resources`` is the *sum* of the member modes' footprints -- members
    are concurrently active when the partition is loaded.  ``frames`` is
    that footprint quantised to tiles (Eqs. 3-6), which is both the
    covering tiebreak "area" and the reconfiguration cost of loading the
    partition alone.  ``label`` and the covering-list order are derived
    once per instance and cached (the merge search reads them hundreds
    of thousands of times per design).
    """

    modes: frozenset[str]
    frequency_weight: int
    resources: ResourceVector
    modules: frozenset[str]

    def __post_init__(self) -> None:
        if not self.modes:
            raise ValueError("a base partition must contain at least one mode")
        if self.frequency_weight < 0:
            raise ValueError("frequency weight must be non-negative")

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of modes in the partition."""
        return len(self.modes)

    @property
    def frames(self) -> int:
        """Tile-quantised frame footprint of the partition alone."""
        return frames_for(self.resources)

    @cached_property
    def label(self) -> str:
        """Canonical ``{A1, B2}`` style label (sorted member names)."""
        return "{" + ", ".join(sorted(self.modes)) + "}"

    @cached_property
    def _order(self) -> tuple[int, int, int, str]:
        return (self.size, self.frequency_weight, self.frames, self.label)

    def sort_key(self) -> tuple[int, int, int, str]:
        """Covering-list order: size, then frequency weight, then area.

        All ascending (Sec. IV-C); the label breaks remaining ties so the
        algorithm is deterministic.
        """
        return self._order

    def overlaps(self, other: "BasePartition") -> bool:
        return bool(self.modes & other.modes)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.label}(w={self.frequency_weight})"


@dataclass(frozen=True)
class AgglomerationEvent:
    """One step of the incremental clustering (for inspection/demos)."""

    step: int
    edge: frozenset[str]
    edge_weight: int
    new_cliques: tuple[frozenset[str], ...]


def _partition_for(
    clique: Iterable[str],
    design: PRDesign,
    cmatrix: ConnectivityMatrix,
    node_weights: dict[str, int],
    edge_weights: dict[frozenset[str], int],
) -> BasePartition:
    members = frozenset(clique)
    if len(members) == 1:
        (mode,) = members
        freq = node_weights[mode]
    elif len(members) == 2:
        freq = edge_weights[members]
    else:
        pairs = [
            edge_weights[frozenset((a, b))]
            for a in members
            for b in members
            if a < b
        ]
        freq = min(pairs)
    resources = ResourceVector.sum(design.mode(m).resources for m in members)
    modules = frozenset(design.module_of(m).name for m in members)
    return BasePartition(
        modes=members,
        frequency_weight=freq,
        resources=resources,
        modules=modules,
    )


def agglomerate(
    design: PRDesign, cmatrix: ConnectivityMatrix | None = None
) -> Iterator[AgglomerationEvent]:
    """Run the incremental clustering, yielding one event per added edge.

    Edges are added in descending weight order (ties broken by label so
    runs are reproducible); each event lists the cliques that become
    complete with that edge.  This is the paper's narrative procedure;
    :func:`enumerate_base_partitions` is the fast equivalent.
    """
    cmatrix = cmatrix or ConnectivityMatrix.from_design(design)
    edge_weights = cmatrix.edges()
    ordered = sorted(
        edge_weights.items(), key=lambda kv: (-kv[1], tuple(sorted(kv[0])))
    )
    graph: nx.Graph = nx.Graph()
    graph.add_nodes_from(cmatrix.mode_names)

    for step, (edge, weight) in enumerate(ordered, start=1):
        a, b = sorted(edge)
        graph.add_edge(a, b)
        # New cliques are exactly those containing the new edge: each is
        # {a, b} + a clique of the common neighbourhood of a and b.
        common = sorted(set(graph[a]) & set(graph[b]))
        new: list[frozenset[str]] = [frozenset((a, b))]
        if common:
            sub = graph.subgraph(common)
            for clique in nx.enumerate_all_cliques(sub):
                new.append(frozenset((a, b, *clique)))
        yield AgglomerationEvent(
            step=step,
            edge=frozenset(edge),
            edge_weight=weight,
            new_cliques=tuple(sorted(new, key=lambda c: (len(c), tuple(sorted(c))))),
        )


def enumerate_base_partitions(
    design: PRDesign,
    cmatrix: ConnectivityMatrix | None = None,
    include_non_joint_cliques: bool = False,
    tracer: Tracer | None = None,
) -> list[BasePartition]:
    """All base partitions of a design, in covering-list order.

    Singletons (one per active mode) plus every clique of the
    co-occurrence graph that occurs *jointly* in at least one
    configuration, annotated with frequency weights.  The joint-occurrence
    filter reproduces the paper's Table I exactly: a clique whose members
    pairwise co-occur but never all at once (e.g. ``{A1, B2, C1}`` in the
    running example) is useless to the covering stage -- no configuration
    could ever load it as a unit.  Pass ``include_non_joint_cliques=True``
    to keep such cliques (the most literal reading of the clustering
    narrative).  The result is sorted ascending by (size, frequency
    weight, area) -- ready for the covering stage.
    """
    tracer = tracer or NULL_TRACER
    cmatrix = cmatrix or ConnectivityMatrix.from_design(design)
    node_weights = cmatrix.node_weights()
    edge_weights = cmatrix.edges()

    graph: nx.Graph = nx.Graph()
    graph.add_nodes_from(cmatrix.mode_names)
    graph.add_edges_from(tuple(edge) for edge in edge_weights)

    partitions = []
    enumerated = filtered = 0
    for clique in nx.enumerate_all_cliques(graph):
        enumerated += 1
        if (
            not include_non_joint_cliques
            and len(clique) >= 3
            and cmatrix.group_weight(clique) == 0
        ):
            filtered += 1
            continue
        partitions.append(
            _partition_for(clique, design, cmatrix, node_weights, edge_weights)
        )
    partitions.sort(key=BasePartition.sort_key)
    tracer.count("clustering.cliques_enumerated", enumerated)
    tracer.count("clustering.cliques_filtered", filtered)
    tracer.gauge("clustering.base_partitions", len(partitions))
    return partitions


def verify_agglomeration_matches(
    design: PRDesign,
) -> tuple[set[frozenset[str]], set[frozenset[str]]]:
    """Cross-check: cliques from the incremental run vs direct enumeration.

    Returns the two clique sets (they must be equal modulo singletons,
    which the incremental narrative treats as the k=0 starting state).
    Used by tests as an internal consistency oracle.
    """
    cmatrix = ConnectivityMatrix.from_design(design)
    incremental: set[frozenset[str]] = {
        frozenset((m,)) for m in cmatrix.mode_names
    }
    for event in agglomerate(design, cmatrix):
        incremental.update(event.new_cliques)
    direct = {
        bp.modes
        for bp in enumerate_base_partitions(
            design, cmatrix, include_non_joint_cliques=True
        )
    }
    return incremental, direct


def partitions_by_label(partitions: Sequence[BasePartition]) -> dict[str, BasePartition]:
    """Index base partitions by canonical label (for reports and tests)."""
    return {bp.label: bp for bp in partitions}
