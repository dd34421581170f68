"""Connectivity matrix and occurrence weights (paper Sec. IV-C).

The connectivity matrix has one row per configuration and one column per
*active* mode; element (i, j) is 1 when mode j is part of configuration i.
From it we derive:

* the **node weight** of a mode -- its column sum (how many configurations
  use it), and
* the **edge weight** ``W_ij`` between two modes -- the number of
  configurations in which both appear.

Modes of the same module never co-occur, so the co-occurrence graph is
multipartite over modules; that bound is what keeps clique enumeration
cheap in the clustering stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .model import PRDesign


@dataclass(frozen=True)
class ConnectivityMatrix:
    """The 0/1 configurations x modes matrix plus derived weights.

    ``matrix`` is a read-only ``numpy`` array of shape
    ``(len(configurations), len(modes))`` with dtype ``int8``.
    """

    mode_names: tuple[str, ...]
    configuration_names: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        expected = (len(self.configuration_names), len(self.mode_names))
        if self.matrix.shape != expected:
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match "
                f"{expected} (configurations x modes)"
            )
        self.matrix.setflags(write=False)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_design(cls, design: PRDesign) -> "ConnectivityMatrix":
        """Build the matrix over the design's active modes.

        Column order follows module declaration order then mode order,
        matching the paper's presentation (A1 A2 A3 B1 B2 C1 C2 C3).
        Modes appearing in no configuration get no column (Sec. IV-D:
        "no column is allocated for zero modes").
        """
        modes = tuple(m.name for m in design.active_modes)
        index = {name: j for j, name in enumerate(modes)}
        data = np.zeros((len(design.configurations), len(modes)), dtype=np.int8)
        for i, config in enumerate(design.configurations):
            for mode_name in config.modes:
                data[i, index[mode_name]] = 1
        return cls(
            mode_names=modes,
            configuration_names=tuple(c.name for c in design.configurations),
            matrix=data,
        )

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def n_configurations(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[1]

    def column(self, mode_name: str) -> int:
        try:
            return self.mode_names.index(mode_name)
        except ValueError:
            raise KeyError(f"mode {mode_name!r} has no matrix column") from None

    def row(self, configuration_name: str) -> int:
        try:
            return self.configuration_names.index(configuration_name)
        except ValueError:
            raise KeyError(f"unknown configuration {configuration_name!r}") from None

    # ------------------------------------------------------------------
    # weights
    # ------------------------------------------------------------------
    def node_weights(self) -> dict[str, int]:
        """Columnar sums: how often each mode occurs across configurations."""
        sums = self.matrix.sum(axis=0)
        return {name: int(sums[j]) for j, name in enumerate(self.mode_names)}

    def node_weight(self, mode_name: str) -> int:
        return int(self.matrix[:, self.column(mode_name)].sum())

    def edge_weight_matrix(self) -> np.ndarray:
        """``W[i, j]`` = number of configurations containing both modes.

        Computed as ``M^T @ M`` with the diagonal giving node weights;
        callers interested only in edges should ignore the diagonal.
        """
        m = self.matrix.astype(np.int32)
        return m.T @ m

    def edge_weight(self, mode_a: str, mode_b: str) -> int:
        """Co-occurrence count of two modes (0 when never concurrent)."""
        a, b = self.column(mode_a), self.column(mode_b)
        if a == b:
            raise ValueError(f"edge weight of a mode with itself ({mode_a!r})")
        cols = self.matrix[:, a] & self.matrix[:, b]
        return int(cols.sum())

    def edges(self) -> dict[frozenset[str], int]:
        """All positive-weight edges as ``{frozenset({a, b}): weight}``."""
        weights = self.edge_weight_matrix()
        out: dict[frozenset[str], int] = {}
        n = self.n_modes
        for i in range(n):
            for j in range(i + 1, n):
                w = int(weights[i, j])
                if w > 0:
                    out[frozenset((self.mode_names[i], self.mode_names[j]))] = w
        return out

    # ------------------------------------------------------------------
    # queries used by clustering / covering
    # ------------------------------------------------------------------
    def group_weight(self, modes: Iterable[str]) -> int:
        """Number of configurations containing *all* of ``modes`` jointly."""
        cols = [self.column(m) for m in modes]
        if not cols:
            return 0
        joint = self.matrix[:, cols].all(axis=1)
        return int(joint.sum())

    def configurations_containing(self, modes: Iterable[str]) -> tuple[str, ...]:
        """Names of configurations that include every mode of ``modes``."""
        cols = [self.column(m) for m in modes]
        if not cols:
            return ()
        joint = self.matrix[:, cols].all(axis=1)
        return tuple(
            name for i, name in enumerate(self.configuration_names) if joint[i]
        )

    def co_occur(self, mode_a: str, mode_b: str) -> bool:
        """True when the two modes appear together in some configuration."""
        return self.edge_weight(mode_a, mode_b) > 0

    # ------------------------------------------------------------------
    # presentation
    # ------------------------------------------------------------------
    def render(self) -> str:
        """ASCII rendering in the paper's layout (configs as rows)."""
        width = max((len(n) for n in self.mode_names), default=1)
        header_label = max(
            (len(n) for n in self.configuration_names), default=1
        )
        lines = [
            " " * header_label
            + "  "
            + " ".join(f"{n:>{width}}" for n in self.mode_names)
        ]
        for i, cname in enumerate(self.configuration_names):
            cells = " ".join(f"{int(v):>{width}}" for v in self.matrix[i])
            lines.append(f"{cname:<{header_label}}  {cells}")
        return "\n".join(lines)


def connectivity_matrix(design: PRDesign) -> ConnectivityMatrix:
    """Module-level convenience wrapper for :meth:`from_design`."""
    return ConnectivityMatrix.from_design(design)
