"""Connectivity-matrix tests, anchored to the paper's Sec. IV-C example."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.matrix import ConnectivityMatrix, connectivity_matrix
from repro.eval.example_design import EXPECTED_MATRIX, EXPECTED_MODE_ORDER

from ..conftest import make_design


@pytest.fixture
def cm(paper_example):
    return ConnectivityMatrix.from_design(paper_example)


class TestPaperExample:
    def test_exact_matrix(self, cm):
        assert cm.mode_names == EXPECTED_MODE_ORDER
        assert (cm.matrix == np.array(EXPECTED_MATRIX, dtype=np.int8)).all()

    def test_shape(self, cm):
        assert cm.n_configurations == 5
        assert cm.n_modes == 8

    def test_node_weights_from_paper(self, cm):
        weights = cm.node_weights()
        # Paper: node weight of A1 is 2, of B2 is 4.
        assert weights["A1"] == 2
        assert weights["B2"] == 4
        assert cm.node_weight("A2") == 1

    def test_edge_weights_from_paper(self, cm):
        # Paper: W(A1, B1) = 1 and W(B2, C3) = 2.
        assert cm.edge_weight("A1", "B1") == 1
        assert cm.edge_weight("B2", "C3") == 2
        assert cm.edge_weight("A1", "A2") == 0  # same module, never co-occur

    def test_edges_only_positive(self, cm):
        edges = cm.edges()
        assert frozenset(("B2", "C3")) in edges
        assert frozenset(("A1", "A2")) not in edges
        assert all(w > 0 for w in edges.values())
        assert len(edges) == 13  # the 13 pairs of Table I

    def test_edge_weight_matrix_diagonal_is_node_weight(self, cm):
        W = cm.edge_weight_matrix()
        for j, name in enumerate(cm.mode_names):
            assert W[j, j] == cm.node_weight(name)

    def test_edge_weight_matrix_symmetric(self, cm):
        W = cm.edge_weight_matrix()
        assert (W == W.T).all()


class TestQueries:
    def test_group_weight(self, cm):
        assert cm.group_weight(["A3", "B2", "C3"]) == 1
        assert cm.group_weight(["B2", "C3"]) == 2
        assert cm.group_weight(["A1", "B2", "C1"]) == 0  # pairwise only
        assert cm.group_weight([]) == 0

    def test_configurations_containing(self, cm):
        assert cm.configurations_containing(["B2", "C3"]) == ("Conf.1", "Conf.5")
        assert cm.configurations_containing([]) == ()

    def test_co_occur(self, cm):
        assert cm.co_occur("A3", "B2")
        assert not cm.co_occur("A1", "A3")

    def test_self_edge_rejected(self, cm):
        with pytest.raises(ValueError):
            cm.edge_weight("A1", "A1")

    def test_unknown_mode(self, cm):
        with pytest.raises(KeyError):
            cm.column("Z9")
        with pytest.raises(KeyError):
            cm.row("Conf.77")

    def test_row_and_column(self, cm):
        assert cm.row("Conf.3") == 2
        assert cm.column("B2") == 4


class TestConstruction:
    def test_matrix_readonly(self, cm):
        with pytest.raises(ValueError):
            cm.matrix[0, 0] = 1

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ConnectivityMatrix(
                mode_names=("a",),
                configuration_names=("c",),
                matrix=np.zeros((2, 1), dtype=np.int8),
            )

    def test_unused_modes_get_no_column(self):
        d = make_design(
            {"A": {"a1": (1, 0, 0), "ghost": (1, 0, 0)}, "B": {"b1": (1, 0, 0)}},
            [("a1", "b1")],
        )
        cm = connectivity_matrix(d)
        assert "ghost" not in cm.mode_names
        assert cm.n_modes == 2

    def test_render_contains_all_labels(self, cm):
        text = cm.render()
        for label in EXPECTED_MODE_ORDER:
            assert label in text
        assert "Conf.1" in text
