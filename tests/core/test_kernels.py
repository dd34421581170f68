"""Cost kernels and the merge search's scalar switch statistics.

The encoded kernels are checked against scalar loops; the merge
search's switch-pair loops are checked against the strict and lenient
pair definitions, enumerated pair by pair.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.allocation import (
    _Group,
    _overlay_stats,
    _switch_pair_counts,
    _weighted_switch_sums,
)
from repro.core.kernels import NONE_ID, encode_activity, pairwise_frames_matrix


def _random_activity(rng, n, labels=("a", "b", "c", "d")):
    pool = list(labels) + [None]
    return tuple(pool[rng.integers(len(pool))] for _ in range(n))


def _reference_sums(activity, weight):
    """(strict, lenient) by definition: over every unordered pair, strict
    adds ``weight(i, j)`` when the entries differ (``None`` is a value),
    lenient when they differ and both are non-``None``."""
    strict = lenient = 0
    for i, j in itertools.combinations(range(len(activity)), 2):
        a, b = activity[i], activity[j]
        if a != b:
            strict += weight(i, j)
            if a is not None and b is not None:
                lenient += weight(i, j)
    return strict, lenient


def _group(activity, requirement=(0, 0, 0)):
    return _Group(
        members=(),
        activity=activity,
        usage=0,
        requirement=requirement,
        frames=0,
        footprint=(0, 0, 0),
        switch_pairs_strict=0,
        switch_pairs_lenient=0,
        signature=frozenset(),
        mask=0,
    )


class TestEncodeActivity:
    def test_none_maps_to_sentinel(self):
        codec: dict[str, int] = {}
        ids = encode_activity(("x", None, "y", "x"), codec)
        assert ids.tolist() == [0, NONE_ID, 1, 0]
        assert codec == {"x": 0, "y": 1}

    def test_codec_grows_and_is_stable(self):
        codec: dict[str, int] = {}
        first = encode_activity(("p", "q"), codec)
        second = encode_activity(("q", "r", "p"), codec)
        assert first.tolist() == [0, 1]
        assert second.tolist() == [1, 2, 0]

    def test_shared_codec_makes_vectors_comparable(self):
        codec: dict[str, int] = {}
        a = encode_activity(("m", None, "n"), codec)
        b = encode_activity(("m", "n", None), codec)
        assert (a == b).tolist() == [True, False, False]


class TestOverlayStats:
    def test_overlay_prefers_active_side(self):
        a = _group(("x", None, None, "y"), (30, 4, 0))
        b = _group((None, "z", None, None), (10, 8, 9))
        activity, requirement, frames, footprint, strict, lenient = (
            _overlay_stats(a, b, None)
        )
        assert activity == ("x", "z", None, "y")
        assert requirement == (30, 8, 9)
        # 2 CLB tiles, 2 BRAM tiles, 2 DSP tiles (Eqs. 3-6).
        assert footprint == (40, 8, 16)
        assert frames == 2 * 36 + 2 * 30 + 2 * 28
        assert (strict, lenient) == _switch_pair_counts(activity)

    def test_symmetric_for_disjoint_vectors(self):
        a = _group(("x", None, "x"), (5, 0, 0))
        b = _group((None, "y", None), (0, 3, 0))
        W = np.array([[0.0, 0.5, 0.25], [0.5, 0.0, 0.125], [0.25, 0.125, 0.0]])
        for weights in (None, W):
            assert _overlay_stats(a, b, weights) == _overlay_stats(
                b, a, weights
            )


class TestSwitchPairCounts:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_scalar_reference(self, seed):
        rng = np.random.default_rng(seed)
        activity = _random_activity(rng, int(rng.integers(2, 25)))
        assert _switch_pair_counts(activity) == _reference_sums(
            activity, lambda i, j: 1
        )

    def test_exact_ints(self):
        strict, lenient = _switch_pair_counts(("a", "b", None, "a", None, "c"))
        assert isinstance(strict, int) and isinstance(lenient, int)
        assert (strict, lenient) == (13, 5)


class TestWeightedSwitchSums:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_scalar_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 25))
        activity = _random_activity(rng, n)
        W = rng.random((n, n))
        W = W + W.T
        # Same terms in the same order, so the float sums are equal.
        assert _weighted_switch_sums(activity, W) == _reference_sums(
            activity, lambda i, j: float(W[i, j])
        )

    def test_empty_vector(self):
        assert _weighted_switch_sums((), np.zeros((0, 0))) == (0.0, 0.0)


class TestPairwiseFramesMatrix:
    def _brute(self, table, frames, lenient):
        C = len(table)
        out = np.zeros((C, C), dtype=np.int64)
        for i, j in itertools.combinations(range(C), 2):
            cost = 0
            for r, f in enumerate(frames):
                a, b = table[i][r], table[j][r]
                if lenient:
                    pays = a is not None and b is not None and a != b
                else:
                    pays = a != b
                if pays:
                    cost += f
            out[i, j] = out[j, i] = cost
        return out

    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("lenient", [True, False])
    def test_matches_brute_force(self, seed, lenient):
        rng = np.random.default_rng(200 + seed)
        C = int(rng.integers(1, 8))
        R = int(rng.integers(1, 6))
        table = [_random_activity(rng, R) for _ in range(C)]
        frames = [int(rng.integers(10, 500)) for _ in range(R)]
        codec: dict[str, int] = {}
        ids = np.stack([encode_activity(row, codec) for row in table])
        got = pairwise_frames_matrix(
            ids, np.array(frames, dtype=np.int64), lenient
        )
        assert (got == self._brute(table, frames, lenient)).all()

    def test_zero_configurations(self):
        got = pairwise_frames_matrix(
            np.empty((0, 3), dtype=np.int32),
            np.array([1, 2, 3], dtype=np.int64),
            lenient=True,
        )
        assert got.shape == (0, 0)

