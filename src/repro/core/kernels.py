"""Vectorized cost kernels over integer-encoded activity vectors.

The cost model (paper Eqs. 7-11) evaluates, for every configuration
pair, the frames rewritten by switching between them.  This module
encodes activity vectors -- "which partition label is active in each
configuration" -- as small numpy int arrays (one id per label, ``-1``
for ``None``) and evaluates the all-pairs transition matrix in one
broadcast.  The result is exact ints, bit-identical to the scalar
per-pair walk.

The merge search in :mod:`repro.core.allocation` does not use these
arrays: its switch statistics are plain Python pair loops, which are
at least as fast at the configuration counts the design generators
produce (docs/PERFORMANCE.md).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Sentinel id for "region unused in this configuration" (``None`` labels).
NONE_ID = -1


def encode_activity(
    activity: Sequence[str | None], codec: dict[str, int]
) -> np.ndarray:
    """Encode an activity vector as an int32 id array.

    ``codec`` maps labels to dense non-negative ids and grows on first
    sight of a label; ``None`` encodes as :data:`NONE_ID`.  One codec must
    be shared by every vector that will be compared element-wise.
    """
    ids = np.empty(len(activity), dtype=np.int32)
    for i, label in enumerate(activity):
        if label is None:
            ids[i] = NONE_ID
        else:
            code = codec.get(label)
            if code is None:
                code = len(codec)
                codec[label] = code
            ids[i] = code
    return ids


def pairwise_frames_matrix(
    ids: np.ndarray, frames: np.ndarray, lenient: bool
) -> np.ndarray:
    """All-pairs transition-cost matrix (Eq. 8 for every config pair).

    ``ids`` is a (configs x regions) encoded activity table, ``frames``
    the per-region frame footprint.  Entry ``[i, j]`` is the frames
    rewritten switching configuration ``i`` -> ``j``; the matrix is
    symmetric with a zero diagonal.  Under the lenient policy a region
    only pays when both sides use it with different content.
    """
    A = np.asarray(ids)
    F = np.asarray(frames, dtype=np.int64)
    if A.shape[0] == 0:
        return np.zeros((0, 0), dtype=np.int64)
    diff = A[:, None, :] != A[None, :, :]
    if lenient:
        valid = A >= 0
        diff &= valid[:, None, :] & valid[None, :, :]
    return diff.astype(np.int64) @ F
