"""Linear-model operator."""

from __future__ import annotations

import numpy as np

from flock.mlgraph.ops import register


@register("linear")
def linear(attrs: dict, inputs: list[np.ndarray]) -> list[np.ndarray]:
    """``X @ weights + bias``.

    ``weights`` is ``(d,)`` (vector output) or ``(d, k)``; ``bias`` is a
    scalar or ``(k,)``.

    Computed with einsum rather than ``@``: BLAS picks different kernels
    (and therefore different float summation orders) by matrix shape, so
    ``(X @ W)[i]`` need not bit-match ``X[i:j] @ W``. einsum reduces each
    row with one fixed-order loop, making scoring invariant under row
    slicing — so a key served alone, in a serving micro-batch or on one
    shard of a scatter scores to the same bits as in a full-table PREDICT.
    """
    (matrix,) = inputs
    weights = np.asarray(attrs["weights"], dtype=np.float64)
    bias = np.asarray(attrs["bias"], dtype=np.float64)
    matrix = np.asarray(matrix, dtype=np.float64)
    if weights.ndim == 1:
        return [np.einsum("nk,k->n", matrix, weights) + bias]
    return [np.einsum("nk,km->nm", matrix, weights) + bias]
