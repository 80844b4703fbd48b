"""Cosine distances over plain numpy embeddings (evaluation path).

Training-time distances live in :mod:`repro.autograd.functional`; this
module is the inference/evaluation twin operating on raw arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = ["normalize_rows", "cosine_distance_matrix", "cosine_distance",
           "cosine_distances_to"]


def normalize_rows(x: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """L2-normalize each row of ``x``."""
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    return x / np.maximum(norms, eps)


def cosine_distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs cosine distance: (n, d) x (m, d) -> (n, m)."""
    return 1.0 - normalize_rows(a) @ normalize_rows(b).T


def cosine_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cosine distance between two aligned matrices."""
    a = normalize_rows(a)
    b = normalize_rows(b)
    return 1.0 - (a * b).sum(axis=-1)


def cosine_distances_to(rows: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Cosine distance from a query ``vector`` to each unit-norm row.

    ``rows`` is ``(N, d)`` and must already be L2-normalized (index
    embeddings are).  ``vector`` is one query of ``d`` values, giving
    ``(N,)`` distances, or a ``(B, d)`` batch, giving ``(B, N)``; row
    ``b`` of a batch is bitwise-equal to querying ``vector[b]`` alone.

    The kernel is a fixed-order accumulation over the ``d`` feature
    columns: ``acc = col0 * q0``, then ``acc += colj * qj`` for
    ``j = 1 .. d-1`` through one scratch buffer, then ``1 - acc``.
    Every distance is the same sequence of IEEE multiplies and adds
    over its own row's values, so neither the other rows (a shard's
    subset, an appended tail) nor the memory layout of ``rows`` can
    move a bit.  That shape-independence is what lets a sharded index
    return distances bitwise-identical to the monolithic one.  A BLAS
    matmul/gemv is faster per flop but picks its kernel, blocking and
    summation order by matrix shape and alignment, so a row subset
    rounds differently in the last ulp.  Column-major ``rows`` (the
    index's layout) make every column a contiguous stream.
    """
    rows = np.asarray(rows, dtype=np.float64)
    vector = np.asarray(vector, dtype=np.float64)
    single = vector.ndim != 2
    # A C-contiguous (B, d) block normalizes each query row exactly as
    # a lone (1, d) query is normalized.
    queries = normalize_rows(np.ascontiguousarray(
        vector.reshape(1, -1) if single else vector))
    if queries.shape[1] != rows.shape[1]:
        raise ValueError(f"queries have {queries.shape[1]} features, "
                         f"rows have {rows.shape[1]}")
    acc = np.multiply(queries[:, :1], rows[:, 0])
    scratch = np.empty_like(acc)
    for j in range(1, rows.shape[1]):
        np.multiply(queries[:, j:j + 1], rows[:, j], out=scratch)
        acc += scratch
    np.subtract(1.0, acc, out=acc)
    return acc[0] if single else acc
