"""Rank computation for cross-modal retrieval.

Queries are rows of a distance matrix whose diagonal holds the
matching item (the paper's protocol: every query's ground truth is its
own pair in the other modality).
"""

from __future__ import annotations

import numpy as np

__all__ = ["ranks_of_matches", "rank_items"]


def ranks_of_matches(distances: np.ndarray) -> np.ndarray:
    """1-based rank of each query's matching item.

    ``distances[i, j]`` is the distance from query ``i`` to candidate
    ``j``; the match of query ``i`` is candidate ``i``. Ties are broken
    pessimistically (the match ranks after equal-distance candidates),
    which makes reported metrics conservative.
    """
    distances = np.asarray(distances)
    n, m = distances.shape
    if n != m:
        raise ValueError(f"expected a square matrix, got {distances.shape}")
    match_distance = np.diag(distances)[:, None]
    better = (distances < match_distance).sum(axis=1)
    ties = (distances == match_distance).sum(axis=1) - 1  # exclude the match
    return better + ties + 1


def rank_items(distances_row: np.ndarray, k: int | None = None) -> np.ndarray:
    """Candidate indices sorted by increasing distance (top-``k``).

    Always equal to ``np.argsort(distances_row, kind="stable")[:k]``:
    ties break by index, NaN sorts last and ``-0.0`` ties with ``0.0``.
    For ``0 < k < len(distances_row)`` it gets there without a full
    sort: one ``argpartition`` finds the ``k``-th smallest distance,
    and only the candidates at or below it are sorted.  This is the one
    top-k selection the index and the delta overlay rank with.
    """
    distances_row = np.asarray(distances_row)
    if k is None or not 0 < k < len(distances_row):
        return np.argsort(distances_row, kind="stable")[:k]
    kth = distances_row[np.argpartition(distances_row, k - 1)[k - 1]]
    if np.isnan(kth):
        # Fewer than k non-NaN candidates: every one of them is in,
        # followed by NaN rows in index order -- the full sort's tail.
        return np.argsort(distances_row, kind="stable")[:k]
    pool = np.flatnonzero(distances_row <= kth)
    # ``pool`` ascends, so a stable sort breaks ties by index.
    return pool[np.argsort(distances_row[pool], kind="stable")[:k]]
