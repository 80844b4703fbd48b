"""Exact nearest-neighbour index over latent embeddings.

Backs the qualitative experiments (Tables 2, 4, 5) and the serving
layer: retrieve the closest images for an arbitrary query vector,
optionally constrained to one semantic class (the paper's "within the
class pizza" search).

The exact scan has three parts:

* **Storage.**  Rows are kept column-major: ``embeddings`` is one
  Fortran-ordered ``(N, d)`` array, so each feature column is a
  contiguous stream for the kernel.  There is exactly one copy; it is
  writable in place, and every derived index (:meth:`subset`,
  :meth:`clone`, :meth:`append_rows`,
  :meth:`NearestNeighborIndex.from_normalized`) copies the bits
  verbatim into the same layout.
* **Kernel.**  :func:`~repro.retrieval.distance.cosine_distances_to`
  accumulates over the ``d`` columns in a fixed order, so an index
  built over any row subset returns bitwise-identical distances for
  those rows -- the invariant the sharded cluster
  (:mod:`repro.serving.cluster`) relies on to merge per-shard top-k
  into exactly the monolithic result.
* **Selection.**  Every row is scored in place (no gather of the
  candidate rows); class filters and liveness masks then pick from
  the distance vector, and :func:`~repro.retrieval.ranking.rank_items`
  selects the top ``k`` with a partial sort that equals a stable
  argsort.

:meth:`NearestNeighborIndex.query_batch` runs the same kernel over
bounded chunks of queries and the same selection per query, so each
of its rows is bitwise-equal to :meth:`NearestNeighborIndex.query`.
"""

from __future__ import annotations

import numpy as np

from .distance import cosine_distances_to, normalize_rows
from .ranking import rank_items

__all__ = ["NearestNeighborIndex"]

#: Cells of one ``(queries, rows)`` distance block in
#: :meth:`NearestNeighborIndex.query_batch` (8 MB of float64).
_BATCH_CELLS = 1 << 20


def _column_major(rows: np.ndarray) -> np.ndarray:
    """A column-major float64 copy of ``rows``, bits verbatim."""
    return np.array(rows, dtype=np.float64, order="F")


class NearestNeighborIndex:
    """Brute-force cosine index with optional per-item class metadata."""

    def __init__(self, embeddings: np.ndarray,
                 ids: np.ndarray | None = None,
                 class_ids: np.ndarray | None = None):
        self.embeddings = _column_major(normalize_rows(embeddings))
        n = len(self.embeddings)
        self.ids = (np.arange(n) if ids is None
                    else np.asarray(ids, dtype=np.int64))
        if len(self.ids) != n:
            raise ValueError("ids must align with embeddings")
        self.class_ids = (None if class_ids is None
                          else np.asarray(class_ids, dtype=np.int64))
        if self.class_ids is not None and len(self.class_ids) != n:
            raise ValueError("class_ids must align with embeddings")

    @classmethod
    def from_normalized(cls, embeddings: np.ndarray,
                        ids: np.ndarray,
                        class_ids: np.ndarray | None = None
                        ) -> "NearestNeighborIndex":
        """Adopt already-normalized rows verbatim (no re-normalize).

        The constructor normalizes, which is correct for raw vectors
        but moves the last ulp of rows that are already unit-norm —
        re-normalization is not bitwise idempotent.  Snapshot loaders
        (streaming-ingest base folds) use this path so a round trip
        through disk reproduces distances bit for bit.
        """
        dup = object.__new__(cls)
        dup.embeddings = _column_major(embeddings)
        if dup.embeddings.ndim != 2:
            raise ValueError("embeddings must be 2-D")
        dup.ids = np.asarray(ids, dtype=np.int64).copy()
        if len(dup.ids) != len(dup.embeddings):
            raise ValueError("ids must align with embeddings")
        dup.class_ids = (None if class_ids is None
                         else np.asarray(class_ids, dtype=np.int64).copy())
        if (dup.class_ids is not None
                and len(dup.class_ids) != len(dup.embeddings)):
            raise ValueError("class_ids must align with embeddings")
        return dup

    def __len__(self) -> int:
        return len(self.embeddings)

    # ------------------------------------------------------------------
    # Derived indexes (sharding / replica repair)
    # ------------------------------------------------------------------
    def subset(self, positions: np.ndarray,
               relabel: np.ndarray | None = None) -> "NearestNeighborIndex":
        """A new index over the rows at ``positions``.

        The already-normalized embedding rows are copied verbatim —
        re-normalizing near-unit rows can move the last ulp, which
        would break the shard/monolith bitwise-identity contract.
        ``relabel`` substitutes new ids for the subset (the cluster
        relabels shard items with their global row positions so merged
        results can be tie-broken and mapped back exactly).
        """
        positions = np.asarray(positions, dtype=np.int64)
        dup = object.__new__(NearestNeighborIndex)
        # Taking columns of the C-ordered (d, N) transpose keeps the
        # column-major layout without an intermediate row gather.
        dup.embeddings = np.take(self.embeddings.T, positions, axis=1).T
        if relabel is None:
            dup.ids = self.ids[positions].copy()
        else:
            dup.ids = np.asarray(relabel, dtype=np.int64).copy()
            if len(dup.ids) != len(positions):
                raise ValueError("relabel must align with positions")
        dup.class_ids = (None if self.class_ids is None
                         else self.class_ids[positions].copy())
        return dup

    def clone(self) -> "NearestNeighborIndex":
        """Deep copy with embeddings copied verbatim (no re-normalize).

        Used by cluster anti-entropy to rebuild a dead or corrupted
        replica from a healthy sibling without disturbing a single bit
        of the surviving data.
        """
        return self.subset(np.arange(len(self.embeddings)))

    def append_rows(self, rows: np.ndarray, ids: np.ndarray,
                    class_ids: np.ndarray | None = None
                    ) -> "NearestNeighborIndex":
        """A new index with ``rows`` appended — copied verbatim.

        ``rows`` must already be unit-normalized (the caller normalized
        them exactly once, at ingest time); like :meth:`subset`, this
        path never re-normalizes, so folding a delta overlay into a new
        base cannot perturb a single existing distance bit.  ``ids``
        aligns with ``rows``; ``class_ids`` is required iff the base
        carries class metadata.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.embeddings.shape[1]:
            raise ValueError(
                f"rows must be (n, {self.embeddings.shape[1]}); "
                f"got {rows.shape}")
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) != len(rows):
            raise ValueError("ids must align with rows")
        dup = object.__new__(NearestNeighborIndex)
        n = len(self.embeddings)
        dup.embeddings = np.empty((n + len(rows), rows.shape[1]),
                                  order="F")
        dup.embeddings[:n] = self.embeddings
        dup.embeddings[n:] = rows
        dup.ids = np.concatenate([self.ids, ids])
        if self.class_ids is None:
            if class_ids is not None:
                raise ValueError("index built without class metadata")
            dup.class_ids = None
        else:
            if class_ids is None:
                raise ValueError(
                    "class_ids required: index carries class metadata")
            class_ids = np.asarray(class_ids, dtype=np.int64)
            if len(class_ids) != len(rows):
                raise ValueError("class_ids must align with rows")
            dup.class_ids = np.concatenate([self.class_ids, class_ids])
        return dup

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def pool_size(self, class_id: int | None = None) -> int:
        """Number of candidates a query with this ``class_id`` ranks.

        This is the upper bound on how many results :meth:`query` can
        return for that constraint; callers needing exactly ``k``
        results should check it (or pass ``strict=True``).
        """
        if class_id is None:
            return len(self.embeddings)
        if self.class_ids is None:
            raise ValueError("index built without class metadata")
        return int(np.count_nonzero(self.class_ids == class_id))

    def _candidates(self, k: int, class_id: int | None,
                    strict: bool,
                    mask: np.ndarray | None = None) -> np.ndarray | None:
        """Candidate row positions, or ``None`` when every row is one."""
        if k < 1:
            raise ValueError("k must be >= 1")
        keep = None
        if class_id is not None:
            if self.class_ids is None:
                raise ValueError("index built without class metadata")
            keep = self.class_ids == class_id
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if len(mask) != len(self.embeddings):
                raise ValueError("mask must align with embeddings")
            keep = mask if keep is None else keep & mask
        candidates = None if keep is None else np.flatnonzero(keep)
        pool = (len(self.embeddings) if candidates is None
                else candidates.size)
        if strict and pool < k:
            raise ValueError(
                f"k={k} exceeds the candidate pool of {pool}"
                + ("" if class_id is None else f" for class {class_id}"))
        return candidates

    def query(self, vector: np.ndarray, k: int = 5,
              class_id: int | None = None, strict: bool = False,
              mask: np.ndarray | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` ``(ids, distances)`` for one query vector.

        ``class_id`` restricts candidates to one class (requires the
        index to have been built with ``class_ids``).

        Contract: returns ``min(k, pool)`` pairs, where ``pool`` is
        the candidate count for the constraint (see
        :meth:`pool_size`) — a class-filtered pool smaller than ``k``
        yields fewer results rather than padding with junk; an *empty*
        pool yields an empty pair.  Pass ``strict=True`` to raise
        :class:`ValueError` instead whenever ``k`` exceeds the pool.

        Ties are broken by candidate position (as a stable sort would),
        so equal distances resolve to the lower row — the same order
        the cluster's merge reproduces across shards.  NaN distances
        (a corrupted row) rank last.

        ``mask`` is an optional per-row liveness filter aligned with
        the embedding rows; masked-out rows are excluded from the
        candidate pool (the streaming-ingest overlay uses it to hide
        tombstoned base rows without touching the frozen arrays).
        """
        candidates, distances = self.query_positions(
            vector, k=k, class_id=class_id, strict=strict, mask=mask)
        return self.ids[candidates], distances

    def query_positions(self, vector: np.ndarray, k: int = 5,
                        class_id: int | None = None,
                        strict: bool = False,
                        mask: np.ndarray | None = None
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` ``(row positions, distances)`` for one vector.

        Same contract as :meth:`query` but returns raw row positions
        instead of ids — the form the delta overlay merges on, since
        positions are the tie-break key of the cluster's
        ``(distance, position)`` lexsort.
        """
        candidates = self._candidates(k, class_id, strict, mask=mask)
        if candidates is not None and candidates.size == 0:
            return (np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.float64))
        return self._select(cosine_distances_to(self.embeddings, vector),
                            candidates, k)

    @staticmethod
    def _select(distances: np.ndarray, candidates: np.ndarray | None,
                k: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` ``(positions, distances)`` of one row's scores."""
        if candidates is not None:
            distances = distances[candidates]
        order = rank_items(distances, k)
        positions = order if candidates is None else candidates[order]
        return positions, distances[order]

    def query_batch(self, vectors: np.ndarray, k: int = 5,
                    class_id: int | None = None, strict: bool = False,
                    mask: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` for a whole batch of queries.

        ``vectors`` is ``(B, d)``; returns ``(ids, distances)`` each of
        shape ``(B, min(k, pool))``, row ``b`` bitwise-equal to what
        :meth:`query` gives for ``vectors[b]``: the queries go through
        the same kernel in chunks of at most ``_BATCH_CELLS`` distances,
        and each row through the same selection.  Pool semantics match
        :meth:`query`: an empty pool yields ``(B, 0)`` arrays unless
        ``strict``.
        """
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError(
                f"vectors must be 2-D (batch, dim); got {vectors.shape}")
        candidates = self._candidates(k, class_id, strict, mask=mask)
        pool = (len(self.embeddings) if candidates is None
                else candidates.size)
        width = min(k, pool)
        ids = np.empty((len(vectors), width), dtype=np.int64)
        distances = np.empty((len(vectors), width), dtype=np.float64)
        if width == 0:
            return ids, distances
        chunk = max(1, _BATCH_CELLS // len(self.embeddings))
        for start in range(0, len(vectors), chunk):
            block = cosine_distances_to(self.embeddings,
                                        vectors[start:start + chunk])
            for row, scores in enumerate(block, start):
                positions, distances[row] = self._select(
                    scores, candidates, k)
                ids[row] = self.ids[positions]
        return ids, distances
