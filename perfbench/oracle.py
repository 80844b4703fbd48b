"""Independent exact top-k: the answer key every search is checked on.

The oracle ranks with one BLAS matrix product over freshly normalized
rows, a different code path from the program's shape-stable per-row
reduction, shard merge and delta overlay.  An answer is right when it
has ``min(k, live rows)`` results, each distance is within ``TOL`` of
the oracle's distance at that rank, and each returned id is live and
its own oracle distance is within ``TOL`` of that rank's distance --
so ids may differ from the oracle only among distances tied within
``TOL``.

Query and item vectors come from :class:`ReferenceEmbedder`, which
calls the seeded model's forward pass directly, so a serving-side embed
defect (bad cache key, skipped normalization, wrong cast) shows up as
wrong answers instead of being repeated by the check.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import no_grad

TOL = 1e-9


class ReferenceEmbedder:
    """Vectors from the featurizer and the model's own embed calls,
    bypassing ``RecipeSearchEngine`` and everything serving wraps."""

    def __init__(self, model, featurizer, corpus):
        self.model = model
        self.featurizer = featurizer
        # The fridge-query instruction slot: the mean of every real
        # sentence vector of the corpus.
        real = (np.arange(corpus.sentence_vectors.shape[1])[None, :]
                < corpus.sentence_lengths[:, None]).astype(np.float64)
        self.mean_sentence = np.tensordot(
            real, corpus.sentence_vectors, axes=([0, 1], [0, 1])
        ) / max(int(corpus.sentence_lengths.sum()), 1)

    def images(self, images: np.ndarray) -> np.ndarray:
        with no_grad():
            return self.model.embed_images(
                np.asarray(images, dtype=np.float64)).data

    def _text(self, ids, n_ing, sentences, n_sent) -> np.ndarray:
        with no_grad():
            return self.model.embed_recipes(
                ids[None, :], np.array([max(n_ing, 1)]),
                sentences[None, :, :], np.array([max(n_sent, 1)])).data[0]

    def recipe(self, recipe) -> np.ndarray:
        return self._text(*self.featurizer.encode_recipe(recipe))

    def ingredients(self, names: list[str]) -> np.ndarray:
        vocab = self.featurizer.ingredient_vocab
        tokens = [name.replace(" ", "_") for name in names
                  if name.replace(" ", "_") in vocab]
        sentences = np.zeros((self.featurizer.max_sentences,
                              len(self.mean_sentence)))
        sentences[0] = self.mean_sentence
        return self._text(
            vocab.encode_padded(tokens, self.featurizer.max_ingredients),
            len(tokens), sentences, 1)


def normalized(rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def distances(rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Cosine distance from ``query`` to every (unit) row."""
    query = np.asarray(query, dtype=np.float64)
    return 1.0 - rows @ (query / np.linalg.norm(query))


def check(answer_ids, answer_distances, ids: np.ndarray,
          dist: np.ndarray, k: int) -> str | None:
    """``None`` when the answer is right, else why it is wrong.

    ``ids`` (ascending) and ``dist`` are every live item and its
    oracle distance.
    """
    answer_ids = np.asarray(answer_ids, dtype=np.int64)
    answer_distances = np.asarray(answer_distances, dtype=np.float64)
    want = min(k, len(ids))
    if len(answer_ids) != want or len(answer_distances) != want:
        return f"{len(answer_ids)} results, expected {want}"
    if len(set(answer_ids.tolist())) != want:
        return "duplicate ids"
    top = np.partition(dist, want - 1)[:want] if want else dist[:0]
    top.sort()
    if not np.all(np.abs(answer_distances - top) <= TOL):
        rank = int(np.argmax(np.abs(answer_distances - top) > TOL))
        return (f"rank {rank}: distance {answer_distances[rank]!r}, "
                f"oracle {top[rank]!r}")
    where_all = np.searchsorted(ids, answer_ids)
    for rank, item in enumerate(answer_ids.tolist()):
        where = int(where_all[rank])
        if where >= len(ids) or ids[where] != item:
            return f"rank {rank}: id {item} is not live"
        if abs(dist[where] - top[rank]) > TOL:
            return (f"rank {rank}: id {item} is at oracle distance "
                    f"{dist[where]!r}, rank distance is {top[rank]!r}")
    return None
