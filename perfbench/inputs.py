"""Seeded inputs for every workload: model, corpus rows, op sequences.

Everything here is a pure function of the seed and runs before timing
starts.  The program under test only ever receives the generated
inputs (images, recipes, ingredient lists, row matrices).

Corpus rows are not encoded one by one (100k text embeds would take
minutes).  Instead a pool of real model outputs is computed once, over
every recipe of a small synthetic dataset, and each corpus row is one
pool output plus seeded Gaussian noise, renormalized.  Rows are
therefore distinct, and they lie in the region the model maps queries
and ingested items to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.scenarios import build_model
from repro.data import DatasetConfig, RecipeFeaturizer, generate_dataset
from repro.data.encoding import EncodedCorpus

LATENT_DIM = 32
IMAGE_SIZE = 24
NUM_CLASSES = 16
DATASET_PAIRS = 1000
#: Row noise as a multiple of the pool's per-dimension spread: large
#: enough that no two rows tie, small enough that rows stay in the
#: region real model outputs occupy.
ROW_NOISE = 0.35
QUERY_IMAGES = 512
IMAGE_QUERY_NOISE = 0.05


@dataclass
class World:
    """The model, its featurizer, a dataset and the model's outputs."""

    seed: int
    dataset: object
    featurizer: RecipeFeaturizer
    model: object
    encoded: EncodedCorpus
    image_pool: np.ndarray
    recipe_pool: np.ndarray


def make_world(seed: int) -> World:
    """Dataset, fitted featurizer and a seeded, untrained model."""
    dataset = generate_dataset(DatasetConfig(
        num_pairs=DATASET_PAIRS, num_classes=NUM_CLASSES,
        image_size=IMAGE_SIZE, train_fraction=0.3, val_fraction=0.1,
        seed=seed))
    featurizer = RecipeFeaturizer(seed=seed).fit(dataset)
    model = build_model(featurizer, NUM_CLASSES, IMAGE_SIZE,
                        latent_dim=LATENT_DIM, backbone="hist", seed=seed)
    model.eval()
    encoded = featurizer.encode_corpus(dataset, np.arange(len(dataset)))
    image_pool, recipe_pool = model.encode_corpus(encoded)
    return World(seed, dataset, featurizer, model, encoded,
                 image_pool, recipe_pool)


@dataclass
class CorpusRows:
    """``num_rows`` corpus items: both embeddings plus engine metadata."""

    image_rows: np.ndarray
    recipe_rows: np.ndarray
    corpus: EncodedCorpus


def _noisy_rows(pool: np.ndarray, picks: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
    scale = ROW_NOISE * float(pool.std(axis=0).mean())
    rows = pool[picks] + rng.normal(0.0, scale,
                                    size=(len(picks), pool.shape[1]))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def make_corpus(world: World, num_rows: int) -> CorpusRows:
    """Distinct corpus rows near the model's outputs.

    Row ``i`` materializes as dataset recipe ``i % len(dataset)``.  The
    per-row pixel and sentence-vector arrays, which serving never reads
    once indexes are given, are zero-stride views so the run's memory
    is the indexes' and not a 1 GB pixel block's.
    """
    rng = np.random.default_rng([world.seed, num_rows, 1])
    picks = np.arange(num_rows) % len(world.dataset)
    enc = world.encoded
    corpus = EncodedCorpus(
        ingredient_ids=enc.ingredient_ids[picks],
        ingredient_lengths=enc.ingredient_lengths[picks],
        sentence_vectors=np.broadcast_to(
            enc.sentence_vectors[:1],
            (num_rows,) + enc.sentence_vectors.shape[1:]),
        sentence_lengths=enc.sentence_lengths[picks],
        images=np.broadcast_to(enc.images[:1],
                               (num_rows,) + enc.images.shape[1:]),
        class_ids=enc.class_ids[picks],
        true_class_ids=enc.true_class_ids[picks],
        recipe_indices=enc.recipe_indices[picks])
    return CorpusRows(_noisy_rows(world.image_pool, picks, rng),
                      _noisy_rows(world.recipe_pool, picks, rng), corpus)


def make_query_images(world: World) -> np.ndarray:
    """Dish photos to search with: dataset images plus pixel noise."""
    rng = np.random.default_rng([world.seed, 2])
    picks = rng.integers(0, len(world.dataset), size=QUERY_IMAGES)
    images = np.stack([world.dataset[int(i)].image for i in picks])
    images = images + rng.normal(0.0, IMAGE_QUERY_NOISE, images.shape)
    return np.clip(images, 0.0, 1.0)


# ----------------------------------------------------------------------
# The http_mix_10k op sequence
# ----------------------------------------------------------------------
SEARCH_SHARE = 0.75
INGEST_SHARE = 0.20             # the remaining 0.05 are deletes
REPEAT_SHARE = 0.25             # searches that repeat a recent query
RECENT_WINDOW = 8
RECIPE_ID_SHARE = 0.3           # fresh searches by recipe_id
SEARCH_K = 10


@dataclass(frozen=True)
class Op:
    """One client operation; ``body`` is the JSON request body."""

    kind: str                   # search | ingest | delete
    body: dict
    repeat: bool = False        # search repeating an earlier query
    item_id: int | None = None  # id an ingest will get / a delete hits


def _ingredient_names(world: World) -> list[str]:
    vocab = world.featurizer.ingredient_vocab
    names = set()
    for recipe in world.dataset.recipes:
        names.update(name for name in recipe.ingredients
                     if name.replace(" ", "_") in vocab)
    return sorted(names)


def make_http_ops(world: World, base_rows: int, count: int) -> list[Op]:
    """A seeded mix of searches, ingests and deletes.

    Item ids are predicted the way the service assigns them (one past
    the largest id ever seen), so deletes always name a live item and
    every op can succeed.  Ingested recipes have distinct ingredient
    lists, so no two ingested rows coincide.
    """
    rng = np.random.default_rng([world.seed, 3])
    names = _ingredient_names(world)
    recipes = world.dataset.recipes
    live = list(range(base_rows))
    next_id = base_rows
    recent: list[dict] = []
    seen_lists: set[tuple] = set()
    fresh_recipe_ids = rng.permutation(len(recipes))
    fresh_cursor = 0
    ops: list[Op] = []
    for _ in range(count):
        roll = rng.random()
        if roll < SEARCH_SHARE:
            if recent and rng.random() < REPEAT_SHARE:
                body = recent[int(rng.integers(len(recent)))]
                ops.append(Op("search", body, repeat=True))
                continue
            if rng.random() < RECIPE_ID_SHARE:
                recipe_id = int(fresh_recipe_ids[fresh_cursor
                                                 % len(recipes)])
                fresh_cursor += 1
                body = {"recipe_id": recipe_id, "k": SEARCH_K}
            else:
                size = int(rng.integers(2, 5))
                picked = rng.choice(len(names), size=size, replace=False)
                body = {"ingredients": [names[i] for i in picked],
                        "k": SEARCH_K}
            recent = (recent + [body])[-RECENT_WINDOW:]
            ops.append(Op("search", body))
        elif roll < SEARCH_SHARE + INGEST_SHARE:
            while True:
                size = int(rng.integers(3, 9))
                picked = tuple(sorted(
                    rng.choice(len(names), size=size, replace=False)))
                if picked not in seen_lists:
                    seen_lists.add(picked)
                    break
            template = recipes[int(rng.integers(len(recipes)))]
            body = {"recipe": {
                "recipe_id": f"ingest-{next_id}",
                "title": f"streamed {template.title}",
                "true_class_id": int(template.true_class_id),
                "ingredients": [names[i] for i in picked],
                "instructions": list(template.instructions)}}
            ops.append(Op("ingest", body, item_id=next_id))
            live.append(next_id)
            next_id += 1
        else:
            victim = live.pop(int(rng.integers(len(live))))
            ops.append(Op("delete", {"item_id": victim}, item_id=victim))
    return ops
