"""The three workloads: deployment set-up, one op at a time, checking.

Each workload builds deployments from generated inputs (:meth:`build`,
the timed ``setup_s``; :meth:`setup` keeps one to serve, :meth:`discard`
releases a throwaway one), executes its op sequence one op per
:meth:`step` call, names the layer entry points it runs
(:meth:`plan`), and checks every answer against the oracle
(:meth:`verify`).
"""

from __future__ import annotations

import http.client
import json
import shutil

import numpy as np

import inputs
import oracle
from repro.core.engine import RecipeSearchEngine
from repro.data.schema import Recipe
from repro.obs import metrics as obs_metrics
from repro.obs.tracing import Tracer
from repro.retrieval import NearestNeighborIndex
from repro.serving import (Gateway, GatewayConfig, IngestConfig,
                           ResilientSearchService, ServiceConfig)
from repro.serving import cluster as cluster_module
from repro.serving import ingest as ingest_module
from repro.serving import service as service_module
from repro.serving import wal as wal_module
from repro.serving.cluster import IndexCluster
from repro.serving.ingest import DeltaOverlay, Ingestor
from repro.serving.wal import DeltaLog

K = inputs.SEARCH_K
#: Acked writes between two ``compact_ingest`` calls.
COMPACT_EVERY = 96


def _rows_ranked(args, kwargs):
    """``(rows ranked, shard signature)`` of one ``query_positions``."""
    index = args[0]
    mask = kwargs.get("mask")
    rows = len(index) if mask is None else int(np.count_nonzero(mask))
    signature = (len(index), int(index.ids[0]) if len(index) else -1)
    return rows, signature


def _engine(world: inputs.World, rows: inputs.CorpusRows
            ) -> RecipeSearchEngine:
    """The engine over prebuilt indexes (building them is set-up)."""
    ids = np.arange(len(rows.corpus))
    classes = rows.corpus.true_class_ids
    return RecipeSearchEngine(
        world.model, world.featurizer, world.dataset, rows.corpus,
        indexes=(NearestNeighborIndex(rows.image_rows, ids, classes),
                 NearestNeighborIndex(rows.recipe_rows, ids, classes)))


class _CountingOs:
    """Stands in for ``os`` inside :mod:`repro.serving.wal` so the
    tracer can count ``fsync`` calls; everything else passes through."""

    def __init__(self, real, count_calls):
        self._real = real
        self.fsync = count_calls(real.fsync, "wal.fsync")

    def __getattr__(self, name):
        return getattr(self._real, name)


def plan_common(tracer, service) -> None:
    """Wrappers every workload installs: service, obs, admission,
    engine, index."""
    for method in ("search_by_image", "search_by_recipe",
                   "search_by_ingredients", "search_without"):
        tracer.timed(ResilientSearchService, method, "service.search")
    tracer.counted(Tracer, "span", "obs.span")
    tracer.counted(obs_metrics._Family, "labels", "obs.labels")
    tracer.timed(service.admission, "acquire", "admission.acquire")
    tracer.timed(RecipeSearchEngine, "embed_image", "embed.image")
    tracer.timed(RecipeSearchEngine, "embed_recipe", "embed.text")
    tracer.timed(RecipeSearchEngine, "embed_ingredients", "embed.text")
    tracer.timed(RecipeSearchEngine, "materialize", "materialize")
    tracer.timed(NearestNeighborIndex, "query_positions", "index.query",
                 info=_rows_ranked)
    # merge_topk is imported by name: wrap it where it is looked up.
    for module in (cluster_module, ingest_module):
        tracer.timed(module, "merge_topk", "merge")


class ImageWorkload:
    """In-process ``search_by_image`` calls, k=10, over ``num_rows``."""

    mode = "inproc"

    def __init__(self, world: inputs.World, num_rows: int, shards: int):
        self.world = world
        self.num_rows = num_rows
        self.shards = shards
        self.rows = inputs.make_corpus(world, num_rows)
        self.images = inputs.make_query_images(world)
        # The answer key's query vectors, before anything is timed.
        self.query_vectors = oracle.ReferenceEmbedder(
            world.model, world.featurizer, self.rows.corpus
        ).images(self.images)
        rng = np.random.default_rng([world.seed, 4])
        self.order = rng.permutation(len(self.images))
        self.cursor = 0
        self.service = None
        #: Distinct ``(query, status, ids, distances)`` answers; an op
        #: record holds only its answer's index, so the benchmark's own
        #: memory does not grow with the op count (and with speed).
        self.answers: dict[tuple, int] = {}
        self.expected = ["service.search", "obs.span", "obs.labels",
                         "admission.acquire", "embed.image",
                         "materialize", "index.query"]
        if shards > 1:
            self.expected += ["cluster.query", "merge"]

    def build(self) -> ResilientSearchService:
        return ResilientSearchService(_engine(self.world, self.rows),
                                      ServiceConfig(shards=self.shards))

    def discard(self, service: ResilientSearchService) -> None:
        """An in-process service holds nothing beyond memory."""

    def setup(self) -> None:
        self.service = self.build()

    def connect(self) -> None:
        """In-process calls need no connection."""

    def teardown(self) -> None:
        self.service = None

    def plan(self, tracer) -> None:
        plan_common(tracer, self.service)
        tracer.timed(IndexCluster, "query", "cluster.query")

    def remaining(self) -> None:
        """Queries cycle: the run is bounded by time, not by ops."""
        return None

    def next_kind(self) -> str:
        return "search"

    def step(self) -> dict:
        query = int(self.order[self.cursor % len(self.order)])
        self.cursor += 1
        response = self.service.search_by_image(self.images[query], k=K)
        status = response.outcome.status
        answer = (query, status,
                  tuple(r.corpus_row for r in response.results),
                  tuple(r.distance for r in response.results))
        return {"kind": "search", "ok": response.ok and status == "ok",
                "answer": self.answers.setdefault(answer,
                                                  len(self.answers))}

    def verify(self, records: list[dict]) -> None:
        """Mark each record ``wrong`` (reason) against the oracle."""
        rows = oracle.normalized(self.rows.recipe_rows)
        ids = np.arange(self.num_rows)
        verdicts = []
        for query, status, answer_ids, distances in self.answers:
            if status != "ok":
                verdicts.append(f"status {status}")
                continue
            verdicts.append(oracle.check(
                answer_ids, distances, ids, oracle.distances(
                    rows, self.query_vectors[query]), K))
        for record in records:
            record["wrong"] = verdicts[record["answer"]]


class HttpMixWorkload:
    """Searches, ingests and deletes through one keep-alive HTTP
    connection to an in-process gateway over ``num_rows``."""

    mode = "http"

    def __init__(self, world: inputs.World, num_rows: int, op_count: int,
                 wal_dir):
        self.world = world
        self.num_rows = num_rows
        self.rows = inputs.make_corpus(world, num_rows)
        self.ops = inputs.make_http_ops(world, num_rows, op_count)
        self.reference = oracle.ReferenceEmbedder(
            world.model, world.featurizer, self.rows.corpus)
        #: One write-ahead log directory per build, under ``wal_dir``.
        self.wal_dir = wal_dir
        self.builds = 0
        self.deployment = None
        self.cursor = 0
        self.writes = 0
        self.compact_due = False
        self.gateway = self.service = self.conn = None
        self.expected = ["service.search", "obs.span",
                         "obs.labels", "admission.acquire", "embed.text",
                         "materialize", "index.query", "merge",
                         "overlay.query", "ingest.add", "wal.append",
                         "wal.fsync", "compaction.fold",
                         "compaction.commit", "compaction.canary"]

    def build(self) -> tuple:
        self.builds += 1
        wal = self.wal_dir / str(self.builds)
        # Compaction runs at fixed write counts from step(), never on
        # the background timer.
        service = ResilientSearchService(
            _engine(self.world, self.rows), ServiceConfig(),
            ingest_log=wal,
            ingest_config=IngestConfig(compact_at_delta_rows=None))
        return service, Gateway(service, GatewayConfig()).start(), wal

    def discard(self, deployment: tuple) -> None:
        service, gateway, wal = deployment
        gateway.drain(reason="benchmark teardown")
        if service.ingestor is not None:
            service.ingestor.close()
        shutil.rmtree(wal, ignore_errors=True)

    def setup(self) -> None:
        self.deployment = self.build()
        self.service, self.gateway, _ = self.deployment

    def connect(self) -> None:
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", self.gateway.port, timeout=30.0)

    def teardown(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.deployment is not None:
            self.discard(self.deployment)
        self.deployment = self.gateway = self.service = None
        shutil.rmtree(self.wal_dir, ignore_errors=True)

    def plan(self, tracer) -> None:
        plan_common(tracer, self.service)
        for method, name in (("ingest", "service.ingest"),
                             ("delete", "service.delete"),
                             ("compact_ingest", "service.compact")):
            tracer.timed(ResilientSearchService, method, name)
        tracer.timed(service_module._IngestEngine, "materialize",
                     "materialize")
        tracer.timed(DeltaOverlay, "query_keys", "overlay.query")
        tracer.timed(Ingestor, "add", "ingest.add")
        tracer.timed(Ingestor, "delete", "ingest.delete")
        tracer.timed(Ingestor, "begin_compaction", "compaction.fold")
        tracer.timed(Ingestor, "commit_compaction", "compaction.commit")
        tracer.timed(service_module, "run_canaries", "compaction.canary")
        tracer.timed(DeltaLog, "append", "wal.append",
                     info=lambda args, kwargs: len(args[1]))
        tracer.replace(wal_module, "os",
                       _CountingOs(wal_module.os, tracer.count_calls))

    def remaining(self) -> int:
        """Ops left to run, a due compaction included.  The run sends
        every op, so which ops run, and hence which answers are stale,
        depends on the seed alone and not on the host's speed."""
        return len(self.ops) - self.cursor + self.compact_due

    def next_kind(self) -> str:
        if self.compact_due:
            return "compact"
        return self.ops[self.cursor].kind

    def step(self) -> dict:
        if self.compact_due:
            self.compact_due = False
            report = self.service.compact_ingest()
            return {"kind": "compact", "ok": report.ok,
                    "status": "ok" if report.ok else "; ".join(
                        report.failures)}
        index = self.cursor
        op = self.ops[index]
        self.cursor += 1
        path = "/search" if op.kind == "search" else f"/{op.kind}"
        self.conn.request("POST", path, body=json.dumps(op.body),
                          headers={"Content-Type": "application/json"})
        reply = self.conn.getresponse()
        body = json.loads(reply.read())
        record = {"kind": op.kind, "op": index, "http": reply.status,
                  "ok": reply.status == 200}
        if op.kind == "search":
            record["cache"] = reply.getheader("X-Cache")
            record["repeat"] = op.repeat
            record["status"] = body.get("status", body.get("error"))
            record["ok"] = record["ok"] and body.get("status") == "ok"
            results = body.get("results", [])
            record["ids"] = [r["corpus_row"] for r in results]
            record["distances"] = [r["distance"] for r in results]
        else:
            record["status"] = body.get("status")
            record["item_id"] = body.get("item_id")
            record["ok"] = record["ok"] and body.get("status") == "ok" \
                and body.get("item_id") == op.item_id
            if record["ok"]:
                self.writes += 1
                self.compact_due = self.writes % COMPACT_EVERY == 0
        return record

    def verify(self, records: list[dict]) -> None:
        """Replay every op against an independent model of the live
        rows; mark failed ops ``wrong`` and name stale cache hits.

        Query and item vectors come from the reference embedder.
        """
        capacity = self.num_rows + sum(1 for op in self.ops
                                       if op.kind == "ingest")
        vectors = np.zeros((capacity, self.rows.image_rows.shape[1]))
        vectors[:self.num_rows] = oracle.normalized(self.rows.image_rows)
        alive = np.zeros(capacity, dtype=bool)
        alive[:self.num_rows] = True
        queries: dict[str, np.ndarray] = {}
        last_miss: dict[str, tuple[dict, int, int]] = {}
        writes = compactions = 0
        for record in records:
            if record["kind"] == "compact":
                compactions += 1
                record["wrong"] = (None if record["ok"]
                                   else record["status"])
                continue
            op = self.ops[record["op"]]
            if op.kind == "ingest":
                if record["ok"]:
                    payload = op.body["recipe"]
                    recipe = Recipe(
                        recipe_id=payload["recipe_id"],
                        title=payload["title"], class_id=None,
                        true_class_id=payload["true_class_id"],
                        ingredients=payload["ingredients"],
                        instructions=payload["instructions"],
                        image=np.zeros((3, 1, 1)))
                    vectors[op.item_id] = oracle.normalized(
                        self.reference.recipe(recipe)[None])[0]
                    alive[op.item_id] = True
                    writes += 1
                record["wrong"] = None if record["ok"] else \
                    f"http {record['http']} {record['status']}"
                continue
            if op.kind == "delete":
                if record["ok"]:
                    alive[op.item_id] = False
                    writes += 1
                record["wrong"] = None if record["ok"] else \
                    f"http {record['http']} {record['status']}"
                continue
            if not record["ok"]:
                record["wrong"] = f"http {record['http']} " \
                                  f"{record['status']}"
                continue
            key = json.dumps(op.body, sort_keys=True)
            if key not in queries:
                if "ingredients" in op.body:
                    vector = self.reference.ingredients(
                        op.body["ingredients"])
                else:
                    vector = self.reference.recipe(
                        self.world.dataset[op.body["recipe_id"]])
                queries[key] = vector
            live = np.flatnonzero(alive)
            dist = oracle.distances(vectors[live], queries[key])
            record["wrong"] = oracle.check(record["ids"],
                                           record["distances"], live,
                                           dist, K)
            if record["cache"] == "hit":
                # The known defect: a cached answer outlives acked
                # writes until compaction bumps the generation.  A hit
                # that outlives a compaction is a different defect.
                source = last_miss.get(key)
                record["stale_cache"] = bool(
                    record["wrong"] and source is not None
                    and source[0]["wrong"] is None
                    and source[0]["ids"] == record["ids"]
                    and source[0]["distances"] == record["distances"]
                    and source[1] < writes and source[2] == compactions)
            else:
                last_miss[key] = (record, writes, compactions)

