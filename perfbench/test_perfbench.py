"""Tests for the benchmark itself: oracle, determinism, span accounting.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import dataclasses
import json
import pathlib
import threading

import numpy as np
import pytest

import inputs
import layers
import oracle
import run
import workloads

SEED = 5


@pytest.fixture(scope="module")
def world():
    return inputs.make_world(SEED)


def _traced_ops(workload, count):
    """Run ``count`` ops with the tracer installed; returns it."""
    tracer = layers.LayerTracer()
    workload.plan(tracer)
    tracer.install()
    try:
        for op_id in range(count):
            tracer.begin_op(op_id, workload.next_kind())
            workload.step()
            tracer.end_op()
    finally:
        tracer.uninstall()
    return tracer


# -- oracle -----------------------------------------------------------
def test_planted_wrong_answer_is_counted_failed(world):
    workload = workloads.ImageWorkload(world, 1_000, shards=1)
    workload.setup()
    records = [workload.step() for _ in range(6)]
    # Replace the best hit with another row: a plausible-looking but
    # wrong answer with the distances left untouched.
    query, status, ids, distances = list(workload.answers)[
        records[2]["answer"]]
    wrong = (query, status, (999 if ids[0] != 999 else 998,) + ids[1:],
             distances)
    records[2]["answer"] = workload.answers.setdefault(
        wrong, len(workload.answers))
    workload.verify(records)
    assert [r["wrong"] is not None for r in records] == \
        [False, False, True, False, False, False]
    assert run._op_summary(records) == {
        "search": {"attempted": 6, "failed": 1}}


def _http_replay(world, with_compaction, delete_ok=True):
    """A miss, a delete of its best hit, optionally a compaction, then
    a cache hit that repeats the miss's answer."""
    workload = workloads.HttpMixWorkload(world, 1_000, op_count=0,
                                         wal_dir=None)
    body = {"recipe_id": 3, "k": workloads.K}
    dist = oracle.distances(
        oracle.normalized(workload.rows.image_rows),
        workload.reference.recipe(world.dataset[3]))
    top = np.argsort(dist, kind="stable")[:workloads.K]
    victim = int(top[0])
    workload.ops = [inputs.Op("search", body),
                    inputs.Op("delete", {"item_id": victim},
                              item_id=victim),
                    inputs.Op("search", body, repeat=True)]

    def search(op, cache):
        return {"kind": "search", "op": op, "http": 200, "ok": True,
                "status": "ok", "cache": cache, "ids": top.tolist(),
                "distances": dist[top].tolist()}

    records = [search(0, "miss"),
               {"kind": "delete", "op": 1, "http": 200, "ok": True,
                "status": "ok", "item_id": victim}]
    if not delete_ok:
        records[1].update(http=503, ok=False, status="queue_full")
    if with_compaction:
        records.append({"kind": "compact", "ok": True, "status": "ok"})
    records.append(search(2, "hit"))
    workload.verify(records)
    return records


def test_stale_cache_hit_is_failed_but_explained(world):
    records = _http_replay(world, with_compaction=False)
    assert [r["wrong"] is not None for r in records] == \
        [False, False, True]
    wrong, stale, unexplained = run._failures(records)
    assert stale == [records[-1]] and wrong == stale and not unexplained


def test_stale_hit_across_a_compaction_is_unexplained(world):
    records = _http_replay(world, with_compaction=True)
    wrong, stale, unexplained = run._failures(records)
    assert wrong == [records[-1]] and not stale
    assert unexplained == [records[-1]]


def test_failed_write_makes_the_run_incorrect(world):
    records = _http_replay(world, with_compaction=False, delete_ok=False)
    assert records[1]["wrong"] == "http 503 queue_full"
    # The delete never happened, so the cached answer is still right.
    assert records[2]["wrong"] is None
    _, _, unexplained = run._failures(records)
    assert unexplained == [records[1]]


def test_oracle_accepts_ties_and_rejects_distance_drift():
    ids = np.arange(5)
    dist = np.array([0.3, 0.1, 0.1 + 5e-10, 0.5, 0.2])
    assert oracle.check([2, 1, 4], [0.1 + 5e-10, 0.1, 0.2], ids, dist,
                        3) is None
    assert oracle.check([1, 2, 0], [0.1, 0.1, 0.3], ids, dist, 3)
    assert oracle.check([1, 2, 4], [0.1, 0.1, 0.2 + 1e-8], ids, dist, 3)
    assert oracle.check([1, 2], [0.1, 0.1], ids, dist, 3)
    assert oracle.check([1, 7, 4], [0.1, 0.1, 0.2], ids, dist, 3)


# -- determinism ------------------------------------------------------
def test_same_seed_yields_identical_op_sequence(world):
    again = inputs.make_world(SEED)
    np.testing.assert_array_equal(world.image_pool, again.image_pool)
    first = inputs.make_http_ops(world, 10_000, 600)
    assert first == inputs.make_http_ops(again, 10_000, 600)
    other = dataclasses.replace(world, seed=SEED + 1)
    assert first != inputs.make_http_ops(other, 10_000, 600)
    kinds = [op.kind for op in first]
    assert {"search", "ingest", "delete"} == set(kinds)
    # Every delete names an item that is live at that point.
    live = set(range(10_000))
    for op in first:
        if op.kind == "ingest":
            live.add(op.item_id)
        elif op.kind == "delete":
            assert op.item_id in live
            live.remove(op.item_id)


class _FixedOps:
    """A workload with a fixed op sequence of ``count`` instant ops."""

    def __init__(self, count):
        self.left = count

    def remaining(self):
        return self.left

    def step(self):
        self.left -= 1
        return {"kind": "search"}


def test_fixed_op_sequence_runs_whole_whatever_the_time():
    # Blocks of a fixed sequence end on op counts, never on the clock,
    # so a run's attempted and failed counts depend on the seed alone.
    workload, records = _FixedOps(25), []
    sizes = []
    for block, until in enumerate((17, 8, 0)):
        summary = run._run_block(workload, records, 0.0, block, until)
        sizes.append(len(summary["records"]))
    assert sizes == [8, 9, 8] and len(records) == 25
    assert workload.remaining() == 0


def test_runs_keep_unstolen_blocks_and_report_the_slow_quartile():
    blocks = [{"steal_s": steal, "elapsed": 1.0}
              for steal in (0.0, 0.5, 0.01, 0.3, 0.0, 0.2, 0.0, 0.1, 0.0,
                            0.4)]
    # Five blocks stole at most 2%; the 0.1 s one joins them only to
    # make up the minimum when one of them is gone.
    assert run._kept(blocks) == [0, 2, 4, 6, 8]
    blocks[8]["steal_s"] = 0.05
    assert run._kept(blocks) == [0, 2, 4, 6, 8]
    blocks[8]["steal_s"] = 0.15
    assert run._kept(blocks) == [0, 2, 4, 6, 7]
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert run._slow_quartile(values, "search_p50_ms") == 4.0
    assert run._slow_quartile(values, "ops_qps") == 2.0


# -- span accounting --------------------------------------------------
def _span(name, start, end, parent, op=0):
    return layers.Span(op, name, 1, start, end, parent,
                       0 if parent is None else parent.depth + 1)


def test_exclusive_times_split_parallel_children_and_sum_to_wall():
    root = _span("op", 0.0, 10.0, None)
    a = _span("a", 1.0, 5.0, root)
    b = _span("b", 2.0, 4.0, a)
    c = _span("c", 6.0, 9.0, root)
    d = _span("d", 6.0, 8.0, root)
    charges = layers.exclusive_times(root, [a, b, c, d], "unattributed")
    assert charges == pytest.approx(
        {"unattributed": 3.0, "a": 2.0, "b": 2.0, "c": 2.0, "d": 1.0})
    assert sum(charges.values()) == pytest.approx(10.0, abs=1e-12)


def test_traced_op_self_times_sum_to_wall_time(world):
    workload = workloads.ImageWorkload(world, 2_000, shards=2)
    workload.setup()
    tracer = _traced_ops(workload, 12)
    for op_id, root in tracer.roots.items():
        spans = [s for s in tracer.spans
                 if s.op == op_id and s is not root]
        assert {s.name for s in spans} >= {
            "service.search", "embed.image", "cluster.query",
            "index.query", "merge", "materialize"}
        charges = layers.exclusive_times(root, spans, "unattributed")
        # Tolerance: float rounding of the sweep's edge arithmetic.
        assert sum(charges.values()) == pytest.approx(root.duration,
                                                      abs=1e-9)


def test_shard_worker_calls_are_attributed_to_their_op(world):
    workload = workloads.ImageWorkload(world, 2_000, shards=2)
    workload.setup()
    tracer = _traced_ops(workload, 10)
    main = threading.get_ident()
    scans = [s for s in tracer.spans if s.name == "index.query"]
    assert len(scans) >= 2 * 10
    for scan in scans:
        root = tracer.roots[scan.op]
        assert root.start <= scan.start <= root.end
        assert scan.thread != main
        parent = scan.parent
        while parent.name != "cluster.query":
            parent = parent.parent
        assert parent.op == scan.op and parent.thread == main


def test_late_thread_keeps_the_op_that_started_it():
    class Layer:
        def call(self):
            return 1

    tracer = layers.LayerTracer()
    tracer.timed(Layer, "call", "layer")
    go = threading.Event()
    tracer.install()
    try:
        tracer.begin_op(0, "search")
        worker = threading.Thread(target=lambda: (go.wait(5),
                                                  Layer().call()))
        worker.start()
        tracer.end_op()
        tracer.begin_op(1, "search")
        go.set()
        worker.join(timeout=5)
        Layer().call()
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert not worker.is_alive()
    assert sorted(s.op for s in tracer.spans if s.name == "layer") == [0, 1]
    assert Layer.call.__name__ == "call"  # the original is back


def test_layer_with_zero_calls_is_a_harness_failure(world):
    workload = workloads.ImageWorkload(world, 1_000, shards=1)
    workload.setup()
    tracer = _traced_ops(workload, 3)
    ops = {i: {"kind": "search", "ok": True} for i in range(3)}
    with pytest.raises(layers.MissingLayer, match="cluster.query"):
        layers.layer_metrics(tracer, ops, set(ops),
                             workload.expected + ["cluster.query"],
                             "inproc")


def test_benchmark_json_lists_exactly_what_runs_print():
    spec = json.loads((pathlib.Path(run.ROOT) / "BENCHMARK.json")
                      .read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert not set(run.UNLISTED_WORKLOADS) & set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER_UNITS
