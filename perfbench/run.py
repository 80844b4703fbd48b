"""End-to-end and per-layer benchmark of the retrieval service.

Usage, from the repository root::

    python3 perfbench/run.py --workload http_mix_10k --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
untouched, in ``BLOCKS`` equal blocks of time (of ops on
``http_mix_10k``, see ``HTTP_OPS_PER_SECOND``).  Each metric is worked
out per block, and the run reports the slow quartile of the blocks
that the hypervisor stole little CPU time from (see ``SLOW_QUARTILE``).
``--trace 1`` alternates
untraced and traced blocks over the same op stream and reports the
per-layer metrics (see README.md).
Either way every answer is checked against an exact oracle after the
timed run, and the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Load is a closed loop with one caller that waits for every reply.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import resource
import sys
import time

import numpy as np

import context
import layers

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
#: The workloads BENCHMARK.json lists.
WORKLOADS = ("image_100k_sharded", "http_mix_10k")
#: Runnable but not listed: its interpreter-bound ~0.7 ms search tracks
#: the host's CPU speed modes, so ten-run spreads reach the 0.25 bound
#: (see README.md).  Kept for trace runs of the framework tax.
UNLISTED_WORKLOADS = ("image_1k",)
#: Set-up repeats before timing: at least the minimum, then more while
#: their total stays under the budget, so cheap set-ups get a steadier
#: median.
SETUP_REPEATS = (3, 60)
SETUP_BUDGET_S = 1.0
#: After each timed block, outside its time, more set-ups of throwaway
#: deployments while they fit in this many seconds.  The host's speed
#: changes over tens of seconds, so set-ups spread over the run see the
#: same mix of host speeds as the ops do, not just the run's first
#: second.
GAP_SETUP_BUDGET_S = 0.5
WARMUP_OPS = 40
#: ``http_mix_10k`` runs a fixed op sequence, this many ops per second
#: of ``--seconds`` (about its throughput on a 2-vCPU Xeon VM), rather
#: than ops for a fixed time: its stale cache answers, a known defect
#: counted as failed, then depend on the seed alone, so two runs with
#: one seed report the same attempted and failed counts.
HTTP_OPS_PER_SECOND = 130
BLOCKS = 10
#: Stolen CPU time (other guests running on this host's cores) delays
#: whichever ops it lands on and has been the main cause of
#: disagreement between identical runs, above all in the search p90.
#: A block that lost more than this share of its time to steal is left
#: out, but a run keeps at least ``KEPT_BLOCKS`` blocks, those least hit.
STEAL_LIMIT = 0.02
KEPT_BLOCKS = 5
#: The host also switches between a fast and a slow speed every 10-30 s
#: (README.md, Noise), so the share of a run spent at each speed, and
#: any average over its blocks, varies from run to run by up to 1.4x.
#: A run reports the slow quartile of its kept blocks' values: the 75th
#: percentile of the block latencies and the 25th of block throughputs.
#: That reads the slow speed in every run that spends a quarter of its
#: blocks there, and a change that makes every op faster or slower
#: moves it as much as it moves the mean.
SLOW_QUARTILE = 75
#: Calibration-loop repeats after each block (~25 ms each).
BLOCK_CALIBRATIONS = 3
END_TO_END_UNITS = {"ops_qps": "1/s", "search_p50_ms": "ms",
                    "search_p90_ms": "ms", "setup_s": "s", "rss_mb": "MB"}
PER_LAYER_UNITS = {
    "gateway.wire_ms": "ms", "gateway.cache_hit_share": "share",
    "gateway.repeat_share": "share", "service.self_ms": "ms",
    "obs.spans_per_op": "count", "obs.label_lookups_per_op": "count",
    "admission.acquire_ms": "ms", "embed.image_ms": "ms",
    "embed.text_ms": "ms", "materialize.ms": "ms",
    "index.query_ms": "ms", "index.rows_per_search": "count",
    "index.ns_per_row": "ns", "cluster.overhead_ms": "ms",
    "cluster.shard_skew_ms": "ms", "cluster.hedge_share": "calls/fanout",
    "merge.ms": "ms", "overlay.query_ms": "ms", "ingest.add_ms": "ms",
    "ingest_p50_ms": "ms", "ingest_p90_ms": "ms", "wal.append_ms": "ms",
    "wal.bytes_per_write": "bytes", "wal.fsyncs_per_write": "count",
    "compaction.fold_ms": "ms", "compaction.commit_ms": "ms",
    "compaction.canary_ms": "ms", "trace.overhead_pct": "%",
    "trace.unattributed_share": "share"}
UNITS = {**END_TO_END_UNITS, **PER_LAYER_UNITS}
#: Trace runs alternate untraced/traced blocks, this many of each, so
#: host drift hits both sides of the overhead comparison alike.
TRACE_BLOCK_PAIRS = 3


def _percentile_ms(values, q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def _build(name: str, world, seconds: int):
    import workloads
    if name == "image_1k":
        return workloads.ImageWorkload(world, 1_000, shards=1)
    if name == "image_100k_sharded":
        return workloads.ImageWorkload(world, 100_000, shards=2)
    return workloads.HttpMixWorkload(
        world, 10_000, op_count=WARMUP_OPS + HTTP_OPS_PER_SECOND * seconds,
        wal_dir=OUT / f"wal-{os.getpid()}")


def _run_block(workload, records: list, seconds: float, block: int,
               until: int | None = None, tracer=None) -> dict:
    """Closed loop for ``seconds``, or, when ``until`` is given, until
    only ``until`` of the workload's ops remain; returns the block's
    summary."""
    clock = time.perf_counter
    steal = context.cpu_steal_s()
    started = clock()
    end = started + seconds

    def going() -> bool:
        return (clock() < end if until is None
                else workload.remaining() > until)

    first = len(records)
    while going():
        op_id = len(records)
        if tracer is not None:
            tracer.begin_op(op_id, workload.next_kind())
        t0 = clock()
        record = workload.step()
        latency = clock() - t0
        if tracer is not None:
            tracer.end_op()
        record.update(id=op_id, latency=latency, block=block)
        records.append(record)
    elapsed = clock() - started
    stolen = context.cpu_steal_s()
    return {"traced": tracer is not None, "elapsed": elapsed,
            "records": records[first:],
            # Host speed right after the block, outside its time.
            "calibration_ms": context.calibrate(BLOCK_CALIBRATIONS) * 1e3,
            "steal_s": None if steal is None or stolen is None
            else stolen - steal}


def _spare_setups(workload, setups: list, budget: float) -> None:
    """Time builds of throwaway deployments while the next one is
    expected to end within ``budget`` seconds."""
    started = time.perf_counter()
    while (time.perf_counter() - started + float(np.median(setups))
           <= budget):
        began = time.perf_counter()
        deployment = workload.build()
        setups.append(time.perf_counter() - began)
        workload.discard(deployment)
        gc.collect()


def _kept(blocks: list) -> list[int]:
    """Indexes, in run order, of the blocks that lost at most
    ``STEAL_LIMIT`` of their time to steal, or of the ``KEPT_BLOCKS``
    least hit when fewer did; every block when steal cannot be read."""
    if any(b["steal_s"] is None for b in blocks):
        return list(range(len(blocks)))
    share = [b["steal_s"] / b["elapsed"] for b in blocks]
    ranked = sorted(range(len(blocks)), key=share.__getitem__)
    keep = max(KEPT_BLOCKS, sum(s <= STEAL_LIMIT for s in share))
    return sorted(ranked[:keep])


def _slow_quartile(values: list, name: str) -> float:
    """The ``SLOW_QUARTILE`` of block values: the high end of latencies,
    the low end of throughputs."""
    q = 100 - SLOW_QUARTILE if name == "ops_qps" else SLOW_QUARTILE
    return float(np.percentile(values, q))


def _throughput(blocks: list) -> float:
    return (sum(len(b["records"]) for b in blocks)
            / sum(b["elapsed"] for b in blocks))


def _search_latency(block: dict) -> dict:
    """Search p50/p90 over the searches of one block."""
    searches = [r["latency"] for r in block["records"]
                if r["kind"] == "search"]
    return {"search_p50_ms": _percentile_ms(searches, 50),
            "search_p90_ms": _percentile_ms(searches, 90),
            "searches": len(searches)}


def _steal_s(blocks: list) -> float | None:
    steals = [b["steal_s"] for b in blocks]
    return None if None in steals else sum(steals)


def _op_summary(records: list) -> dict:
    summary: dict[str, dict] = {}
    for record in records:
        entry = summary.setdefault(record["kind"],
                                   {"attempted": 0, "failed": 0})
        entry["attempted"] += 1
        entry["failed"] += record["wrong"] is not None
    return summary


def _failures(records: list) -> tuple[list, list, list]:
    """Every failed op, the ones the known stale-cache defect explains,
    and the rest: wrong answers, non-``ok`` statuses, HTTP errors and
    writes not acked as predicted alike.  Any of the rest makes the run
    incorrect."""
    wrong = [r for r in records if r["wrong"] is not None]
    stale = [r for r in wrong if r.get("stale_cache")]
    return wrong, stale, [r for r in wrong if not r.get("stale_cache")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + UNLISTED_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: the program is not at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import inputs  # imports the program, hence after the check

    OUT.mkdir(exist_ok=True)
    world = inputs.make_world(args.seed)
    workload = _build(args.workload, world, int(args.seconds))
    setups = []
    least, most = SETUP_REPEATS
    while len(setups) < least or (len(setups) < most
                                  and sum(setups) < SETUP_BUDGET_S):
        if setups:
            workload.teardown()
            gc.collect()
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)
    try:
        workload.connect()
        records: list[dict] = []
        for _ in range(WARMUP_OPS):
            record = workload.step()
            record["latency"], record["block"] = 0.0, -1
            records.append(record)
        tracer = None
        if args.trace:
            tracer = layers.LayerTracer()
            workload.plan(tracer)
        pattern = ([False, True] * TRACE_BLOCK_PAIRS if args.trace
                   else [False] * BLOCKS)
        left = workload.remaining()
        blocks = []
        for block, on in enumerate(pattern):
            until = (None if left is None else
                     left * (len(pattern) - block - 1) // len(pattern))
            if on:
                tracer.install()
            try:
                blocks.append(_run_block(
                    workload, records, args.seconds / len(pattern),
                    block, until, tracer if on else None))
            finally:
                if on:
                    tracer.uninstall()
            if not args.trace:
                _spare_setups(workload, setups, GAP_SETUP_BUDGET_S)
        workload.verify(records)
    finally:
        workload.teardown()

    untraced = [b for b in blocks if not b["traced"]]
    wrong, stale, unexplained = _failures(records)
    detail = {
        "context": context.record(
            ROOT, args.workload, args.seed, workload.num_rows,
            inputs.LATENT_DIM, _steal_s(blocks)),
        "ops": _op_summary(records),
        "stale_cache_answers": len(stale),
        "unexplained_failures": len(unexplained),
        "unexplained_failure_examples": [
            {"kind": r["kind"], "reason": r["wrong"]}
            for r in unexplained[:20]],
        "setup_s_all": setups,
    }
    if args.trace:
        ops = {i: {"kind": r["kind"], "ok": r["wrong"] is None}
               for i, r in enumerate(records)}
        traced_ops = {r["id"] for b in blocks if b["traced"]
                      for r in b["records"]}
        try:
            metrics, breakdown = layers.layer_metrics(
                tracer, ops, traced_ops, workload.expected, workload.mode)
        except layers.MissingLayer as exc:
            print(f"perfbench: harness failure: {exc}", file=sys.stderr)
            return 3
        http_searches = [r for r in records if r["block"] >= 0
                         and r["kind"] == "search" and "cache" in r]
        metrics["gateway.cache_hit_share"] = (
            sum(r["cache"] == "hit" for r in http_searches)
            / len(http_searches) if http_searches else 0.0)
        metrics["gateway.repeat_share"] = (
            sum(r["repeat"] for r in http_searches)
            / len(http_searches) if http_searches else 0.0)
        adds = [r["latency"] for b in untraced for r in b["records"]
                if r["kind"] == "ingest" and r["ok"]]
        metrics["ingest_p50_ms"] = _percentile_ms(adds, 50)
        metrics["ingest_p90_ms"] = _percentile_ms(adds, 90)
        qps = {on: _throughput([b for b in blocks if b["traced"] == on])
               for on in (False, True)}
        metrics["trace.overhead_pct"] = (qps[False] / qps[True] - 1) * 100
        detail["layer_share_of_op_wall"] = breakdown
        tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        kept = _kept(blocks)
        detail["blocks"] = [
            {"kept": i in kept, "steal_s": b["steal_s"],
             "calibration_ms": b["calibration_ms"],
             "ops_qps": _throughput([b]), **_search_latency(b)}
            for i, b in enumerate(blocks)]
        metrics = {name: _slow_quartile(
            [detail["blocks"][i][name] for i in kept], name)
            for name in ("ops_qps", "search_p50_ms", "search_p90_ms")}
        metrics["setup_s"] = float(np.median(setups))
        metrics["rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not unexplained,
        "attempted": len(records),
        "failed": len(wrong),
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
