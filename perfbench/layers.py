"""Per-layer tracing from the benchmark's own files.

:class:`LayerTracer` swaps timing wrappers in for the public functions
each layer exposes, records one span per call, and swaps the originals
back.  Nothing in the program changes; while the tracer is not
installed the program runs its own code untouched.

With one caller in a closed loop only one op is in flight, so every
wrapped call that starts while op *n* is open belongs to op *n*,
whatever thread makes it (gateway handler, shard worker, hedge lane).
A call's parent is the innermost open span on its own thread; a
thread with no open span inherits the span that was innermost on the
thread that started it.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, defaultdict

import numpy as np

#: How the exclusive-time sweep charges an op root's own time.  On the
#: wire workload the root is the client's HTTP request, so its self
#: time is the gateway's (client, socket, parse, routing, cache).
ROOT_LAYER = {"http": "gateway", "inproc": "unattributed"}
_ABSENT = object()


def _lookup(owner, attr: str):
    """The function to wrap: a class's own attribute (not a bound
    method), or a module's or an instance's attribute."""
    return vars(owner)[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


class Span:
    """One recorded call (or one op root when ``name == "op"``), as the
    analysis sees it; ``parent`` is the parent :class:`Span`."""

    __slots__ = ("op", "name", "thread", "start", "end", "parent",
                 "depth", "info")

    def __init__(self, op, name, thread, start, end, parent, depth,
                 info=None):
        self.op = op
        self.name = name
        self.thread = thread
        self.start = start
        self.end = end
        self.parent = parent
        self.depth = depth
        self.info = info

    @property
    def duration(self) -> float:
        return self.end - self.start


class LayerTracer:
    """Wrap layer entry points, attribute calls to ops, keep spans.

    While recording, an open span is a ``(span id, op id, depth)``
    tuple and a finished one a flat tuple of numbers and strings, so
    the millions a run records stay out of the garbage collector's
    way and do not slow the program they measure.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.records: list[tuple] = []
        self._ids = itertools.count()
        self._op: tuple | None = None
        self._op_start = 0.0
        self._op_kind = None
        self._local = threading.local()
        self._plan: list[tuple[object, str, object]] = []
        self._saved: list[tuple[object, str, object]] = []
        self._counters: list[Counter] = []
        self._counters_lock = threading.Lock()
        self._built: tuple[list[Span], dict[int, Span]] | None = None

    # -- op boundaries (caller thread) ---------------------------------
    def begin_op(self, op_id: int, kind: str) -> None:
        self._op = (next(self._ids), op_id, 0)
        self._op_kind = kind
        self._stack().append(self._op)
        self._op_start = self.clock()

    def end_op(self) -> None:
        end = self.clock()
        span_id, op_id, _ = self._op
        self._stack().pop()
        self.records.append((span_id, op_id, "op", threading.get_ident(),
                             self._op_start, end, None, 0, self._op_kind))
        self._op = None

    # -- per-thread state ----------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counter(self) -> Counter:
        counter = getattr(self._local, "counter", None)
        if counter is None:
            counter = self._local.counter = Counter()
            with self._counters_lock:
                self._counters.append(counter)
        return counter

    def _parent(self):
        """The open span a new call on this thread nests under."""
        stack = self._stack()
        if stack:
            return stack[-1]
        # A thread started inside an op belongs to that op even when it
        # outlives it (a hedge lane that loses and finishes late).
        inherited = getattr(threading.current_thread(),
                            "_perfbench_parent", None)
        return inherited if inherited is not None else self._op

    def counts(self) -> Counter:
        """``(op id, name) -> calls`` for the count-only wrappers."""
        total = Counter()
        with self._counters_lock:
            for counter in self._counters:
                total.update(counter)
        return total

    # -- wrappers -------------------------------------------------------
    def timed(self, owner, attr: str, name: str, info=None) -> None:
        """Plan a timing wrapper for ``owner.attr``; ``info(args,
        kwargs)`` may extract a per-call quantity (rows, bytes)."""
        original = _lookup(owner, attr)
        tracer, local, ids, records = (self, self._local, self._ids,
                                       self.records)
        clock, ident = self.clock, threading.get_ident

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            parent = stack[-1] if stack else tracer._parent()
            if parent is None:       # outside every op: not recorded
                return original(*args, **kwargs)
            if stack is None:
                stack = tracer._stack()
            me = (next(ids), parent[1], parent[2] + 1)
            stack.append(me)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                records.append((me[0], me[1], name, ident(), start, end,
                                parent[0], me[2],
                                None if info is None
                                else info(args, kwargs)))

        wrapper.__wrapped__ = original
        self.replace(owner, attr, wrapper)

    def count_calls(self, fn, name: str):
        """``fn`` wrapped to count its calls per op under ``name``."""
        tracer, local = self, self._local

        def counted(*args, **kwargs):
            stack = getattr(local, "stack", None)
            parent = stack[-1] if stack else tracer._parent()
            if parent is not None:
                counter = getattr(local, "counter", None)
                if counter is None:
                    counter = tracer._counter()
                counter[(parent[1], name)] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def counted(self, owner, attr: str, name: str) -> None:
        """Plan a count-only wrapper for ``owner.attr``."""
        self.replace(owner, attr,
                     self.count_calls(_lookup(owner, attr), name))

    def replace(self, owner, attr: str, stand_in) -> None:
        """Plan ``owner.attr = stand_in`` for while installed."""
        self._plan.append((owner, attr, stand_in))

    def install(self) -> None:
        """Swap every planned wrapper in, plus thread-parent capture."""
        tracer = self
        original_start = threading.Thread.start

        def start(thread, *args, **kwargs):
            # Only a thread started from inside a span inherits one; a
            # listener's accept thread has none to hand on.
            stack = tracer._stack()
            thread._perfbench_parent = (
                stack[-1] if stack else getattr(
                    threading.current_thread(), "_perfbench_parent",
                    None))
            return original_start(thread, *args, **kwargs)

        for owner, attr, wrapper in self._plan + [
                (threading.Thread, "start", start)]:
            own = vars(owner).get(attr, _ABSENT)
            self._saved.append((owner, attr, own))
            setattr(owner, attr, wrapper)
        self._built = None

    def uninstall(self) -> None:
        for owner, attr, own in reversed(self._saved):
            if own is _ABSENT:
                delattr(owner, attr)  # an instance's bound method
            else:
                setattr(owner, attr, own)
        self._saved.clear()

    # -- results --------------------------------------------------------
    def _build(self) -> tuple[list[Span], dict[int, Span]]:
        if self._built is None:
            by_id: dict[int, Span] = {}
            spans = []
            for (span_id, op, name, thread, start, end, parent, depth,
                 info) in sorted(self.records):
                span = Span(op, name, thread, start, end, parent, depth,
                            info)
                by_id[span_id] = span
                spans.append(span)
            for span in spans:
                span.parent = by_id.get(span.parent)
            self._built = (spans, {s.op: s for s in spans
                                   if s.name == "op"})
        return self._built

    @property
    def spans(self) -> list[Span]:
        """Every finished span, in start order of their ids."""
        return self._build()[0]

    @property
    def roots(self) -> dict[int, Span]:
        """Op id -> the op's root span."""
        return self._build()[1]

    def dump(self, path) -> None:
        """Write the spans as JSON lines (one per span)."""
        with open(path, "w", encoding="utf-8") as handle:
            for (span_id, op, name, thread, start, end, parent, depth,
                 info) in sorted(self.records):
                handle.write(json.dumps({
                    "id": span_id, "op": op, "name": name,
                    "thread": thread, "start": start, "end": end,
                    "parent": parent, "info": info}) + "\n")


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def union_length(intervals, low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    clipped = sorted((max(a, low), min(b, high)) for a, b in intervals
                     if b > low and a < high)
    total, cursor = 0.0, low
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def exclusive_times(root: Span, spans: list[Span],
                    root_layer: str) -> dict[str, float]:
    """Charge every instant of ``root`` to the deepest open span(s).

    Instants where several equally deep spans are open (parallel shard
    scans) are split evenly among them, so the charges always sum to
    the root's wall time.  The root's own instants go to
    ``root_layer``.
    """
    low, high = root.start, root.end
    inside = [s for s in spans if s.end > low and s.start < high]
    edges = sorted({low, high} | {min(max(s.start, low), high)
                                  for s in inside}
                   | {min(max(s.end, low), high) for s in inside})
    charges: dict[str, float] = defaultdict(float)
    for a, b in zip(edges, edges[1:]):
        if b <= a:
            continue
        open_spans = [s for s in inside if s.start <= a and s.end >= b]
        if not open_spans:
            charges[root_layer] += b - a
            continue
        depth = max(s.depth for s in open_spans)
        deepest = [s for s in open_spans if s.depth == depth]
        share = (b - a) / len(deepest)
        for span in deepest:
            charges[root_layer if span is root else span.name] += share
    return dict(charges)


def _p50_ms(values) -> float:
    return float(np.median(values)) * 1e3 if len(values) else 0.0


def _signature(span: Span):
    return span.info[1] if span.info else None


class MissingLayer(RuntimeError):
    """A layer the workload runs recorded no calls (harness failure)."""


def layer_metrics(tracer: LayerTracer, ops, traced_ops: set[int],
                  expected: list[str], mode: str) -> tuple[dict, dict]:
    """Per-layer metrics over the traced ops.

    ``ops`` maps op id to its record (kind, status flags).  Returns
    ``(metrics, breakdown)`` where ``breakdown`` is the exclusive-time
    share of op wall time per layer.  Raises :class:`MissingLayer`
    when a name in ``expected`` recorded zero calls.
    """
    by_op: dict[int, list[Span]] = defaultdict(list)
    for span in tracer.spans:
        if span.op in traced_ops and span.name != "op":
            by_op[span.op].append(span)
    counts = tracer.counts()
    seen = Counter(span.name for spans in by_op.values()
                   for span in spans)
    for (op, name), calls in counts.items():
        if op in traced_ops:
            seen[name] += calls
    missing = [name for name in expected if seen[name] == 0]
    if missing:
        raise MissingLayer(f"layers with zero traced calls: {missing}")

    children: dict[int, list[Span]] = defaultdict(list)
    for spans in by_op.values():
        for span in spans:
            children[id(span.parent)].append(span)

    def of(kind_filter, name):
        return [s for op, spans in by_op.items()
                if ops[op]["kind"] in kind_filter
                for s in spans if s.name == name]

    def descendants(span):
        out, todo = [], list(children[id(span)])
        while todo:
            node = todo.pop()
            out.append(node)
            todo.extend(children[id(node)])
        return out

    search, writes = ("search",), ("ingest", "delete")
    m: dict[str, float] = {}

    service_self, wire = [], []
    for span in of(search, "service.search"):
        kids = [(c.start, c.end) for c in children[id(span)]]
        service_self.append(span.duration - union_length(
            kids, span.start, span.end))
    if mode == "http":
        for op in traced_ops:
            record = ops[op]
            if record["kind"] != "search":
                continue
            calls = [s for s in by_op.get(op, ())
                     if s.name == "service.search"]
            if calls:
                wire.append(tracer.roots[op].duration - calls[0].duration)
    m["gateway.wire_ms"] = _p50_ms(wire)
    m["service.self_ms"] = _p50_ms(service_self)

    n_traced = max(len(traced_ops), 1)
    m["obs.spans_per_op"] = sum(
        c for (op, name), c in counts.items()
        if name == "obs.span" and op in traced_ops) / n_traced
    m["obs.label_lookups_per_op"] = sum(
        c for (op, name), c in counts.items()
        if name == "obs.labels" and op in traced_ops) / n_traced

    m["admission.acquire_ms"] = _p50_ms(
        [s.duration for s in of(search, "admission.acquire")])
    m["embed.image_ms"] = _p50_ms(
        [s.duration for s in of(search, "embed.image")])
    m["embed.text_ms"] = _p50_ms(
        [s.duration for s in of(search + ("ingest",), "embed.text")])

    materialize, index_ms, rows_per, kernel_s, kernel_rows = \
        [], [], [], 0.0, 0
    for op, spans in by_op.items():
        if ops[op]["kind"] != "search":
            continue
        top = [s for s in spans if s.name == "materialize"
               and getattr(s.parent, "name", None) != "materialize"]
        if top:
            materialize.append(sum(s.duration for s in top))
        scans = [s for s in spans if s.name == "index.query"]
        if scans:
            index_ms.append(sum(s.duration for s in scans))
            distinct = {}
            for s in scans:
                distinct[_signature(s)] = s.info[0]
                kernel_s += s.duration
                kernel_rows += s.info[0]
            rows_per.append(sum(distinct.values()))
    m["materialize.ms"] = _p50_ms(materialize)
    m["index.query_ms"] = _p50_ms(index_ms)
    m["index.rows_per_search"] = (float(np.mean(rows_per))
                                  if rows_per else 0.0)
    m["index.ns_per_row"] = (kernel_s * 1e9 / kernel_rows
                             if kernel_rows else 0.0)

    overhead, skew, extra, fanouts = [], [], 0, 0
    for span in of(search, "cluster.query"):
        scans = [d for d in descendants(span) if d.name == "index.query"]
        if not scans:
            continue
        overhead.append(span.duration - max(s.duration for s in scans))
        primary = {}
        for s in sorted(scans, key=lambda s: s.start):
            primary.setdefault(_signature(s), s)
        durations = [s.duration for s in primary.values()]
        skew.append(max(durations) - min(durations))
        extra += len(scans) - len(primary)
        fanouts += 1
    m["cluster.overhead_ms"] = _p50_ms(overhead)
    m["cluster.shard_skew_ms"] = _p50_ms(skew)
    m["cluster.hedge_share"] = extra / fanouts if fanouts else 0.0
    m["merge.ms"] = _p50_ms([s.duration for s in of(search, "merge")])

    overlay = []
    for span in of(search, "overlay.query"):
        base = sum(c.duration for c in children[id(span)]
                   if c.name == "index.query")
        overlay.append(span.duration - base)
    m["overlay.query_ms"] = _p50_ms(overlay)

    adds = []
    for span in of(("ingest",), "ingest.add"):
        log = sum(c.duration for c in children[id(span)]
                  if c.name == "wal.append")
        adds.append(span.duration - log)
    m["ingest.add_ms"] = _p50_ms(adds)
    appends = of(writes, "wal.append")
    m["wal.append_ms"] = _p50_ms([s.duration for s in appends])
    m["wal.bytes_per_write"] = (float(np.mean([s.info for s in appends]))
                                if appends else 0.0)
    acked = sum(1 for op in traced_ops
                if ops[op]["kind"] in writes and ops[op]["ok"])
    m["wal.fsyncs_per_write"] = sum(
        c for (op, name), c in counts.items()
        if name == "wal.fsync" and op in traced_ops
        and ops[op]["kind"] in writes) / acked if acked else 0.0
    compact = ("compact",)
    m["compaction.fold_ms"] = _p50_ms(
        [s.duration for s in of(compact, "compaction.fold")])
    m["compaction.commit_ms"] = _p50_ms(
        [s.duration for s in of(compact, "compaction.commit")])
    m["compaction.canary_ms"] = _p50_ms(
        [s.duration for s in of(compact, "compaction.canary")])

    root_layer = ROOT_LAYER[mode]
    totals: dict[str, float] = defaultdict(float)
    wall = 0.0
    for op in traced_ops:
        root = tracer.roots[op]
        wall += root.duration
        for layer, seconds in exclusive_times(
                root, by_op.get(op, []), root_layer).items():
            totals[layer] += seconds
    breakdown = {layer: seconds / wall for layer, seconds in
                 sorted(totals.items(), key=lambda kv: -kv[1])} \
        if wall else {}
    m["trace.unattributed_share"] = breakdown.get("unattributed", 0.0)
    return m, breakdown
