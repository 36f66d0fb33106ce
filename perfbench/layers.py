"""Per-layer metrics and the stage table, computed from a traced run.

Span names map to the layers they wrap (see :mod:`perfbench.tracing`).  The
stage table and the per-request timings come from the sequential phase,
where exactly one request is in flight: every span that starts inside a
request's client-side interval belongs to that request, including the spans
that carry no request id (socket reads and flushes).  Batching and queueing
figures come from the phases that build batches and queues.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Dict, List

import numpy as np

#: The client-side span that is the root of every request; its self time is
#: what no wrapped layer covers: socket transit, wake-ups and loop code
#: between the wrapped calls.
ROOT = "client.request"

#: Stage table order: the path a request takes out and back.
STAGES = (
    "client.encode", "server.read", "server.decode", "server.handle",
    "fingerprint", "router.route", "server.queue_wait", "server.dispatch",
    "lookaside.hint", "worker.roundtrip", "worker.solve", "codec.parse",
    "service.pump", "cache.lookup", "continuous.step", "fastpath.solve",
    "cache.store", "server.encode", "server.flush", "client.decode", ROOT,
)

#: The sum of the stage self times must match the mean client-side request
#: span within this share.  Self times cover each span exactly once, so a
#: larger gap means spans overlapped that should nest.
STAGE_SUM_TOLERANCE = 0.05


class Span:
    """One recorded call; ``key`` and ``parent`` are ``(pid, span_id)``."""

    __slots__ = ("name", "start", "end", "rids", "extra", "key", "parent")

    def __init__(self, name, start, end, rids, extra, key, parent):
        self.name, self.start, self.end = name, start, end
        self.rids, self.extra, self.key, self.parent = rids, extra, key, parent

    @property
    def duration(self) -> int:
        return self.end - self.start


def spans_from_dumps(dumps: List[Dict]) -> List[Span]:
    spans = []
    for dump in dumps:
        pid = dump["pid"]
        for sid, parent, name, start, end, rids, extra in dump["spans"]:
            spans.append(Span(name, start, end, rids, extra, (pid, sid),
                              (pid, parent) if parent else None))
    return spans


def _p50(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _within(spans: List[Span], phase) -> List[Span]:
    return [s for s in spans if phase.contains(s.start)]


def _union(intervals) -> int:
    total, cur_start, cur_end = 0, None, None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def per_request(seq_phase, spans: List[Span]) -> List[Dict]:
    """For each sequential-phase request: its client span, its spans, and
    the self time of every stage (ns)."""
    outcomes = sorted(seq_phase.outcomes, key=lambda o: o.sent_ns)
    starts = [o.sent_ns for o in outcomes]
    by_rid = {str(o.payload["id"]): i for i, o in enumerate(outcomes)}
    owned: List[List[Span]] = [[] for _ in outcomes]
    for span in _within(spans, seq_phase):
        rid = span.rids[0] if len(span.rids) == 1 and span.rids[0] else None
        if rid is not None:
            index = by_rid.get(rid)
        else:
            index = bisect.bisect_right(starts, span.start) - 1
            if index >= 0 and span.start > outcomes[index].done_ns:
                index = None
        if index is not None and index >= 0:
            owned[index].append(span)

    requests = []
    for outcome, mine in zip(outcomes, owned):
        requests.append({
            "rid": str(outcome.payload["id"]),
            "total": outcome.done_ns - outcome.sent_ns,
            "spans": mine,
            "self": _stage_self_times(outcome, mine),
        })
    return requests


def _stage_self_times(outcome, spans: List[Span]) -> Dict[str, int]:
    by_key = {s.key: s for s in spans}
    first = {}
    for s in spans:
        first.setdefault(s.name, s)
    children = defaultdict(list)
    nodes = list(spans)
    handle, dispatch = first.get("server.handle"), first.get("server.dispatch")
    if handle is not None and dispatch is not None:
        # The queue wait starts once the event loop is done with the read
        # that routed the request, so that it does not overlap that read.
        loop = handle
        while loop.parent in by_key:
            loop = by_key[loop.parent]
        start = max(handle.end, loop.end)
        nodes.append(Span("server.queue_wait", start, max(start, dispatch.start),
                          (), None, ("wait",), None))
    for s in nodes:
        if s.parent in by_key:
            children[s.parent].append(s)
        elif s.name == "worker.solve" and "worker.roundtrip" in first:
            children[first["worker.roundtrip"].key].append(s)
        else:
            children[ROOT].append(s)

    out: Dict[str, int] = defaultdict(int)

    def visit(key, name, lo, hi):
        kids = []
        for child in children.get(key, ()):
            a, b = max(child.start, lo), min(child.end, hi)
            if b > a:
                kids.append((a, b))
                visit(child.key, child.name, a, b)
        out[name] += (hi - lo) - _union(kids)

    visit(ROOT, ROOT, outcome.sent_ns, outcome.done_ns)
    return out


def stage_table(requests: List[Dict]) -> Dict:
    """Mean and median self time per stage, each stage's share of the
    mean request, and whether the self times add up to the request."""
    mean_total = float(np.mean([r["total"] for r in requests]))
    rows = []
    for name in STAGES:
        values = np.array([r["self"].get(name, 0) for r in requests], dtype=float)
        rows.append({
            "stage": name,
            "mean_us": values.mean() / 1e3,
            "p50_us": float(np.median(values)) / 1e3,
            "share": values.mean() / mean_total,
        })
    summed = sum(row["mean_us"] for row in rows) * 1e3
    gap = abs(summed - mean_total) / mean_total
    return {
        "rows": rows,
        "requests": len(requests),
        "mean_request_us": mean_total / 1e3,
        "sum_self_us": summed / 1e3,
        "gap": gap,
        "ok": bool(gap <= STAGE_SUM_TOLERANCE),
    }


def format_stage_table(table: Dict, workload: str) -> str:
    lines = [
        f"stage table ({workload}, sequential phase, {table['requests']} requests; "
        f"self time = span minus its children)",
        f"  {'stage':<20} {'mean_us':>9} {'p50_us':>9} {'share':>7}",
    ]
    for row in table["rows"]:
        label = "(wire+wakeups)" if row["stage"] == ROOT else row["stage"]
        lines.append(
            f"  {label:<20} {row['mean_us']:9.1f} {row['p50_us']:9.1f} {row['share']:7.1%}"
        )
    lines.append(
        f"  {'sum of self':<20} {table['sum_self_us']:9.1f}   vs mean request "
        f"{table['mean_request_us']:.1f} us: gap {table['gap']:.2%} "
        f"(tolerance {STAGE_SUM_TOLERANCE:.0%}) {'ok' if table['ok'] else 'FAILED'}"
    )
    return "\n".join(lines)


def _durations(spans, name) -> List[float]:
    return [s.duration / 1e3 for s in spans if s.name == name]


def layer_metrics(
    phases: Dict, spans: List[Span], requests: List[Dict], counters: Dict,
    *, ping_us: float, untraced_seq_p50_us: float, late_p99_us: float,
) -> Dict[str, float]:
    """Every per-layer metric, by name (see BENCHMARK.json)."""
    seq_spans = [s for r in requests for s in r["spans"]]
    timed = [s for s in spans if any(p.contains(s.start) for p in phases.values())]
    pipe = _within(spans, phases["pipe"])
    open_spans = _within(spans, phases["open"])

    def per_request(fn) -> float:
        return _p50([fn(r) for r in requests])

    def dur(r, *names):
        return sum(s.duration for s in r["spans"] if s.name in names) / 1e3

    handle_end = {s.rids[0]: s.end for s in open_spans if s.name == "server.handle" and s.rids}
    waits = [(s.start - handle_end[rid]) / 1e3
             for s in open_spans if s.name == "server.dispatch"
             for rid in s.rids if rid in handle_end]
    hop_sizes = [sum(s.extra) for s in seq_spans
                 if s.name == "worker.roundtrip" and s.extra is not None]
    hints = [s.extra for s in timed if s.name == "lookaside.hint"]
    pump_self = [r["self"].get("service.pump", 0) / 1e3 for r in requests]
    steps = [s for s in timed if s.name == "continuous.step"]
    iters = [s.duration / 1e3 / s.extra for s in timed
             if s.name == "fastpath.solve" and s.extra]
    row_steps = counters["row_steps"]
    seq_p50_traced = _p50([r["total"] / 1e3 for r in requests])
    dispatch_sizes = [s.extra for s in pipe if s.name == "server.dispatch"]

    return {
        "binary.encode_us": per_request(lambda r: dur(r, "client.encode", "server.encode")),
        "binary.decode_us": per_request(lambda r: dur(r, "server.decode", "client.decode")),
        "binary.req_bytes": _p50([s.extra for s in seq_spans if s.name == "client.encode"]),
        "binary.resp_bytes": _p50([s.extra for s in seq_spans if s.name == "server.encode"]),
        "server.ping_us": ping_us,
        "server.self_us": per_request(lambda r: r["total"] / 1e3 - dur(r, "server.dispatch")),
        "server.queue_wait_us": _p50(waits),
        "router.route_us": per_request(lambda r: dur(r, "router.route")),
        "router.shard_skew": counters["shard_skew"],
        "worker.roundtrip_us": per_request(lambda r: dur(r, "worker.roundtrip")),
        "worker.hop_us": per_request(
            lambda r: dur(r, "worker.roundtrip") - dur(r, "worker.solve")),
        "worker.rows_per_dispatch": float(np.mean(dispatch_sizes)) if dispatch_sizes else 0.0,
        "worker.hop_bytes": float(np.mean(hop_sizes)) if hop_sizes else 0.0,
        "lookaside.hint_us": per_request(lambda r: dur(r, "lookaside.hint")),
        "lookaside.hint_ratio": float(np.mean(hints)) if hints else 0.0,
        "codec.parse_us": per_request(lambda r: dur(r, "codec.parse")),
        "fingerprint.us": per_request(lambda r: dur(r, "fingerprint")),
        "cache.lookup_us": _p50(_durations(seq_spans, "cache.lookup")),
        "cache.store_us": _p50(_durations(seq_spans, "cache.store")),
        "cache.hit_ratio": counters["hit_ratio"],
        "cache.warm_ratio": counters["warm_ratio"],
        "cache.miss_ratio": counters["miss_ratio"],
        "cache.entries": counters["entries"],
        "cache.evicted": counters["evicted"],
        "service.pump_self_us": _p50(pump_self),
        "service.iters_per_req": counters["iters_per_req"],
        "service.batch_rows_mean": counters["batch_rows_mean"],
        "service.joined_inflight_ratio": counters["joined_inflight_ratio"],
        "continuous.step_us": _p50([s.duration / 1e3 for s in steps]),
        "continuous.rows_per_step": counters["rows_per_step"],
        "continuous.us_per_row_step": (
            sum(s.duration for s in steps) / 1e3 / row_steps if row_steps else 0.0
        ),
        "fastpath.us_per_iter": _p50(iters),
        "loadgen.late_p99_us": late_p99_us,
        "trace.overhead_frac": seq_p50_traced / untraced_seq_p50_us - 1.0,
    }
