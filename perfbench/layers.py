"""Per-layer metrics from the spans of a traced run.

Each daemon process writes its spans (see ``tracer.py``); this module
turns them into the per-layer metrics, using only the spans that
started inside the measured window.  A layer's *self time* is a
span's duration minus the part of it its child spans cover.  Metrics
of a layer the workload does not exercise (the store on the memory
backend, the router without a cluster) read 0.

The ``account.*`` metrics check that the layers explain the
end-to-end latency.  Each client round trip is matched to the frames
the entry process (terpd, or the router of a cluster) decoded, by
request id.

* ``account.psync_share``: per ``psync``, the time spent in
  ``pmo.store`` -- the snapshot, the wait on the commit ticket (which
  covers the group commit and its device calls), and the time the
  reply waited on a serving loop held by the store's scrub -- as a
  share of the client's round trip; the median over psyncs.
* ``account.op_server_us``: per non-``psync`` round trip, the time
  its frames spent in the entry process's request-path layers
  (decode, dispatch and everything under it, encode); the median.
* ``account.op_transport_us``: the rest of each such round trip --
  both event loops' socket reads and writes and the kernel's loopback
  path; the median.
* ``account.op_share``: the median of server time over round trip.
* ``account.op_gap``: how far the matched round trips' median is from
  the traced run's ``op_p50_us``, as a share of it.  Server time plus
  transport is each matched round trip exactly, so a small gap means
  the breakdown describes the ops ``op_p50_us`` measures.
"""

from __future__ import annotations

import json
import os
import statistics
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Name and unit of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str]] = [
    ("service.protocol.decode_us", "us"),
    ("service.protocol.encode_us", "us"),
    ("service.protocol.wire_bytes_per_op", "bytes"),
    ("service.server.dispatch_self_us.attach", "us"),
    ("service.server.dispatch_self_us.detach", "us"),
    ("service.server.dispatch_self_us.read", "us"),
    ("service.server.dispatch_self_us.write", "us"),
    ("service.server.dispatch_self_us.psync", "us"),
    ("service.server.dispatch_self_us.batch", "us"),
    ("service.server.loop_lag_p99_us", "us"),
    ("service.sweeping.sweep_us", "us"),
    ("service.sweeping.sweeps_per_s", "1/s"),
    ("service.sweeping.forced_detaches", "count"),
    ("service.registry.journal_us", "us"),
    ("core.runtime.attach_us", "us"),
    ("core.runtime.detach_us", "us"),
    ("core.runtime.silent_ratio", "ratio"),
    ("pmo.api.read_us", "us"),
    ("pmo.api.write_us", "us"),
    ("pmo.api.psync_submit_us", "us"),
    ("pmo.store.snapshot_us", "us"),
    ("pmo.store.ticket_wait_ms", "ms"),
    ("pmo.store.batch_commit_ms", "ms"),
    ("pmo.store.journal_ms", "ms"),
    ("pmo.store.home_ms", "ms"),
    ("pmo.store.retire_ms", "ms"),
    ("pmo.store.psyncs_per_batch", "count"),
    ("pmo.store.pmos_per_batch", "count"),
    ("pmo.store.scrub_us", "us"),
    ("device.fsyncs_per_psync", "count"),
    ("device.fsync_us", "us"),
    ("device.meta_ops_per_psync", "count"),
    ("device.unlink_ms", "ms"),
    ("device.bytes_written_per_user_byte", "ratio"),
    ("device.disk_bytes_per_user_byte", "ratio"),
    ("replication.shipper.ship_ms", "ms"),
    ("replication.shipper.lag_p99_batches", "count"),
    ("replication.shipper.dropped_ratio", "ratio"),
    ("replication.applier.apply_ms", "ms"),
    ("replication.applier.meta_ops_per_batch", "count"),
    ("cluster.router.overhead_us", "us"),
    ("cluster.router.relay_us", "us"),
    ("service.recovery.load_ms", "ms"),
    ("service.recovery.journals_applied", "count"),
    ("trace.overhead.cycles_per_s", "1/s"),
    ("trace.overhead.op_p50_us", "us"),
    ("trace.overhead.psync_p50_ms", "ms"),
    ("account.psync_share", "ratio"),
    ("account.op_share", "ratio"),
    ("account.op_server_us", "us"),
    ("account.op_transport_us", "us"),
    ("account.op_gap", "ratio"),
]

DEVICE_META = ("device.create", "device.truncate", "device.unlink")
SERVER_OPS = ("attach", "detach", "read", "write", "psync")


class Span:
    __slots__ = ("sid", "parent", "rid", "name", "t0", "t1", "attr",
                 "children")

    def __init__(self, raw: List[Any]) -> None:
        (self.sid, self.parent, self.rid, self.name, self.t0, self.t1,
         self.attr) = raw
        self.children: List["Span"] = []

    @property
    def dur(self) -> int:
        return self.t1 - self.t0

    @property
    def layer(self) -> str:
        return self.name.rpartition(".")[0]

    def self_intervals(self) -> List[Tuple[int, int]]:
        """The parts of the span no child span covers."""
        out, end = [], self.t0
        for child in sorted(self.children, key=lambda c: c.t0):
            if child.t0 > end:
                out.append((end, min(child.t0, self.t1)))
            end = max(end, child.t1)
        if end < self.t1:
            out.append((end, self.t1))
        return out

    def self_ns(self) -> int:
        """Duration minus the union of the children's intervals."""
        return sum(hi - lo for lo, hi in self.self_intervals())


class Process:
    """The spans one daemon process wrote."""

    def __init__(self, path: str) -> None:
        self.role = os.path.basename(path).split("-")[1]
        with open(path, encoding="utf-8") as fh:
            self.spans = [Span(raw) for raw in json.load(fh)]
        by_id = {s.sid: s for s in self.spans}
        self._by_name: Dict[str, List[Span]] = defaultdict(list)
        for span in self.spans:
            self._by_name[span.name].append(span)
            parent = by_id.get(span.parent)
            if parent is not None:
                parent.children.append(span)

    def named(self, name: str, window: Optional[Tuple[int, int]] = None
              ) -> List[Span]:
        return [s for s in self._by_name.get(name, ()) if
                window is None or window[0] <= s.t0 < window[1]]


def _median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values: Iterable[float], p: float) -> float:
    """Linear-interpolated percentile (0 for no samples)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _under(span: Span, layers: Tuple[str, ...]) -> int:
    """Time under ``span`` spent in ``layers``, counting only the
    topmost span of those layers on each path."""
    total = 0
    for child in span.children:
        if child.layer in layers:
            total += child.dur
        else:
            total += _under(child, layers)
    return total


def _overlap(a: List[Tuple[int, int]], b: List[Tuple[int, int]]) -> int:
    """Total length of the intersection of two interval lists (each
    list disjoint)."""
    return sum(max(0, min(hi, bhi) - max(lo, blo))
               for lo, hi in a for blo, bhi in b if blo < hi and lo < bhi)


def _frame_times(proc: Process, window: Tuple[int, int]
                 ) -> Dict[Any, int]:
    """Client id of each frame's first request -> the frame's time in
    ``proc``: the summed root spans of its request."""
    frames = {s.sid: s for s in proc.named("service.protocol.decode",
                                           window)}
    times = defaultdict(int)
    for span in proc.spans:
        if span.parent == 0 and span.rid in frames:
            times[frames[span.rid].attr[1]] += span.dur
    return times


def _match(exchanges: List[tuple], frames: Dict[Any, int],
           window: Tuple[int, int], psync: bool) -> List[Tuple[int, int]]:
    """(client round trip, server time) of each exchange in the window
    whose frames the server traced; ``psync`` picks psync exchanges
    or every other one."""
    out = []
    for heads, t0, t1 in exchanges:
        if not window[0] <= t0 < window[1] or \
                any(op == "psync" for _, op in heads) != psync:
            continue
        server = [frames.get(client_id) for client_id, _ in heads]
        if None not in server:
            out.append((t1 - t0, sum(server)))
    return out


def _server_self(dispatch: Span) -> int:
    """The server layer's own time in one dispatch: the dispatch span's
    self time plus its op handler's."""
    return dispatch.self_ns() + sum(
        c.self_ns() for c in dispatch.children
        if c.name == "service.server.op")


def _delta(m0: Dict, m1: Dict, *path: str) -> float:
    def get(m: Dict) -> float:
        for key in path:
            m = (m or {}).get(key, 0)
        return float(m or 0)
    return get(m1) - get(m0)


def per_layer(traced: Dict[str, Any], untraced: Dict[str, float]
              ) -> Dict[str, float]:
    """The per-layer metrics of a traced segment.

    ``traced`` is the segment's raw result with its end-to-end metrics
    under ``e2e`` (see ``run.py``); ``untraced`` holds the end-to-end
    metrics of the same traffic run untraced, for the tracing
    overhead.
    """
    window = (traced["t_start"], traced["t_end"])
    seconds = (window[1] - window[0]) / 1e9
    procs = [Process(p) for p in traced["span_files"]]
    restart = [Process(p) for p in traced["restart_span_files"]]
    e2e, base = traced["e2e"], untraced

    def spans(name: str) -> List[Span]:
        return [s for p in procs for s in p.named(name, window)]

    def med_us(name: str) -> float:
        return _median(s.dur for s in spans(name)) / 1e3

    def med_ms(name: str) -> float:
        return med_us(name) / 1e3

    out: Dict[str, float] = {}
    out["service.protocol.decode_us"] = med_us("service.protocol.decode")
    out["service.protocol.encode_us"] = med_us("service.protocol.encode")
    out["service.protocol.wire_bytes_per_op"] = (
        traced["wire_bytes"] / max(1, traced["attempted"]))

    dispatches = spans("service.server.dispatch")
    for op in SERVER_OPS:
        out[f"service.server.dispatch_self_us.{op}"] = _median(
            _server_self(d) for d in dispatches if d.attr == op) / 1e3
    per_batch: Dict[Any, int] = defaultdict(int)
    for index, proc in enumerate(procs):
        batch_frames = {s.sid for s in proc.named(
            "service.protocol.decode", window) if s.attr[0] >= 0}
        for d in proc.named("service.server.dispatch", window):
            if d.rid in batch_frames:
                per_batch[index, d.rid] += _server_self(d)
    out["service.server.dispatch_self_us.batch"] = _median(
        per_batch.values()) / 1e3
    out["service.server.loop_lag_p99_us"] = percentile(
        (s.attr for s in spans("service.server.loop_lag")), 99) / 1e3

    m0, m1 = traced["metrics_start"], traced["metrics_end"]
    out["service.sweeping.sweep_us"] = med_us("service.sweeping.sweep")
    out["service.sweeping.sweeps_per_s"] = _delta(
        m0, m1, "global", "sweep_runs") / seconds
    out["service.sweeping.forced_detaches"] = _delta(
        m0, m1, "global", "forced_detaches")
    out["service.registry.journal_us"] = med_us(
        "service.registry.journal")

    out["core.runtime.attach_us"] = med_us("core.runtime.attach")
    out["core.runtime.detach_us"] = med_us("core.runtime.detach")

    def silent(m: Dict) -> Tuple[float, float]:
        runtime = m.get("runtime") or {}
        calls = runtime.get("attach_calls", 0) + \
            runtime.get("detach_calls", 0)
        return calls * runtime.get("silent_percent", 0.0) / 100, calls
    (s0, c0), (s1, c1) = silent(m0), silent(m1)
    out["core.runtime.silent_ratio"] = (s1 - s0) / (c1 - c0) \
        if c1 > c0 else 0.0

    out["pmo.api.read_us"] = med_us("pmo.api.read")
    out["pmo.api.write_us"] = med_us("pmo.api.write")
    out["pmo.api.psync_submit_us"] = med_us("pmo.api.psync_submit")

    out["pmo.store.snapshot_us"] = med_us("pmo.store.snapshot")
    out["pmo.store.ticket_wait_ms"] = med_ms("pmo.store.ticket_wait")
    out["pmo.store.batch_commit_ms"] = med_ms("pmo.store.batch")
    out["pmo.store.journal_ms"] = med_ms("pmo.store.journal")
    out["pmo.store.home_ms"] = med_ms("pmo.store.home")
    out["pmo.store.retire_ms"] = _median(
        sum(c.dur for c in entry.children if c.name == "device.unlink")
        for entry in spans("pmo.store.commit_entry")) / 1e6
    batches = spans("pmo.store.batch")
    out["pmo.store.psyncs_per_batch"] = statistics.fmean(
        b.attr[0] for b in batches) if batches else 0.0
    out["pmo.store.pmos_per_batch"] = statistics.fmean(
        b.attr[1] for b in batches) if batches else 0.0
    out["pmo.store.scrub_us"] = med_us("pmo.store.scrub")

    psyncs = max(1, traced["psyncs"])
    out["device.fsyncs_per_psync"] = len(spans("device.fsync")) / psyncs
    out["device.fsync_us"] = med_us("device.fsync")
    out["device.meta_ops_per_psync"] = sum(
        len(spans(name)) for name in DEVICE_META) / psyncs
    out["device.unlink_ms"] = med_ms("device.unlink")
    out["device.bytes_written_per_user_byte"] = sum(
        s.attr for s in spans("device.write")) / max(
            1, traced["user_bytes"])
    out["device.disk_bytes_per_user_byte"] = traced["disk_per_user_byte"]

    out["replication.shipper.ship_ms"] = med_ms(
        "replication.shipper.ship")
    lags = [s.get("lag", 0) for s in traced["repl_samples"]]
    out["replication.shipper.lag_p99_batches"] = percentile(lags, 99)
    if traced["repl_samples"]:
        first, last = traced["repl_samples"][0], \
            traced["repl_samples"][-1]
        shipped = last.get("shipped", 0) - first.get("shipped", 0)
        dropped = last.get("dropped", 0) - first.get("dropped", 0)
        out["replication.shipper.dropped_ratio"] = \
            dropped / shipped if shipped > 0 else 0.0
    else:
        out["replication.shipper.dropped_ratio"] = 0.0
    applies = spans("replication.applier.apply")
    out["replication.applier.apply_ms"] = med_ms(
        "replication.applier.apply")
    standby_meta = sum(len(p.named(name, window)) for p in procs
                       if p.role == "standby" for name in DEVICE_META)
    out["replication.applier.meta_ops_per_batch"] = \
        standby_meta / len(applies) if applies else 0.0

    routers = [p for p in procs if p.named("cluster.router.handle")]
    servers = [p for p in procs if p.named("service.server.dispatch")
               and p.role != "standby"]
    entry = routers[0] if routers else (servers[0] if servers else None)
    op_p50_ns = e2e["op_p50_us"] * 1e3
    if routers and servers:
        out["cluster.router.overhead_us"] = (op_p50_ns - _median(
            _frame_times(servers[0], window).values())) / 1e3
        out["cluster.router.relay_us"] = _median(
            s.self_ns() for s in routers[0].named(
                "cluster.router.handle", window)) / 1e3
    else:
        out["cluster.router.overhead_us"] = 0.0
        out["cluster.router.relay_us"] = 0.0

    out["service.recovery.load_ms"] = _median(
        s.dur for p in restart
        for s in p.named("service.recovery.recover")) / 1e6
    out["service.recovery.journals_applied"] = float(sum(
        s.attr or 0 for p in restart
        for s in p.named("service.recovery.load_all")))

    out["trace.overhead.cycles_per_s"] = \
        e2e["cycles_per_s"] - base["cycles_per_s"]
    out["trace.overhead.op_p50_us"] = e2e["op_p50_us"] - base["op_p50_us"]
    out["trace.overhead.psync_p50_ms"] = \
        e2e["psync_p50_ms"] - base["psync_p50_ms"]

    # Accounting: match each client round trip to the entry process's
    # frames by request id.
    frames = _frame_times(entry, window) if entry is not None else {}
    ops = _match(traced["exchanges"], frames, window, psync=False)
    out["account.op_share"] = _median(srv / rtt for rtt, srv in ops)
    out["account.op_server_us"] = _median(srv for _, srv in ops) / 1e3
    out["account.op_transport_us"] = _median(
        rtt - srv for rtt, srv in ops) / 1e3
    out["account.op_gap"] = abs(
        _median(rtt for rtt, _ in ops) - op_p50_ns) / op_p50_ns \
        if ops and op_p50_ns else 0.0
    store = {}
    for proc in servers:
        decoded = {s.sid: s.attr[1] for s in proc.named(
            "service.protocol.decode", window)}
        scrubs = [(s.t0, s.t1) for s in proc.named("pmo.store.scrub")]
        for d in proc.named("service.server.dispatch", window):
            if d.attr == "psync":
                # The store's own spans under the psync, plus the time
                # its reply waited on a serving loop held by a scrub.
                store[decoded.get(d.rid)] = _under(d, ("pmo.store",)) \
                    + _overlap(d.self_intervals(), scrubs)
    psyncs = _match(traced["exchanges"], store, window, psync=True)
    out["account.psync_share"] = _median(
        srv / rtt for rtt, srv in psyncs)
    return out
