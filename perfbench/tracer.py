"""Span recording inside a daemon process, installed by ``launcher.py``.

:func:`install` wraps the entry points of each terpd layer, and the
``os``/``Path``/``open`` file calls the store, recovery and applier
make, before the daemon starts.  Every call made for a traced frame
or by background work records one span::

    (span id, parent id, request id, name, start ns, end ns, attr)

The parent is the span open in the calling context (a ``ContextVar``,
so asyncio tasks and threads each keep their own stack).  The request
id is the frame a request arrived in: decoding a frame starts a new
one for the connection task, and spans with no frame (the flusher
thread, the sweeper) take their root span's id.  ``attr`` carries one
call-specific value: the op name, a batch size, a byte count.

Spans stay in memory.  ``SIGUSR1`` writes the process's spans to
``<trace dir>/spans-<role>-<pid>.json``; forked children (cluster
shards) inherit the wrappers and the handler and start with an empty
span list.  Names are ``<layer>.<what>``; the layer is the part
before the last dot.
"""

from __future__ import annotations

import asyncio
import builtins
import contextvars
import functools
import itertools
import json
import os
import pathlib
import signal
import time
from typing import Any, Callable, Dict, List, Optional

_clock = time.perf_counter_ns
_ids = itertools.count(1)
_spans: List[tuple] = []
#: (current span id, request id, current span's layer)
_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=(0, 0, ""))
#: commit tickets handed out by a psync -> (dispatch span, request
#: id): the ticket is waited on in an executor thread, outside the
#: dispatching task's context.
_ticket_owner: Dict[int, tuple] = {}
#: tasks the tracer started (the loop-lag probe); kept referenced.
_tasks: List[asyncio.Task] = []
#: the loop-lag probe's sleep period.
PROBE_PERIOD_NS = 1_000_000
#: the context of a frame that is not traced.
_OFF = (-1, 0, "")
#: trace one frame in this many (see :func:`install`).
_every = [1]


def _layer(name: str) -> str:
    return name.rpartition(".")[0]


def span_call(name: str, fn: Callable, args: tuple, kwargs: dict,
              attr: Any = None, post: Optional[Callable] = None) -> Any:
    """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
    parent, rid, parent_layer = _current.get()
    layer = _layer(name)
    if parent < 0 or (layer == "device" and parent_layer == "device"):
        # An untraced frame, or os.unlink under Path.unlink (one
        # device call, not two).
        return fn(*args, **kwargs)
    sid = next(_ids)
    rid = rid or sid
    token = _current.set((sid, rid, layer))
    t0 = _clock()
    try:
        result = fn(*args, **kwargs)
    finally:
        t1 = _clock()
        _current.reset(token)
    if post is not None:
        attr = post(result, parent, rid, attr)
    _spans.append((sid, parent, rid, name, t0, t1, attr))
    return result


def wrap(fn: Callable, name: str,
         attr: Optional[Callable] = None,
         post: Optional[Callable] = None) -> Callable:
    """A traced stand-in for ``fn``; ``attr(*args)`` labels the span
    and ``post(result, parent, rid, attr)`` may replace the label."""
    if asyncio.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def traced_async(*args, **kwargs):
            parent, rid, _ = _current.get()
            if parent < 0:
                return await fn(*args, **kwargs)
            sid = next(_ids)
            rid = rid or sid
            token = _current.set((sid, rid, _layer(name)))
            label = attr(*args) if attr is not None else None
            t0 = _clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                t1 = _clock()
                _current.reset(token)
                _spans.append((sid, parent, rid, name, t0, t1, label))
        return traced_async

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        label = attr(*args) if attr is not None else None
        return span_call(name, fn, args, kwargs, label, post)
    return traced


# -- special cases -------------------------------------------------------

def _traced_decode(decode: Callable) -> Callable:
    """Decoding a frame starts a request: later spans in this task
    carry the frame's id, or record nothing when the frame is not
    sampled.  ``attr`` is ``[batch size (-1 for a single request), the
    client's id of the frame's first request]``."""
    @functools.wraps(decode)
    def traced(body):
        sid = next(_ids)
        t0 = _clock()
        payload = decode(body)
        t1 = _clock()
        single = not isinstance(payload, list)
        first = payload if single else (payload[:1] or [None])[0]
        client_id = first.get("id") if isinstance(first, dict) else None
        if isinstance(client_id, int) and client_id % _every[0]:
            _current.set(_OFF)
            return payload
        _spans.append((sid, 0, sid, "service.protocol.decode", t0, t1,
                       [-1 if single else len(payload), client_id]))
        _current.set((0, sid, ""))
        return payload
    return traced


def _note_ticket(result: Any, parent: int, rid: int, attr: Any) -> Any:
    ticket = getattr(result, "ticket", None)
    if ticket is not None:
        _ticket_owner[id(ticket)] = (parent, rid)
    return attr


def _traced_ticket_wait(wait: Callable) -> Callable:
    @functools.wraps(wait)
    def traced(self, *args, **kwargs):
        parent, rid = _ticket_owner.pop(id(self), (0, 0))
        token = _current.set((parent, rid, ""))
        try:
            return span_call("pmo.store.ticket_wait", wait,
                             (self,) + args, kwargs)
        finally:
            _current.reset(token)
    return traced


class _File:
    """A file whose writes are device spans (``attr`` = bytes)."""

    __slots__ = ("_fh",)

    def __init__(self, fh) -> None:
        self._fh = fh

    def write(self, data):
        return span_call("device.write", self._fh.write, (data,), {},
                         len(data))

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __iter__(self):
        return iter(self._fh)

    def __enter__(self):
        self._fh.__enter__()
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


def _traced_open(file, mode="r", *args, **kwargs):
    """``open`` as a device call: create, truncate or plain open."""
    name = "device.open"
    if any(flag in mode for flag in "wxa"):
        if not os.path.exists(file):
            name = "device.create"
        elif "w" in mode:
            name = "device.truncate"
    fh = span_call(name, builtins.open, (file, mode) + args, kwargs)
    return _File(fh)


async def _probe_loop() -> None:
    """Record how late a 1 ms sleep wakes on the serving loop."""
    period = PROBE_PERIOD_NS / 1e9
    while True:
        t0 = _clock()
        await asyncio.sleep(period)
        t1 = _clock()
        _spans.append((next(_ids), 0, 0, "service.server.loop_lag", t0,
                       t1, max(0, t1 - t0 - PROBE_PERIOD_NS)))


def _with_probe(start: Callable) -> Callable:
    @functools.wraps(start)
    async def traced(self, *args, **kwargs):
        result = await start(self, *args, **kwargs)
        _tasks.append(asyncio.get_running_loop().create_task(
            _probe_loop()))
        return result
    return traced


# -- installation ----------------------------------------------------------

def _op_name(server, conn, req, *rest) -> Any:
    return req.get("op") if isinstance(req, dict) else None


def _patch(owner: Any, attr_name: str, make: Callable) -> None:
    """Replace ``owner.attr_name`` with ``make(original)`` when the
    entry point exists; a renamed one simply goes untraced."""
    original = getattr(owner, attr_name, None)
    if original is not None:
        setattr(owner, attr_name, make(original))


def install(trace_dir: str, role: str, every: int = 1) -> None:
    """Wrap every layer entry point and arm the ``SIGUSR1`` dump.

    Only frames whose first request id is a multiple of ``every`` are
    traced, so a busy daemon keeps a bounded span list.  Sampling by
    the client's id picks every frame kind alike, and a router and its
    shard pick the same frames.  Background work (sweeps, group
    commits, the probe) is always traced.
    """
    _every[0] = every
    from repro.core import runtime
    from repro.pmo import api, store
    from repro.replication import applier, shipper
    from repro.service import (protocol, recovery, registry, server,
                               sweeping)
    from repro.cluster import router

    def named(name, attr=None, post=None):
        return lambda fn: wrap(fn, name, attr, post)

    _patch(protocol, "decode_frame", _traced_decode)
    _patch(protocol, "encode_body", named("service.protocol.encode"))

    service = server.TerpService
    _patch(service, "_dispatch",
           named("service.server.dispatch", _op_name))
    _patch(service, "start", _with_probe)
    for op in ("hello", "create", "attach", "detach", "pmalloc",
               "read", "write", "metrics", "repl_status"):
        _patch(service, f"_op_{op}",
               named("service.server.op", lambda *a, op=op: op))
    _patch(service, "_op_psync",
           named("service.server.op", lambda *a: "psync", _note_ticket))
    _patch(sweeping.Sweeper, "run_sweep",
           named("service.sweeping.sweep"))
    for method in ("journal_session", "journal_attach",
                   "journal_detach", "journal_close"):
        _patch(registry.SessionManager, method,
               named("service.registry.journal"))
    _patch(runtime.TerpRuntime, "attach", named("core.runtime.attach"))
    _patch(runtime.TerpRuntime, "detach", named("core.runtime.detach"))
    for method in ("read", "write", "psync_submit"):
        _patch(api.PmoLibrary, method, named(f"pmo.api.{method}"))

    pmo_store = store.PmoStore
    _patch(pmo_store, "_snapshot", named("pmo.store.snapshot"))
    _patch(pmo_store, "_commit_entry", named("pmo.store.commit_entry"))
    _patch(pmo_store, "_write_journal", named("pmo.store.journal"))
    _patch(pmo_store, "_write_home", named("pmo.store.home"))
    _patch(pmo_store, "scrub", named("pmo.store.scrub"))
    _patch(pmo_store, "load_all", named(
        "service.recovery.load_all",
        post=lambda result, *_: getattr(result, "journals_applied", 0)))
    _patch(store.GroupCommitter, "_commit_batch", named(
        "pmo.store.batch",
        lambda self, batch: [len(batch),
                             len({id(item[0]) for item in batch})]))
    _patch(store.CommitTicket, "wait", _traced_ticket_wait)
    _patch(recovery.RecoveryManager, "recover",
           named("service.recovery.recover"))

    _patch(shipper.JournalShipper, "ship_commit",
           named("replication.shipper.ship"))
    _patch(applier.JournalApplier, "apply_batch",
           named("replication.applier.apply"))

    _patch(router.TerpRouter, "_handle_single",
           named("cluster.router.handle", _op_name))
    _patch(router.TerpRouter, "_handle_batch",
           named("cluster.router.handle", lambda *a: "batch"))
    _patch(router.UpstreamConn, "request_raw",
           named("cluster.router.upstream"))

    _patch(os, "fsync", named("device.fsync"))
    _patch(os, "unlink", named("device.unlink"))
    _patch(pathlib.Path, "unlink", named("device.unlink"))
    for module in (store, applier, recovery):
        module.open = _traced_open

    def dump(signum=None, frame=None) -> None:
        path = os.path.join(trace_dir, f"spans-{role}-{os.getpid()}.json")
        tmp = path + ".tmp"
        with builtins.open(tmp, "w", encoding="utf-8") as fh:
            json.dump(list(_spans), fh, separators=(",", ":"))
        os.replace(tmp, path)

    def forget() -> None:
        _spans.clear()
        _ticket_owner.clear()
        _tasks.clear()

    signal.signal(signal.SIGUSR1, dump)
    os.register_at_fork(after_in_child=forget)
