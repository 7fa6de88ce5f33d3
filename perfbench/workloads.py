"""The benchmark's four workloads: traffic, set-up and correctness.

All four share one load shape.  Two tenants, one connection each,
run a closed loop from one asyncio process: a tenant sends its next
request only after the reply to the previous one arrives.  Every
input (PMO draws, pages, oids, payload bytes) comes from the workload
seed; the daemon only ever sees the generated requests.

* ``durable-write`` -- a file-backed pool.  Each tenant owns one 4 MiB
  PMO and loads 256 pages of it at set-up.  A cycle is attach, 4
  pipelined 4 KiB writes to distinct seeded pages out of the 256,
  ``psync``, read back one of the pages, detach.  After the run the daemon is SIGKILLed and restarted on the
  same pool, and every acked page must read back intact.
* ``read-mostly`` -- the memory backend.  64 PMOs of 1 MiB; each
  tenant owns 16 64-byte oids in every PMO.  A cycle draws a PMO from
  a seeded Zipf(1), attaches, sends one batch frame of 16 reads and
  one write, and detaches; every 8th cycle also calls ``psync``.
* ``replicated-write`` -- ``durable-write`` against a primary that
  ships every commit to a semi-sync standby.
* ``routed-read`` -- ``read-mostly`` through a one-shard cluster.

Correctness: every read must return that tenant's own last write of
the bytes read, and after a crash and restart every page acked by a
``psync`` must read back intact.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import time
from collections import Counter
from typing import Any, Dict, List, Optional

from wire import Conn, OpError

PAGE = 4096
#: a tenant reconnecting, or a read retried against a restarting
#: daemon, waits this long between attempts.
RETRY_S = 0.01
#: failures a restarting daemon shows until it serves again.
RETRYABLE = ("ConnectionLost", "timeout")
#: how long a restarted daemon may take to serve a correct read.
RECOVERY_DEADLINE_S = 60.0


def _now() -> int:
    return time.perf_counter_ns()


class CycleLog:
    """What one cycle did: op outcomes and latency samples."""

    __slots__ = ("attempted", "failed", "op_ns", "psync_ns",
                 "user_bytes", "wire_bytes", "mismatches")

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: Counter = Counter()
        self.op_ns: List[int] = []
        self.psync_ns: List[int] = []
        self.user_bytes = 0
        self.wire_bytes = 0
        self.mismatches: List[str] = []

    async def trip(self, coro, ops: int = 1, psync: bool = False) -> Any:
        """Time one round trip of ``ops`` requests.

        A failed request is counted under its failure class and adds
        no latency sample.  A lost connection or a failed single
        request raises :class:`OpError`; per-request failures inside a
        pipeline or batch come back in the result list.
        """
        self.attempted += ops
        t0 = _now()
        try:
            result = await coro
        except OpError as exc:
            self.failed[exc.kind] += ops
            raise
        elapsed = _now() - t0
        errors = [r for r in result if isinstance(r, OpError)] \
            if isinstance(result, list) else []
        for error in errors:
            self.failed[error.kind] += 1
        if not errors:
            (self.psync_ns if psync else self.op_ns).append(elapsed)
        return result

    def add(self, other: "CycleLog") -> None:
        """Count ``other``'s outcomes and samples in this log (its
        mismatches are reported on their own)."""
        self.attempted += other.attempted
        self.failed.update(other.failed)
        self.op_ns += other.op_ns
        self.psync_ns += other.psync_ns
        self.user_bytes += other.user_bytes
        self.wire_bytes += other.wire_bytes

    def check(self, what: str, got: Any, want: Optional[bytes]) -> None:
        if want is not None and got != want:
            self.mismatches.append(what)


class Tenant:
    """One tenant: its connection, its seeded stream, its last writes."""

    def __init__(self, index: int, seed: int) -> None:
        self.index = index
        self.user = f"tenant{index}"
        self.rng = random.Random(f"{seed}:tenant{index}")
        self.conn: Optional[Conn] = None
        self.cycles = 0
        #: key -> the tenant's last write there (None: unknown, the
        #: write failed and may or may not have landed).
        self.expected: Dict[Any, Optional[bytes]] = {}
        #: key -> the last write a successful psync made durable.
        self.acked: Dict[Any, Optional[bytes]] = {}
        self.oids: Dict[Any, int] = {}
        self.connects = 0
        #: round trips of every connection, kept when tracing.
        self.exchanges: Optional[List[tuple]] = None

    async def connect(self, port: int) -> None:
        self.connects += 1
        base = (self.index + 1) * 10 ** 12 + self.connects * 10 ** 9
        self.conn = await Conn.open("127.0.0.1", port, self.user, base)
        self.conn.exchanges = self.exchanges

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


async def _retry_until(attempt) -> None:
    """``await attempt()`` until it stops losing its connection."""
    deadline = time.monotonic() + RECOVERY_DEADLINE_S
    while True:
        try:
            return await attempt()
        except OpError as exc:
            if exc.kind not in RETRYABLE or time.monotonic() > deadline:
                raise
            await asyncio.sleep(RETRY_S)


def _raise_first(results: List[Any]) -> None:
    """Set-up must not fail: raise the first failed request's error."""
    for result in results:
        if isinstance(result, OpError):
            raise result


class Workload:
    """Base class: one named traffic mix over one daemon topology."""

    name = ""
    topology = ""
    #: a traced run traces one frame in this many.
    trace_every = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.tenants = [Tenant(i, seed) for i in range(2)]
        self._recovery_ids = itertools.count()

    async def prepare(self, port: int) -> None:
        raise NotImplementedError

    async def cycle(self, tenant: Tenant, log: CycleLog) -> None:
        raise NotImplementedError

    async def recover(self, port: int, log: CycleLog) -> None:
        """Serve one correct read from a restarted daemon, retried
        while the daemon still drops connections."""
        raise NotImplementedError

    async def verify_restart(self, port: int, log: CycleLog) -> None:
        """After a restart: check what must have survived it."""

    async def _attached(self, conn: Conn, log: CycleLog, name: str,
                        body) -> None:
        """attach, ``await body()``, detach -- the detach is attempted
        whenever the attach succeeded and the connection lives."""
        await log.trip(conn.call("attach", {"name": name,
                                            "access": "rw"}))
        try:
            await body()
        finally:
            if not conn.broken:
                await log.trip(conn.call("detach", {"name": name}))

class DurableWrite(Workload):
    name = "durable-write"
    topology = "durable"
    pages = 256
    writes_per_cycle = 4
    pmo_size = 4 * 1024 * 1024

    def _pmo(self, tenant: Tenant) -> str:
        return f"dw{tenant.index}"

    async def prepare(self, port: int) -> None:
        async def one(tenant: Tenant) -> None:
            await tenant.connect(port)
            conn = tenant.conn
            name = self._pmo(tenant)
            await conn.call("create", {"name": name,
                                       "size": self.pmo_size})
            region = await conn.call(
                "pmalloc", {"name": name,
                            "size": (self.pages + 1) * PAGE})
            base = -(-region["oid"] // PAGE) * PAGE   # page-aligned
            tenant.oids = {p: base + p * PAGE for p in range(self.pages)}
            # Load every page once, so the measured cycles overwrite
            # pages the pool file already holds: the window then sees
            # the steady state, not the file's first block allocations.
            data = {p: tenant.rng.randbytes(PAGE)
                    for p in range(self.pages)}

            async def body() -> None:
                _raise_first(await conn.batch(
                    [("write", {"oid": tenant.oids[p]}, data[p])
                     for p in range(self.pages)]))
                await conn.call("psync", {"name": name})

            await self._attached(conn, CycleLog(), name, body)
            tenant.expected = dict(data)
            tenant.acked = dict(data)
        await asyncio.gather(*(one(t) for t in self.tenants))

    async def cycle(self, tenant: Tenant, log: CycleLog) -> None:
        conn, rng = tenant.conn, tenant.rng
        name = self._pmo(tenant)
        pages = rng.sample(range(self.pages), self.writes_per_cycle)
        payloads = [rng.randbytes(PAGE) for _ in pages]
        check = rng.choice(pages)

        async def body() -> None:
            results = await log.trip(conn.pipeline(
                [("write", {"oid": tenant.oids[p]}, data)
                 for p, data in zip(pages, payloads)]),
                ops=len(pages))
            for page, data, result in zip(pages, payloads, results):
                ok = not isinstance(result, OpError)
                tenant.expected[page] = data if ok else None
                log.user_bytes += len(data) if ok else 0
            await log.trip(conn.call("psync", {"name": name}),
                           psync=True)
            tenant.acked = dict(tenant.expected)
            got = await log.trip(conn.call(
                "read", {"oid": tenant.oids[check], "n": PAGE}))
            log.check(f"{tenant.user} page {check}", got.get("data"),
                      tenant.expected.get(check))

        await self._attached(conn, log, name, body)

    async def _read_acked(self, port: int, tenant: Tenant,
                          log: CycleLog, pages: List[int]) -> None:
        conn = await Conn.open("127.0.0.1", port, tenant.user)
        try:
            name = self._pmo(tenant)

            async def body() -> None:
                results = await log.trip(conn.batch(
                    [("read", {"oid": tenant.oids[p], "n": PAGE}, None)
                     for p in pages]), ops=len(pages))
                for page, result in zip(pages, results):
                    what = f"{tenant.user} acked page {page} after restart"
                    if isinstance(result, OpError):
                        log.mismatches.append(f"{what}: {result.kind}")
                    else:
                        log.check(what, result.get("data"),
                                  tenant.acked[page])

            await self._attached(conn, log, name, body)
        finally:
            conn.close()
            await conn.wait_closed()

    async def recover(self, port: int, log: CycleLog) -> None:
        tenant = self.tenants[0]
        if not tenant.acked:
            raise RuntimeError(f"{tenant.user} had no psync acked")
        page = next(iter(tenant.acked))
        await _retry_until(
            lambda: self._read_acked(port, tenant, log, [page]))

    async def verify_restart(self, port: int, log: CycleLog) -> None:
        for tenant in self.tenants:
            await self._read_acked(port, tenant, log,
                                   sorted(tenant.acked))


class ReplicatedWrite(DurableWrite):
    name = "replicated-write"
    topology = "replicated"


class ReadMostly(Workload):
    name = "read-mostly"
    topology = "memory"
    trace_every = 16
    pmos = 64
    pmo_size = 1024 * 1024
    oids_per_pmo = 16
    object_size = 64
    psync_every = 8

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        order = list(range(self.pmos))
        random.Random(f"{seed}:zipf").shuffle(order)
        #: Zipf(1) over popularity ranks; rank r is PMO order[r].
        self._order = order
        self._cum = list(itertools.accumulate(
            1.0 / (rank + 1) for rank in range(self.pmos)))

    @staticmethod
    def _pmo(index: int) -> str:
        return f"rm{index:02d}"

    async def prepare(self, port: int) -> None:
        for tenant in self.tenants:
            await tenant.connect(port)
        created = await self.tenants[0].conn.pipeline(
            [("create", {"name": self._pmo(i), "size": self.pmo_size,
                         "mode": 0o666}, None)
             for i in range(self.pmos)])
        _raise_first(created)

        async def one(tenant: Tenant) -> None:
            conn, log = tenant.conn, CycleLog()
            for index in range(self.pmos):
                name = self._pmo(index)
                oids = await conn.pipeline(
                    [("pmalloc", {"name": name,
                                  "size": self.object_size}, None)] *
                    self.oids_per_pmo)
                _raise_first(oids)
                for slot, result in enumerate(oids):
                    tenant.oids[index, slot] = result["oid"]
                payloads = [tenant.rng.randbytes(self.object_size)
                            for _ in range(self.oids_per_pmo)]

                async def body() -> None:
                    _raise_first(await conn.batch(
                        [("write", {"oid": tenant.oids[index, slot]},
                          data) for slot, data in enumerate(payloads)]))

                await self._attached(conn, log, name, body)
                for slot, data in enumerate(payloads):
                    tenant.expected[index, slot] = data
        await asyncio.gather(*(one(t) for t in self.tenants))

    async def cycle(self, tenant: Tenant, log: CycleLog) -> None:
        conn, rng = tenant.conn, tenant.rng
        rank = rng.choices(range(self.pmos), cum_weights=self._cum)[0]
        index = self._order[rank]
        name = self._pmo(index)
        slot = rng.randrange(self.oids_per_pmo)
        data = rng.randbytes(self.object_size)
        tenant.cycles += 1
        flush = tenant.cycles % self.psync_every == 0
        requests = [("read", {"oid": tenant.oids[index, s],
                              "n": self.object_size}, None)
                    for s in range(self.oids_per_pmo)]
        requests.append(("write", {"oid": tenant.oids[index, slot]},
                         data))

        async def body() -> None:
            results = await log.trip(conn.batch(requests),
                                     ops=len(requests))
            for s, result in enumerate(results[:-1]):
                if not isinstance(result, OpError):
                    log.check(f"{tenant.user} {name} oid {s}",
                              result.get("data"),
                              tenant.expected.get((index, s)))
            ok = not isinstance(results[-1], OpError)
            tenant.expected[index, slot] = data if ok else None
            log.user_bytes += len(data) if ok else 0
            if flush:
                await log.trip(conn.call("psync", {"name": name}),
                               psync=True)

        await self._attached(conn, log, name, body)

    async def recover(self, port: int, log: CycleLog) -> None:
        """The memory backend keeps nothing across a restart, so the
        correct read is of a write made to the restarted daemon."""
        data = random.Random(f"{self.seed}:recovery").randbytes(
            self.object_size)

        async def attempt() -> None:
            name = f"recovery{next(self._recovery_ids)}"
            conn = await Conn.open("127.0.0.1", port, "recovery")
            try:
                await log.trip(conn.call("create", {
                    "name": name, "size": self.pmo_size}))
                oid = (await log.trip(conn.call(
                    "pmalloc", {"name": name,
                                "size": self.object_size})))["oid"]

                async def body() -> None:
                    await log.trip(conn.call("write", {"oid": oid},
                                             data))
                    got = await log.trip(conn.call(
                        "read", {"oid": oid, "n": self.object_size}))
                    log.check(f"{name} read after restart",
                              got.get("data"), data)

                await self._attached(conn, log, name, body)
            finally:
                conn.close()
                await conn.wait_closed()

        await _retry_until(attempt)


class RoutedRead(ReadMostly):
    name = "routed-read"
    topology = "cluster"


WORKLOADS = {w.name: w for w in (DurableWrite, ReadMostly,
                                 ReplicatedWrite, RoutedRead)}
