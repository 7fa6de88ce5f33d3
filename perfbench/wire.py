"""A small asyncio client for the terpd wire protocol (v2).

The load generator speaks the public wire format directly rather than
importing the package's clients, so a refactor of those clients
cannot change what the benchmark sends.  A frame is a 4-byte
big-endian length and a JSON body; with the top bit of the length set,
a 4-byte sidecar length and raw sidecar bytes follow, and every
``{"bin": n}`` marker in the body takes the next ``n`` sidecar bytes.

Every failed round trip raises :class:`OpError` whose ``kind`` is the
failure class the benchmark counts: the daemon's error kind
(``PmoError``, ``TerpError``, ...), ``ConnectionLost`` or ``timeout``.
"""

from __future__ import annotations

import asyncio
import json
import struct
import time
from typing import Any, Dict, List, Optional, Tuple

HEADER = struct.Struct(">I")
SIDECAR_FLAG = 0x80000000
LEN_MASK = 0x7FFFFFFF
#: A round trip that takes longer than this counts as a ``timeout``
#: failure; the connection is then unusable (its replies would
#: desynchronise) and is closed.
OP_TIMEOUT_S = 30.0

#: One request: (op, args, binary payload or None).
Request = Tuple[str, Dict[str, Any], Optional[bytes]]


class OpError(Exception):
    """A failed op; ``kind`` is its failure class."""

    def __init__(self, kind: str, message: str = "") -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind


def _frame(payload: Any, sidecar: bytes) -> bytes:
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if not sidecar:
        return HEADER.pack(len(body)) + body
    return b"".join((HEADER.pack(len(body) | SIDECAR_FLAG), body,
                     HEADER.pack(len(sidecar)), sidecar))


class Conn:
    """One tenant connection bound to one daemon session."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._rid = 0
        self.broken = False
        #: when a list, every round trip appends ``(heads, sent ns,
        #: received ns)``, ``heads`` being each frame's first request
        #: ``(id, op)``: the traced run matches them to server spans.
        self.exchanges: Optional[List[tuple]] = None
        #: wire bytes both ways, for ``wire_bytes_per_op``.
        self.bytes_sent = 0
        self.bytes_received = 0
        #: ``forced-detach`` events the daemon attached to replies.
        self.forced_detaches = 0

    @classmethod
    async def open(cls, host: str, port: int, user: str,
                   rid_base: int = 0) -> "Conn":
        """Connect and say hello.  Request ids count up from
        ``rid_base``, so connections given distinct bases never share
        an id."""
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), OP_TIMEOUT_S)
        except asyncio.TimeoutError:
            raise OpError("timeout", "connect") from None
        except OSError as exc:
            raise OpError("ConnectionLost", f"connect: {exc}") from None
        conn = cls(reader, writer)
        conn._rid = rid_base
        try:
            result = await conn.call("hello", {"user": user,
                                               "version": 2})
        except OpError:
            conn.close()
            raise
        if result.get("version") != 2:
            conn.close()
            raise OpError("WireError", "daemon did not negotiate v2")
        return conn

    def close(self) -> None:
        self.broken = True
        self._writer.close()

    async def wait_closed(self) -> None:
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    # -- framing -------------------------------------------------------

    def _request(self, op: str, args: Dict[str, Any],
                 data: Optional[bytes]) -> Tuple[Dict[str, Any], bytes]:
        self._rid += 1
        if data is not None:
            args = dict(args, data={"bin": len(data)})
        return {"id": self._rid, "op": op, "args": args}, data or b""

    async def _read(self) -> Tuple[Any, bytes]:
        reader = self._reader
        (word,) = HEADER.unpack(await reader.readexactly(4))
        body = await reader.readexactly(word & LEN_MASK)
        sidecar = b""
        if word & SIDECAR_FLAG:
            (size,) = HEADER.unpack(await reader.readexactly(4))
            sidecar = await reader.readexactly(size)
            self.bytes_received += 4 + size
        self.bytes_received += 4 + len(body)
        return json.loads(body), sidecar

    async def _exchange(self, frames: List[bytes], heads: List[tuple]
                        ) -> List[Tuple[Any, bytes]]:
        """Send ``frames`` back to back; read one reply per frame."""
        if self.broken:
            raise OpError("ConnectionLost", "connection already lost")
        data = b"".join(frames)
        try:
            t0 = time.perf_counter_ns()
            self._writer.write(data)
            self.bytes_sent += len(data)
            replies = await asyncio.wait_for(
                self._read_n(len(frames)), OP_TIMEOUT_S)
            if self.exchanges is not None:
                self.exchanges.append(
                    (heads, t0, time.perf_counter_ns()))
            return replies
        except asyncio.TimeoutError:
            self.close()
            raise OpError("timeout", "no reply") from None
        except (asyncio.IncompleteReadError, ConnectionError,
                OSError, ValueError) as exc:
            self.close()
            raise OpError("ConnectionLost", repr(exc)) from None

    async def _read_n(self, n: int) -> List[Tuple[Any, bytes]]:
        await self._writer.drain()
        return [await self._read() for _ in range(n)]

    def _outcome(self, response: Any, rid: int, sidecar: memoryview,
                 pos: int) -> Tuple[Any, int]:
        """One reply -> (result or OpError, new sidecar offset)."""
        if not isinstance(response, dict) or response.get("id") != rid:
            self.close()
            raise OpError("WireError", f"reply {response!r} does not "
                                       f"answer request {rid}")
        for event in response.get("events") or ():
            if event.get("event") == "forced-detach":
                self.forced_detaches += 1
        if not response.get("ok"):
            error = response.get("error") or {}
            return OpError(str(error.get("kind", "TerpError")),
                           str(error.get("message", ""))), pos
        result = response.get("result")
        if isinstance(result, dict) and "bin" in result:
            size = int(result.pop("bin"))
            result["data"] = bytes(sidecar[pos:pos + size])
            pos += size
        return result, pos

    # -- round trips ---------------------------------------------------

    async def call(self, op: str, args: Dict[str, Any],
                   data: Optional[bytes] = None) -> Any:
        """One request, one reply; raises :class:`OpError`."""
        (result,) = await self.pipeline([(op, args, data)])
        if isinstance(result, OpError):
            raise result
        return result

    async def pipeline(self, requests: List[Request]) -> List[Any]:
        """One frame per request, all sent before any reply is read.

        Returns one result or :class:`OpError` per request; a lost
        connection raises instead.
        """
        built = [self._request(op, args, data)
                 for op, args, data in requests]
        replies = await self._exchange(
            [_frame(payload, side) for payload, side in built],
            [(payload["id"], payload["op"]) for payload, _ in built])
        out = []
        for (payload, _), (response, sidecar) in zip(built, replies):
            result, _ = self._outcome(response, payload["id"],
                                      memoryview(sidecar), 0)
            out.append(result)
        return out

    async def batch(self, requests: List[Request]) -> List[Any]:
        """All requests in one array frame sharing one sidecar."""
        built = [self._request(op, args, data)
                 for op, args, data in requests]
        frame = _frame([payload for payload, _ in built],
                       b"".join(side for _, side in built))
        ((responses, sidecar),) = await self._exchange(
            [frame], [(built[0][0]["id"], "batch")])
        if not isinstance(responses, list) or \
                len(responses) != len(built):
            raise OpError("WireError", "batch reply shape mismatch")
        view = memoryview(sidecar)
        pos = 0
        out = []
        for (payload, _), response in zip(built, responses):
            result, pos = self._outcome(response, payload["id"], view,
                                        pos)
            out.append(result)
        return out
