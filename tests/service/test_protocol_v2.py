"""Protocol v2: negotiation, the binary sidecar, and v1 coexistence.

The contract under test: a v2 client and a v2 server move PMO data as
raw bytes in a frame sidecar (zero base64); every other pairing —
old client, old server, or a forced ``TERP_PROTOCOL_VERSION=1`` —
degrades to the bit-identical v1 JSON wire; and a truncated or
short-counted sidecar is a typed :class:`WireError`, never a hang.
"""

import socket

import pytest

from repro.core.units import MIB
from repro.service import protocol
from repro.service.client import ConnectionLost, SyncTerpClient
from repro.service.protocol import (
    HEADER, PROTOCOL_V1, PROTOCOL_VERSION, SIDECAR_FLAG, WireError)
from repro.service.server import ServiceThread, TerpService


@pytest.fixture(autouse=True)
def _default_wire(monkeypatch):
    """These tests pin wire versions themselves; a CI leg's forced
    ``TERP_PROTOCOL_VERSION`` must not leak in."""
    monkeypatch.delenv("TERP_PROTOCOL_VERSION", raising=False)


@pytest.fixture
def terpd_v1():
    """A legacy daemon: speaks (and strictly insists on) protocol v1."""
    thread = ServiceThread(TerpService(port=0,
                                       session_ew_ns=2_000_000_000,
                                       protocol_version=PROTOCOL_V1))
    service = thread.start()
    yield service
    thread.stop()


def roundtrip(client, payload=b"\x00\xffbinary\x00 payload\xfe" * 40):
    client.create("v2rt", MIB)
    client.attach("v2rt")
    oid = client.pmalloc("v2rt", len(payload))
    assert client.write(oid, payload) == len(payload)
    assert client.read(oid, len(payload)) == payload
    client.detach("v2rt")


class TestNegotiation:
    def test_default_is_v2_both_ways(self, terpd):
        with SyncTerpClient(port=terpd.bound_port) as client:
            assert client.protocol_version == PROTOCOL_VERSION
            roundtrip(client)

    def test_env_forces_v1(self, terpd, monkeypatch):
        monkeypatch.setenv("TERP_PROTOCOL_VERSION", "1")
        with SyncTerpClient(port=terpd.bound_port) as client:
            assert client.protocol_version == PROTOCOL_V1
            roundtrip(client)

    def test_v2_client_falls_back_to_v1_server(self, terpd_v1):
        # The old server rejects the version offer outright; the
        # client downgrades, re-hellos, and the session works.
        with SyncTerpClient(port=terpd_v1.bound_port) as client:
            assert client.protocol_version == PROTOCOL_V1
            roundtrip(client)

    def test_v1_client_on_v2_server_stays_v1(self, terpd):
        # An old client omits "version" entirely: the server must
        # treat it as v1 and never emit a sidecar at it.
        with socket.create_connection(
                ("127.0.0.1", terpd.bound_port), timeout=10) as sock:
            protocol.send_frame(sock, protocol.request(
                1, "hello", {"user": "old"}))
            response = protocol.recv_frame(sock)   # raises on sidecar
            assert response["ok"]
            assert response["result"]["version"] == PROTOCOL_V1
            protocol.send_frame(sock, protocol.request(
                2, "create", {"name": "old", "size": MIB}))
            assert protocol.recv_frame(sock)["ok"]
            protocol.send_frame(sock, protocol.request(
                3, "attach", {"name": "old"}))
            assert protocol.recv_frame(sock)["ok"]
            protocol.send_frame(sock, protocol.request(
                4, "pmalloc", {"name": "old", "size": 64}))
            oid = protocol.recv_frame(sock)["result"]["oid"]
            protocol.send_frame(sock, protocol.request(
                5, "write", {"oid": oid,
                             "data": protocol.encode_bytes(b"x" * 64)}))
            assert protocol.recv_frame(sock)["result"]["n"] == 64
            protocol.send_frame(sock, protocol.request(
                6, "read", {"oid": oid, "n": 64}))
            result = protocol.recv_frame(sock)["result"]
            # v1 wire: base64 text, no "bin" marker, no sidecar.
            assert protocol.decode_bytes(result["data"]) == b"x" * 64


class TestMixedVersionTraffic:
    def test_mixed_version_pipelining(self, terpd, monkeypatch):
        """A v1 and a v2 session pipeline against the same daemon and
        the same PMO, interleaved, each on its own wire dialect."""
        port = terpd.bound_port
        with SyncTerpClient(port=port) as v2:
            assert v2.protocol_version == PROTOCOL_VERSION
            monkeypatch.setenv("TERP_PROTOCOL_VERSION", "1")
            with SyncTerpClient(port=port) as v1:
                assert v1.protocol_version == PROTOCOL_V1
                v2.create("mix", MIB, mode=0o666)
                v2.attach("mix")
                v1.attach("mix")
                oids = [v2.pmalloc("mix", 16) for _ in range(4)]
                payloads = [bytes([i + 1]) * 16 for i in range(4)]
                v2.pipeline([("write", {"oid": oid.pack(),
                                        "data": data})
                             for oid, data in zip(oids, payloads)])
                reads = v1.pipeline([("read", {"oid": oid.pack(),
                                               "n": 16})
                                     for oid in oids])
                for result, expected in zip(reads, payloads):
                    assert protocol.decode_bytes(
                        result["data"]) == expected
                reads = v2.pipeline([("read", {"oid": oid.pack(),
                                               "n": 16})
                                     for oid in oids])
                for result, expected in zip(reads, payloads):
                    assert result["data"] == expected

    def test_batch_sidecar_orders_chunks_per_item(self, terpd):
        with SyncTerpClient(port=terpd.bound_port) as client:
            client.create("bat", MIB)
            client.attach("bat")
            oids = [client.pmalloc("bat", 8) for _ in range(3)]
            payloads = [bytes([0x10 * (i + 1)]) * 8 for i in range(3)]
            # One batch frame, one combined request sidecar.
            client.batch([("write", {"oid": oid.pack(), "data": data})
                          for oid, data in zip(oids, payloads)])
            # One batch frame back with a combined response sidecar,
            # including a non-binary item wedged between reads.
            results = client.batch(
                [("read", {"oid": oids[0].pack(), "n": 8}),
                 ("ping", {}),
                 ("read", {"oid": oids[2].pack(), "n": 8})])
            assert results[0]["data"] == payloads[0]
            assert "now_ns" in results[1]
            assert results[2]["data"] == payloads[2]

    def test_replay_cache_spans_versions(self, terpd, monkeypatch):
        """A response first served on the v2 wire replays correctly
        onto a v1 connection after a resume-downgrade."""
        port = terpd.bound_port
        client = SyncTerpClient(port=port).connect()
        try:
            client.create("rep", MIB)
            client.attach("rep")
            oid = client.pmalloc("rep", 16)
            client.write(oid, b"R" * 16)
            rid = client._next_id + 1
            assert client.read(oid, 16) == b"R" * 16   # cached at rid
            # Same session, same request id, now over a v1 socket.
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=10) as sock:
                client._drop_socket()   # free the session binding
                terpd.run_sweep()       # let the daemon notice
                protocol.send_frame(sock, protocol.request(
                    99, "hello", {"user": "root",
                                  "resume": client.session_id,
                                  "token": client.resume_token}))
                hello = protocol.recv_frame(sock)
                assert hello["ok"], hello
                protocol.send_frame(sock, protocol.request(
                    rid, "read", {"oid": oid.pack(), "n": 16}))
                replayed = protocol.recv_frame(sock)
                assert protocol.decode_bytes(
                    replayed["result"]["data"]) == b"R" * 16
        finally:
            client.close()


class TestTruncationAndHostileFrames:
    def _hello_frame(self) -> bytes:
        body = protocol.encode_body(protocol.request(
            1, "hello", {"user": "fuzz", "version": 2}))
        return protocol.frame_from_body(body)

    def _write_frame_with_sidecar(self) -> bytes:
        body = protocol.encode_body(protocol.request(
            2, "write", {"oid": 12345, "data": {"bin": 64}}))
        return protocol.frame_from_body(body, b"\xab" * 64)

    def test_truncated_sidecar_is_wire_error_not_hang(self, terpd):
        frame = self._write_frame_with_sidecar()
        assert HEADER.unpack(frame[:4])[0] & SIDECAR_FLAG
        # Cut everywhere interesting: mid-header, mid-body, at the
        # sidecar length word, and mid-sidecar.
        body_len = HEADER.unpack(frame[:4])[0] & protocol.LEN_MASK
        cuts = [2, 4 + body_len // 2, 4 + body_len,
                4 + body_len + 2, 4 + body_len + 4,
                4 + body_len + 4 + 32]
        for cut in cuts:
            with socket.create_connection(
                    ("127.0.0.1", terpd.bound_port),
                    timeout=10) as sock:
                sock.sendall(self._hello_frame())
                assert protocol.recv_frame_ex(sock)[0]["ok"]
                sock.sendall(frame[:cut])
                sock.shutdown(socket.SHUT_WR)
                # The server must close the connection (clean EOF or
                # reset), not stall waiting for the missing bytes.
                sock.settimeout(5.0)
                try:
                    got = protocol.recv_frame_ex(sock)
                except (WireError, ConnectionError):
                    got = None
                assert got is None

    def test_sidecar_underrun_is_typed_error(self):
        # A {"bin": n} marker claiming more bytes than the sidecar
        # holds must fail the request, not desync the stream.
        bins = protocol.BinReader(b"abc")
        assert bins.take(2) == b"ab"
        with pytest.raises(WireError, match="underrun"):
            bins.take(10)
        with pytest.raises(WireError):
            bins.take(-1)

    def test_server_rejects_sidecar_underrun_request(self, terpd):
        with socket.create_connection(
                ("127.0.0.1", terpd.bound_port), timeout=10) as sock:
            sock.sendall(self._hello_frame())
            assert protocol.recv_frame_ex(sock)[0]["ok"]
            body = protocol.encode_body(protocol.request(
                7, "write", {"oid": 1, "data": {"bin": 4096}}))
            sock.sendall(protocol.frame_from_body(body, b"short"))
            response, sidecar = protocol.recv_frame_ex(sock)
            assert not response["ok"]
            assert sidecar == b""
            assert "underrun" in response["error"]["message"]

    def test_flagged_length_on_v1_reader_is_wire_error(self):
        # What an old client sees if a sidecar frame ever reached it:
        # the flagged word decodes to an impossible length, a typed
        # failure rather than a 2-GiB read or a hang.
        server, client = socket.socketpair()
        try:
            client.sendall(HEADER.pack(SIDECAR_FLAG | 0x7FFFFFFF))
            client.close()
            with pytest.raises(WireError):
                protocol.recv_frame(server)
        finally:
            server.close()

    def test_client_absorbs_clean_eof_mid_pipeline(self, terpd):
        # Sanity: ConnectionLost (not a hang) when the server dies
        # between pipelined sidecar frames.
        client = SyncTerpClient(port=terpd.bound_port).connect()
        try:
            client.create("eof", MIB)
            client._drop_socket()
            with pytest.raises(ConnectionLost):
                client.ping()
        finally:
            client.close()


class TestOversizeGuards:
    def test_oversized_batch_fails_before_join(self):
        item = {"id": 1, "op": "write",
                "args": {"data": "x" * (6 * 1024 * 1024)}}
        with pytest.raises(WireError, match="batch frame exceeds"):
            protocol.encode_body([item, item, item])

    def test_oversized_sidecar_rejected(self):
        with pytest.raises(WireError, match="sidecar"):
            protocol.frame_from_body(
                b"{}", b"\x00" * (protocol.MAX_SIDECAR_BYTES + 1))
