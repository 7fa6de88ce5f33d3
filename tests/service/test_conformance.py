"""The session front door and argument hygiene, pinned to exact replies.

Every case here runs against a standalone daemon by default and, with
``TERP_CLUSTER=2``, against the cluster router — the two terminate
client sessions with the same code, so a hello refusal or a malformed
argument must come back with the same kind and message through either.
"""

import json
import socket

import pytest

from repro.core.units import MIB
from repro.service import protocol
from repro.service.client import RemoteError, SyncTerpClient
from repro.service.protocol import HEADER, PROTOCOL_VERSION


class RawConn:
    """A bare socket speaking hand-built v1 frames."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=10)
        self.rid = 0

    def send_text(self, op: str, args_text: str) -> dict:
        """Send one request whose args are literal JSON text (so
        ``NaN``/``Infinity``/``1e400`` reach the server verbatim)."""
        self.rid += 1
        body = ('{"id":%d,"op":"%s","args":%s}'
                % (self.rid, op, args_text)).encode()
        self.sock.sendall(HEADER.pack(len(body)) + body)
        response = protocol.recv_frame(self.sock)
        assert response is not None, f"{op} {args_text} dropped the link"
        assert response["id"] == self.rid
        return response

    def send(self, op: str, **args) -> dict:
        return self.send_text(op, json.dumps(args))

    def close(self) -> None:
        self.sock.close()


@pytest.fixture
def raw(terpd):
    conn = RawConn(terpd.bound_port)
    yield conn
    conn.close()


def _error(response: dict):
    assert response["ok"] is False, response
    return response["error"]["kind"], response["error"]["message"]


class TestHelloConformance:
    """One row per refusal; the connection survives every one."""

    def test_bad_token(self, terpd, raw):
        with SyncTerpClient(port=terpd.bound_port) as client:
            sid = client.session_id
            assert _error(raw.send("hello", resume=sid,
                                   token="0" * 32)) == (
                "TerpError", f"bad resume token for session {sid}")
            assert _error(raw.send("hello", resume=sid)) == (
                "TerpError", f"bad resume token for session {sid}")

    def test_resume_of_a_still_bound_session(self, terpd, raw):
        with SyncTerpClient(port=terpd.bound_port) as client:
            sid = client.session_id
            assert _error(raw.send("hello", resume=sid,
                                   token=client.resume_token)) == (
                "TerpError",
                f"session {sid} is still bound to a live connection")

    def test_unknown_session_id(self, raw):
        assert _error(raw.send("hello", resume=987654,
                               token="x")) == (
            "TerpError", "no session 987654 to resume")

    def test_version_zero(self, raw):
        assert _error(raw.send("hello", version=0)) == (
            "TerpError",
            f"protocol version 0 unsupported; server speaks "
            f"{PROTOCOL_VERSION}")

    def test_second_hello_on_one_connection(self, raw):
        assert raw.send("hello", user="once")["ok"]
        assert _error(raw.send("hello", user="twice")) == (
            "TerpError", "connection already has a session")

    @pytest.mark.parametrize("field,value,exc", [
        ("version", "abc",
         "ValueError(\"invalid literal for int() with base 10: "
         "'abc'\")"),
        ("ew_budget_us", "abc",
         "ValueError(\"could not convert string to float: 'abc'\")"),
    ])
    def test_non_numeric_fields(self, raw, field, value, exc):
        assert _error(raw.send("hello", **{field: value})) == (
            "BadRequest", f"malformed arguments: {exc}")

    def test_refused_hello_leaves_the_connection_usable(self, raw):
        _error(raw.send("hello", version=0))
        _error(raw.send("hello", resume=987654, token="x"))
        reply = raw.send("hello", user="late")
        assert reply["ok"] and reply["result"]["resumed"] is False
        assert raw.send("ping")["ok"]

    def test_resume_reply_matches_fresh_reply(self, terpd, raw):
        client = SyncTerpClient(port=terpd.bound_port).connect()
        sid, token = client.session_id, client.resume_token
        client.close()
        terpd.run_sweep()          # let the server notice the drop
        reply = raw.send("hello", resume=sid, token=token)
        assert reply["ok"], reply
        result = reply["result"]
        assert (result["session"], result["entity"], result["token"],
                result["resumed"]) == (sid, client.entity_id, token,
                                       True)
        assert result["ew_budget_us"] == client.ew_budget_us


#: (op, args as literal JSON) — every integer-valued argument carrying
#: a number Python's JSON decoder admits but ``int()`` cannot take.
#: ``OID`` is replaced by a live object id.
NON_FINITE = [
    ("create", '{"name":"nf-new","size":Infinity}'),
    ("create", '{"name":"nf-new","size":1e400}'),
    ("pmalloc", '{"name":"nf","size":1e400}'),
    ("pmalloc", '{"name":"nf","size":-Infinity}'),
    ("read", '{"oid":OID,"n":Infinity}'),
    ("read", '{"oid":NaN,"n":8}'),
    ("read", '{"oid":Infinity,"n":8}'),
    ("read", '{"oid":-1e400,"n":8}'),
    ("write_u64", '{"oid":OID,"value":Infinity}'),
    ("pfree", '{"oid":NaN}'),
    ("trace", '{"limit":Infinity}'),
    ("trace", '{"limit":NaN}'),
]


class TestNonFiniteArguments:
    @pytest.fixture
    def session(self, raw):
        assert raw.send("hello", user="nf")["ok"]
        assert raw.send("create", name="nf", size=MIB)["ok"]
        assert raw.send("attach", name="nf")["ok"]
        raw.oid = raw.send("pmalloc", name="nf", size=64)["result"]["oid"]
        return raw

    @pytest.mark.parametrize("op,args", NON_FINITE)
    def test_typed_bad_request_and_link_survives(self, session, op,
                                                  args):
        response = session.send_text(
            op, args.replace("OID", str(session.oid)))
        kind, message = _error(response)
        assert kind == "BadRequest", message
        assert session.send("ping")["ok"]
        assert session.send("read", oid=session.oid, n=8)["ok"]

    @pytest.mark.parametrize("args", [
        '{"user":"nf","ew_budget_us":Infinity}',
        '{"user":"nf","ew_budget_us":-1e400}',
        '{"resume":Infinity,"token":"t"}',
        '{"resume":NaN,"token":"t"}',
        '{"version":Infinity}',
    ])
    def test_non_finite_hello(self, raw, args):
        kind, message = _error(raw.send_text("hello", args))
        assert kind == "BadRequest", message
        assert raw.send("hello", user="after")["ok"]

    def test_batch_slot_isolated(self, terpd):
        with SyncTerpClient(port=terpd.bound_port) as client:
            client.create("nfb", MIB)
            with pytest.raises(RemoteError) as err:
                client.batch([("ping", {}),
                               ("create", {"name": "nfb2",
                                           "size": float("inf")}),
                               ("attach", {"name": "nfb"})])
            assert err.value.kind == "BadRequest"
            # The slots around the bad one ran; the session is intact.
            assert client.detach("nfb")["outcome"] in ("performed",
                                                       "silent")


class TestBurstEdges:
    def test_pipeline_error_slot_keeps_the_connection_in_step(
            self, terpd):
        with SyncTerpClient(port=terpd.bound_port) as client:
            with pytest.raises(RemoteError) as err:
                client.pipeline([("attach", {"name": "nope"}),
                                 ("ping", {}), ("ping", {})])
            assert "nope" in str(err.value)
            assert "now_ns" in client.call("ping")
            assert len(client.pipeline([("ping", {})] * 3)) == 3

    def test_first_error_wins_and_later_slots_ran(self, terpd):
        with SyncTerpClient(port=terpd.bound_port) as client:
            client.create("order", MIB)
            with pytest.raises(RemoteError) as err:
                client.pipeline([("attach", {"name": "missing-a"}),
                                 ("attach", {"name": "order"}),
                                 ("attach", {"name": "missing-b"})])
            assert "missing-a" in str(err.value)
            assert client.detach("order")["outcome"] in ("performed",
                                                         "silent")

    def test_empty_bursts_make_no_round_trip(self, terpd):
        with SyncTerpClient(port=terpd.bound_port) as client:
            client.close()         # any round trip would now fail
            assert client.pipeline([]) == []
            assert client.batch([]) == []

    def test_sidecar_underrun_fails_only_its_batch_slot(self, raw):
        assert raw.send("hello", user="under")["ok"]
        assert raw.send("create", name="under", size=MIB)["ok"]
        assert raw.send("attach", name="under")["ok"]
        oid = raw.send("pmalloc", name="under", size=64)["result"]["oid"]
        for claim in (100, -1):
            # A write whose binary marker claims bytes the (absent)
            # sidecar does not hold, between two good items.
            body = json.dumps([
                protocol.request(90, "ping"),
                protocol.request(91, "write", {"oid": oid,
                                               "data": {"bin": claim}}),
                protocol.request(92, "ping")]).encode()
            raw.sock.sendall(HEADER.pack(len(body)) + body)
            responses = protocol.recv_frame(raw.sock)
            assert responses is not None, "the batch dropped the link"
            assert [r["ok"] for r in responses] == [True, False, True]
            assert responses[1]["error"]["kind"] == "WireError"
            assert "sidecar underrun" in responses[1]["error"]["message"]
        assert raw.send("ping")["ok"]
