"""Unit tests for the repro.net building blocks: the binary wire codec
(framing, packed bodies, hostile and fuzzed input), routing, the
request/response wire codec round trip, and the client's retry/metric
bookkeeping (against scripted fake servers).

The loopback integration suite (real worker processes, crash recovery,
auth, pipelining) lives in tests/test_net.py.
"""

import socket
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.model import FileAllocationProblem
from repro.exceptions import ConfigurationError
from repro.network.builders import ring_graph, star_graph
from repro.net import (
    BINARY_MAGIC,
    BINARY_VERSION,
    MAX_FRAME_BYTES,
    BinaryFrameReader,
    FrameError,
    NetClient,
    ShardRouter,
    decode_binary_frames,
    encode_binary_frame,
    send_binary_frame,
    shard_of_key,
)
from repro.net.binary import (
    _HEADER,
    HEADER_BYTES,
    KIND_GOSSIP_DIGEST,
    KIND_GOSSIP_PULL,
    KIND_GOSSIP_RECORDS,
    KIND_JSON,
    KIND_RESULT,
    KIND_SOLVE,
)
from repro.net.worker import ERROR_WORKER_RESTARTED
from repro.queueing import MD1Delay
from repro.service.codec import (
    parse_request,
    request_to_payload,
    response_from_dict,
)
from repro.service.fingerprint import request_fingerprint, structural_key
from repro.service.types import SolveRequest, SolveResponse


def ring_problem(n=4, *, mu=1.5, rate=1.0, k=1.0):
    return FileAllocationProblem.from_topology(
        ring_graph(n), np.full(n, rate / n), k=k, mu=mu
    )


def star_problem(n=5):
    return FileAllocationProblem.from_topology(
        star_graph(n), np.full(n, 0.8 / n), k=1.0, mu=2.0
    )


def socket_pair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    return a, b


def raw_frame(kind, body, request_id=0, *, length=None):
    """A frame with an arbitrary kind and body (and, optionally, a
    declared length that disagrees with the body)."""
    declared = len(body) if length is None else length
    return _HEADER.pack(BINARY_MAGIC, BINARY_VERSION, kind, 0, request_id, declared) + body


def frame_kind(frame):
    return frame[5]


class TestFraming:
    """The 20-byte header layer, whatever the body kind."""

    def test_encode_decode_round_trip(self):
        payloads = [{"id": "a"}, {"nested": {"x": [1, 2.5, None]}}, {}]
        blob = b"".join(encode_binary_frame(p, i) for i, p in enumerate(payloads))
        frames, rest = decode_binary_frames(blob)
        assert frames == [(p, i) for i, p in enumerate(payloads)]
        assert rest == b""

    def test_partial_frames_stay_buffered(self):
        # The cut falls inside the second frame's *header*.
        first = encode_binary_frame({"id": "a"}, 1)
        blob = first + encode_binary_frame({"id": "b"}, 2)
        cut = len(first) + HEADER_BYTES // 2
        frames, rest = decode_binary_frames(blob[:cut])
        assert frames == [({"id": "a"}, 1)]
        assert rest == blob[len(first):cut]
        frames2, rest2 = decode_binary_frames(rest + blob[cut:])
        assert frames2 == [({"id": "b"}, 2)]
        assert rest2 == b""

    def test_declared_length_capped(self):
        # Refused from the header alone: no body byte is needed.
        with pytest.raises(FrameError, match="exceeds"):
            decode_binary_frames(raw_frame(KIND_JSON, b"", length=MAX_FRAME_BYTES + 1))

    def test_body_must_be_json_object(self):
        with pytest.raises(FrameError, match="JSON object"):
            decode_binary_frames(raw_frame(KIND_JSON, b"[1,2,3]"))

    def test_body_must_be_valid_json(self):
        with pytest.raises(FrameError, match="JSONDecodeError"):
            decode_binary_frames(raw_frame(KIND_JSON, b"xyz"))

    def test_reader_round_trip_over_socketpair(self):
        a, b = socket_pair()
        try:
            sent = send_binary_frame(a, {"id": "r1", "alpha": 0.25}, 5)
            assert sent == len(encode_binary_frame({"id": "r1", "alpha": 0.25}, 5))
            reader = BinaryFrameReader(b)
            assert reader.read() == ({"id": "r1", "alpha": 0.25}, 5)
            assert reader.bytes_read >= sent
            a.close()
            assert reader.read() is None  # clean EOF at a frame boundary
        finally:
            b.close()

    def test_reader_raises_on_mid_frame_eof(self):
        # EOF inside the header (TestBinaryCodec cuts inside a body).
        a, b = socket_pair()
        try:
            a.sendall(encode_binary_frame({"id": "r1"})[: HEADER_BYTES - 3])
            a.close()
            with pytest.raises(FrameError, match="mid-frame"):
                BinaryFrameReader(b).read()
        finally:
            b.close()

    def test_reader_iterates_pipelined_frames(self):
        a, b = socket_pair()
        try:
            for i in range(5):
                send_binary_frame(a, {"i": i}, 100 + i)
            a.close()
            reader = BinaryFrameReader(b)
            got = [reader.read() for _ in range(5)]
            assert got == [({"i": i}, 100 + i) for i in range(5)]
            assert reader.read() is None
        finally:
            b.close()


def solve_payload_dict(i=0, *, n=4, extra=None):
    """A raw-matrix solve payload with every packed field exercised."""
    rng = np.random.default_rng(100 + i)
    payload = {
        "id": f"u{i}",
        "problem": {
            "cost_matrix": [
                [0.0 if r == c else float(rng.uniform(0.5, 2.0)) for c in range(n)]
                for r in range(n)
            ],
            "access_rates": [float(v) for v in rng.uniform(0.02, 0.15, size=n)],
            "mu": [float(v) for v in rng.uniform(1.5, 3.0, size=n)],
            "k": 1.25,
            "name": f"unit-{i}",
        },
        "alpha": 0.2137,
        "epsilon": 3.3e-5,
        "max_iterations": 4242,
        "start": [float(v) for v in rng.dirichlet(np.ones(n))],
        "timeout_s": 1.25,
        "priority": 3,
    }
    if extra:
        payload.update(extra)
    return payload


class TestBinaryCodec:
    def test_solve_payload_round_trips_to_identical_fingerprint(self):
        payload = solve_payload_dict(0)
        blob = encode_binary_frame(payload, 7)
        frames, rest = decode_binary_frames(blob)
        assert rest == b""
        [(decoded, request_id)] = frames
        assert request_id == 7
        # Arrays come back as float64 views, not lists: compare parsed.
        want = parse_request(payload)
        have = parse_request(decoded)
        assert have.request_id == want.request_id == "u0"
        assert have.alpha == want.alpha
        assert have.timeout_s == want.timeout_s
        assert have.priority == want.priority
        assert request_fingerprint(have) == request_fingerprint(want)
        assert decoded["problem"]["name"] == "unit-0"

    def test_packed_defaults_match_json_defaults(self):
        # A minimal payload (no alpha/epsilon/start/...) must normalize
        # to the same request either way the bytes travel.
        minimal = {"problem": solve_payload_dict(1)["problem"]}
        [(decoded, _)], _ = decode_binary_frames(encode_binary_frame(minimal))
        want = parse_request(dict(minimal, id="x"))
        have = parse_request(dict(decoded, id="x"))
        assert request_fingerprint(have) == request_fingerprint(want)

    def test_scalar_mu_and_named_start_round_trip(self):
        payload = {
            "id": "s",
            "problem": {
                "cost_matrix": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]],
                "access_rates": [0.1, 0.2, 0.1],
                "mu": 2.5,
                "k": 1.0,
            },
            "start": "skewed",
        }
        [(decoded, _)], _ = decode_binary_frames(encode_binary_frame(payload))
        assert decoded["problem"]["mu"] == 2.5
        assert decoded["start"] == "skewed"
        assert request_fingerprint(parse_request(decoded)) == request_fingerprint(
            parse_request(payload)
        )

    def test_ok_response_round_trips_to_exact_json_dict(self):
        for cache in ("miss", "hit", "warm", "lookaside"):
            response = SolveResponse(
                request_id="r1",
                status="ok",
                allocation=np.array([0.25, 0.75 + 2.0 ** -40]),
                cost=1.2345,
                iterations=17,
                converged=True,
                cache=cache,
                batch_size=3,
                latency_s=0.5,
            ).as_dict()
            frame = encode_binary_frame(response, 99)
            assert frame_kind(frame) == KIND_RESULT, cache  # every disposition packs
            [(decoded, rid)], rest = decode_binary_frames(frame)
            assert rest == b""
            assert rid == 99
            assert decoded == response, cache  # bit-for-bit, allocation as list

    def test_other_payloads_ride_the_json_kind_exactly(self):
        for payload in (
            {"op": "stats"},
            {"id": "r", "status": "rejected", "reason": "overloaded"},
            {"id": "r", "status": "error", "detail": "boom"},
            solve_payload_dict(2, extra={"not_a_wire_field": 1}),
        ):
            [(decoded, _)], _ = decode_binary_frames(encode_binary_frame(payload))
            assert decoded == payload

    def test_partial_frames_stay_buffered(self):
        blob = encode_binary_frame({"op": "a"}, 1) + encode_binary_frame(
            solve_payload_dict(3), 2
        )
        cut = len(blob) - 5
        frames, rest = decode_binary_frames(blob[:cut])
        assert [rid for _, rid in frames] == [1]
        frames2, rest2 = decode_binary_frames(rest + blob[cut:])
        assert [rid for _, rid in frames2] == [2]
        assert rest2 == b""

    def test_bad_magic_version_and_kind_are_errors(self):
        good = encode_binary_frame({"op": "ping"})
        with pytest.raises(FrameError, match="magic"):
            decode_binary_frames(b"XXXX" + good[4:])
        with pytest.raises(FrameError, match="version"):
            decode_binary_frames(good[:4] + b"\x09" + good[5:])
        with pytest.raises(FrameError, match="kind"):
            decode_binary_frames(good[:5] + b"\x07" + good[6:])

    def test_truncated_packed_bodies_are_errors(self):
        solve = encode_binary_frame(solve_payload_dict(4))
        # Rewrite the declared length so a short body still "completes".
        magic, version, kind, flags, rid, length = _HEADER.unpack_from(solve)
        short = _HEADER.pack(magic, version, kind, flags, rid, length - 8)
        with pytest.raises(FrameError, match="layout requires"):
            decode_binary_frames(short + solve[HEADER_BYTES : len(solve) - 8])

    def test_reader_round_trip_and_clean_eof(self):
        a, b = socket_pair()
        try:
            sent = send_binary_frame(a, solve_payload_dict(5), 11)
            reader = BinaryFrameReader(b)
            payload, rid = reader.read()
            assert rid == 11
            assert reader.bytes_read == sent
            assert payload["id"] == "u5"
            a.close()
            assert reader.read() is None
        finally:
            b.close()

    def test_reader_raises_on_mid_frame_eof(self):
        a, b = socket_pair()
        try:
            a.sendall(encode_binary_frame({"op": "ping"})[:-2])
            a.close()
            with pytest.raises(FrameError, match="mid-frame"):
                BinaryFrameReader(b).read()
        finally:
            b.close()


def gossip_records_payload(key="k", origin="s1", server="s0"):
    rng = np.random.default_rng(7)
    return {
        "op": "gossip_records", "server": server,
        "records": [{
            "key": key, "n": 3, "params": rng.uniform(size=7),
            "allocation": rng.dirichlet(np.ones(3)), "iterations": 4,
            "origin": origin, "epoch": 2, "ttl_s": 1.5,
        }],
    }


def corrupt_first(frame, needle, byte=b"\xff"):
    """``frame`` with the first byte of ``needle`` (searched for past the
    header) overwritten — by default with a byte that is never UTF-8."""
    at = frame.index(needle, HEADER_BYTES)
    return frame[:at] + byte + frame[at + 1:]


class TestHostileFrames:
    """Every malformed body raises FrameError — nothing else — so a
    hostile frame fails one connection, never the thread reading it."""

    def test_undecodable_packed_strings_are_frame_errors(self):
        solve = solve_payload_dict(6)
        solve["start"] = "uniform"
        solve_frame = encode_binary_frame(solve)
        gossip_frame = encode_binary_frame(
            gossip_records_payload(key="kkk", origin="ooo", server="sss")
        )
        result_frame = encode_binary_frame({
            "id": "rrr", "status": "ok", "allocation": [0.5, 0.5], "cost": 1.0,
            "iterations": 3, "converged": True, "cache": "hit",
        })
        cases = [
            (solve_frame, b"u6"), (solve_frame, b"unit-6"), (solve_frame, b"uniform"),
            (gossip_frame, b"kkk"), (gossip_frame, b"ooo"), (gossip_frame, b"sss"),
            (result_frame, b"rrr"),
        ]
        for frame, needle in cases:
            with pytest.raises(FrameError, match="UnicodeDecodeError"):
                decode_binary_frames(corrupt_first(frame, needle))

    def test_deeply_nested_json_is_a_frame_error(self):
        for kind in (KIND_JSON, KIND_GOSSIP_DIGEST, KIND_GOSSIP_PULL):
            with pytest.raises(FrameError, match="RecursionError"):
                decode_binary_frames(raw_frame(kind, b"[" * 200000))

    def test_oversized_header_is_refused_before_any_body_is_buffered(self):
        # The peer sends a header alone and keeps the socket open: the
        # reader must refuse it at once rather than wait for 16 MiB.
        a, b = socket_pair()
        try:
            a.sendall(raw_frame(KIND_SOLVE, b"", length=MAX_FRAME_BYTES + 1))
            reader = BinaryFrameReader(b)
            with pytest.raises(FrameError, match="exceeds"):
                reader.read()
            assert reader.bytes_read == HEADER_BYTES
        finally:
            a.close()
            b.close()


#: One valid frame of every kind the decoder knows.
_VALID_FRAMES = [
    encode_binary_frame(solve_payload_dict(8), 1),
    encode_binary_frame(
        {"id": "r", "status": "ok", "allocation": [0.25, 0.75], "cost": 1.0,
         "iterations": 3, "converged": True, "cache": "lookaside"}, 2,
    ),
    encode_binary_frame({"op": "stats"}, 3),
    encode_binary_frame({"op": "gossip_digest", "server": "a", "buckets": {"3": "ff"}}, 4),
    encode_binary_frame({"op": "gossip_pull", "server": "a", "buckets": {"3": {"k": [1, "a"]}}}, 5),
    encode_binary_frame(gossip_records_payload(), 6),
]
assert sorted(frame_kind(f) for f in _VALID_FRAMES) == [
    KIND_JSON, KIND_SOLVE, KIND_RESULT, KIND_GOSSIP_DIGEST, KIND_GOSSIP_PULL,
    KIND_GOSSIP_RECORDS,
]


@st.composite
def mutated_bodies(draw):
    """A valid frame's kind with its body flipped, cut, or extended,
    re-framed with a consistent length so the body decoders see it."""
    frame = draw(st.sampled_from(_VALID_FRAMES))
    body = bytearray(frame[HEADER_BYTES:])
    for _ in range(draw(st.integers(0, 6))):
        if body:
            at = draw(st.integers(0, len(body) - 1))
            body[at] = draw(st.integers(0, 255))
    if draw(st.booleans()):
        body = body[: draw(st.integers(0, len(body)))]
    body += draw(st.binary(max_size=24))
    return raw_frame(frame_kind(frame), bytes(body))


@st.composite
def mutated_frames(draw):
    """A valid frame with raw byte flips anywhere, header included."""
    frame = bytearray(draw(st.sampled_from(_VALID_FRAMES)))
    for _ in range(draw(st.integers(1, 4))):
        frame[draw(st.integers(0, len(frame) - 1))] = draw(st.integers(0, 255))
    return bytes(frame)


_hostile_inputs = st.one_of(
    mutated_bodies(),
    mutated_frames(),
    st.builds(raw_frame, st.integers(0, 255), st.binary(max_size=64)),
    st.binary(max_size=96),
)


class TestDecoderFuzz:
    """Mutated valid frames of every kind and random bytes: each input
    decodes or raises FrameError; any other exception fails the test."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_hostile_inputs)
    def test_pure_decoder_decodes_or_raises_frame_error(self, blob):
        try:
            decode_binary_frames(blob)
        except FrameError:
            pass

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_hostile_inputs)
    def test_socket_reader_decodes_or_raises_frame_error(self, blob):
        a, b = socket_pair()
        try:
            a.sendall(blob)
            a.close()
            reader = BinaryFrameReader(b)
            try:
                while reader.read() is not None:
                    pass
            except FrameError:
                pass
        finally:
            b.close()


class TestManySmallFrames:
    """Pipelined bursts of tiny frames: the readers must consume their
    buffers by offset (O(bytes)), and must not lose or reorder frames."""

    COUNT = 4000

    def _blast(self, sock, blob):
        def send():
            try:
                sock.sendall(blob)
            finally:
                sock.close()

        thread = threading.Thread(target=send, daemon=True)
        thread.start()
        return thread

    def test_binary_reader_handles_a_burst(self):
        a, b = socket_pair()
        blob = b"".join(
            encode_binary_frame({"i": i}, i + 1) for i in range(self.COUNT)
        )
        thread = self._blast(a, blob)
        try:
            reader = BinaryFrameReader(b)
            got = []
            while True:
                frame = reader.read()
                if frame is None:
                    break
                got.append(frame)
            assert [p["i"] for p, _ in got] == list(range(self.COUNT))
            assert [rid for _, rid in got] == list(range(1, self.COUNT + 1))
        finally:
            thread.join(timeout=5.0)
            b.close()

    def test_pure_decoders_handle_a_burst(self):
        blob = b"".join(encode_binary_frame({"i": i}) for i in range(self.COUNT))
        frames, rest = decode_binary_frames(blob)
        assert len(frames) == self.COUNT and rest == b""


class _ScriptedServer:
    """A fake server: one thread, scripted per connection.

    Each entry in ``script`` handles one accepted connection and is
    called with that connection's socket.
    """

    def __init__(self, *script):
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(4)
        self.host, self.port = self.listener.getsockname()
        self.errors = []

        def run():
            for handle in script:
                conn, _ = self.listener.accept()
                conn.settimeout(5.0)
                try:
                    handle(conn)
                except Exception as exc:  # surfaced by the test body
                    self.errors.append(exc)
                    return

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.thread.join(timeout=5.0)
        self.listener.close()
        assert not self.errors, self.errors


def _ok_reply(payload):
    return {
        "id": payload.get("id", ""), "status": "ok", "allocation": [1.0],
        "cost": 0.0, "iterations": 0, "converged": True,
    }


def _restart_reply(payload):
    return {
        "id": payload.get("id", ""), "status": "error",
        "reason": ERROR_WORKER_RESTARTED, "detail": "scripted",
    }


def _answer(conn, reader, make_reply):
    """Read one request frame and answer it under the same request id."""
    payload, request_id = reader.read()
    send_binary_frame(conn, make_reply(payload), request_id)


class TestClientRetryBudget:
    """Transport failures and in-band worker restarts share ONE re-send
    budget (``retries``).  Regression: ``retry_restarts=True`` with
    ``retries=1`` used to never retry a restart, because the restart
    branch compared the attempt count *before* incrementing while the
    transport branch compared after."""

    def test_restart_is_retried_within_the_shared_budget(self):
        def serve(conn):
            reader = BinaryFrameReader(conn)
            _answer(conn, reader, _restart_reply)
            _answer(conn, reader, _ok_reply)
            conn.close()

        with _ScriptedServer(serve) as server:
            with NetClient(
                server.host, server.port, retries=1,
                retry_restarts=True, backoff_s=0.001,
            ) as client:
                response = client.request({"id": "r1"})
                assert response["status"] == "ok"
                assert client.metrics["restarts_retried"] == 1
                assert client.metrics["retries"] == 1

    def test_restart_with_spent_budget_is_surfaced_structurally(self):
        def serve(conn):
            _answer(conn, BinaryFrameReader(conn), _restart_reply)
            conn.close()

        with _ScriptedServer(serve) as server:
            with NetClient(
                server.host, server.port, retries=0,
                retry_restarts=True, backoff_s=0.001,
            ) as client:
                response = client.request({"id": "r1"})
                assert response["status"] == "error"
                assert response["reason"] == ERROR_WORKER_RESTARTED
                assert client.metrics["restarts_retried"] == 0

    def test_transport_and_restart_failures_draw_from_one_budget(self):
        # Budget of 2: one dropped connection + one restart error both
        # fit; the second restart answer is surfaced, not retried.
        def serve(conn):
            BinaryFrameReader(conn).read()
            conn.close()  # transport failure: mid-request drop

        def serve_restarts(conn):
            reader = BinaryFrameReader(conn)
            _answer(conn, reader, _restart_reply)
            _answer(conn, reader, _restart_reply)
            conn.close()

        with _ScriptedServer(serve, serve_restarts) as server:
            with NetClient(
                server.host, server.port, retries=2,
                retry_restarts=True, backoff_s=0.001,
            ) as client:
                response = client.request({"id": "r1"})
                assert response["status"] == "error"
                assert response["reason"] == ERROR_WORKER_RESTARTED
                assert client.metrics["retries"] == 2
                assert client.metrics["restarts_retried"] == 1


class TestClientConnectMetrics:
    def test_first_connections_are_connects_not_reconnects(self):
        def serve(conn):
            reader = BinaryFrameReader(conn)
            _answer(conn, reader, _ok_reply)
            _answer(conn, reader, _ok_reply)
            conn.close()

        with _ScriptedServer(serve) as server:
            with NetClient(server.host, server.port) as client:
                client.request({"id": "a"})
                client.request({"id": "b"})  # pooled connection is reused
                assert client.metrics["connects"] == 1
                assert client.metrics["reconnects"] == 0

    def test_replacing_a_dropped_connection_is_a_reconnect(self):
        def serve_drop(conn):
            BinaryFrameReader(conn).read()
            conn.close()

        def serve_ok(conn):
            _answer(conn, BinaryFrameReader(conn), _ok_reply)
            conn.close()

        with _ScriptedServer(serve_drop, serve_ok) as server:
            with NetClient(
                server.host, server.port, retries=1,
                backoff_s=0.001,
            ) as client:
                assert client.request({"id": "a"})["status"] == "ok"
                assert client.metrics["connects"] == 1
                assert client.metrics["reconnects"] == 1


class TestShardRouter:
    def test_affinity_is_deterministic_and_structure_keyed(self):
        router = ShardRouter(4)
        r1 = SolveRequest(problem=ring_problem())
        r2 = SolveRequest(problem=ring_problem(mu=2.5), alpha=0.1)  # same shape
        r3 = SolveRequest(problem=star_problem())
        assert router.shard_for(r1) == router.shard_for(r2)
        assert router.shard_for(r1) == shard_of_key(
            structural_key(r1.problem), 4
        )
        assert router.routing_key(r1) == structural_key(r1.problem)
        # Different structures may collide, but the expected key differs.
        assert router.routing_key(r3) != router.routing_key(r1)

    def test_route_counts_tally(self):
        router = ShardRouter(2)
        for _ in range(3):
            router.shard_for(SolveRequest(problem=ring_problem()))
        assert sum(router.route_counts) == 3
        assert max(router.route_counts) == 3  # all on the affinity shard

    def test_random_policy_spreads_and_is_seeded(self):
        a = ShardRouter(4, policy="random", seed=7)
        b = ShardRouter(4, policy="random", seed=7)
        requests = [SolveRequest(problem=ring_problem()) for _ in range(32)]
        shards_a = [a.shard_for(r) for r in requests]
        shards_b = [b.shard_for(r) for r in requests]
        assert shards_a == shards_b  # reproducible
        assert len(set(shards_a)) > 1  # locality destroyed
        assert a.routing_key(requests[0]) is None

    def test_rejects_bad_configuration(self):
        with pytest.raises(ConfigurationError):
            ShardRouter(0)
        with pytest.raises(ConfigurationError):
            ShardRouter(2, policy="round-robin")


class TestWireCodecRoundTrip:
    def test_request_round_trip_is_exact(self):
        rng = np.random.default_rng(3)
        problem = FileAllocationProblem.from_topology(
            ring_graph(5), rng.uniform(0.01, 0.15, size=5), k=1.7,
            mu=rng.uniform(1.2, 3.0, size=5),
        )
        request = SolveRequest(
            problem=problem,
            alpha=0.2137,
            epsilon=3.3e-5,
            max_iterations=4242,
            initial_allocation=rng.dirichlet(np.ones(5)),
            request_id="round-trip",
            timeout_s=1.25,
            priority=3,
        )
        rebuilt = parse_request(request_to_payload(request))
        assert rebuilt.request_id == request.request_id
        assert rebuilt.alpha == request.alpha
        assert rebuilt.epsilon == request.epsilon
        assert rebuilt.max_iterations == request.max_iterations
        assert rebuilt.timeout_s == request.timeout_s
        assert rebuilt.priority == request.priority
        assert np.array_equal(
            rebuilt.initial_allocation, request.initial_allocation
        )
        # The solver-facing identity: same fingerprint means the remote
        # solve is bit-for-bit the local solve.
        assert request_fingerprint(rebuilt) == request_fingerprint(request)

    def test_non_mm1_problem_has_no_wire_form(self):
        problem = FileAllocationProblem(
            1.0 - np.eye(3), np.full(3, 1.0 / 3), k=1.0,
            delay_models=[MD1Delay(2.0)] * 3,
        )
        with pytest.raises(ConfigurationError, match="wire representation"):
            request_to_payload(SolveRequest(problem=problem))

    def test_response_round_trip_ok_and_rejected(self):
        ok = SolveResponse(
            request_id="r1",
            status="ok",
            allocation=np.array([0.25, 0.75]),
            cost=1.2345,
            iterations=17,
            converged=True,
            cache="warm",
            batch_size=3,
            latency_s=0.5,
        )
        rebuilt = response_from_dict(ok.as_dict())
        assert rebuilt.as_dict() == ok.as_dict()
        rejected = SolveResponse(
            request_id="r2", status="rejected", reason="queue_full", detail="d"
        )
        assert response_from_dict(rejected.as_dict()).as_dict() == rejected.as_dict()

    def test_error_marker_has_no_typed_form(self):
        with pytest.raises(ConfigurationError, match="no typed form"):
            response_from_dict({"status": "error", "detail": "boom"})


class TestCheckMetrics:
    """The docs-vs-emissions checker: every service.*/net.* metric the
    docs promise must be emitted somewhere in src/."""

    @staticmethod
    def run_checker(docs_dir, src_dir):
        import importlib.util
        from pathlib import Path

        spec = importlib.util.spec_from_file_location(
            "check_metrics",
            Path(__file__).resolve().parent.parent / "tools" / "check_metrics.py",
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.main(["--docs", str(docs_dir), "--src", str(src_dir)])

    def test_real_docs_pass_against_real_src(self):
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        assert self.run_checker(root / "docs", root / "src") == 0

    def test_documented_but_unemitted_metric_fails(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "OPS.md").write_text(
            "Watch `net.requests` and `net.bogus.counter` on the dashboard.\n"
        )
        src = tmp_path / "src"
        src.mkdir()
        (src / "emit.py").write_text(
            'registry.counter_inc("net.requests")\n'
        )
        assert self.run_checker(docs, src) == 1

    def test_fstring_placeholders_match_as_wildcards(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "OPS.md").write_text(
            "Dispositions land on `service.cache.hit` and "
            "`service.cache.demoted`.\n"
        )
        src = tmp_path / "src"
        src.mkdir()
        (src / "emit.py").write_text(
            'registry.counter_inc(f"service.cache.{status}")\n'
        )
        assert self.run_checker(docs, src) == 0

    def test_paths_calls_and_globs_are_not_mentions(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "OPS.md").write_text(
            "See repro.net.binary and service.py; call service.solve(req) "
            "or net.stats(); the whole `service.*` family is merged. "
            "Config lives in service.cache.json for now.\n"
        )
        src = tmp_path / "src"
        src.mkdir()
        (src / "emit.py").write_text("x = 1\n")
        assert self.run_checker(docs, src) == 0

    def test_gossip_family_is_covered(self, tmp_path):
        """The net.gossip.* names match literal emissions and the
        per-peer f-string gauge; a misspelled one still fails."""
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "OPS.md").write_text(
            "Watch `net.gossip.rounds`, `net.gossip.records_merged` and "
            "the per-peer `net.gossip.peer.0.lag_s` gauge.\n"
        )
        src = tmp_path / "src"
        src.mkdir()
        (src / "emit.py").write_text(
            'registry.counter_inc("net.gossip.rounds")\n'
            'registry.counter_inc("net.gossip.records_merged")\n'
            'registry.gauge_set(f"net.gossip.peer.{peer.index}.lag_s", lag)\n'
        )
        assert self.run_checker(docs, src) == 0
        (docs / "OPS.md").write_text("Watch `net.gossip.roundz`.\n")
        assert self.run_checker(docs, src) == 1

    def test_real_gossip_metrics_are_emission_patterns(self):
        """Every metric the gossip subsystem claims to emit really shows
        up as an emission pattern in src/ (guards against renames)."""
        import importlib.util
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "check_metrics", root / "tools" / "check_metrics.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        patterns = module.emitted_patterns(root / "src")
        for name in (
            "net.gossip.rounds",
            "net.gossip.anti_entropy",
            "net.gossip.records_sent",
            "net.gossip.records_merged",
            "net.gossip.bytes",
            "net.gossip.deferred",
            "net.gossip.peer_down",
            "net.gossip.peers_live",
            "net.lookaside.expired",
        ):
            assert name in patterns, name
        import fnmatch

        assert any(
            "*" in p and fnmatch.fnmatchcase("net.gossip.peer.3.lag_s", p)
            for p in patterns
        )
