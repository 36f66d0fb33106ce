"""The wire codec: struct-packed frames, ``np.frombuffer`` bodies.

Every byte the server and client exchange is a frame of this codec:

* every frame starts with a **struct-packed header** —
  ``magic (4s) | version (B) | kind (B) | flags (H) | request id (Q) |
  body length (I)`` in little-endian byte order — so a reader always
  knows where the next frame begins without scanning for a delimiter;
* the **request id** is a transport-level correlation number: a
  pipelining client stamps each outgoing frame and matches responses by
  the echoed id, so many frames can be in flight per connection and the
  server may answer out of order (shards finish when they finish);
* solve requests and completed solves travel as **packed bodies**: the
  scalar fields in one struct, the float64 arrays (cost matrix, access
  rates, service rates, starting/served allocation) as raw little-endian
  bytes decoded with ``np.frombuffer`` — no per-element Python objects
  on the hot path;
* everything else (control verbs, hellos, errors, rejections, payloads
  with fields the packed layout does not know) rides as
  :data:`KIND_JSON` — a JSON body inside a binary frame — so a
  connection can carry *any* dict of the :mod:`repro.service.codec`
  wire format;
* the gossip mesh (:mod:`repro.net.gossip`) reuses the same 20-byte
  header: :data:`KIND_GOSSIP_DIGEST` and :data:`KIND_GOSSIP_PULL` carry
  compact JSON control bodies, while :data:`KIND_GOSSIP_RECORDS` packs
  batches of lookaside donor records — raw float64 parameter and
  allocation vectors — the same way solve bodies pack their arrays.

Parity is the contract: packing a request and unpacking it yields a
payload whose :func:`~repro.service.codec.parse_request` result
fingerprints identically to the original's, and an unpacked response
dict equals the JSON dict ``repro-fap serve`` would print for it
(float64 survives bit-for-bit).

Anything that arrives from the network is hostile until decoded: a
corrupt header, an oversized declared length, a truncated or
inconsistent packed body, undecodable strings, or a JSON body that is
not an object (or nests too deeply to parse) all raise
:class:`FrameError` — the one error a reader has to handle.  Frames
larger than :data:`MAX_FRAME_BYTES` are refused from the header alone,
before any body byte is buffered.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import ReproError

__all__ = [
    "BINARY_MAGIC",
    "BINARY_VERSION",
    "BinaryFrameReader",
    "FrameError",
    "MAX_FRAME_BYTES",
    "decode_binary_frames",
    "encode_binary_frame",
    "send_binary_frame",
]

#: First four bytes of every frame.
BINARY_MAGIC = b"\xfaFAP"

#: Wire protocol version; bumped on any incompatible layout change.
BINARY_VERSION = 1

#: Hard cap on one frame's body; a request is ~kilobytes, so this is
#: three orders of magnitude of headroom, and anything near it is
#: garbage or an attack.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Body is UTF-8 JSON (control verbs, errors, unpackable payloads).
KIND_JSON = 0
#: Body is a packed solve request (scalars + raw float64 arrays).
KIND_SOLVE = 1
#: Body is a packed completed solve (scalars + raw float64 allocation).
KIND_RESULT = 2
#: Body is a JSON gossip digest (per-bucket tier fingerprints).
KIND_GOSSIP_DIGEST = 3
#: Body is a JSON gossip pull (per-bucket epoch vectors).
KIND_GOSSIP_PULL = 4
#: Body is a packed batch of lookaside donor records (raw float64
#: parameter/allocation vectors — the bulk bytes of the gossip mesh).
KIND_GOSSIP_RECORDS = 5

_HEADER = struct.Struct("<4sBBHQI")
HEADER_BYTES = _HEADER.size

# Packed solve request: alpha, epsilon, k, timeout_s (NaN = unset),
# max_iterations, n, priority, flags, id/name/start-name byte lengths.
_SOLVE_FRONT = struct.Struct("<ddddqiiHHHH")
_SOLVE_MU_SCALAR = 0x1  # mu is one float broadcast to every node
_SOLVE_MU_NONE = 0x2  # problem spec carried no mu at all
_SOLVE_START_VECTOR = 0x4  # start is an n-vector (else a named start)

# Packed completed solve: cost, latency_s, iterations, batch_size,
# flags (converged + cache disposition), id byte length; the allocation
# is the rest of the body.
_RESULT_FRONT = struct.Struct("<ddqiHH")
_RESULT_CONVERGED = 0x1
_CACHE_CODES = {"miss": 0, "hit": 1, "warm": 2, "lookaside": 3}
_CACHE_NAMES = {code: name for name, code in _CACHE_CODES.items()}

_RECV_CHUNK = 262144

# Packed gossip-record batch: server-id byte length + record count, then
# per record a front struct — epoch, remaining ttl (NaN = none),
# iterations, n, key/origin byte lengths — followed by the key and origin
# strings and the raw float64 params (2n+1) and allocation (n) vectors.
_GOSSIP_BATCH_FRONT = struct.Struct("<HI")
_GOSSIP_RECORD_FRONT = struct.Struct("<qdqiHH")
_GOSSIP_OP_KINDS = {
    "gossip_digest": KIND_GOSSIP_DIGEST,
    "gossip_pull": KIND_GOSSIP_PULL,
}

_PACKED_REQUEST_KEYS = {
    "id", "problem", "alpha", "epsilon", "max_iterations", "start",
    "timeout_s", "priority",
}
_PACKED_PROBLEM_KEYS = {"cost_matrix", "access_rates", "mu", "k", "name"}
_PACKED_RESPONSE_KEYS = {
    "id", "status", "allocation", "cost", "iterations", "converged",
    "cache", "batch_size", "latency_s",
}


class FrameError(ReproError):
    """The byte stream violated the framing protocol (bad magic, unknown
    version or kind, oversized or truncated body, corrupt packed layout,
    or a body that does not decode)."""


def _f64(values) -> np.ndarray:
    # No ascontiguousarray: it would promote 0-d scalars to 1-d (breaking
    # the scalar-mu layout flag), and ``tobytes()`` emits C-order bytes
    # whatever the source layout.
    return np.asarray(values, dtype=np.float64)


def _pack_solve_body(payload: Dict) -> Optional[bytes]:
    """The packed body for a solve-request payload, or ``None`` when the
    payload has fields the packed layout cannot carry (it then travels
    as :data:`KIND_JSON` instead — nothing is ever dropped)."""
    if not _PACKED_REQUEST_KEYS.issuperset(payload):
        return None
    problem = payload.get("problem")
    if not isinstance(problem, dict) or not _PACKED_PROBLEM_KEYS.issuperset(problem):
        return None
    if "cost_matrix" not in problem or "access_rates" not in problem:
        return None
    try:
        cost = _f64(problem["cost_matrix"])
        rates = _f64(problem["access_rates"])
    except (TypeError, ValueError):
        return None
    n = rates.size
    if cost.shape != (n, n) or rates.ndim != 1:
        return None

    flags = 0
    mu = problem.get("mu")
    if mu is None:
        flags |= _SOLVE_MU_NONE
        mu_arr = np.empty(0, dtype=np.float64)
    else:
        try:
            mu_arr = _f64(mu)
        except (TypeError, ValueError):
            return None
        if mu_arr.ndim == 0:
            flags |= _SOLVE_MU_SCALAR
            mu_arr = mu_arr.reshape(1)
        elif mu_arr.shape != (n,):
            return None

    start = payload.get("start", "uniform")
    start_name = b""
    if isinstance(start, str):
        start_arr = np.empty(0, dtype=np.float64)
        start_name = start.encode("utf-8")
    else:
        try:
            start_arr = _f64(start)
        except (TypeError, ValueError):
            return None
        if start_arr.shape != (n,):
            return None
        flags |= _SOLVE_START_VECTOR

    timeout = payload.get("timeout_s")
    id_bytes = str(payload.get("id", "")).encode("utf-8")
    name_bytes = str(problem.get("name", "")).encode("utf-8")
    if max(len(id_bytes), len(name_bytes), len(start_name)) > 0xFFFF:
        return None
    try:
        front = _SOLVE_FRONT.pack(
            float(payload.get("alpha", 0.3)),
            float(payload.get("epsilon", 1e-3)),
            float(problem.get("k", 1.0)),
            float("nan") if timeout is None else float(timeout),
            int(payload.get("max_iterations", 10_000)),
            n,
            int(payload.get("priority", 0)),
            flags,
            len(id_bytes),
            len(name_bytes),
            len(start_name),
        )
    except (TypeError, ValueError, struct.error):
        return None
    return b"".join(
        (
            front,
            id_bytes,
            name_bytes,
            start_name,
            cost.tobytes(),
            rates.tobytes(),
            mu_arr.tobytes(),
            start_arr.tobytes(),
        )
    )


def _unpack_solve_body(body: bytes) -> Dict:
    """The packed solve body back into a wire-payload dict.

    Array fields come back as ``np.frombuffer`` views over ``body`` —
    zero copies on the hot path; ``body`` must therefore be an immutable
    ``bytes`` snapshot (the readers below guarantee it).
    """
    if len(body) < _SOLVE_FRONT.size:
        raise FrameError(
            f"solve body of {len(body)} bytes is shorter than its header"
        )
    (
        alpha, epsilon, k, timeout, max_iterations, n, priority, flags,
        id_len, name_len, start_len,
    ) = _SOLVE_FRONT.unpack_from(body)
    if n < 0:
        raise FrameError(f"solve body declares negative node count {n}")
    pos = _SOLVE_FRONT.size
    strings = []
    for length in (id_len, name_len, start_len):
        strings.append(body[pos : pos + length])
        pos += length
    id_bytes, name_bytes, start_name = strings

    mu_count = 0 if flags & _SOLVE_MU_NONE else (1 if flags & _SOLVE_MU_SCALAR else n)
    start_count = n if flags & _SOLVE_START_VECTOR else 0
    want = pos + 8 * (n * n + n + mu_count + start_count)
    if len(body) != want:
        raise FrameError(
            f"solve body is {len(body)} bytes, layout requires {want}"
        )

    def take(count: int) -> np.ndarray:
        nonlocal pos
        arr = np.frombuffer(body, dtype=np.float64, count=count, offset=pos)
        pos += 8 * count
        return arr

    cost = take(n * n).reshape(n, n)
    rates = take(n)
    mu_arr = take(mu_count)
    start_arr = take(start_count)

    problem: Dict = {
        "cost_matrix": cost,
        "access_rates": rates,
        "k": k,
        "name": name_bytes.decode("utf-8"),
    }
    if not flags & _SOLVE_MU_NONE:
        problem["mu"] = float(mu_arr[0]) if flags & _SOLVE_MU_SCALAR else mu_arr
    payload: Dict = {
        "id": id_bytes.decode("utf-8"),
        "problem": problem,
        "alpha": alpha,
        "epsilon": epsilon,
        "max_iterations": max_iterations,
        "start": start_arr if flags & _SOLVE_START_VECTOR
        else start_name.decode("utf-8"),
        "priority": priority,
    }
    if not np.isnan(timeout):
        payload["timeout_s"] = timeout
    return payload


def _pack_result_body(payload: Dict) -> Optional[bytes]:
    """The packed body for a completed-solve response, or ``None`` for
    shapes the layout cannot carry (rejections, errors, extra fields)."""
    if payload.get("status") != "ok":
        return None
    if not _PACKED_RESPONSE_KEYS.issuperset(payload):
        return None
    cache = _CACHE_CODES.get(payload.get("cache", "miss"))
    if cache is None:
        return None
    try:
        allocation = _f64(payload["allocation"])
    except (KeyError, TypeError, ValueError):
        return None
    if allocation.ndim != 1:
        return None
    id_bytes = str(payload.get("id", "")).encode("utf-8")
    if len(id_bytes) > 0xFFFF:
        return None
    flags = cache << 1
    if payload.get("converged"):
        flags |= _RESULT_CONVERGED
    try:
        front = _RESULT_FRONT.pack(
            float(payload["cost"]),
            float(payload.get("latency_s", 0.0)),
            int(payload["iterations"]),
            int(payload.get("batch_size", 0)),
            flags,
            len(id_bytes),
        )
    except (KeyError, TypeError, ValueError, struct.error):
        return None
    return front + id_bytes + allocation.tobytes()


def _unpack_result_body(body: bytes) -> Dict:
    """The packed result body back into the exact JSON response dict
    (``allocation`` as a list of Python floats)."""
    if len(body) < _RESULT_FRONT.size:
        raise FrameError(
            f"result body of {len(body)} bytes is shorter than its header"
        )
    cost, latency, iterations, batch_size, flags, id_len = _RESULT_FRONT.unpack_from(
        body
    )
    pos = _RESULT_FRONT.size
    id_bytes = body[pos : pos + id_len]
    pos += id_len
    if (len(body) - pos) % 8:
        raise FrameError("result allocation is not a whole float64 array")
    allocation = np.frombuffer(body, dtype=np.float64, offset=pos)
    cache = _CACHE_NAMES.get(flags >> 1)
    if cache is None:
        raise FrameError(f"result carries unknown cache code {flags >> 1}")
    return {
        "id": id_bytes.decode("utf-8"),
        "status": "ok",
        "allocation": allocation.tolist(),
        "cost": cost,
        "iterations": iterations,
        "converged": bool(flags & _RESULT_CONVERGED),
        "cache": cache,
        "batch_size": batch_size,
        "latency_s": latency,
    }


def _pack_gossip_records_body(payload: Dict) -> bytes:
    """The packed body of a ``gossip_records`` batch.  Unlike the solve
    and result layouts there is no JSON fallback — records carry ndarray
    fields JSON cannot represent — so a malformed record raises."""
    records = payload.get("records", [])
    server = str(payload.get("server", "")).encode("utf-8")
    if len(server) > 0xFFFF:
        raise FrameError("gossip server id exceeds 65535 bytes")
    parts = [_GOSSIP_BATCH_FRONT.pack(len(server), len(records)), server]
    for record in records:
        try:
            key = str(record["key"]).encode("utf-8")
            origin = str(record.get("origin", "")).encode("utf-8")
            n = int(record["n"])
            params = _f64(record["params"]).ravel()
            allocation = _f64(record["allocation"]).ravel()
            ttl = record.get("ttl_s")
            front = _GOSSIP_RECORD_FRONT.pack(
                int(record.get("epoch", 0)),
                float("nan") if ttl is None else float(ttl),
                int(record.get("iterations", 0)),
                n,
                len(key),
                len(origin),
            )
        except (KeyError, TypeError, ValueError, struct.error) as exc:
            raise FrameError(f"unpackable gossip record: {exc}") from None
        if params.size != 2 * n + 1 or allocation.size != n:
            raise FrameError(
                f"gossip record for n={n} carries {params.size} params and "
                f"{allocation.size} allocation entries"
            )
        parts += [front, key, origin, params.tobytes(), allocation.tobytes()]
    return b"".join(parts)


def _unpack_gossip_records_body(body: bytes) -> Dict:
    """The packed batch back into ``{"op": "gossip_records", ...}`` with
    ``np.frombuffer`` views for the float64 vectors."""
    if len(body) < _GOSSIP_BATCH_FRONT.size:
        raise FrameError(
            f"gossip batch of {len(body)} bytes is shorter than its header"
        )
    server_len, count = _GOSSIP_BATCH_FRONT.unpack_from(body)
    pos = _GOSSIP_BATCH_FRONT.size
    server = body[pos : pos + server_len].decode("utf-8")
    pos += server_len
    records = []
    for _ in range(count):
        if len(body) - pos < _GOSSIP_RECORD_FRONT.size:
            raise FrameError("gossip batch truncated mid-record")
        epoch, ttl, iterations, n, key_len, origin_len = (
            _GOSSIP_RECORD_FRONT.unpack_from(body, pos)
        )
        if n < 0:
            raise FrameError(f"gossip record declares negative size {n}")
        pos += _GOSSIP_RECORD_FRONT.size
        key = body[pos : pos + key_len].decode("utf-8")
        pos += key_len
        origin = body[pos : pos + origin_len].decode("utf-8")
        pos += origin_len
        want = 8 * (3 * n + 1)
        if len(body) - pos < want:
            raise FrameError(
                f"gossip record for n={n} is missing its float64 vectors"
            )
        params = np.frombuffer(body, dtype=np.float64, count=2 * n + 1, offset=pos)
        pos += 8 * (2 * n + 1)
        allocation = np.frombuffer(body, dtype=np.float64, count=n, offset=pos)
        pos += 8 * n
        records.append({
            "key": key,
            "n": n,
            "params": params,
            "allocation": allocation,
            "iterations": iterations,
            "origin": origin,
            "epoch": epoch,
            "ttl_s": None if np.isnan(ttl) else ttl,
        })
    if pos != len(body):
        raise FrameError(
            f"gossip batch has {len(body) - pos} trailing bytes"
        )
    return {"op": "gossip_records", "server": server, "records": records}


def encode_binary_frame(payload: Dict, request_id: int = 0) -> bytes:
    """One payload dict as a binary frame stamped with ``request_id``.

    Solve requests and completed solves take the packed layouts; every
    other dict (and any payload the packed layouts cannot represent)
    travels as a JSON body inside the binary frame.
    """
    kind = KIND_JSON
    body: Optional[bytes] = None
    op = payload.get("op")
    if op == "gossip_records":
        kind = KIND_GOSSIP_RECORDS
        body = _pack_gossip_records_body(payload)
    elif op in _GOSSIP_OP_KINDS:
        kind = _GOSSIP_OP_KINDS[op]
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    elif "problem" in payload:
        body = _pack_solve_body(payload)
        if body is not None:
            kind = KIND_SOLVE
    elif payload.get("status") == "ok" and "allocation" in payload:
        body = _pack_result_body(payload)
        if body is not None:
            kind = KIND_RESULT
    if body is None:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame body of {len(body)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    header = _HEADER.pack(
        BINARY_MAGIC, BINARY_VERSION, kind, 0, request_id & 0xFFFFFFFFFFFFFFFF,
        len(body),
    )
    return header + body


def _decode_body(kind: int, body: bytes) -> Dict:
    """One frame body back into its payload dict.  Every malformed body
    raises :class:`FrameError` — undecodable UTF-8 in a packed string
    and JSON nested too deep to parse included — so a hostile frame can
    fail its connection but never the reader's thread."""
    try:
        if kind == KIND_SOLVE:
            return _unpack_solve_body(body)
        if kind == KIND_RESULT:
            return _unpack_result_body(body)
        if kind == KIND_GOSSIP_RECORDS:
            return _unpack_gossip_records_body(body)
        if kind in (KIND_JSON, KIND_GOSSIP_DIGEST, KIND_GOSSIP_PULL):
            payload = json.loads(body.decode("utf-8"))
            if not isinstance(payload, dict):
                raise FrameError(
                    f"frame body must be a JSON object, got {type(payload).__name__}"
                )
            return payload
    except (ValueError, RecursionError) as exc:
        raise FrameError(
            f"undecodable kind-{kind} frame body: {type(exc).__name__}: {exc}"
        ) from None
    raise FrameError(f"unknown frame kind {kind}")


def _parse_header(buffer, pos: int) -> Optional[Tuple[int, int, int]]:
    """``(kind, request_id, body_length)`` once the header is complete,
    ``None`` while more bytes are needed.  Raises on a corrupt header —
    on a wrong magic as soon as its first byte is in, so a peer speaking
    some other protocol is refused without waiting for 20 bytes."""
    if len(buffer) - pos < HEADER_BYTES:
        head = bytes(buffer[pos : pos + len(BINARY_MAGIC)])
        if not BINARY_MAGIC.startswith(head):
            raise FrameError(f"bad frame magic {head!r}")
        return None
    magic, version, kind, _flags, request_id, length = _HEADER.unpack_from(
        buffer, pos
    )
    if magic != BINARY_MAGIC:
        raise FrameError(f"bad frame magic {bytes(magic)!r}")
    if version != BINARY_VERSION:
        raise FrameError(
            f"unsupported protocol version {version} (this side speaks "
            f"{BINARY_VERSION})"
        )
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"declared frame of {length} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return kind, request_id, length


def decode_binary_frames(buffer: bytes) -> Tuple[List[Tuple[Dict, int]], bytes]:
    """Every complete ``(payload, request_id)`` in ``buffer`` plus the
    unconsumed remainder — the pure-bytes counterpart of
    :class:`BinaryFrameReader`."""
    frames: List[Tuple[Dict, int]] = []
    pos = 0
    while True:
        parsed = _parse_header(buffer, pos)
        if parsed is None:
            return frames, bytes(buffer[pos:])
        kind, request_id, length = parsed
        start = pos + HEADER_BYTES
        if len(buffer) < start + length:
            return frames, bytes(buffer[pos:])
        body = bytes(buffer[start : start + length])
        pos = start + length
        frames.append((_decode_body(kind, body), request_id))


def send_binary_frame(sock: socket.socket, payload: Dict, request_id: int = 0) -> int:
    """Encode and send one binary frame; returns the bytes put on the wire."""
    data = encode_binary_frame(payload, request_id)
    sock.sendall(data)
    return len(data)


class BinaryFrameReader:
    """Buffered binary-frame reader over one socket.

    :meth:`read` returns the next ``(payload, request_id)`` pair, or
    ``None`` on a clean EOF at a frame boundary.  The receive buffer is
    a ``bytearray`` consumed by offset — O(bytes), not O(frames²),
    under pipelining.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._buffer = bytearray()
        self._pos = 0
        #: Total bytes consumed off the socket (for ``net.bytes_in``).
        self.bytes_read = 0

    def read(self) -> Optional[Tuple[Dict, int]]:
        while True:
            parsed = _parse_header(self._buffer, self._pos)
            if parsed is not None:
                kind, request_id, length = parsed
                start = self._pos + HEADER_BYTES
                if len(self._buffer) >= start + length:
                    body = bytes(self._buffer[start : start + length])
                    self._pos = start + length
                    if self._pos == len(self._buffer):
                        self._buffer.clear()
                        self._pos = 0
                    return _decode_body(kind, body), request_id
            if self._pos > _RECV_CHUNK:
                del self._buffer[: self._pos]
                self._pos = 0
            chunk = self._sock.recv(_RECV_CHUNK)
            if not chunk:
                if len(self._buffer) - self._pos:
                    raise FrameError(
                        "connection closed mid-frame "
                        f"({len(self._buffer) - self._pos} buffered bytes)"
                    )
                return None
            self.bytes_read += len(chunk)
            self._buffer += chunk
