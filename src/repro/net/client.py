"""The network client: pooled connections, deadlines, bounded retries.

:class:`NetClient` is the caller's side of :class:`~repro.net.server.NetServer`:

* a **connection pool** (``pool_size`` sockets, created lazily) so
  concurrent threads share transport without a handshake per request;
* the one wire codec (:mod:`repro.net.binary`: struct-packed frames,
  raw float64 bodies), so no negotiation round-trip is spent when no
  secret is configured;
* **request pipelining** (:meth:`request_many` / :meth:`solve_payloads`):
  many frames in flight on one connection, responses matched by the
  echoed transport request id — the difference between paying one
  round-trip per request and one per burst;
* a **per-request deadline** (``timeout_s``, overridable per call) that
  caps connect + handshake + send + receive together — a hung server
  surfaces as :class:`NetTimeout`, never a hung caller;
* **bounded retry with backoff**: transient transport failures (connect
  refusals, resets, mid-request disconnects) and — with
  ``retry_restarts=True`` — in-band ``worker_restarted`` errors draw
  from *one* shared budget of ``retries`` re-sends per request (a solve
  is a pure function of its request, so re-sending is safe).  A restart
  answer that arrives with the budget already spent is returned
  structurally, exactly like ``retry_restarts=False`` surfaces it;
* optional **shared-secret authentication** (``secret=...``): each new
  connection runs the HMAC challenge/response handshake (``hello`` →
  nonce → ``HMAC-SHA256(secret, nonce)``) before carrying requests;
  bad credentials raise :class:`NetAuthError`.

Two surfaces, mirroring :class:`~repro.service.ServiceClient`: typed
(:meth:`solve` with :class:`~repro.service.SolveRequest` in and
:class:`~repro.service.SolveResponse` out) and dict-shaped
(:meth:`solve_payload`, the exact wire format).  Plus the control verbs:
:meth:`stats` and :meth:`ping`.
"""

from __future__ import annotations

import hashlib
import hmac
import socket
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ReproError
from repro.net.binary import BinaryFrameReader, FrameError, encode_binary_frame
from repro.net.worker import ERROR_WORKER_RESTARTED
from repro.service.codec import request_to_payload, response_from_dict
from repro.service.types import SolveRequest, SolveResponse

__all__ = [
    "NetAuthError",
    "NetClient",
    "NetConnectionError",
    "NetError",
    "NetTimeout",
]


class NetError(ReproError):
    """Base class for network-client failures."""


class NetConnectionError(NetError):
    """Could not reach (or keep) a server connection within the retry budget."""


class NetTimeout(NetError):
    """The per-request deadline expired before a response arrived."""


class NetAuthError(NetError):
    """The server refused this client's shared-secret handshake."""


class _Conn:
    """One pooled socket plus its frame reader and correlation counter."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._reader = BinaryFrameReader(sock)
        self._next_id = 0

    def frame(self, payload: Dict) -> Tuple[int, bytes]:
        """``(corr_id, wire bytes)`` for one payload, stamped with the
        connection's next correlation id."""
        self._next_id += 1
        return self._next_id, encode_binary_frame(payload, self._next_id)

    def send(self, payload: Dict) -> None:
        self.sock.sendall(self.frame(payload)[1])

    def read(self) -> Optional[Tuple[Dict, int]]:
        """Next ``(payload, corr_id)``, or ``None`` on clean EOF."""
        return self._reader.read()

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class NetClient:
    """Client for the sharded allocation server.

    Parameters
    ----------
    host, port:
        Server address, as returned by :attr:`NetServer.address`.
    pool_size:
        Maximum concurrently open connections; callers beyond it wait
        for a free one (deadline still applies).
    timeout_s:
        Default per-request deadline (connect + handshake + send +
        receive).
    retries:
        Re-send budget per request, shared by transport failures and —
        with ``retry_restarts`` — in-band ``worker_restarted`` errors
        (0 disables).
    backoff_s:
        Initial backoff before a retry; doubles per attempt.
    retry_restarts:
        Also retry requests answered with an in-band
        ``worker_restarted`` error (default ``False``: surface them).
    secret:
        Shared secret for servers started with one; each new connection
        authenticates via HMAC challenge/response before use.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        pool_size: int = 2,
        timeout_s: float = 30.0,
        retries: int = 2,
        backoff_s: float = 0.05,
        retry_restarts: bool = False,
        secret: Optional[str] = None,
        clock=time.monotonic,
        sleep=time.sleep,
    ):
        if pool_size < 1:
            raise NetError("pool_size must be >= 1")
        self.host = host
        self.port = int(port)
        self.pool_size = int(pool_size)
        self.timeout_s = float(timeout_s)
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)
        self.retry_restarts = bool(retry_restarts)
        self._secret = secret.encode("utf-8") if isinstance(secret, str) else secret
        self._clock = clock
        self._sleep = sleep
        self._idle: List[_Conn] = []
        self._open_count = 0
        self._pending_reconnects = 0
        self._cond = threading.Condition()
        self._closed = False
        #: Client-side operation tallies — the "retry counts" half of the
        #: transport's observability; the server's half is ``stats()``.
        #: ``connects`` counts first connections, ``reconnects`` only the
        #: replacements for connections that failed or were discarded.
        self.metrics: Dict[str, int] = {
            "requests": 0,
            "retries": 0,
            "connects": 0,
            "reconnects": 0,
            "timeouts": 0,
            "restarts_retried": 0,
        }

    # -- pool ------------------------------------------------------------------

    def _acquire(self, deadline: float) -> _Conn:
        with self._cond:
            while True:
                if self._closed:
                    raise NetError("client is closed")
                if self._idle:
                    return self._idle.pop()
                if self._open_count < self.pool_size:
                    self._open_count += 1
                    break  # create outside the lock
                remaining = deadline - self._clock()
                if remaining <= 0 or not self._cond.wait(timeout=remaining):
                    raise NetTimeout(
                        f"no free connection within the deadline "
                        f"(pool_size={self.pool_size})"
                    )
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=max(0.001, deadline - self._clock())
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except BaseException:
            with self._cond:
                self._open_count -= 1
                self._cond.notify()
            raise
        with self._cond:
            # A connection replacing one that was discarded is a
            # reconnect; anything else is the pool filling up.
            if self._pending_reconnects > 0:
                self._pending_reconnects -= 1
                self.metrics["reconnects"] += 1
            else:
                self.metrics["connects"] += 1
        conn = _Conn(sock)
        if self._secret is not None:
            try:
                self._handshake(conn, deadline)
            except socket.timeout:
                self._discard(conn)
                raise NetTimeout(
                    f"no handshake response from {self.host}:{self.port} "
                    f"within the deadline"
                ) from None
            except BaseException:
                self._discard(conn)
                raise
        return conn

    def _handshake(self, conn: _Conn, deadline: float) -> None:
        """HMAC challenge/response on a fresh connection."""
        reply = self._roundtrip(conn, {"op": "hello"}, deadline)
        if reply.get("status") == "challenge":
            nonce = str(reply.get("nonce", ""))
            try:
                mac = hmac.new(
                    self._secret, bytes.fromhex(nonce), hashlib.sha256
                ).hexdigest()
            except ValueError:
                raise NetAuthError(
                    f"server sent a malformed auth nonce {nonce!r}"
                ) from None
            reply = self._roundtrip(conn, {"op": "auth", "mac": mac}, deadline)
        if reply.get("status") != "ok":
            raise NetAuthError(
                f"handshake with {self.host}:{self.port} failed: "
                f"{reply.get('reason') or reply.get('detail', reply)}"
            )

    def _roundtrip(self, conn: _Conn, payload: Dict, deadline: float) -> Dict:
        conn.sock.settimeout(max(0.001, deadline - self._clock()))
        conn.send(payload)
        conn.sock.settimeout(max(0.001, deadline - self._clock()))
        got = conn.read()
        if got is None:
            raise NetConnectionError(
                f"{self.host}:{self.port} closed the connection mid-handshake"
            )
        return got[0]

    def _release(self, conn: _Conn) -> None:
        with self._cond:
            if self._closed:
                self._open_count -= 1
                conn.close()
                return
            self._idle.append(conn)
            self._cond.notify()

    def _discard(self, conn: _Conn) -> None:
        conn.close()
        with self._cond:
            self._open_count -= 1
            self._pending_reconnects += 1
            self._cond.notify()

    def close(self) -> None:
        with self._cond:
            self._closed = True
            idle, self._idle = self._idle, []
            self._open_count -= len(idle)
            self._cond.notify_all()
        for conn in idle:
            conn.close()

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the request loop ------------------------------------------------------

    def request(self, payload: Dict, *, timeout_s: Optional[float] = None) -> Dict:
        """One frame out, one frame back, with deadline and retry policy.

        Returns the response dict exactly as the server sent it (solves,
        structured rejections, and in-band errors alike).  Raises
        :class:`NetTimeout` past the deadline and
        :class:`NetConnectionError` once the retry budget is spent.
        Transport failures and (with ``retry_restarts``) in-band
        ``worker_restarted`` errors spend the *same* budget: ``retries``
        re-sends total, however the failures interleave.
        """
        deadline = self._clock() + (
            self.timeout_s if timeout_s is None else float(timeout_s)
        )
        self.metrics["requests"] += 1
        attempt = 0
        while True:
            try:
                response = self._attempt(payload, deadline)
            except NetTimeout:
                self.metrics["timeouts"] += 1
                raise
            except (OSError, FrameError, NetConnectionError) as exc:
                attempt += 1
                if attempt > self.retries:
                    raise NetConnectionError(
                        f"request failed after {attempt} attempt(s) against "
                        f"{self.host}:{self.port}: {type(exc).__name__}: {exc}"
                    ) from None
                self._backoff(attempt, deadline)
                continue
            if (
                self.retry_restarts
                and response.get("reason") == ERROR_WORKER_RESTARTED
            ):
                attempt += 1
                if attempt > self.retries:
                    return response  # budget spent: surface it structurally
                self.metrics["restarts_retried"] += 1
                self._backoff(attempt, deadline)
                continue
            return response

    def _attempt(self, payload: Dict, deadline: float) -> Dict:
        conn = self._acquire(deadline)
        try:
            remaining = deadline - self._clock()
            if remaining <= 0:
                raise socket.timeout("deadline already expired")
            conn.sock.settimeout(remaining)
            conn.send(payload)
            conn.sock.settimeout(max(0.001, deadline - self._clock()))
            got = conn.read()
        except socket.timeout:
            # The response may still arrive later; this socket is now
            # out of sync with the request stream, so drop it.
            self._discard(conn)
            raise NetTimeout(
                f"no response from {self.host}:{self.port} within the deadline"
            ) from None
        except BaseException:
            self._discard(conn)
            raise
        if got is None:
            self._discard(conn)
            raise NetConnectionError(
                f"{self.host}:{self.port} closed the connection mid-request"
            )
        self._release(conn)
        return got[0]

    def _backoff(self, attempt: int, deadline: float) -> None:
        self.metrics["retries"] += 1
        pause = self.backoff_s * (2 ** (attempt - 1))
        if self._clock() + pause >= deadline:
            raise NetTimeout("deadline would expire during retry backoff")
        self._sleep(pause)

    # -- pipelining ------------------------------------------------------------

    def request_many(
        self, payloads: Sequence[Dict], *, timeout_s: Optional[float] = None
    ) -> List[Dict]:
        """Pipelined solves: every frame sent before the first response
        is read, all on one pooled connection.

        Responses come back **in input order** regardless of the order
        the server finished them — each is matched by the echoed
        transport request id.  No retry policy applies — a transport failure
        mid-burst raises, because the burst's position in the stream is
        ambiguous.  One deadline covers the whole burst.
        """
        if not payloads:
            return []
        deadline = self._clock() + (
            self.timeout_s if timeout_s is None else float(timeout_s)
        )
        self.metrics["requests"] += len(payloads)
        try:
            conn = self._acquire(deadline)
        except NetTimeout:
            self.metrics["timeouts"] += 1
            raise
        results: List[Optional[Dict]] = [None] * len(payloads)
        try:
            self._pipeline(conn, payloads, results, deadline)
        except socket.timeout:
            self._discard(conn)
            self.metrics["timeouts"] += 1
            raise NetTimeout(
                f"pipelined burst to {self.host}:{self.port} missed its deadline "
                f"({sum(r is not None for r in results)}/{len(payloads)} answered)"
            ) from None
        except BaseException:
            self._discard(conn)
            raise
        self._release(conn)
        return results  # type: ignore[return-value]

    def _pipeline(self, conn, payloads, results, deadline) -> None:
        index_of: Dict[int, int] = {}
        out = bytearray()
        for i, payload in enumerate(payloads):
            corr_id, data = conn.frame(payload)
            index_of[corr_id] = i
            out += data
        conn.sock.settimeout(max(0.001, deadline - self._clock()))
        conn.sock.sendall(out)
        for _ in range(len(payloads)):
            conn.sock.settimeout(max(0.001, deadline - self._clock()))
            got = conn.read()
            if got is None:
                raise NetConnectionError(
                    f"{self.host}:{self.port} closed the connection mid-burst"
                )
            response, corr_id = got
            i = index_of.pop(corr_id, None)
            if i is None:
                raise NetConnectionError(
                    f"{self.host}:{self.port} answered unknown request id {corr_id}"
                )
            results[i] = response

    # -- surfaces --------------------------------------------------------------

    def solve_payload(self, payload: Dict, *, timeout_s: Optional[float] = None) -> Dict:
        """One wire-format request dict in, one response dict out."""
        return self.request(payload, timeout_s=timeout_s)

    def solve_payloads(
        self, payloads: Sequence[Dict], *, timeout_s: Optional[float] = None
    ) -> List[Dict]:
        """Pipelined wire-format solves (see :meth:`request_many`)."""
        return self.request_many(payloads, timeout_s=timeout_s)

    def solve(
        self, request: SolveRequest, *, timeout_s: Optional[float] = None
    ) -> SolveResponse:
        """Typed solve: serialize, send, and parse back.  In-band errors
        (``status: "error"``, e.g. ``worker_restarted``) raise
        :class:`NetError`; structured *rejections* return normally, like
        the in-process client."""
        payload = request_to_payload(request)
        response = self.request(payload, timeout_s=timeout_s)
        if response.get("status") == "error":
            raise NetError(
                f"request {request.request_id!r} failed: "
                f"{response.get('reason') or response.get('detail', 'unknown error')}"
            )
        return response_from_dict(response)

    def solve_many(
        self, requests: Sequence[SolveRequest], *, timeout_s: Optional[float] = None
    ) -> List[SolveResponse]:
        """Pipelined typed solves (one burst, one shared deadline).
        In-band errors raise, as in :meth:`solve`."""
        payloads = [request_to_payload(r) for r in requests]
        out: List[SolveResponse] = []
        for request, response in zip(
            requests, self.request_many(payloads, timeout_s=timeout_s)
        ):
            if response.get("status") == "error":
                raise NetError(
                    f"request {request.request_id!r} failed: "
                    f"{response.get('reason') or response.get('detail', 'unknown error')}"
                )
            out.append(response_from_dict(response))
        return out

    def stats(self, *, timeout_s: Optional[float] = None) -> Dict:
        """The server's merged ``service.*`` + ``net.*`` snapshot."""
        response = self.request({"op": "stats"}, timeout_s=timeout_s)
        if response.get("status") != "ok":
            raise NetError(f"stats verb failed: {response.get('detail', response)}")
        return response["stats"]

    def ping(self, *, timeout_s: Optional[float] = None) -> bool:
        """Liveness check; ``True`` when the server answers."""
        response = self.request({"op": "ping"}, timeout_s=timeout_s)
        return response.get("status") == "ok"

    def __repr__(self) -> str:
        return (
            f"NetClient({self.host}:{self.port}, "
            f"pool={self.pool_size}, timeout_s={self.timeout_s:g}, "
            f"retries={self.retries})"
        )
