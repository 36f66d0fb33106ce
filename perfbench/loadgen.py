"""The load generator: one binary-codec connection per phase.

Three phase shapes, each returning every request with its answer and its
client-side timestamps (``time.monotonic_ns``, the clock the trace uses):

* :func:`sequential` — a closed loop with one request in flight;
* :func:`pipelined` — a closed loop holding ``window`` requests in flight;
* :func:`open_loop` — Poisson arrivals at a fixed rate, sent when due
  whatever the backlog, so latency is timed from each request's due time
  and the generator's own lateness is reported beside it.
"""

from __future__ import annotations

import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

import numpy as np

from repro.net import binary
from repro.net.binary import BinaryFrameReader

#: How long a phase waits for its outstanding answers after the last send.
DRAIN_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """One request and what came back (``response`` is ``None`` when the
    answer never arrived)."""

    payload: Dict
    response: Optional[Dict]
    sent_ns: int
    done_ns: int
    #: When the request was due (open loop only).
    due_ns: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.response is not None and self.response.get("status") == "ok"


@dataclass
class Phase:
    name: str
    start_ns: int
    end_ns: int = 0
    outcomes: List[Outcome] = field(default_factory=list)
    #: Send time minus due time per request, ns (open loop only).
    late_ns: List[int] = field(default_factory=list)
    #: ``(start_ns, end_ns)`` of every round merged into this phase.
    windows: List[tuple] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        windows = self.windows or [(self.start_ns, self.end_ns)]
        return sum(end - start for start, end in windows) / 1e9

    def contains(self, t_ns: int) -> bool:
        windows = self.windows or [(self.start_ns, self.end_ns)]
        return any(start <= t_ns <= end for start, end in windows)

    @classmethod
    def merged(cls, rounds: List["Phase"]) -> "Phase":
        """One phase holding several rounds of the same kind."""
        phase = cls(rounds[0].name, rounds[0].start_ns, rounds[-1].end_ns)
        for r in rounds:
            phase.outcomes += r.outcomes
            phase.late_ns += r.late_ns
            phase.windows.append((r.start_ns, r.end_ns))
        return phase


class Channel:
    """One connection speaking the binary codec."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=DRAIN_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = BinaryFrameReader(self.sock)
        self._corr = 0

    def frame(self, payload: Dict) -> tuple:
        """``(corr_id, bytes)`` for one payload (through the module
        attribute, so a traced run sees the call)."""
        self._corr += 1
        return self._corr, binary.encode_binary_frame(payload, self._corr)

    def recv(self) -> tuple:
        got = self.reader.read()
        if got is None:
            raise ConnectionError("server closed the connection")
        return got

    def call(self, payload: Dict) -> Dict:
        _, data = self.frame(payload)
        self.sock.sendall(data)
        return self.recv()[0]

    def close(self) -> None:
        self.sock.close()


def ping(channel: Channel) -> bool:
    return channel.call({"op": "ping"}).get("status") == "ok"


def sequential(channel: Channel, stream: Iterator[Dict], seconds: float) -> Phase:
    phase = Phase("seq", time.monotonic_ns())
    end = phase.start_ns + int(seconds * 1e9)
    now = phase.start_ns
    while now < end:
        payload = next(stream)
        sent = time.monotonic_ns()
        _, data = channel.frame(payload)
        channel.sock.sendall(data)
        response, _ = channel.recv()
        now = time.monotonic_ns()
        phase.outcomes.append(Outcome(payload, response, sent, now))
    phase.end_ns = now
    return phase


def pipelined(
    channel: Channel, stream: Iterable[Dict], seconds: Optional[float], window: int
) -> Phase:
    """Keep ``window`` requests in flight until ``seconds`` pass (or, with
    ``seconds=None``, until ``stream`` is exhausted), then drain."""
    phase = Phase("pipe", time.monotonic_ns())
    end = None if seconds is None else phase.start_ns + int(seconds * 1e9)
    stream = iter(stream)
    inflight: Dict[int, tuple] = {}

    def send_next() -> None:
        payload = next(stream, None)
        if payload is None:
            return
        corr, data = channel.frame(payload)
        inflight[corr] = (payload, time.monotonic_ns())
        channel.sock.sendall(data)

    for _ in range(window):
        send_next()
    now = phase.start_ns
    while inflight:
        response, corr = channel.recv()
        now = time.monotonic_ns()
        payload, sent = inflight.pop(corr)
        phase.outcomes.append(Outcome(payload, response, sent, now))
        if end is None or now < end:
            send_next()
    phase.end_ns = now
    return phase


def poisson_schedule(rate: float, seconds: float, rng: np.random.Generator) -> np.ndarray:
    """Arrival offsets (ns) of a Poisson process at ``rate`` over ``seconds``."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
    arrivals = np.cumsum(gaps)
    return (arrivals[arrivals < seconds] * 1e9).astype(np.int64)


def open_loop(
    channel: Channel, stream: Iterator[Dict], schedule_ns: np.ndarray
) -> Phase:
    """Send each request when due (offsets from now), read answers as they
    come, then drain."""
    sock = channel.sock
    sock.setblocking(False)
    sel = selectors.DefaultSelector()
    sel.register(sock, selectors.EVENT_READ)
    phase = Phase("open", time.monotonic_ns())
    due = phase.start_ns + schedule_ns
    inflight: Dict[int, tuple] = {}
    out = bytearray()
    i = 0
    drain_deadline = int(due[-1] if len(due) else phase.start_ns) + int(DRAIN_TIMEOUT_S * 1e9)
    try:
        while i < len(due) or inflight or out:
            now = time.monotonic_ns()
            while i < len(due) and due[i] <= now:
                payload = next(stream)
                corr, data = channel.frame(payload)
                out += data
                inflight[corr] = (payload, int(due[i]), now)
                phase.late_ns.append(now - int(due[i]))
                i += 1
                now = time.monotonic_ns()
            if out:
                try:
                    del out[: sock.send(out)]
                except BlockingIOError:
                    pass
            if now > drain_deadline:
                break
            wait_ns = (int(due[i]) - now) if i < len(due) else drain_deadline - now
            sel.modify(
                sock,
                selectors.EVENT_READ | (selectors.EVENT_WRITE if out else 0),
            )
            if not sel.select(max(0.0, wait_ns / 1e9)):
                continue
            while True:
                try:
                    got = channel.reader.read()
                except BlockingIOError:
                    break
                if got is None:
                    raise ConnectionError("server closed the connection")
                response, corr = got
                done = time.monotonic_ns()
                payload, due_at, sent = inflight.pop(corr)
                phase.outcomes.append(Outcome(payload, response, sent, done, due_at))
    finally:
        sel.close()
        sock.setblocking(True)
        sock.settimeout(DRAIN_TIMEOUT_S)
    phase.end_ns = time.monotonic_ns()
    for payload, due_at, sent in inflight.values():
        phase.outcomes.append(Outcome(payload, None, sent, phase.end_ns, due_at))
    return phase
