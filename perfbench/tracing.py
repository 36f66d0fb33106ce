"""Span recording around the public calls into each layer.

The program has no tracing of its own, so the benchmark wraps the callables
each layer exposes (module functions and methods, replaced on their owner
for the life of the process) and records one span per call:
``(span_id, parent_id, name, start_ns, end_ns, request_ids, extra)``.
Parents come from a per-thread stack; request ids are read from the call's
arguments where the call carries them and are otherwise inherited from the
parent.  Timestamps are ``time.monotonic_ns``, which is one clock for every
process on the machine, so server, worker and client spans line up.

:func:`install_server` runs in the server process before its workers fork,
so the workers inherit the wrappers; each process writes its spans to
``<dir>/<role>-<pid>.pickle`` when it exits (:meth:`Tracer.dump`).
"""

from __future__ import annotations

import functools
import itertools
import os
import pickle
import threading
import time
from multiprocessing.reduction import ForkingPickler
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: One in this many worker round trips keeps its message and reply so the
#: pickled hop size can be measured at dump time, off the timed path.
HOP_SAMPLE_EVERY = 16


class Tracer:
    """In-memory span store for one process."""

    def __init__(self):
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        *,
        rids: Optional[Callable] = None,
        rids_after: Optional[Callable] = None,
        extra: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``rids(args)`` names the requests the call serves (inherited by its
        children); ``rids_after(result)`` does so from the return value
        when the arguments cannot; ``extra(args, result)`` adds a value to
        the span.
        """
        original = getattr(owner, attr)
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent_id, parent_rids = stack[-1] if stack else (0, ())
            span_id = next(ids)
            span_rids = rids(args) if rids is not None else parent_rids
            stack.append((span_id, span_rids))
            start = time.monotonic_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.monotonic_ns()
                stack.pop()
            if rids_after is not None:
                span_rids = rids_after(result)
            spans.append((
                span_id, parent_id, name, start, end, span_rids,
                extra(args, result) if extra is not None else None,
            ))
            return result

        setattr(owner, attr, traced)

    def dump(self, directory, role: str) -> None:
        """Write this process's spans; sampled hop messages become sizes."""
        spans = []
        for span in self.spans:
            if span[2] == "worker.roundtrip" and span[6] is not None:
                message, reply = span[6]
                sizes = (len(ForkingPickler.dumps(message)), len(ForkingPickler.dumps(reply)))
                span = span[:6] + (sizes,)
            spans.append(span)
        path = Path(directory) / f"{role}-{os.getpid()}.pickle"
        with open(path, "wb") as fh:
            pickle.dump({"pid": os.getpid(), "role": role, "spans": spans}, fh)


def load(directory) -> List[Dict]:
    """Every process dump written into ``directory``."""
    dumps = []
    for path in sorted(Path(directory).glob("*.pickle")):
        with open(path, "rb") as fh:
            dumps.append(pickle.load(fh))
    return dumps


def _payload_rid(args, index: int = 0) -> tuple:
    payload = args[index]
    return (str(payload.get("id", "")),) if isinstance(payload, dict) else ()


def _result_rid(result) -> tuple:
    return (str(result.get("id", "")),) if isinstance(result, dict) and "id" in result else ()


def install_client(tracer: Tracer) -> None:
    """Wrap the binary codec calls the load generator makes."""
    from repro.net import binary

    tracer.wrap(binary, "encode_binary_frame", "client.encode",
                rids=_payload_rid, extra=lambda a, r: len(r))
    tracer.wrap(binary, "_decode_body", "client.decode", rids_after=_result_rid)


def install_server(tracer: Tracer, directory) -> None:
    """Wrap every traced layer in the server process and its workers."""
    from repro.net import binary, server, worker
    from repro.net.lookaside import LookasideTier
    from repro.net.router import ShardRouter
    from repro.net.server import NetServer
    from repro.parallel.continuous import ContinuousBatcher
    from repro.service import cache, codec
    from repro.service import service as service_mod
    from repro.service.cache import SolutionCache

    # repro.net.server: the event loop and the shard threads.
    tracer.wrap(NetServer, "_read_ready", "server.read")
    tracer.wrap(binary, "_decode_body", "server.decode", rids_after=_result_rid)
    tracer.wrap(NetServer, "_handle_payload", "server.handle",
                rids=lambda a: _payload_rid(a, 2))
    tracer.wrap(server, "structural_key_from_matrix", "fingerprint")
    tracer.wrap(ShardRouter, "shard_for_key", "router.route")
    tracer.wrap(NetServer, "_dispatch", "server.dispatch",
                rids=lambda a: tuple(item.request_id for item in a[2]),
                extra=lambda a, r: len(a[2]))
    tracer.wrap(LookasideTier, "donor_for_payload", "lookaside.hint",
                extra=lambda a, r: r is not None)
    hop_count = itertools.count()
    tracer.wrap(worker.WorkerHandle, "roundtrip", "worker.roundtrip",
                extra=lambda a, r: (a[1], r)
                if a[1][0] == "solve" and next(hop_count) % HOP_SAMPLE_EVERY == 0 else None)
    tracer.wrap(server, "encode_binary_frame", "server.encode",
                rids=_payload_rid, extra=lambda a, r: len(r))
    tracer.wrap(NetServer, "_flush", "server.flush")

    # The worker side: inherited through fork, dumped when the worker exits.
    tracer.wrap(worker, "solve_payloads", "worker.solve",
                rids=lambda a: tuple(str(p.get("id", "")) for p in a[1]))
    tracer.wrap(codec, "safe_parse", "codec.parse", rids=_payload_rid)
    tracer.wrap(service_mod.AllocationService, "pump", "service.pump")
    tracer.wrap(SolutionCache, "lookup", "cache.lookup",
                rids=lambda a: (a[1].request_id,), extra=lambda a, r: r.status)
    tracer.wrap(SolutionCache, "store", "cache.store", rids=lambda a: (a[1].request_id,))
    tracer.wrap(cache, "request_fingerprint", "fingerprint")
    tracer.wrap(cache, "structural_key", "fingerprint")
    tracer.wrap(ContinuousBatcher, "step", "continuous.step")
    tracer.wrap(service_mod, "solve", "fastpath.solve", extra=lambda a, r: r.iterations)

    worker_main = worker.worker_main

    def traced_worker_main(conn, config):
        tracer.spans.clear()
        try:
            worker_main(conn, config)
        finally:
            tracer.dump(directory, "worker")

    worker.worker_main = traced_worker_main
