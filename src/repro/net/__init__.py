"""repro.net — the sharded socket transport over the allocation service.

PR 4 made allocation a *service* (:mod:`repro.service`: micro-batching,
solution cache, admission control), but only in-process or over
stdin/stdout — one client owned the cache and batcher.  This subsystem
puts that service behind a TCP front end and scales it across worker
processes without giving up what makes the service fast:

* :class:`NetServer` — one :mod:`selectors` event-loop thread owns every
  socket; every connection speaks the one wire codec
  (:mod:`repro.net.binary`: struct-packed headers, raw float64 bodies,
  any other dict as a JSON body under the same header).  Requests
  route through a
  :class:`ShardRouter` into *bounded* shard queues dispatched to worker
  processes, each running its own
  :class:`~repro.service.AllocationService` + cache; a full queue
  answers with a structured ``overloaded`` rejection;
* :class:`ShardRouter` — partitions by the problem's structural
  fingerprint, so repeats hit the cache that stored them and same-shape
  requests micro-batch together (``policy="random"`` is the
  locality-free baseline the benchmarks compare against);
* :class:`NetClient` — connection pooling, request pipelining
  (:meth:`~NetClient.request_many`: many frames in flight per
  connection, responses matched by request id), per-request deadlines,
  one bounded retry budget, optional shared-secret HMAC authentication;
  typed and dict-shaped surfaces mirroring
  :class:`~repro.service.ServiceClient`;
* :class:`GossipAgent` (:mod:`repro.net.gossip`) — with ``--peers``,
  servers form a static mesh and epidemically replicate their
  :class:`LookasideTier` donor records: rumor pushes spread fresh
  converged solutions in one round, periodic digest/pull anti-entropy
  repairs whatever rumors missed, all under a bytes/second budget.
  Records carry TTL, origin server id and a per-key epoch
  (newest-epoch-wins), so one server's convergence becomes every
  server's warm start.

Robustness is part of the contract: SIGTERM drains gracefully
(in-flight work finishes; queued work gets structured ``shutting_down``
rejections), a crashed worker is respawned with in-band
``worker_restarted`` errors for exactly the requests it took down, and
the ``stats`` control verb merges every worker's ``service.*`` metrics
with the server's ``net.*`` family.

Quick start::

    from repro.net import NetServer, NetClient

    with NetServer(port=0, workers=2) as server:
        host, port = server.address
        with NetClient(host, port) as client:
            client.solve_payload({
                "id": "r1",
                "problem": {"topology": "ring", "nodes": 4, "mu": 1.5},
                "alpha": 0.3,
            })                      # same dict repro-fap serve would print
            client.stats()          # merged service.* + net.* metrics

``repro-fap net-serve`` / ``repro-fap net-solve`` are the CLI faces;
docs/COOKBOOK.md ("Serving over the network") and docs/PERFORMANCE.md
(measured scaling and shard-affinity numbers) cover operation.
"""

from repro.net.binary import (
    BINARY_MAGIC,
    BINARY_VERSION,
    MAX_FRAME_BYTES,
    BinaryFrameReader,
    FrameError,
    decode_binary_frames,
    encode_binary_frame,
    send_binary_frame,
)
from repro.net.client import (
    NetAuthError,
    NetClient,
    NetConnectionError,
    NetError,
    NetTimeout,
)
from repro.net.gossip import GOSSIP_OPS, GossipAgent
from repro.net.lookaside import (
    LookasideTier,
    donor_record,
    params_from_payload,
    wire_record,
)
from repro.net.peers import PeerState, parse_peers
from repro.net.router import ShardRouter, shard_of_key
from repro.net.server import REJECT_OVERLOADED, REJECT_SHUTTING_DOWN, NetServer
from repro.net.worker import WorkerConfig, WorkerCrashed, WorkerHandle, worker_main

__all__ = [
    "BINARY_MAGIC",
    "BINARY_VERSION",
    "BinaryFrameReader",
    "FrameError",
    "GOSSIP_OPS",
    "GossipAgent",
    "LookasideTier",
    "MAX_FRAME_BYTES",
    "NetAuthError",
    "NetClient",
    "NetConnectionError",
    "NetError",
    "NetServer",
    "NetTimeout",
    "PeerState",
    "REJECT_OVERLOADED",
    "REJECT_SHUTTING_DOWN",
    "ShardRouter",
    "WorkerConfig",
    "WorkerCrashed",
    "WorkerHandle",
    "decode_binary_frames",
    "donor_record",
    "encode_binary_frame",
    "params_from_payload",
    "parse_peers",
    "send_binary_frame",
    "shard_of_key",
    "wire_record",
    "worker_main",
]
