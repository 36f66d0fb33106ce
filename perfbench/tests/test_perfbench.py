"""The benchmark's own tests.

    PYTHONPATH=src python -m pytest perfbench/tests -q

Inputs are deterministic by seed, each workload produces the cache
disposition mix it was designed for, the open loop reports its own
lateness, the stage arithmetic adds up, and the gate catches wrong answers.
"""

import time

import numpy as np
import pytest

from perfbench import harness, layers, loadgen, verify
from perfbench.workloads import WORKLOADS, make_workload
from repro.service.codec import parse_request


def _same(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("name", WORKLOADS)
def test_workloads_are_deterministic_by_seed(name):
    def take(seed):
        workload = make_workload(name, seed)
        stream = workload.stream()
        return workload.warmup() + [next(stream) for _ in range(50)]

    first, again, other = take(5), take(5), take(6)
    assert len(first) == len(again)
    assert all(_same(a, b) for a, b in zip(first, again))
    assert not all(_same(a, b) for a, b in zip(first, other))


#: The disposition each workload is built to produce after warm-up, and the
#: share of answers that must have it.
DESIGNED = {"hot-repeat": ("hit", 0.95), "cold-burst": ("miss", 1.0), "drift-warm": ("warm", 0.95)}


@pytest.mark.parametrize("name", WORKLOADS)
def test_short_run_gives_the_designed_disposition_mix(name):
    workload = make_workload(name, 3)
    server, warm, _ = harness.set_up(workload)
    try:
        channel = loadgen.Channel(server.address)
        try:
            phase = loadgen.sequential(channel, workload.stream(), 1.0)
        finally:
            channel.close()
    finally:
        server.stop()
    dispositions = [o.response.get("cache") for o in phase.outcomes]
    assert len(dispositions) >= 20
    expected, share = DESIGNED[name]
    assert dispositions.count(expected) / len(dispositions) >= share, dispositions
    if name != "drift-warm":
        # Hits must come from cold solves: no warm-up answer was warm-started.
        assert {o.response.get("cache") for o in warm.outcomes} <= {"miss", "hit"}


def test_open_loop_reports_generator_lateness():
    workload = make_workload("hot-repeat", 1)
    stream = workload.stream()

    def stalling():
        for i, payload in enumerate(stream):
            if i == 20:
                time.sleep(0.2)
            yield payload

    schedule = np.arange(100, dtype=np.int64) * 2_000_000  # every 2 ms
    server, _, _ = harness.set_up(workload)
    try:
        channel = loadgen.Channel(server.address)
        try:
            phase = loadgen.open_loop(channel, stalling(), schedule)
        finally:
            channel.close()
    finally:
        server.stop()
    assert len(phase.outcomes) == 100 and all(o.ok for o in phase.outcomes)
    assert len(phase.late_ns) == 100
    assert max(phase.late_ns) >= 150_000_000
    # The stall counts against every request that was due during it:
    # latency runs from the due time, not from the late send.
    stalled = [o for o in phase.outcomes if o.sent_ns - o.due_ns >= 150_000_000]
    assert stalled
    assert all(o.done_ns - o.due_ns >= 150_000_000 for o in stalled)


def test_stage_self_times_add_up_to_the_request():
    outcome = loadgen.Outcome({"id": "r1"}, {"status": "ok"}, sent_ns=0, done_ns=1000)
    phase = loadgen.Phase("seq", 0, 1000, [outcome])
    dumps = [
        {"pid": 1, "spans": [
            (1, 0, "server.read", 100, 300, (), None),
            (2, 1, "server.handle", 150, 250, ("r1",), None),
            (3, 0, "server.dispatch", 400, 900, ("r1",), None),
            (4, 3, "worker.roundtrip", 450, 850, ("r1",), None),
        ]},
        {"pid": 2, "spans": [(1, 0, "worker.solve", 500, 800, ("r1",), None)]},
    ]
    requests = layers.per_request(phase, layers.spans_from_dumps(dumps))
    self_ns = requests[0]["self"]
    assert self_ns["server.read"] == 100 and self_ns["server.handle"] == 100
    assert self_ns["server.queue_wait"] == 100  # read end -> dispatch start
    assert self_ns["server.dispatch"] == 100
    assert self_ns["worker.roundtrip"] == 100 and self_ns["worker.solve"] == 300
    assert self_ns[layers.ROOT] == 200
    table = layers.stage_table(requests)
    assert table["ok"] and table["gap"] == 0.0


def test_gate_fails_wrong_answers():
    payload = make_workload("cold-burst", 2).warmup()[0]
    problem = parse_request(payload).problem
    ref = verify._reference(parse_request(payload))

    def outcome(allocation, cache, cost=None):
        allocation = np.asarray(allocation, dtype=float)
        response = {"id": payload["id"], "status": "ok", "cache": cache,
                    "allocation": allocation.tolist(),
                    "cost": problem.cost(allocation) if cost is None else cost}
        return loadgen.Outcome(payload, response, 0, 1)

    assert verify.check([outcome(ref.allocation, "miss", ref.cost)], 0)["wrong"] == 0
    swapped = ref.allocation[::-1].copy()
    report = verify.check([outcome(swapped, "miss")], 0)
    assert any("differs from the in-process fast solve" in e for e in report["examples"])
    off_simplex = ref.allocation * 1.01
    assert verify.check([outcome(off_simplex, "warm")], 0)["wrong"] == 1
    uniform = np.full(problem.n, 1.0 / problem.n)
    assert verify.check([outcome(uniform, "warm")], 0)["wrong"] == 1
    report = verify.check([loadgen.Outcome(payload, None, 0, 1)], 0)
    assert report["failed"] == 1 and report["wrong"] == 0
