"""One benchmark run: set up a server, drive the phases, check, report.

An untraced run (``trace=False``) reports the end-to-end metrics; a traced
run reports the per-layer metrics and prints the stage table.  Both check
every answer (:mod:`perfbench.verify`) and fail on any wrong one.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from perfbench import layers, loadgen, tracing, verify
from perfbench.workloads import make_workload

ROOT = Path(__file__).resolve().parent.parent

#: Server set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Requests in flight in the pipelined phase (the workers' batch size).
WINDOW = 32
#: Interleaved rounds of the three timed phases.
ROUNDS = 5
#: Sequential pings behind ``server.ping_us``.
PINGS = 500
#: Scratch directory for span dumps, inside the checkout.
TRACE_ROOT = ROOT / ".perfbench-out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "rps": "1/s",
    "seq_p50_us": "us",
    "open_p50_us": "us",
    "cpu_us_per_req": "us",
    "rss_mb": "MB",
}

LAYER_UNITS = {
    "binary.encode_us": "us", "binary.decode_us": "us",
    "binary.req_bytes": "B", "binary.resp_bytes": "B",
    "server.ping_us": "us", "server.self_us": "us", "server.queue_wait_us": "us",
    "router.route_us": "us", "router.shard_skew": "ratio",
    "worker.roundtrip_us": "us", "worker.hop_us": "us",
    "worker.rows_per_dispatch": "count", "worker.hop_bytes": "B",
    "lookaside.hint_us": "us", "lookaside.hint_ratio": "ratio",
    "codec.parse_us": "us", "fingerprint.us": "us",
    "cache.lookup_us": "us", "cache.store_us": "us",
    "cache.hit_ratio": "ratio", "cache.warm_ratio": "ratio", "cache.miss_ratio": "ratio",
    "cache.entries": "count", "cache.evicted": "count",
    "service.pump_self_us": "us", "service.iters_per_req": "count",
    "service.batch_rows_mean": "count", "service.joined_inflight_ratio": "ratio",
    "continuous.step_us": "us", "continuous.rows_per_step": "count",
    "continuous.us_per_row_step": "us", "fastpath.us_per_iter": "us",
    "loadgen.late_p99_us": "us", "trace.overhead_frac": "ratio",
}


class ServerProcess:
    """The benchmark's server, in a process of its own."""

    def __init__(self, trace_dir: Optional[Path] = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        command = [sys.executable, "-m", "perfbench.serve"]
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        self.proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE)
        try:
            line = self.proc.stdout.readline()
            self.address = ("127.0.0.1", json.loads(line)["port"])
        except (ValueError, KeyError):
            self.stop()
            raise RuntimeError(f"server did not announce its port (got {line!r})")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> Dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "commit": git_commit(),
    }


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of one process (all its threads)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def stats(address) -> Dict:
    channel = loadgen.Channel(address)
    try:
        return channel.call({"op": "stats"})["stats"]
    finally:
        channel.close()


def set_up(workload, trace_dir: Optional[Path] = None):
    """Launch a server, wait for its first ``ping``, run the warm-up.
    Returns ``(server, warm-up phase, seconds taken)``."""
    start = time.perf_counter()
    server = ServerProcess(trace_dir)
    try:
        channel = loadgen.Channel(server.address)
        try:
            if not loadgen.ping(channel):
                raise RuntimeError("server did not answer ping")
            warm = loadgen.pipelined(channel, workload.warmup(), None, WINDOW)
        finally:
            channel.close()
    except BaseException:
        server.stop()
        raise
    return server, warm, time.perf_counter() - start


@contextlib.contextmanager
def _collector_off():
    """The load generator's garbage collector would pause it more and more
    often as outcomes pile up; those pauses are not the server's."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def settle(server: ServerProcess, workload) -> List:
    """Run the workload's untimed settling requests; returns their outcomes."""
    payloads = workload.settle()
    if not payloads:
        return []
    channel = loadgen.Channel(server.address)
    try:
        return loadgen.pipelined(channel, payloads, None, WINDOW).outcomes
    finally:
        channel.close()


def timed_phases(server: ServerProcess, workload, seconds: float, seed: int) -> Dict:
    """The sequential, pipelined and open-loop phases, a third of
    ``seconds`` each, split into interleaved rounds, with server CPU,
    memory and counters around them.

    The host's CPU speed drifts over seconds; interleaving spreads every
    phase over the whole run, so no metric rests on one stretch of it.
    """
    before = stats(server.address)
    pids = [server.pid] + [w["pid"] for w in before["workers"]]
    cpu_before = sum(cpu_seconds(p) for p in pids)
    stream = workload.stream()
    slot = seconds / 3.0 / ROUNDS
    rng = np.random.default_rng([seed, 7])
    kinds = {
        "seq": lambda ch: loadgen.sequential(ch, stream, slot),
        "pipe": lambda ch: loadgen.pipelined(ch, stream, slot, WINDOW),
        "open": lambda ch: loadgen.open_loop(
            ch, stream, loadgen.poisson_schedule(workload.open_rate, slot, rng)),
    }
    rounds = {name: [] for name in kinds}
    with _collector_off():
        for _ in range(ROUNDS):
            for name, run in kinds.items():
                channel = loadgen.Channel(server.address)
                try:
                    rounds[name].append(run(channel))
                finally:
                    channel.close()
    cpu = sum(cpu_seconds(p) for p in pids) - cpu_before
    rss = sum(peak_rss_mb(p) for p in pids)
    after = stats(server.address)
    phases = {name: loadgen.Phase.merged(r) for name, r in rounds.items()}
    return {"phases": phases, "cpu_s": cpu, "rss_mb": rss, "before": before, "after": after}


def _latencies_us(phase, *, from_due: bool = False) -> np.ndarray:
    return np.array([
        (o.done_ns - (o.due_ns if from_due else o.sent_ns)) / 1e3
        for o in phase.outcomes if o.ok
    ])


def _p(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


def end_to_end(setup_times: List[float], run: Dict) -> Dict[str, float]:
    phases = run["phases"]
    completed = sum(o.ok for p in phases.values() for o in p.outcomes)
    return {
        "setup_s": statistics.median(setup_times),
        "rps": sum(o.ok for o in phases["pipe"].outcomes) / phases["pipe"].seconds,
        "seq_p50_us": _p(_latencies_us(phases["seq"]), 50),
        "open_p50_us": _p(_latencies_us(phases["open"], from_due=True), 50),
        "cpu_us_per_req": run["cpu_s"] * 1e6 / max(completed, 1),
        "rss_mb": run["rss_mb"],
    }


def tails(run: Dict) -> str:
    """The p99 latencies, printed but not gated: on a shared 2-vCPU host
    they follow the host's scheduling hiccups more than the program, and
    their run-to-run spread is larger than any bound a gate could use."""
    phases = run["phases"]
    seq = _latencies_us(phases["seq"])
    opn = _latencies_us(phases["open"], from_due=True)
    return (f"tails (not gated): seq_p99_us {_p(seq, 99):.1f} us of {len(seq)}, "
            f"open_p99_us {_p(opn, 99):.1f} us of {len(opn)}")


def counter_view(before: Dict, after: Dict) -> Dict[str, float]:
    """Server counters over the timed phases, as the per-layer ratios."""
    c0, c1 = before["counters"], after["counters"]

    def delta(name):
        return c1.get(name, 0.0) - c0.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    requests = delta("service.requests")
    routed = [a["routed"] - b["routed"] for a, b in zip(after["shards"], before["shards"])]
    return {
        "hit_ratio": ratio(delta("service.cache.hit"), requests),
        "warm_ratio": ratio(delta("service.cache.warm"), requests),
        "miss_ratio": ratio(delta("service.cache.miss"), requests),
        "entries": float(sum(w.get("cache_size", 0.0) for w in after["workers"])),
        "evicted": delta("service.cache.evicted"),
        "iters_per_req": ratio(delta("service.solver_iterations"), requests),
        "batch_rows_mean": ratio(delta("service.batch_rows"), delta("service.batches")),
        "joined_inflight_ratio": ratio(
            delta("service.joined_inflight"), delta("service.batch_rows")),
        "rows_per_step": ratio(delta("continuous.row_steps"), delta("continuous.steps")),
        "row_steps": delta("continuous.row_steps"),
        "shard_skew": ratio(max(routed), float(np.mean(routed))) if routed else 0.0,
    }


def untraced(name: str, seed: int, seconds: float) -> Dict:
    setup_times, outcomes = [], []
    for i in range(SETUPS):
        workload = make_workload(name, seed)
        server, warm, took = set_up(workload)
        setup_times.append(took)
        outcomes += warm.outcomes
        if i < SETUPS - 1:
            server.stop()
    try:
        outcomes += settle(server, workload)
        run = timed_phases(server, workload, seconds, seed)
    finally:
        server.stop()
    for phase in run["phases"].values():
        outcomes += phase.outcomes
    late = np.array(run["phases"]["open"].late_ns) / 1e3
    return {
        "metrics": end_to_end(setup_times, run),
        "units": END_TO_END_UNITS,
        "outcomes": outcomes,
        "notes": [f"loadgen lateness p99 {_p(late, 99):.0f} us (open loop, "
                  f"{workload.open_rate:g}/s offered)", tails(run)],
    }


def traced(name: str, seed: int, seconds: float) -> Dict:
    # An untraced reference first: the ping floor and the sequential
    # latency the traced run's overhead is measured against.
    workload = make_workload(name, seed)
    server, warm, _ = set_up(workload)
    outcomes = list(warm.outcomes)
    try:
        outcomes += settle(server, workload)
        channel = loadgen.Channel(server.address)
        try:
            pings = []
            for _ in range(PINGS):
                start = time.monotonic_ns()
                loadgen.ping(channel)
                pings.append((time.monotonic_ns() - start) / 1e3)
            with _collector_off():
                reference = loadgen.sequential(channel, workload.stream(), seconds / 6.0)
        finally:
            channel.close()
    finally:
        server.stop()
    outcomes += reference.outcomes

    trace_dir = TRACE_ROOT / f"trace-{os.getpid()}"
    trace_dir.mkdir(parents=True, exist_ok=True)
    try:
        tracer = tracing.Tracer()
        tracing.install_client(tracer)
        workload = make_workload(name, seed)
        server, warm, _ = set_up(workload, trace_dir)
        outcomes += warm.outcomes
        try:
            outcomes += settle(server, workload)
            run = timed_phases(server, workload, seconds, seed)
        finally:
            server.stop()
        tracer.dump(trace_dir, "client")
        dumps = tracing.load(trace_dir)
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
        try:
            TRACE_ROOT.rmdir()
        except OSError:
            pass
    phases = run["phases"]
    for phase in phases.values():
        outcomes += phase.outcomes
    spans = layers.spans_from_dumps(dumps)
    requests = layers.per_request(phases["seq"], spans)
    table = layers.stage_table(requests)
    late = np.array(phases["open"].late_ns) / 1e3
    metrics = layers.layer_metrics(
        phases, spans, requests, counter_view(run["before"], run["after"]),
        ping_us=float(np.median(pings)),
        untraced_seq_p50_us=_p(_latencies_us(reference), 50),
        late_p99_us=_p(late, 99),
    )
    return {
        "metrics": metrics,
        "units": LAYER_UNITS,
        "outcomes": outcomes,
        "stage_table": table,
        "notes": [layers.format_stage_table(table, name)],
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    env = environment(seed)
    env["loadavg_before"] = os.getloadavg()
    result = traced(name, seed, seconds) if trace else untraced(name, seed, seconds)
    report = verify.check(result["outcomes"], seed)
    env["loadavg_after"] = os.getloadavg()
    attempted = len(result["outcomes"])
    failed = report["failed"]
    correct = report["wrong"] == 0 and (not trace or result["stage_table"]["ok"])

    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print("environment " + json.dumps(env))
    for note in result["notes"]:
        print(note)
    for metric, value in result["metrics"].items():
        print(f"  {metric:<28} {value:14.4f} {result['units'][metric]}")
    print(f"  {'fail_frac':<28} {failed / attempted:14.4f} ratio "
          f"({failed} failed of {attempted} attempted)")
    print("verification " + json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": result["units"][metric]}
            for metric, value in result["metrics"].items()
        },
    }))
    return 0 if correct else 1
