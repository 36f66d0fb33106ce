"""Seeded request streams for the three traffic mixes.

Each workload is a deterministic function of its seed: a warm-up list that
fills the server's caches, then an endless stream of wire payloads for the
timed phases.  Payloads use the raw problem spec (``cost_matrix``,
``access_rates``, ``mu``, ``k``), so the binary codec packs them as float64
bodies.

Parameter vectors (rates ++ mu ++ k) of unrelated problems are kept at a
relative distance of at least ``_FAR`` from each other.  The server's
lookaside tier matches donors by that distance across structures of the same
size, so without the gap an unrelated problem could warm-start from another
one; the hot-repeat hits and the cold-burst misses would then no longer be
the cold solves they are meant to be.
"""

from __future__ import annotations

from itertools import count
from typing import Dict, Iterator, List

import numpy as np

from repro.net.router import shard_of_key
from repro.service.fingerprint import structural_key_from_matrix
from repro.workloads import diurnal_drift, perturbed_rates, zipf_rates

WORKLOADS = ("hot-repeat", "cold-burst", "drift-warm")

#: The server's shard count; structures are spread evenly over it so the
#: per-shard load does not depend on which seed was drawn.
SHARDS = 2

#: Minimum relative parameter distance between unrelated problems (the
#: cache and lookaside donor radius is 1.0).
_FAR = 1.05

#: Open-loop offered rate (requests/s), fixed per workload at 10-15%
#: of what the pipelined phase completes on a 2-vCPU machine: queueing
#: shows, without amplifying every drift of the host's speed.
OPEN_RATE = {"hot-repeat": 400.0, "cold-burst": 50.0, "drift-warm": 100.0}

_SOLVER = {"alpha": 0.3, "epsilon": 1e-3, "max_iterations": 10_000, "start": "uniform"}


def _cost_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    c = rng.uniform(0.5, 2.0, size=(n, n))
    c = 0.5 * (c + c.T)
    np.fill_diagonal(c, 0.0)
    return c


def _params(rates: np.ndarray, mu: np.ndarray, k: float) -> np.ndarray:
    return np.concatenate([rates, mu, [k]])


def _distances(matrix: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Relative L2 distance of ``query`` to every row (the cache's metric)."""
    scale = np.maximum(np.maximum(np.abs(matrix), np.abs(query)), 1e-300)
    rel = (matrix - query) / scale
    return np.sqrt(np.sum(rel * rel, axis=1))


def _payload(rid: str, cost, rates, mu, k: float) -> Dict:
    problem = {"cost_matrix": cost, "access_rates": rates, "mu": mu, "k": k}
    return {"id": rid, "problem": problem, **_SOLVER}


class _FarSampler:
    """Draws Zipf-rate problems whose parameters stay far from the last
    ``memory`` accepted ones of the same size."""

    def __init__(self, rng: np.random.Generator, exponent: float, memory: int):
        self.rng = rng
        self.exponent = exponent
        self.memory = memory
        #: Per size: a ring of accepted parameter vectors and its fill count.
        self._seen: Dict[int, list] = {}

    def draw(self, n: int):
        ring = self._seen.setdefault(n, [np.empty((self.memory, 2 * n + 1)), 0])
        matrix, filled = ring[0], min(ring[1], self.memory)
        while True:
            total = float(np.exp(self.rng.uniform(np.log(0.3), 0.0)))
            rates = zipf_rates(
                n, exponent=self.exponent, total=total,
                seed=int(self.rng.integers(2**31)),
            )
            mu = float(np.exp(self.rng.uniform(np.log(1.5), np.log(6.0))))
            params = _params(rates, np.full(n, mu), 1.0)
            if not filled or _distances(matrix[:filled], params).min() >= _FAR:
                break
        matrix[ring[1] % self.memory] = params
        ring[1] += 1
        return rates, mu


class Workload:
    """One traffic mix: ``warmup`` payloads, then :meth:`stream`."""

    name = ""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._ids = count()
        self.open_rate = OPEN_RATE[self.name]

    def _rid(self) -> str:
        return f"{self.name[0]}{next(self._ids)}"

    def warmup(self) -> List[Dict]:
        """Requests that fill the caches (part of set-up)."""
        raise NotImplementedError

    def settle(self) -> List[Dict]:
        """Untimed requests, after set-up, that bring the server to the
        steady state the timed phases should see."""
        return []

    def stream(self) -> Iterator[Dict]:
        raise NotImplementedError


class HotRepeat(Workload):
    """64 distinct n=8 problems with Zipf popularity; every repeat is
    byte-identical, so after warm-up nearly every request is an exact hit."""

    name = "hot-repeat"
    STRUCTURES = 64
    N = 8

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng([self.seed, 1])
        sampler = _FarSampler(rng, exponent=2.0, memory=self.STRUCTURES)
        self.problems = []
        while len(self.problems) < self.STRUCTURES:
            cost = _cost_matrix(rng, self.N)
            # Popularity rank r lives on shard r % SHARDS, so every seed
            # splits the load over the shards in the same proportions.
            if shard_of_key(structural_key_from_matrix(cost), SHARDS) != \
                    len(self.problems) % SHARDS:
                continue
            rates, mu = sampler.draw(self.N)
            self.problems.append((cost, rates, mu))
        weights = 1.0 / np.arange(1, self.STRUCTURES + 1)
        self.popularity = weights / weights.sum()
        self._rng = np.random.default_rng([self.seed, 2])

    def _make(self, index: int) -> Dict:
        cost, rates, mu = self.problems[index]
        return _payload(self._rid(), cost, rates, mu, 1.0)

    def warmup(self) -> List[Dict]:
        return [self._make(i) for i in range(self.STRUCTURES)]

    def settle(self) -> List[Dict]:
        # Enough hits to fill each worker's 4096-entry service latency
        # window: the service takes percentiles over that window on every
        # pump, so the cost of a hit grows until the window is full.
        stream = self.stream()
        return [next(stream) for _ in range(2 * 4096 + 1024)]

    def stream(self) -> Iterator[Dict]:
        while True:
            for index in self._rng.choice(self.STRUCTURES, size=1024, p=self.popularity):
                yield self._make(int(index))


class ColdBurst(Workload):
    """A fresh cost matrix on every request, n drawn from a few sizes and
    Zipf access rates: every request misses and solves cold."""

    name = "cold-burst"
    SIZES = (8, 16, 32)
    SIZE_WEIGHTS = (0.5, 0.3, 0.2)
    WARMUP = 48

    def __init__(self, seed: int):
        super().__init__(seed)
        self._rng = np.random.default_rng([self.seed, 3])
        # The lookaside tier holds 512 records; remembering more than that
        # per size keeps every request out of reach of every live donor.
        self._sampler = _FarSampler(self._rng, exponent=2.0, memory=1024)

    def _make(self) -> Dict:
        n = int(self._rng.choice(self.SIZES, p=self.SIZE_WEIGHTS))
        rates, mu = self._sampler.draw(n)
        return _payload(self._rid(), _cost_matrix(self._rng, n), rates, mu, 1.0)

    def warmup(self) -> List[Dict]:
        return [self._make() for _ in range(self.WARMUP)]

    def stream(self) -> Iterator[Dict]:
        while True:
            yield self._make()


class DriftWarm(Workload):
    """Four n=16 structures whose access rates jitter around a slowly
    drifting diurnal base: no exact repeats, every request a warm start
    from a bucket of hundreds of earlier solves.

    The drift and the jitter are small enough that the warm solves stay
    short (a few iterations on average), so the donor search, the store
    and the lookaside hint carry the work rather than the kernel."""

    name = "drift-warm"
    STRUCTURES = 4
    N = 16
    MU = 2.0
    #: Requests per structure between two steps of the diurnal base.
    DWELL = 16
    PERIOD = 2400
    NOISE = 0.003
    #: Enough warm-up to fill both workers' 1024-entry caches.
    WARMUP = 2304

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng([self.seed, 4])
        self.structures = []
        while len(self.structures) < self.STRUCTURES:
            cost = _cost_matrix(rng, self.N)
            if shard_of_key(structural_key_from_matrix(cost), SHARDS) != \
                    len(self.structures) % SHARDS:
                continue
            offset = int(rng.integers(self.PERIOD))
            self.structures.append((cost, offset))
        self._base = diurnal_drift(
            self.N, total=0.8, period=self.PERIOD, sharpness=1.0
        )
        self._rng = np.random.default_rng([self.seed, 5])
        self._i = 0

    def _make(self) -> Dict:
        s = self._i % self.STRUCTURES
        epoch = self._i // (self.STRUCTURES * self.DWELL)
        self._i += 1
        cost, offset = self.structures[s]
        rates = perturbed_rates(
            self._base(epoch + offset), relative_noise=self.NOISE,
            seed=int(self._rng.integers(2**31)),
        )
        return _payload(self._rid(), cost, rates, self.MU, 1.0)

    def warmup(self) -> List[Dict]:
        return [self._make() for _ in range(self.WARMUP)]

    def stream(self) -> Iterator[Dict]:
        while True:
            yield self._make()


def make_workload(name: str, seed: int) -> Workload:
    """The named workload, seeded."""
    classes = {cls.name: cls for cls in (HotRepeat, ColdBurst, DriftWarm)}
    if name not in classes:
        raise ValueError(f"unknown workload {name!r} (expected one of {WORKLOADS})")
    return classes[name](seed)
