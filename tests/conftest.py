"""Shared fixtures for the test suite, plus a per-test time limit for
runs without the ``pytest-timeout`` plugin."""

from __future__ import annotations

import signal

import numpy as np
import pytest

from repro.core.initials import paper_skewed_allocation
from repro.core.model import FileAllocationProblem
from repro.network.builders import ring_graph


@pytest.fixture
def paper_problem() -> FileAllocationProblem:
    """The §6 experimental setup: 4-node unit ring, mu=1.5, k=1, lambda=1."""
    return FileAllocationProblem.paper_network()


@pytest.fixture
def paper_start() -> np.ndarray:
    """The §6 initial allocation (0.8, 0.1, 0.1, 0)."""
    return paper_skewed_allocation(4)


@pytest.fixture
def asymmetric_problem() -> FileAllocationProblem:
    """A deliberately lopsided instance: unequal rates, costs, and mus —
    exercises code paths the symmetric paper network cannot."""
    topo = ring_graph(5, link_costs=[1.0, 2.0, 0.5, 3.0, 1.5])
    rates = np.array([0.05, 0.3, 0.1, 0.25, 0.2])
    return FileAllocationProblem.from_topology(
        topo, rates, k=0.7, mu=[1.6, 2.0, 1.4, 3.0, 1.8], name="asymmetric"
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def feasible_random_allocation(rng: np.random.Generator, n: int) -> np.ndarray:
    """A random point of the allocation simplex."""
    return rng.dirichlet(np.ones(n))


# -- per-test ceiling without pytest-timeout ------------------------------------
#
# pyproject sets ``timeout``/``timeout_method`` for pytest-timeout.  When the
# plugin is not installed, this fallback registers the two ini keys (so they
# are not reported as unknown) and enforces ``timeout`` with SIGALRM: the one
# test that overruns fails instead of stalling the whole run.  With the
# plugin present, none of this is active.


def _fallback_timeout(pluginmanager) -> bool:
    return hasattr(signal, "SIGALRM") and not pluginmanager.hasplugin("timeout")


def pytest_addoption(parser, pluginmanager):
    if not _fallback_timeout(pluginmanager):
        return
    parser.addini("timeout", "per-test time limit in seconds (0 disables)", default="0")
    parser.addini(
        "timeout_method",
        "pytest-timeout's method; the fallback always uses SIGALRM",
        default="signal",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    limit = 0.0
    if _fallback_timeout(item.config.pluginmanager):
        limit = float(item.config.getini("timeout"))
    if limit <= 0:
        yield
        return

    def expired(signum, frame):
        pytest.fail(f"Timeout >{limit:g}s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
