"""The correctness gate: every answer the server gave is checked.

* Every ``ok`` answer lies on the simplex (Theorem 1: ``x >= 0``,
  ``sum x = 1``) and its reported cost is the cost of its allocation.
* Every exact-hit and cold (``miss``) answer is bit-for-bit the allocation
  and cost of an in-process ``solve(..., engine="fast")`` of the same
  request; a hit must return exactly what a cold solve returns.
* The cost of every distinct problem in a seeded sample of the answers is
  within :data:`COST_TOLERANCE` of :func:`repro.core.kkt.optimal_cost`.
  ``optimal_cost`` bisects in Python (30-150 ms per problem here), so
  checking every distinct problem of a cold or drifting stream would take
  longer than the run; the sample covers :data:`OPTIMUM_SAMPLE` problems
  per run, which is every problem of hot-repeat.
* Answers that are not ``ok`` (rejections, errors, lost answers) are
  failures; they are counted, not excused.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List

import numpy as np

from repro.core.algorithm import solve
from repro.core.kkt import optimal_cost
from repro.service.codec import parse_request
from repro.service.fingerprint import request_fingerprint

#: Largest allowed ``|sum(x) - 1|`` and most negative share.
SIMPLEX_TOLERANCE = 1e-9
#: Largest allowed relative gap between an answer's cost and the optimum.
#: The solver stops at a marginal-cost spread of ``epsilon = 1e-3``; the
#: cost gaps that leaves are below 1e-6 on these workloads.
COST_TOLERANCE = 1e-4
#: Distinct problems checked against the exact optimum per run.
OPTIMUM_SAMPLE = 64
#: Reference solves run in this many processes once there are at least
#: ``PARALLEL_FROM`` of them.
REFERENCE_WORKERS = 2
PARALLEL_FROM = 256


def _reference(request):
    return solve(
        request.problem,
        alpha=request.alpha,
        epsilon=request.epsilon,
        max_iterations=request.max_iterations,
        initial_allocation=request.initial_allocation,
        engine="fast",
        keep_allocations="last",
    )


def _reference_answer(payload: Dict) -> tuple:
    result = _reference(parse_request(payload))
    return result.allocation, result.cost


def _references(payloads: Dict[str, Dict]) -> Dict[str, tuple]:
    """Reference solves by fingerprint.  A cold stream needs one per
    request, so large sets are split over :data:`REFERENCE_WORKERS`
    processes (the server has stopped by the time the gate runs).

    The pool forks: the load generator runs no threads by then, and unlike
    ``spawn``, ``fork`` starts no resource-tracker process that would
    outlive the pool."""
    keys = list(payloads)
    if len(keys) < PARALLEL_FROM:
        return {key: _reference_answer(payloads[key]) for key in keys}
    if threading.active_count() != 1:
        raise RuntimeError("reference pool must fork from a single-threaded process")
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(REFERENCE_WORKERS, mp_context=context) as pool:
        answers = pool.map(_reference_answer, [payloads[k] for k in keys], chunksize=32)
        return dict(zip(keys, answers))


def check(outcomes, seed: int) -> Dict:
    """Check every outcome; returns counts and the first few wrong answers."""
    wrong: List[str] = []
    problems: Dict[str, tuple] = {}
    dispositions: Dict[str, int] = {}
    exact: List[tuple] = []
    exact_payloads: Dict[str, Dict] = {}
    failed = 0
    for outcome in outcomes:
        response = outcome.response
        if not outcome.ok:
            failed += 1
            continue
        rid = response.get("id")
        request = parse_request(outcome.payload)
        allocation = np.asarray(response["allocation"], dtype=float)
        cost = float(response["cost"])
        disposition = response.get("cache", "")
        dispositions[disposition] = dispositions.get(disposition, 0) + 1
        if rid != str(outcome.payload["id"]):
            wrong.append(f"{outcome.payload['id']}: answer carries id {rid!r}")
            continue
        if (allocation.shape != (request.problem.n,)
                or not np.all(np.isfinite(allocation))
                or allocation.min() < -SIMPLEX_TOLERANCE
                or abs(allocation.sum() - 1.0) > SIMPLEX_TOLERANCE):
            wrong.append(f"{rid}: allocation is off the simplex")
            continue
        if not np.isclose(cost, request.problem.cost(allocation), rtol=1e-9, atol=0.0):
            wrong.append(f"{rid}: reported cost {cost!r} is not the allocation's cost")
            continue
        fingerprint = request_fingerprint(request)
        if disposition in ("hit", "miss"):
            exact.append((rid, disposition, fingerprint, allocation, cost))
            exact_payloads.setdefault(fingerprint, outcome.payload)
        problems.setdefault(fingerprint, (request.problem, []))[1].append((rid, cost))

    references = _references(exact_payloads)
    for rid, disposition, fingerprint, allocation, cost in exact:
        ref_allocation, ref_cost = references[fingerprint]
        if not (np.array_equal(allocation, ref_allocation) and cost == ref_cost):
            wrong.append(f"{rid}: {disposition} answer differs from the in-process "
                         "fast solve")

    rng = np.random.default_rng([seed, 99])
    keys = sorted(problems)
    sample = rng.choice(len(keys), size=min(OPTIMUM_SAMPLE, len(keys)), replace=False)
    for index in sorted(int(i) for i in sample):
        problem, answers = problems[keys[index]]
        best = optimal_cost(problem)
        for rid, cost in answers:
            if abs(cost - best) > COST_TOLERANCE * abs(best):
                wrong.append(f"{rid}: cost {cost!r} is not within {COST_TOLERANCE:g} "
                             f"of the optimum {best!r}")
    return {
        "checked": len(outcomes) - failed,
        "failed": failed,
        "wrong": len(wrong),
        "examples": wrong[:5],
        "dispositions": dispositions,
        "reference_solves": len(references),
        "optimum_checked": len(sample),
    }
