"""Allocation-as-a-service: micro-batching, the warm cache, admission.

Runs an in-process :class:`repro.AllocationService` through its three
headline behaviors:

1. a burst of same-size requests dispatched as ONE continuous batch,
   each answer bit-for-bit identical to a solo reference solve;
2. the solution cache: an exact repeat answered without running the
   solver at all, a near-miss warm-started from its nearest donor;
3. admission control: a full queue turning overload into a structured
   rejection instead of unbounded latency.

Run:  python examples/allocation_service.py
"""

import numpy as np

import repro
from repro.core.algorithm import solve
from repro.obs import MetricsRegistry
from repro.service import AdmissionController
from repro.workloads import perturbed_rates, zipf_rates

N = 6
MU = 1.5


def request_for(rates, **options) -> repro.SolveRequest:
    problem = repro.FileAllocationProblem(1.0 - np.eye(N), rates, k=1.0, mu=MU)
    return repro.SolveRequest(problem=problem, alpha=0.3, **options)


def main() -> None:
    registry = MetricsRegistry()
    service = repro.AllocationService(max_batch=16, registry=registry)
    print(f"service: {service}")

    # 1. A same-shape burst: one continuous dispatch, per-request parity.
    burst = [
        request_for(zipf_rates(N, exponent=1.0 + 0.1 * i, total=0.8, seed=i),
                    request_id=f"burst-{i}")
        for i in range(8)
    ]
    responses = service.solve_many(burst)
    print(f"\nburst of {len(burst)} requests -> "
          f"batch_size={responses[0].batch_size} (one batched dispatch)")
    reference = solve(burst[0].problem, alpha=0.3,
                      initial_allocation=burst[0].initial_allocation)
    same = np.array_equal(responses[0].allocation, reference.allocation)
    print(f"batched answer == solo reference solve (bit-for-bit): {same}")

    # 2. The cache: exact repeat -> hit; perturbed repeat -> warm start.
    repeat = service.solve(request_for(burst[0].problem.access_rates,
                                       request_id="repeat"))
    print(f"\nexact repeat:    cache={repeat.cache}, "
          f"iterations={repeat.iterations} (no solver run)")
    jittered = perturbed_rates(burst[0].problem.access_rates,
                               relative_noise=0.02, seed=99)
    warm = service.solve(request_for(jittered, request_id="tomorrow"))
    cold_iters = responses[0].iterations
    print(f"perturbed repeat: cache={warm.cache}, iterations={warm.iterations} "
          f"(cold solve took {cold_iters})")

    # 3. Admission control: depth-2 queue, third arrival rejected.
    tiny = repro.AllocationService(
        admission=AdmissionController(max_queue_depth=2)
    )
    tickets = [tiny.submit(request_for(zipf_rates(N, total=0.8, seed=s),
                                       request_id=f"q-{s}"))
               for s in range(3)]
    rejected = tickets[-1].response
    print(f"\nqueue bound: third arrival -> {rejected.status} "
          f"({rejected.reason}: {rejected.detail})")
    tiny.pump()
    print(f"admitted tickets still answered: "
          f"{all(t.response.ok for t in tickets[:2])}")

    # The registry told the whole story.
    c = registry.counters
    print(f"\nservice counters: requests={int(c['service.requests'])}, "
          f"batches={int(c['service.batches'])}, "
          f"hit/warm/miss={int(c.get('service.cache.hit', 0))}"
          f"/{int(c.get('service.cache.warm', 0))}"
          f"/{int(c.get('service.cache.miss', 0))}")


if __name__ == "__main__":
    main()
