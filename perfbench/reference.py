"""Reference figures for the best existing alternatives to the timed paths.

Usage (from the root of a checkout)::

    python3 perfbench/reference.py --seed N

Prints, in the benchmark's reference seconds (see ``probe.py``):

* ``fuzz``: scenarios per second of ``run_suite_batched`` (no cold
  baseline sample) over the same planes the ``fuzz`` workload runs through
  ``run_suite``, one identity per call, both with trace replay;
* ``serve``: queries per second of a plain in-process loop over
  ``ServingSession.online_answer()`` on the ``serve`` workload's
  sessions, in the workload's query order, against the benchmark's own
  ``QueryService`` closed loop.

These are the bases that later ratios should be stated against.
"""

import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from probe import sample, scale  # noqa: E402


def timed(fn, repeats: int = 3) -> float:
    """Median probe-scaled seconds of ``fn()`` over ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        before = sample(5)
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        times.append(elapsed * scale(before, sample(5)))
    return statistics.median(times)


def fuzz_reference(seed: int) -> None:
    from repro.faq.plan import PLAN_CACHE
    from repro.lab import run_suite, run_suite_batched
    from repro.lab.spec import SuiteSpec
    from workloads import fuzz_identities, planes_of

    groups = [planes_of(identity) for identity in fuzz_identities(seed)]
    flat = SuiteSpec(name="reference", scenarios=tuple(s for g in groups for s in g))

    def serial():
        PLAN_CACHE.clear()
        for specs in groups:
            run_suite(SuiteSpec(name="reference", scenarios=tuple(specs)), trace=True)

    def batched():
        PLAN_CACHE.clear()
        run_suite_batched(flat, trace=True, baseline_sample=0)

    n = len(flat.scenarios)
    serial_s, batched_s = timed(serial), timed(batched)
    print(f"fuzz  run_suite per identity : {n / serial_s:8.1f} scenarios/s")
    print(f"fuzz  run_suite_batched      : {n / batched_s:8.1f} scenarios/s "
          f"({serial_s / batched_s:.2f}x)")


def serve_reference(seed: int) -> None:
    from repro.core.memo import clear_all_memos
    from repro.serve import SharedRelationStore, ServingSession
    from workloads import SERVE_QUERIES_PER_PASS, serve_sequence, serve_sessions

    clear_all_memos()
    store = SharedRelationStore()
    try:
        sessions = [ServingSession.register(s, store) for s in serve_sessions(seed)]
        sequence = serve_sequence(seed, SERVE_QUERIES_PER_PASS)

        def loop():
            for index in sequence:
                sessions[index].online_answer()

        loop_s = timed(loop)
        print(f"serve online_answer() loop   : {len(sequence) / loop_s:8.1f} queries/s")
    finally:
        store.close()
        from run import stop_resource_tracker

        stop_resource_tracker()


def main() -> int:
    seed = int(sys.argv[sys.argv.index("--seed") + 1]) if "--seed" in sys.argv else 1
    fuzz_reference(seed)
    serve_reference(seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
