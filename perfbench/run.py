"""The repository's benchmark: one workload, timed end to end.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload scale|fuzz|serve --seed N \
        --seconds S --trace 0|1

The program is imported from ``src/`` of the checkout and runs in this one
process: ``run_suite(jobs=1, cache=None)`` on ``scale`` and ``fuzz``, and
``QueryService(workers=0)`` on ``serve``.  Every answer is checked against
the benchmark's own oracle (``oracle.py``), and every run reports how many
operations it attempted and how many failed.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Times are in reference seconds (``probe.py``).
See README.md for what each metric means.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Set-up is repeated this often per run; ``setup_s`` reports the median.
SETUP_REPEATS = 3

WORKLOADS = ("scale", "fuzz", "serve")

Metrics = Dict[str, Tuple[float, str]]


class Tally:
    """Attempted and failed operations, with the first few reasons.

    An operation fails when it raises, leaves something behind, or gives
    a wrong output; only the last makes the run's outputs incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: List[str] = []

    def record(self, ok: bool, reason: str = "", wrong_output: bool = True) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += int(wrong_output)
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok


class Program:
    """The program's modules, imported from the checkout's ``src/``."""

    def __init__(self) -> None:
        import repro.core.planner as planner_module
        import repro.costmodel as costmodel
        import repro.lab.runner as runner
        from repro.core.memo import clear_all_memos, memo_stats
        from repro.faq.plan import PLAN_CACHE
        from repro.lab.spec import SuiteSpec
        from repro.obs.counters import COUNTERS
        from repro.serve import QueryService, ServeError, ServingSession

        self.planner_module = planner_module
        self.Planner = planner_module.Planner
        self.costmodel = costmodel
        self.runner = runner
        self.clear_all_memos = clear_all_memos
        self.memo_stats = memo_stats
        self.PLAN_CACHE = PLAN_CACHE
        self.SuiteSpec = SuiteSpec
        self.COUNTERS = COUNTERS
        self.QueryService = QueryService
        self.ServeError = ServeError
        self.ServingSession = ServingSession

    def cold(self) -> None:
        """Drop every memo and compiled plan, as a fresh process has none."""
        self.clear_all_memos()
        self.PLAN_CACHE.clear()

    def plan_cache_counts(self) -> Tuple[int, int]:
        stats = self.PLAN_CACHE.stats
        return stats.hits, stats.hits + stats.misses


class AnswerTap:
    """Keeps the answer of every ``Planner.execute`` for the oracle check.

    It records no time; the untraced runs install it too.
    """

    def __init__(self, planner_cls) -> None:
        self.answers: List[Any] = []
        self._cls = planner_cls
        self._original = vars(planner_cls)["execute"]
        original, answers = self._original, self.answers

        def execute(planner, *args, **kwargs):
            report = original(planner, *args, **kwargs)
            answers.append(report.answer)
            return report

        planner_cls.execute = execute

    def take(self) -> List[Any]:
        out = list(self.answers)
        self.answers.clear()
        return out

    def uninstall(self) -> None:
        self._cls.execute = self._original


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile."""
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report(label: str, raw: float, scaled: float) -> None:
    print(f"perfbench: {label} {raw:.6g} measured, {scaled:.6g} reference",
          file=sys.stderr)


# ---------------------------------------------------------------------------
# scale and fuzz: certified scenarios through run_suite
# ---------------------------------------------------------------------------


class SuitePhase:
    """Whole passes over the same operations until ``seconds`` have been
    spent inside ``run_suite``.

    An operation is one ``run_suite`` call: one scenario on ``scale``, the
    planes of one identity on ``fuzz``.  The machine-speed probe runs
    between operations, and each operation's time is scaled by the probes
    on either side of it.  Each operation's figure is then the median over
    the passes, which a burst of load from other tenants moves little.
    """

    def __init__(self, program: Program, tap: AnswerTap, tally: Tally,
                 oracle: Dict[Any, Any], trace=None) -> None:
        self.program = program
        self.tap = tap
        self.tally = tally
        self.oracle = oracle
        self.trace = trace
        self.busy = 0.0
        self.ok_ops = 0
        self.passes = 0
        self.group_times: Dict[int, List[float]] = {}
        self.scenario_times: Dict[Tuple[int, int], List[float]] = {}
        self.pass_rounds: List[int] = []
        self.pass_bits: List[int] = []
        self.columnar = 0
        self.dict_fallback = 0
        self.plan_hits = 0
        self.plan_lookups = 0

    def run(self, groups: List[List[Any]], seconds: float, traced_suite: bool) -> None:
        from probe import sample, scale

        while True:
            # Each pass starts as cold as a fresh `repro.lab run` process.
            self.program.PLAN_CACHE.clear()
            rounds = bits = 0
            before = sample()
            for index, specs in enumerate(groups):
                elapsed, walls, r, b = self._group(specs, traced_suite)
                after = sample()
                factor = scale(before, after)
                before = after
                self.group_times.setdefault(index, []).append(elapsed * factor)
                for i, wall in enumerate(walls):
                    self.scenario_times.setdefault((index, i), []).append(wall * factor)
                rounds += r
                bits += b
            self.passes += 1
            hits, lookups = self.program.plan_cache_counts()
            self.plan_hits += hits
            self.plan_lookups += lookups
            self.pass_rounds.append(rounds)
            self.pass_bits.append(bits)
            if self.busy >= seconds:
                break

    def ops_per_s(self) -> float:
        per_pass = sum(statistics.median(t) for t in self.group_times.values())
        return self.ok_ops / self.passes / per_pass

    def latencies(self, per_scenario: bool) -> List[float]:
        """Median time of each operation, or (``per_scenario``) of each
        scenario inside one, from the ``wall_time`` the lab records."""
        times = self.scenario_times if per_scenario else self.group_times
        return [statistics.median(t) for t in times.values()]

    def _group(self, specs, traced_suite: bool):
        p = self.program
        suite = p.SuiteSpec(name="perfbench", scenarios=tuple(specs))
        self.tap.take()
        if self.trace is not None:
            self.trace.take_link_checks()
        start = time.perf_counter()
        try:
            run = p.runner.run_suite(suite, jobs=1, cache=None, trace=traced_suite)
        except Exception as exc:  # a failed operation; keep going
            elapsed = time.perf_counter() - start
            self.busy += elapsed
            for spec in specs:
                self.tally.record(
                    False, f"{spec.label}: {type(exc).__name__}: {exc}",
                    wrong_output=False)
            return elapsed, [], 0, 0
        elapsed = time.perf_counter() - start
        self.busy += elapsed
        answers = self.tap.take()
        links = self.trace.take_link_checks() if self.trace else [True] * len(specs)
        expected = self._oracle_value(specs[0])
        first = run.results[0]
        rounds = bits = 0
        for spec, result, answer, link_ok in zip(specs, run.results, answers, links):
            reason = check_result(spec, result, answer, link_ok, expected, first)
            if self.tally.record(reason is None, f"{spec.label}: {reason}"):
                self.ok_ops += 1
            rounds += result.measured_rounds
            bits += result.total_bits
            if spec.backend == "columnar":
                counts = result.observability or {}
                self.columnar += counts.get("kernel.columnar", 0)
                self.dict_fallback += counts.get("kernel.dict_fallback", 0)
        return elapsed, [r.wall_time for r in run.results], rounds, bits

    def _oracle_value(self, spec):
        from oracle import evaluate
        from workloads import oracle_factors

        if spec not in self.oracle:
            # run_suite leaves the identity's materialization memoized.
            built, _topology, _assignment = self.program.runner.materialize_scenario(spec)
            self.oracle[spec] = evaluate(oracle_factors(built.query), spec.semiring)
        return self.oracle[spec]


def check_result(spec, result, answer, link_ok, expected, first) -> Optional[str]:
    """Why one certified scenario failed, or None."""
    from oracle import same_value, scalar_of

    if not result.correct:
        return "protocol answer differs from the reference solve"
    if not same_value(spec.semiring, expected, scalar_of(dict(answer.rows), spec.semiring)):
        return f"answer differs from the oracle's {expected!r}"
    if not result.bound_ok:
        return "lower-bound certification failed"
    if result.cost_model.get("exact_match") is False:
        return "cost model prediction differs on a covered cell"
    if result.trace is not None and (
        not result.trace.get("verified")
        or result.trace.get("cost_model_match") is False
    ):
        return "trace replay differs from the measured run"
    if (result.answer_digest, result.measured_rounds, result.total_bits) != (
        first.answer_digest, first.measured_rounds, first.total_bits
    ):
        return "planes of one identity disagree on answer, rounds or bits"
    if not link_ok:
        return "a directed link carried more than rounds x B bits"
    return None


def run_suite_workload(program: Program, workload: str, seed: int,
                       seconds: float, trace: bool, tally: Tally,
                       tap: AnswerTap) -> Metrics:
    from layers import LayerTrace, ratio
    from probe import sample, scale
    from workloads import fuzz_identities, planes_of, scale_scenarios

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        if workload == "scale":
            groups = [[spec] for spec in scale_scenarios(seed)]
        else:
            groups = [planes_of(identity) for identity in fuzz_identities(seed)]
        setup_times.append(time.perf_counter() - start)
    setup_raw = _IMPORT_SECONDS + statistics.median(setup_times)
    setup_s = setup_raw * scale(sample(5), sample(5))
    report("setup_s", setup_raw, setup_s)

    # fuzz certifies through the trace plane, like `run fuzz --trace`.
    traced_suite = workload == "fuzz"
    oracle: Dict[Any, Any] = {}
    plain = SuitePhase(program, tap, tally, oracle)
    plain.run(groups, seconds, traced_suite)
    for rounds, bits in zip(plain.pass_rounds[1:], plain.pass_bits[1:]):
        tally.record((rounds, bits) == (plain.pass_rounds[0], plain.pass_bits[0]),
                     "rounds or bits changed between passes")
    ops_per_s = plain.ops_per_s()
    report("ops_per_s", plain.ok_ops / plain.busy, ops_per_s)
    if not trace:
        latencies = plain.latencies(per_scenario=workload == "fuzz")
        return {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "query_p50_ms": (1000 * percentile(latencies, 0.5), "ms"),
            "query_p99_ms": (1000 * percentile(latencies, 0.99), "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "rounds": (plain.pass_rounds[0], "rounds"),
            "bits": (plain.pass_bits[0], "bits"),
        }
    layers = LayerTrace(program)
    traced = SuitePhase(program, tap, tally, oracle, layers)
    before = sample(5)
    try:
        # One pass: every per-layer figure is per pass of the workload.
        traced.run(groups, 0.0, traced_suite)
    finally:
        layers.uninstall()
    metrics = layers.metrics(scale(before, sample(5)))
    metrics.update({
        "faq.plan_cache_hit_rate": (ratio(traced.plan_hits, traced.plan_lookups), "share"),
        "semiring.columnar_share": (
            ratio(traced.columnar, traced.columnar + traced.dict_fallback), "share"),
        "serve.solver_busy": (0.0, "share"),
        "serve.batches": (0, "count"),
        "serve.coalesced_share": (0.0, "share"),
        "bench.trace_overhead": (1.0 - traced.ops_per_s() / ops_per_s, "share"),
    })
    layers.write(os.path.join(HERE, "out"), workload, seed)
    return metrics


# ---------------------------------------------------------------------------
# serve: a closed loop of clients on one QueryService(workers=0)
# ---------------------------------------------------------------------------


class ServePhase:
    """Whole passes of the query sequence until ``seconds`` have passed.

    Each pass gives its own rate, median and 99th percentile (a pass
    serves 1000 queries, so ten lie beyond it), scaled by the probes
    taken before and after it; the run reports the median of each over
    the passes.
    """

    def __init__(self, program: Program, tally: Tally, sessions, expected,
                 sequence) -> None:
        self.program = program
        self.tally = tally
        self.sessions = sessions
        self.expected = expected
        self.sequence = sequence
        self.latencies: List[float] = []
        self.ok_ops = 0
        self.busy = 0.0
        self.last_pass_s = 0.0
        self.pass_rates: List[float] = []
        self.pass_p50: List[float] = []
        self.pass_p99: List[float] = []

    async def run(self, service, seconds: float) -> None:
        from probe import sample, scale
        from workloads import SERVE_CLIENTS

        before = sample(5)
        while True:
            queue = iter(self.sequence)
            self.latencies = []
            ok_before = self.ok_ops
            start = time.perf_counter()
            await asyncio.gather(*(
                self._client(service, queue) for _ in range(SERVE_CLIENTS)
            ))
            elapsed = time.perf_counter() - start
            after = sample(5)
            factor = scale(before, after)
            before = after
            self.busy += elapsed
            self.last_pass_s = elapsed
            self.pass_rates.append((self.ok_ops - ok_before) / (elapsed * factor))
            self.pass_p50.append(percentile(self.latencies, 0.5) * factor)
            self.pass_p99.append(percentile(self.latencies, 0.99) * factor)
            if self.busy >= seconds:
                break

    def ops_per_s(self) -> float:
        return statistics.median(self.pass_rates)

    async def _client(self, service, queue) -> None:
        from oracle import same_value, scalar_of

        for index in queue:
            spec = self.sessions[index]
            start = time.perf_counter()
            try:
                result = await service.submit(spec)
            except self.program.ServeError as exc:
                self.tally.record(
                    False, f"{spec.label}: ServeError {exc}", wrong_output=False)
                continue
            self.latencies.append(time.perf_counter() - start)
            try:
                ok = same_value(spec.semiring, self.expected[index],
                                scalar_of(result.rows, spec.semiring))
            except ValueError:
                ok = False
            if self.tally.record(ok, f"{spec.label}: answer differs from the oracle"):
                self.ok_ops += 1


def register_all(program: Program, sessions):
    """One set-up of the serving workload: a fresh service, every
    session registered from cold memos and plan caches."""
    program.cold()
    service = program.QueryService(workers=0)
    for spec in sessions:
        service.register(spec)
    return service


async def close_and_check(service, tally: Tally) -> None:
    """Close the service; a segment still in /dev/shm is a failure."""
    names = [entry["name"] for entry in service.store.describe()["segments"]]
    await service.close()
    left = [n for n in names if os.path.exists(os.path.join("/dev/shm", n.lstrip("/")))]
    tally.record(not left, f"shared-memory segments left after close: {left}",
                 wrong_output=False)


def run_serve_workload(program: Program, seed: int, seconds: float,
                       trace: bool, tally: Tally) -> Metrics:
    from layers import LayerTrace, delta_share, ratio
    from oracle import evaluate
    from probe import sample, scale
    from workloads import (
        SERVE_QUERIES_PER_PASS, oracle_factors, serve_sequence, serve_sessions,
    )

    sessions = serve_sessions(seed)
    sequence = serve_sequence(seed, SERVE_QUERIES_PER_PASS)
    # The oracle materializes on its own, outside the timed set-up.
    expected = [
        evaluate(oracle_factors(program.runner.build_query(spec).query), spec.semiring)
        for spec in sessions
    ]

    async def main() -> Metrics:
        setup_times = []
        service = None
        for _ in range(SETUP_REPEATS):
            if service is not None:
                await close_and_check(service, tally)
            before = sample()
            start = time.perf_counter()
            service = register_all(program, serve_sessions(seed))
            elapsed = time.perf_counter() - start
            setup_times.append((elapsed, elapsed * scale(before, sample())))
        import_scaled = _IMPORT_SECONDS * scale(sample(5), sample(5))
        setup_raw = _IMPORT_SECONDS + statistics.median(t for t, _ in setup_times)
        setup_s = import_scaled + statistics.median(t for _, t in setup_times)
        report("setup_s", setup_raw, setup_s)
        manifests = [s.manifest.predicted or {} for s in service.sessions.values()]
        plain = ServePhase(program, tally, sessions, expected, sequence)
        try:
            await service.start()
            await plain.run(service, seconds)
        finally:
            await close_and_check(service, tally)
        ops_per_s = plain.ops_per_s()
        report("ops_per_s", plain.ok_ops / plain.busy, ops_per_s)
        if not trace:
            return {
                "setup_s": (setup_s, "s"),
                "ops_per_s": (ops_per_s, "1/s"),
                "query_p50_ms": (1000 * statistics.median(plain.pass_p50), "ms"),
                "query_p99_ms": (1000 * statistics.median(plain.pass_p99), "ms"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
                # The protocol cost the admission controller prices the
                # registered sessions at (no protocol runs online).
                "rounds": (sum(m.get("rounds", 0) for m in manifests), "rounds"),
                "bits": (sum(m.get("total_bits", 0) for m in manifests), "bits"),
            }
        layers = LayerTrace(program)
        traced = ServePhase(program, tally, sessions, expected, sequence)
        before = sample(5)
        try:
            service = register_all(program, sessions)
            layers.add_memo_stats()
            counters_before = program.COUNTERS.snapshot()
            plan_before = program.plan_cache_counts()
            try:
                await service.start()
                # One registration and one pass of the query sequence.
                await traced.run(service, 0.0)
                stats = service.stats
            finally:
                await close_and_check(service, tally)
        finally:
            layers.uninstall()
        hits, lookups = program.plan_cache_counts()
        factor = scale(before, sample(5))
        metrics = layers.metrics(factor)
        metrics.update({
            "faq.plan_cache_hit_rate": (
                ratio(hits - plan_before[0], lookups - plan_before[1]), "share"),
            "semiring.columnar_share": (delta_share(
                counters_before, program.COUNTERS.snapshot(),
                "kernel.columnar", "kernel.dict_fallback"), "share"),
            "serve.solver_busy": (
                metrics["serve.solve_s"][0] / (traced.last_pass_s * factor), "share"),
            "serve.batches": (stats.batches, "count"),
            "serve.coalesced_share": (
                ratio(stats.coalesced_duplicates, stats.submitted), "share"),
            "bench.trace_overhead": (1.0 - traced.ops_per_s() / ops_per_s, "share"),
        })
        layers.write(os.path.join(HERE, "out"), "serve", seed)
        return metrics

    return asyncio.run(main())


# ---------------------------------------------------------------------------
# Clean-up and entry point
# ---------------------------------------------------------------------------


def stop_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker child process.

    It outlives ``QueryService.close()`` until the interpreter exits.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def child_processes() -> List[int]:
    """Pids of this process's live children (Linux ``/proc``)."""
    me = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read().decode("ascii", "replace")
        except OSError:
            continue
        # The parent pid is the second field after the command name.
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1 and int(fields[1]) == me:
            children.append(int(entry))
    return children


_IMPORT_SECONDS = 0.0

#: The modules whose import the set-up time counts.
PROGRAM_IMPORTS = (
    "repro.core.planner", "repro.costmodel", "repro.lab.runner",
    "repro.faq.plan", "repro.serve",
)


def import_seconds(first: float) -> float:
    """The median import time of the program over SETUP_REPEATS imports:
    this process's own (``first``) and fresh interpreters for the rest."""
    code = (
        "import time; start = time.perf_counter(); "
        f"import {', '.join(PROGRAM_IMPORTS)}; "
        "print(time.perf_counter() - start)"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = [first]
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def main(argv: Optional[List[str]] = None) -> int:
    global _IMPORT_SECONDS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    program = Program()
    _IMPORT_SECONDS = import_seconds(time.perf_counter() - _PROCESS_START)
    if not os.path.realpath(program.runner.__file__).startswith(os.path.realpath(SRC)):
        print("perfbench: imported repro from outside the checkout", file=sys.stderr)
        return 2

    tally = Tally()
    tap = AnswerTap(program.Planner)
    try:
        if args.workload == "serve":
            metrics = run_serve_workload(
                program, args.seed, args.seconds, bool(args.trace), tally)
        else:
            metrics = run_suite_workload(
                program, args.workload, args.seed, args.seconds,
                bool(args.trace), tally, tap)
    finally:
        tap.uninstall()
        stop_resource_tracker()
    left = child_processes()
    tally.record(not left, f"child processes still running: {left}",
                 wrong_output=False)
    for reason in tally.reasons:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
