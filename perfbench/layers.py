"""Per-layer figures for the traced run.

:class:`LayerTrace` wraps the public entry point of each layer (named
after the modules under ``src/repro/``) in a span, and counts what the
per-layer metrics divide by.  Nothing in the program changes: the
wrappers call the original functions and only look at what they return.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Tuple

from spans import SpanRecorder, self_times

Metric = Tuple[float, str]


class LayerTrace:
    """Spans around the layer entry points, plus the counts the per-layer
    metrics need.  :meth:`uninstall` restores every wrapped function."""

    def __init__(self, program) -> None:
        self.program = program
        self.recorder = SpanRecorder()
        self.rows = 0
        self.compiled_rounds = 0
        self.link_ok: List[bool] = []
        self.events = 0
        self.memo_hits = 0
        self.memo_lookups = 0
        self._install()

    def _install(self) -> None:
        p = self.program
        wrap = self.recorder.wrap

        def count_rows(built, _args, _kwargs):
            self.rows += sum(len(f) for f in built.query.factors.values())

        wrap(p.runner, "build_query", "workloads.materialize", count_rows)
        wrap(p.runner, "build_topology", "workloads.materialize")
        wrap(p.runner, "build_assignment", "workloads.materialize")
        wrap(p.Planner, "compile_protocol_plan", "protocols.compile")
        wrap(p.Planner, "reference_answer", "faq.solve")
        wrap(p.Planner, "predict", "lowerbounds.bounds")
        wrap(p.runner, "cut_transcript", "lowerbounds.certify")
        wrap(p.runner, "verify_cut_accounting", "lowerbounds.certify")
        wrap(p.costmodel, "predict_costs", "costmodel.predict")

        def count_events(_verdict, args, _kwargs):
            self.events += len(args[0])

        wrap(p.runner, "verify_trace", "obs.verify", count_events)
        wrap(p.runner, "run_suite", "lab.run_suite",
             lambda _run, _args, _kwargs: self.add_memo_stats())
        wrap(p.QueryService, "register", "serve.register")
        wrap(p.ServingSession, "execute_online", "serve.solve")

        def check_engine(report, _args, kwargs):
            if kwargs.get("engine") == "compiled":
                self.compiled_rounds += report.rounds
            # Model 2.1: a directed link carries at most B bits a round.
            limit = report.rounds * report.plan.capacity_bits
            self.link_ok.append(all(
                bits <= limit
                for bits in report.simulation.bits_per_edge.values()
            ))

        # The engine span is named after the engine the call runs on.
        wrap(p.planner_module, "run_distributed_faq",
             lambda _args, kwargs: f"network.{kwargs.get('engine', 'generator')}",
             check_engine)

    def add_memo_stats(self) -> None:
        """Add the structural memos' current hit and lookup counts.

        ``run_suite`` clears every memo on entry, so read on its return
        they are that call's own.
        """
        for stats in self.program.memo_stats().values():
            self.memo_hits += stats["hits"]
            self.memo_lookups += stats["hits"] + stats["misses"]

    def take_link_checks(self) -> List[bool]:
        out = list(self.link_ok)
        self.link_ok.clear()
        return out

    def uninstall(self) -> None:
        self.recorder.uninstall()

    def metrics(self, factor: float) -> Dict[str, Metric]:
        """The span-derived per-layer metrics, times in reference seconds
        (``factor`` per measured second, see ``probe.py``); zero where a
        layer did not run on the workload."""
        rec = self.recorder

        def total(name: str) -> float:
            return rec.total(name) * factor

        materialize = total("workloads.materialize")
        compiled = total("network.compiled")
        predict = total("costmodel.predict")
        selfs = self_times(rec.spans)
        lab_self = factor * sum(
            t for span, t in zip(rec.spans, selfs) if span.name == "lab.run_suite"
        )
        return {
            "workloads.materialize_s": (materialize, "s"),
            "workloads.rows_per_s": (ratio(self.rows, materialize), "1/s"),
            "protocols.compile_s": (total("protocols.compile"), "s"),
            "network.compiled_s": (compiled, "s"),
            "network.rounds_per_s": (ratio(self.compiled_rounds, compiled), "1/s"),
            "network.generator_s": (total("network.generator"), "s"),
            "faq.solve_s": (total("faq.solve"), "s"),
            "lowerbounds.bounds_s": (total("lowerbounds.bounds"), "s"),
            "lowerbounds.certify_s": (total("lowerbounds.certify"), "s"),
            "costmodel.predict_s": (predict, "s"),
            "costmodel.over_engine": (ratio(predict, compiled), "ratio"),
            "obs.verify_s": (total("obs.verify"), "s"),
            "obs.events": (self.events, "count"),
            "core.memo_hit_rate": (ratio(self.memo_hits, self.memo_lookups), "share"),
            "lab.self_s": (lab_self, "s"),
            "serve.register_s": (total("serve.register"), "s"),
            "serve.solve_s": (total("serve.solve"), "s"),
        }

    def write(self, directory: str, workload: str, seed: int) -> None:
        os.makedirs(directory, exist_ok=True)
        self.recorder.write(os.path.join(directory, f"spans-{workload}-s{seed}.jsonl"))


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def delta_share(before: Dict[str, Any], after: Dict[str, Any],
                part: str, other: str) -> float:
    """``part / (part + other)`` over the counter moves between snapshots."""
    moved = {k: after.get(k, 0) - before.get(k, 0) for k in (part, other)}
    return ratio(moved[part], moved[part] + moved[other])
