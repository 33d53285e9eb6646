"""In-memory span tracer that wraps jurymech's public names from outside.

Each traced name is replaced, in the module that looks it up at call time,
by a wrapper that times the call.  Calls at layer boundaries become spans
(name, start, end, parent span, self time).  Hot leaf calls, made thousands
of times per cell, are folded into one record per (parent span, name)
holding a call count, the total time and the self time.  Self time is a
call's duration minus the time of the traced calls nested directly in it.

Nothing is written while tracing; ``report`` returns everything at the end.
"""

from __future__ import annotations

import time

import jurymech.cli
import jurymech.dynamics
import jurymech.equilibrium
import jurymech.model
import jurymech.payment_design
import jurymech.simplex
import jurymech.sweep

# (module object whose attribute is replaced, attribute, span name, hot).
# The module is the caller's: dynamics calls vote_advantage through its own
# global, so that is where the wrapper has to sit.  The benchmark calls the
# entry points through their defining modules, so those are wrapped there.
_TARGETS = (
    (jurymech.cli, "cli_main", "cli.cli_main", False),
    (jurymech.cli, "run_sweep", "sweep.run_sweep", False),
    (jurymech.cli, "write_csv", "sweep.write_csv", False),
    (jurymech.cli, "render_heatmap", "heatmap.render_heatmap", False),
    (jurymech.sweep, "correctness_estimate", "dynamics.correctness_estimate", False),
    (jurymech.sweep, "derive_seed", "dynamics.derive_seed", True),
    (jurymech.dynamics, "derive_seed", "dynamics.derive_seed", True),
    (jurymech.dynamics, "vote_advantage", "model.vote_advantage", True),
    (jurymech.dynamics, "vote_probability", "model.vote_probability", True),
    (jurymech.dynamics, "best_response", "equilibrium.best_response", True),
    (jurymech.model, "vote_advantage", "model.vote_advantage", True),
    (jurymech.equilibrium, "vote_advantage", "model.vote_advantage", True),
    (jurymech.equilibrium, "vote_probability", "model.vote_probability", True),
    (jurymech.equilibrium, "expected_vote_advantage", "model.expected_vote_advantage", True),
    (jurymech.equilibrium, "best_response", "equilibrium.best_response", True),
    (jurymech.equilibrium, "others_vote_pmf", "equilibrium.others_vote_pmf", True),
    (jurymech.equilibrium, "poisson_binomial_pmf", "equilibrium.poisson_binomial_pmf", True),
    (jurymech.equilibrium, "binomial_weights", "payment_design.binomial_weights", True),
    (jurymech.equilibrium, "verify_equilibrium", "equilibrium.verify_equilibrium", False),
    (
        jurymech.equilibrium,
        "find_symmetric_equilibria",
        "equilibrium.find_symmetric_equilibria",
        False,
    ),
    (jurymech.payment_design, "binomial_weights", "payment_design.binomial_weights", True),
    (jurymech.payment_design, "build_lp", "payment_design.build_lp", False),
    (jurymech.simplex, "solve", "simplex.solve", False),
    # Payment lookups are methods, found on the payment's class.
    (jurymech.model.ThresholdPayment, "value", "model.payment_value", True),
    (jurymech.model.AwardLossSharingPayment, "value", "model.payment_value", True),
    (jurymech.model.KlerosPayment, "value", "model.payment_value", True),
    (jurymech.model.TabulatedPayment, "value", "model.payment_value", True),
)


class Tracer:
    """Wraps the targets on ``install`` and restores them on ``uninstall``.

    ``_child`` is a stack with one slot per open traced call (plus a root
    slot) that collects the time of the calls nested directly in it; hot
    wrappers keep to list and dict operations because they run millions of
    times in a traced sweep.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.aggregates: dict[tuple[int | None, str], list] = {}
        self._child: list[float] = [0.0]
        self._span_stack: list[int | None] = [None]
        self._saved: list[tuple[object, str, object]] = []

    def _hot(self, fn, name: str):
        child = self._child
        span_stack = self._span_stack
        aggregates = self.aggregates
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                nested = child.pop()
                child[-1] += duration
                key = (span_stack[-1], name)
                agg = aggregates.get(key)
                if agg is None:
                    agg = aggregates[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - nested

        return traced

    def _span(self, fn, name: str):
        child = self._child
        span_stack = self._span_stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)  # reserve the id; filled in on return
            parent = span_stack[-1]
            span_stack.append(span_id)
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                nested = child.pop()
                child[-1] += duration
                span_stack.pop()
                spans[span_id] = {
                    "id": span_id,
                    "name": name,
                    "parent": parent,
                    "start": start,
                    "end": end,
                    "self": duration - nested,
                }

        return traced

    def install(self) -> None:
        for owner, attr, name, hot in _TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            wrap = self._hot if hot else self._span
            setattr(owner, attr, wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def report(self) -> dict:
        """Spans and aggregates as plain data, for writing out."""
        names = {span["id"]: span["name"] for span in self.spans}
        return {
            "spans": self.spans,
            "aggregates": [
                {
                    "parent": parent,
                    "parent_name": names.get(parent),
                    "name": name,
                    "calls": calls,
                    "total": total,
                    "self": self_time,
                }
                for (parent, name), (calls, total, self_time) in self.aggregates.items()
            ],
        }


def totals(report: dict) -> dict[str, dict[str, float]]:
    """Per name: calls, total (inclusive) seconds and self seconds."""
    out: dict[str, dict[str, float]] = {}
    for span in report["spans"]:
        entry = out.setdefault(span["name"], {"calls": 0, "total": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["total"] += span["end"] - span["start"]
        entry["self"] += span["self"]
    for agg in report["aggregates"]:
        entry = out.setdefault(agg["name"], {"calls": 0, "total": 0.0, "self": 0.0})
        entry["calls"] += agg["calls"]
        entry["total"] += agg["total"]
        entry["self"] += agg["self"]
    return out


def calls_under(report: dict, name: str, parent_name: str) -> int:
    """Calls of a hot name made directly inside spans called parent_name."""
    return sum(
        agg["calls"]
        for agg in report["aggregates"]
        if agg["name"] == name and agg["parent_name"] == parent_name
    )
