"""Per-layer probes: which mplq bindings are wrapped, and what is derived from them.

``from module import name`` gives every importing module its own binding, so
each binding a caller looks up is wrapped separately (for example
``mplq.hqm.evaluate_solution`` and ``mplq.oracle.evaluate_solution``). Class
attributes such as ``Evaluator.reward`` are wrapped once on the class.
"""

from __future__ import annotations

import importlib
from typing import Callable, Sequence

from harness import Tracer

# Span names of one solver run; the route-reuse set resets when one starts.
SOLVE_SCOPES = ("hqm.run", "ga.run", "oracle.enumerate")

# Counts the ROADMAP baseline recorded for the 10x20 cell, generator seed 0,
# HQM with HCPS at the desk budget (20 agents x 200 steps), solver seed 0.
RECONCILE = {
    "hqm.evaluator_calls": 8020,
    "hqm.state_cache_hits": 1539,
    "routing.evaluate_calls": 6482,
    "routing.schedule_route_calls": 40889,
    "routing.distinct_routes": 3438,
    "hqm.accepts": 188,
    "hqm.proposals": 8000,
}
RECONCILE_REWARD = "0.01182376318627171"

# Per-layer metrics printed by a traced run, with their units. Times are self
# times (span duration minus child spans) and, like counts, are per operation.
UNITS = {
    "routing.schedule_route_s": "s",
    "routing.schedule_route_calls": "count",
    "routing.route_reuse_ratio": "ratio",
    "instance.space_by_id_calls": "count",
    "routing.evaluate_s": "s",
    "routing.evaluate_calls": "count",
    "hqm.evaluator_calls": "count",
    "hqm.state_cache_hit_ratio": "ratio",
    "hqm.construct_s": "s",
    "hqm.construct_calls": "count",
    "hqm.local_move_s": "s",
    "hqm.update_q_s": "s",
    "hqm.normalize_q_s": "s",
    "hqm.accept_ratio": "ratio",
    "hqm.steps_run": "count",
    "ga.breed_s": "s",
    "ga.evaluator_calls": "count",
    "oracle.enumerate_s": "s",
    "oracle.states": "count",
    "routing.btd_visits": "count",
    "routing.hcps_visits": "count",
    "instance.generate_s": "s",
    "instance.load_s": "s",
    "instance.assign_s": "s",
    "taskgen.build_tasks_s": "s",
    "routing.feasibility_s": "s",
    "cli.export_s": "s",
    "cli.self_s": "s",
    "bench.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Metric name -> span name whose summed self time it reports.
_SELF_TIME = {
    "routing.schedule_route_s": "routing.schedule_route",
    "routing.evaluate_s": "routing.evaluate",
    "hqm.construct_s": "hqm.construct",
    "hqm.local_move_s": "hqm.local_move",
    "hqm.update_q_s": "hqm.update_q",
    "hqm.normalize_q_s": "hqm.normalize_q",
    "ga.breed_s": "ga.breed",
    "oracle.enumerate_s": "oracle.enumerate",
    "instance.generate_s": "instance.generate",
    "instance.load_s": "instance.load",
    "instance.assign_s": "instance.assign",
    "taskgen.build_tasks_s": "taskgen.build_tasks",
    "routing.feasibility_s": "routing.feasibility",
    "cli.export_s": "cli.export",
    "cli.self_s": "cli.run",
    "bench.self_s": "bench.run_grid",
}


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the mplq bindings each layer's callers look up; returns the undo."""
    m = {name: importlib.import_module(f"mplq.{name}")
         for name in ("bench", "cli", "ga", "hqm", "instance", "oracle", "routing")}
    originals: list[tuple[object, str, object]] = []

    def replace(owner, attr, wrapper_of):
        original = getattr(owner, attr)
        originals.append((owner, attr, original))
        setattr(owner, attr, wrapper_of(original))

    def wrap(owner, attr, span, on_return=None):
        replace(owner, attr, lambda fn: tracer.wrap(span, fn, on_return,
                                                    scope=span in SOLVE_SCOPES))

    def on_route(args, kwargs, result):
        key = tuple(kwargs.get("task_ids") or ())
        if key in tracer.routes_seen:
            tracer.count("routing.route_repeats")
        else:
            tracer.routes_seen.add(key)

    def on_evaluate(args, kwargs, result):
        if tracer.scope == "oracle.enumerate":
            tracer.count("oracle.states")

    def on_solve(args, kwargs, result):
        _, plan, _ = result
        for visit in plan.all_visits():
            tracer.count(f"routing.{visit.adjustment.value}_visits")

    def on_hqm(args, kwargs, result):
        on_solve(args, kwargs, result)
        tracer.count("hqm.steps", len(result[2].best_per_step))

    wrap(m["routing"], "schedule_route", "routing.schedule_route", on_route)
    for mod in ("hqm", "oracle", "cli"):
        wrap(m[mod], "evaluate_solution", "routing.evaluate", on_evaluate)
    wrap(m["cli"], "check_feasibility", "routing.feasibility")

    def counted_reward(original):
        traced_reward = tracer.wrap("hqm.evaluator", original)

        def reward(self, state):
            if tracer.op is None:
                return original(self, state)
            evals = (tracer.op, "routing.evaluate.calls")
            before = tracer.counts[evals]
            result = traced_reward(self, state)
            solver = "ga" if tracer.scope == "ga.run" else "hqm"
            tracer.count(f"{solver}.evaluator_calls")
            if solver == "hqm" and tracer.counts[evals] == before:
                tracer.count("hqm.state_cache_hits")
            return result

        return reward

    replace(m["hqm"].Evaluator, "reward", counted_reward)

    for attr, span in (("global_construct", "hqm.construct"), ("local_move", "hqm.local_move"),
                       ("update_q", "hqm.update_q"), ("normalize_q", "hqm.normalize_q")):
        wrap(m["hqm"], attr, span)
    replace(m["hqm"].Agent, "accept", lambda fn: tracer.counter("hqm.accept.calls", fn))
    wrap(m["ga"], "next_generation", "ga.breed")
    for mod in ("cli", "bench"):
        wrap(m[mod], "run_hqm", "hqm.run", on_hqm)
        wrap(m[mod], "run_ga", "ga.run", on_solve)
    wrap(m["cli"], "brute_force_best", "oracle.enumerate")

    replace(m["instance"].Instance, "space_by_id",
            lambda fn: tracer.counter("instance.space_by_id.calls", fn))
    for mod in ("cli", "bench"):
        wrap(m[mod], "generate_instance", "instance.generate")
        wrap(m[mod], "assign_customers", "instance.assign")
        wrap(m[mod], "build_tasks", "taskgen.build_tasks")
    wrap(m["cli"], "load_instance", "instance.load")

    for attr in ("write_plan_csv", "write_history_csv", "write_taskpool_csv",
                 "write_assignment_csv"):
        wrap(m["cli"], attr, "cli.export")
    for attr in ("write_grid_csv", "write_plotdata"):
        wrap(m["bench"], attr, "cli.export")
    wrap(m["bench"], "run_grid", "bench.run_grid")
    wrap(m["cli"], "run_cli", "cli.run")

    def undo() -> None:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    return undo


def counts(tracer: Tracer, ops: Sequence) -> dict[str, int]:
    """Raw totals over ``ops``: the figures the reconciliation check compares."""
    total = lambda name: tracer.count_total(name, ops)
    routes = total("routing.schedule_route.calls")
    return {
        "hqm.evaluator_calls": total("hqm.evaluator_calls"),
        "hqm.state_cache_hits": total("hqm.state_cache_hits"),
        "routing.evaluate_calls": total("routing.evaluate.calls"),
        "routing.schedule_route_calls": routes,
        "routing.distinct_routes": routes - total("routing.route_repeats"),
        "hqm.accepts": total("hqm.accept.calls"),
        "hqm.proposals": total("hqm.construct.calls") + total("hqm.local_move.calls"),
    }


def metrics(tracer: Tracer, ops: Sequence) -> dict[str, float]:
    """Per-operation layer metrics over ``ops`` (every name in UNITS but the overhead)."""
    n = len(ops)
    own = tracer.self_time_by_name(ops)
    total = lambda name: tracer.count_total(name, ops)
    ratio = lambda part, whole: part / whole if whole else 0.0
    raw = counts(tracer, ops)
    out = {metric: own[span] / n for metric, span in _SELF_TIME.items()}
    out.update({
        "routing.schedule_route_calls": raw["routing.schedule_route_calls"] / n,
        "routing.route_reuse_ratio": ratio(total("routing.route_repeats"),
                                           raw["routing.schedule_route_calls"]),
        "instance.space_by_id_calls": total("instance.space_by_id.calls") / n,
        "routing.evaluate_calls": raw["routing.evaluate_calls"] / n,
        "hqm.evaluator_calls": raw["hqm.evaluator_calls"] / n,
        "hqm.state_cache_hit_ratio": ratio(raw["hqm.state_cache_hits"],
                                           raw["hqm.evaluator_calls"]),
        "hqm.construct_calls": total("hqm.construct.calls") / n,
        "hqm.accept_ratio": ratio(raw["hqm.accepts"], raw["hqm.proposals"]),
        "hqm.steps_run": total("hqm.steps") / n,
        "ga.evaluator_calls": total("ga.evaluator_calls") / n,
        "oracle.states": total("oracle.states") / n,
        "routing.btd_visits": total("routing.btd_visits") / n,
        "routing.hcps_visits": total("routing.hcps_visits") / n,
    })
    return out
