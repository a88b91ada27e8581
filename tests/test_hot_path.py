"""The route hot path reads nothing through an enum class, calls no record class
and measures or times no leg.

A route-memo miss makes one ``routing.visit`` per task, and every evaluation
passes through ``schedule_route``, ``evaluate_solution`` and
``compute_cost``. On CPython 3.11 reading ``Adjustment.NONE`` through the
class costs about 0.2 us, and a ``NamedTuple`` class call about 0.3 us more
than ``tuple.__new__``; so these four functions read the members from
module-level names and build their records with ``routing._record``. A
route memo measures and times every leg of its pool once, so these
functions read legs from its tables and call no ``hypot`` and no
``minutes``. This ``ast`` check keeps all three costs from coming back
unseen.
"""

import ast
from pathlib import Path

ROUTING = Path(__file__).resolve().parents[1] / "src" / "mplq" / "routing.py"
HOT_FUNCTIONS = ("visit", "schedule_route", "evaluate_solution", "compute_cost")
ENUMS = ("Adjustment", "AdjustmentPolicy")
RECORDS = ("VisitRecord", "LockerRoute", "RoutePlan", "CostBreakdown")
LEG_MEASURES = ("hypot", "minutes")


def hot_path_costs(source: str) -> list[tuple[str, int, str]]:
    """(function, line, expression) of each attribute read through an enum class, each
    record class call and each ``hypot`` or ``minutes`` call in the hot functions of
    ``source``, all defined at module level."""
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}
    found = []
    for name in HOT_FUNCTIONS:
        for node in ast.walk(functions[name]):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name) and node.value.id in ENUMS):
                found.append((name, node.lineno, f"{node.value.id}.{node.attr}"))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in RECORDS):
                found.append((name, node.lineno, f"{node.func.id}(...)"))
            elif isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Attribute) and node.func.attr in LEG_MEASURES
                    or isinstance(node.func, ast.Name) and node.func.id in LEG_MEASURES):
                found.append((name, node.lineno, f"{ast.unparse(node.func)}(...)"))
    return found


def test_the_route_hot_path_reads_no_enum_member_and_calls_no_record_class():
    assert hot_path_costs(ROUTING.read_text(encoding="utf-8")) == []


def test_the_check_finds_each_cost_in_a_mutated_source():
    source = ROUTING.read_text(encoding="utf-8")
    mutations = [
        ("adjustment = _NONE", "adjustment = Adjustment.NONE", ("visit", "Adjustment.NONE")),
        ("memo.holds", "memo.policy is AdjustmentPolicy.HCPS",
         ("visit", "AdjustmentPolicy.HCPS")),
        ("_record(VisitRecord, (", "VisitRecord(*(", ("visit", "VisitRecord(...)")),
        ("_record(LockerRoute, (", "LockerRoute(*(", ("schedule_route", "LockerRoute(...)")),
        ("_record(RoutePlan, (", "RoutePlan(*(", ("evaluate_solution", "RoutePlan(...)")),
        ("_record(CostBreakdown, (", "CostBreakdown(*(", ("compute_cost", "CostBreakdown(...)")),
        ("km = memo.leg_km[prev][task_id]", "km = math.hypot(x - px, y - py)",
         ("visit", "math.hypot(...)")),
        ("back = memo.leg_minutes[-1][last]", "back = memo.minutes(memo.leg_km[-1][last])",
         ("schedule_route", "memo.minutes(...)")),
    ]
    for old, new, (function, expression) in mutations:
        assert source.count(old) == 1, old
        found = hot_path_costs(source.replace(old, new))
        assert [(f, e) for f, _, e in found] == [(function, expression)], old


def test_the_check_reads_only_the_hot_functions():
    source = ("from __future__ import annotations\n"
              "def visit(memo: Adjustment) -> VisitRecord:\n"
              "    return _record(VisitRecord, (memo,))\n"
              "def schedule_route(memo, *, task_ids) -> Optional[LockerRoute]:\n"
              "    return None\n"
              "def evaluate_solution(policy: AdjustmentPolicy = None):\n"
              "    return [RoutePlan for _ in ()]\n"
              "def compute_cost():\n"
              "    return AdjustmentPolicy.parse('btd')\n"
              "def elsewhere():\n"
              "    return VisitRecord(1), Adjustment.BTD, math.hypot(1, 2), memo.minutes(3)\n")
    assert hot_path_costs(source) == [("compute_cost", 9, "AdjustmentPolicy.parse")]
