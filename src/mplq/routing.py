"""Route construction, adjustment strategies, cost and feasibility checks.

A locker's task list is scheduled with an earliest-start policy: arrive as
soon as the sub-interval and travel allow, serve as soon as the last-arriving
member customer permits, and leave one service time later. When the natural
arrival at the next space would precede that sub-interval's opening, one of
two adjustment strategies postpones it:

* back-to-depot (BTD): detour via the depot, which also empties the locker;
* hold-at-current-parking-space (HCPS): wait at the current space until its
  slice closes, then drive on.

Capacity overruns always force a depot return regardless of the selected
strategy. Arrivals later than a slice's closing time are allowed but recorded
as lateness (a soft violation), never repaired.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ParameterError, ShapeError
from .instance import Instance, Position, TimeWindow
from .state import SearchState, validate_state
from .taskgen import Task, TaskPool

_EPS = 1e-9


class AdjustmentPolicy(enum.Enum):
    """Preferred fix for early arrivals; capacity overflows detour regardless."""

    BTD = "btd"
    HCPS = "hcps"

    @classmethod
    def parse(cls, name: str) -> "AdjustmentPolicy":
        try:
            return cls(name.lower())
        except ValueError:
            raise ParameterError(f"unknown adjustment policy {name!r}; expected btd or hcps")


class Adjustment(enum.Enum):
    NONE = "none"
    BTD = "btd"
    HCPS = "hcps"


@dataclass(frozen=True)
class TravelNoise:
    """Multiplicative noise on leg travel times: factor ~ U(1 - sigma, 1 + sigma).

    Shortened legs make the locker arrive before the next slice opens, which
    is exactly what forces the adjustment strategies to act.
    """

    sigma: float
    seed: int = 0


class TravelTimer:
    """Turns leg geometry into minutes, optionally perturbed by seeded noise.

    Noise affects travel *times* only; leg *distances* (and therefore cost)
    stay geometric.
    """

    def __init__(self, speed: float, noise: Optional[TravelNoise] = None):
        if speed <= 0:
            raise ParameterError(f"speed must be > 0, got {speed}")
        self.speed = speed
        self._sigma = noise.sigma if noise else 0.0
        self._rng = np.random.default_rng(noise.seed) if noise and noise.sigma > 0 else None

    def minutes(self, a: Position, b: Position) -> float:
        t = a.distance_to(b) / self.speed
        if self._rng is not None:
            factor = 1.0 + float(self._rng.uniform(-self._sigma, self._sigma))
            t *= max(0.0, factor)
        return t


@dataclass(frozen=True)
class VisitRecord:
    task_id: int
    arrival: float
    service_start: float
    leave: float
    load_after: float
    adjustment: Adjustment
    lateness: float


@dataclass(frozen=True)
class LockerRoute:
    locker_id: int
    visits: tuple[VisitRecord, ...]
    depot_departure: float
    depot_return: float
    distance_km: float


@dataclass(frozen=True)
class RoutePlan:
    routes: tuple[LockerRoute, ...]
    total_distance: float
    lockers_dispatched: int
    total_lateness: float
    average_lateness: float

    def all_visits(self) -> list[VisitRecord]:
        return [v for route in self.routes for v in route.visits]


@dataclass(frozen=True)
class CostBreakdown:
    fleet_term: float
    travel_term: float
    objective: float
    reward: float


@dataclass(frozen=True)
class ConstraintViolation:
    constraint: str
    entity: str
    description: str
    severity: str  # "hard" or "soft"
    lateness: float = 0.0


@dataclass(frozen=True)
class FeasibilityReport:
    violations: tuple[ConstraintViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def hard(self) -> tuple[ConstraintViolation, ...]:
        return tuple(v for v in self.violations if v.severity == "hard")

    def soft(self) -> tuple[ConstraintViolation, ...]:
        return tuple(v for v in self.violations if v.severity == "soft")


# ---------------------------------------------------------------------------
# Elementary timing rules
# ---------------------------------------------------------------------------


def travel_time(a: Position, b: Position, speed: float) -> float:
    """Euclidean distance over speed, in minutes."""
    if speed <= 0:
        raise ParameterError(f"speed must be > 0, got {speed}")
    return a.distance_to(b) / speed


def earliest_schedule(prev_leave: Optional[float], travel: float, window: TimeWindow,
                      pickups: Sequence[float], service_time: float,
                      ) -> tuple[float, float, float]:
    """Earliest-start recurrence for one visit.

    The first visit of a route (``prev_leave is None``) arrives at
    max(window start, travel-from-depot time); later visits at
    max(previous leave + travel, window start). Service starts once the
    locker is there and the last-arriving member customer is available, and
    the locker leaves one service time later.
    """
    if prev_leave is None:
        arrival = max(window.start, travel)
    else:
        arrival = max(prev_leave + travel, window.start)
    service_start = max(arrival, max(pickups)) if pickups else arrival
    leave = service_start + service_time
    return arrival, service_start, leave


def apply_btd(prev_arrival: float, service_time: float, to_depot: float, from_depot: float) -> float:
    """Arrival at the next space after a depot detour; the detour empties the locker."""
    return prev_arrival + service_time + to_depot + from_depot


def apply_hcps(prev_window_end: float, travel: float) -> float:
    """Arrival at the next space after holding at the current one until its slice closes."""
    return prev_window_end + travel


# ---------------------------------------------------------------------------
# Route scheduling
# ---------------------------------------------------------------------------


def schedule_route(tasks: Sequence[Task], instance: Instance, policy: AdjustmentPolicy,
                   *, locker_id: int = 0, task_ids: Optional[Sequence[int]] = None,
                   timer: Optional[TravelTimer] = None) -> Optional[LockerRoute]:
    """Schedule one locker's task list, already sorted by window start.

    Returns None for an empty list (the locker is not dispatched). The route
    starts and ends at the depot; distance covers every leg including depot
    detours and the final return.
    """
    if not tasks:
        return None
    if task_ids is None:
        task_ids = list(range(len(tasks)))
    if timer is None:
        timer = TravelTimer(instance.fleet.speed)

    depot = instance.depot
    capacity = instance.fleet.capacity
    visits: list[VisitRecord] = []
    distance = 0.0
    load = 0.0
    depot_departure = 0.0
    prev_task: Optional[Task] = None
    prev_space = None
    prev_service_start = 0.0
    prev_leave = 0.0

    for k, task in enumerate(tasks):
        sp = instance.space_by_id(task.space_id)
        pickups = [earliest for _, earliest in task.members]
        if k == 0:
            t0 = timer.minutes(depot, sp.position)
            arrival, service_start, leave = earliest_schedule(
                None, t0, task.window, pickups, sp.service_time)
            adjustment = Adjustment.NONE
            distance += depot.distance_to(sp.position)
            depot_departure = arrival - t0
        else:
            t_ij = timer.minutes(prev_space.position, sp.position)
            natural = prev_leave + t_ij
            overflow = load + task.demand > capacity + _EPS
            early = natural < task.window.start - _EPS
            hold_suffices = prev_task.window.end + t_ij >= task.window.start
            use_hcps = (early and not overflow
                        and policy is AdjustmentPolicy.HCPS and hold_suffices)
            use_btd = overflow or (early and not use_hcps)
            if use_btd:
                t_i0 = timer.minutes(prev_space.position, depot)
                t_0j = timer.minutes(depot, sp.position)
                arrival = apply_btd(prev_service_start, prev_space.service_time, t_i0, t_0j)
                adjustment = Adjustment.BTD
                distance += prev_space.position.distance_to(depot) + depot.distance_to(sp.position)
                load = 0.0
            elif use_hcps:
                arrival = apply_hcps(prev_task.window.end, t_ij)
                adjustment = Adjustment.HCPS
                distance += prev_space.position.distance_to(sp.position)
            else:
                arrival, service_start, leave = earliest_schedule(
                    prev_leave, t_ij, task.window, pickups, sp.service_time)
                adjustment = Adjustment.NONE
                distance += prev_space.position.distance_to(sp.position)
            if adjustment is not Adjustment.NONE:
                service_start = max(arrival, task.window.start, *pickups) if pickups \
                    else max(arrival, task.window.start)
                leave = service_start + sp.service_time

        load += task.demand
        lateness = max(0.0, service_start - task.window.end)
        visits.append(VisitRecord(
            task_id=task_ids[k], arrival=arrival, service_start=service_start,
            leave=leave, load_after=load, adjustment=adjustment, lateness=lateness))
        prev_task, prev_space = task, sp
        prev_service_start, prev_leave = service_start, leave

    distance += prev_space.position.distance_to(depot)
    depot_return = prev_leave + timer.minutes(prev_space.position, depot)
    return LockerRoute(
        locker_id=locker_id, visits=tuple(visits), depot_departure=depot_departure,
        depot_return=depot_return, distance_km=distance)


def compute_cost(lockers_dispatched: int, total_distance: float, instance: Instance) -> CostBreakdown:
    """Weighted fleet-size plus travel objective and its reciprocal reward."""
    w1, w2 = instance.weights
    fleet_term = w1 * instance.fleet.fixed_cost * lockers_dispatched
    travel_term = w2 * instance.fleet.unit_travel_cost * total_distance
    objective = fleet_term + travel_term
    reward = 1.0 / objective if objective > 0 else math.inf
    return CostBreakdown(fleet_term=fleet_term, travel_term=travel_term,
                         objective=objective, reward=reward)


def evaluate_solution(state: SearchState, pool: TaskPool, instance: Instance,
                      policy: AdjustmentPolicy, noise: Optional[TravelNoise] = None,
                      ) -> tuple[RoutePlan, CostBreakdown]:
    """Score one candidate solution.

    Tasks are partitioned by ``x1``, each locker's list is ordered by ``x2``
    priority and then stably sorted by window start, and every route is
    scheduled under ``policy``. Pure in (state, pool, instance, policy, noise
    seed); safe to call in parallel.
    """
    n = len(pool)
    validate_state(state, n, instance.fleet.max_lockers)

    priority = np.empty(n, dtype=np.int64)
    priority[state.x2] = np.arange(n)

    by_locker: dict[int, list[int]] = {}
    for task_id, locker in enumerate(state.x1.tolist()):
        by_locker.setdefault(locker, []).append(task_id)

    timer = TravelTimer(instance.fleet.speed, noise)
    routes = []
    total_distance = 0.0
    total_lateness = 0.0
    visit_count = 0
    for locker in sorted(by_locker):
        ids = sorted(by_locker[locker], key=lambda t: priority[t])
        ids.sort(key=lambda t: pool.tasks[t].window.start)  # stable: x2 breaks ties
        tasks = [pool.tasks[t] for t in ids]
        route = schedule_route(tasks, instance, policy,
                               locker_id=locker, task_ids=ids, timer=timer)
        routes.append(route)
        total_distance += route.distance_km
        total_lateness += sum(v.lateness for v in route.visits)
        visit_count += len(route.visits)

    plan = RoutePlan(
        routes=tuple(routes),
        total_distance=total_distance,
        lockers_dispatched=len(routes),
        total_lateness=total_lateness,
        average_lateness=total_lateness / visit_count if visit_count else 0.0,
    )
    cost = compute_cost(plan.lockers_dispatched, plan.total_distance, instance)
    return plan, cost


def compute_delay(plan: RoutePlan) -> tuple[float, float]:
    """Total and per-visit average lateness of a scheduled plan, in minutes."""
    visits = plan.all_visits()
    if not visits:
        return 0.0, 0.0
    total = sum(v.lateness for v in visits)
    return total, total / len(visits)


# ---------------------------------------------------------------------------
# Feasibility checking
# ---------------------------------------------------------------------------


def check_feasibility(plan: RoutePlan, state: SearchState, pool: TaskPool,
                      instance: Instance) -> FeasibilityReport:
    """Audit a scheduled plan against the model constraints.

    Hard findings cover task-visit uniqueness, depot start/end, capacity, and
    internal timing consistency; service starting after a slice closes is the
    soft lateness finding, reported with the exact recorded minutes.
    """
    out: list[ConstraintViolation] = []
    n = len(pool)

    def hard(constraint: str, entity: str, description: str) -> None:
        out.append(ConstraintViolation(constraint, entity, description, "hard"))

    try:
        validate_state(state, n, instance.fleet.max_lockers)
    except ShapeError as exc:
        hard("2-3", "state", str(exc))

    seen: dict[int, int] = {}
    for route in plan.routes:
        for v in route.visits:
            seen[v.task_id] = seen.get(v.task_id, 0) + 1
    for task_id in range(n):
        c = seen.get(task_id, 0)
        if c != 1:
            hard("2-3", f"task {task_id}", f"visited {c} times across all routes")

    for route in plan.routes:
        ent = f"locker {route.locker_id}"
        if not route.visits:
            hard("4-5", ent, "dispatched locker has no visits")
            continue
        first, last = route.visits[0], route.visits[-1]
        if route.depot_departure > first.arrival + _EPS:
            hard("4-5", ent, "depot departure after first arrival")
        if route.depot_return + _EPS < last.leave:
            hard("4-5", ent, "depot return before last leave")

        prev_leave = None
        for v in route.visits:
            task = pool.tasks[v.task_id]
            sp = instance.space_by_id(task.space_id)
            vent = f"locker {route.locker_id} task {v.task_id}"
            if v.load_after > instance.fleet.capacity + _EPS:
                hard("6", vent,
                     f"load {v.load_after} exceeds capacity {instance.fleet.capacity}")
            if not (v.arrival - _EPS <= v.service_start <= v.leave + _EPS):
                hard("9-11", vent, "visit timing is not ordered arrival <= start <= leave")
            if abs((v.leave - v.service_start) - sp.service_time) > 1e-6:
                hard("9-11", vent, "leave time does not equal start plus service time")
            if prev_leave is not None and v.arrival + 1e-6 < prev_leave:
                hard("9-11", vent, "arrival precedes the previous leave time")
            if v.service_start < task.window.start - _EPS:
                hard("7-8", vent, "service starts before the sub-interval opens")
            recomputed = max(0.0, v.service_start - task.window.end)
            if recomputed != v.lateness:
                hard("7-8", vent, "recorded lateness disagrees with visit times")
            elif recomputed > 0.0:
                out.append(ConstraintViolation(
                    "7-11", vent,
                    f"service starts {recomputed} min after the sub-interval closes",
                    "soft", lateness=recomputed))
            prev_leave = v.leave

    return FeasibilityReport(tuple(out))


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def write_plan_csv(plan: RoutePlan, pool: TaskPool, path: Union[str, Path],
                   header_comment: Optional[str] = None) -> None:
    """Leg-by-leg CSV of a plan. Depot-bound legs carry blank visit columns."""
    lines = []
    if header_comment:
        lines.append(f"# {header_comment}")
    lines.append("locker_id,leg_index,from_node,to_node,arrive_min,start_min,leave_min,"
                 "load,adjustment,lateness_min")
    for route in plan.routes:
        leg = 0
        prev_node = 0
        for v in route.visits:
            node = pool.tasks[v.task_id].space_id
            if v.adjustment is Adjustment.BTD and leg > 0:
                lines.append(f"{route.locker_id},{leg},{prev_node},0,,,,0,btd,")
                leg += 1
                prev_node = 0
            lines.append(
                f"{route.locker_id},{leg},{prev_node},{node},{v.arrival!r},"
                f"{v.service_start!r},{v.leave!r},{v.load_after!r},"
                f"{v.adjustment.value},{v.lateness!r}")
            leg += 1
            prev_node = node
        lines.append(f"{route.locker_id},{leg},{prev_node},0,{route.depot_return!r},,,,none,")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


__all__ = [
    "AdjustmentPolicy",
    "Adjustment",
    "TravelNoise",
    "TravelTimer",
    "VisitRecord",
    "LockerRoute",
    "RoutePlan",
    "CostBreakdown",
    "ConstraintViolation",
    "FeasibilityReport",
    "travel_time",
    "earliest_schedule",
    "apply_btd",
    "apply_hcps",
    "schedule_route",
    "compute_cost",
    "evaluate_solution",
    "compute_delay",
    "check_feasibility",
    "write_plan_csv",
]
