"""Route construction, adjustment strategies, cost and feasibility checks.

``check_pool`` is every solver's gate on its pool. ``evaluate_solution(state,
memo)`` scores a state through a ``RouteMemo``, which holds the pool,
instance, policy, leg tables, noise draws and routes.

A locker's task list, sorted by window start, is scheduled by one visit rule.
The locker starts at the depot with ``leave = 0``. Each visit reads the leg
from the current position to its parking space, its km and its ``travel``
minutes (``km / speed``, times a seeded factor under travel noise), from its
route memo's leg tables, and takes its arrival from one of three cases:

* plain: ``max(leave + travel, window.start)``. The first visit is always
  plain, so it waits at its space for the window to open.
* hold at the current parking space (HCPS): the locker would arrive early
  (``leave + travel`` before the window opens), the load fits, the policy is
  HCPS, and holding until the previous slice closes reaches the opening
  (``prev.window.end + travel >= window.start``). It arrives at
  ``prev.window.end + travel``.
* back to depot (BTD): the load overflows the capacity, or the locker would
  arrive early and cannot hold. It detours via the depot and arrives at
  ``leave + minutes(here -> depot) + minutes(depot -> space)``; the detour
  empties the locker and its two legs are the visit's distance.

Every visit then serves at ``max(arrival, task.ready)``, where ``task.ready``
is the latest of the window start and the member pickups, and leaves one
service time later. A service start after the window closes is recorded as
lateness (a soft violation), never repaired. The locker
leaves the depot at the first arrival minus the first travel time and
returns from its last space after the last leave.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import NothingToSolveError, OverCapacityError, ParameterError, ShapeError
from .instance import Instance
from .state import SearchState, effective_locker_count, validate_state
from .taskgen import TaskPool

_EPS = 1e-9
# Routes a route memo holds; the least recently used one makes room for a new
# one. Bounds the memory of a solve.
_ROUTE_MEMO_LIMIT = 1024


class AdjustmentPolicy(enum.Enum):
    """Preferred fix for early arrivals; capacity overflows detour regardless."""

    BTD = "btd"
    HCPS = "hcps"


class Adjustment(enum.Enum):
    NONE = "none"
    BTD = "btd"
    HCPS = "hcps"


# The members ``visit`` records, bound once: reading a member through its enum
# class is a descriptor lookup of about 0.2 us on CPython 3.11.
_NONE, _BTD, _HCPS = Adjustment.NONE, Adjustment.BTD, Adjustment.HCPS


@dataclass(frozen=True)
class TravelNoise:
    """Multiplicative noise on leg travel times: factor ~ U(1 - sigma, 1 + sigma).

    Shortened legs make the locker arrive before the next slice opens, which
    is exactly what forces the adjustment strategies to act. Sigma lies in
    [0, 1]: above 1 a factor would be clipped to zero travel time. Noise
    affects travel *times* only; leg *distances*, and so cost, stay geometric.
    """

    sigma: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.sigma <= 1.0:  # also refuses NaN
            raise ParameterError(f"noise sigma must lie in [0, 1], got {self.sigma}")


class VisitRecord(NamedTuple):
    task_id: int
    arrival: float
    service_start: float
    leave: float
    load_after: float
    adjustment: Adjustment
    lateness: float


class LockerRoute(NamedTuple):  # which locker drives it is in RoutePlan.lockers
    visits: tuple[VisitRecord, ...]
    depot_departure: float
    depot_return: float
    distance_km: float


class RoutePlan(NamedTuple):
    lockers: tuple[int, ...]  # the locker id of each route
    routes: tuple[LockerRoute, ...]
    total_distance: float

    @property
    def lockers_dispatched(self) -> int:
        return len(self.routes)

    def all_visits(self) -> list[VisitRecord]:
        return [v for route in self.routes for v in route.visits]


class CostBreakdown(NamedTuple):
    objective: float
    reward: float


# Builds the records above on the hot path: ``_record(VisitRecord, fields)``
# is ``VisitRecord(*fields)`` without the NamedTuple's generated ``__new__``,
# a Python function that costs about 0.3 us more per record. The record is
# the same: its type, fields, ``==`` and hash. ``fields`` must hold every
# field, in declaration order, since nothing checks their count.
_record = tuple.__new__


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
# Route scheduling
# ---------------------------------------------------------------------------


class RouteMemo:
    """What ``evaluate_solution`` scores: one task pool's visit data, leg tables and routes.

    Built once per pool, instance and policy, with one ``space_by_id`` per
    task: each task's window start and end, ``ready``, demand and service
    time. ``leg_km[i][j]`` and ``leg_minutes[i][j]`` (``km / speed``) are the
    leg from task i's space to task j's, n + 1 rows over n tasks; the last
    row, i = -1, leaves the depot and serves the legs back to it too (exact:
    ``hypot`` ignores signs). ``holds`` is whether the policy is HCPS, so
    whether an early arrival may hold. With a sigma above 0, ``draw()`` is a
    leg's factor ``max(0, 1 + U(-sigma, sigma))`` from a ``Generator`` seeded
    with ``noise.seed``, drawn once per leg in leg order to multiply its table
    minutes; a sigma of 0 is no noise, and ``draw`` is then None. Without
    noise, ``routes`` caches every route by its ordered task-id tuple; a
    route names no locker, so a hit is the stored route itself. It holds at
    most ``_ROUTE_MEMO_LIMIT`` routes in least-recently-used order (a dict's
    insertion order): a hit moves its route to the end, and a new route
    evicts the first. A noisy memo draws on every leg, on from route to
    route, so its ``routes`` is None and every route is scheduled anew.
    ``misses`` counts the routes scheduled anew, hits not included.
    """

    __slots__ = ("pool", "instance", "holds", "draw", "visit_data",
                 "leg_km", "leg_minutes", "capacity", "routes", "misses")

    def __init__(self, pool: TaskPool, instance: Instance, policy: AdjustmentPolicy,
                 noise: Optional[TravelNoise] = None):
        speed = instance.fleet.speed
        if not speed > 0:  # also refuses NaN
            raise ParameterError(f"speed must be > 0, got {speed}")
        self.pool, self.instance = pool, instance
        self.holds = policy is AdjustmentPolicy.HCPS
        self.visit_data, points = [], []  # points: each task's space x and y, then the depot's
        for task in pool.tasks:
            sp = instance.space_by_id(task.space_id)
            points.append((sp.position.x, sp.position.y))
            self.visit_data.append((task.window.start, task.window.end, task.ready,
                                    task.demand, sp.service_time))
        points.append((instance.depot.x, instance.depot.y))
        self.leg_km = [[math.hypot(px - x, py - y) for x, y in points[:-1]] for px, py in points]
        self.leg_minutes = [[km / speed for km in row] for row in self.leg_km]
        self.capacity = instance.fleet.capacity + _EPS
        if noise is None or noise.sigma == 0:
            self.draw = None
            self.routes: Optional[dict[tuple[int, ...], LockerRoute]] = {}
        else:
            uniform, sigma = np.random.default_rng(noise.seed).uniform, noise.sigma
            self.draw = lambda: max(0.0, 1.0 + float(uniform(-sigma, sigma)))
            self.routes = None
        self.misses = 0


def visit(memo: RouteMemo, end: Optional[tuple], task_id: int) -> tuple[tuple, VisitRecord]:
    """One visit of the module docstring's rule: task ``task_id`` served from the open end ``end``.

    An open end is where a route under construction stands after its last
    visit, as the tuple ``(leave, load, last, window_end, distance,
    depot_departure)``: the last leave, the load on board, the last task's
    id, its window's end, the km driven without the return leg, and the
    depot departure. ``end`` is None before the first visit, which starts at
    the depot with ``leave = 0``. Legs are read from the memo's tables; a
    noisy memo draws each leg's factor in leg order. Returns the open end
    after the visit and the visit's record.
    """
    start, window_end, ready, demand, service = memo.visit_data[task_id]
    if end is None:
        prev = -1  # the depot's row
        leave = load = distance = 0.0
    else:
        leave, load, prev, prev_end, distance, departure = end
    km = memo.leg_km[prev][task_id]
    travel = memo.leg_minutes[prev][task_id]
    draw = memo.draw
    if draw is not None:
        travel *= draw()
    reach = leave + travel
    arrival = start if start > reach else reach  # max(reach, start)
    adjustment = _NONE
    if end is None:
        departure = arrival - travel
    else:
        early = reach < start - _EPS
        overflow = load + demand > memo.capacity
        if early and not overflow and memo.holds and prev_end + travel >= start:
            arrival = prev_end + travel
            adjustment = _HCPS
        elif early or overflow:
            depot_km, depot_minutes = memo.leg_km[-1], memo.leg_minutes[-1]
            km = depot_km[prev] + depot_km[task_id]
            if draw is None:
                arrival = leave + depot_minutes[prev] + depot_minutes[task_id]
            else:  # the factors in leg order: out to the depot, then back
                arrival = leave + depot_minutes[prev] * draw() + depot_minutes[task_id] * draw()
            adjustment = _BTD
            load = 0.0
    service_start = ready if ready > arrival else arrival  # max(arrival, ready)
    leave = service_start + service
    load += demand
    late = service_start - window_end
    return ((leave, load, task_id, window_end, distance + km, departure),
            _record(VisitRecord, (task_id, arrival, service_start, leave, load, adjustment,
                                  late if late > 0.0 else 0.0)))


def schedule_route(memo: RouteMemo, *, task_ids: Sequence[int]) -> Optional[LockerRoute]:
    """Schedule one locker's tasks of ``memo``'s pool, ``task_ids`` sorted by window start.

    Returns None for an empty list (the locker is not dispatched). The route
    starts and ends at the depot; distance covers every leg including depot
    detours and the final return. Each task is one ``visit``; the return leg,
    the memo's depot row, draws the last factor under noise. A noise-free
    memo caches the route, so a repeat of ``task_ids`` is a hit; a noisy one
    schedules every call anew.
    """
    if not task_ids:
        return None
    routes = memo.routes
    if routes is not None:
        key = tuple(task_ids)
        route = routes.pop(key, None)
        if route is not None:
            routes[key] = route
            return route

    memo.misses += 1
    visits: list[VisitRecord] = []
    end = None
    for task_id in task_ids:
        end, record = visit(memo, end, task_id)
        visits.append(record)
    leave, _, last, _, distance, departure = end
    back = memo.leg_minutes[-1][last]
    if memo.draw is not None:
        back *= memo.draw()
    route = _record(LockerRoute, (tuple(visits), departure, leave + back,
                                  distance + memo.leg_km[-1][last]))
    if routes is not None:
        if len(routes) >= _ROUTE_MEMO_LIMIT:
            del routes[next(iter(routes))]
        routes[key] = route
    return route


def compute_cost(lockers_dispatched: int, total_distance: float, instance: Instance) -> CostBreakdown:
    """Weighted fleet-size plus travel objective and its reciprocal reward."""
    w1, w2 = instance.weights
    objective = (w1 * instance.fleet.fixed_cost * lockers_dispatched
                 + w2 * instance.fleet.unit_travel_cost * total_distance)
    reward = 1.0 / objective if objective > 0 else math.inf
    return _record(CostBreakdown, (objective, reward))


def evaluate_solution(state: SearchState, memo: RouteMemo) -> tuple[RoutePlan, CostBreakdown]:
    """Score one candidate solution of ``memo``'s pool, instance and policy.

    Tasks are partitioned by ``x1``, each locker's list is ordered by window
    start with ``x2`` priority breaking ties, and every route is scheduled
    through ``memo``, in locker id order. Every call changes the memo's route
    cache, or a noisy memo's draws, which go on from call to call; calls that
    share a memo must not run concurrently. ``state`` is not checked: check a
    state from outside with ``state.validate_state`` first, as ``mplq
    validate`` does, since a malformed one may raise or score a wrong plan.
    """
    pool = memo.pool
    # x2 lists the tasks in priority order, so a stable sort by window start
    # breaks equal starts by priority; dealing in that order sorts every locker.
    # Without equal starts that sort is the pool's one start order, whatever x2.
    order = pool.start_order
    if order is None:
        order = sorted(state.x2, key=pool.starts.__getitem__)
    x1 = state.x1
    by_locker: list[list[int]] = [[] for _ in range(max(x1, default=-1) + 1)]
    for task_id in order:
        by_locker[x1[task_id]].append(task_id)

    lockers = []
    routes = []
    total_distance = 0.0  # added left to right: sum() compensates from Python 3.12 on
    for locker, tasks in enumerate(by_locker):
        if tasks:
            route = schedule_route(memo, task_ids=tasks)
            lockers.append(locker)
            routes.append(route)
            total_distance += route.distance_km

    plan = _record(RoutePlan, (tuple(lockers), tuple(routes), total_distance))
    return plan, compute_cost(len(lockers), total_distance, memo.instance)


def hold_can_apply(pool: TaskPool, instance: Instance) -> bool:
    """Whether HCPS can ever plan differently from BTD on ``pool``.

    True when some task's window outlasts its start plus its space's service
    time by more than 1e-10. Otherwise no hold can apply: a locker leaves a
    task no earlier than its window start plus the service time, so holding
    until the window ends never reaches the next opening within the
    ``_EPS`` early-arrival margin, HCPS falls back to the depot detour at
    every early arrival, and its plans equal BTD's for every state, with or
    without travel noise. The 1e-10 absorbs the 1-ulp rounding of the
    ``build_tasks`` slices, which last exactly one service time.
    """
    return any(task.window.end
               > task.window.start + instance.space_by_id(task.space_id).service_time + 1e-10
               for task in pool.tasks)


def check_pool(pool: TaskPool, instance: Instance) -> int:
    """The locker range of a pool that can be solved: the one gate of every solver.

    Raises NothingToSolveError for an empty pool and OverCapacityError naming
    the first task above the locker capacity, which no plan can serve; the
    grid and the sweeps skip such a pool and count it. Then raises
    NothingToSolveError when every plan costs 0 (a fixed cost of 0 and every
    task's space at the depot), whose reward would be infinite; no generated
    instance has a fixed cost of 0.
    """
    if len(pool) == 0:
        raise NothingToSolveError("task pool is empty")
    capacity = instance.fleet.capacity
    for task_id, task in enumerate(pool.tasks):
        if task.demand > capacity:
            raise OverCapacityError(
                f"task {task_id} (space {task.space_id}) demands {task.demand} parcels, above "
                f"the locker capacity {capacity}; no plan can serve it")
    if instance.fleet.fixed_cost == 0 and all(instance.space_by_id(task.space_id).position
                                              == instance.depot for task in pool.tasks):
        raise NothingToSolveError("every plan costs nothing: the fixed cost is 0 and every "
                                  "task's space sits at the depot")
    return effective_locker_count(instance.fleet.max_lockers, len(pool))


def sum_in_order(values: Iterable[float]) -> float:
    """``values`` added left to right from 0.0.

    ``sum()`` compensates float additions from Python 3.12 on, so its result
    would depend on the Python version.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def compute_delay(plan: RoutePlan) -> tuple[float, float]:
    """Total and per-visit average lateness of a scheduled plan, in minutes."""
    visits = plan.all_visits()
    if not visits:
        return 0.0, 0.0
    total = sum_in_order(v.lateness for v in visits)
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

    for locker, route in zip(plan.lockers, plan.routes):
        ent = f"locker {locker}"
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
            vent = f"locker {locker} task {v.task_id}"
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


__all__ = [
    "AdjustmentPolicy",
    "Adjustment",
    "TravelNoise",
    "VisitRecord",
    "LockerRoute",
    "RoutePlan",
    "CostBreakdown",
    "ConstraintViolation",
    "FeasibilityReport",
    "RouteMemo",
    "visit",
    "schedule_route",
    "compute_cost",
    "evaluate_solution",
    "hold_can_apply",
    "check_pool",
    "sum_in_order",
    "compute_delay",
    "check_feasibility",
]
