import math
from dataclasses import dataclass

import numpy as np
import pytest

from mplq import routing
from mplq.errors import ParameterError, ShapeError
from mplq.instance import (GeneratorConfig, Position, assign_customers,
                           generate_instance)
from mplq.routing import (Adjustment, AdjustmentPolicy, CostBreakdown, LockerRoute, RouteMemo,
                          RoutePlan, TravelNoise, VisitRecord, check_feasibility,
                          compute_delay, evaluate_solution, hold_can_apply, schedule_route)
from mplq.bench import write_plan_csv
from mplq.routing import _ROUTE_MEMO_LIMIT
from mplq.state import effective_locker_count, validate_state
from mplq.taskgen import build_tasks
from helpers import (evaluate, make_instance, make_pool, make_space, make_state, make_task,
                     random_hold_pool, schedule_tasks, travel_time)


# ---------------------------------------------------------------------------
# Elementary rules
# ---------------------------------------------------------------------------


def test_travel_time_zero_for_same_point():
    assert travel_time(Position(2, 3), Position(2, 3), 0.5) == 0.0


def test_travel_time_345_triangle():
    assert travel_time(Position(0, 0), Position(3, 4), 0.7) == pytest.approx(5 / 0.7)


def test_travel_time_symmetric():
    a, b = Position(1, 2), Position(-3, 5)
    assert travel_time(a, b, 0.9) == travel_time(b, a, 0.9)


def test_travel_time_rejects_nonpositive_speed():
    with pytest.raises(ParameterError):
        travel_time(Position(0, 0), Position(1, 1), 0.0)


# ---------------------------------------------------------------------------
# Route scheduling
# ---------------------------------------------------------------------------


def test_schedule_empty_list_not_dispatched():
    inst = make_instance([make_space(1, 1.0, 0.0)])
    memo = RouteMemo(make_pool([make_task(1)]), inst, AdjustmentPolicy.BTD)
    assert schedule_route(memo, task_ids=[]) is None


def test_single_task_route_cost():
    # depot (0,0), one wide-open task at a space at (3,4): 10 km round trip
    sp = make_space(1, 3.0, 4.0, window=(0, 1440), service_time=30.0)
    inst = make_instance([sp], max_lockers=1)
    pool = make_pool([make_task(1, window=(0, 1440), members=((0, 0.0),))])
    state = make_state([0], [0])
    plan, cost = evaluate(state, pool, inst, AdjustmentPolicy.BTD)
    assert plan.lockers_dispatched == 1
    assert plan.total_distance == pytest.approx(10.0)
    assert cost.objective == pytest.approx(15.0)
    assert cost.reward == pytest.approx(1 / 15.0)


def test_zero_distance_route_pays_fleet_cost_only():
    sp = make_space(1, 0.0, 0.0, window=(0, 1440), service_time=30.0)
    inst = make_instance([sp], max_lockers=1)
    pool = make_pool([make_task(1, window=(0, 1440))])
    plan, cost = evaluate(make_state([0], [0]), pool, inst, AdjustmentPolicy.HCPS)
    assert plan.total_distance == 0.0
    assert cost.objective == pytest.approx(5.0)
    assert cost.reward == pytest.approx(0.2)


def test_capacity_overflow_forces_depot_return():
    spaces = [make_space(1, 1.0, 0.0, service_time=10.0),
              make_space(2, 2.0, 0.0, service_time=10.0)]
    inst = make_instance(spaces, capacity=20.0, max_lockers=1)
    tasks = [make_task(1, demand=12, window=(0, 10)),
             make_task(2, demand=12, window=(20, 30))]
    route = schedule_tasks(tasks, inst, AdjustmentPolicy.HCPS)
    first, second = route.visits
    assert first.load_after == 12
    assert second.adjustment is Adjustment.BTD
    assert second.load_after == 12  # reset at the depot, then reloaded
    # distance includes the forced depot detour between the two spaces
    assert route.distance_km == pytest.approx(1.0 + (1.0 + 2.0) + 2.0)


def test_scheduler_picks_strategy_per_policy_not_per_minimum():
    # Leg where holding is feasible but arrives much later than the depot detour.
    spaces = [make_space(1, 1.0, 0.0, window=(0, 200), service_time=10.0),
              make_space(2, 2.0, 0.0, window=(150, 350), service_time=10.0)]
    inst = make_instance(spaces, speed=1.0, max_lockers=1)
    tasks = [make_task(1, window=(0, 200)), make_task(2, window=(150, 350))]

    hold = schedule_tasks(tasks, inst, AdjustmentPolicy.HCPS)
    assert hold.visits[1].adjustment is Adjustment.HCPS
    assert hold.visits[1].arrival == pytest.approx(200.0 + 1.0)  # window end + travel

    detour = schedule_tasks(tasks, inst, AdjustmentPolicy.BTD)
    assert detour.visits[1].adjustment is Adjustment.BTD
    assert detour.visits[1].arrival == pytest.approx(1.0 + 10.0 + 1.0 + 2.0)
    assert detour.visits[1].service_start == pytest.approx(150.0)  # waits for opening

    # On this leg the holding arrival exceeds the detour arrival, yet each
    # policy applied its own strategy rather than the smaller of the two.
    assert hold.visits[1].arrival > detour.visits[1].arrival


def test_hcps_escalates_to_btd_when_holding_cannot_reach_window():
    spaces = [make_space(1, 1.0, 0.0, window=(0, 20), service_time=10.0),
              make_space(2, 2.0, 0.0, window=(500, 600), service_time=10.0)]
    inst = make_instance(spaces, speed=1.0, max_lockers=1)
    tasks = [make_task(1, window=(0, 20)), make_task(2, window=(500, 600))]
    route = schedule_tasks(tasks, inst, AdjustmentPolicy.HCPS)
    second = route.visits[1]
    assert second.adjustment is Adjustment.BTD
    assert second.service_start == pytest.approx(500.0)
    assert second.arrival <= second.service_start


def test_hold_can_apply_when_a_window_outlasts_its_service_time():
    spaces = [make_space(1, 1.0, 0.0, window=(0, 200), service_time=10.0),
              make_space(2, 2.0, 0.0, window=(150, 350), service_time=10.0)]
    inst = make_instance(spaces, speed=1.0, max_lockers=1)
    pool = make_pool([make_task(1, window=(0, 200)), make_task(2, window=(150, 350))])
    assert hold_can_apply(pool, inst)
    state = make_state([0, 0], [0, 1])
    hold, _ = evaluate(state, pool, inst, AdjustmentPolicy.HCPS)
    detour, _ = evaluate(state, pool, inst, AdjustmentPolicy.BTD)
    assert hold != detour


def _generated_pools():
    for spaces, locations in ((2, 3), (5, 5), (6, 10), (8, 15)):
        for seed in range(6):
            inst = generate_instance(GeneratorConfig(num_spaces=spaces,
                                                     locations_per_space=locations, seed=seed))
            yield inst, build_tasks(inst, assign_customers(inst))


def test_hold_cannot_apply_on_generated_pools():
    pools = list(_generated_pools())
    assert not any(hold_can_apply(pool, inst) for inst, pool in pools)
    # Rounding leaves some slices one ulp longer than the service time.
    assert any(t.window.start + inst.space_by_id(t.space_id).service_time < t.window.end
               for inst, pool in pools for t in pool.tasks)


@pytest.mark.parametrize("sigma", [0.0, 0.5])
def test_generated_pools_plan_identically_under_both_policies(sigma):
    rng = np.random.default_rng(0)
    detours = 0
    for inst, pool in _generated_pools():
        n = len(pool)
        lockers = min(3, effective_locker_count(inst.fleet.max_lockers, n))
        noise = TravelNoise(sigma=sigma, seed=1) if sigma else None
        for _ in range(5):
            state = make_state(rng.integers(0, lockers, size=n), rng.permutation(n))
            btd = evaluate(state, pool, inst, AdjustmentPolicy.BTD, noise=noise)
            hcps = evaluate(state, pool, inst, AdjustmentPolicy.HCPS, noise=noise)
            assert hcps == btd
            detours += sum(v.adjustment is Adjustment.BTD for v in btd[0].all_visits())
    assert detours > 0


def test_lateness_recorded_when_service_starts_after_window_end():
    spaces = [make_space(1, 1.0, 0.0, window=(0, 30), service_time=30.0),
              make_space(2, 1.0, 7.0, window=(30, 60), service_time=30.0)]
    inst = make_instance(spaces, speed=0.7, max_lockers=1)
    tasks = [make_task(1, window=(0, 30)), make_task(2, window=(30, 60))]
    route = schedule_tasks(tasks, inst, AdjustmentPolicy.HCPS)
    second = route.visits[1]
    # leave first at 30 + max(0, ...) service 30 -> 31.43 + 10 travel = 41.43 within window
    assert second.lateness == max(0.0, second.service_start - 60.0)


def _random_adjustment_free_case(rng):
    """Single-locker task list guaranteed to schedule without adjustments."""
    speed = 0.7
    count = int(rng.integers(1, 7))
    spaces = []
    tasks = []
    prev_leave = None
    prev_pos = Position(0.0, 0.0)
    prev_e = 0.0
    for k in range(count):
        pos = Position(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
        service = float(rng.uniform(10, 30))
        spaces.append(make_space(k + 1, pos.x, pos.y, service_time=service))
        t_leg = travel_time(prev_pos, pos, speed)
        if prev_leave is None:
            e = float(rng.uniform(0, max(t_leg, 1e-6)))
        else:
            e = float(rng.uniform(prev_e, prev_leave + t_leg))
        members = tuple((cid, float(rng.uniform(0, e + 30)))
                        for cid in range(int(rng.integers(1, 4))))
        tasks.append(make_task(k + 1, a=1, demand=int(rng.integers(1, 4)),
                               window=(e, e + service), members=members))
        arrival = max(e, t_leg) if prev_leave is None else max(prev_leave + t_leg, e)
        start = max([arrival] + [p for _, p in members])
        prev_leave = start + service
        prev_pos = pos
        prev_e = e
    inst = make_instance(spaces, capacity=1e9, speed=speed, max_lockers=1)
    return inst, tasks


def _random_adjusted_case(rng):
    """Single-locker task list whose windows outlast the service time.

    Windows open at scattered times and stay open up to an hour past the
    service time, and demands fill a small capacity, so the scheduler meets
    holds, capacity detours, early detours and first visits that wait.
    """
    speed = float(rng.uniform(0.2, 1.0))
    count = int(rng.integers(1, 8))
    spaces = [make_space(k + 1, float(rng.uniform(-8, 8)), float(rng.uniform(-8, 8)),
                         service_time=float(rng.uniform(5, 25)))
              for k in range(int(rng.integers(1, 5)))]
    tasks = []
    for _ in range(count):
        sp = spaces[int(rng.integers(len(spaces)))]
        start = float(rng.uniform(0, 400))
        end = start + sp.service_time + float(rng.uniform(0, 60))
        members = tuple((cid, float(rng.uniform(0, start + 20)))
                        for cid in range(int(rng.integers(0, 3))))
        tasks.append(make_task(sp.id, demand=int(rng.integers(1, 7)),
                               window=(start, end), members=members))
    tasks.sort(key=lambda t: t.window.start)
    inst = make_instance(spaces, capacity=float(rng.choice([8.0, 12.0, 1e9])),
                         speed=speed, max_lockers=1)
    return inst, tasks


def _replay_recurrences(inst, tasks, policy):
    """Independent replay of a task list, adjustments included, on ``travel_time``.

    Returns one (arrival, service start, leave, load, adjustment, lateness)
    tuple per visit, the route's (depot departure, depot return, distance),
    and the reason each visit took its arrival.
    """
    speed, depot, capacity = inst.fleet.speed, inst.depot, inst.fleet.capacity
    visits, reasons = [], []
    prev_task = prev_leave = None
    prev_pos = depot
    load = distance = departure = 0.0
    for task in tasks:
        sp = inst.space_by_id(task.space_id)
        t_leg = travel_time(prev_pos, sp.position, speed)
        leg_km = prev_pos.distance_to(sp.position)
        adjustment = Adjustment.NONE
        if prev_leave is None:
            arrival = max(task.window.start, t_leg)
            departure = arrival - t_leg
            reasons.append("first-waits" if arrival > t_leg else "first")
        else:
            early = prev_leave + t_leg < task.window.start - 1e-9
            overflow = load + task.demand > capacity + 1e-9
            if (early and not overflow and policy is AdjustmentPolicy.HCPS
                    and prev_task.window.end + t_leg >= task.window.start):
                arrival = prev_task.window.end + t_leg
                adjustment = Adjustment.HCPS
                reasons.append("hold")
            elif overflow or early:
                arrival = (prev_leave + travel_time(prev_pos, depot, speed)
                           + travel_time(depot, sp.position, speed))
                leg_km = prev_pos.distance_to(depot) + depot.distance_to(sp.position)
                adjustment = Adjustment.BTD
                load = 0.0
                reasons.append("capacity" if overflow else "early")
            else:
                arrival = max(prev_leave + t_leg, task.window.start)
                reasons.append("plain")
        start = max([arrival, task.window.start] + [p for _, p in task.members])
        leave = start + sp.service_time
        load += task.demand
        distance += leg_km
        visits.append((arrival, start, leave, load, adjustment,
                       max(0.0, start - task.window.end)))
        prev_task, prev_leave, prev_pos = task, leave, sp.position
    distance += prev_pos.distance_to(depot)
    route = (departure, prev_leave + travel_time(prev_pos, depot, speed), distance)
    return visits, route, reasons


def _assert_replayed(route, inst, tasks, policy):
    visits, (departure, depot_return, distance), reasons = \
        _replay_recurrences(inst, tasks, policy)
    assert [(v.arrival, v.service_start, v.leave, v.load_after, v.adjustment, v.lateness)
            for v in route.visits] == visits
    assert route.depot_departure == departure
    assert route.depot_return == depot_return
    assert route.distance_km == distance
    return reasons


@pytest.mark.parametrize("policy", [AdjustmentPolicy.BTD, AdjustmentPolicy.HCPS])
def test_earliest_start_recurrence_matches_scheduler(policy):
    rng = np.random.default_rng(7)
    for _ in range(50):
        inst, tasks = _random_adjustment_free_case(rng)
        route = schedule_tasks(tasks, inst, policy)
        assert all(v.adjustment is Adjustment.NONE for v in route.visits)
        _assert_replayed(route, inst, tasks, policy)


@pytest.mark.parametrize("policy", [AdjustmentPolicy.BTD, AdjustmentPolicy.HCPS])
def test_adjusted_visits_match_independent_replay(policy):
    rng = np.random.default_rng(11)
    reasons = set()
    for _ in range(300):
        inst, tasks = _random_adjusted_case(rng)
        route = schedule_tasks(tasks, inst, policy)
        reasons.update(_assert_replayed(route, inst, tasks, policy))
    expected = {"first", "first-waits", "plain", "capacity", "early"}
    if policy is AdjustmentPolicy.HCPS:
        expected.add("hold")
    assert reasons == expected


# ---------------------------------------------------------------------------
# Reference scheduler
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _RefVisit:
    task_id: int
    arrival: float
    service_start: float
    leave: float
    load_after: float
    adjustment: Adjustment
    lateness: float


@dataclass(frozen=True)
class _RefRoute:
    visits: tuple
    depot_departure: float
    depot_return: float
    distance_km: float


def _reference_minutes(speed, noise):
    """The reference's leg timer: ``km / speed``, under noise times
    ``max(0, 1 + uniform(-sigma, sigma))`` drawn from its own ``Generator(seed)``."""
    if noise is None:
        return lambda km: km / speed
    rng = np.random.default_rng(noise.seed)
    return lambda km: km / speed * max(0.0, 1.0 + float(rng.uniform(-noise.sigma, noise.sigma)))


def _reference_schedule(tasks, task_ids, instance, policy, minutes):
    """The scheduler as it was before per-task visit data: ``space_by_id`` and
    ``distance_to`` at every visit, frozen-dataclass records, no memo, and
    each leg timed by ``minutes`` in leg order."""
    depot = instance.depot
    capacity = instance.fleet.capacity
    visits = []
    here = depot
    prev_window = None
    distance = load = leave = depot_departure = 0.0
    for task_id, task in zip(task_ids, tasks):
        sp = instance.space_by_id(task.space_id)
        window = task.window
        km = here.distance_to(sp.position)
        travel = minutes(km)
        arrival = max(leave + travel, window.start)
        adjustment = Adjustment.NONE
        if not visits:
            depot_departure = arrival - travel
        else:
            early = leave + travel < window.start - 1e-9
            overflow = load + task.demand > capacity + 1e-9
            if (early and not overflow and policy is AdjustmentPolicy.HCPS
                    and prev_window.end + travel >= window.start):
                arrival = prev_window.end + travel
                adjustment = Adjustment.HCPS
            elif early or overflow:
                to_depot, from_depot = here.distance_to(depot), depot.distance_to(sp.position)
                km = to_depot + from_depot
                arrival = leave + minutes(to_depot) + minutes(from_depot)
                adjustment = Adjustment.BTD
                load = 0.0
        service_start = max(arrival, task.ready)
        leave = service_start + sp.service_time
        load += task.demand
        distance += km
        visits.append(_RefVisit(
            task_id=task_id, arrival=arrival, service_start=service_start, leave=leave,
            load_after=load, adjustment=adjustment,
            lateness=max(0.0, service_start - window.end)))
        here, prev_window = sp.position, window
    km = here.distance_to(depot)
    return _RefRoute(visits=tuple(visits), depot_departure=depot_departure,
                     depot_return=leave + minutes(km), distance_km=distance + km)


def _reprs(route):
    """Every field of a route and of its visits, as ``repr`` strings."""
    visits = [[repr(getattr(v, f)) for f in VisitRecord._fields] for v in route.visits]
    return visits, [repr(getattr(route, f)) for f in LockerRoute._fields if f != "visits"]


def _reference_plan(state, pool, inst, policy, noise):
    """Each locker's reference route, dealt and timed as ``evaluate_solution`` does."""
    by_locker = {}
    for t in sorted(state.x2, key=pool.starts.__getitem__):
        by_locker.setdefault(state.x1[t], []).append(t)
    minutes = _reference_minutes(inst.fleet.speed, noise)
    return [_reference_schedule([pool.tasks[t] for t in by_locker[k]], by_locker[k], inst,
                                policy, minutes) for k in sorted(by_locker)]


@pytest.mark.parametrize("policy", [AdjustmentPolicy.BTD, AdjustmentPolicy.HCPS])
@pytest.mark.parametrize("sigma", [0.0, 0.3])
def test_scheduler_matches_the_reference_on_generated_pools(policy, sigma):
    rng = np.random.default_rng(31)
    pools = list(_generated_pools()) + [random_hold_pool(rng) for _ in range(12)]
    adjustments = set()
    for inst, pool in pools:
        n = len(pool)
        lockers = min(3, effective_locker_count(inst.fleet.max_lockers, n))
        noise = TravelNoise(sigma=sigma, seed=5) if sigma else None
        shared = RouteMemo(pool, inst, policy)  # noise-free: hits included
        for _ in range(8):
            state = make_state(rng.integers(0, lockers, size=n), rng.permutation(n))
            memo = RouteMemo(pool, inst, policy, noise) if noise else shared
            plan, _ = evaluate_solution(state, memo)
            want = _reference_plan(state, pool, inst, policy, noise)
            assert [_reprs(r) for r in plan.routes] == [_reprs(r) for r in want]
            adjustments.update(v.adjustment for r in want for v in r.visits)
    assert Adjustment.BTD in adjustments
    assert (Adjustment.HCPS in adjustments) is (policy is AdjustmentPolicy.HCPS)


# Cells of the generated pools whose starts are all distinct, seeds 0-5.
DISTINCT_START_CELLS = ((3, 5), (5, 5), (5, 10), (6, 10), (8, 15), (10, 5), (10, 20),
                        (20, 10), (40, 20))


def test_start_order_is_none_exactly_when_two_starts_are_equal():
    rng = np.random.default_rng(7)
    pools = [pool for _, pool in _generated_pools()]
    pools += [random_hold_pool(rng)[1] for _ in range(40)]
    tied = 0
    for pool in pools:
        starts = pool.starts
        if len(set(starts)) < len(starts):
            tied += 1
            assert pool.start_order is None
        else:
            assert pool.start_order == tuple(sorted(range(len(pool)), key=starts.__getitem__))
    assert tied >= 30 and len(pools) - tied > 24  # a hold pool without ties is met too
    for spaces, locations in DISTINCT_START_CELLS:
        for seed in range(6):
            inst = generate_instance(GeneratorConfig(num_spaces=spaces,
                                                     locations_per_space=locations, seed=seed))
            assert build_tasks(inst, assign_customers(inst)).start_order is not None


@pytest.mark.parametrize("policy", [AdjustmentPolicy.BTD, AdjustmentPolicy.HCPS])
def test_x2_orders_only_tied_starts(policy):
    rng = np.random.default_rng(23)
    # without tied starts, x2 changes no plan (the scheduler test above checks that plan)
    for inst, pool in _generated_pools():
        n = len(pool)
        lockers = min(3, effective_locker_count(inst.fleet.max_lockers, n))
        for _ in range(6):
            x1 = rng.integers(0, lockers, size=n)
            first = evaluate(make_state(x1, rng.permutation(n)), pool, inst, policy)
            for _ in range(3):
                state = make_state(x1, rng.permutation(n))
                assert evaluate(state, pool, inst, policy) == first
    # with tied starts, x2 still orders them: plans match the sorted decode and move with x2
    tied = moved = 0
    for _ in range(30):
        inst, pool = random_hold_pool(rng)
        if pool.start_order is not None:
            continue
        tied += 1
        n = len(pool)
        memo = RouteMemo(pool, inst, policy)
        for _ in range(6):
            x1 = rng.integers(0, 3, size=n)
            plans = []
            for _ in range(2):
                state = make_state(x1, rng.permutation(n))
                plan, _ = evaluate_solution(state, memo)
                want = _reference_plan(state, pool, inst, policy, None)
                assert [_reprs(r) for r in plan.routes] == [_reprs(r) for r in want]
                plans.append(plan)
            moved += plans[0] != plans[1]
    assert tied >= 15 and moved >= 20


@pytest.mark.parametrize("memo", [False, True])
def test_decode_schedules_each_dispatched_locker_once_in_id_order(monkeypatch, memo):
    # sparse locker ids leave empty slots, which dispatch nothing
    calls = []
    schedule = routing.schedule_route

    def recorded(route_memo, *, task_ids):
        calls.append(tuple(task_ids))
        return schedule(route_memo, task_ids=task_ids)

    monkeypatch.setattr(routing, "schedule_route", recorded)
    rng = np.random.default_rng(37)
    cases = list(_generated_pools())[::3] + [random_hold_pool(rng) for _ in range(8)]
    gaps = 0
    for inst, pool in cases:
        n = len(pool)
        shared = RouteMemo(pool, inst, AdjustmentPolicy.HCPS)
        for _ in range(6):
            lockers = effective_locker_count(inst.fleet.max_lockers, n)
            state = make_state(rng.integers(0, lockers, size=n), rng.permutation(n))
            calls.clear()
            plan, cost = evaluate_solution(
                state, shared if memo else RouteMemo(pool, inst, AdjustmentPolicy.HCPS))
            by_locker = {}
            for t in sorted(state.x2, key=pool.starts.__getitem__):
                by_locker.setdefault(state.x1[t], []).append(t)
            assert plan.lockers == tuple(sorted(by_locker))
            assert calls == [tuple(by_locker[k]) for k in sorted(by_locker)]
            assert cost == routing.compute_cost(len(by_locker), plan.total_distance, inst)
            gaps += len(by_locker) <= max(state.x1)
    assert gaps > 10


def _hand_built_routes():
    """(case, instance, tasks) of two-visit routes, each showing one case of the visit rule."""
    hold_spaces = [make_space(1, 1.0, 0.0, window=(0, 200), service_time=10.0),
                   make_space(2, 2.0, 0.0, window=(150, 350), service_time=10.0)]
    hold_tasks = [make_task(1, window=(0, 200)), make_task(2, window=(150, 350))]
    yield "hold", make_instance(hold_spaces, speed=1.0, max_lockers=1), hold_tasks
    early_spaces = [make_space(1, 1.0, 0.0, window=(0, 20), service_time=10.0),
                    make_space(2, -2.0, 3.0, window=(500, 600), service_time=10.0)]
    early_tasks = [make_task(1, window=(0, 20)), make_task(2, window=(500, 600))]
    yield "early", make_instance(early_spaces, speed=1.0, max_lockers=1), early_tasks
    capacity_spaces = [make_space(1, 1.0, 0.5, service_time=10.0),
                       make_space(2, 2.0, -1.5, service_time=10.0)]
    capacity_tasks = [make_task(1, demand=12, window=(0, 10)),
                      make_task(2, demand=12, window=(5, 30))]
    yield "capacity", make_instance(capacity_spaces, capacity=20.0, max_lockers=1), \
        capacity_tasks
    late_spaces = [make_space(1, 1.0, 0.0, window=(0, 10), service_time=10.0),
                   make_space(2, 1.0, 8.0, window=(10, 20), service_time=10.0)]
    late_tasks = [make_task(1, window=(0, 10), members=((0, 3.0),)),
                  make_task(2, window=(10, 20), members=((1, 12.5),))]
    yield "late", make_instance(late_spaces, speed=0.7, max_lockers=1), late_tasks


@pytest.mark.parametrize("sigma", [0.0, 0.4])
def test_scheduler_matches_the_reference_on_hand_built_routes(sigma):
    for case, inst, tasks in _hand_built_routes():
        for policy in AdjustmentPolicy:
            noise = TravelNoise(sigma=sigma, seed=3) if sigma else None
            route = schedule_tasks(tasks, inst, policy, noise=noise)
            want = _reference_schedule(tasks, range(len(tasks)), inst, policy,
                                       _reference_minutes(inst.fleet.speed, noise))
            assert _reprs(route) == _reprs(want)
            if sigma:
                continue
            second = route.visits[1]
            if case == "hold" and policy is AdjustmentPolicy.HCPS:
                assert second.adjustment is Adjustment.HCPS
            elif case in ("hold", "early"):  # arrives early, with room for the load
                assert second.adjustment is Adjustment.BTD and second.load_after == 1
            elif case == "capacity":  # on time, but the load overflows
                here, there = (inst.space_by_id(t.space_id).position for t in tasks)
                direct = route.visits[0].leave + travel_time(here, there, inst.fleet.speed)
                assert second.adjustment is Adjustment.BTD
                assert direct >= tasks[1].window.start
            else:
                assert second.adjustment is Adjustment.NONE and second.lateness > 0.0


def test_scheduler_matches_the_reference_on_random_adjusted_lists():
    rng = np.random.default_rng(13)
    for k in range(200):
        inst, tasks = _random_adjusted_case(rng)
        noise = TravelNoise(sigma=0.5, seed=k) if k % 2 else None
        for policy in AdjustmentPolicy:
            want = _reference_schedule(tasks, range(len(tasks)), inst, policy,
                                       _reference_minutes(inst.fleet.speed, noise))
            assert _reprs(schedule_tasks(tasks, inst, policy, noise=noise)) == _reprs(want)


# ---------------------------------------------------------------------------
# Solution evaluation
# ---------------------------------------------------------------------------


def _two_task_setup():
    spaces = [make_space(1, 1.0, 0.0, window=(0, 100), service_time=20.0),
              make_space(2, 0.0, 2.0, window=(100, 200), service_time=20.0)]
    inst = make_instance(spaces, max_lockers=2)
    pool = make_pool([make_task(1, window=(0, 20), members=((0, 0.0),)),
                      make_task(2, window=(100, 120), members=((1, 0.0),))])
    return inst, pool


def test_evaluate_partitions_by_allocation():
    inst, pool = _two_task_setup()
    plan, cost = evaluate(make_state([0, 1], [0, 1]), pool, inst, AdjustmentPolicy.HCPS)
    assert plan.lockers_dispatched == 2
    assert plan.lockers == (0, 1)
    assert plan.total_distance == pytest.approx(2.0 + 4.0)
    assert cost.objective == pytest.approx(5 * 2 + 6.0)


def test_evaluate_orders_by_priority_then_window_start():
    inst, pool = _two_task_setup()
    # Both tasks on one locker; x2 puts task 1 first, but window sort restores 0, 1.
    plan, _ = evaluate(make_state([0, 0], [1, 0]), pool, inst, AdjustmentPolicy.HCPS)
    assert [v.task_id for v in plan.routes[0].visits] == [0, 1]


def test_evaluate_x2_breaks_ties_between_equal_window_starts():
    spaces = [make_space(1, 1.0, 0.0, service_time=20.0),
              make_space(2, 0.0, 1.0, service_time=20.0)]
    inst = make_instance(spaces, max_lockers=2)
    pool = make_pool([make_task(1, window=(0, 20)), make_task(2, window=(0, 20))])
    plan, _ = evaluate(make_state([0, 0], [1, 0]), pool, inst, AdjustmentPolicy.HCPS)
    assert [v.task_id for v in plan.routes[0].visits] == [1, 0]


def test_evaluate_rejects_malformed_states():
    inst, pool = _two_task_setup()
    for state in (make_state([0], [0]), make_state([0, 99], [0, 1]), make_state([0, 0], [0, 0])):
        with pytest.raises(ShapeError):
            validate_state(state, len(pool), inst.fleet.max_lockers)


def test_reward_objective_reciprocal():
    inst, pool = _two_task_setup()
    for x1 in ([0, 0], [0, 1], [1, 1]):
        _, cost = evaluate(make_state(x1, [0, 1]), pool, inst, AdjustmentPolicy.BTD)
        assert cost.reward * cost.objective == pytest.approx(1.0, rel=1e-12)


def test_total_distance_matches_independent_recompute():
    inst, pool = _two_task_setup()
    plan, _ = evaluate(make_state([0, 0], [0, 1]), pool, inst, AdjustmentPolicy.HCPS)
    total = 0.0
    for route in plan.routes:
        prev = inst.depot
        for v in route.visits:
            sp = inst.space_by_id(pool.tasks[v.task_id].space_id)
            if v.adjustment is Adjustment.BTD:
                total += prev.distance_to(inst.depot) + inst.depot.distance_to(sp.position)
            else:
                total += prev.distance_to(sp.position)
            prev = sp.position
        total += prev.distance_to(inst.depot)
    assert plan.total_distance == pytest.approx(total, rel=1e-12)


def test_load_never_exceeds_capacity_after_adjustment():
    spaces = [make_space(k, float(k), 0.0, service_time=5.0) for k in range(1, 6)]
    inst = make_instance(spaces, capacity=10.0, max_lockers=1)
    pool = make_pool([make_task(k, window=(10.0 * k, 10.0 * k + 5.0), demand=6)
                      for k in range(1, 6)])
    plan, _ = evaluate(make_state([0] * 5, list(range(5))), pool, inst, AdjustmentPolicy.BTD)
    for v in plan.routes[0].visits:
        assert v.load_after <= 10.0


def test_table_reward_values():
    # 9 lockers serving one wide-open task each; legs tuned to reference totals
    for distance, printed in ((115.196, 6.242e-3), (103.842, 6.719e-3)):
        d = distance / 18.0
        spaces = [make_space(k, d, 0.0, service_time=5.0) for k in range(1, 10)]
        inst = make_instance(spaces, max_lockers=9)
        pool = make_pool([make_task(k, window=(0, 1440)) for k in range(1, 10)])
        plan, cost = evaluate(make_state(list(range(9)), list(range(9))),
                              pool, inst, AdjustmentPolicy.HCPS)
        assert plan.lockers_dispatched == 9
        assert plan.total_distance == pytest.approx(distance)
        assert abs(cost.reward - printed) <= 2e-6


def test_travel_noise_is_seeded_and_leaves_cost_geometric():
    inst, pool = _two_task_setup()
    state = make_state([0, 0], [0, 1])
    base, base_cost = evaluate(state, pool, inst, AdjustmentPolicy.HCPS)
    noisy1, cost1 = evaluate(state, pool, inst, AdjustmentPolicy.HCPS,
                             noise=TravelNoise(sigma=0.5, seed=9))
    noisy2, _ = evaluate(state, pool, inst, AdjustmentPolicy.HCPS,
                         noise=TravelNoise(sigma=0.5, seed=9))
    assert noisy1 == noisy2
    assert noisy1.total_distance == base.total_distance  # cost is geometric
    assert cost1.reward == base_cost.reward
    assert noisy1.routes[0].visits[0].arrival != base.routes[0].visits[0].arrival


# ---------------------------------------------------------------------------
# Route memo
# ---------------------------------------------------------------------------


def _next_state(rng, states, n, lockers):
    """A fresh random state, or an earlier one with one task moved or its lockers relabelled."""
    kind = int(rng.integers(3)) if states else 0
    if kind == 0:
        return make_state(rng.integers(0, lockers, size=n), rng.permutation(n))
    base = states[int(rng.integers(len(states)))]
    x1 = list(base.x1)
    if kind == 1:
        x1[int(rng.integers(n))] = rng.integers(lockers)
    else:
        x1 = rng.permutation(lockers)[x1]
    return make_state(x1, base.x2)


@pytest.mark.parametrize("policy", [AdjustmentPolicy.BTD, AdjustmentPolicy.HCPS])
def test_route_memo_returns_the_memo_free_plan(policy):
    rng = np.random.default_rng(17)
    generated = list(_generated_pools())
    cases = [(inst, pool, 12) for inst, pool in generated]
    cases += [(*random_hold_pool(rng), 12) for _ in range(24)]
    # The largest pool schedules enough distinct routes to pass the memo's bound.
    cases.append((*max(generated, key=lambda case: len(case[1])), 800))
    evaluations = relabelled = evictions = 0
    orders: dict = {}
    for inst, pool, count in cases:
        n = len(pool)
        lockers = min(4, effective_locker_count(inst.fleet.max_lockers, n))
        memo = RouteMemo(pool, inst, policy)
        drivers: dict = {}  # route key -> the locker that last drove it
        states: list = []
        for _ in range(count):
            state = _next_state(rng, states, n, lockers)
            states.append(state)
            before = dict(memo.routes)
            got = evaluate_solution(state, memo)
            assert got == evaluate(state, pool, inst, policy)
            evaluations += 1
            assert len(memo.routes) <= _ROUTE_MEMO_LIMIT
            evicted = sum(memo.routes.get(key) is not route for key, route in before.items())
            evictions += evicted
            for locker, route in zip(got[0].lockers, got[0].routes):
                key = tuple(v.task_id for v in route.visits)
                if key in before and not evicted:
                    # a route names no locker: a hit under another locker is
                    # the stored route itself
                    assert route is before[key]
                    relabelled += drivers[key] != locker
                drivers[key] = locker
                orders.setdefault((id(pool), frozenset(key)), set()).add(key)
    assert evaluations >= 300
    assert relabelled > 0 and evictions > 0
    # Some task set was scheduled in two orders, so a key that ignored the
    # order would have returned a wrong route.
    assert any(len(keys) > 1 for keys in orders.values())


def test_route_memo_evicts_the_least_recently_used_route(monkeypatch):
    monkeypatch.setattr(routing, "_ROUTE_MEMO_LIMIT", 4)
    spaces = [make_space(k + 1, float(k), 1.0) for k in range(6)]
    inst = make_instance(spaces)
    tasks = [make_task(k + 1, window=(60.0 * k, 60.0 * k + 30.0)) for k in range(6)]

    memo = RouteMemo(make_pool(tasks), inst, AdjustmentPolicy.BTD)

    def schedule(ids):
        return schedule_route(memo, task_ids=ids)

    keys = [(k,) for k in range(6)]
    routes = {key: schedule(list(key)) for key in keys[:4]}
    assert list(memo.routes) == keys[:4]
    # Hit the oldest route just before the bound: it becomes the most recent.
    assert schedule([0]) is routes[(0,)]
    schedule([4])
    assert len(memo.routes) == 4 and list(memo.routes) == [(2,), (3,), (0,), (4,)]
    assert schedule([0]) is routes[(0,)]  # survived the eviction of (1,)
    for key in keys:
        schedule(list(key))
        assert len(memo.routes) == 4
    assert schedule([1]) == routes[(1,)]  # an evicted route is scheduled again, equal


def test_a_noisy_memo_draws_go_on_from_call_to_call():
    # a noisy memo's draws continue from one evaluation to the next; a fresh
    # memo per call scores a state as the first call on a shared one did
    inst, pool = _two_task_setup()
    state, noise = make_state([0, 0], [0, 1]), TravelNoise(sigma=0.5, seed=9)
    shared = RouteMemo(pool, inst, AdjustmentPolicy.HCPS, noise)
    first, second = evaluate_solution(state, shared), evaluate_solution(state, shared)
    assert first != second
    assert evaluate(state, pool, inst, AdjustmentPolicy.HCPS, noise) == first
    assert evaluate(state, pool, inst, AdjustmentPolicy.HCPS, noise) == first


def test_a_noisy_route_memo_caches_no_route():
    inst, pool = _two_task_setup()
    memo = RouteMemo(pool, inst, AdjustmentPolicy.HCPS, TravelNoise(sigma=0.5, seed=9))
    first = schedule_route(memo, task_ids=[0, 1])
    second = schedule_route(memo, task_ids=[0, 1])
    assert memo.routes is None
    assert second is not first and second != first  # the second draws new factors
    assert second.distance_km == first.distance_km


@pytest.mark.parametrize("policy", [AdjustmentPolicy.BTD, AdjustmentPolicy.HCPS])
def test_a_built_memo_measures_no_leg(monkeypatch, policy):
    # every leg, the depot legs of detours and returns included, comes from
    # the tables the memo built: scheduling calls no hypot
    rng = np.random.default_rng(43)
    cases = [_random_adjusted_case(rng) for _ in range(80)]
    memos = [RouteMemo(make_pool(tasks), inst, policy) for inst, tasks in cases]
    want = [_reference_schedule(tasks, range(len(tasks)), inst, policy,
                                _reference_minutes(inst.fleet.speed, None))
            for inst, tasks in cases]

    def refuse(*args):
        raise AssertionError("a leg was measured after the memo was built")

    monkeypatch.setattr(routing.math, "hypot", refuse)
    adjustments = set()
    for memo, route in zip(memos, want):
        got = schedule_route(memo, task_ids=list(range(len(memo.pool))))
        assert _reprs(got) == _reprs(route)
        adjustments |= {v.adjustment for v in got.visits}
    assert Adjustment.BTD in adjustments
    assert (Adjustment.HCPS in adjustments) is (policy is AdjustmentPolicy.HCPS)


def test_a_noisy_memo_draws_one_factor_per_leg():
    # each visit's direct leg, each detour's two depot legs and the return
    rng = np.random.default_rng(47)
    detours = 0
    for k in range(100):
        inst, tasks = _random_adjusted_case(rng)
        for policy in AdjustmentPolicy:
            memo = RouteMemo(make_pool(tasks), inst, policy, TravelNoise(sigma=0.5, seed=k))
            factors = []

            def counted(draw=memo.draw):
                factors.append(draw())
                return factors[-1]

            memo.draw = counted
            route = schedule_route(memo, task_ids=list(range(len(tasks))))
            btd = sum(v.adjustment is Adjustment.BTD for v in route.visits)
            assert len(factors) == len(route.visits) + 2 * btd + 1
            detours += btd
    assert detours > 0


@pytest.mark.parametrize("policy", [AdjustmentPolicy.BTD, AdjustmentPolicy.HCPS])
def test_zero_sigma_noise_plans_the_noise_free_bits(policy):
    rng = np.random.default_rng(41)
    for inst, pool in [random_hold_pool(rng) for _ in range(12)]:
        n = len(pool)
        memo = RouteMemo(pool, inst, policy, TravelNoise(sigma=0.0, seed=3))
        assert memo.draw is None and memo.routes == {}
        for _ in range(4):
            state = make_state(rng.integers(0, 3, size=n), rng.permutation(n))
            plan, cost = evaluate(state, pool, inst, policy,
                                  noise=TravelNoise(sigma=0.0, seed=3))
            want, want_cost = evaluate(state, pool, inst, policy)
            assert [_reprs(r) for r in plan.routes] == [_reprs(r) for r in want.routes]
            assert repr(cost) == repr(want_cost)


def _rebuilt_route(route):
    """``route`` built anew through the class constructors, from the same fields."""
    return LockerRoute(tuple(VisitRecord(*v) for v in route.visits), *route[1:])


def _assert_built_as_by_the_class(got, rebuilt):
    assert got._asdict() == rebuilt._asdict()
    assert got == rebuilt and hash(got) == hash(rebuilt)


@pytest.mark.parametrize("policy", [AdjustmentPolicy.BTD, AdjustmentPolicy.HCPS])
@pytest.mark.parametrize("sigma", [0.0, 0.3])
def test_the_hot_path_returns_real_records(policy, sigma):
    # routing builds its records with tuple.__new__: they must be the class's
    # own records, on memo hits and misses, with and without travel noise
    rng = np.random.default_rng(59)
    noise = TravelNoise(sigma=sigma, seed=5) if sigma else None
    hits = 0
    adjustments = set()
    for inst, pool in [random_hold_pool(rng) for _ in range(16)]:
        n = len(pool)
        memo = RouteMemo(pool, inst, policy, noise)
        for _ in range(6):
            state = make_state(rng.integers(0, 3, size=n), rng.permutation(n))
            plan, cost = evaluate(state, pool, inst, policy, noise=noise)
            assert type(plan) is RoutePlan and type(cost) is CostBreakdown
            _assert_built_as_by_the_class(plan, RoutePlan(
                plan.lockers, tuple(map(_rebuilt_route, plan.routes)), plan.total_distance))
            _assert_built_as_by_the_class(cost, CostBreakdown(*cost))
            for route in plan.routes:
                # twice: the second call is a hit on a noise-free memo
                for task_ids in [[v.task_id for v in route.visits]] * 2:
                    cached = memo.routes is not None and tuple(task_ids) in memo.routes
                    hits += cached
                    got = schedule_route(memo, task_ids=task_ids)
                    assert type(got) is LockerRoute
                    assert all(type(v) is VisitRecord for v in got.visits)
                    _assert_built_as_by_the_class(got, _rebuilt_route(got))
                    for v in got.visits:
                        _assert_built_as_by_the_class(v, VisitRecord(*v))
                        adjustments.add(v.adjustment)
    assert (hits > 0) is (noise is None)
    assert adjustments == ({Adjustment.NONE, Adjustment.BTD} if policy is AdjustmentPolicy.BTD
                           else set(Adjustment))


@pytest.mark.parametrize("speed", [0.0, -0.7, math.nan])
def test_evaluate_refuses_a_speed_that_is_not_positive(speed):
    _, pool = _two_task_setup()
    spaces = [make_space(1, 1.0, 0.0), make_space(2, 0.0, 2.0)]
    inst = make_instance(spaces, max_lockers=2, speed=speed)
    with pytest.raises(ParameterError, match="speed"):
        RouteMemo(pool, inst, AdjustmentPolicy.BTD)


# ---------------------------------------------------------------------------
# Delay and feasibility
# ---------------------------------------------------------------------------


def _plan_with_lateness(values):
    visits = tuple(
        VisitRecord(task_id=k, arrival=0.0, service_start=0.0, leave=1.0,
                    load_after=0.0, adjustment=Adjustment.NONE, lateness=v)
        for k, v in enumerate(values))
    route = LockerRoute(visits=visits, depot_departure=0.0, depot_return=1.0,
                        distance_km=0.0)
    return RoutePlan(lockers=(0,), routes=(route,), total_distance=0.0)


def test_compute_delay_zero_when_on_time():
    assert compute_delay(_plan_with_lateness([0.0, 0.0])) == (0.0, 0.0)


def test_compute_delay_single_late_visit():
    assert compute_delay(_plan_with_lateness([10.0])) == (10.0, 10.0)


def test_compute_delay_average():
    assert compute_delay(_plan_with_lateness([0.0, 10.0])) == (10.0, 5.0)


def test_compute_delay_empty_plan():
    plan = RoutePlan(lockers=(), routes=(), total_distance=0.0)
    assert compute_delay(plan) == (0.0, 0.0)


def test_compute_delay_adds_left_to_right():
    # A compensated sum (math.fsum, and sum() from Python 3.12 on) gives 1.0.
    lateness = [0.1] * 10 + [1e-17] * 3
    assert math.fsum(lateness) == 1.0
    assert compute_delay(_plan_with_lateness(lateness)) == (0.9999999999999999,
                                                            0.9999999999999999 / 13)


def test_feasibility_clean_plan():
    inst, pool = _two_task_setup()
    state = make_state([0, 1], [0, 1])
    plan, _ = evaluate(state, pool, inst, AdjustmentPolicy.HCPS)
    assert check_feasibility(plan, state, pool, inst).ok


def test_feasibility_flags_capacity_violation():
    sp = make_space(1, 1.0, 0.0, window=(0, 100), service_time=20.0)
    inst = make_instance([sp], capacity=20.0, max_lockers=1)
    pool = make_pool([make_task(1, demand=21, window=(0, 20))])
    state = make_state([0], [0])
    plan, _ = evaluate(state, pool, inst, AdjustmentPolicy.BTD)
    report = check_feasibility(plan, state, pool, inst)
    assert any(v.constraint == "6" and v.severity == "hard" for v in report.violations)


def test_feasibility_flags_duplicate_sequence_entries():
    inst, pool = _two_task_setup()
    state = make_state([0, 1], [0, 1])
    plan, _ = evaluate(state, pool, inst, AdjustmentPolicy.HCPS)
    bad = make_state([0, 1], [0, 0])  # task 0 twice, task 1 missing
    report = check_feasibility(plan, bad, pool, inst)
    assert any(v.constraint == "2-3" for v in report.violations)


def test_feasibility_reports_malformed_state_once():
    inst, pool = _two_task_setup()
    state = make_state([0, 1], [0, 1])
    plan, _ = evaluate(state, pool, inst, AdjustmentPolicy.HCPS)
    for bad in (make_state([0], [0]), make_state([0, 99], [0, 1])):
        report = check_feasibility(plan, bad, pool, inst)
        assert [(v.constraint, v.entity, v.severity) for v in report.violations] \
            == [("2-3", "state", "hard")]


def test_feasibility_soft_lateness_matches_recorded():
    spaces = [make_space(1, 1.0, 0.0, window=(0, 10), service_time=10.0),
              make_space(2, 1.0, 8.0, window=(10, 20), service_time=10.0)]
    inst = make_instance(spaces, speed=0.7, max_lockers=1)
    pool = make_pool([make_task(1, window=(0, 10)), make_task(2, window=(10, 20))])
    state = make_state([0, 0], [0, 1])
    plan, _ = evaluate(state, pool, inst, AdjustmentPolicy.HCPS)
    assert compute_delay(plan)[0] > 0
    report = check_feasibility(plan, state, pool, inst)
    assert not report.hard()
    recorded = {v.task_id: v.lateness for v in plan.all_visits() if v.lateness > 0}
    reported = {int(v.entity.split()[-1]): v.lateness for v in report.soft()}
    assert reported == recorded


def test_plan_csv_export(tmp_path):
    inst, pool = _two_task_setup()
    state = make_state([0, 0], [0, 1])
    plan, _ = evaluate(state, pool, inst, AdjustmentPolicy.BTD)
    path = tmp_path / "plan.csv"
    write_plan_csv(plan, pool, path, header_comment="config test")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "# config test"
    assert lines[1].startswith("locker_id,leg_index,from_node,to_node")
    legs = [ln.split(",") for ln in lines[2:]]
    # the early arrival at space 2 detours via the depot on a leg of its own
    assert [(f[0], f[1], f[2], f[3], f[8]) for f in legs] == [
        ("0", "0", "0", "1", "none"), ("0", "1", "1", "0", "btd"),
        ("0", "2", "0", "2", "btd"), ("0", "3", "2", "0", "none")]
    # each locker's legs count from 0
    plan, _ = evaluate(make_state([0, 1], [0, 1]), pool, inst, AdjustmentPolicy.BTD)
    write_plan_csv(plan, pool, path)
    assert [ln.split(",")[:4] for ln in path.read_text().splitlines()[1:]] == [
        ["0", "0", "0", "1"], ["0", "1", "1", "0"], ["1", "0", "0", "2"], ["1", "1", "2", "0"]]
