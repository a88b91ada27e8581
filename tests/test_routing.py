import numpy as np
import pytest

from mplq.errors import ParameterError, ShapeError
from mplq.instance import Position, TimeWindow
from mplq.routing import (Adjustment, AdjustmentPolicy, LockerRoute, RoutePlan,
                          TravelNoise, VisitRecord, apply_btd, apply_hcps,
                          check_feasibility, compute_delay, earliest_schedule,
                          evaluate_solution, schedule_route, travel_time,
                          write_plan_csv)
from helpers import make_instance, make_pool, make_space, make_state, make_task


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


def test_earliest_schedule_first_visit_waits_for_window():
    arrival, _, _ = earliest_schedule(None, 30.0, TimeWindow(600, 660), [], 30.0)
    assert arrival == 600.0


def test_earliest_schedule_leave_waits_for_pickup():
    _, start, leave = earliest_schedule(None, 600.0, TimeWindow(600, 660), [610.0], 30.0)
    assert start == 610.0 and leave == 640.0


def test_earliest_schedule_subsequent_visit():
    arrival, _, _ = earliest_schedule(640.0, 50.0, TimeWindow(660, 720), [], 30.0)
    assert arrival == 690.0


def test_apply_btd_sums_detour():
    assert apply_btd(700.0, 30.0, 10.0, 15.0) == 755.0


def test_apply_btd_identity_with_zero_legs():
    assert apply_btd(700.0, 0.0, 0.0, 0.0) == 700.0


def test_apply_btd_never_decreases_arrival():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, s, t0, t1 = rng.uniform(0, 500, size=4)
        assert apply_btd(a, s, t0, t1) >= a


def test_apply_hcps_is_window_end_plus_travel():
    assert apply_hcps(760.0, 20.0) == 780.0
    assert apply_hcps(760.0, 0.0) == 760.0


# ---------------------------------------------------------------------------
# Route scheduling
# ---------------------------------------------------------------------------


def test_schedule_empty_list_not_dispatched():
    inst = make_instance([make_space(1, 1.0, 0.0)])
    assert schedule_route([], inst, AdjustmentPolicy.BTD) is None


def test_single_task_route_cost():
    # depot (0,0), one wide-open task at a space at (3,4): 10 km round trip
    sp = make_space(1, 3.0, 4.0, window=(0, 1440), service_time=30.0)
    inst = make_instance([sp], max_lockers=1)
    pool = make_pool([make_task(1, window=(0, 1440), members=((0, 0.0),))])
    state = make_state([0], [0])
    plan, cost = evaluate_solution(state, pool, inst, AdjustmentPolicy.BTD)
    assert plan.lockers_dispatched == 1
    assert plan.total_distance == pytest.approx(10.0)
    assert cost.objective == pytest.approx(15.0)
    assert cost.reward == pytest.approx(1 / 15.0)


def test_zero_distance_route_pays_fleet_cost_only():
    sp = make_space(1, 0.0, 0.0, window=(0, 1440), service_time=30.0)
    inst = make_instance([sp], max_lockers=1)
    pool = make_pool([make_task(1, window=(0, 1440))])
    plan, cost = evaluate_solution(make_state([0], [0]), pool, inst,
                                   AdjustmentPolicy.HCPS)
    assert plan.total_distance == 0.0
    assert cost.objective == pytest.approx(5.0)
    assert cost.reward == pytest.approx(0.2)


def test_capacity_overflow_forces_depot_return():
    spaces = [make_space(1, 1.0, 0.0, service_time=10.0),
              make_space(2, 2.0, 0.0, service_time=10.0)]
    inst = make_instance(spaces, capacity=20.0, max_lockers=1)
    tasks = [make_task(1, demand=12, window=(0, 10)),
             make_task(2, demand=12, window=(20, 30))]
    route = schedule_route(tasks, inst, AdjustmentPolicy.HCPS, timer=None,
                           task_ids=[0, 1])
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

    hold = schedule_route(tasks, inst, AdjustmentPolicy.HCPS, task_ids=[0, 1])
    assert hold.visits[1].adjustment is Adjustment.HCPS
    assert hold.visits[1].arrival == pytest.approx(200.0 + 1.0)  # window end + travel

    detour = schedule_route(tasks, inst, AdjustmentPolicy.BTD, task_ids=[0, 1])
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
    route = schedule_route(tasks, inst, AdjustmentPolicy.HCPS, task_ids=[0, 1])
    second = route.visits[1]
    assert second.adjustment is Adjustment.BTD
    assert second.service_start == pytest.approx(500.0)
    assert second.arrival <= second.service_start


def test_lateness_recorded_when_service_starts_after_window_end():
    spaces = [make_space(1, 1.0, 0.0, window=(0, 30), service_time=30.0),
              make_space(2, 1.0, 7.0, window=(30, 60), service_time=30.0)]
    inst = make_instance(spaces, speed=0.7, max_lockers=1)
    tasks = [make_task(1, window=(0, 30)), make_task(2, window=(30, 60))]
    route = schedule_route(tasks, inst, AdjustmentPolicy.HCPS, task_ids=[0, 1])
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


def _replay_recurrences(inst, tasks):
    """Independent earliest-start replay of a task list."""
    speed = inst.fleet.speed
    out = []
    prev_leave = None
    prev_pos = inst.depot
    for task in tasks:
        sp = inst.space_by_id(task.space_id)
        t_leg = travel_time(prev_pos, sp.position, speed)
        if prev_leave is None:
            arrival = max(task.window.start, t_leg)
        else:
            arrival = max(prev_leave + t_leg, task.window.start)
        pickups = [p for _, p in task.members]
        start = max(arrival, max(pickups)) if pickups else arrival
        leave = start + sp.service_time
        out.append((arrival, leave))
        prev_leave = leave
        prev_pos = sp.position
    return out


@pytest.mark.parametrize("policy", [AdjustmentPolicy.BTD, AdjustmentPolicy.HCPS])
def test_earliest_start_recurrence_matches_scheduler(policy):
    rng = np.random.default_rng(7)
    for _ in range(50):
        inst, tasks = _random_adjustment_free_case(rng)
        route = schedule_route(tasks, inst, policy, task_ids=list(range(len(tasks))))
        assert all(v.adjustment is Adjustment.NONE for v in route.visits)
        expected = _replay_recurrences(inst, tasks)
        for v, (arrival, leave) in zip(route.visits, expected):
            assert v.arrival == arrival
            assert v.leave == leave


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
    plan, cost = evaluate_solution(make_state([0, 1], [0, 1]), pool, inst,
                                   AdjustmentPolicy.HCPS)
    assert plan.lockers_dispatched == 2
    assert [r.locker_id for r in plan.routes] == [0, 1]
    assert plan.total_distance == pytest.approx(2.0 + 4.0)
    assert cost.objective == pytest.approx(5 * 2 + 6.0)


def test_evaluate_orders_by_priority_then_window_start():
    inst, pool = _two_task_setup()
    # Both tasks on one locker; x2 puts task 1 first, but window sort restores 0, 1.
    plan, _ = evaluate_solution(make_state([0, 0], [1, 0]), pool, inst,
                                AdjustmentPolicy.HCPS)
    assert [v.task_id for v in plan.routes[0].visits] == [0, 1]


def test_evaluate_x2_breaks_ties_between_equal_window_starts():
    spaces = [make_space(1, 1.0, 0.0, service_time=20.0),
              make_space(2, 0.0, 1.0, service_time=20.0)]
    inst = make_instance(spaces, max_lockers=2)
    pool = make_pool([make_task(1, window=(0, 20)), make_task(2, window=(0, 20))])
    plan, _ = evaluate_solution(make_state([0, 0], [1, 0]), pool, inst,
                                AdjustmentPolicy.HCPS)
    assert [v.task_id for v in plan.routes[0].visits] == [1, 0]


def test_evaluate_rejects_malformed_states():
    inst, pool = _two_task_setup()
    with pytest.raises(ShapeError):
        evaluate_solution(make_state([0], [0]), pool, inst, AdjustmentPolicy.BTD)
    with pytest.raises(ShapeError):
        evaluate_solution(make_state([0, 99], [0, 1]), pool, inst, AdjustmentPolicy.BTD)
    with pytest.raises(ShapeError):
        evaluate_solution(make_state([0, 0], [0, 0]), pool, inst, AdjustmentPolicy.BTD)


def test_reward_objective_reciprocal():
    inst, pool = _two_task_setup()
    for x1 in ([0, 0], [0, 1], [1, 1]):
        _, cost = evaluate_solution(make_state(x1, [0, 1]), pool, inst,
                                    AdjustmentPolicy.BTD)
        assert cost.reward * cost.objective == pytest.approx(1.0, rel=1e-12)


def test_total_distance_matches_independent_recompute():
    inst, pool = _two_task_setup()
    plan, _ = evaluate_solution(make_state([0, 0], [0, 1]), pool, inst,
                                AdjustmentPolicy.HCPS)
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
    plan, _ = evaluate_solution(make_state([0] * 5, list(range(5))), pool, inst,
                                AdjustmentPolicy.BTD)
    for v in plan.routes[0].visits:
        assert v.load_after <= 10.0


def test_table_reward_values():
    # 9 lockers serving one wide-open task each; legs tuned to reference totals
    for distance, printed in ((115.196, 6.242e-3), (103.842, 6.719e-3)):
        d = distance / 18.0
        spaces = [make_space(k, d, 0.0, service_time=5.0) for k in range(1, 10)]
        inst = make_instance(spaces, max_lockers=9)
        pool = make_pool([make_task(k, window=(0, 1440)) for k in range(1, 10)])
        plan, cost = evaluate_solution(make_state(list(range(9)), list(range(9))),
                                       pool, inst, AdjustmentPolicy.HCPS)
        assert plan.lockers_dispatched == 9
        assert plan.total_distance == pytest.approx(distance)
        assert abs(cost.reward - printed) <= 2e-6


def test_travel_noise_is_seeded_and_leaves_cost_geometric():
    inst, pool = _two_task_setup()
    state = make_state([0, 0], [0, 1])
    base, base_cost = evaluate_solution(state, pool, inst, AdjustmentPolicy.HCPS)
    noisy1, cost1 = evaluate_solution(state, pool, inst, AdjustmentPolicy.HCPS,
                                      noise=TravelNoise(sigma=0.5, seed=9))
    noisy2, _ = evaluate_solution(state, pool, inst, AdjustmentPolicy.HCPS,
                                  noise=TravelNoise(sigma=0.5, seed=9))
    assert noisy1 == noisy2
    assert noisy1.total_distance == base.total_distance  # cost is geometric
    assert cost1.reward == base_cost.reward
    assert noisy1.routes[0].visits[0].arrival != base.routes[0].visits[0].arrival


# ---------------------------------------------------------------------------
# Delay and feasibility
# ---------------------------------------------------------------------------


def _plan_with_lateness(values):
    visits = tuple(
        VisitRecord(task_id=k, arrival=0.0, service_start=0.0, leave=1.0,
                    load_after=0.0, adjustment=Adjustment.NONE, lateness=v)
        for k, v in enumerate(values))
    route = LockerRoute(locker_id=0, visits=visits, depot_departure=0.0,
                        depot_return=1.0, distance_km=0.0)
    return RoutePlan(routes=(route,), total_distance=0.0, lockers_dispatched=1,
                     total_lateness=sum(values),
                     average_lateness=sum(values) / len(values) if values else 0.0)


def test_compute_delay_zero_when_on_time():
    assert compute_delay(_plan_with_lateness([0.0, 0.0])) == (0.0, 0.0)


def test_compute_delay_single_late_visit():
    assert compute_delay(_plan_with_lateness([10.0])) == (10.0, 10.0)


def test_compute_delay_average():
    assert compute_delay(_plan_with_lateness([0.0, 10.0])) == (10.0, 5.0)


def test_compute_delay_empty_plan():
    plan = RoutePlan(routes=(), total_distance=0.0, lockers_dispatched=0,
                     total_lateness=0.0, average_lateness=0.0)
    assert compute_delay(plan) == (0.0, 0.0)


def test_feasibility_clean_plan():
    inst, pool = _two_task_setup()
    state = make_state([0, 1], [0, 1])
    plan, _ = evaluate_solution(state, pool, inst, AdjustmentPolicy.HCPS)
    assert check_feasibility(plan, state, pool, inst).ok


def test_feasibility_flags_capacity_violation():
    sp = make_space(1, 1.0, 0.0, window=(0, 100), service_time=20.0)
    inst = make_instance([sp], capacity=20.0, max_lockers=1)
    pool = make_pool([make_task(1, demand=21, window=(0, 20))])
    state = make_state([0], [0])
    plan, _ = evaluate_solution(state, pool, inst, AdjustmentPolicy.BTD)
    report = check_feasibility(plan, state, pool, inst)
    assert any(v.constraint == "6" and v.severity == "hard" for v in report.violations)


def test_feasibility_flags_duplicate_sequence_entries():
    inst, pool = _two_task_setup()
    state = make_state([0, 1], [0, 1])
    plan, _ = evaluate_solution(state, pool, inst, AdjustmentPolicy.HCPS)
    bad = make_state([0, 1], [0, 0])  # task 0 twice, task 1 missing
    report = check_feasibility(plan, bad, pool, inst)
    assert any(v.constraint == "2-3" for v in report.violations)


def test_feasibility_reports_malformed_state_once():
    inst, pool = _two_task_setup()
    state = make_state([0, 1], [0, 1])
    plan, _ = evaluate_solution(state, pool, inst, AdjustmentPolicy.HCPS)
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
    plan, _ = evaluate_solution(state, pool, inst, AdjustmentPolicy.HCPS)
    assert plan.total_lateness > 0
    report = check_feasibility(plan, state, pool, inst)
    assert not report.hard()
    recorded = {v.task_id: v.lateness for v in plan.all_visits() if v.lateness > 0}
    reported = {int(v.entity.split()[-1]): v.lateness for v in report.soft()}
    assert reported == recorded


def test_plan_csv_export(tmp_path):
    inst, pool = _two_task_setup()
    state = make_state([0, 0], [0, 1])
    plan, _ = evaluate_solution(state, pool, inst, AdjustmentPolicy.BTD)
    path = tmp_path / "plan.csv"
    write_plan_csv(plan, pool, path, header_comment="config test")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "# config test"
    assert lines[1].startswith("locker_id,leg_index,from_node,to_node")
    assert len(lines) > 3
