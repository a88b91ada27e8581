"""Acceptance suite: each criterion prints one PASS/FAIL line (run with -s to see all).

Heavy runs are shared through module-scoped fixtures: the tiny-instance
oracle-equivalence sweep and the 6-spaces x 10-locations replication cell feed
several criteria.
"""

import numpy as np
import pytest

from mplq.bench import improvement_rate, reward_gap
from mplq.cli import run_cli
from mplq.ga import run_ga
from mplq.hqm import QMatrices, has_converged, run_hqm, update_q
from mplq.instance import (GeneratorConfig, Position, assign_customers,
                           generate_instance)
from mplq.oracle import brute_force_best
from mplq.routing import Adjustment, AdjustmentPolicy, check_feasibility, compute_delay
from mplq.state import BudgetProfile
from mplq.taskgen import build_tasks
from helpers import (evaluate, make_instance, make_pool, make_space, make_state, make_task,
                     schedule_tasks, travel_time)

DESK_AGENTS = 20
DESK_TIMESTEPS_TINY = 1000
DESK_TIMESTEPS_CELL = 200


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")


# ---------------------------------------------------------------------------
# Shared heavy fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_suite():
    """50 tiny instances (<=2 spaces, <=4 tasks, <=2 lockers) solved three ways."""
    records = []
    seed = 0
    while len(records) < 50:
        cfg = GeneratorConfig(num_spaces=2, locations_per_space=3, max_lockers=2,
                              seed=seed)
        seed += 1
        instance = generate_instance(cfg)
        pool = build_tasks(instance, assign_customers(instance))
        if not (1 <= len(pool) <= 4):
            continue
        policy = AdjustmentPolicy.HCPS
        oracle_state, oracle_reward = brute_force_best(pool, instance, policy)
        budget = BudgetProfile(agents=DESK_AGENTS, iterations=DESK_TIMESTEPS_TINY)
        hqm_best, hqm_plan, hqm_hist = run_hqm(pool, instance, policy, budget, cfg.seed)
        ga_best, ga_plan, ga_hist = run_ga(pool, instance, policy, budget, cfg.seed)
        records.append(dict(
            instance=instance, pool=pool, policy=policy,
            oracle_state=oracle_state, oracle_reward=oracle_reward,
            hqm=(hqm_best, hqm_plan, hqm_hist), ga=(ga_best, ga_plan, ga_hist)))
    return records


@pytest.fixture(scope="module")
def cell_suite():
    """6 spaces x 10 locations, 20 seeded replications, both solvers x policies."""
    records = []
    budget = BudgetProfile(agents=DESK_AGENTS, iterations=DESK_TIMESTEPS_CELL)
    for rep in range(20):
        cfg = GeneratorConfig(num_spaces=6, locations_per_space=10, seed=rep)
        instance = generate_instance(cfg)
        pool = build_tasks(instance, assign_customers(instance))
        for policy in (AdjustmentPolicy.BTD, AdjustmentPolicy.HCPS):
            best, plan, hist = run_hqm(pool, instance, policy, budget, rep)
            records.append(dict(rep=rep, solver="hqm", policy=policy.value,
                                instance=instance, pool=pool, state=best, plan=plan,
                                history=hist))
            best, plan, hist = run_ga(pool, instance, policy, budget, rep)
            records.append(dict(rep=rep, solver="ga", policy=policy.value,
                                instance=instance, pool=pool, state=best, plan=plan,
                                history=hist))
    return records


# ---------------------------------------------------------------------------
# Criterion 1: reward formula against reference totals
# ---------------------------------------------------------------------------


def _nine_locker_reward(total_distance: float) -> float:
    d = total_distance / 18.0
    spaces = [make_space(k, d, 0.0, service_time=5.0) for k in range(1, 10)]
    inst = make_instance(spaces, max_lockers=9)
    pool = make_pool([make_task(k, window=(0, 1440)) for k in range(1, 10)])
    plan, cost = evaluate(make_state(list(range(9)), list(range(9))),
                          pool, inst, AdjustmentPolicy.HCPS)
    assert plan.lockers_dispatched == 9
    assert plan.total_distance == pytest.approx(total_distance, abs=1e-9)
    return cost.reward


def test_criterion_1_reward_formula():
    r1 = _nine_locker_reward(115.196)
    r2 = _nine_locker_reward(103.842)
    ok = abs(r1 - 6.242e-3) <= 2e-6 and abs(r2 - 6.719e-3) <= 2e-6
    _report(1, "reward formula reproduction", ok,
            f"reward(9, 115.196km)={r1:.6g}, reward(9, 103.842km)={r2:.6g}")
    assert abs(r1 - 6.242e-3) <= 2e-6
    assert abs(r2 - 6.719e-3) <= 2e-6


# ---------------------------------------------------------------------------
# Criterion 2: reward-gap arithmetic
# ---------------------------------------------------------------------------


def test_criterion_2_reward_gap():
    gap = reward_gap(6.242e-3, 6.719e-3)
    ok = round(gap * 1e3, 3) == -0.477
    _report(2, "reward-gap arithmetic", ok, f"gap={gap * 1e3:.3f}e-3")
    assert round(gap * 1e3, 3) == -0.477


# ---------------------------------------------------------------------------
# Criterion 3: oracle equivalence on tiny instances
# ---------------------------------------------------------------------------


def test_criterion_3_oracle_equivalence(tiny_suite):
    n = len(tiny_suite)
    hqm_hits = sum(r["hqm"][0].reward >= r["oracle_reward"] - 1e-12 for r in tiny_suite)
    ga_hits = sum(r["ga"][0].reward >= r["oracle_reward"] - 1e-12 for r in tiny_suite)
    ok = hqm_hits >= 0.90 * n and ga_hits >= 0.60 * n
    _report(3, "oracle equivalence", ok,
            f"HQM {hqm_hits}/{n} (need >=45), GA {ga_hits}/{n} (need >=30)")
    assert hqm_hits >= 0.90 * n
    assert ga_hits >= 0.60 * n


def test_solver_gap_to_the_exact_optimum(cell_suite):
    # The 6x10 pools hold 6 to 11 tasks, within the oracle's bound. At the
    # desk budget HQM reaches the optimum on 20 of 20 pools under each policy
    # and the GA on 8 of 20 (mean gap 7.95%, worst 21.46%). The thresholds
    # sit below those counts, so a change to a solver's random stream that
    # keeps its quality passes; no solver may beat the optimum, beyond the
    # last-bit change that renaming lockers can make to a distance sum.
    optima = {}
    hits = {}
    for r in cell_suite:
        key = (r["rep"], r["policy"])
        if key not in optima:
            optima[key] = brute_force_best(r["pool"], r["instance"],
                                           AdjustmentPolicy(r["policy"]))[1]
        reward, optimum = r["state"].reward, optima[key]
        assert reward <= optimum * (1 + 1e-12), (key, r["solver"], reward, optimum)
        hit = reward >= optimum * (1 - 1e-12)
        hits[r["solver"], r["policy"]] = hits.get((r["solver"], r["policy"]), 0) + hit
    print(f"QUALITY optimum reached on 20 pools: {hits}")
    for policy in ("btd", "hcps"):
        assert hits["hqm", policy] >= 18
        assert hits["ga", policy] >= 5


# ---------------------------------------------------------------------------
# Criterion 4: earliest-start recurrence property suite
# ---------------------------------------------------------------------------


def _adjustment_free_case(rng):
    speed = 0.7
    count = int(rng.integers(1, 7))
    spaces, tasks = [], []
    prev_leave, prev_pos, prev_e = None, Position(0.0, 0.0), 0.0
    for k in range(count):
        pos = Position(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
        service = float(rng.uniform(10, 30))
        spaces.append(make_space(k + 1, pos.x, pos.y, service_time=service))
        leg = travel_time(prev_pos, pos, speed)
        if prev_leave is None:
            e = float(rng.uniform(0, max(leg, 1e-6)))
        else:
            e = float(rng.uniform(prev_e, prev_leave + leg))
        members = tuple((cid, float(rng.uniform(0, e + 30)))
                        for cid in range(int(rng.integers(1, 4))))
        tasks.append(make_task(k + 1, demand=int(rng.integers(1, 4)),
                               window=(e, e + service), members=members))
        arrival = max(e, leg) if prev_leave is None else max(prev_leave + leg, e)
        start = max([arrival] + [p for _, p in members])
        prev_leave, prev_pos, prev_e = start + service, pos, e
    inst = make_instance(spaces, capacity=1e9, speed=speed, max_lockers=1)
    return inst, tasks


def _replay(inst, tasks):
    speed = inst.fleet.speed
    prev_leave, prev_pos = None, inst.depot
    out = []
    for task in tasks:
        sp = inst.space_by_id(task.space_id)
        leg = travel_time(prev_pos, sp.position, speed)
        arrival = max(task.window.start, leg) if prev_leave is None \
            else max(prev_leave + leg, task.window.start)
        pickups = [p for _, p in task.members]
        start = max(arrival, max(pickups)) if pickups else arrival
        leave = start + sp.service_time
        out.append((arrival, leave))
        prev_leave, prev_pos = leave, sp.position
    return out


def test_criterion_4_earliest_start_recurrences():
    rng = np.random.default_rng(2024)
    violations = 0
    lists = 0
    for _ in range(1000):
        inst, tasks = _adjustment_free_case(rng)
        policy = AdjustmentPolicy.HCPS if lists % 2 else AdjustmentPolicy.BTD
        route = schedule_tasks(tasks, inst, policy)
        lists += 1
        assert all(v.adjustment is Adjustment.NONE for v in route.visits)
        for v, (arrival, leave) in zip(route.visits, _replay(inst, tasks)):
            if v.arrival != arrival or v.leave != leave:
                violations += 1
    _report(4, "earliest-start recurrence suite", violations == 0,
            f"{lists} task lists, {violations} violations")
    assert violations == 0


# ---------------------------------------------------------------------------
# Criteria 5-6: strategy delay trend and optimization-ability ordering
# ---------------------------------------------------------------------------


def _mean(values):
    values = list(values)
    return sum(values) / len(values)


def test_criterion_5_strategy_delay_trend(cell_suite):
    hcps = _mean(compute_delay(r["plan"])[1] for r in cell_suite
                 if r["solver"] == "hqm" and r["policy"] == "hcps")
    btd = _mean(compute_delay(r["plan"])[1] for r in cell_suite
                if r["solver"] == "hqm" and r["policy"] == "btd")
    ok = hcps <= btd
    _report(5, "strategy delay trend", ok,
            f"HQM mean delay: hcps={hcps:.4f} min <= btd={btd:.4f} min")
    assert hcps <= btd


def test_criterion_6_optimization_ability(cell_suite):
    hqm = _mean(improvement_rate(r["history"]) for r in cell_suite
                if r["solver"] == "hqm")
    ga = _mean(improvement_rate(r["history"]) for r in cell_suite
               if r["solver"] == "ga")
    ok = hqm > ga
    _report(6, "optimization-ability ordering", ok,
            f"mean improvement: HQM={hqm:.1f}% > GA={ga:.1f}%")
    assert hqm > ga


# ---------------------------------------------------------------------------
# Criterion 7: feasibility of every solver output from criteria 3-6
# ---------------------------------------------------------------------------


def _assert_feasible(state, plan, pool, instance):
    report = check_feasibility(plan, state, pool, instance)
    hard = report.hard()
    assert not hard, f"hard violations: {hard[:3]}"
    recorded = {v.task_id: v.lateness for v in plan.all_visits() if v.lateness > 0}
    reported = {int(v.entity.split()[-1]): v.lateness for v in report.soft()}
    assert reported == recorded  # exact float equality, per-visit
    return len(reported)


def test_criterion_7_feasibility(tiny_suite, cell_suite):
    checked = 0
    soft_total = 0
    for r in tiny_suite:
        for key in ("hqm", "ga"):
            best, plan, _ = r[key]
            soft_total += _assert_feasible(best, plan, r["pool"], r["instance"])
            checked += 1
        oracle_plan, _ = evaluate(r["oracle_state"], r["pool"], r["instance"], r["policy"])
        soft_total += _assert_feasible(r["oracle_state"], oracle_plan, r["pool"],
                                       r["instance"])
        checked += 1
    for r in cell_suite:
        soft_total += _assert_feasible(r["state"], r["plan"], r["pool"], r["instance"])
        checked += 1
    _report(7, "feasibility invariants", True,
            f"{checked} plans audited, 0 hard violations, "
            f"{soft_total} soft lateness records all exact")


# ---------------------------------------------------------------------------
# Criterion 8: monotone histories and byte-identical reruns
# ---------------------------------------------------------------------------


def test_criterion_8_monotonicity_and_determinism(tiny_suite, cell_suite, tmp_path,
                                                  capsys):
    histories = [r[k][2] for r in tiny_suite for k in ("hqm", "ga")]
    histories += [r["history"] for r in cell_suite]
    monotone = all(
        all(b >= a for a, b in zip(h.best_per_step, h.best_per_step[1:]))
        and (not h.best_per_step or h.best_per_step[0] >= h.initial_best)
        for h in histories)

    inst_path = tmp_path / "inst.json"
    assert run_cli(["generate", "--out", str(inst_path), "--spaces", "2",
                    "--locations", "3", "--seed", "3"]) == 0
    lines = {}
    for solver in ("hqm", "ga"):
        pair = []
        for attempt in ("a", "b"):
            code = run_cli(["solve", "--instance", str(inst_path), "--solver", solver,
                            "--agents", "8", "--iters", "40", "--seed", "11",
                            "--out-dir", str(tmp_path / f"{solver}_{attempt}")])
            assert code == 0
            out = [ln for ln in capsys.readouterr().out.splitlines()
                   if ln.startswith("RESULT ")][-1]
            pair.append(out)
        lines[solver] = pair
    identical = all(pair[0] == pair[1] for pair in lines.values())

    ok = monotone and identical
    _report(8, "monotonicity and determinism", ok,
            f"{len(histories)} histories monotone={monotone}, "
            f"rerun metric lines identical={identical}")
    assert monotone
    assert identical


# ---------------------------------------------------------------------------
# Criterion 9: value-update unit checks and convergence threshold
# ---------------------------------------------------------------------------


def test_criterion_9_q_update_units():
    q = QMatrices.zeros(1, 1)
    q.q1[0][0] = 2.0
    update_q(q, [make_state([0], [0])], rewards=[1.0], alpha=0.5, gamma=0.9)
    unit_ok = q.q1[1][0] == pytest.approx(1.4, abs=1e-15)

    q2 = QMatrices(q1=[[0.37] * 2 for _ in range(3)], q2=[[0.91] * 3 for _ in range(4)])
    before = q2.copy()
    update_q(q2, [make_state([0, 1, 0], [2, 0, 1])], rewards=[3.0], alpha=0.0, gamma=0.9)
    identity_ok = q2.q1 == before.q1 and q2.q2 == before.q2

    a = QMatrices.zeros(2, 2)
    b = a.copy()
    b.q2[0][0] = 9.999e-9
    below_ok = has_converged(a, b, 1e-8)
    b.q2[0][0] = 1e-8
    at_ok = not has_converged(a, b, 1e-8)

    ok = unit_ok and identity_ok and below_ok and at_ok
    _report(9, "value-update unit checks", ok,
            f"update->1.4={unit_ok}, alpha0 identity={identity_ok}, "
            f"strict threshold={below_ok and at_ok}")
    assert unit_ok and identity_ok and below_ok and at_ok
