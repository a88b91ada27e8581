import csv
import math
from dataclasses import replace

import pytest

from mplq import bench
from mplq.bench import (BudgetProfile, CellOutcome, GridConfig, SweepConfig, SweepPoint,
                        apply_factor, improvement_rate, reward_gap, run_grid, sweep_factor,
                        write_grid_csv, write_plotdata, write_sweep_csv)
from mplq.errors import (ConfigurationError, MplqError, NothingToSolveError,
                         OverCapacityError, ParameterError, UndefinedRateError)
from mplq.ga import run_ga
from mplq.hqm import RunHistory, run_hqm
from mplq.instance import GeneratorConfig, assign_customers, generate_instance
from mplq.oracle import brute_force_best
from mplq.routing import AdjustmentPolicy, check_pool
from mplq.state import MAX_AGENTS, MAX_ITERATIONS
from mplq.taskgen import TaskPool, build_tasks


def test_improvement_rate_formula():
    h = RunHistory(initial_best=1e-3, best_per_step=[2e-3, 5e-3])
    assert improvement_rate(h) == pytest.approx(400.0)


def test_improvement_rate_flat_run_is_zero():
    h = RunHistory(initial_best=2e-3, best_per_step=[2e-3])
    assert improvement_rate(h) == 0.0


def test_improvement_rate_zero_initial_rejected():
    with pytest.raises(UndefinedRateError):
        improvement_rate(RunHistory(initial_best=0.0, best_per_step=[1.0]))


def test_reward_gap_reference_values():
    assert round(reward_gap(6.242e-3, 6.719e-3) * 1e3, 3) == -0.477


def test_reward_gap_zero_and_positive():
    assert reward_gap(1e-3, 1e-3) == 0.0
    assert round(reward_gap(1.249e-3, 1.067e-3) * 1e3, 3) == 0.182


def test_reward_gap_requires_finite_inputs():
    with pytest.raises(ParameterError):
        reward_gap(float("nan"), 1.0)


def _generated_pool(config):
    instance = generate_instance(config)
    return instance, build_tasks(instance, assign_customers(instance))


def _tiny_grid(**overrides):
    defaults = dict(
        spaces_counts=(2,), locations_counts=(3,), replications=1,
        base_config=GeneratorConfig(num_spaces=2, locations_per_space=3, seed=0),
        budget=BudgetProfile(agents=6, iterations=20),
    )
    defaults.update(overrides)
    return GridConfig(**defaults)


def test_grid_single_cell_shape():
    result = run_grid(_tiny_grid())
    assert len(result.rows) == 4  # 2 solvers x 2 policies
    combos = {(r.solver, r.policy) for r in result.rows}
    assert combos == {("hqm", "btd"), ("hqm", "hcps"), ("ga", "btd"), ("ga", "hcps")}
    for r in result.rows:
        assert r.lockers >= 1 and r.distance_km > 0 and r.reward > 0
        assert r.avg_delay_min >= 0


def test_grid_two_replications_use_distinct_seeds():
    result = run_grid(_tiny_grid(replications=2))
    assert len(result.rows) == 8
    seeds = {r.seed for r in result.rows}
    assert len(seeds) == 2


def test_grid_multiple_cells():
    result = run_grid(_tiny_grid(locations_counts=(3, 5)))
    assert len(result.rows) == 8
    assert {(r.spaces, r.locations) for r in result.rows} == {(2, 3), (2, 5)}


def test_grid_aggregates_are_arithmetic_means():
    result = run_grid(_tiny_grid(replications=2))
    for agg in result.cell_aggregates():
        rows = [r for r in result.rows
                if (r.spaces, r.locations, r.solver, r.policy)
                == (agg.spaces, agg.locations, agg.solver, agg.policy)]
        assert agg.reward_mean == pytest.approx(sum(r.reward for r in rows) / len(rows))
        assert agg.distance_mean == pytest.approx(
            sum(r.distance_km for r in rows) / len(rows))
        assert agg.lockers_mean_rounded_up == math.ceil(
            sum(r.lockers for r in rows) / len(rows))


def test_means_add_left_to_right():
    # A compensated sum (math.fsum, and sum() from Python 3.12 on) gives 1.0
    # for these values and 0.012162606385262995 for their standard error.
    values = [0.1] * 10 + [1e-17] * 3
    assert math.fsum(values) == 1.0
    assert bench._mean(values) == 0.9999999999999999 / 13
    assert bench._stderr(values) == 0.012162606385262998


def test_grid_reward_gap_rows():
    result = run_grid(_tiny_grid())
    gaps = result.reward_gaps()
    assert {g.solver for g in gaps} == {"hqm", "ga"}
    aggs = {(a.solver, a.policy): a.reward_mean for a in result.cell_aggregates()}
    for g in gaps:
        assert g.reward_gap == pytest.approx(
            aggs[(g.solver, "btd")] - aggs[(g.solver, "hcps")])


def _csv_records(path):
    """The records of a CSV file written by ``bench``, skipping its ``# config`` header."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader([ln for ln in fh if not ln.startswith("#")]))


def test_grid_csv_roundtrip(tmp_path):
    result = run_grid(_tiny_grid(replications=2))
    path = tmp_path / "grid.csv"
    write_grid_csv(result, path, header_comment="config test")
    assert path.read_text().startswith("# config test")
    back = [CellOutcome(
        spaces=int(rec["spaces"]), locations=int(rec["locations"]),
        solver=rec["solver"], policy=rec["policy"],
        replication=int(rec["replication"]), seed=int(rec["seed"]),
        lockers=int(rec["lockers"]), distance_km=float(rec["distance_km"]),
        avg_delay_min=float(rec["avg_delay_min"]), reward=float(rec["reward"]),
        improvement_pct=float(rec["improvement_pct"]))
        for rec in _csv_records(path) if rec["kind"] == "rep"]
    assert tuple(back) == result.rows


def test_grid_csv_block_means_match_rep_rows(tmp_path):
    result = run_grid(_tiny_grid(locations_counts=(3, 4), replications=2))
    path = tmp_path / "grid.csv"
    write_grid_csv(result, path)
    with open(path, newline="") as fh:
        records = list(csv.DictReader(fh))
    blocks = [r for r in records if r["kind"] == "block_mean"]
    assert len(blocks) == 4  # one spaces count x 2 solvers x 2 policies
    for block in blocks:
        reps = [r for r in records if r["kind"] == "rep"
                and (r["spaces"], r["solver"], r["policy"])
                == (block["spaces"], block["solver"], block["policy"])]
        assert len(reps) == 4  # 2 location settings x 2 replications
        for column in ("distance_km", "avg_delay_min", "reward", "improvement_pct"):
            assert float(block[column]) == pytest.approx(
                sum(float(r[column]) for r in reps) / len(reps))
        assert int(block["lockers"]) == math.ceil(
            sum(int(r["lockers"]) for r in reps) / len(reps))


def _count_solves(monkeypatch):
    calls = []
    real_solve = bench.solve

    def counting_solve(pool, instance, solver, policy, *args):
        calls.append((solver, policy))
        return real_solve(pool, instance, solver, policy, *args)

    monkeypatch.setattr(bench, "solve", counting_solve)
    return calls


def test_grid_solves_once_per_solver_when_no_hold_can_apply(monkeypatch):
    calls = _count_solves(monkeypatch)
    result = run_grid(_tiny_grid(locations_counts=(3, 4), replications=2))
    assert result.hold_pools == 0
    assert len(calls) == 2 * 2 * 2  # (cell, replication) pools x solvers
    assert {policy for _, policy in calls} == {AdjustmentPolicy.BTD}
    rows = {(r.spaces, r.locations, r.replication, r.solver, r.policy): r for r in result.rows}
    hcps = [key for key in rows if key[-1] == "hcps"]
    assert len(hcps) == 8
    for key in hcps:
        assert replace(rows[key], policy="btd") == rows[key[:-1] + ("btd",)]


def test_grid_solves_both_policies_when_a_hold_can_apply(monkeypatch):
    calls = _count_solves(monkeypatch)
    monkeypatch.setattr(bench, "hold_can_apply", lambda pool, instance: True)
    result = run_grid(_tiny_grid())
    assert result.hold_pools == 1
    assert len(calls) == 4
    assert set(calls) == {(solver, policy) for solver in ("hqm", "ga")
                          for policy in (AdjustmentPolicy.BTD, AdjustmentPolicy.HCPS)}


def test_grid_same_seed_reproducible():
    r1 = run_grid(_tiny_grid())
    r2 = run_grid(_tiny_grid())
    assert r1.rows == r2.rows


def test_grid_parallel_matches_serial():
    grid = _tiny_grid(replications=2)
    assert run_grid(grid, jobs=2).rows == run_grid(grid, jobs=1).rows


def test_grid_config_validation():
    with pytest.raises(ConfigurationError):
        GridConfig(spaces_counts=())


def test_grid_config_refuses_unknown_solvers_and_policies():
    for bad in (dict(solvers=("foo",)), dict(solvers=("hqm", "foo")),
                dict(policies=("foo",)), dict(policies=("btd", "foo"))):
        with pytest.raises(ConfigurationError, match="unknown (solver|adjustment policy)"):
            GridConfig(**bad)
    # solver and policy names are taken in any case and kept in lower case
    assert GridConfig(policies=("BTD", "Hcps")).policies == ("btd", "hcps")
    assert GridConfig(solvers=("GA", "Hqm")).solvers == ("ga", "hqm")


def test_grid_config_refuses_a_repeated_solver_or_policy():
    for bad in (dict(solvers=("hqm", "hqm")), dict(solvers=("hqm", "HQM")),
                dict(policies=("btd", "hcps", "btd")), dict(policies=("btd", "BTD"))):
        with pytest.raises(ConfigurationError, match="must not repeat"):
            GridConfig(**bad)


def test_upper_case_policies_keep_the_gap_rows():
    # reward_gaps looks the two policies up by their lower-case names
    grid = dict(spaces_counts=(5,), locations_counts=(5,), solvers=("ga",),
                base_config=GeneratorConfig(seed=0))
    upper, lower = (run_grid(GridConfig(policies=policies, **grid))
                    for policies in (("BTD", "HCPS"), ("btd", "hcps")))
    assert upper == lower
    assert [r.policy for r in upper.rows] == ["btd", "hcps"]
    assert len(upper.reward_gaps()) == 1


def test_sweep_config_refuses_an_unknown_policy():
    # generated pools admit no hold, so the sweep's solves never parse the policy
    with pytest.raises(ConfigurationError, match="unknown adjustment policy 'foo'"):
        SweepConfig(factor="Q", values=(20.0,), policy="foo")
    assert SweepConfig(factor="Q", values=(20.0,), policy="BTD").policy == "btd"


def test_budget_profiles():
    assert BudgetProfile.named("desk") == BudgetProfile(agents=20, iterations=200)
    assert BudgetProfile.named("paper") == BudgetProfile(agents=100, iterations=1000)
    BudgetProfile(agents=MAX_AGENTS, iterations=MAX_ITERATIONS)
    with pytest.raises(ConfigurationError):
        BudgetProfile.named("weekend")
    for agents, iterations in ((0, 200), (20, 0), (-1, 5), (MAX_AGENTS + 1, 200),
                               (20, MAX_ITERATIONS + 1), (10 ** 400, 200)):
        with pytest.raises(ConfigurationError):
            BudgetProfile(agents=agents, iterations=iterations)


def test_apply_factor_mappings():
    base = GeneratorConfig()
    assert apply_factor(base, "T_s", 50.0).customer_span_range == (30.0, 70.0)
    assert apply_factor(base, "T_p", 55.0).parking_span_range == (35.0, 75.0)
    assert apply_factor(base, "Q", 25.0).capacity == 25.0
    assert apply_factor(base, "V_l", 0.9).locker_speed == 0.9
    assert apply_factor(base, "num_spaces", 7).num_spaces == 7
    assert apply_factor(base, "locations_per_space", 15).locations_per_space == 15
    assert apply_factor(base, "rho_l", 6.0).service_radius == 6.0
    assert apply_factor(base, "rho_c", 0.6).walk_range == (0.5, 0.7)
    with pytest.raises(ConfigurationError):
        apply_factor(base, "speed_of_light", 3e8)


def _tiny_sweep(factor, values, replications=2):
    return SweepConfig(
        factor=factor, values=values, replications=replications,
        base_config=GeneratorConfig(num_spaces=2, locations_per_space=3, seed=0),
        budget=BudgetProfile(agents=6, iterations=20),
    )


def test_sweep_single_point():
    points = sweep_factor(_tiny_sweep("Q", (20.0,)))
    assert len(points) == 1
    p = points[0]
    assert p.factor == "Q" and p.value == 20.0 and p.replications == 2
    assert math.isfinite(p.mean_delay) and p.mean_delay >= 0
    assert p.stderr >= 0


def test_sweep_axis_rows_finite():
    points = sweep_factor(_tiny_sweep("T_s", (30.0, 50.0, 70.0), replications=1))
    assert [p.value for p in points] == [30.0, 50.0, 70.0]
    assert all(math.isfinite(p.mean_delay) and p.mean_delay >= 0 for p in points)


def test_sweep_csv_roundtrip(tmp_path):
    points = sweep_factor(_tiny_sweep("Q", (15.0, 20.0), replications=1))
    path = tmp_path / "sweep.csv"
    write_sweep_csv(points, path, header_comment="config test")
    back = [SweepPoint(factor=rec["factor"], value=float(rec["value"]),
                       mean_delay=float(rec["mean_delay_min"]), stderr=float(rec["stderr"]),
                       replications=int(rec["replications"]),
                       over_capacity_pools=int(rec["over_capacity_pools"]))
            for rec in _csv_records(path)]
    assert back == points


def test_grid_skips_empty_pools():
    # generator seed 1 at 2 spaces x 5 locations builds no task; seed 0 builds one
    result = run_grid(_tiny_grid(locations_counts=(5,), replications=2))
    assert result.empty_pools == 1
    assert len(result.rows) == 4 and {r.seed for r in result.rows} == {0}
    solved = run_grid(_tiny_grid(locations_counts=(5,)))
    assert solved.empty_pools == 0
    assert result.rows == solved.rows
    assert result.cell_aggregates() == solved.cell_aggregates()


def test_grid_skips_pools_with_a_task_above_capacity():
    # at a capacity of 5, generator seed 2 at 2 spaces x 3 locations holds a task
    # demanding 8 parcels; seeds 0 and 1 demand at most 3
    low = replace(GeneratorConfig(num_spaces=2, locations_per_space=3, seed=0), capacity=5.0)
    result = run_grid(_tiny_grid(base_config=low, replications=3))
    assert (result.over_capacity_pools, result.empty_pools) == (1, 0)
    assert {r.seed for r in result.rows} == {0, 1}
    assert result.rows == run_grid(_tiny_grid(base_config=low, replications=2)).rows
    assert run_grid(_tiny_grid(replications=3)).over_capacity_pools == 0


def test_solve_refuses_a_pool_with_a_task_above_capacity():
    low = replace(GeneratorConfig(num_spaces=2, locations_per_space=3, seed=2), capacity=5.0)
    instance, pool = _generated_pool(low)
    with pytest.raises(OverCapacityError, match="task 0 .* demands 8 parcels"):
        check_pool(pool, instance)
    with pytest.raises(OverCapacityError, match="task 0 .* demands 8 parcels"):
        bench.solve(pool, instance, "ga", AdjustmentPolicy.BTD,
                    BudgetProfile(agents=2, iterations=1), seed=0)


def _refusal(call):
    with pytest.raises(MplqError) as info:
        call()
    return type(info.value), str(info.value)


# Every consumer of routing.check_pool, as a call on (pool, instance).
_SOLVES = {
    "run_hqm": lambda pool, instance: run_hqm(pool, instance, AdjustmentPolicy.BTD,
                                              BudgetProfile(agents=2, iterations=1), 0),
    "run_ga": lambda pool, instance: run_ga(pool, instance, AdjustmentPolicy.BTD,
                                            BudgetProfile(agents=2, iterations=1), 0),
    "solve-hqm": lambda pool, instance: bench.solve(pool, instance, "hqm", AdjustmentPolicy.BTD,
                                                    BudgetProfile(agents=2, iterations=1), 0),
    "solve-ga": lambda pool, instance: bench.solve(pool, instance, "ga", AdjustmentPolicy.BTD,
                                                   BudgetProfile(agents=2, iterations=1), 0),
    "brute_force_best": lambda pool, instance: brute_force_best(pool, instance,
                                                                AdjustmentPolicy.BTD),
}


_REFUSALS = {
    "over_capacity": (OverCapacityError, "task 0 (space 2) demands 8 parcels, above the "
                                         "locker capacity 5.0; no plan can serve it"),
    "empty": (NothingToSolveError, "task pool is empty"),
    "zero_cost": (NothingToSolveError, "every plan costs nothing: the fixed cost is 0 and "
                                       "every task's space sits at the depot"),
}


@pytest.mark.parametrize("kind", sorted(_REFUSALS))
@pytest.mark.parametrize("consumer", sorted(_SOLVES))
def test_solvers_refuse_a_pool_with_a_task_above_capacity(consumer, kind):
    # the over-capacity pool, an empty one and one whose every plan costs 0,
    # each refused by check_pool alone
    low = replace(GeneratorConfig(num_spaces=2, locations_per_space=3, seed=2), capacity=5.0)
    instance, pool = _generated_pool(low)
    if kind == "empty":
        pool = TaskPool(tasks=(), unservable=())
    elif kind == "zero_cost":
        instance, pool = _generated_pool(replace(low, capacity=20.0))
        free = replace(instance, fleet=replace(instance.fleet, fixed_cost=0.0))

        def at_depot(keep):
            return replace(free, spaces=tuple(sp if sp.id == keep else
                                              replace(sp, position=free.depot)
                                              for sp in free.spaces))

        # one task's space off the depot is enough for every plan to cost more than 0
        assert check_pool(pool, at_depot(pool.tasks[0].space_id)) >= 1
        instance = at_depot(None)
    assert _refusal(lambda: check_pool(pool, instance)) == _REFUSALS[kind]
    assert _refusal(lambda: _SOLVES[consumer](pool, instance)) == _REFUSALS[kind]


def test_solve_dispatches_to_the_solvers():
    instance, pool = _generated_pool(
        GeneratorConfig(num_spaces=2, locations_per_space=3, seed=3))
    budget, policy = BudgetProfile(agents=6, iterations=20), AdjustmentPolicy.HCPS
    for solver, direct in (("hqm", run_hqm(pool, instance, policy, budget, 3, 0.8, 1e-6)),
                           ("ga", run_ga(pool, instance, policy, budget, 3))):
        best, plan, history = bench.solve(pool, instance, solver, policy, budget, 3,
                                          gamma=0.8, tol=1e-6)
        assert (best.x1, best.x2, best.reward) == \
            (direct[0].x1, direct[0].x2, direct[0].reward)
        assert (plan, history) == direct[1:]


def test_sweep_skips_and_counts_pools_above_capacity():
    (point,) = sweep_factor(_tiny_sweep("Q", (5.0,), replications=3))
    assert (point.replications, point.over_capacity_pools) == (2, 1)
    with pytest.raises(NothingToSolveError, match="above the locker capacity"):
        sweep_factor(_tiny_sweep("Q", (1.0,), replications=1))


def test_sweep_point_averages_over_solved_pools():
    (point,) = sweep_factor(_tiny_sweep("locations_per_space", (5.0,)))
    (seed0,) = sweep_factor(_tiny_sweep("locations_per_space", (5.0,), replications=1))
    assert point.replications == 1
    assert point == seed0


def test_sweep_point_with_no_solved_pool_is_refused():
    with pytest.raises(NothingToSolveError, match="every task pool is empty"):
        sweep_factor(_tiny_sweep("num_spaces", (0.0,)))


def test_sweep_config_validation():
    with pytest.raises(ConfigurationError):
        SweepConfig(factor="bogus", values=(1.0,))
    with pytest.raises(ConfigurationError):
        SweepConfig(factor="Q", values=())
    with pytest.raises(ConfigurationError):
        SweepConfig(factor="Q", values=(20.0,), replications=0)


@pytest.mark.parametrize("factor", bench.COUNT_FACTORS)
def test_sweep_config_refuses_fractional_counts(factor):
    for values in ((2.5,), (-0.5,), (3.0, 4.25)):
        with pytest.raises(ConfigurationError, match=f"{factor} must be whole numbers"):
            SweepConfig(factor=factor, values=values)
    assert SweepConfig(factor=factor, values=(0.0, 2.0, 3)).values == (0.0, 2.0, 3)
    # the other factors take any finite value
    assert SweepConfig(factor="Q", values=(2.5, -0.5)).values == (2.5, -0.5)


def test_sweep_parallel_matches_serial():
    sweep = _tiny_sweep("Q", (15.0, 20.0))
    assert sweep_factor(sweep, jobs=2) == sweep_factor(sweep, jobs=1)


def test_plotdata_files(tmp_path):
    result = run_grid(_tiny_grid())
    written = write_plotdata(result, tmp_path / "plotdata")
    names = {p.name for p in written}
    assert names == {"grid_lockers.csv", "grid_distance.csv", "grid_delay.csv",
                     "grid_reward.csv"}
    for p in written:
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "x,y,series"
        assert len(lines) == 1 + 4  # one series point per solver x policy

    points = sweep_factor(_tiny_sweep("Q", (20.0,), replications=1))
    written = write_plotdata(points, tmp_path / "plotdata")
    assert [p.name for p in written] == ["sweep_Q.csv"]


def test_wider_customer_windows_do_not_increase_delay():
    # Directional replication check on the customer-residence-time factor.
    cfg = SweepConfig(
        factor="T_s", values=(30.0, 70.0), replications=10,
        base_config=GeneratorConfig(num_spaces=4, locations_per_space=6, seed=0),
        budget=BudgetProfile(agents=8, iterations=60),
    )
    narrow, wide = sweep_factor(cfg)
    assert wide.mean_delay <= narrow.mean_delay
