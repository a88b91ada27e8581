import csv
import math

import pytest

from mplq.bench import (BudgetProfile, GridConfig, SweepConfig, apply_factor,
                        improvement_rate, read_grid_rows, read_sweep_points,
                        reward_gap, run_grid, sweep_factor, write_grid_csv,
                        write_plotdata, write_sweep_csv)
from mplq.errors import ConfigurationError, ParameterError, UndefinedRateError
from mplq.hqm import RunHistory
from mplq.instance import GeneratorConfig


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


def test_grid_reward_gap_rows():
    result = run_grid(_tiny_grid())
    gaps = result.reward_gaps()
    assert {g.solver for g in gaps} == {"hqm", "ga"}
    aggs = {(a.solver, a.policy): a.reward_mean for a in result.cell_aggregates()}
    for g in gaps:
        assert g.reward_gap == pytest.approx(
            aggs[(g.solver, "btd")] - aggs[(g.solver, "hcps")])


def test_grid_csv_roundtrip(tmp_path):
    result = run_grid(_tiny_grid(replications=2))
    path = tmp_path / "grid.csv"
    write_grid_csv(result, path, header_comment="config test")
    assert path.read_text().startswith("# config test")
    back = read_grid_rows(path)
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
    with pytest.raises(ConfigurationError):
        GridConfig(replications=2, seeds=(1,))


def test_budget_profiles():
    assert BudgetProfile.named("desk") == BudgetProfile(agents=20, iterations=200)
    assert BudgetProfile.named("paper") == BudgetProfile(agents=100, iterations=1000)
    with pytest.raises(ConfigurationError):
        BudgetProfile.named("weekend")


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
    assert read_sweep_points(path) == points


def test_sweep_config_validation():
    with pytest.raises(ConfigurationError):
        SweepConfig(factor="bogus", values=(1.0,))
    with pytest.raises(ConfigurationError):
        SweepConfig(factor="Q", values=())
    with pytest.raises(ConfigurationError):
        SweepConfig(factor="Q", values=(20.0,), replications=2, seeds=(1,))
    with pytest.raises(ConfigurationError):
        SweepConfig(factor="Q", values=(20.0,), replications=0)


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
