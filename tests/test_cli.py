import json

import pytest

from mplq.bench import BudgetProfile, GridConfig, run_grid
from mplq.cli import run_cli
from mplq.instance import GeneratorConfig, load_instance, save_instance
from helpers import make_customer, make_instance, make_space


@pytest.fixture()
def instance_file(tmp_path):
    # seed 3 yields a 3-task pool: big enough to exercise the oracle limit
    path = tmp_path / "inst.json"
    code = run_cli(["generate", "--out", str(path), "--spaces", "2",
                    "--locations", "3", "--seed", "3"])
    assert code == 0
    return path


def _result_line(capsys):
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("RESULT ")]
    assert lines, "no RESULT line printed"
    return lines[-1]


def test_generate_writes_instance(instance_file):
    inst = load_instance(instance_file)
    assert len(inst.spaces) == 2
    assert sum(len(c.locations) for c in inst.customers) == 6


def test_generate_honors_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MPLQ_SEED", "5")
    a = tmp_path / "a.json"
    assert run_cli(["generate", "--out", str(a), "--spaces", "2", "--locations", "3"]) == 0
    b = tmp_path / "b.json"
    assert run_cli(["generate", "--out", str(b), "--spaces", "2", "--locations", "3",
                    "--seed", "5"]) == 0
    assert a.read_text() == b.read_text()


def test_solve_is_reproducible(instance_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    args = ["solve", "--instance", str(instance_file), "--solver", "hqm",
            "--policy", "hcps", "--agents", "6", "--iters", "25", "--seed", "7",
            "--out-dir", str(out_dir)]
    names = ("plan.csv", "history.csv", "solution.json", "tasks.csv",
             "assignment.csv", "metrics.txt")
    assert run_cli(args) == 0
    line_a = _result_line(capsys)
    first = {name: (out_dir / name).read_bytes() for name in names}
    assert run_cli(args) == 0
    line_b = _result_line(capsys)
    assert line_a == line_b
    for name in names:
        assert (out_dir / name).read_bytes() == first[name]
    solution = json.loads((out_dir / "solution.json").read_text())
    assert solution["solver"] == "hqm" and solution["seed"] == 7
    assert (out_dir / "plan.csv").read_text().startswith("# config ")


def test_solve_with_ga(instance_file, tmp_path, capsys):
    code = run_cli(["solve", "--instance", str(instance_file), "--solver", "ga",
                    "--agents", "6", "--iters", "20", "--seed", "3",
                    "--out-dir", str(tmp_path / "ga")])
    assert code == 0
    assert "solver=ga" in _result_line(capsys)


def test_solve_reads_solver_config_file(instance_file, tmp_path, capsys):
    cfg = tmp_path / "solver.json"
    cfg.write_text(json.dumps({"agents": 6, "timesteps": 25, "gamma": 0.9,
                               "tol": 1e-8, "seed": 7, "policy": "btd"}))
    code = run_cli(["solve", "--instance", str(instance_file),
                    "--config", str(cfg), "--out-dir", str(tmp_path / "cfg")])
    assert code == 0
    line = _result_line(capsys)
    assert "policy=btd" in line and "seed=7" in line
    # explicit flags override the file
    code = run_cli(["solve", "--instance", str(instance_file),
                    "--config", str(cfg), "--policy", "hcps", "--seed", "9",
                    "--out-dir", str(tmp_path / "cfg2")])
    assert code == 0
    line = _result_line(capsys)
    assert "policy=hcps" in line and "seed=9" in line


def test_solve_rejects_unknown_config_keys(instance_file, tmp_path, capsys):
    cfg = tmp_path / "solver.json"
    cfg.write_text(json.dumps({"agents": 6, "learning": "deep"}))
    code = run_cli(["solve", "--instance", str(instance_file),
                    "--config", str(cfg), "--out-dir", str(tmp_path / "cfg")])
    assert code == 2


def test_solve_rejects_non_numeric_config_values(instance_file, tmp_path, capsys):
    cfg = tmp_path / "solver.json"
    cfg.write_text(json.dumps({"agents": "many"}))
    code = run_cli(["solve", "--instance", str(instance_file),
                    "--config", str(cfg), "--out-dir", str(tmp_path / "cfg")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "cfg").exists()


def test_solve_refuses_task_above_capacity(tmp_path, capsys):
    sp = make_space(1, 1.0, 0.0, window=(600, 660), service_time=60.0)
    cust = make_customer(0, 25, [(1.0, 0.1, (600, 660), 0.5)])
    inst_path = tmp_path / "inst.json"
    save_instance(make_instance([sp], [cust], capacity=20.0, max_lockers=2), inst_path)
    out_dir = tmp_path / "out"
    code = run_cli(["solve", "--instance", str(inst_path), "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: task 0 ")
    assert "25" in captured.err and "20.0" in captured.err
    assert "RESULT" not in captured.out
    assert not out_dir.exists()


@pytest.mark.parametrize("solver", ["hqm", "ga"])
def test_solve_reward_matches_grid_row(instance_file, tmp_path, capsys, solver):
    # instance_file is generator seed 3 at 2 spaces x 3 locations; solving it
    # with solver seed 3 at the desk budget is what the grid does for that cell
    code = run_cli(["solve", "--instance", str(instance_file), "--solver", solver,
                    "--policy", "hcps", "--seed", "3", "--out-dir", str(tmp_path / "s")])
    assert code == 0
    line = _result_line(capsys)
    grid = GridConfig(spaces_counts=(2,), locations_counts=(3,), solvers=(solver,),
                      policies=("hcps",), base_config=GeneratorConfig(seed=3),
                      budget=BudgetProfile.desk())
    (row,) = run_grid(grid).rows
    assert f"reward={row.reward!r}" in line.split()


def test_solve_with_travel_noise_is_reproducible(instance_file, tmp_path, capsys):
    args = ["solve", "--instance", str(instance_file), "--agents", "6",
            "--iters", "20", "--seed", "4", "--noise-sigma", "0.3",
            "--out-dir", str(tmp_path / "noise")]
    assert run_cli(args) == 0
    first = _result_line(capsys)
    assert run_cli(args) == 0
    assert _result_line(capsys) == first


def test_validate_clean_instance(instance_file, capsys):
    assert run_cli(["validate", "--instance", str(instance_file)]) == 0
    assert "instance_violations=0" in _result_line(capsys)


def test_validate_flags_capacity_violation(tmp_path, capsys):
    sp = make_space(1, 1.0, 0.0, window=(600, 660), service_time=60.0)
    cust = make_customer(0, 25, [(1.0, 0.1, (600, 660), 0.5)])
    inst = make_instance([sp], [cust], capacity=20.0, max_lockers=2)
    inst_path = tmp_path / "inst.json"
    save_instance(inst, inst_path)
    sol_path = tmp_path / "solution.json"
    sol_path.write_text(json.dumps({"x1": [0], "x2": [0], "policy": "btd"}))
    code = run_cli(["validate", "--instance", str(inst_path),
                    "--solution", str(sol_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "constraint (6)" in out


def test_oracle_prints_optimum(instance_file, capsys):
    code = run_cli(["oracle", "--instance", str(instance_file), "--policy", "hcps"])
    assert code == 0
    line = _result_line(capsys)
    assert "reward=" in line and "states=" in line


def test_oracle_refuses_above_limit(instance_file, capsys):
    code = run_cli(["oracle", "--instance", str(instance_file), "--limit", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "refused" in err and "exceed" in err


def test_unknown_flag_exits_2(capsys):
    assert run_cli(["solve", "--nonsense"]) == 2


def test_unknown_command_exits_2(capsys):
    assert run_cli(["frobnicate"]) == 2


def test_missing_instance_file_exits_2(capsys, tmp_path):
    code = run_cli(["solve", "--instance", str(tmp_path / "nope.json"),
                    "--agents", "4", "--iters", "5"])
    assert code == 2


def test_corrupt_instance_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["validate", "--instance", str(bad)]) == 2


def test_bench_command(tmp_path, capsys, instance_file):
    out_dir = tmp_path / "bench"
    code = run_cli(["bench", "--spaces", "2", "--locations", "3",
                    "--replications", "1", "--seed", "1",
                    "--out-dir", str(out_dir)])
    assert code == 0
    grid = out_dir / "grid.csv"
    assert grid.exists() and grid.read_text().startswith("# config ")
    assert (out_dir / "plotdata" / "grid_reward.csv").exists()


def test_sweep_command(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code = run_cli(["sweep", "--factor", "Q", "--values", "15,20",
                    "--replications", "1", "--seed", "1",
                    "--out-dir", str(out_dir)])
    assert code == 0
    assert (out_dir / "sweep.csv").exists()
    assert (out_dir / "plotdata" / "sweep_Q.csv").exists()
