import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mplq

from mplq import bench, cli
from mplq.bench import SWEEP_FACTORS, BudgetProfile, GridConfig, run_grid
from mplq.cli import run_cli
from mplq.instance import GeneratorConfig, load_instance, save_instance
from helpers import make_customer, make_instance, make_space


@pytest.fixture()
def instance_file(tmp_path):
    # seed 3 yields a 3-task pool, small enough for the oracle
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


@pytest.mark.parametrize("setting", ["--max-lockers=0", "--max-lockers=-3", "--buffer=-1",
                                     "--spaces=-1", "--capacity=0"])
def test_a_bad_generator_setting_is_a_usage_error(tmp_path, capsys, setting):
    out = tmp_path / "inst.json"
    code = run_cli(["generate", "--out", str(out), setting])
    captured = capsys.readouterr()
    assert code == 2 and captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1
    assert "RESULT" not in captured.out and not out.exists()


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


@pytest.mark.parametrize("config, message", [
    ({"agents": 2.9}, "agents must be an integer, got 2.9"),
    ({"timesteps": "3"}, "timesteps must be an integer, got '3'"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"agents": 2.9, "timesteps": "3", "seed": True}, "agents must be an integer, got 2.9"),
    ({"gamma": "0.9"}, "gamma must be a number, got '0.9'"),
    ({"tol": False}, "tol must be a number, got False"),
], ids=["fractional agents", "string timesteps", "bool seed", "all three", "string gamma",
        "bool tol"])
def test_solve_refuses_a_config_number_of_the_wrong_kind(instance_file, tmp_path, capsys,
                                                          config, message):
    cfg, out_dir = tmp_path / "solver.json", tmp_path / "cfg"
    cfg.write_text(json.dumps({"agents": 2, "timesteps": 2, **config}))
    code = run_cli(["solve", "--instance", str(instance_file), "--config", str(cfg),
                    "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.splitlines() == [f"error: {cfg}: bad solver config value: {message}"]
    assert captured.out == "" and not out_dir.exists()


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


def test_solve_rejects_a_config_integer_too_long_to_parse(instance_file, tmp_path, capsys):
    cfg = tmp_path / "solver.json"
    cfg.write_text('{"agents": 1' + "0" * 5000 + "}")
    code = run_cli(["solve", "--instance", str(instance_file),
                    "--config", str(cfg), "--out-dir", str(tmp_path / "cfg")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}: invalid JSON: ")


@pytest.mark.parametrize("text, message", [
    (None, "cannot read solver config"),
    ("{not json", "invalid JSON at line 1"),
    ("[1, 2]", "solver config must be a JSON object"),
], ids=["unreadable", "invalid-json", "not-an-object"])
def test_solve_refuses_an_unusable_config_file(instance_file, tmp_path, capsys, text, message):
    cfg = tmp_path / "solver.json"
    if text is not None:
        cfg.write_text(text)
    out_dir = tmp_path / "cfg"
    code = run_cli(["solve", "--instance", str(instance_file),
                    "--config", str(cfg), "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == "" and not out_dir.exists()


def test_solve_refuses_an_unknown_config_policy(instance_file, tmp_path, capsys):
    cfg = tmp_path / "solver.json"
    cfg.write_text(json.dumps({"policy": "foo", "agents": 2, "timesteps": 2}))
    out_dir = tmp_path / "cfg"
    code = run_cli(["solve", "--instance", str(instance_file),
                    "--config", str(cfg), "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.splitlines() == [
        f"error: {cfg}: bad solver config value: "
        "unknown adjustment policy 'foo'; expected btd or hcps"]
    assert captured.out == "" and not out_dir.exists()


def test_solve_ga_refuses_a_population_of_one(instance_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = run_cli(["solve", "--instance", str(instance_file), "--solver", "ga",
                    "--agents", "1", "--iters", "5", "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: population must be >= 2\n"
    assert "RESULT" not in captured.out and not out_dir.exists()


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
def test_solve_refuses_task_above_capacity_before_a_bad_gamma(tmp_path, capsys, solver):
    sp = make_space(1, 1.0, 0.0, window=(600, 660), service_time=60.0)
    cust = make_customer(0, 25, [(1.0, 0.1, (600, 660), 0.5)])
    inst_path = tmp_path / "inst.json"
    save_instance(make_instance([sp], [cust], capacity=20.0, max_lockers=2), inst_path)
    code = run_cli(["solve", "--instance", str(inst_path), "--solver", solver,
                    "--gamma", "50", "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: task 0 ")


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


@pytest.mark.parametrize("flags", [["--agents", "0"], ["--iters", "0"],
                                   ["--solver", "ga", "--agents", "0"],
                                   ["--solver", "ga", "--iters", "-3"]])
def test_solve_rejects_non_positive_budget(instance_file, tmp_path, capsys, flags):
    out_dir = tmp_path / "out"
    code = run_cli(["solve", "--instance", str(instance_file), *flags,
                    "--out-dir", str(out_dir)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: budget ")
    assert not out_dir.exists()


def test_solve_rejects_non_positive_budget_in_config(instance_file, tmp_path, capsys):
    cfg = tmp_path / "solver.json"
    cfg.write_text(json.dumps({"agents": 0}))
    code = run_cli(["solve", "--instance", str(instance_file), "--config", str(cfg),
                    "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: budget ")


@pytest.mark.parametrize("flags, message", [(["--tol", "0"], "tol"),
                                            (["--tol", "nan"], "tol"),
                                            (["--gamma", "50"], "gamma"),
                                            (["--gamma", "-0.1"], "gamma"),
                                            # the GA uses neither, but refuses them alike
                                            (["--solver", "ga", "--tol", "-1"], "tol"),
                                            (["--solver", "ga", "--gamma", "50"], "gamma")])
def test_solve_rejects_bad_hqm_parameters(instance_file, tmp_path, capsys, flags, message):
    out_dir = tmp_path / "out"
    code = run_cli(["solve", "--instance", str(instance_file), "--agents", "4",
                    "--iters", "5", *flags, "--out-dir", str(out_dir)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {message} must ")
    assert not out_dir.exists()


@pytest.mark.parametrize("sigma", ["inf", "1e308", "nan", "-1"])
def test_solve_refuses_bad_noise_sigma_before_solving(instance_file, tmp_path, capsys, sigma):
    out_dir = tmp_path / "out"
    code = run_cli(["solve", "--instance", str(instance_file), "--agents", "4",
                    "--iters", "5", "--noise-sigma", sigma, "--out-dir", str(out_dir)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: noise sigma must lie in [0, 1], got ")
    assert not out_dir.exists()


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
    keys = [pair.split("=")[0] for pair in line.split()[1:]]
    assert keys == ["command", "policy", "tasks", "lockers", "reward", "x1", "x2"]


def _oracle_on_generated(tmp_path, capsys, *generate_flags):
    path = tmp_path / "inst.json"
    assert run_cli(["generate", "--out", str(path), *generate_flags]) == 0
    capsys.readouterr()
    code = run_cli(["oracle", "--instance", str(path)])
    return code, capsys.readouterr()


def test_oracle_solves_the_six_task_pool(tmp_path, capsys):
    # 6 tasks on 20 lockers: 6**6 * 6! = 33,592,320 encoding states
    code, captured = _oracle_on_generated(tmp_path, capsys, "--spaces", "4", "--locations", "5",
                                          "--seed", "2")
    assert code == 0 and "tasks=6 lockers=6 " in captured.out


def test_oracle_refuses_above_max_tasks(tmp_path, capsys):
    code, captured = _oracle_on_generated(tmp_path, capsys, "--spaces", "8", "--locations", "10",
                                          "--seed", "1")
    assert code == 1 and "RESULT" not in captured.out
    assert captured.err == ("refused: the pool holds 14 tasks, whose sets need 16384 route "
                            "schedules, above the limit of 8192\n")


def test_oracle_refuses_a_task_above_capacity(tmp_path, capsys):
    # task 0 demands 8 parcels of lockers that hold 5; mplq solve refuses it too
    code, captured = _oracle_on_generated(tmp_path, capsys, "--spaces", "2", "--locations", "3",
                                          "--seed", "2", "--capacity", "5")
    assert code == 1 and "RESULT" not in captured.out
    assert captured.err.startswith("error: task 0 (space ") and "demands 8 parcels" in captured.err


@pytest.mark.parametrize("flags", [["--limit", "0"], ["--limit", "-5"],
                                   ["--limit", "many"], ["--max-lockers", "2"],
                                   ["--seed", "1"]])
def test_oracle_rejects_bad_flags_at_parse_time(instance_file, capsys, flags):
    code = run_cli(["oracle", "--instance", str(instance_file), *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("usage: mplq") and "RESULT" not in captured.out


_SEEDED_COMMANDS = {
    "generate": lambda tmp, inst: ["generate", "--out", str(tmp / "out" / "inst.json")],
    "solve": lambda tmp, inst: ["solve", "--instance", str(inst), "--agents", "2",
                                "--iters", "2", "--out-dir", str(tmp / "out")],
    "bench": lambda tmp, inst: ["bench", "--spaces", "2", "--locations", "3",
                                "--out-dir", str(tmp / "out")],
    "sweep": lambda tmp, inst: ["sweep", "--factor", "Q", "--values", "15",
                                "--replications", "1", "--out-dir", str(tmp / "out")],
}


@pytest.mark.parametrize("command, source",
                         [(c, s) for c in sorted(_SEEDED_COMMANDS) for s in ("flag", "env")]
                         + [("solve", "config")])
def test_negative_seed_is_refused(instance_file, tmp_path, capsys, monkeypatch,
                                  command, source):
    argv = _SEEDED_COMMANDS[command](tmp_path, instance_file)
    if source == "flag":
        argv += ["--seed", "-1"]
        named = "--seed"
    elif source == "env":
        monkeypatch.setenv("MPLQ_SEED", "-1")
        named = "MPLQ_SEED"
    else:
        config = tmp_path / "solver.json"
        config.write_text(json.dumps({"seed": -1}))
        argv += ["--config", str(config)]
        named = f"{config}: seed"
    code = run_cli(argv)
    captured = capsys.readouterr()
    assert code == 2 and "RESULT" not in captured.out
    assert captured.err == f"error: {named} must be a non-negative integer, got -1\n"
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("spaces", ["2", "0"])
@pytest.mark.parametrize("flags, message", [
    (["--policies", "foo"], "unknown adjustment policy 'foo'"),
    (["--policies", "btd,foo"], "unknown adjustment policy 'foo'"),
    (["--solvers", "foo"], "unknown solver 'foo'"),
    (["--solvers", "hqm,hqm"], "solvers and policies must not repeat"),
    (["--policies", "btd,BTD"], "solvers and policies must not repeat"),
], ids=["policy", "policy-list", "solver", "solver-twice", "policy-twice"])
def test_bench_refuses_unknown_names_before_solving(tmp_path, capsys, monkeypatch,
                                                     spaces, flags, message):
    solves = []
    monkeypatch.setattr(bench, "solve", lambda *args: solves.append(args))
    out_dir = tmp_path / "bench"
    code = run_cli(["bench", "--spaces", spaces, "--locations", "3", *flags,
                    "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2 and captured.err.startswith(f"error: {message}")
    assert len(captured.err.splitlines()) == 1
    assert not solves and "RESULT" not in captured.out and not out_dir.exists()


# The files README names as starting with a "# config" line.
_CONFIG_HEADED = {"plan.csv", "history.csv", "metrics.txt", "grid.csv", "sweep.csv"}


def test_every_artifact_shares_one_line_format(tmp_path, capsys, instance_file):
    """LF line ends everywhere, CSV rows as wide as their column line, and a
    ``# config`` first line exactly where README says."""
    out = tmp_path / "out"
    for argv in (["solve", "--instance", str(instance_file), "--agents", "2", "--iters", "2",
                  "--out-dir", str(out / "solve")],
                 ["bench", "--spaces", "2", "--locations", "3", "--out-dir", str(out / "bench")],
                 ["sweep", "--factor", "Q", "--values", "15,20", "--replications", "1",
                  "--out-dir", str(out / "sweep")]):
        assert run_cli(argv) == 0
    files = sorted(p for p in out.rglob("*") if p.is_file())
    assert sorted(p.name for p in files) == sorted([
        "assignment.csv", "history.csv", "metrics.txt", "plan.csv", "solution.json",
        "tasks.csv", "grid.csv", "grid_delay.csv", "grid_distance.csv", "grid_lockers.csv",
        "grid_reward.csv", "sweep.csv", "sweep_Q.csv"])
    for path in files:
        data = path.read_bytes()
        assert b"\r" not in data, path
        text = data.decode("utf-8")
        assert text.startswith("# config ") == (path.name in _CONFIG_HEADED), path
        if path.suffix != ".csv":
            continue
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        rows = list(csv.DictReader(lines))
        assert rows, path
        width = len(lines[0].split(","))
        for row in rows:
            assert len(row) == width and None not in row and None not in row.values(), path


def test_sweep_command(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code = run_cli(["sweep", "--factor", "Q", "--values", "15,20",
                    "--replications", "1", "--seed", "1",
                    "--out-dir", str(out_dir)])
    assert code == 0
    assert (out_dir / "sweep.csv").exists()
    assert (out_dir / "plotdata" / "sweep_Q.csv").exists()


def _set(*path_and_value):
    """A mutation that sets the field at ``path`` of an instance document."""
    *path, key, value = path_and_value

    def mutate(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value
    return mutate


_INVALID_INSTANCES = {
    "zero service time": _set("spaces", 0, "service_time", 0),
    "NaN window": _set("spaces", 0, "window", [float("nan"), 700.0]),
    "no lockers": _set("fleet", "max_lockers", 0),
    "zero objective": lambda doc: doc["fleet"].update(fixed_cost=0, unit_travel_cost=0),
    "non-numeric space id": _set("spaces", 0, "id", "abc"),
    "spaces not a list": _set("spaces", 5),
    "infinite fixed cost": _set("fleet", "fixed_cost", float("inf")),
    "infinite weight": _set("weights", [float("inf"), 1.0]),
    "infinite service time": _set("spaces", 0, "service_time", float("inf")),
    "oversized demand": _set("customers", 0, "demand", 10 ** 400),
    "overflowing fixed cost": _set("fleet", "fixed_cost", 1e308),
    "overflowing legs": _set("depot", [1e308, 0.0]),
    "space id 0": _set("spaces", 0, "id", 0),
    "crawling speed": _set("fleet", "speed", 1e-300),
    "tiny service time": _set("spaces", 0, "service_time", 1e-300),
    "fractional demand": _set("customers", 0, "demand", 2.7),
    "bool locker count": _set("fleet", "max_lockers", True),
    "string capacity": _set("fleet", "capacity", "20"),
    "string window end": _set("spaces", 0, "window", [600.0, "700"]),
}


@pytest.mark.parametrize("command", ["solve", "oracle"])
@pytest.mark.parametrize("mutation", sorted(_INVALID_INSTANCES))
def test_invalid_instance_is_refused(instance_file, tmp_path, capsys, command, mutation):
    doc = json.loads(instance_file.read_text())
    _INVALID_INSTANCES[mutation](doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    solve_flags = ["--agents", "4", "--iters", "5", "--out-dir", str(out_dir)]
    code = run_cli([command, "--instance", str(bad), *(solve_flags if command == "solve" else [])])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert "RESULT" not in captured.out
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["solve", "oracle", "validate"])
def test_oversized_demand_names_the_customer(instance_file, tmp_path, capsys, command):
    doc = json.loads(instance_file.read_text())
    doc["customers"][1]["demand"] = 10 ** 400
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = run_cli([command, "--instance", str(bad)])
    captured = capsys.readouterr()
    rule = f"customer {doc['customers'][1]['id']}: demand above 9007199254740992"
    if command == "validate":
        assert code == 1 and f"instance violation: {rule}" in captured.out
    else:
        assert code == 2 and captured.err.startswith("error: ") and rule in captured.err


@pytest.mark.parametrize("command", ["solve", "oracle", "validate"])
def test_space_id_zero_names_the_space(instance_file, tmp_path, capsys, command):
    doc = json.loads(instance_file.read_text())
    doc["spaces"][0]["id"] = 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = run_cli([command, "--instance", str(bad), "--out-dir", str(tmp_path / "out")]
                   if command == "solve" else [command, "--instance", str(bad)])
    captured = capsys.readouterr()
    rule = "space 0: space id below 1"
    if command == "validate":
        assert code == 1 and f"instance violation: {rule}" in captured.out
    else:
        assert code == 2 and captured.err.startswith("error: ") and rule in captured.err


def test_validate_reports_invalid_instance_without_auditing_the_solution(instance_file,
                                                                        tmp_path, capsys):
    assert run_cli(["solve", "--instance", str(instance_file), "--agents", "4",
                    "--iters", "5", "--out-dir", str(tmp_path / "s")]) == 0
    doc = json.loads(instance_file.read_text())
    _INVALID_INSTANCES["NaN window"](doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    code = run_cli(["validate", "--instance", str(bad),
                    "--solution", str(tmp_path / "s" / "solution.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "instance violation: space 1: non-finite window bounds" in out
    assert "solution not audited" in out
    assert out.splitlines()[-1].endswith("instance_violations=1")


@pytest.mark.parametrize("solution", ["[1, 2]", '{"x1": [0], "x2": [0], "policy": 5}'])
def test_validate_rejects_malformed_solution_file(instance_file, tmp_path, capsys, solution):
    sol_path = tmp_path / "solution.json"
    sol_path.write_text(solution)
    code = run_cli(["validate", "--instance", str(instance_file), "--solution", str(sol_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot parse solution file ")


def test_validate_refuses_an_unknown_solution_policy(instance_file, tmp_path, capsys):
    out_dir = tmp_path / "s"
    assert run_cli(["solve", "--instance", str(instance_file), "--agents", "4",
                    "--iters", "5", "--out-dir", str(out_dir)]) == 0
    sol_path = out_dir / "solution.json"
    solution = json.loads(sol_path.read_text())
    solution["policy"] = "foo"
    sol_path.write_text(json.dumps(solution))
    capsys.readouterr()
    code = run_cli(["validate", "--instance", str(instance_file), "--solution", str(sol_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.splitlines() == [
        f"error: cannot parse solution file {sol_path}: "
        "unknown adjustment policy 'foo'; expected btd or hcps"]
    assert captured.out == ""


@pytest.mark.parametrize("x1,x2", [
    ([0, 0, 0, 0], [0.5, 1, 2, 3]),
    ([0, 0, 0, 0], [0.0, 1, 2, 3]),
    (["0", 0, 0, 0], [0, 1, 2, 3]),
    ([True, 0, 0, 0], [0, 1, 2, 3]),
    ([1e20, 0, 0, 0], [0, 1, 2, 3]),
    (0, [0, 1, 2, 3]),
    ([0, 0, 0, 0], None),
], ids=["half x2", "float x2", "string x1", "bool x1", "1e20 x1", "scalar x1", "null x2"])
def test_validate_accepts_only_integer_lists_as_solution_vectors(tmp_path, capsys, x1, x2):
    inst_path = tmp_path / "inst.json"
    assert run_cli(["generate", "--out", str(inst_path), "--spaces", "3",
                    "--locations", "4", "--seed", "3"]) == 0  # a 4-task pool
    sol_path = tmp_path / "solution.json"
    sol_path.write_text(json.dumps({"x1": [0, 0, 0, 0], "x2": [0, 1, 2, 3]}))
    assert run_cli(["validate", "--instance", str(inst_path), "--solution", str(sol_path)]) == 0
    capsys.readouterr()
    sol_path.write_text(json.dumps({"x1": x1, "x2": x2}))
    code = run_cli(["validate", "--instance", str(inst_path), "--solution", str(sol_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: cannot parse solution file ")
    assert "must be a list of integers" in captured.err
    assert "RESULT" not in captured.out


def test_python_dash_m_runs_the_cli(tmp_path, capsys):
    out = tmp_path / "x.json"
    env = dict(os.environ)
    src = str(Path(mplq.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "mplq.cli", "generate", "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert out.is_file() and "RESULT command=generate" in proc.stdout
    # A fresh process builds its own parser and prints the in-process optimum.
    proc = subprocess.run([sys.executable, "-m", "mplq.cli", "oracle", "--instance", str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert run_cli(["oracle", "--instance", str(out)]) == 0
    assert proc.stdout.splitlines()[-1] == _result_line(capsys)


def test_run_cli_reuses_one_parser(tmp_path, capsys, monkeypatch):
    small, large = tmp_path / "small.json", tmp_path / "large.json"
    assert run_cli(["generate", "--out", str(small), "--spaces", "2", "--locations", "3",
                    "--seed", "3"]) == 0
    assert run_cli(["generate", "--out", str(large), "--spaces", "8", "--locations", "10",
                    "--seed", "1"]) == 0  # a 14-task pool, which the oracle refuses
    calls = [["oracle", "--instance", str(small), "--seed", "1"], ["--help"],
             ["oracle", "--instance", str(small)],
             ["solve", "--instance", str(small), "--agents", "2", "--iters", "3",
              "--out-dir", str(tmp_path / "out")],
             ["oracle", "--instance", str(large)]]

    def run_all():
        capsys.readouterr()
        outcomes = []
        for argv in calls:
            code = run_cli(argv)
            captured = capsys.readouterr()
            outcomes.append((code, captured.out, captured.err))
        return outcomes

    build, built = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    reused = run_all()
    assert len(built) == 1
    monkeypatch.setattr(cli, "_parser", build)  # a fresh parser for every call
    assert run_all() == reused
    assert [code for code, _, _ in reused] == [2, 0, 0, 0, 1]
    assert reused[0][2].startswith("usage: mplq") and reused[1][1].startswith("usage: mplq")
    assert reused[4][2].startswith("refused: the pool holds 14 tasks")


def test_validate_checks_the_state_once_before_scoring_it(tmp_path, capsys, monkeypatch):
    # the CLI checks it where it enters, before scoring it, and check_feasibility
    # as part of its audit; evaluate_solution makes no check of its own
    calls = []
    original = mplq.routing.validate_state

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    modules = [m for name, m in sorted(sys.modules.items())
               if name.startswith("mplq.") and hasattr(m, "validate_state")]
    for module in modules:
        monkeypatch.setattr(module, "validate_state", counted)
    inst_path, out_dir = tmp_path / "inst.json", tmp_path / "out"
    assert run_cli(["generate", "--out", str(inst_path), "--spaces", "6",
                    "--locations", "10", "--seed", "1"]) == 0
    assert run_cli(["solve", "--instance", str(inst_path), "--agents", "2", "--iters", "2",
                    "--out-dir", str(out_dir)]) == 0
    calls.clear()
    capsys.readouterr()
    assert run_cli(["validate", "--instance", str(inst_path),
                    "--solution", str(out_dir / "solution.json")]) == 0
    assert "hard_violations=0" in _result_line(capsys)
    assert len(calls) == 2 and calls[0] == calls[1]


def test_validate_takes_no_seed(instance_file, capsys):
    assert run_cli(["validate", "--instance", str(instance_file), "--seed", "1"]) == 2
    assert capsys.readouterr().err.startswith("usage: mplq")


def test_bench_skips_empty_pools(tmp_path, capsys):
    # generator seed 1 at 2 spaces x 5 locations builds no task; seed 0 builds one
    out_dir = tmp_path / "bench"
    code = run_cli(["bench", "--spaces", "2", "--locations", "5", "--replications", "2",
                    "--seed", "0", "--out-dir", str(out_dir)])
    assert code == 0
    assert "rows=4 hold_pools=0 empty_pools=1" in _result_line(capsys)
    rows = [ln for ln in (out_dir / "grid.csv").read_text().splitlines()
            if ln.startswith("rep,")]
    assert len(rows) == 4 and all(row.split(",")[6] == "0" for row in rows)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("factor", SWEEP_FACTORS)
def test_sweep_refuses_non_finite_values(tmp_path, capsys, factor, value):
    out_dir = tmp_path / "sweep"
    code = run_cli(["sweep", "--factor", factor, f"--values={value}", "--replications", "1",
                    "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2 and captured.err.startswith("error: sweep values must be finite")
    assert "RESULT" not in captured.out and not out_dir.exists()


@pytest.mark.parametrize("factor, value", [("num_spaces", "2.5"), ("num_spaces", "-0.5"),
                                           ("locations_per_space", "7.5"),
                                           ("locations_per_space", "-0.5")])
def test_sweep_refuses_fractional_counts(tmp_path, capsys, factor, value):
    # int() would quietly solve 2 spaces for 2.5 and write the row under 2.5
    out_dir = tmp_path / "sweep"
    code = run_cli(["sweep", "--factor", factor, f"--values=3,{value}", "--replications", "1",
                    "--seed", "0", "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: sweep values of {factor} must be whole numbers")
    assert "RESULT" not in captured.out and not out_dir.exists()


@pytest.mark.parametrize("command", ["bench", "sweep"])
@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_jobs_below_one_is_a_usage_error(tmp_path, capsys, command, jobs):
    args = _SEEDED_COMMANDS[command](tmp_path, None)
    code = run_cli([*args, "--jobs", jobs])
    captured = capsys.readouterr()
    assert code == 2 and captured.err.startswith("usage: mplq")
    assert "RESULT" not in captured.out and not (tmp_path / "out").exists()


def test_sweep_with_no_solvable_pool_exits_cleanly(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code = run_cli(["sweep", "--factor", "num_spaces", "--values", "0", "--replications", "2",
                    "--seed", "0", "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: sweep point num_spaces=0.0: ")
    assert "RESULT" not in captured.out
    assert not out_dir.exists()


# Each command that writes files, with its output path in place of ``out``.
_OUTPUT_COMMANDS = {
    "generate": lambda inst, out: ["generate", "--out", out, "--spaces", "2",
                                   "--locations", "3"],
    "solve": lambda inst, out: ["solve", "--instance", inst, "--out-dir", out],
    "bench": lambda inst, out: ["bench", "--spaces", "2", "--locations", "3",
                                "--out-dir", out],
    "sweep": lambda inst, out: ["sweep", "--factor", "Q", "--values", "10",
                                "--out-dir", out],
}


@pytest.mark.parametrize("command", sorted(_OUTPUT_COMMANDS))
@pytest.mark.parametrize("kind", ["taken", "under a file", "no write permission"])
def test_unwritable_output_is_refused_before_the_work(instance_file, tmp_path, capsys,
                                                      monkeypatch, command, kind):
    work = []
    monkeypatch.setattr(cli, "generate_instance", lambda *args: work.append(args))
    for name in ("solve", "run_grid", "sweep_factor"):
        monkeypatch.setattr(bench, name, lambda *args, **kwargs: work.append(args))
    (tmp_path / "file").write_text("x")
    (tmp_path / "dir").mkdir()
    # generate writes a file, so a directory takes its path; the others write into a directory
    taken = "dir" if command == "generate" else "file"
    out = tmp_path / {"taken": taken, "under a file": "file/sub"}.get(kind, "dir/out")
    if kind == "no write permission":  # stubbed: os.access is always true for root
        monkeypatch.setattr(cli.os, "access", lambda *args, **kwargs: False)
    before = sorted(tmp_path.rglob("*"))
    code = run_cli(_OUTPUT_COMMANDS[command](str(instance_file), str(out)))
    captured = capsys.readouterr()
    assert code == 2 and captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
    assert "RESULT" not in captured.out and not work
    assert sorted(tmp_path.rglob("*")) == before


# Each artifact a command writes under its --out-dir, and whether it is a directory.
_ARTIFACTS = [("solve", name, False) for name in ("plan.csv", "history.csv", "tasks.csv",
                                                  "assignment.csv", "solution.json",
                                                  "metrics.txt")]
_ARTIFACTS += [(command, "plotdata", True) for command in ("bench", "sweep")]
_ARTIFACTS += [("bench", "grid.csv", False), ("sweep", "sweep.csv", False),
               ("sweep", "plotdata/sweep_Q.csv", False)]
_ARTIFACTS += [("bench", f"plotdata/{name}", False) for name in bench.GRID_PLOTS]


@pytest.mark.parametrize("command,name,is_dir", _ARTIFACTS)
def test_an_artifact_path_in_the_way_is_refused_before_the_work(
        instance_file, tmp_path, capsys, monkeypatch, command, name, is_dir):
    work = []
    for attr in ("solve", "run_grid", "sweep_factor"):
        monkeypatch.setattr(bench, attr, lambda *args, **kwargs: work.append(args))
    out = tmp_path / "out"
    in_the_way = out / name
    if is_dir:  # a file where a directory goes
        in_the_way.parent.mkdir(parents=True)
        in_the_way.write_text("x")
    else:
        in_the_way.mkdir(parents=True)
    code = run_cli(_OUTPUT_COMMANDS[command](str(instance_file), str(out)))
    captured = capsys.readouterr()
    assert code == 2 and captured.err == (
        f"error: output path {in_the_way} is {'not ' if is_dir else ''}a directory\n")
    assert "RESULT" not in captured.out and not work


def test_generate_creates_missing_directories(tmp_path, capsys):
    out = tmp_path / "a" / "b" / "inst.json"
    assert run_cli(["generate", "--out", str(out), "--spaces", "2", "--locations", "3"]) == 0
    assert load_instance(out).spaces


def test_a_failed_write_is_one_error_line(instance_file, tmp_path, capsys, monkeypatch):
    def full_disk(path, *args, **kwargs):
        raise OSError(28, "No space left on device", str(path))

    monkeypatch.setattr(bench, "write_table", full_disk)
    out_dir = tmp_path / "out"
    code = run_cli(["solve", "--instance", str(instance_file), "--agents", "2", "--iters", "2",
                    "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2 and captured.err.startswith("error: ") and "plan.csv" in captured.err
    assert len(captured.err.splitlines()) == 1 and "RESULT" not in captured.out


@pytest.mark.parametrize("x1,x2,message", [
    ([0, 0, 0], [0, 1, 2, 3], "must both have length 4"),
    ([0, 0, 0, 99], [0, 1, 2, 3], "x1 references lockers outside"),
    ([0, 0, 0, -1], [0, 1, 2, 3], "x1 references lockers outside"),
    ([0, 0, 0, 0], [0, 1, 1, 3], "x2 is not a permutation"),
], ids=["short x1", "x1 too high", "negative x1", "repeated x2"])
def test_validate_refuses_a_misshapen_solution_as_a_parse_error(tmp_path, capsys,
                                                                x1, x2, message):
    inst_path = tmp_path / "inst.json"
    assert run_cli(["generate", "--out", str(inst_path), "--spaces", "3",
                    "--locations", "4", "--seed", "3"]) == 0  # a 4-task pool
    sol_path = tmp_path / "solution.json"
    sol_path.write_text(json.dumps({"x1": x1, "x2": x2}))
    capsys.readouterr()
    code = run_cli(["validate", "--instance", str(inst_path), "--solution", str(sol_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: cannot parse solution file {sol_path}: ")
    assert message in captured.err and "RESULT" not in captured.out
