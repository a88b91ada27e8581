"""Command-line driver: generate, solve, validate, oracle, bench, sweep.

generate, solve, bench and sweep take a non-negative --seed (falling back to
the MPLQ_SEED environment variable, then 0); the other two commands draw no
random numbers.
solve's plan.csv, history.csv, metrics.txt and solution.json, bench's
grid.csv and sweep's sweep.csv record the resolved configuration, so any run
can be reproduced from its artifacts. A final machine-readable RESULT line of
key=value pairs is printed on success.

Exit codes: 0 success, 1 infeasible result or refused computation, 2 usage,
file-parse or invalid-instance error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from . import bench
from .bench import write_assignment_csv, write_history_csv, write_plan_csv, write_taskpool_csv
from .errors import (ConfigurationError, InstanceFormatError, MplqError,
                     ParameterError, SearchSpaceLimitError, ShapeError)
# run_hqm and run_ga are called only through bench.solve; perfbench/layers.py
# still wraps these two bindings by name, so they stay imported here.
from .ga import run_ga  # noqa: F401
from .hqm import GAMMA, TOL, run_hqm  # noqa: F401
from .instance import (GeneratorConfig, assign_customers, generate_instance, json_float,
                       json_int, load_instance, save_instance, validate_instance)
from .oracle import brute_force_best
from .routing import (AdjustmentPolicy, RouteMemo, TravelNoise, check_feasibility,
                      compute_delay, evaluate_solution)
from .state import BudgetProfile, SearchState, effective_locker_count, validate_state
from .taskgen import build_tasks

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2


def _resolve_seed(value: Optional[int], source: str = "--seed") -> int:
    """``value`` (named ``source`` in errors), else MPLQ_SEED, else 0."""
    if value is None:
        env = os.environ.get("MPLQ_SEED")
        if env is None:
            return 0
        source = "MPLQ_SEED"
        try:
            value = int(env)
        except ValueError:
            raise ConfigurationError(f"MPLQ_SEED must be an integer, got {env!r}")
    if value < 0:
        raise ConfigurationError(f"{source} must be a non-negative integer, got {value}")
    return value


def _config_line(args: argparse.Namespace, seed: int) -> str:
    pairs = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    pairs["seed"] = seed
    return "config " + " ".join(f"{k}={v}" for k, v in pairs.items())


def _print_result(**pairs) -> None:
    print("RESULT " + " ".join(f"{k}={v}" for k, v in pairs.items()))


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _output_path(path: str, is_dir: bool, files: Sequence[str] = ()) -> Path:
    """``path`` checked before any work: a usage error unless it can be written.

    An existing ``path`` must be a directory exactly when ``is_dir``, and the
    nearest existing directory above what is missing must be writable. Each
    of the ``files`` written under a directory ``path`` is held to the same
    rule, a directory exactly when its name ends in ``/``. Nothing is created
    here, so a command refused later leaves nothing behind.
    """
    out = Path(path)
    for target, want_dir in [(out, is_dir), *((out / f, f.endswith("/")) for f in files)]:
        if target.exists() and target.is_dir() != want_dir:
            raise ConfigurationError(f"output path {target} "
                                     f"{'is not a directory' if want_dir else 'is a directory'}")
    base = out.absolute() if is_dir else out.absolute().parent
    while not base.exists():
        base = base.parent
    if not base.is_dir() or not os.access(base, os.W_OK | os.X_OK):
        raise ConfigurationError(f"cannot write output {path}: {base} is not a writable "
                                 "directory")
    return out


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_generate(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    out = _output_path(args.out, is_dir=False)
    config = GeneratorConfig(
        num_spaces=args.spaces,
        locations_per_space=args.locations,
        service_radius=args.service_radius,
        seed=seed,
        capacity=args.capacity,
        locker_speed=args.speed,
        buffer_min=args.buffer,
    )
    if args.max_lockers is not None:
        config = replace(config, max_lockers=args.max_lockers)
    instance = generate_instance(config)
    report = validate_instance(instance)
    if not report.ok:
        for v in report.violations:
            print(f"violation: {v.entity}: {v.rule}", file=sys.stderr)
        return EXIT_INFEASIBLE
    out.parent.mkdir(parents=True, exist_ok=True)
    save_instance(instance, out)
    _print_result(command="generate", seed=seed, out=args.out,
                  spaces=len(instance.spaces), customers=len(instance.customers))
    return EXIT_OK


def _load_valid_instance(path: str):
    """Load an instance and refuse it, naming every violation, unless it is sound."""
    instance = load_instance(path)
    report = validate_instance(instance)
    if not report.ok:
        raise InstanceFormatError(f"{path}: invalid instance: " + "; ".join(
            f"{v.entity}: {v.rule}" for v in report.violations))
    return instance


def _prepare(instance):
    """Assign customers and build the task pool: (assignment, pool)."""
    assignment = assign_customers(instance)
    return assignment, build_tasks(instance, assignment)


# Solver config file keys and the reading each value must pass, given the value and its key.
_SOLVER_CONFIG_KEYS = {"agents": json_int, "timesteps": json_int, "gamma": json_float,
                       "tol": json_float, "seed": json_int,
                       "policy": lambda v, _: AdjustmentPolicy.parse(str(v))}


def _load_solver_config(path: Optional[str]) -> dict:
    """Solver config file: JSON with keys agents, timesteps, gamma, tol, seed, policy."""
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise InstanceFormatError(f"cannot read solver config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except ValueError as exc:  # an integer literal too long to convert
        raise InstanceFormatError(f"{path}: invalid JSON: {exc}")
    if not isinstance(data, dict):
        raise InstanceFormatError(f"{path}: solver config must be a JSON object")
    unknown = sorted(set(data) - set(_SOLVER_CONFIG_KEYS))
    if unknown:
        raise InstanceFormatError(f"{path}: unknown solver config keys {unknown}")
    try:
        return {key: _SOLVER_CONFIG_KEYS[key](value, key) for key, value in data.items()}
    except (TypeError, ParameterError) as exc:
        raise InstanceFormatError(f"{path}: bad solver config value: {exc}")


def _cmd_solve(args: argparse.Namespace) -> int:
    file_cfg = _load_solver_config(args.config)

    def pick(flag, key, default):  # explicit flag, else config file, else default
        return flag if flag is not None else file_cfg.get(key, default)

    if args.seed is None and "seed" in file_cfg:
        seed = _resolve_seed(file_cfg["seed"], f"{args.config}: seed")
    else:
        seed = _resolve_seed(args.seed)
    noise = TravelNoise(sigma=args.noise_sigma, seed=seed)  # refuses a bad sigma before solving
    desk = BudgetProfile.desk()
    budget = BudgetProfile(agents=pick(args.agents, "agents", desk.agents),
                           iterations=pick(args.iters, "timesteps", desk.iterations))
    policy = (AdjustmentPolicy.parse(args.policy) if args.policy is not None
              else file_cfg.get("policy", AdjustmentPolicy.HCPS))
    out_dir = _output_path(args.out_dir, is_dir=True, files=(
        "plan.csv", "history.csv", "tasks.csv", "assignment.csv", "solution.json", "metrics.txt"))

    instance = _load_valid_instance(args.instance)
    assignment, pool = _prepare(instance)
    best, plan, history = bench.solve(pool, instance, args.solver, policy, budget, seed,
                                      gamma=pick(args.gamma, "gamma", GAMMA),
                                      tol=pick(args.tol, "tol", TOL))
    if noise.sigma > 0:
        plan, _ = evaluate_solution(best, RouteMemo(pool, instance, policy, noise))

    feasibility = check_feasibility(plan, best, pool, instance)
    total_delay, avg_delay = compute_delay(plan)
    header = _config_line(args, seed)

    out_dir.mkdir(parents=True, exist_ok=True)
    write_plan_csv(plan, pool, out_dir / "plan.csv", header_comment=header)
    write_history_csv(history, out_dir / "history.csv", header_comment=header)
    write_taskpool_csv(pool, out_dir / "tasks.csv")
    write_assignment_csv(instance, assignment, out_dir / "assignment.csv")
    solution = {
        "config": header,
        "solver": args.solver,
        "policy": policy.value,
        "seed": seed,
        "x1": list(best.x1),
        "x2": list(best.x2),
        "reward": best.reward,
    }
    (out_dir / "solution.json").write_text(json.dumps(solution, indent=2) + "\n",
                                           encoding="utf-8")

    improvement = bench.improvement_rate(history)
    metrics = dict(
        command="solve", solver=args.solver, policy=policy.value, seed=seed,
        tasks=len(pool), unassignable=len(assignment.unassignable),
        unservable=len(pool.unservable), lockers=plan.lockers_dispatched,
        distance_km=repr(plan.total_distance), total_delay_min=repr(total_delay),
        avg_delay_min=repr(avg_delay), reward=repr(best.reward),
        improvement_pct=repr(improvement),
        converged_step=history.convergence_step,
        hard_violations=len(feasibility.hard()),
    )
    (out_dir / "metrics.txt").write_text(
        f"# {header}\n" + "\n".join(f"{k}={v}" for k, v in metrics.items()) + "\n",
        encoding="utf-8")
    _print_result(**metrics)
    return EXIT_OK if not feasibility.hard() else EXIT_INFEASIBLE


def _int_vector(values, name: str) -> tuple[int, ...]:
    """A solution vector: a JSON list of integers, never a bool, float or string."""
    if not isinstance(values, list) or any(type(v) is not int for v in values):
        raise ValueError(f"{name} must be a list of integers, got {values!r:.80}")
    return tuple(values)


def _cmd_validate(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    report = validate_instance(instance)
    violations = 0
    for v in report.violations:
        print(f"instance violation: {v.entity}: {v.rule}")
        violations += 1

    if args.solution and report.ok:
        try:
            data = json.loads(Path(args.solution).read_text(encoding="utf-8"))
            state = SearchState(x1=_int_vector(data["x1"], "x1"),
                                x2=_int_vector(data["x2"], "x2"))
            policy = AdjustmentPolicy.parse(data.get("policy", "hcps"))
        except (OSError, ValueError, KeyError, TypeError, AttributeError,
                ParameterError) as exc:
            raise InstanceFormatError(f"cannot parse solution file {args.solution}: {exc}")
        _, pool = _prepare(instance)
        try:  # the state enters from outside here: check its shape before scoring it
            validate_state(state, len(pool), instance.fleet.max_lockers)
        except ShapeError as exc:
            raise InstanceFormatError(f"cannot parse solution file {args.solution}: {exc}")
        plan, cost = evaluate_solution(state, RouteMemo(pool, instance, policy))
        feasibility = check_feasibility(plan, state, pool, instance)
        for v in feasibility.violations:
            print(f"constraint ({v.constraint}) {v.severity}: {v.entity}: {v.description}")
        violations += len(feasibility.hard())
        _print_result(command="validate", instance=args.instance,
                      solution=args.solution, reward=repr(cost.reward),
                      hard_violations=len(feasibility.hard()),
                      soft_violations=len(feasibility.soft()))
    else:
        if args.solution:
            print("solution not audited: the instance has violations")
        _print_result(command="validate", instance=args.instance,
                      instance_violations=len(report.violations))

    return EXIT_OK if violations == 0 else EXIT_INFEASIBLE


def _cmd_oracle(args: argparse.Namespace) -> int:
    instance = _load_valid_instance(args.instance)
    _, pool = _prepare(instance)
    policy = AdjustmentPolicy.parse(args.policy)
    lockers = effective_locker_count(instance.fleet.max_lockers, len(pool))
    try:
        best, reward = brute_force_best(pool, instance, policy)
    except SearchSpaceLimitError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    _print_result(command="oracle", policy=args.policy, tasks=len(pool), lockers=lockers,
                  reward=repr(reward), x1=",".join(map(str, best.x1)),
                  x2=",".join(map(str, best.x2)))
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    grid = bench.GridConfig(
        spaces_counts=args.spaces,
        locations_counts=args.locations,
        policies=args.policies,
        solvers=args.solvers,
        replications=args.replications,
        base_config=replace(GeneratorConfig(), seed=seed),
        budget=BudgetProfile.named(args.budget),
    )
    out_dir = _output_path(args.out_dir, is_dir=True, files=(
        "grid.csv", "plotdata/", *(f"plotdata/{name}" for name in bench.GRID_PLOTS)))
    result = bench.run_grid(grid, jobs=args.jobs)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = _config_line(args, seed)
    bench.write_grid_csv(result, out_dir / "grid.csv", header_comment=header)
    bench.write_plotdata(result, out_dir / "plotdata")
    _print_result(command="bench", seed=seed, cells=len(args.spaces) * len(args.locations),
                  replications=args.replications, rows=len(result.rows),
                  hold_pools=result.hold_pools, empty_pools=result.empty_pools,
                  over_capacity_pools=result.over_capacity_pools,
                  out=str(out_dir / "grid.csv"))
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    sweep = bench.SweepConfig(
        factor=args.factor,
        values=args.values,
        replications=args.replications,
        base_config=replace(GeneratorConfig(), seed=seed),
        policy=args.policy,
        budget=BudgetProfile.named(args.budget),
    )
    out_dir = _output_path(args.out_dir, is_dir=True, files=(
        "sweep.csv", "plotdata/", "plotdata/" + bench.SWEEP_PLOT.format(args.factor)))
    points = bench.sweep_factor(sweep, jobs=args.jobs)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = _config_line(args, seed)
    bench.write_sweep_csv(points, out_dir / "sweep.csv", header_comment=header)
    bench.write_plotdata(points, out_dir / "plotdata")
    _print_result(command="sweep", seed=seed, factor=args.factor, points=len(points),
                  over_capacity_pools=sum(p.over_capacity_pools for p in points),
                  out=str(out_dir / "sweep.csv"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mplq",
        description="Mobile parcel locker location-routing toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a random instance file")
    p.add_argument("--out", required=True)
    p.add_argument("--spaces", type=int, default=5)
    p.add_argument("--locations", type=int, default=5)
    p.add_argument("--service-radius", type=float, default=5.0)
    p.add_argument("--capacity", type=float, default=20.0)
    p.add_argument("--speed", type=float, default=0.7)
    p.add_argument("--buffer", type=float, default=10.0)
    p.add_argument("--max-lockers", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve", help="solve an instance with hqm or ga")
    p.add_argument("--instance", required=True)
    p.add_argument("--solver", choices=("hqm", "ga"), default="hqm")
    p.add_argument("--policy", choices=("btd", "hcps"), default=None)
    p.add_argument("--agents", type=int, default=None)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--config", default=None,
                   help="JSON solver config (agents, timesteps, gamma, tol, seed, policy)")
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("validate", help="validate an instance and optionally a solution")
    p.add_argument("--instance", required=True)
    p.add_argument("--solution", default=None)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("oracle", help="exact optimum of a small instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--policy", choices=("btd", "hcps"), default="hcps")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bench", help="run the experiment grid")
    p.add_argument("--spaces", type=_int_list, default=(5,))
    p.add_argument("--locations", type=_int_list, default=(5,))
    p.add_argument("--solvers", type=_str_list, default=("hqm", "ga"))
    p.add_argument("--policies", type=_str_list, default=("btd", "hcps"))
    p.add_argument("--replications", type=int, default=1)
    p.add_argument("--budget", choices=("desk", "paper"), default="desk")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default="bench_out")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("sweep", help="sweep one critical factor against delay")
    p.add_argument("--factor", choices=bench.SWEEP_FACTORS, required=True)
    p.add_argument("--values", type=_float_list, required=True)
    p.add_argument("--replications", type=int, default=10)
    p.add_argument("--policy", choices=("btd", "hcps"), default="hcps")
    p.add_argument("--budget", choices=("desk", "paper"), default="desk")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default="sweep_out")
    p.set_defaults(func=_cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """This process's parser, built on the first ``run_cli`` call and reused after.

    Building the parser costs about 30 times as much as parsing one command
    line, and parsing leaves the parser unchanged.
    """
    return build_parser()


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (InstanceFormatError, ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MplqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(run_cli())


if __name__ == "__main__":
    main()


__all__ = ["run_cli", "main", "build_parser"]
