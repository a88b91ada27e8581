"""Experiment grid and critical-factor sweeps.

The grid crosses network sizes (parking-space counts x locations per space)
with both solvers and both adjustment strategies, replicated over seeds, and
reports lockers deployed, travel distance, average service delay, reward,
improvement rate, and the per-cell reward gap between strategies. Sweeps vary
one generator factor at a time and record the mean service delay it induces.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from .errors import (ConfigurationError, NothingToSolveError, ParameterError,
                     UndefinedRateError)
from .ga import run_ga
from .hqm import GAMMA, TOL, RunHistory, check_learning_settings, run_hqm
from .instance import GeneratorConfig, Instance, assign_customers, generate_instance
from .routing import (AdjustmentPolicy, compute_delay, hold_can_apply, over_capacity_task,
                      refuse_over_capacity, sum_in_order)
from .state import MAX_AGENTS, MAX_ITERATIONS, BudgetProfile  # noqa: F401  (re-exported)
from .taskgen import TaskPool, build_tasks

SWEEP_FACTORS = (
    "T_s", "T_p", "Q", "V_l", "num_spaces", "locations_per_space", "rho_l", "rho_c",
)
COUNT_FACTORS = ("num_spaces", "locations_per_space")  # swept values must be whole numbers


@dataclass(frozen=True)
class GridConfig:
    spaces_counts: tuple[int, ...] = (5, 6, 7, 8, 9, 10)
    locations_counts: tuple[int, ...] = (5, 10, 15, 20)
    policies: tuple[str, ...] = ("btd", "hcps")
    solvers: tuple[str, ...] = ("hqm", "ga")
    replications: int = 1
    base_config: GeneratorConfig = field(default_factory=GeneratorConfig)
    budget: BudgetProfile = field(default_factory=BudgetProfile.desk)

    def __post_init__(self) -> None:
        if not self.spaces_counts or not self.locations_counts:
            raise ConfigurationError("grid axes must be non-empty")
        if not self.policies or not self.solvers:
            raise ConfigurationError("policies and solvers must be non-empty")
        for solver in self.solvers:
            if solver not in ("hqm", "ga"):
                raise ConfigurationError(f"unknown solver {solver!r}; expected hqm or ga")
        _check_policies(self.policies)
        _replication_seeds(self)


@dataclass(frozen=True)
class CellOutcome:
    """One solver x policy x replication record of a grid cell."""

    spaces: int
    locations: int
    solver: str
    policy: str
    replication: int
    seed: int
    lockers: int
    distance_km: float
    avg_delay_min: float
    reward: float
    improvement_pct: float


@dataclass(frozen=True)
class CellAggregate:
    spaces: int
    locations: int
    solver: str
    policy: str
    lockers_mean_rounded_up: int
    distance_mean: float
    delay_mean: float
    reward_mean: float
    improvement_mean: float


@dataclass(frozen=True)
class GapEntry:
    spaces: int
    locations: int
    solver: str
    reward_gap: float


@dataclass(frozen=True)
class GridResult:
    rows: tuple[CellOutcome, ...]
    hold_pools: int  # (cell, replication) pools a hold can apply to; see hold_can_apply
    empty_pools: int  # (cell, replication) pools with no task, which are skipped
    over_capacity_pools: int  # pools with a task no locker can carry, also skipped

    def cell_aggregates(self) -> list[CellAggregate]:
        return _group_means(self.rows, lambda r: (r.spaces, r.locations, r.solver, r.policy))

    def reward_gaps(self) -> list[GapEntry]:
        """Mean reward under the depot strategy minus the holding strategy, per cell."""
        by_policy: dict[tuple, dict[str, float]] = {}
        for agg in self.cell_aggregates():
            by_policy.setdefault((agg.spaces, agg.locations, agg.solver), {})[agg.policy] = agg.reward_mean
        out = []
        for (spaces, locations, solver), rewards in sorted(by_policy.items()):
            if "btd" in rewards and "hcps" in rewards:
                out.append(GapEntry(spaces, locations, solver,
                                    reward_gap(rewards["btd"], rewards["hcps"])))
        return out

    def block_means(self) -> list[CellAggregate]:
        """Means over all location settings and replications of one spaces count."""
        return _group_means(self.rows, lambda r: (r.spaces, 0, r.solver, r.policy))


@dataclass(frozen=True)
class SweepConfig:
    factor: str
    values: tuple[float, ...]
    replications: int = 10
    base_config: GeneratorConfig = field(default_factory=GeneratorConfig)
    policy: str = "hcps"
    budget: BudgetProfile = field(default_factory=BudgetProfile.desk)

    def __post_init__(self) -> None:
        if self.factor not in SWEEP_FACTORS:
            raise ConfigurationError(
                f"unknown sweep factor {self.factor!r}; expected one of {SWEEP_FACTORS}")
        if not self.values:
            raise ConfigurationError("sweep values must be non-empty")
        if not all(map(math.isfinite, self.values)):
            raise ConfigurationError(f"sweep values must be finite, got {self.values}")
        if self.factor in COUNT_FACTORS and not all(float(v).is_integer() for v in self.values):
            raise ConfigurationError(
                f"sweep values of {self.factor} must be whole numbers, got {self.values}")
        _check_policies((self.policy,))
        _replication_seeds(self)


@dataclass(frozen=True)
class SweepPoint:
    factor: str
    value: float
    mean_delay: float
    stderr: float
    replications: int  # replications solved; empty and over-capacity pools are left out
    over_capacity_pools: int  # replications skipped for a task no locker can carry


def _mean(values: Sequence[float]) -> float:
    return sum_in_order(values) / len(values)


def _stderr(values: Sequence[float]) -> float:
    n = len(values)
    if n < 2:
        return 0.0
    m = _mean(values)
    var = sum_in_order((v - m) ** 2 for v in values) / (n - 1)
    return math.sqrt(var / n)


def _check_policies(policies: Sequence[str]) -> None:
    """Refuse, as a configuration error, a policy that ``AdjustmentPolicy.parse`` refuses.

    ``_solve_pool`` parses a policy only on a pool where a hold can apply.
    """
    for policy in policies:
        try:
            AdjustmentPolicy.parse(policy)
        except ParameterError as exc:
            raise ConfigurationError(str(exc)) from None


def _replication_seeds(config: Union[GridConfig, SweepConfig]) -> tuple[int, ...]:
    """One solver/generator seed per replication, counting up from the base seed."""
    if config.replications < 1:
        raise ConfigurationError("replications must be >= 1")
    return tuple(config.base_config.seed + r for r in range(config.replications))


def _group_means(rows: Sequence[CellOutcome], key: Callable) -> list[CellAggregate]:
    """Per-group means of replication records; ``key`` gives (spaces, locations, solver, policy)."""
    groups: dict[tuple, list[CellOutcome]] = {}
    for row in rows:
        groups.setdefault(key(row), []).append(row)
    out = []
    for (spaces, locations, solver, policy), members in sorted(groups.items()):
        out.append(CellAggregate(
            spaces=spaces, locations=locations, solver=solver, policy=policy,
            lockers_mean_rounded_up=math.ceil(_mean([r.lockers for r in members])),
            distance_mean=_mean([r.distance_km for r in members]),
            delay_mean=_mean([r.avg_delay_min for r in members]),
            reward_mean=_mean([r.reward for r in members]),
            improvement_mean=_mean([r.improvement_pct for r in members]),
        ))
    return out


def _map(fn: Callable, units: list, jobs: int) -> list:
    """``fn`` over ``units`` in order, across ``jobs`` processes when there is more than one."""
    if jobs > 1 and len(units) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as executor:
            return list(executor.map(fn, units))
    return [fn(u) for u in units]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def improvement_rate(history: RunHistory) -> float:
    """Final best reward over initial best reward, as a percentage gain."""
    if history.initial_best == 0:
        raise UndefinedRateError("initial best reward is zero; improvement rate undefined")
    return (history.final_best - history.initial_best) / history.initial_best * 100.0


def reward_gap(reward_btd: float, reward_hcps: float) -> float:
    """Signed difference: depot-strategy reward minus holding-strategy reward."""
    if not (math.isfinite(reward_btd) and math.isfinite(reward_hcps)):
        raise ParameterError("reward gap requires finite rewards")
    return reward_btd - reward_hcps


# ---------------------------------------------------------------------------
# Grid execution
# ---------------------------------------------------------------------------


def solve(pool: TaskPool, instance: Instance, solver: str, policy: AdjustmentPolicy,
          budget: BudgetProfile, seed: int, gamma: float = GAMMA, tol: float = TOL):
    """Run HQM or the GA on one task pool; returns (best state, plan, history).

    The one entry point for either solver: ``mplq solve``, the grid and the
    factor sweeps all come through here. ``gamma`` and ``tol`` steer HQM
    alone, but either solver refuses a value out of range, after refusing a
    pool with a task above the locker capacity.
    """
    if solver == "hqm":
        return run_hqm(pool, instance, policy, budget, seed, gamma, tol)
    if solver == "ga":
        refuse_over_capacity(pool, instance)
        check_learning_settings(gamma, tol)
        return run_ga(pool, instance, policy, budget, seed)
    raise ConfigurationError(f"unknown solver {solver!r}; expected hqm or ga")


def _solve_pool(args: tuple) -> tuple[list[CellOutcome], bool, Optional[str]]:
    """Generate one pool and solve it with every solver x policy.

    ``args`` is (generator config, replication index, solvers, policies,
    budget); the config's seed seeds the solvers too. Also returns whether a
    hold can apply to the pool; if not, HCPS plans equal BTD plans, so each
    solver runs once, under BTD, and its hcps rows reuse it. A pool with no
    task, or with a task above the locker capacity, gives no rows; the third
    item names why ("empty" or "over_capacity"), else None.
    """
    config, rep, solvers, policies, budget = args
    instance = generate_instance(config)
    pool = build_tasks(instance, assign_customers(instance))
    if len(pool) == 0:
        return [], False, "empty"
    if over_capacity_task(pool, instance) is not None:
        return [], False, "over_capacity"
    hold = hold_can_apply(pool, instance)
    rows = []
    for solver in solvers:
        runs = {}
        for policy_name in policies:
            policy = AdjustmentPolicy.parse(policy_name) if hold else AdjustmentPolicy.BTD
            if policy not in runs:
                runs[policy] = solve(pool, instance, solver, policy, budget, config.seed)
            best, plan, history = runs[policy]
            _, avg_delay = compute_delay(plan)
            rows.append(CellOutcome(
                spaces=config.num_spaces, locations=config.locations_per_space,
                solver=solver, policy=policy_name, replication=rep, seed=config.seed,
                lockers=plan.lockers_dispatched,
                distance_km=plan.total_distance,
                avg_delay_min=avg_delay,
                reward=best.reward,
                improvement_pct=improvement_rate(history),
            ))
    return rows, hold, None


def run_grid(grid: GridConfig, jobs: int = 1) -> GridResult:
    """Run the full grid; every solver/policy pair sees identical instances.

    Pools with no task are skipped and counted in ``empty_pools``, pools with a
    task above the locker capacity in ``over_capacity_pools``.
    """
    seeds = _replication_seeds(grid)
    units = [
        (replace(grid.base_config, num_spaces=spaces, locations_per_space=locations,
                 seed=seeds[rep]), rep, grid.solvers, grid.policies, grid.budget)
        for spaces in grid.spaces_counts
        for locations in grid.locations_counts
        for rep in range(grid.replications)
    ]
    outcomes = _map(_solve_pool, units, jobs)
    rows = [row for chunk, _, _ in outcomes for row in chunk]
    rows.sort(key=lambda r: (r.spaces, r.locations, r.replication, r.solver, r.policy))
    skipped = [skip for _, _, skip in outcomes]
    return GridResult(rows=tuple(rows), hold_pools=sum(hold for _, hold, _ in outcomes),
                      empty_pools=skipped.count("empty"),
                      over_capacity_pools=skipped.count("over_capacity"))


# ---------------------------------------------------------------------------
# Factor sweeps
# ---------------------------------------------------------------------------


def apply_factor(base: GeneratorConfig, factor: str, value: float) -> GeneratorConfig:
    """Rebuild a generator config with one swept factor pinned to ``value``.

    The two time-window factors set the span range to [value - 20, value + 20]
    (floored at 1 minute); the walking-range factor spreads +-0.1 km around the
    value.
    """
    if factor == "T_s":
        return replace(base, customer_span_range=(max(1.0, value - 20.0), value + 20.0))
    if factor == "T_p":
        return replace(base, parking_span_range=(max(1.0, value - 20.0), value + 20.0))
    if factor == "Q":
        return replace(base, capacity=value)
    if factor == "V_l":
        return replace(base, locker_speed=value)
    if factor == "num_spaces":
        return replace(base, num_spaces=int(value))
    if factor == "locations_per_space":
        return replace(base, locations_per_space=int(value))
    if factor == "rho_l":
        return replace(base, service_radius=value)
    if factor == "rho_c":
        return replace(base, walk_range=(max(0.05, value - 0.1), value + 0.1))
    raise ConfigurationError(f"unknown sweep factor {factor!r}")


def sweep_factor(sweep: SweepConfig, jobs: int = 1) -> list[SweepPoint]:
    """Delay response of one factor across its axis values; seeds pair across values.

    Each point is HQM's mean delay over the replications whose pool holds
    tasks a locker can carry.
    """
    seeds = _replication_seeds(sweep)
    units = [
        (apply_factor(replace(sweep.base_config, seed=seed), sweep.factor, value), rep,
         ("hqm",), (sweep.policy,), sweep.budget)
        for value in sweep.values
        for rep, seed in enumerate(seeds)
    ]
    outcomes = _map(_solve_pool, units, jobs)
    points = []
    for i, value in enumerate(sweep.values):
        chunk = outcomes[i * len(seeds):(i + 1) * len(seeds)]
        delays = [row.avg_delay_min for rows, _, _ in chunk for row in rows]
        if not delays:
            raise NothingToSolveError(f"sweep point {sweep.factor}={value}: every task pool "
                                      "is empty or holds a task above the locker capacity")
        points.append(SweepPoint(
            factor=sweep.factor, value=value, mean_delay=_mean(delays),
            stderr=_stderr(delays), replications=len(delays),
            over_capacity_pools=[skip for _, _, skip in chunk].count("over_capacity")))
    return points


# ---------------------------------------------------------------------------
# CSV / plot-data output
# ---------------------------------------------------------------------------


def write_grid_csv(result: GridResult, path: Union[str, Path],
                   header_comment: Optional[str] = None) -> None:
    """One row per replication record, then cell/gap/block aggregate rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["kind", "spaces", "locations", "solver", "policy", "replication",
                         "seed", "lockers", "distance_km", "avg_delay_min", "reward",
                         "improvement_pct", "reward_gap"])
        for r in result.rows:
            writer.writerow(["rep", r.spaces, r.locations, r.solver, r.policy,
                             r.replication, r.seed, r.lockers, repr(r.distance_km),
                             repr(r.avg_delay_min), repr(r.reward),
                             repr(r.improvement_pct), ""])
        for a in result.cell_aggregates():
            writer.writerow(["cell_mean", a.spaces, a.locations, a.solver, a.policy, "",
                             "", a.lockers_mean_rounded_up, repr(a.distance_mean),
                             repr(a.delay_mean), repr(a.reward_mean),
                             repr(a.improvement_mean), ""])
        for g in result.reward_gaps():
            writer.writerow(["gap", g.spaces, g.locations, g.solver, "", "", "", "", "",
                             "", "", "", repr(g.reward_gap)])
        for a in result.block_means():
            writer.writerow(["block_mean", a.spaces, "", a.solver, a.policy, "", "",
                             a.lockers_mean_rounded_up, repr(a.distance_mean),
                             repr(a.delay_mean), repr(a.reward_mean),
                             repr(a.improvement_mean), ""])


def write_sweep_csv(points: Sequence[SweepPoint], path: Union[str, Path],
                    header_comment: Optional[str] = None) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["factor", "value", "mean_delay_min", "stderr", "replications",
                         "over_capacity_pools"])
        for p in points:
            writer.writerow([p.factor, repr(p.value), repr(p.mean_delay),
                             repr(p.stderr), p.replications, p.over_capacity_pools])


def write_plotdata(result_or_points, out_dir: Union[str, Path]) -> list[Path]:
    """Long-format (x, y, series) files, one per plotted metric."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if isinstance(result_or_points, GridResult):
        metrics = {
            "lockers": lambda a: a.lockers_mean_rounded_up,
            "distance": lambda a: a.distance_mean,
            "delay": lambda a: a.delay_mean,
            "reward": lambda a: a.reward_mean,
        }
        aggregates = result_or_points.cell_aggregates()
        for name, getter in metrics.items():
            written.append(_write_series(out_dir / f"grid_{name}.csv", [
                [a.locations, repr(float(getter(a))), f"{a.solver}-{a.policy}-spaces{a.spaces}"]
                for a in aggregates]))
    else:
        points = list(result_or_points)
        if points:
            written.append(_write_series(out_dir / f"sweep_{points[0].factor}.csv", [
                [repr(pt.value), repr(pt.mean_delay), pt.factor] for pt in points]))
    return written


def _write_series(path: Path, rows: Sequence[list]) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "series"])
        writer.writerows(rows)
    return path


__all__ = [
    "SWEEP_FACTORS",
    "COUNT_FACTORS",
    "BudgetProfile",
    "GridConfig",
    "CellOutcome",
    "CellAggregate",
    "GapEntry",
    "GridResult",
    "SweepConfig",
    "SweepPoint",
    "improvement_rate",
    "reward_gap",
    "solve",
    "apply_factor",
    "run_grid",
    "sweep_factor",
    "write_grid_csv",
    "write_sweep_csv",
    "write_plotdata",
]
