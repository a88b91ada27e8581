"""Experiment grid and critical-factor sweeps.

The grid crosses network sizes (parking-space counts x locations per space)
with both solvers and both adjustment strategies, replicated over seeds, and
reports lockers deployed, travel distance, average service delay, reward,
improvement rate, and the per-cell reward gap between strategies. Sweeps vary
one generator factor at a time and record the mean service delay it induces.
Both generate, and so check, every unit's instance before the first solve.
Every CSV artifact, of a solve too, is written here through ``write_table``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Collection, Iterable, Optional, Sequence, Union

from .errors import (ConfigurationError, NothingToSolveError, OverCapacityError,
                     ParameterError, UndefinedRateError)
from .ga import run_ga
from .hqm import GAMMA, TOL, RunHistory, check_learning_settings, run_hqm
from .instance import Assignment, GeneratorConfig, Instance, assign_customers, generate_instance
from .routing import (Adjustment, AdjustmentPolicy, RoutePlan, check_pool, compute_delay,
                      hold_can_apply, sum_in_order)
from .state import BudgetProfile
from .taskgen import TaskPool, build_tasks

# The name tables, with BudgetProfile.NAMED; every name a run reads is looked up
# by ``spelling``. SOLVERS holds names only: ``solve`` calls each solver through
# this module's run_hqm or run_ga binding, which perfbench wraps.
SOLVERS = ("hqm", "ga")
POLICIES = tuple(policy.value for policy in AdjustmentPolicy)
# Each sweep factor: the ``GeneratorConfig`` field it sets, and that field's value
# at a swept value v; a span or walking range is centred on v.
SWEEP_FACTORS: dict[str, tuple[str, Callable[[float], object]]] = {
    "T_s": ("customer_span_range", lambda v: (max(1.0, v - 20.0), v + 20.0)),
    "T_p": ("parking_span_range", lambda v: (max(1.0, v - 20.0), v + 20.0)),
    "Q": ("capacity", float),
    "V_l": ("locker_speed", float),
    "num_spaces": ("num_spaces", int),
    "locations_per_space": ("locations_per_space", int),
    "rho_l": ("service_radius", float),
    "rho_c": ("walk_range", lambda v: (max(0.05, v - 0.1), v + 0.1)),
}
# The factors whose swept values must be whole numbers.
COUNT_FACTORS = tuple(name for name, (_, setting) in SWEEP_FACTORS.items() if setting is int)


def spelling(table: Collection[str], name: str) -> str:
    """``name`` as ``table`` spells it when it names an entry in any case, else unchanged."""
    return next((entry for entry in table if entry.lower() == name.lower()), name)


def _name(table: Collection[str], name: str, kind: str) -> str:
    """``name`` as ``table`` spells it; one matching no entry in any case is refused."""
    entry = spelling(table, name)
    if entry not in table:
        raise ConfigurationError(f"unknown {kind} {name!r}; expected {' or '.join(table)}")
    return entry


@dataclass(frozen=True)
class GridConfig:
    spaces_counts: tuple[int, ...] = (5, 6, 7, 8, 9, 10)
    locations_counts: tuple[int, ...] = (5, 10, 15, 20)
    policies: tuple[str, ...] = POLICIES
    solvers: tuple[str, ...] = SOLVERS
    replications: int = 1
    base_config: GeneratorConfig = field(default_factory=GeneratorConfig)
    budget: BudgetProfile = field(default_factory=BudgetProfile.desk)

    def __post_init__(self) -> None:
        if not self.spaces_counts or not self.locations_counts:
            raise ConfigurationError("grid axes must be non-empty")
        if not self.policies or not self.solvers:
            raise ConfigurationError("policies and solvers must be non-empty")
        object.__setattr__(self, "solvers", tuple(_name(SOLVERS, s, "solver")
                                                  for s in self.solvers))
        object.__setattr__(self, "policies", tuple(_name(POLICIES, p, "adjustment policy")
                                                   for p in self.policies))
        for axis in (self.solvers, self.policies):
            if len(set(axis)) < len(axis):
                raise ConfigurationError(f"solvers and policies must not repeat, got {axis}")
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
        object.__setattr__(self, "factor", _name(SWEEP_FACTORS, self.factor, "sweep factor"))
        if not self.values:
            raise ConfigurationError("sweep values must be non-empty")
        if not all(map(math.isfinite, self.values)):
            raise ConfigurationError(f"sweep values must be finite, got {self.values}")
        if self.factor in COUNT_FACTORS and not all(float(v).is_integer() for v in self.values):
            raise ConfigurationError(
                f"sweep values of {self.factor} must be whole numbers, got {self.values}")
        object.__setattr__(self, "policy", _name(POLICIES, self.policy, "adjustment policy"))
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


def _solve_pools(units: list[tuple], jobs: int) -> list:
    """``_solve_pool`` over ``units`` of (generator config, ...) in order, across ``jobs``
    processes when there is more than one, each unit handed its config's instance.
    Every instance is generated, and so checked, before the first solve."""
    units = [(generate_instance(config), config, *rest) for config, *rest in units]
    if jobs > 1 and len(units) > 1:
        # imported here: multiprocessing would load on every mplq command otherwise
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as executor:
            return list(executor.map(_solve_pool, units))
    return [_solve_pool(u) for u in units]


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
    alone, but either solver refuses a value out of range, before refusing a
    pool that ``routing.check_pool`` refuses.
    """
    if solver == "hqm":
        return run_hqm(pool, instance, policy, budget, seed, gamma, tol)
    if solver == "ga":
        check_learning_settings(gamma, tol)
        return run_ga(pool, instance, policy, budget, seed)
    raise ConfigurationError(f"unknown solver {solver!r}; expected {' or '.join(SOLVERS)}")


def _solve_pool(args: tuple) -> tuple[list[CellOutcome], bool, Optional[str]]:
    """Solve one generated pool with every solver x policy.

    ``args`` is (instance, the generator config that made it, replication
    index, solvers, policies, budget); the config's seed seeds the solvers
    too. Also returns whether a hold can apply to the pool; if not, HCPS plans
    equal BTD plans, so each solver runs once, under BTD, and its hcps rows
    reuse it. A pool that ``routing.check_pool`` refuses gives no rows; the
    third item names why ("empty" or "over_capacity"), else None.
    """
    instance, config, rep, solvers, policies, budget = args
    pool = build_tasks(instance, assign_customers(instance))
    try:
        check_pool(pool, instance)
    except NothingToSolveError:
        return [], False, "empty"
    except OverCapacityError:
        return [], False, "over_capacity"
    hold = hold_can_apply(pool, instance)
    rows = []
    for solver in solvers:
        runs = {}
        for policy_name in policies:
            policy = AdjustmentPolicy(policy_name) if hold else AdjustmentPolicy.BTD
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
    outcomes = _solve_pools(units, jobs)
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
    """Rebuild a generator config with one swept factor pinned to ``value``, as
    ``SWEEP_FACTORS`` maps it."""
    setting, of = SWEEP_FACTORS[_name(SWEEP_FACTORS, factor, "sweep factor")]
    return replace(base, **{setting: of(value)})


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
    outcomes = _solve_pools(units, jobs)
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


def write_table(path: Union[str, Path], columns: Sequence[str], rows: Iterable[Sequence],
                header_comment: Optional[str] = None) -> Path:
    """Write the one CSV format of every artifact; returns the path.

    An optional ``# comment`` line, the column line, then one comma-joined
    line of ``str`` fields per row, every line ended by LF, in UTF-8. No
    field holds a comma, a quote or a line break, so none is quoted.
    """
    lines = [f"# {header_comment}"] if header_comment else []
    lines.append(",".join(columns))
    lines.extend(",".join(map(str, row)) for row in rows)
    path = Path(path)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_plan_csv(plan: RoutePlan, pool: TaskPool, path: Union[str, Path],
                   header_comment: Optional[str] = None) -> None:
    """Leg-by-leg CSV of a plan, legs counted per locker; depot legs have blank visit columns."""
    rows = []
    for locker, route in zip(plan.lockers, plan.routes):
        legs, prev_node = [], 0
        for v in route.visits:
            node = pool.tasks[v.task_id].space_id
            if v.adjustment is Adjustment.BTD and legs:
                legs.append((prev_node, 0, "", "", "", 0, "btd", ""))
                prev_node = 0
            legs.append((prev_node, node, repr(v.arrival), repr(v.service_start), repr(v.leave),
                         repr(v.load_after), v.adjustment.value, repr(v.lateness)))
            prev_node = node
        legs.append((prev_node, 0, repr(route.depot_return), "", "", "", "none", ""))
        rows += [(locker, leg, *fields) for leg, fields in enumerate(legs)]
    write_table(path, ("locker_id", "leg_index", "from_node", "to_node", "arrive_min",
                       "start_min", "leave_min", "load", "adjustment", "lateness_min"),
                rows, header_comment)


def write_history_csv(history: RunHistory, path: Union[str, Path],
                      header_comment: Optional[str] = None) -> None:
    best = [history.initial_best, *history.best_per_step]  # timestep 0 is the initial best
    write_table(path, ("timestep", "best_reward"),
                ((t, repr(r)) for t, r in enumerate(best)), header_comment)


def write_taskpool_csv(pool: TaskPool, path: Union[str, Path]) -> None:
    write_table(path, ("task_id", "space_id", "a", "e_min", "l_min", "q",
                       "member_customer_ids"),
                ((tid, t.space_id, t.sub_index, repr(t.window.start), repr(t.window.end),
                  t.demand, ";".join(str(cid) for cid, _ in t.members))
                 for tid, t in enumerate(pool.tasks)))


def write_assignment_csv(instance: Instance, assignment: Assignment,
                         path: Union[str, Path]) -> None:
    """The assignment table (assigned customers only)."""
    rows = []
    for cid in sorted(assignment.assigned):
        space_id, loc_idx = assignment.assigned[cid]
        d = instance.customer_by_id(cid).locations[loc_idx].position.distance_to(
            instance.space_by_id(space_id).position)
        rows.append((cid, space_id, loc_idx, repr(d)))
    write_table(path, ("customer_id", "space_id", "location_index", "distance_km"), rows)


def write_grid_csv(result: GridResult, path: Union[str, Path],
                   header_comment: Optional[str] = None) -> None:
    """One row per replication record, then cell/gap/block aggregate rows."""
    def means(kind: str, a: CellAggregate, locations) -> tuple:
        return (kind, a.spaces, locations, a.solver, a.policy, "", "", a.lockers_mean_rounded_up,
                *map(repr, (a.distance_mean, a.delay_mean, a.reward_mean, a.improvement_mean)), "")

    rows = [("rep", r.spaces, r.locations, r.solver, r.policy, r.replication, r.seed, r.lockers,
             *map(repr, (r.distance_km, r.avg_delay_min, r.reward, r.improvement_pct)), "")
            for r in result.rows]
    rows += [means("cell_mean", a, a.locations) for a in result.cell_aggregates()]
    rows += [("gap", g.spaces, g.locations, g.solver, *[""] * 8, repr(g.reward_gap))
             for g in result.reward_gaps()]
    rows += [means("block_mean", a, "") for a in result.block_means()]
    write_table(path, ("kind", "spaces", "locations", "solver", "policy", "replication",
                       "seed", "lockers", "distance_km", "avg_delay_min", "reward",
                       "improvement_pct", "reward_gap"), rows, header_comment)


def write_sweep_csv(points: Sequence[SweepPoint], path: Union[str, Path],
                    header_comment: Optional[str] = None) -> None:
    write_table(path, ("factor", "value", "mean_delay_min", "stderr", "replications",
                       "over_capacity_pools"),
                ((p.factor, repr(p.value), repr(p.mean_delay), repr(p.stderr),
                  p.replications, p.over_capacity_pools) for p in points),
                header_comment)


# The plotdata files: each grid plot with the ``CellAggregate`` field it plots, and a sweep's.
GRID_PLOTS = {"grid_lockers.csv": "lockers_mean_rounded_up", "grid_distance.csv": "distance_mean",
              "grid_delay.csv": "delay_mean", "grid_reward.csv": "reward_mean"}
SWEEP_PLOT = "sweep_{}.csv"


def write_plotdata(result_or_points, out_dir: Union[str, Path]) -> list[Path]:
    """Long-format (x, y, series) files, one per plotted metric."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = ("x", "y", "series")
    written = []
    if isinstance(result_or_points, GridResult):
        aggregates = result_or_points.cell_aggregates()
        for name, attr in GRID_PLOTS.items():
            written.append(write_table(out_dir / name, columns, [
                (a.locations, repr(float(getattr(a, attr))),
                 f"{a.solver}-{a.policy}-spaces{a.spaces}") for a in aggregates]))
    else:
        points = list(result_or_points)
        if points:
            written.append(write_table(out_dir / SWEEP_PLOT.format(points[0].factor), columns, [
                (repr(pt.value), repr(pt.mean_delay), pt.factor) for pt in points]))
    return written


__all__ = ["SOLVERS", "POLICIES", "SWEEP_FACTORS", "COUNT_FACTORS", "spelling", "BudgetProfile",
           "GridConfig", "CellOutcome", "CellAggregate", "GapEntry", "GridResult", "SweepConfig",
           "SweepPoint", "improvement_rate", "reward_gap", "solve", "apply_factor", "run_grid",
           "sweep_factor", "write_table", "write_plan_csv", "write_history_csv",
           "write_taskpool_csv", "write_assignment_csv", "write_grid_csv", "write_sweep_csv",
           "write_plotdata"]
