"""Mobile parcel locker location-routing toolkit.

Instance generation, task-pool construction, route scheduling with two
adjustment strategies, a hybrid Q-learning solver, a genetic-algorithm
baseline, an exact set-partition oracle for small pools, and a benchmark harness.
"""

from .errors import (ConfigurationError, InstanceFormatError, MplqError,
                     NothingToSolveError, ParameterError, SearchSpaceLimitError,
                     ShapeError, UndefinedRateError)
from .instance import (Assignment, Customer, CustomerLocation, FleetSpec,
                       GeneratorConfig, Instance, ParkingSpace, Position,
                       TimeWindow, assign_customers, generate_instance,
                       load_instance, save_instance, validate_instance)
from .taskgen import SubInterval, Task, TaskPool, build_tasks, partition_subintervals, reduce_availability
from .routing import (AdjustmentPolicy, Adjustment, CostBreakdown, FeasibilityReport,
                      RouteMemo, RoutePlan, TravelNoise, VisitRecord, check_feasibility,
                      compute_delay, evaluate_solution, hold_can_apply, schedule_route)
from .state import BudgetProfile, SearchState
from .hqm import (Agent, QMatrices, RunHistory, global_construct, has_converged,
                  init_agents, local_move, normalize_q, run_hqm, update_q)
from .ga import next_generation, run_ga
from .oracle import brute_force_best
from .bench import (GridConfig, GridResult, SweepConfig, SweepPoint, improvement_rate,
                    reward_gap, run_grid, sweep_factor)

__version__ = "0.1.0"
