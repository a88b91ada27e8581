"""Candidate-solution encoding and solver budget shared by every solver.

A solution is a pair of tuples of Python ints over the task pool: ``x1[t]``
names the locker that executes task ``t`` and ``x2`` is the global
execution-priority permutation of task ids. Both solvers and the exact oracle
search over this encoding, so their rewards are directly comparable. A
solver's state cache (``hqm.Evaluator``) keys a state on ``x1 + x2`` packed
into one ``bytes``, one byte per id up to 256 tasks and four above, so it
keeps neither tuple alive: about 135 bytes an entry on a 19-task pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigurationError, ShapeError

# The largest budget a solve accepts: 100 times the paper profile's agents and
# iterations. A larger count would exhaust memory or run for days.
MAX_AGENTS = 10_000
MAX_ITERATIONS = 100_000


@dataclass(frozen=True)
class BudgetProfile:
    """Solver effort: agents doubles as GA population, iterations as generations."""

    agents: int
    iterations: int

    def __post_init__(self) -> None:
        if self.agents < 1 or self.iterations < 1:
            raise ConfigurationError(f"budget agents and iterations must be >= 1: {self}")
        if self.agents > MAX_AGENTS or self.iterations > MAX_ITERATIONS:
            raise ConfigurationError(f"budget agents and iterations must be at most "
                                     f"{MAX_AGENTS} and {MAX_ITERATIONS}: {self}")

    @classmethod
    def desk(cls) -> "BudgetProfile":
        return cls(agents=20, iterations=200)

    @classmethod
    def paper(cls) -> "BudgetProfile":
        return cls(agents=100, iterations=1000)

    @classmethod
    def named(cls, name: str) -> "BudgetProfile":
        try:
            return {"desk": cls.desk, "paper": cls.paper}[name]()
        except KeyError:
            raise ConfigurationError(f"unknown budget profile {name!r}; expected desk or paper")


@dataclass
class SearchState:
    x1: tuple[int, ...]
    x2: tuple[int, ...]
    reward: Optional[float] = field(default=None, compare=False)


def effective_locker_count(max_lockers: int, num_tasks: int) -> int:
    """Lockers worth distinguishing, and so the range of x1: never more than one per task."""
    return max(1, min(max_lockers, num_tasks))


def random_state(rng, num_tasks: int, lockers: int) -> SearchState:
    """A numpy ``Generator``'s ``integers(0, lockers, size=num_tasks)``, then ``permutation(num_tasks)``.

    The one set-up draw of an initial state, for HQM's agents and the GA's population alike.
    """
    return SearchState(x1=tuple(rng.integers(0, lockers, size=num_tasks).tolist()),
                       x2=tuple(rng.permutation(num_tasks).tolist()))


def validate_state(state: SearchState, num_tasks: int, max_lockers: int) -> None:
    """Raise ShapeError unless ``state`` is a well-formed point of the search space."""
    x1, x2 = state.x1, state.x2
    if len(x1) != num_tasks or len(x2) != num_tasks:
        raise ShapeError(
            f"state vectors must both have length {num_tasks}, "
            f"got x1 of {len(x1)} and x2 of {len(x2)}"
        )
    if num_tasks == 0:
        return
    if min(x1) < 0 or max(x1) >= max_lockers:
        raise ShapeError(f"x1 references lockers outside 0..{max_lockers - 1}")
    if sorted(x2) != list(range(num_tasks)):
        raise ShapeError("x2 is not a permutation of the task ids")


__all__ = ["MAX_AGENTS", "MAX_ITERATIONS", "BudgetProfile", "SearchState",
           "effective_locker_count", "random_state", "validate_state"]
