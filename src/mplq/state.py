"""Candidate-solution encoding shared by every solver.

A solution is a pair of tuples of Python ints over the task pool: ``x1[t]``
names the locker that executes task ``t`` and ``x2`` is the global
execution-priority permutation of task ids. Both solvers and the exact oracle
search over this encoding, so their rewards are directly comparable, and the
pair itself is the key of a solver's state cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import ShapeError


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


__all__ = ["SearchState", "effective_locker_count", "random_state", "validate_state"]
