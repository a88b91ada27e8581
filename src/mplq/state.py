"""Candidate-solution encoding shared by every solver.

A solution is a pair of vectors over the task pool: ``x1[t]`` names the locker
that executes task ``t`` and ``x2`` is the global execution-priority
permutation of task ids. Both solvers and the exact oracle search over this
encoding, so their rewards are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ShapeError


@dataclass
class SearchState:
    x1: np.ndarray
    x2: np.ndarray
    reward: Optional[float] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        self.x1 = np.asarray(self.x1, dtype=np.int64)
        self.x2 = np.asarray(self.x2, dtype=np.int64)

    def copy(self) -> "SearchState":
        return SearchState(self.x1.copy(), self.x2.copy(), self.reward)

    def key(self) -> tuple[bytes, bytes]:
        return self.x1.tobytes(), self.x2.tobytes()


def effective_locker_count(max_lockers: int, num_tasks: int) -> int:
    """Lockers worth distinguishing, and so the range of x1: never more than one per task."""
    return max(1, min(max_lockers, num_tasks))


def validate_state(state: SearchState, num_tasks: int, max_lockers: int) -> None:
    """Raise ShapeError unless ``state`` is a well-formed point of the search space."""
    if state.x1.shape != (num_tasks,) or state.x2.shape != (num_tasks,):
        raise ShapeError(
            f"state vectors must both have length {num_tasks}, "
            f"got x1 {state.x1.shape} and x2 {state.x2.shape}"
        )
    if num_tasks == 0:
        return
    x1 = state.x1.tolist()
    if min(x1) < 0 or max(x1) >= max_lockers:
        raise ShapeError(f"x1 references lockers outside 0..{max_lockers - 1}")
    if sorted(state.x2.tolist()) != list(range(num_tasks)):
        raise ShapeError("x2 is not a permutation of the task ids")


__all__ = ["SearchState", "effective_locker_count", "validate_state"]
