"""Turn parking-space availability into a finite pool of schedulable tasks.

Each space's availability window is first tightened to the range actually
covered by its assigned customers, then cut into equal-length slices of the
space's service time. Every slice that attracts at least one customer becomes
a task: the atomic unit the solvers allocate to lockers and sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .instance import MAX_SLICES_PER_SPACE, Assignment, Instance, ParkingSpace, TimeWindow


@dataclass(frozen=True)
class SubInterval:
    """The a-th service-time-length slice of a space's availability (a is 1-based)."""

    index: int
    window: TimeWindow


@dataclass(frozen=True)
class Task:
    """Demand bundled into one sub-interval at one space.

    ``members`` holds (customer id, earliest pickup time) pairs; the earliest
    pickup is the start of the customer's presence window at their assigned
    location, which bounds how soon the handover can happen.
    """

    space_id: int
    sub_index: int
    demand: int
    window: TimeWindow
    members: tuple[tuple[int, float], ...]

    @cached_property
    def ready(self) -> float:
        """Earliest service start: the window start or a later member pickup."""
        return max([self.window.start, *(p for _, p in self.members)])


@dataclass(frozen=True)
class TaskPool:
    """Ordered task list plus the customers no task could take."""

    tasks: tuple[Task, ...]
    unservable: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.tasks)

    @cached_property
    def starts(self) -> tuple[float, ...]:
        """Each task's window start, by task id: the decode's sort key."""
        return tuple(task.window.start for task in self.tasks)

    @cached_property
    def start_order(self) -> Optional[tuple[int, ...]]:
        """The task ids by window start, or None when two starts are equal (or one is NaN).

        The decode orders equal starts by ``x2``; with every start distinct,
        all states deal their tasks in this one order.
        """
        starts = self.starts
        order = tuple(sorted(range(len(starts)), key=starts.__getitem__))
        if all(starts[a] < starts[b] for a, b in zip(order, order[1:])):
            return order
        return None


def reduce_availability(space: ParkingSpace,
                        assigned_windows: Sequence[TimeWindow]) -> Optional[TimeWindow]:
    """Tighten a space's availability to the span its customers actually cover.

    Returns the intersection of [E, L] with [earliest customer start, latest
    customer end], or None when no customers are assigned or the intersection
    is empty.
    """
    if not assigned_windows:
        return None
    lo = max(space.window.start, min(w.start for w in assigned_windows))
    hi = min(space.window.end, max(w.end for w in assigned_windows))
    if hi <= lo:
        return None
    return TimeWindow(lo, hi)


def partition_subintervals(avail: TimeWindow, service_time: float) -> list[SubInterval]:
    """Cut ``avail`` into floor(span / service_time) slices of exactly ``service_time``.

    The a-th slice is [start + (a-1)*S, start + a*S]; any trailing remainder
    shorter than the service time is dropped. More than ``MAX_SLICES_PER_SPACE``
    slices are refused, as ``validate_instance`` refuses them.
    """
    if service_time <= 0:
        raise ValueError("service_time must be > 0")
    slices = avail.span / service_time
    if slices > MAX_SLICES_PER_SPACE:
        raise ValueError(f"{avail.span} min over a service time of {service_time} min "
                         f"exceeds {MAX_SLICES_PER_SPACE} slices")
    count = int(math.floor(slices))
    return [
        SubInterval(
            index=a,
            window=TimeWindow(avail.start + (a - 1) * service_time,
                              avail.start + a * service_time),
        )
        for a in range(1, count + 1)
    ]


def build_tasks(instance: Instance, assignment: Assignment) -> TaskPool:
    """Place every assigned customer into a sub-interval and bundle the demand.

    A customer joins the earliest sub-interval of their assigned space whose
    window overlaps their presence window by at least the instance buffer
    time. Customers with no sufficiently-overlapping sub-interval are reported
    unservable. Slices that attract no customer produce no task.
    """
    per_space: dict[int, list[int]] = {}
    for cid, (space_id, _) in assignment.assigned.items():
        per_space.setdefault(space_id, []).append(cid)

    tasks: list[Task] = []
    unservable: list[int] = []

    for sp in instance.spaces:
        cids = sorted(per_space.get(sp.id, ()))
        if not cids:
            continue
        windows = []
        for cid in cids:
            _, loc_idx = assignment.assigned[cid]
            windows.append(instance.customer_by_id(cid).locations[loc_idx].window)
        avail = reduce_availability(sp, windows)
        subs = partition_subintervals(avail, sp.service_time) if avail else []

        buckets: dict[int, list[tuple[int, float]]] = {}
        for cid, win in zip(cids, windows):
            placed = False
            for sub in subs:
                if sub.window.overlap(win) >= instance.buffer:
                    buckets.setdefault(sub.index, []).append((cid, win.start))
                    placed = True
                    break
            if not placed:
                unservable.append(cid)

        for sub in subs:
            members = buckets.get(sub.index)
            if not members:
                continue
            demand = sum(instance.customer_by_id(cid).demand for cid, _ in members)
            tasks.append(
                Task(
                    space_id=sp.id,
                    sub_index=sub.index,
                    demand=demand,
                    window=sub.window,
                    members=tuple(members),
                )
            )

    return TaskPool(tasks=tuple(tasks), unservable=tuple(sorted(unservable)))


__all__ = [
    "SubInterval",
    "Task",
    "TaskPool",
    "reduce_availability",
    "partition_subintervals",
    "build_tasks",
]
