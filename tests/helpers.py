"""Factories for hand-built instances, tasks, and states used across tests, and the
reference draws the streams are checked against."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Optional, Sequence

import numpy as np

from mplq.errors import ParameterError
from mplq.state import Stream
from mplq.instance import (Customer, CustomerLocation, FleetSpec, Instance,
                           ParkingSpace, Position, TimeWindow)
from mplq.routing import (AdjustmentPolicy, CostBreakdown, LockerRoute, RouteMemo, RoutePlan,
                          TravelNoise, evaluate_solution, schedule_route)
from mplq.state import SearchState
from mplq.taskgen import Task, TaskPool


def travel_time(a: Position, b: Position, speed: float) -> float:
    """Euclidean distance over speed, in minutes: the tests' reference replays' leg time."""
    if speed <= 0:
        raise ParameterError(f"speed must be > 0, got {speed}")
    return a.distance_to(b) / speed


def make_space(space_id: int, x: float, y: float, window: tuple[float, float] = (0.0, 1440.0),
               service_time: float = 30.0) -> ParkingSpace:
    return ParkingSpace(id=space_id, position=Position(x, y),
                        window=TimeWindow(*window), service_time=service_time)


def make_customer(cid: int, demand: int, locs: Sequence[tuple]) -> Customer:
    locations = tuple(
        CustomerLocation(position=Position(x, y), window=TimeWindow(*win), max_walk=walk)
        for (x, y, win, walk) in locs
    )
    return Customer(id=cid, demand=demand, locations=locations)


def make_instance(spaces: Sequence[ParkingSpace], customers: Sequence[Customer] = (),
                  *, capacity: float = 20.0, speed: float = 0.7,
                  max_lockers: Optional[int] = None, fixed_cost: float = 1.0,
                  unit_travel_cost: float = 1.0, buffer: float = 10.0,
                  weights: tuple[float, float] = (5.0, 1.0)) -> Instance:
    if max_lockers is None:
        max_lockers = max(4, len(spaces) * 4)
    fleet = FleetSpec(max_lockers=max_lockers, capacity=capacity, speed=speed,
                      fixed_cost=fixed_cost, unit_travel_cost=unit_travel_cost)
    return Instance(depot=Position(0.0, 0.0), spaces=tuple(spaces),
                    customers=tuple(customers), fleet=fleet, buffer=buffer,
                    weights=weights)


def make_task(space_id: int, a: int = 1, demand: int = 1,
              window: tuple[float, float] = (0.0, 1440.0),
              members: Sequence[tuple[int, float]] = ()) -> Task:
    return Task(space_id=space_id, sub_index=a, demand=demand,
                window=TimeWindow(*window), members=tuple(members))


def make_pool(tasks: Sequence[Task]) -> TaskPool:
    return TaskPool(tasks=tuple(tasks), unservable=())


def schedule_tasks(tasks: Sequence[Task], instance: Instance, policy: AdjustmentPolicy,
                   noise: Optional[TravelNoise] = None) -> Optional[LockerRoute]:
    """One locker's route over a hand-built task list, in list order.

    The list becomes a pool of its own, so the route is that pool's task ids
    0..n-1 scheduled through a fresh ``RouteMemo``, timed with ``noise``.
    """
    memo = RouteMemo(make_pool(tasks), instance, policy, noise)
    return schedule_route(memo, task_ids=list(range(len(tasks))))


def evaluate(state: SearchState, pool: TaskPool, inst: Instance, policy: AdjustmentPolicy,
             noise: Optional[TravelNoise] = None) -> tuple[RoutePlan, CostBreakdown]:
    """``state`` scored through a fresh ``RouteMemo(pool, inst, policy, noise)``."""
    return evaluate_solution(state, RouteMemo(pool, inst, policy, noise))


def random_hold_pool(rng: np.random.Generator) -> tuple[Instance, TaskPool]:
    """A three-locker pool whose windows outlast the service time by up to an hour.

    Windows open on a 50-minute grid, so tasks at different spaces often open
    together and the x2 priority orders them; holds and detours both occur.
    """
    spaces = [make_space(k + 1, float(rng.uniform(-8, 8)), float(rng.uniform(-8, 8)),
                         service_time=float(rng.uniform(5, 25)))
              for k in range(int(rng.integers(2, 5)))]
    tasks = []
    for _ in range(int(rng.integers(4, 10))):
        sp = spaces[int(rng.integers(len(spaces)))]
        start = 50.0 * int(rng.integers(0, 6))
        end = start + sp.service_time + float(rng.uniform(0, 60))
        tasks.append(make_task(sp.id, demand=int(rng.integers(1, 7)), window=(start, end),
                               members=((0, float(rng.uniform(0, start + 20))),)))
    inst = make_instance(spaces, capacity=float(rng.choice([8.0, 12.0, 1e9])),
                         speed=float(rng.uniform(0.2, 1.0)), max_lockers=3)
    return inst, make_pool(tasks)


def make_state(x1: Sequence[int], x2: Sequence[int]) -> SearchState:
    return SearchState(x1=tuple(map(int, x1)), x2=tuple(map(int, x2)))


def stream_pair(seed) -> tuple[Stream, np.random.Generator]:
    """A ``Stream`` and a ``Generator`` seeded alike: the same draws on both sides."""
    return Stream(np.random.default_rng(seed)), np.random.default_rng(seed)


def assert_same_continuation(stream: Stream, rng: np.random.Generator) -> None:
    """The next 8 doubles and 8 ``integers(7)`` of both sides are equal.

    A stream reads its bit generator ahead in blocks, so bit-generator states
    cannot be compared; the doubles check the 64-bit position, the bounded
    ints the buffered 32-bit half.
    """
    assert [stream.random() for _ in range(8)] == [rng.random() for _ in range(8)]
    assert [stream.integers(7) for _ in range(8)] == [int(rng.integers(7)) for _ in range(8)]


def roulette_pick(cdf: list[float], rng) -> int:
    """The roulette pick ``Stream.chain`` and ``Stream.breed`` read inline, one call at a
    time on a ``Generator`` or a ``Stream``: the reference for both.

    One ``random()`` double ``u`` picks the first running sum above ``u`` times
    the total, or the last nonzero score should that product round up to the
    total; a total of at most 0 draws one ``integers(len(cdf))`` instead.
    """
    total = cdf[-1]
    if total <= 0.0:
        return int(rng.integers(len(cdf)))
    k = bisect_right(cdf, rng.random() * total)
    return k if k < len(cdf) else bisect_left(cdf, total)
