"""Problem instances for the mobile parcel locker location-routing problem.

An instance bundles a depot, a set of candidate parking spaces with
availability windows and service times, customers that move between several
locations during the day (each location carrying its own presence window and
maximum walking range), and the locker fleet parameters. This module defines
the data model, a seeded random generator, the customer-to-space assignment
pass, validation, and JSON persistence.

Units: planar coordinates in km, times in minutes since midnight, demand in
parcel units, speed in km per minute.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigurationError, InstanceFormatError

logger = logging.getLogger("mplq.instance")

MINUTES_PER_DAY = 1440.0
# Largest customer demand: loads are floats, which count parcels exactly up to 2**53.
MAX_DEMAND = 2 ** 53
# Latest time a plan may record: float spacing there is 2.4e-7 min, so
# leave - start keeps a service time within the audit's 1e-6 tolerance.
MAX_PLAN_MINUTES = 2 ** 30
# Most service-time slices one space's window may be cut into: a service time
# of 0.144 min over a whole day. Bounds the work and memory of build_tasks.
MAX_SLICES_PER_SPACE = 10_000


@dataclass(frozen=True)
class Position:
    """A planar point in km."""

    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class TimeWindow:
    """A closed interval [start, end] in minutes since midnight."""

    start: float
    end: float

    @property
    def span(self) -> float:
        return self.end - self.start

    def overlap(self, other: "TimeWindow") -> float:
        """Length of the intersection with ``other`` (negative if disjoint)."""
        return min(self.end, other.end) - max(self.start, other.start)


@dataclass(frozen=True)
class CustomerLocation:
    """One stop of a customer's day: where they are, when, and how far they walk."""

    position: Position
    window: TimeWindow
    max_walk: float


@dataclass(frozen=True)
class Customer:
    id: int
    demand: int
    locations: tuple[CustomerLocation, ...]


@dataclass(frozen=True)
class ParkingSpace:
    """A stopover where a locker may park during ``window``, serving for ``service_time``."""

    id: int
    position: Position
    window: TimeWindow
    service_time: float


@dataclass(frozen=True)
class FleetSpec:
    """Locker fleet parameters shared by every locker."""

    max_lockers: int
    capacity: float
    speed: float
    fixed_cost: float
    unit_travel_cost: float


@dataclass(frozen=True)
class Instance:
    """A complete problem input. Immutable; safe to share across workers."""

    depot: Position
    spaces: tuple[ParkingSpace, ...]
    customers: tuple[Customer, ...]
    fleet: FleetSpec
    buffer: float
    weights: tuple[float, float]

    def space_by_id(self, space_id: int) -> ParkingSpace:
        try:
            return self._spaces_by_id[space_id]
        except KeyError:
            raise KeyError(f"unknown parking space id {space_id}") from None

    def customer_by_id(self, customer_id: int) -> Customer:
        try:
            return self._customers_by_id[customer_id]
        except KeyError:
            raise KeyError(f"unknown customer id {customer_id}") from None

    @cached_property
    def _spaces_by_id(self) -> dict[int, ParkingSpace]:
        """Id -> space, built on first use; a duplicated id keeps its first space."""
        return {sp.id: sp for sp in reversed(self.spaces)}

    @cached_property
    def _customers_by_id(self) -> dict[int, Customer]:
        """Id -> customer, built on first use; a duplicated id keeps its first customer."""
        return {cust.id: cust for cust in reversed(self.customers)}


# Generator settings that no sweep or command varies: the standard comparison setup.
LOCATIONS_PER_CUSTOMER = (1, 4)    # (min, max) stops in one customer's day
WORKING_HOURS = TimeWindow(540.0, 1080.0)
DEMAND_RANGE = (1, 4)              # parcels per customer, inclusive
SERVICE_TIME_RANGE = (15.0, 25.0)  # minutes a locker serves at a space
FIXED_COST = 1.0                   # per dispatched locker
UNIT_TRAVEL_COST = 1.0             # per km
WEIGHTS = (5.0, 1.0)               # objective weights of fleet and travel cost


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the seeded instance generator: the settings the sweeps and
    ``mplq generate`` vary. The rest of the setup is the constants above."""

    num_spaces: int = 5
    locations_per_space: int = 5
    service_radius: float = 5.0
    walk_range: tuple[float, float] = (0.1, 1.0)
    customer_span_range: tuple[float, float] = (30.0, 90.0)
    parking_span_range: tuple[float, float] = (30.0, 70.0)
    seed: int = 0
    capacity: float = 20.0
    locker_speed: float = 0.7
    max_lockers: Optional[int] = None
    buffer_min: float = 10.0


@dataclass(frozen=True)
class Assignment:
    """Result of matching customers to parking spaces.

    ``assigned`` maps customer id -> (space id, location index); customers with
    no reachable space at any of their locations appear in ``unassignable``.
    """

    assigned: dict[int, tuple[int, int]]
    unassignable: tuple[int, ...]


@dataclass(frozen=True)
class Violation:
    entity: str
    rule: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _check_range(name: str, rng_pair: Sequence[float]) -> None:
    if len(rng_pair) != 2 or rng_pair[0] > rng_pair[1]:
        raise ConfigurationError(f"{name} must be a (min, max) pair with min <= max, got {rng_pair!r}")


def _validate_config(config: GeneratorConfig) -> None:
    floats = (config.service_radius, *config.walk_range, *config.customer_span_range,
              *config.parking_span_range, config.capacity, config.locker_speed, config.buffer_min)
    if not all(map(math.isfinite, floats)):
        raise ConfigurationError(f"generator settings must be finite: {config}")
    if config.num_spaces < 0:
        raise ConfigurationError("num_spaces must be >= 0")
    if config.locations_per_space < 0:
        raise ConfigurationError("locations_per_space must be >= 0")
    if config.service_radius <= 0:
        raise ConfigurationError("service_radius must be > 0")
    _check_range("walk_range", config.walk_range)
    if config.walk_range[0] <= 0:
        raise ConfigurationError("walk_range minimum must be > 0")
    _check_range("customer_span_range", config.customer_span_range)
    _check_range("parking_span_range", config.parking_span_range)
    if config.parking_span_range[1] > WORKING_HOURS.span:
        raise ConfigurationError("parking spans cannot exceed the working hours span")
    if config.capacity <= 0 or config.locker_speed <= 0:
        raise ConfigurationError("capacity and locker_speed must be > 0")
    if config.buffer_min < 0:
        raise ConfigurationError("buffer_min must be >= 0")
    if config.max_lockers is not None and config.max_lockers < 1:
        raise ConfigurationError("max_lockers must be >= 1")


def _uniform_in_disk(rng: np.random.Generator, radius: float) -> tuple[float, float]:
    r = radius * math.sqrt(rng.uniform())
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return r * math.cos(theta), r * math.sin(theta)


def _space_window(rng: np.random.Generator, span: float, hours: TimeWindow) -> TimeWindow:
    """Availability window of one parking space.

    Window centres cluster around two rush periods of the working day so that
    nearby spaces compete for the same hours; a locker therefore faces real
    timing conflicts instead of a chain of isolated stops.
    """
    peaks = (hours.start + 0.25 * hours.span, hours.start + 0.65 * hours.span)
    center = rng.normal(peaks[int(rng.integers(2))], 45.0)
    start = min(max(center - span / 2.0, hours.start), hours.end - span)
    return TimeWindow(start, start + span)


def _correlated_window(rng: np.random.Generator, space: ParkingSpace, span: float,
                       floor: float, hours: TimeWindow) -> TimeWindow:
    """A presence window centred on a uniform point inside the space's window.

    Customers only show up near a space while a locker could park there, so
    the window is anchored inside the space's availability; ``floor`` pushes
    it after the customer's previous location and may clip it.
    """
    center = rng.uniform(space.window.start, space.window.end)
    start = max(center - span / 2.0, floor, hours.start)
    end = min(start + span, hours.end)
    return TimeWindow(start, max(start, end))


def generate_instance(config: GeneratorConfig) -> Instance:
    """Generate a random instance. Deterministic for a fixed seed.

    Parking spaces are placed uniformly within ``service_radius`` of the depot
    (origin). Each space receives ``locations_per_space`` customer-location
    points inside the walking reach of that space. The location pool is then
    grouped into customers, each visiting between 1 and
    ``LOCATIONS_PER_CUSTOMER[1]`` of the points with pairwise-disjoint
    presence windows inside working hours.
    """
    _validate_config(config)
    rng = np.random.default_rng(config.seed)
    depot = Position(0.0, 0.0)

    spaces = []
    for i in range(1, config.num_spaces + 1):
        px, py = _uniform_in_disk(rng, config.service_radius)
        span = rng.uniform(*config.parking_span_range)
        window = _space_window(rng, span, WORKING_HOURS)
        service_time = rng.uniform(*SERVICE_TIME_RANGE)
        spaces.append(
            ParkingSpace(
                id=i,
                position=Position(px, py),
                window=window,
                service_time=service_time,
            )
        )

    # Location stubs: (covering space, point position, per-location walk limit).
    stubs: list[tuple[ParkingSpace, Position, float]] = []
    for sp in spaces:
        for _ in range(config.locations_per_space):
            walk = rng.uniform(*config.walk_range)
            dx, dy = _uniform_in_disk(rng, walk)
            stubs.append((sp, Position(sp.position.x + dx, sp.position.y + dy), walk))
    order = rng.permutation(len(stubs))
    stubs = [stubs[int(k)] for k in order]

    customers = []
    cursor = 0
    cid = 0
    lo, hi = LOCATIONS_PER_CUSTOMER
    while cursor < len(stubs):
        k = int(rng.integers(lo, hi + 1))
        k = min(k, len(stubs) - cursor)
        group = sorted(stubs[cursor:cursor + k], key=lambda s: s[0].window.start)
        cursor += k
        locations = []
        floor = WORKING_HOURS.start
        for sp, pos, walk in group:
            span = rng.uniform(*config.customer_span_range)
            win = _correlated_window(rng, sp, span, floor, WORKING_HOURS)
            locations.append(CustomerLocation(position=pos, window=win, max_walk=walk))
            floor = win.end
        demand = int(rng.integers(DEMAND_RANGE[0], DEMAND_RANGE[1] + 1))
        customers.append(Customer(id=cid, demand=demand, locations=tuple(locations)))
        cid += 1

    max_lockers = config.max_lockers
    if max_lockers is None:
        max_lockers = max(1, len(stubs))
    fleet = FleetSpec(
        max_lockers=max_lockers,
        capacity=config.capacity,
        speed=config.locker_speed,
        fixed_cost=FIXED_COST,
        unit_travel_cost=UNIT_TRAVEL_COST,
    )
    return Instance(
        depot=depot,
        spaces=tuple(spaces),
        customers=tuple(customers),
        fleet=fleet,
        buffer=config.buffer_min,
        weights=WEIGHTS,
    )


# ---------------------------------------------------------------------------
# Assignment
# ---------------------------------------------------------------------------


def assign_customers(instance: Instance) -> Assignment:
    """Match every customer to the nearest reachable parking space.

    For each customer the (location, space) pair with the smallest Euclidean
    distance among those within that location's walking limit wins; ties break
    on lower space id, then lower location index. Customers with no reachable
    pair are reported as unassignable rather than raising.
    """
    assigned: dict[int, tuple[int, int]] = {}
    unassignable: list[int] = []
    for cust in instance.customers:
        best: Optional[tuple[float, int, int]] = None
        for loc_idx, loc in enumerate(cust.locations):
            for sp in instance.spaces:
                d = loc.position.distance_to(sp.position)
                if d <= loc.max_walk:
                    key = (d, sp.id, loc_idx)
                    if best is None or key < best:
                        best = key
        if best is None:
            unassignable.append(cust.id)
        else:
            assigned[cust.id] = (best[1], best[2])
    return Assignment(assigned=assigned, unassignable=tuple(unassignable))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_instance(instance: Instance) -> ValidationReport:
    """Check every structural invariant; empty report means the instance is sound."""
    violations: list[Violation] = []

    def bad(entity: str, rule: str) -> None:
        violations.append(Violation(entity, rule))

    def check_number(entity: str, what: str, value: float, zero_ok: bool = False) -> None:
        if not (value >= 0 if zero_ok else value > 0):  # NaN fails both comparisons
            bad(entity, f"{'negative' if zero_ok else 'non-positive'} {what}")
        elif not math.isfinite(value):
            bad(entity, f"non-finite {what}")

    def check_window(entity: str, win: TimeWindow) -> None:
        if not (math.isfinite(win.start) and math.isfinite(win.end)):
            bad(entity, "non-finite window bounds")
        elif not (0 <= win.start <= win.end <= MINUTES_PER_DAY):
            bad(entity, f"window [{win.start}, {win.end}] outside 0..{MINUTES_PER_DAY} or reversed")

    if not (math.isfinite(instance.depot.x) and math.isfinite(instance.depot.y)):
        bad("depot", "non-finite position")

    seen_space_ids = set()
    for sp in instance.spaces:
        ent = f"space {sp.id}"
        if sp.id < 1:
            bad(ent, "space id below 1; plan.csv writes the depot as node 0")
        if sp.id in seen_space_ids:
            bad(ent, "duplicate space id")
        seen_space_ids.add(sp.id)
        if not (math.isfinite(sp.position.x) and math.isfinite(sp.position.y)):
            bad(ent, "non-finite position")
        check_window(ent, sp.window)
        if sp.window.end <= sp.window.start:
            bad(ent, "empty availability window")
        check_number(ent, "service time", sp.service_time)
        if (0 < sp.service_time < math.inf and math.isfinite(sp.window.span)
                and sp.window.span / sp.service_time > MAX_SLICES_PER_SPACE):
            bad(ent, f"window span over service time exceeds {MAX_SLICES_PER_SPACE} "
                     "slices; the service time is too small")

    seen_cust_ids = set()
    for cust in instance.customers:
        ent = f"customer {cust.id}"
        if cust.id in seen_cust_ids:
            bad(ent, "duplicate customer id")
        seen_cust_ids.add(cust.id)
        if cust.demand < 1:
            bad(ent, "demand below 1")
        elif cust.demand > MAX_DEMAND:
            bad(ent, f"demand above {MAX_DEMAND}, the largest count a float load holds exactly")
        if not cust.locations:
            bad(ent, "no locations")
        for k, loc in enumerate(cust.locations):
            lent = f"customer {cust.id} location {k}"
            if not (math.isfinite(loc.position.x) and math.isfinite(loc.position.y)):
                bad(lent, "non-finite position")
            check_window(lent, loc.window)
            check_number(lent, "max_walk", loc.max_walk)
        for a in range(len(cust.locations)):
            for b in range(a + 1, len(cust.locations)):
                if cust.locations[a].window.overlap(cust.locations[b].window) > 0:
                    bad(ent, f"customer windows overlap (locations {a} and {b})")

    if instance.fleet.max_lockers < 1:
        bad("fleet", "max_lockers below 1")
    check_number("fleet", "capacity", instance.fleet.capacity)
    check_number("fleet", "speed", instance.fleet.speed)
    check_number("fleet", "fixed cost", instance.fleet.fixed_cost, zero_ok=True)
    check_number("fleet", "unit travel cost", instance.fleet.unit_travel_cost, zero_ok=True)
    if instance.fleet.fixed_cost == 0 and instance.fleet.unit_travel_cost == 0:
        bad("fleet", "fixed and unit travel costs are both zero, so every plan costs nothing")
    for weight in instance.weights:
        check_number("weights", "objective weight", weight)
    check_number("buffer", "buffer time", instance.buffer, zero_ok=True)
    if not violations and not math.isfinite(_objective_bound(instance)):
        bad("objective", "the objective of some plan overflows a float; "
                         "costs, weights or coordinates are too large")
    if not violations and not _time_bound(instance) <= MAX_PLAN_MINUTES:
        bad("fleet", f"some plan runs past {MAX_PLAN_MINUTES} minutes, where rounding "
                     "swamps service times; speed is too small or service times too large")

    return ValidationReport(violations=tuple(violations))


def _box_diagonal(instance: Instance) -> float:
    """The diagonal of the box around the depot and the spaces: the longest leg."""
    xs = [instance.depot.x] + [sp.position.x for sp in instance.spaces]
    ys = [instance.depot.y] + [sp.position.y for sp in instance.spaces]
    return math.hypot(max(xs) - min(xs), max(ys) - min(ys))


def _objective_bound(instance: Instance) -> float:
    """An upper bound on the objective of every plan, with a margin for rounding.

    Each task holds at least one customer, so a plan serves at most one task
    per customer and dispatches at most min(max_lockers, customers) lockers.
    A route over k tasks drives at most 2k legs (one into each space, one to
    the depot before each detour, and the return), and no leg is longer than
    the diagonal of the box around the depot and the spaces.
    """
    diagonal = _box_diagonal(instance)
    customers = len(instance.customers)
    w1, w2 = instance.weights
    bound = (w1 * instance.fleet.fixed_cost * min(instance.fleet.max_lockers, customers)
             + w2 * instance.fleet.unit_travel_cost * (2 * customers * diagonal))
    return bound * (1.0 + 1e-6)


def _time_bound(instance: Instance) -> float:
    """An upper bound on every time a plan records, with a margin for rounding.

    Built like ``_objective_bound``: no visit waits past the end of the day,
    each of at most one task per customer adds two legs no longer than the
    box diagonal and a service time, and the route ends with the return leg.
    """
    leg = _box_diagonal(instance) / instance.fleet.speed
    service = max((sp.service_time for sp in instance.spaces), default=0.0)
    bound = MINUTES_PER_DAY + len(instance.customers) * (2 * leg + service) + leg
    return bound * (1.0 + 1e-6)


# ---------------------------------------------------------------------------
# Persistence (JSON)
# ---------------------------------------------------------------------------

_KNOWN_TOP_KEYS = {"depot", "spaces", "customers", "fleet", "buffer_min", "weights"}


def instance_to_dict(instance: Instance) -> dict:
    return {
        "depot": [instance.depot.x, instance.depot.y],
        "spaces": [
            {
                "id": sp.id,
                "position": [sp.position.x, sp.position.y],
                "window": [sp.window.start, sp.window.end],
                "service_time": sp.service_time,
            }
            for sp in instance.spaces
        ],
        "customers": [
            {
                "id": cust.id,
                "demand": cust.demand,
                "locations": [
                    {
                        "position": [loc.position.x, loc.position.y],
                        "window": [loc.window.start, loc.window.end],
                        "max_walk": loc.max_walk,
                    }
                    for loc in cust.locations
                ],
            }
            for cust in instance.customers
        ],
        "fleet": {
            "max_lockers": instance.fleet.max_lockers,
            "capacity": instance.fleet.capacity,
            "speed": instance.fleet.speed,
            "fixed_cost": instance.fleet.fixed_cost,
            "unit_travel_cost": instance.fleet.unit_travel_cost,
        },
        "buffer_min": instance.buffer,
        "weights": [instance.weights[0], instance.weights[1]],
    }


def save_instance(instance: Instance, path: Union[str, Path]) -> None:
    text = json.dumps(instance_to_dict(instance), indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")


def json_int(value, name: str) -> int:
    """``value``, the JSON integer ``name``: never a bool, float or string."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r:.80}")
    return value


def json_float(value, name: str) -> float:
    """``value``, the JSON number ``name``, as a float: never a bool, string or overflow."""
    if type(value) is float:
        return value
    if type(value) is int:
        try:
            return float(value)
        except OverflowError:
            pass
    raise TypeError(f"{name} must be a number, got {value!r:.80}")


def _require(mapping: dict, key: str, context: str, kind=None):
    """``mapping[key]``, read by ``kind`` (``json_int`` or ``json_float``) when one is given."""
    if key not in mapping:
        raise InstanceFormatError(f"{context}: missing required field '{key}'")
    if kind is None:
        return mapping[key]
    try:
        return kind(mapping[key], f"field '{key}'")
    except TypeError as exc:
        raise InstanceFormatError(f"{context}: {exc}") from exc


def _objects(mapping: dict, key: str, context: str) -> list[dict]:
    """``mapping[key]``, which must be a list of JSON objects."""
    value = _require(mapping, key, context)
    if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
        raise InstanceFormatError(f"{context}: field '{key}' must be a list of objects")
    return value


def _as_pair(value, context: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise InstanceFormatError(f"{context}: expected a [a, b] pair, got {value!r}")
    try:
        return json_float(value[0], "pair"), json_float(value[1], "pair")
    except TypeError as exc:
        raise InstanceFormatError(f"{context}: non-numeric pair {value!r}") from exc


def _warn_unknown(mapping: dict, known: set, context: str) -> None:
    extras = sorted(set(mapping) - known)
    if extras:
        logger.warning("%s: ignoring unknown fields %s", context, extras)


def instance_from_dict(data: dict) -> Instance:
    if not isinstance(data, dict):
        raise InstanceFormatError("instance document root must be a JSON object")
    _warn_unknown(data, _KNOWN_TOP_KEYS, "instance")

    dx, dy = _as_pair(_require(data, "depot", "instance"), "depot")

    spaces = []
    for n, raw in enumerate(_objects(data, "spaces", "instance")):
        ctx = f"spaces[{n}]"
        _warn_unknown(raw, {"id", "position", "window", "service_time"}, ctx)
        px, py = _as_pair(_require(raw, "position", ctx), f"{ctx}.position")
        ws, we = _as_pair(_require(raw, "window", ctx), f"{ctx}.window")
        spaces.append(
            ParkingSpace(
                id=_require(raw, "id", ctx, json_int),
                position=Position(px, py),
                window=TimeWindow(ws, we),
                service_time=_require(raw, "service_time", ctx, json_float),
            )
        )

    customers = []
    for n, raw in enumerate(_objects(data, "customers", "instance")):
        ctx = f"customers[{n}]"
        _warn_unknown(raw, {"id", "demand", "locations"}, ctx)
        locations = []
        for k, lraw in enumerate(_objects(raw, "locations", ctx)):
            lctx = f"{ctx}.locations[{k}]"
            _warn_unknown(lraw, {"position", "window", "max_walk"}, lctx)
            lx, ly = _as_pair(_require(lraw, "position", lctx), f"{lctx}.position")
            ls, le = _as_pair(_require(lraw, "window", lctx), f"{lctx}.window")
            locations.append(
                CustomerLocation(
                    position=Position(lx, ly),
                    window=TimeWindow(ls, le),
                    max_walk=_require(lraw, "max_walk", lctx, json_float),
                )
            )
        customers.append(
            Customer(
                id=_require(raw, "id", ctx, json_int),
                demand=_require(raw, "demand", ctx, json_int),
                locations=tuple(locations),
            )
        )

    fraw = _require(data, "fleet", "instance")
    if not isinstance(fraw, dict):
        raise InstanceFormatError("instance: field 'fleet' must be an object")
    _warn_unknown(fraw, {"max_lockers", "capacity", "speed", "fixed_cost", "unit_travel_cost"}, "fleet")
    fleet = FleetSpec(
        max_lockers=_require(fraw, "max_lockers", "fleet", json_int),
        capacity=_require(fraw, "capacity", "fleet", json_float),
        speed=_require(fraw, "speed", "fleet", json_float),
        fixed_cost=_require(fraw, "fixed_cost", "fleet", json_float),
        unit_travel_cost=_require(fraw, "unit_travel_cost", "fleet", json_float),
    )

    w1, w2 = _as_pair(_require(data, "weights", "instance"), "weights")
    return Instance(
        depot=Position(dx, dy),
        spaces=tuple(spaces),
        customers=tuple(customers),
        fleet=fleet,
        buffer=_require(data, "buffer_min", "instance", json_float),
        weights=(w1, w2),
    )


def load_instance(path: Union[str, Path]) -> Instance:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InstanceFormatError(f"cannot read instance file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal too long to convert
        raise InstanceFormatError(f"{path}: invalid JSON: {exc}") from exc
    return instance_from_dict(data)


__all__ = [
    "Position",
    "TimeWindow",
    "CustomerLocation",
    "Customer",
    "ParkingSpace",
    "FleetSpec",
    "Instance",
    "GeneratorConfig",
    "Assignment",
    "Violation",
    "ValidationReport",
    "generate_instance",
    "assign_customers",
    "validate_instance",
    "instance_to_dict",
    "instance_from_dict",
    "save_instance",
    "load_instance",
    "json_int",
    "json_float",
]
