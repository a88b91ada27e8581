import json
import logging
import math
from dataclasses import replace

import pytest

from mplq.errors import ConfigurationError, InstanceFormatError
from mplq.instance import (MAX_SLICES_PER_SPACE, WORKING_HOURS, GeneratorConfig,
                           assign_customers, generate_instance, instance_to_dict,
                           load_instance, save_instance, validate_instance)
from mplq.bench import write_assignment_csv
from helpers import make_customer, make_instance, make_space

TABLE_CONFIG = GeneratorConfig(
    num_spaces=5, locations_per_space=5, service_radius=5.0,
    walk_range=(0.1, 1.0), customer_span_range=(30, 90),
    parking_span_range=(30, 70), seed=42,
)


def test_generate_counts():
    inst = generate_instance(TABLE_CONFIG)
    assert len(inst.spaces) == 5
    assert sum(len(c.locations) for c in inst.customers) == 25


def test_generate_deterministic_byte_identical():
    a = generate_instance(TABLE_CONFIG)
    b = generate_instance(TABLE_CONFIG)
    assert json.dumps(instance_to_dict(a)) == json.dumps(instance_to_dict(b))


def test_generate_zero_locations_gives_zero_customers():
    inst = generate_instance(replace(TABLE_CONFIG, locations_per_space=0))
    assert len(inst.spaces) == 5
    assert inst.customers == ()
    assert validate_instance(inst).ok


def test_generate_rejects_bad_ranges():
    with pytest.raises(ConfigurationError):
        generate_instance(replace(TABLE_CONFIG, customer_span_range=(90, 30)))
    with pytest.raises(ConfigurationError):
        generate_instance(replace(TABLE_CONFIG, walk_range=(0.0, 1.0)))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field, build", [
    ("service_radius", lambda v: v), ("walk_range", lambda v: (0.1, v)),
    ("customer_span_range", lambda v: (30.0, v)), ("parking_span_range", lambda v: (v, 70.0)),
    ("capacity", lambda v: v), ("locker_speed", lambda v: v), ("buffer_min", lambda v: v)])
def test_generate_rejects_non_finite_settings(field, build, value):
    with pytest.raises(ConfigurationError, match="must be finite"):
        generate_instance(replace(TABLE_CONFIG, **{field: build(value)}))


@pytest.mark.parametrize("seed", range(5))
def test_generated_invariants(seed):
    cfg = replace(TABLE_CONFIG, seed=seed)
    inst = generate_instance(cfg)
    assert validate_instance(inst).ok
    hours = WORKING_HOURS
    for cust in inst.customers:
        wins = [loc.window for loc in cust.locations]
        for w in wins:
            assert hours.start <= w.start <= w.end <= hours.end
        for i in range(len(wins)):
            for j in range(i + 1, len(wins)):
                assert wins[i].overlap(wins[j]) <= 0
    for sp in inst.spaces:
        assert sp.position.distance_to(inst.depot) <= cfg.service_radius + 1e-9


def test_assign_single_space_all_within_reach():
    sp = make_space(1, 0.0, 0.0)
    customers = [make_customer(k, 1, [(0.1 * k, 0.0, (600, 700), 1.0)]) for k in range(3)]
    a = assign_customers(make_instance([sp], customers))
    assert set(a.assigned) == {0, 1, 2}
    assert all(space == 1 for space, _ in a.assigned.values())
    assert a.unassignable == ()


def test_assign_nearest_of_two_spaces():
    spaces = [make_space(1, 0.0, 0.0), make_space(2, 10.0, 0.0)]
    cust = make_customer(0, 1, [(1.0, 0.0, (600, 700), 2.0)])
    a = assign_customers(make_instance(spaces, [cust]))
    assert a.assigned[0] == (1, 0)


def test_assign_unreachable_customer_reported():
    sp = make_space(1, 0.0, 0.0)
    cust = make_customer(0, 1, [(5.0, 0.0, (600, 700), 1.0)])  # distance 5 > walk 1
    a = assign_customers(make_instance([sp], [cust]))
    assert a.assigned == {}
    assert a.unassignable == (0,)


@pytest.mark.parametrize("seed", range(4))
def test_assignment_respects_walk_and_is_deterministic(seed):
    inst = generate_instance(replace(TABLE_CONFIG, seed=seed))
    a1 = assign_customers(inst)
    a2 = assign_customers(inst)
    assert a1 == a2
    for cid, (space_id, loc_idx) in a1.assigned.items():
        loc = inst.customer_by_id(cid).locations[loc_idx]
        d = loc.position.distance_to(inst.space_by_id(space_id).position)
        assert d <= loc.max_walk


def test_customer_by_id_keeps_the_first_of_a_duplicated_id():
    first = make_customer(7, 1, [(0.1, 0.0, (600, 700), 1.0)])
    second = make_customer(7, 2, [(0.2, 0.0, (650, 720), 1.0)])
    other = make_customer(3, 4, [(0.3, 0.0, (600, 720), 1.0)])
    inst = make_instance([make_space(1, 0.0, 0.0)], [first, other, second])
    assert inst.customer_by_id(7) is first
    assert inst.customer_by_id(3) is other
    with pytest.raises(KeyError, match="^'unknown customer id 5'$"):
        inst.customer_by_id(5)


def test_validate_flags_overlapping_customer_windows():
    sp = make_space(1, 0.0, 0.0)
    cust = make_customer(0, 1, [(0.1, 0.0, (600, 700), 1.0), (0.2, 0.0, (650, 720), 1.0)])
    report = validate_instance(make_instance([sp], [cust]))
    assert not report.ok
    assert any("overlap" in v.rule for v in report.violations)


def test_validate_flags_nonpositive_service_time():
    sp = make_space(1, 0.0, 0.0, service_time=0.0)
    report = validate_instance(make_instance([sp]))
    assert any("service time" in v.rule for v in report.violations)


def test_validate_flags_zero_objective_and_nan_service_time():
    sp = make_space(1, 0.0, 0.0, service_time=float("nan"))
    report = validate_instance(make_instance([sp], fixed_cost=0.0, unit_travel_cost=0.0))
    rules = [v.rule for v in report.violations]
    assert "non-positive service time" in rules
    assert any("costs are both zero" in rule for rule in rules)


@pytest.mark.parametrize("field", ["service_time", "max_walk", "capacity", "speed",
                                   "fixed_cost", "unit_travel_cost", "weight", "buffer"])
def test_validate_flags_infinite_numbers(field):
    def value(name, default):
        return math.inf if name == field else default

    sp = make_space(1, 0.0, 0.0, service_time=value("service_time", 30.0))
    cust = make_customer(0, 1, [(0.1, 0.0, (600, 700), value("max_walk", 1.0))])
    inst = make_instance([sp], [cust], capacity=value("capacity", 20.0),
                         speed=value("speed", 0.7), fixed_cost=value("fixed_cost", 1.0),
                         unit_travel_cost=value("unit_travel_cost", 1.0),
                         weights=(value("weight", 5.0), 1.0), buffer=value("buffer", 10.0))
    rules = [v.rule for v in validate_instance(inst).violations]
    assert len(rules) == 1 and rules[0].startswith("non-finite ")


def test_validate_flags_demand_too_large_for_a_float_load():
    sp = make_space(1, 0.0, 0.0)
    at_limit = make_customer(0, 2 ** 53, [(0.1, 0.0, (600, 700), 1.0)])
    above = make_customer(1, 2 ** 53 + 1, [(0.1, 0.0, (800, 900), 1.0)])
    report = validate_instance(make_instance([sp], [at_limit, above]))
    assert [(v.entity, v.rule.split(" ")[0]) for v in report.violations] \
        == [("customer 1", "demand")]


@pytest.mark.parametrize("space_id", [0, -3])
def test_validate_flags_space_ids_below_one(space_id):
    report = validate_instance(make_instance([make_space(space_id, 1.0, 0.0)]))
    assert [(v.entity, v.rule.split(";")[0]) for v in report.violations] \
        == [(f"space {space_id}", "space id below 1")]


@pytest.mark.parametrize("field", ["fixed_cost", "unit_travel_cost", "weight", "position"])
def test_validate_flags_an_objective_that_overflows(field):
    def value(name, default):
        return 1e308 if name == field else default

    sp = make_space(1, value("position", 3.0), 0.0)
    cust = make_customer(0, 1, [(3.0, 0.0, (600, 700), 1.0)])
    inst = make_instance([sp], [cust, make_customer(1, 1, [(3.0, 0.0, (800, 900), 1.0)])],
                         fixed_cost=value("fixed_cost", 1.0),
                         unit_travel_cost=value("unit_travel_cost", 1.0),
                         weights=(value("weight", 5.0), 1.0))
    report = validate_instance(inst)
    assert [v.entity for v in report.violations] == ["objective"]


def test_validate_accepts_a_large_finite_objective():
    # The speed keeps the 1e300 km leg to about a minute, so plan times stay sound.
    sp = make_space(1, 1e300, 0.0)
    cust = make_customer(0, 1, [(1e300, 0.0, (600, 700), 1.0)])
    inst = make_instance([sp], [cust], fixed_cost=1e300, speed=1e300, weights=(5.0, 1.0))
    assert validate_instance(inst).ok


def test_validate_flags_plan_times_that_swamp_service_times():
    # At speed 0.7 the 1e300 km leg takes about 1.4e300 minutes, where adding a
    # 30-minute service time changes nothing.
    sp = make_space(1, 1e300, 0.0)
    cust = make_customer(0, 1, [(1e300, 0.0, (600, 700), 1.0)])
    inst = make_instance([sp], [cust], fixed_cost=1e300, weights=(5.0, 1.0))
    assert [v.entity for v in validate_instance(inst).violations] == ["fleet"]


@pytest.mark.parametrize("service_time", [1e-300, 5e-324, 1440.0 / (MAX_SLICES_PER_SPACE + 1)])
def test_validate_flags_a_window_cut_into_too_many_slices(service_time):
    sp = make_space(1, 1.0, 0.0, service_time=service_time)
    report = validate_instance(make_instance([sp]))
    assert [(v.entity, v.rule.split(";")[0]) for v in report.violations] \
        == [("space 1", f"window span over service time exceeds {MAX_SLICES_PER_SPACE} slices")]


def test_validate_accepts_a_window_cut_into_the_most_slices():
    sp = make_space(1, 1.0, 0.0, service_time=1440.0 / MAX_SLICES_PER_SPACE)
    assert validate_instance(make_instance([sp])).ok


def test_load_refuses_an_integer_too_long_to_parse(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text('{"depot": [1' + "0" * 5000 + ', 0]}')
    with pytest.raises(InstanceFormatError):
        load_instance(path)


# (field path, value, the parse error): each field takes only its kind. An
# integer field takes only a JSON integer, a number field a JSON integer or
# float; never a bool or a string.
_WRONG_KIND = [
    (("customers", 0, "demand"), 2.7, "customers[0]: field 'demand' must be an integer, got 2.7"),
    (("spaces", 0, "id"), True, "spaces[0]: field 'id' must be an integer, got True"),
    (("spaces", 0, "id"), 1.0, "spaces[0]: field 'id' must be an integer, got 1.0"),
    (("fleet", "max_lockers"), "3", "fleet: field 'max_lockers' must be an integer, got '3'"),
    (("fleet", "capacity"), "20", "fleet: field 'capacity' must be a number, got '20'"),
    (("fleet", "speed"), True, "fleet: field 'speed' must be a number, got True"),
    (("buffer_min",), "10", "instance: field 'buffer_min' must be a number, got '10'"),
    (("depot",), ["0", 0], "depot: non-numeric pair ['0', 0]"),
    (("spaces", 0, "window"), [True, 700], "spaces[0].window: non-numeric pair [True, 700]"),
    (("weights",), [5, False], "weights: non-numeric pair [5, False]"),
    (("customers", 0, "locations", 0, "max_walk"), "1",
     "customers[0].locations[0]: field 'max_walk' must be a number, got '1'"),
    (("customers", 0, "locations"), {},
     "customers[0]: field 'locations' must be a list of objects"),
    (("spaces",), [{}, 5], "instance: field 'spaces' must be a list of objects"),
    (("fleet",), [], "instance: field 'fleet' must be an object"),
    # an error repeats at most 80 characters of a value
    (("depot",), list(range(100_000)), "depot: expected a [a, b] pair, got [0, 1, 2, 3,"),
    (("depot", 0), "1" * 100_000, "depot: non-numeric pair ['1111"),
]
# A record with several faults: the error names the first in file order, which
# is the order of the record's keys in a saved file.
_FIRST_FAULT = [
    ((), {"depot": [0, 0]}, "instance: missing required field 'spaces'"),
    (("spaces", 0), {}, "spaces[0]: missing required field 'id'"),
    (("spaces", 0), {"id": "1", "position": 3}, "spaces[0]: field 'id' must be an integer"),
    (("customers", 0), {}, "customers[0]: missing required field 'id'"),
    (("customers", 0, "locations", 0), {"window": 1},
     "customers[0].locations[0]: missing required field 'position'"),
    (("fleet",), {"speed": "fast"}, "fleet: missing required field 'max_lockers'"),
]

_DELETE = object()


def _mutated(path: tuple, value) -> dict:
    """The ``TABLE_CONFIG`` instance document with ``value`` at ``path`` (the
    whole document when ``path`` is empty), or without it when ``value`` is ``_DELETE``."""
    if not path:
        return value
    data = instance_to_dict(generate_instance(TABLE_CONFIG))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return data


@pytest.mark.parametrize("path, value, message", _WRONG_KIND + _FIRST_FAULT, ids=[
    f"{'.'.join(map(str, path))}={value!r:.12}" for path, value, _ in _WRONG_KIND + _FIRST_FAULT])
def test_load_refuses_a_number_of_the_wrong_kind(tmp_path, path, value, message):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(_mutated(path, value)))
    with pytest.raises(InstanceFormatError) as err:
        load_instance(inst_path)
    assert str(err.value).startswith(message)
    assert len(str(err.value).encode()) < 300


def test_load_reads_an_integer_in_a_number_field_as_a_float(tmp_path):
    data = instance_to_dict(generate_instance(TABLE_CONFIG))
    data["fleet"]["capacity"], data["depot"] = 20, [0, 1]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    inst = load_instance(path)
    assert type(inst.fleet.capacity) is float and inst.fleet.capacity == 20.0
    assert type(inst.depot.y) is float and inst.depot.y == 1.0


def test_validate_clean_instance():
    inst = generate_instance(TABLE_CONFIG)
    assert validate_instance(inst).violations == ()


def test_roundtrip_identity(tmp_path):
    inst = generate_instance(TABLE_CONFIG)
    save_instance(inst, tmp_path / "inst.json")
    assert load_instance(tmp_path / "inst.json") == inst


def test_load_truncated_file_raises(tmp_path):
    inst = generate_instance(TABLE_CONFIG)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(InstanceFormatError) as err:
        load_instance(path)
    assert "line" in str(err.value)


@pytest.mark.parametrize("path, message", [
    (("weights",), "instance: missing required field 'weights'"),
    (("spaces", 0, "service_time"), "spaces[0]: missing required field 'service_time'"),
    (("customers", 1, "demand"), "customers[1]: missing required field 'demand'"),
    (("customers", 0, "locations", 0, "window"),
     "customers[0].locations[0]: missing required field 'window'"),
    (("fleet", "unit_travel_cost"), "fleet: missing required field 'unit_travel_cost'"),
], ids=["Instance", "ParkingSpace", "Customer", "CustomerLocation", "FleetSpec"])
def test_load_missing_field_names_context(tmp_path, path, message):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(_mutated(path, _DELETE)))
    with pytest.raises(InstanceFormatError) as err:
        load_instance(inst_path)
    assert str(err.value) == message


@pytest.mark.parametrize("path, context", [
    ((), "instance"), (("spaces", 0), "spaces[0]"),
    (("customers", 0, "locations", 0), "customers[0].locations[0]"), (("fleet",), "fleet"),
], ids=["instance", "space", "location", "fleet"])
def test_load_ignores_unknown_fields_with_warning(tmp_path, caplog, path, context):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(_mutated((*path, "comment"), "added by a future version")))
    with caplog.at_level(logging.WARNING, logger="mplq.instance"):
        back = load_instance(inst_path)
    assert back == generate_instance(TABLE_CONFIG)
    assert [rec.getMessage() for rec in caplog.records] == [
        f"{context}: ignoring unknown fields ['comment']"]


@pytest.mark.parametrize("path, keys", [
    ((), ["depot", "spaces", "customers", "fleet", "buffer_min", "weights"]),
    (("spaces", 0), ["id", "position", "window", "service_time"]),
    (("customers", 0), ["id", "demand", "locations"]),
    (("customers", 0, "locations", 0), ["position", "window", "max_walk"]),
    (("fleet",), ["max_lockers", "capacity", "speed", "fixed_cost", "unit_travel_cost"]),
], ids=["Instance", "ParkingSpace", "Customer", "CustomerLocation", "FleetSpec"])
def test_a_saved_file_spells_each_record_with_its_keys_in_order(tmp_path, path, keys):
    inst_path = tmp_path / "inst.json"
    save_instance(generate_instance(TABLE_CONFIG), inst_path)
    record = json.loads(inst_path.read_text())
    for key in path:
        record = record[key]
    assert list(record) == keys


def test_assignment_csv(tmp_path):
    inst = generate_instance(TABLE_CONFIG)
    a = assign_customers(inst)
    path = tmp_path / "assignment.csv"
    write_assignment_csv(inst, a, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "customer_id,space_id,location_index,distance_km"
    assert len(lines) == 1 + len(a.assigned)
    cid, space_id, loc_idx, dist = lines[1].split(",")
    assert a.assigned[int(cid)] == (int(space_id), int(loc_idx))
    assert math.isfinite(float(dist))
