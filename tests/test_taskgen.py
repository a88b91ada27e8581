from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from mplq.instance import (MAX_SLICES_PER_SPACE, GeneratorConfig, TimeWindow, assign_customers,
                           generate_instance)
from mplq.taskgen import build_tasks, partition_subintervals, reduce_availability
from helpers import make_customer, make_instance, make_space


def test_reduce_tightens_to_customer_coverage():
    sp = make_space(1, 0.0, 0.0, window=(600, 960))
    out = reduce_availability(sp, [TimeWindow(620, 680), TimeWindow(840, 900)])
    assert (out.start, out.end) == (620, 900)


def test_reduce_identity_when_fully_covered():
    sp = make_space(1, 0.0, 0.0, window=(600, 960))
    out = reduce_availability(sp, [TimeWindow(600, 960)])
    assert (out.start, out.end) == (600, 960)


def test_reduce_disjoint_is_empty():
    sp = make_space(1, 0.0, 0.0, window=(600, 700))
    assert reduce_availability(sp, [TimeWindow(800, 900)]) is None


def test_reduce_no_customers_is_empty():
    sp = make_space(1, 0.0, 0.0, window=(600, 700))
    assert reduce_availability(sp, []) is None


def test_partition_exact_division():
    subs = partition_subintervals(TimeWindow(0, 60), 20.0)
    assert [(s.window.start, s.window.end) for s in subs] == [(0, 20), (20, 40), (40, 60)]
    assert [s.index for s in subs] == [1, 2, 3]


def test_partition_drops_remainder():
    subs = partition_subintervals(TimeWindow(600, 900), 70.0)
    assert [(s.window.start, s.window.end) for s in subs] == [
        (600, 670), (670, 740), (740, 810), (810, 880)]


def test_partition_span_below_service_time():
    assert partition_subintervals(TimeWindow(0, 15), 20.0) == []


def test_partition_rejects_nonpositive_service_time():
    with pytest.raises(ValueError):
        partition_subintervals(TimeWindow(0, 15), 0.0)


@pytest.mark.parametrize("service_time", [1e-300, 5e-324, 1440.0 / (MAX_SLICES_PER_SPACE + 1)])
def test_partition_refuses_more_slices_than_the_bound(service_time):
    # Without the bound, 1e-300 would ask for about 1.4e303 slices and never return.
    with pytest.raises(ValueError, match=f"exceeds {MAX_SLICES_PER_SPACE} slices"):
        partition_subintervals(TimeWindow(0.0, 1440.0), service_time)


def test_partition_builds_slices_up_to_the_bound():
    subs = partition_subintervals(TimeWindow(0.0, 1440.0), 1440.0 / MAX_SLICES_PER_SPACE)
    assert MAX_SLICES_PER_SPACE - 1 <= len(subs) <= MAX_SLICES_PER_SPACE


@given(start=st.floats(0, 1000), span=st.floats(0, 400), service=st.floats(1, 120))
def test_partition_properties(start, span, service):
    avail = TimeWindow(start, start + span)
    subs = partition_subintervals(avail, service)
    assert len(subs) == int(avail.span // service)
    for k, sub in enumerate(subs, start=1):
        assert sub.index == k
        assert sub.window.start == pytest.approx(start + (k - 1) * service)
        assert sub.window.span == pytest.approx(service)
        assert avail.start <= sub.window.start and sub.window.end <= avail.end + 1e-9


def _single_space_instance(customers, window=(600, 720), service_time=60.0, buffer=10.0):
    sp = make_space(1, 0.0, 0.0, window=window, service_time=service_time)
    return make_instance([sp], customers, buffer=buffer)


def test_build_places_customer_in_earliest_overlapping_slice():
    # availability [600, 720] with service 60 slices into [600,660] and [660,720]
    cust = make_customer(0, 3, [(0.1, 0.0, (620, 680), 1.0)])
    inst = _single_space_instance([cust])
    pool = build_tasks(inst, assign_customers(inst))
    assert len(pool) == 1
    task = pool.tasks[0]
    assert task.sub_index == 1 and task.demand == 3
    assert task.members == ((0, 620.0),)


def test_build_merges_demand_within_one_slice():
    custs = [make_customer(0, 2, [(0.1, 0.0, (600, 660), 1.0)]),
             make_customer(1, 3, [(0.0, 0.1, (610, 660), 1.0)])]
    inst = _single_space_instance(custs)
    pool = build_tasks(inst, assign_customers(inst))
    assert len(pool) == 1
    assert pool.tasks[0].demand == 5
    assert {cid for cid, _ in pool.tasks[0].members} == {0, 1}


def test_build_reports_unservable_below_buffer_overlap():
    cust = make_customer(0, 1, [(0.1, 0.0, (600, 605), 1.0)])  # max overlap 5 < 10
    inst = _single_space_instance([cust])
    pool = build_tasks(inst, assign_customers(inst))
    assert len(pool) == 0
    assert pool.unservable == (0,)


def test_build_allows_task_demand_above_capacity():
    cust = make_customer(0, 25, [(0.1, 0.0, (600, 660), 1.0)])
    inst = _single_space_instance([cust], buffer=10.0)
    pool = build_tasks(inst, assign_customers(inst))
    assert len(pool) == 1 and pool.tasks[0].demand == 25  # capacity is a routing concern


@pytest.mark.parametrize("seed", range(6))
def test_build_conservation_and_window_shape(seed):
    cfg = replace(GeneratorConfig(), seed=seed)
    inst = generate_instance(cfg)
    assignment = assign_customers(inst)
    pool = build_tasks(inst, assignment)

    served = {cid for t in pool.tasks for cid, _ in t.members}
    assert served | set(pool.unservable) == set(assignment.assigned)
    assert served & set(pool.unservable) == set()
    total = sum(t.demand for t in pool.tasks)
    expected = sum(inst.customer_by_id(cid).demand for cid in served)
    assert total == expected

    for task in pool.tasks:
        sp = inst.space_by_id(task.space_id)
        assert task.window.span == pytest.approx(sp.service_time, abs=1e-9)
        windows = []
        for cid in (c for c, _ in task.members):
            _, loc_idx = assignment.assigned[cid]
            windows.append(inst.customer_by_id(cid).locations[loc_idx].window)
        for w in windows:
            assert task.window.overlap(w) >= inst.buffer - 1e-9


def test_build_deterministic():
    inst = generate_instance(GeneratorConfig(seed=11))
    a = assign_customers(inst)
    assert build_tasks(inst, a) == build_tasks(inst, a)
