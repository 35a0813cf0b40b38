"""Tests for the benchmark's own arithmetic and its tracer.

    python3 -m pytest perfbench -q
"""

import sys
import types

import pytest

from metrics import median, self_times, tail
from tracer import Tracer


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    # 0: root [0, 100); 1: child [10, 40); 2: grandchild [15, 20) inside 1
    starts, ends, parents = [0, 10, 15], [100, 40, 20], [-1, 0, 1]
    assert self_times(starts, ends, parents) == [70, 25, 5]


def test_self_time_counts_overlapping_children_once():
    # children [10, 40) and [30, 60) overlap on [30, 40): union is 50 long
    starts, ends, parents = [0, 10, 30], [100, 40, 60], [-1, 0, 0]
    assert self_times(starts, ends, parents) == [50, 30, 30]


def test_self_time_handles_contained_and_disjoint_children():
    # [10, 50) contains [20, 30); [70, 80) is disjoint: union 40 + 10
    starts, ends, parents = [0, 10, 20, 70], [100, 50, 30, 80], [-1, 0, 0, 0]
    assert self_times(starts, ends, parents)[0] == 50


def test_self_time_clips_children_to_the_parent():
    starts, ends, parents = [0, 40], [50, 80], [-1, 0]
    assert self_times(starts, ends, parents) == [40, 40]


def test_self_time_subtracts_folded_calls_and_never_goes_negative():
    starts, ends, parents = [0, 10], [100, 30], [-1, 0]
    assert self_times(starts, ends, parents, folded=[30, 0]) == [50, 20]
    assert self_times([0], [10], [-1], folded=[25]) == [0]


# -- percentiles -------------------------------------------------------------


def test_median_odd_and_even():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail(list(range(10)))


@pytest.mark.parametrize(
    "n, value, pct",
    [
        (11, 0, 100.0 / 11),  # only the smallest sample has ten beyond it
        (12, 1, 200.0 / 12),
        (20, 9, 50.0),
        (40, 29, 75.0),
        (1000, 989, 99.0),
    ],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, value, pct):
    samples = list(range(n))
    got, got_pct = tail(list(reversed(samples)))
    assert got == value
    assert got_pct == pytest.approx(pct)
    assert sum(1 for s in samples if s > got) == 10


def test_tail_with_ties_counts_positions():
    got, pct = tail([5] * 15)
    assert got == 5 and pct == pytest.approx(100.0 * 5 / 15)


# -- tracer ------------------------------------------------------------------


@pytest.fixture
def fake_module():
    mod = types.ModuleType("perfbench_fake_program")

    def leaf(x):
        return x + 1

    def outer(x, fail=False):
        y = mod.leaf(x)
        if fail:
            raise KeyError(y)
        return mod.Thing().step(y)

    class Thing:
        def step(self, y):
            return y * 2

    class SubThing(Thing):
        pass

    mod.leaf, mod.outer, mod.Thing, mod.SubThing = leaf, outer, Thing, SubThing
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def _tracer():
    name = "perfbench_fake_program"
    return Tracer(
        spans=(
            (name, "outer", "fake.outer"),
            (name + ":Thing", "step", "fake.step"),
            (name + ":SubThing", "step", "fake.sub_step"),
            (name, "gone", "fake.gone"),  # absent name: skipped, reports zero calls
            ("perfbench_no_such_module", "f", "fake.none"),
        ),
        folded=((name, "leaf", "fake.leaf"),),
        draws=(),
    )


def test_tracer_restores_names_after_a_traced_run_that_raised(fake_module):
    originals = (fake_module.outer, fake_module.leaf, vars(fake_module.Thing)["step"])
    tracer = _tracer()
    with pytest.raises(KeyError) as info:
        with tracer:
            assert fake_module.outer is not originals[0]
            fake_module.outer(1, fail=True)
    assert info.value.args == (2,)  # the wrapped function's own exception
    assert (fake_module.outer, fake_module.leaf, vars(fake_module.Thing)["step"]) == originals
    assert "step" not in vars(fake_module.SubThing)  # inherited name is removed again
    assert tracer.restored()
    # the span that raised was still closed
    assert tracer.per_name()["fake.outer"][0] == 1
    assert not tracer.stack


def test_tracer_records_spans_and_returns_what_the_function_returns(fake_module):
    tracer = _tracer()
    with tracer:
        tracer.op = 7
        assert fake_module.outer(1) == 4
        assert fake_module.SubThing().step(5) == 10
    per_name = tracer.per_name()
    assert per_name["fake.outer"][0] == 1
    # SubThing inherits step, so its wrapper wraps Thing's wrapper: two step spans
    assert per_name["fake.step"][0] == 2
    assert per_name["fake.sub_step"][0] == 1
    assert "fake.gone" not in per_name
    assert tracer.counts["fake.leaf.calls"] == 1
    outer = tracer.names.index("fake.outer")
    step = tracer.names.index("fake.step")
    i_outer = list(tracer.name_ids).index(outer)
    i_step = list(tracer.name_ids).index(step)
    assert tracer.parents[i_step] == i_outer
    assert tracer.folded_calls[i_outer] == 1  # leaf charged to the enclosing span
    assert set(tracer.ops) == {7}
    assert tracer.restored()


def test_restored_detects_a_name_left_wrapped(fake_module):
    tracer = _tracer()
    with tracer:
        wrapped = fake_module.outer
    fake_module.outer = wrapped
    assert not tracer.restored()
