"""The scheduling strategies and the deterministic dispatch simulation."""


import pytest

pytestmark = pytest.mark.distributed

from repro.distributed.scheduler import (
    DEFAULT_SCHEDULER,
    SCHEDULER_NAMES,
    Scheduler,
    SizeAwareScheduler,
    StaticScheduler,
    WorkStealingScheduler,
    get_scheduler,
    preferred_slot,
    shard_costs,
    shard_schedule,
    simulate_schedule,
)
from repro.exceptions import ValidationError
from repro.studies import ScenarioSpec


SPEC = ScenarioSpec(
    name="sched",
    axes={
        "lps": list(range(1, 13)),
        "backend": ["closed_form", "des"],
    },
)


class TestRegistry:
    def test_names_round_trip(self):
        for name in SCHEDULER_NAMES:
            strategy = get_scheduler(name)
            assert isinstance(strategy, Scheduler)
            assert strategy.name == name

    def test_default_is_registered(self):
        assert DEFAULT_SCHEDULER in SCHEDULER_NAMES

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError, match="scheduler"):
            get_scheduler("round-robin")


class TestPreferredSlot:
    def test_contiguous_blocks(self):
        # 10 shards over 3 slots: slot owns a contiguous block.
        owners = [preferred_slot(k, 10, 3) for k in range(10)]
        assert owners == sorted(owners)
        assert set(owners) == {0, 1, 2}

    def test_single_slot_owns_everything(self):
        assert all(preferred_slot(k, 7, 1) == 0 for k in range(7))


class TestSelection:
    COSTS = [4.0, 1.0, 9.0, 1.0, 2.0, 7.0]

    def test_static_prefers_own_block(self):
        s = StaticScheduler()
        # Slot 1 of 2 owns the back half of a 6-shard grid: indices 3..5.
        assert s.select([0, 1, 3, 4, 5], 1, 2, self.COSTS) == 3
        # Own block exhausted: crosses over to the lowest remaining index.
        assert s.select([0, 1], 1, 2, self.COSTS) == 0

    def test_work_stealing_takes_lowest_pending(self):
        s = WorkStealingScheduler()
        # Slot 1's static block is 3..5, but self-scheduling ignores it.
        assert s.select([2, 4, 5], 1, 2, self.COSTS) == 2

    def test_size_aware_takes_largest_cost(self):
        s = SizeAwareScheduler()
        assert s.select([0, 2, 5], 0, 2, self.COSTS) == 2  # cost 9.0
        # Tie on cost: lowest index wins (deterministic).
        assert s.select([1, 3], 0, 2, self.COSTS) == 1


class TestSimulation:
    def test_costs_positive_and_shard_shaped(self):
        costs = shard_costs(SPEC, 5)
        assert len(costs) == (SPEC.num_points + 4) // 5
        assert all(c > 0 for c in costs)

    def test_des_shards_cost_more_than_closed_form(self):
        # The nominal backend weights order the halves of the grid.
        costs = shard_costs(SPEC, 12)  # one shard per backend block
        assert costs[1] > costs[0]

    def test_trace_is_deterministic(self):
        a = simulate_schedule([3.0, 1.0, 2.0, 5.0], 2, WorkStealingScheduler())
        b = simulate_schedule([3.0, 1.0, 2.0, 5.0], 2, WorkStealingScheduler())
        assert a.finish_s == b.finish_s
        assert a.slot == b.slot
        assert a.stolen == b.stolen

    def test_every_shard_finishes(self):
        trace = simulate_schedule([1.0] * 7, 3, StaticScheduler())
        assert len(trace.finish_s) == 7
        assert all(f > 0 for f in trace.finish_s)
        assert trace.makespan_s == max(trace.finish_s)

    def test_static_never_steals_on_balanced_grid(self):
        trace = simulate_schedule([1.0] * 8, 4, StaticScheduler())
        assert trace.total_steals == 0

    def test_strategies_differ_on_skewed_grid(self):
        costs = shard_costs(SPEC, 2)
        traces = {
            name: shard_schedule(SPEC, 2, name) for name in SCHEDULER_NAMES
        }
        assert len(costs) == len(traces["static"].finish_s)
        # At least two strategies must disagree somewhere, else the axis
        # would be decorative.
        latencies = {tuple(t.finish_s) for t in traces.values()}
        assert len(latencies) >= 2

    def test_size_aware_makespan_never_worse_than_static(self):
        # LPT is a 4/3-approximation; list-static has no such guarantee on
        # skewed grids.  On this grid LPT must not lose.
        costs = shard_costs(SPEC, 2)
        lpt = simulate_schedule(costs, 4, SizeAwareScheduler())
        static = simulate_schedule(costs, 4, StaticScheduler())
        assert lpt.makespan_s <= static.makespan_s + 1e-12
