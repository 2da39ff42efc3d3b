"""Shard-dispatch strategies: the one live rule and the modeled axis.

The live :class:`~repro.distributed.coordinator.ShardCoordinator` has one
dispatch rule, :func:`largest_first`: lease the pending shard with the
largest modeled cost (:func:`shard_costs`), ties to the lowest index —
longest-processing-time first (LPT).  On a one-backend grid every full
shard costs the same, so it hands shards out in ascending index order,
the inline loop's order.  The simulated makespans in ROADMAP.md (static
vs self-scheduling vs LPT, 2-4 workers on three grids) are why this is
the rule: LPT ties or wins on every one.

The :class:`Scheduler` objects below serve the spec's ``scheduler`` axis
only.  The study executor fills the ``sched_latency_s`` /
``sched_steals`` result columns by *simulating* the row's strategy over
the study's real shard grid (:func:`shard_schedule`); no option selects
a strategy for live dispatch.

The simulation — not wall-clock measurement — is what keeps the
topology-independence invariant intact: the columns are a pure function
of (spec, shard_size, strategy), simulated once per study into its
:class:`~repro.studies.executor.StudyPlan`, so artifacts stay
byte-identical whether the study ran inline or across N remote
workers.  It is classic list scheduling over a nominal
:data:`SIM_WORKERS`-slot fleet with per-shard costs from
:func:`shard_costs` (point counts weighted by fixed per-backend cost
constants), in the spirit of the splitting-strategy comparisons for
or-parallel Prolog (PAPERS.md): the *relative* behavior of static
partitioning vs self-scheduling vs LPT is what a study compares, not
absolute seconds.

Modeled strategies
------------------
``static``
    Contiguous block ownership: shard ``k`` belongs to slot
    ``k * num_slots // num_shards``.  An idle slot takes its own lowest
    pending shard first and only crosses ownership (a *steal*) when its
    block is drained.
``work-stealing``
    Pure self-scheduling: every idle slot takes the globally lowest
    pending shard.  Any shard landing off its static home slot counts
    as a steal, so the steal column measures how far dispatch drifted
    from the static partition.
``size-aware``
    :func:`largest_first`, the live rule.  Distinguishable from the
    others only when shard costs vary — e.g. a swept ``backend`` axis
    mixing closed-form and DES shards.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from .._registry import Registry
from ..exceptions import ValidationError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..studies.spec import ScenarioSpec

__all__ = [
    "DEFAULT_SCHEDULER",
    "SCHEDULERS",
    "SCHEDULER_NAMES",
    "SIM_WORKERS",
    "ScheduleTrace",
    "Scheduler",
    "get_scheduler",
    "largest_first",
    "preferred_slot",
    "shard_costs",
    "shard_schedule",
    "simulate_schedule",
]

#: Nominal worker fleet the result columns are simulated against.  Fixed
#: by contract — it is part of the artifact's meaning (like a model
#: constant), never the live worker count, which would break byte
#: identity across topologies.
SIM_WORKERS = 4

#: Modeled seconds per grid point at unit backend weight.  Only the
#: *ratios* between strategies matter to a study; the absolute scale
#: just keeps the column in recognizable units.
NOMINAL_POINT_SECONDS = 1e-6

#: Relative per-point evaluation cost by backend, from the measured
#: sweep-throughput gap between the vectorized closed form, the ASPEN
#: tree-walker, and the DES event loop (BENCH_PERF.json).  Unknown
#: backends cost 1.0.  Values are part of the artifact contract: change
#: them and every cached shard correctly invalidates via the results
#: schema version.
NOMINAL_BACKEND_COST = {
    "closed_form": 1.0,
    "aspen": 4.0,
    "des": 16.0,
}

MAX_SCHEDULER_NAME_LENGTH = 16


def largest_first(costs: Sequence[float]) -> Callable[[int], tuple[float, int]]:
    """The coordinator's dispatch rule (LPT) as a sort key over shard
    indices: largest modeled cost first, ties to the lowest index."""
    return lambda k: (-costs[k], k)


def preferred_slot(shard_index: int, num_shards: int, num_slots: int) -> int:
    """The slot that statically owns ``shard_index``: balanced contiguous blocks."""
    if num_shards <= 0:
        raise ValidationError(f"num_shards must be positive, got {num_shards}")
    if num_slots <= 0:
        raise ValidationError(f"num_slots must be positive, got {num_slots}")
    if not 0 <= shard_index < num_shards:
        raise ValidationError(
            f"shard index {shard_index} out of range for {num_shards} shards"
        )
    return shard_index * num_slots // num_shards


@runtime_checkable
class Scheduler(Protocol):
    """The strategy contract: pick the next shard for an idle slot.

    ``select`` must be a pure function of its arguments — the simulation
    behind the result columns calls it, and byte-stable artifacts depend
    on it.  ``pending`` is always a non-empty ascending sequence of shard
    indices; ``costs`` has one modeled cost per shard of the whole grid
    (not just pending ones).
    """

    name: str

    def select(
        self,
        pending: Sequence[int],
        slot: int,
        num_slots: int,
        costs: Sequence[float],
    ) -> int:
        """Return the shard index (an element of ``pending``) to run next."""
        ...


class StaticScheduler:
    """Own contiguous block first; cross ownership only when drained."""

    name = "static"

    def select(self, pending, slot, num_slots, costs):
        num_shards = len(costs)
        for k in pending:
            if preferred_slot(k, num_shards, num_slots) == slot:
                return k
        return pending[0]


class WorkStealingScheduler:
    """Self-scheduling: globally lowest pending shard, regardless of owner."""

    name = "work-stealing"

    def select(self, pending, slot, num_slots, costs):
        return pending[0]


class SizeAwareScheduler:
    """LPT: largest modeled cost first, ties to the lowest shard index."""

    name = "size-aware"

    def select(self, pending, slot, num_slots, costs):
        return min(pending, key=largest_first(costs))


SCHEDULERS: Registry[Scheduler] = Registry(
    "scheduler", (StaticScheduler(), WorkStealingScheduler(), SizeAwareScheduler())
)

SCHEDULER_NAMES = SCHEDULERS.names()
DEFAULT_SCHEDULER = "static"

#: Look up a strategy by name (the spec-axis values).
get_scheduler = SCHEDULERS.get


@dataclass(frozen=True)
class ScheduleTrace:
    """One simulated dispatch of a shard grid under one strategy.

    Index ``k`` of each tuple describes shard ``k``: its modeled
    completion time, the slot that ran it, and whether taking it crossed
    the static ownership partition (a steal).
    """

    finish_s: tuple[float, ...]
    slot: tuple[int, ...]
    stolen: tuple[bool, ...]

    @property
    def makespan_s(self) -> float:
        return max(self.finish_s) if self.finish_s else 0.0

    @property
    def total_steals(self) -> int:
        return sum(self.stolen)


def shard_costs(spec: "ScenarioSpec", shard_size: int) -> list[float]:
    """Modeled evaluation cost (seconds) of every shard of ``spec``'s grid.

    Cost = points in the shard weighted by :data:`NOMINAL_BACKEND_COST`.
    ``backend`` is the outermost axis, so each backend owns one
    contiguous block of ``num_points / num_backends`` points and a
    shard's cost is a few interval intersections — O(shards x backends)
    regardless of grid size.
    """
    if shard_size <= 0:
        raise ValidationError(f"shard_size must be positive, got {shard_size}")
    num_points = spec.num_points
    backends = spec.backend_values
    block = num_points // len(backends)
    costs: list[float] = []
    for start in range(0, num_points, shard_size):
        stop = min(start + shard_size, num_points)
        cost = 0.0
        for b, backend in enumerate(backends):
            overlap = min(stop, (b + 1) * block) - max(start, b * block)
            if overlap > 0:
                cost += overlap * NOMINAL_BACKEND_COST.get(backend, 1.0)
        costs.append(cost * NOMINAL_POINT_SECONDS)
    return costs


def simulate_schedule(
    costs: Sequence[float],
    num_workers: int,
    scheduler: Scheduler | str,
) -> ScheduleTrace:
    """Deterministic list-scheduling of ``costs`` over ``num_workers`` slots.

    Slots start at time 0; the earliest-idle slot (ties to the lowest
    slot) repeatedly asks the strategy for its next shard.  Pure float
    arithmetic over a fixed event order — bit-identical everywhere.
    """
    if isinstance(scheduler, str):
        scheduler = get_scheduler(scheduler)
    if num_workers <= 0:
        raise ValidationError(f"num_workers must be positive, got {num_workers}")
    num_shards = len(costs)
    finish = [0.0] * num_shards
    slot_of = [0] * num_shards
    stolen = [False] * num_shards
    clocks = [0.0] * num_workers
    pending = list(range(num_shards))
    while pending:
        slot = min(range(num_workers), key=lambda s: (clocks[s], s))
        k = scheduler.select(pending, slot, num_workers, costs)
        pending.remove(k)
        clocks[slot] += costs[k]
        finish[k] = clocks[slot]
        slot_of[k] = slot
        stolen[k] = preferred_slot(k, num_shards, num_workers) != slot
    return ScheduleTrace(
        finish_s=tuple(finish), slot=tuple(slot_of), stolen=tuple(stolen)
    )


def shard_schedule(
    spec: "ScenarioSpec", shard_size: int, scheduler_name: str
) -> ScheduleTrace:
    """The trace the result columns are read from: ``scheduler_name``
    simulated over ``spec``'s shard grid on the nominal fleet."""
    return simulate_schedule(
        shard_costs(spec, shard_size), SIM_WORKERS, scheduler_name
    )
