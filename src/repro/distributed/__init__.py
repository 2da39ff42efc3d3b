"""Distributed shard execution: coordinator, workers, scheduling strategies.

The executor's shard grid is fixed by ``shard_size`` alone, every shard
is content-addressed in the :class:`~repro.studies.cache.StudyCache`,
and artifacts are byte-stable — so a shard is already a self-describing
unit of *remote* work.  This package adds the execution tier that farms
those shards out:

* :class:`~repro.distributed.coordinator.ShardCoordinator` — owns the
  pending/leased/done state of registered studies, hands out shard
  leases with deadlines (requeue-on-expiry: a killed worker never loses
  a shard) by one rule, largest modeled shard first, and verifies pushed
  payloads against the shard's content hash before acceptance.
  Embedded in ``StudyServer`` (``cli coordinate``) it speaks the
  existing HTTP protocol.
* :class:`~repro.distributed.worker.ShardWorker` — the pull loop (``cli
  worker --coordinator URL``): lease, evaluate via the same
  ``_run_shard`` the inline loop uses, push bytes + digest, honoring
  the ``worker-pull`` / ``worker-push`` / ``worker-death`` fault sites.
* :mod:`~repro.distributed.scheduler` — the dispatch rule
  (:func:`~repro.distributed.scheduler.largest_first`) and the modeled
  strategies (``static`` / ``work-stealing`` / ``size-aware``) whose
  deterministic simulation fills the columns of the spec's ``scheduler``
  axis; the axis selects no live dispatch.

The invariant everything here preserves: the artifact is a pure function
of (spec, shard grid).  0 workers, 1 worker, N workers, a worker
SIGKILLed mid-study — same bytes.

``scheduler`` is imported eagerly (the spec's axis validation needs it);
the coordinator and worker load lazily so ``repro.studies`` can import
this package without a cycle.
"""

from .scheduler import (
    DEFAULT_SCHEDULER,
    SCHEDULER_NAMES,
    SIM_WORKERS,
    ScheduleTrace,
    Scheduler,
    get_scheduler,
    shard_costs,
    shard_schedule,
    simulate_schedule,
)

__all__ = [
    "DEFAULT_SCHEDULER",
    "SCHEDULER_NAMES",
    "SIM_WORKERS",
    "ScheduleTrace",
    "Scheduler",
    "ShardCoordinator",
    "ShardWorker",
    "get_scheduler",
    "shard_costs",
    "shard_schedule",
    "simulate_schedule",
]

_LAZY = {
    "ShardCoordinator": "coordinator",
    "CoordinatorStats": "coordinator",
    "ShardWorker": "worker",
    "WorkerStats": "worker",
    "HttpCoordinatorTransport": "worker",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
