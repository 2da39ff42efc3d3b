"""Pluggable queue disciplines for the contended annealer resource.

The contention simulator (:mod:`repro.contention.simulate`) queues many
concurrent sessions on the single QPU :class:`~repro.runtime.des.Resource`.
*Which* waiter gets the next grant is the queue discipline — a pure,
stateless strategy object mirroring :class:`repro.distributed.scheduler`'s
``Scheduler`` protocol: the ``queue_policy`` study axis carries the
discipline's name, and :func:`get_queue_policy` resolves it.

``select`` receives the resource's :class:`~repro.runtime.des.Waiter`
tuple *in deterministic arrival order* ``(requested_at, seq)`` (the
resource's documented FIFO guarantee) and returns the index to grant.  A
discipline must be a pure function of that tuple, so the byte-determinism
of contended studies extends to every policy.

Disciplines
-----------
``fifo``
    First come, first served: always index 0, the earliest arrival.
``priority``
    Priority by problem size: the waiter with the *smallest* service
    demand (the request's ``tag``) first, ties to the earlier arrival —
    shortest-job-first, which trades p99 fairness for mean latency.
``round-robin``
    Processor sharing approximated by time slicing: grants are FIFO, but
    sessions split their quantum execution into :data:`ROUND_ROBIN_QUANTA`
    slices and re-queue between slices, paying the processor programming
    cost on each re-acquisition (the realistic cost of pre-empting an
    annealer).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from .._registry import Registry

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..runtime.des import Waiter

__all__ = [
    "DEFAULT_QUEUE_POLICY",
    "QUEUE_POLICIES",
    "QUEUE_POLICY_NAMES",
    "ROUND_ROBIN_QUANTA",
    "FifoDiscipline",
    "PriorityBySizeDiscipline",
    "QueueDiscipline",
    "RoundRobinDiscipline",
    "get_queue_policy",
]

#: How many slices a ``round-robin`` session splits its anneal cycle into.
#: Fixed by contract: it shapes the contention result columns, so changing
#: it is an artifact schema change (like ``SIM_WORKERS``).
ROUND_ROBIN_QUANTA = 4

#: Queue-policy names live in spec JSON and in the fixed-width
#: ``queue_policy`` artifact column.
MAX_QUEUE_POLICY_NAME_LENGTH = 16


@runtime_checkable
class QueueDiscipline(Protocol):
    """The policy contract: pick the next waiter to grant the annealer.

    ``select`` must be a pure function of the waiter tuple — the resource
    calls it on every release, and byte-stable artifacts depend on the
    pick being reproducible.  ``waiting`` is always non-empty and in
    deterministic arrival order; ``quanta`` is how many slices a session
    splits its anneal into under this policy (1 = run to completion).
    """

    name: str
    quanta: int

    def select(self, waiting: Sequence["Waiter"]) -> int:
        """Return the index (into ``waiting``) of the waiter to grant."""
        ...


class FifoDiscipline:
    """First come, first served: the earliest ``(requested_at, seq)`` entry."""

    name = "fifo"
    quanta = 1

    def select(self, waiting: Sequence["Waiter"]) -> int:
        return 0


class PriorityBySizeDiscipline:
    """Smallest service demand (the request ``tag``) first, ties FIFO."""

    name = "priority"
    quanta = 1

    def select(self, waiting: Sequence["Waiter"]) -> int:
        return min(range(len(waiting)), key=lambda i: (waiting[i].tag, waiting[i].seq))


class RoundRobinDiscipline:
    """FIFO grants with time-sliced sessions (processor-sharing approximation)."""

    name = "round-robin"
    quanta = ROUND_ROBIN_QUANTA

    def select(self, waiting: Sequence["Waiter"]) -> int:
        return 0


QUEUE_POLICIES: Registry[QueueDiscipline] = Registry(
    "queue policy",
    (FifoDiscipline(), PriorityBySizeDiscipline(), RoundRobinDiscipline()),
)

QUEUE_POLICY_NAMES = QUEUE_POLICIES.names()
DEFAULT_QUEUE_POLICY = "fifo"

#: Look up a discipline by name (the ``queue_policy`` axis values).
get_queue_policy = QUEUE_POLICIES.get
