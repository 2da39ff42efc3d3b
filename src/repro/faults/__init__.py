"""Deterministic fault injection for the study execution stack.

The paper's pipeline models an *unreliable substrate* — faulty qubits in
the Chimera hardware model (:mod:`repro.hardware.faults`) — and the
execution infrastructure that reproduces it has to survive an unreliable
substrate of its own: worker processes die, cache files tear, connections
reset.  This package provides the chaos half of that story: a seedable,
fully deterministic :class:`FaultPlan` that injects failures at named
sites across the executor, the shard cache, and the HTTP service, so the
resilience machinery (shard retry, worker-death recovery, journal
replay, client retry) is exercised by tests and the CI chaos smoke
rather than trusted on faith.

The load-bearing invariant, asserted wherever faults are injected: a
study run under injected *transient* faults produces an artifact
**byte-identical** to the fault-free run.  Faults may cost retries,
recomputation, and requeues — all reported through :class:`FaultStats`
or the coordinator's stats — but never different bytes.

Activation:

* explicitly — ``run_study(faults=FaultPlan([...]))``;
* ambiently — the ``REPRO_FAULTS`` environment variable
  (:data:`FAULTS_ENV_VAR`) holding the plan's JSON form, picked up by
  ``run_study`` and :class:`~repro.service.StudyServer` so the live-server
  e2e tier and the CI chaos smoke can inject faults without code changes.
"""

from .plan import (
    FAULT_SITES,
    FAULTS_ENV_VAR,
    FaultInjected,
    FaultPlan,
    FaultRule,
    FaultStats,
    SITE_CACHE_READ,
    SITE_CACHE_WRITE,
    SITE_HTTP_CONNECTION,
    SITE_HTTP_SLOW,
    SITE_SHARD_EVAL,
    SITE_WORKER_DEATH,
    SITE_WORKER_PULL,
    SITE_WORKER_PUSH,
)

__all__ = [
    "FAULT_SITES",
    "FAULTS_ENV_VAR",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "FaultStats",
    "SITE_CACHE_READ",
    "SITE_CACHE_WRITE",
    "SITE_HTTP_CONNECTION",
    "SITE_HTTP_SLOW",
    "SITE_SHARD_EVAL",
    "SITE_WORKER_DEATH",
    "SITE_WORKER_PULL",
    "SITE_WORKER_PUSH",
]
