"""Contended multi-tenant workloads over the discrete-event runtime.

The paper's Fig. 1 architecture assumes many clients sharing one
annealer; this package realizes that assumption as a subsystem:

* :mod:`~repro.contention.disciplines` — pluggable
  :class:`QueueDiscipline` strategies (``fifo`` / ``priority`` /
  ``round-robin``) deciding which queued session the annealer serves
  next, mirroring the distributed scheduler registry;
* :mod:`~repro.contention.simulate` — open (Poisson) and closed
  (population + think time) arrival processes driving N concurrent
  Fig.-2 sessions against the QPU resource, with every random draw
  pre-drawn from a dedicated spawn-stream namespace so contended study
  artifacts stay byte-identical across workers, shard orders, and
  topologies;
* :mod:`~repro.contention.analytic` — M/M/1 and M/D/1 closed forms with
  declared tolerance envelopes, the independent realization the
  differential suite cross-checks the simulator against.

The study executor fills the ``latency_p50_s`` / ``latency_p95_s`` /
``latency_p99_s`` / ``queue_wait_s`` / ``utilization`` artifact columns
through :func:`~repro.contention.simulate.contention_columns` for every
row whose backend declares the contention axes (the DES backend).
"""

from .analytic import (
    ANALYTIC_MODELS,
    AnalyticQueueModel,
    QueuePrediction,
    get_analytic_model,
    md1_prediction,
    mm1_prediction,
)
from .disciplines import (
    DEFAULT_QUEUE_POLICY,
    QUEUE_POLICY_NAMES,
    QueueDiscipline,
    get_queue_policy,
)
from .simulate import (
    CONTENTION_COLUMNS,
    CONTENTION_DOMAIN,
    ContentionMetrics,
    ContentionWorkload,
    contention_columns,
    simulate_contention,
)

__all__ = [
    "ANALYTIC_MODELS",
    "CONTENTION_COLUMNS",
    "CONTENTION_DOMAIN",
    "DEFAULT_QUEUE_POLICY",
    "QUEUE_POLICY_NAMES",
    "AnalyticQueueModel",
    "ContentionMetrics",
    "ContentionWorkload",
    "QueueDiscipline",
    "QueuePrediction",
    "contention_columns",
    "get_analytic_model",
    "get_queue_policy",
    "md1_prediction",
    "mm1_prediction",
    "simulate_contention",
]
