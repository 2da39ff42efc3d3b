"""Analytic queueing predictions cross-checking the contention simulator.

The trust argument for the contended runtime mirrors the backend
differential suite: an independent realization — here, classical queueing
theory — predicts the same observables within a *declared* tolerance
envelope.  A single-server queue fed by Poisson arrivals at rate λ with
mean service time s has utilization ρ = λs, and a mean queue wait given
by the Pollaczek–Khinchine formula; the two service laws the simulator
implements have closed forms:

* **M/M/1** (``service="exponential"``): ``Wq = ρ s / (1 - ρ)``
* **M/D/1** (``service="deterministic"``): ``Wq = ρ s / (2 (1 - ρ))``

:data:`ANALYTIC_MODELS` registers both with their envelopes, so the
differential suite parametrizes over the registry exactly as the backend
suite does over performance backends.  The envelopes are *statistical*:
the simulation estimates Wq from a finite, autocorrelated sample started
from an empty queue, so they are wider than the backend envelopes —
:data:`WAIT_RTOL` for the mean wait (plus an absolute floor of
``WAIT_ATOL_FRACTION x s`` for light traffic, where Wq is a tiny target)
and :data:`UTILIZATION_RTOL` for utilization (a much tighter estimate:
busy time is deterministic given the arrivals).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .._registry import Registry
from ..exceptions import ValidationError

__all__ = [
    "ANALYTIC_MODELS",
    "UTILIZATION_RTOL",
    "WAIT_RTOL",
    "AnalyticQueueModel",
    "QueuePrediction",
    "get_analytic_model",
    "md1_prediction",
    "mm1_prediction",
]

#: Declared relative envelope on the simulated mean queue wait vs the
#: analytic prediction (finite-sample + autocorrelation noise).
WAIT_RTOL = 0.15

#: Absolute floor on the wait comparison, as a fraction of the mean
#: service time: at low ρ the analytic Wq approaches 0 and a pure
#: relative envelope would demand unbounded precision of a noisy
#: estimator.
WAIT_ATOL_FRACTION = 0.02

#: Declared relative envelope on simulated utilization vs ρ = λs.
UTILIZATION_RTOL = 0.05


@dataclass(frozen=True)
class QueuePrediction:
    """Analytic steady-state prediction of one single-server queue."""

    arrival_rate: float
    mean_service_s: float
    utilization: float
    mean_wait_s: float

    @property
    def mean_latency_s(self) -> float:
        """Mean sojourn time: queue wait plus one service."""
        return self.mean_wait_s + self.mean_service_s


def _check_stable(arrival_rate: float, mean_service_s: float) -> float:
    if arrival_rate <= 0:
        raise ValidationError(f"arrival_rate must be positive, got {arrival_rate}")
    if mean_service_s <= 0:
        raise ValidationError(f"mean service time must be positive, got {mean_service_s}")
    rho = arrival_rate * mean_service_s
    if rho >= 1.0:
        raise ValidationError(
            f"unstable queue: utilization rho = {rho:.3f} >= 1 "
            f"(arrival_rate={arrival_rate}, service={mean_service_s})"
        )
    return rho


def mm1_prediction(arrival_rate: float, mean_service_s: float) -> QueuePrediction:
    """M/M/1: Poisson arrivals, exponential service.  ``Wq = rho s / (1 - rho)``."""
    rho = _check_stable(arrival_rate, mean_service_s)
    return QueuePrediction(
        arrival_rate=arrival_rate,
        mean_service_s=mean_service_s,
        utilization=rho,
        mean_wait_s=rho * mean_service_s / (1.0 - rho),
    )


def md1_prediction(arrival_rate: float, mean_service_s: float) -> QueuePrediction:
    """M/D/1: Poisson arrivals, deterministic service.  ``Wq = rho s / (2(1 - rho))``."""
    rho = _check_stable(arrival_rate, mean_service_s)
    return QueuePrediction(
        arrival_rate=arrival_rate,
        mean_service_s=mean_service_s,
        utilization=rho,
        mean_wait_s=rho * mean_service_s / (2.0 * (1.0 - rho)),
    )


@dataclass(frozen=True)
class AnalyticQueueModel:
    """One registered analytic model with its declared envelope.

    ``service`` names the :class:`~repro.contention.simulate.
    ContentionWorkload` service law the model predicts; the differential
    suite simulates with that law and asserts agreement within
    ``wait_rtol`` / ``utilization_rtol``.
    """

    name: str
    service: str
    predict: Callable[[float, float], QueuePrediction]
    wait_rtol: float = WAIT_RTOL
    wait_atol_fraction: float = WAIT_ATOL_FRACTION
    utilization_rtol: float = UTILIZATION_RTOL

    def wait_within_envelope(self, simulated_wait_s: float, prediction: QueuePrediction) -> bool:
        """Whether a simulated mean wait meets the declared envelope."""
        tol = (
            self.wait_rtol * prediction.mean_wait_s
            + self.wait_atol_fraction * prediction.mean_service_s
        )
        return abs(simulated_wait_s - prediction.mean_wait_s) <= tol

    def utilization_within_envelope(
        self, simulated_utilization: float, prediction: QueuePrediction
    ) -> bool:
        """Whether a simulated utilization meets the declared envelope."""
        return (
            abs(simulated_utilization - prediction.utilization)
            <= self.utilization_rtol * prediction.utilization
        )


ANALYTIC_MODELS: tuple[AnalyticQueueModel, ...] = (
    AnalyticQueueModel(name="mm1", service="exponential", predict=mm1_prediction),
    AnalyticQueueModel(name="md1", service="deterministic", predict=md1_prediction),
)

#: Look up a registered analytic queueing model by name.
get_analytic_model = Registry("analytic model", ANALYTIC_MODELS).get
