"""The closed-form pipeline as a registered performance backend.

Wraps :class:`repro.core.pipeline.SplitExecutionModel` — the reference
implementation every other backend's tolerance is declared against — and
is the one implementation of the *closed-form family*: a base model, the
config's operating constants applied through :func:`model_for_config`,
and one multiplicative constant per stage total.  The reference itself
uses the paper's stage models and constants of 1.0 (multiplying by 1.0 is
exact, so its columns are the unscaled closed forms); the measurement-
fitted backends are subclasses that change only the base model
(:mod:`repro.backends.calibrated`) or the constants
(:mod:`repro.backends.learned`).

The batched entry point keeps the zero-copy ``sweep_arrays`` fast path
(bit-identical to the scalar ``time_to_solution`` loop, audited in
``tests/test_pipeline_sweep_arrays.py``) and derives the table columns
through :meth:`~repro.backends.base.SweepColumns.from_stages`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from ..core.pipeline import SplitExecutionModel
from .base import (
    CONTENTION_AXES,
    DEFAULT_OPERATING_POINT,
    BackendCapabilities,
    BackendTimings,
    PerformanceBackend,
    SweepColumns,
    register,
)

__all__ = ["ClosedFormBackend", "model_for_config"]

#: Every *model* axis routes through ``SplitExecutionModel.with_overrides``;
#: the contention axes describe simulated traffic the closed forms have no
#: realization of, so they stay pinned at their defaults for this backend.
_ALL_AXES = frozenset(DEFAULT_OPERATING_POINT) - CONTENTION_AXES


def model_for_config(
    config: Mapping, base: SplitExecutionModel | None = None
) -> SplitExecutionModel:
    """The closed-form model realizing one config's operating constants.

    The single knob-turning path shared by the closed-form family and the
    ``des`` backend (the DES runtime consumes closed-form stage durations
    as its event-delay profile), so every "what if the machine were
    different" question builds models the same way.  ``base`` defaults to
    the paper's stage models; absent keys fall back to the paper's
    defaults.
    """

    def value(axis: str):
        return config.get(axis, DEFAULT_OPERATING_POINT[axis])

    return (base if base is not None else SplitExecutionModel()).with_overrides(
        embedding_mode=value("embedding_mode"),
        anneal_us=value("anneal_us"),
        clock_hz=value("clock_hz"),
        memory_bandwidth_bytes_per_s=value("memory_bandwidth_bytes_per_s"),
        pcie_bandwidth_bytes_per_s=value("pcie_bandwidth_bytes_per_s"),
    )


@register
class ClosedFormBackend(PerformanceBackend):
    """Closed-form Stage 1-3 models composed by ``SplitExecutionModel``."""

    name = "closed_form"
    capabilities = BackendCapabilities(
        supported_axes=_ALL_AXES,
        rtol=0.0,
        atol=0.0,
        description="closed-form stage models (Figs. 6-8); the reference backend",
    )
    #: ``(alpha1, alpha2, alpha3)`` multipliers on the stage totals.
    stage_constants: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __init__(self) -> None:
        self.base = SplitExecutionModel()

    def evaluate(self, point: Mapping) -> BackendTimings:
        self.capabilities.check_point(point)
        lps = int(point["lps"])
        accuracy = float(point["accuracy"])
        success = float(point["success"])
        t = model_for_config(point, self.base).time_to_solution(lps, accuracy, success)
        a1, a2, a3 = self.stage_constants
        return BackendTimings(
            backend=self.name,
            lps=lps,
            accuracy=accuracy,
            success=success,
            stage1_s=a1 * t.stage1_seconds,
            stage2_s=a2 * t.stage2_seconds,
            stage3_s=a3 * t.stage3_seconds,
            repetitions=t.stage2.repetitions,
        )

    def sweep(self, config: Mapping, lps_values: Iterable[int]) -> SweepColumns:
        self.capabilities.check_point(config)
        sweep = model_for_config(config, self.base).sweep_arrays(
            np.asarray(list(lps_values), dtype=np.int64),
            accuracy=float(config["accuracy"]),
            success=float(config["success"]),
        )
        a1, a2, a3 = self.stage_constants
        return SweepColumns.from_stages(
            a1 * sweep.stage1.total,
            a2 * sweep.stage2.total,
            a3 * sweep.stage3.total,
            sweep.stage2.repetitions,
        )
