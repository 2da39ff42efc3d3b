"""The ASPEN-evaluated paper listings as a registered performance backend.

Wraps :class:`repro.core.aspen_backend.AspenStageModels`: every number
comes from evaluating the bundled Fig. 6-8 listings on the Fig. 5 machine
model through the ASPEN evaluator — an implementation of the performance
model that shares no code with the closed forms, which is what makes its
agreement with them (declared here as ``rtol=1e-12``, asserted by the
differential suite) evidence rather than tautology.

The listings hard-code the paper's machine (Fig. 5) and the online
embedding flow, so the capabilities descriptor restricts this backend to
the ``lps``/``accuracy``/``success`` axes; machine-constant axes must sit
at their defaults.  The batched sweep evaluates the LPS-independent
Stage 2 listing once per config, and Stages 1 and 3 through compiled
LPS closures (:mod:`repro.aspen.compiler`) — same floats as the
per-point loop, computed array-at-a-time — and derives the table
columns through :meth:`~repro.backends.base.SweepColumns.from_stages`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from ..core.aspen_backend import AspenStageModels
from ..core.repetition import required_repetitions
from .base import (
    BackendCapabilities,
    BackendTimings,
    PerformanceBackend,
    SweepColumns,
    register,
)

__all__ = ["AspenBackend"]


@register
class AspenBackend(PerformanceBackend):
    """Stage models evaluated from the paper's ASPEN artifacts."""

    name = "aspen"
    capabilities = BackendCapabilities(
        supported_axes=frozenset({"lps", "accuracy", "success"}),
        rtol=1e-12,
        atol=0.0,
        description=(
            "ASPEN evaluator on the bundled Fig. 6-8 listings "
            "(paper machine only; online embedding)"
        ),
    )

    def __init__(self) -> None:
        self._models = AspenStageModels()

    def _stage_seconds(
        self, lps: int, accuracy: float, success: float
    ) -> tuple[float, float, float]:
        return (
            self._models.stage1_seconds(lps),
            self._models.stage2_seconds(accuracy * 100.0, success),
            self._models.stage3_seconds(lps, accuracy=accuracy, success=success),
        )

    def evaluate(self, point: Mapping) -> BackendTimings:
        self.capabilities.check_point(point)
        lps = int(point["lps"])
        accuracy = float(point["accuracy"])
        success = float(point["success"])
        s1, s2, s3 = self._stage_seconds(lps, accuracy, success)
        return BackendTimings(
            backend=self.name,
            lps=lps,
            accuracy=accuracy,
            success=success,
            stage1_s=s1,
            stage2_s=s2,
            stage3_s=s3,
            # The listings consume the ensemble size through the same Eq.-6
            # planner the closed forms use; surface it for the table column.
            repetitions=required_repetitions(accuracy, success),
        )

    def sweep(self, config: Mapping, lps_values: Iterable[int]) -> SweepColumns:
        self.capabilities.check_point(config)
        accuracy = float(config["accuracy"])
        success = float(config["success"])
        lps_run = np.array([int(n) for n in lps_values], dtype=np.int64)
        # Stage 2 is independent of LPS: its listing is evaluated once for
        # the whole run; Stages 1 and 3 go through the compiled LPS closures
        # (tree-walking fallback inside).
        return SweepColumns.from_stages(
            self._models.stage1_seconds_array(lps_run),
            self._models.stage2_seconds(accuracy * 100.0, success),
            self._models.stage3_seconds_array(
                lps_run, accuracy=accuracy, success=success
            ),
            required_repetitions(accuracy, success),
        )
