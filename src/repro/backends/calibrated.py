"""A measurement-calibrated member of the closed-form backend family.

Fig. 9(a) compares the Stage-1 prediction against *measured* CMR embedding
times, "within a factor of 4 … except in the region n < 10, which it
overestimates".  This backend closes that loop: a frozen reference table of
measured embedding wall-clock seconds (one recorded
:func:`repro.core.calibration.measure_cmr_timings` run, committed as data
so every process fits the identical model — live timing would break the
study engine's byte-identical-artifact invariant) is replayed through
:func:`repro.core.calibration.calibrate_embed_rate`, and the fitted
``embed_rate_scale`` becomes a Stage-1 constant of the base model.

The backend is a :class:`~repro.backends.closed_form.ClosedFormBackend`
that swaps only that base model; evaluation, the batched sweep and the
per-config operating constants are the closed-form family's.  Stages 2
and 3 are untouched, so only the Stage-1 embedding term moves — by the
fitted factor.  The declared envelope is the paper's factor-of-4 band:
``rtol=3.0`` makes ``|x - ref| <= 3 ref``, i.e. the multiplicative range
``[ref / 4, 4 ref]`` for positive predictions, exactly the Fig.-9(a)
claim.  The registry-parametrized differential suite picks the backend up
automatically and asserts agreement inside this envelope.
"""

from __future__ import annotations

from ..core.calibration import calibrate_embed_rate
from ..core.pipeline import SplitExecutionModel
from ..core.stage1 import Stage1Model
from .base import BackendCapabilities, register
from .closed_form import ClosedFormBackend

__all__ = ["CalibratedBackend", "REFERENCE_CMR_TIMINGS_S", "calibrated_stage1"]

#: Frozen measured CMR embedding times (seconds) for ``K_n`` into the DW2X
#: working graph — one recorded ``measure_cmr_timings`` run, committed so
#: the fit is reproducible bit for bit.  The model/measured ratios follow
#: the Fig.-9(a) shape: large overestimation below ``n = 10`` (excluded
#: from the fit, as the paper's comparison region suggests), within a
#: factor of 4 above it.
REFERENCE_CMR_TIMINGS_S: dict[int, float] = {
    4: 0.0009796899479148139,
    6: 0.0061230621744675865,
    8: 0.03428914817701848,
    10: 0.16208105755943614,
    12: 0.34639037444130927,
    16: 1.068752670452524,
    20: 2.449224869787035,
    24: 5.069895480459162,
    32: 14.397813753059188,
    48: 57.65688319554313,
    64: 150.4803759997154,
}


def calibrated_stage1() -> Stage1Model:
    """The Stage-1 model with ``embed_rate_scale`` fitted to the table."""
    return calibrate_embed_rate(REFERENCE_CMR_TIMINGS_S, Stage1Model(), min_size=10)


@register
class CalibratedBackend(ClosedFormBackend):
    """Closed forms with the embedding rate fitted to measured CMR timings."""

    name = "calibrated"
    capabilities = BackendCapabilities(
        supported_axes=frozenset({"lps", "accuracy", "success", "embedding_mode"}),
        # Fig. 9(a)'s factor-of-4 envelope: |x - ref| <= 3 ref  <=>
        # x in [ref / 4, 4 ref] for positive predictions.
        rtol=3.0,
        atol=0.0,
        description=(
            "closed forms with embed_rate_scale fitted to recorded CMR "
            "measurements (Fig. 9(a) factor-of-4 envelope)"
        ),
    )

    def __init__(self) -> None:
        self.base = SplitExecutionModel(stage1=calibrated_stage1())

    @property
    def embed_rate_scale(self) -> float:
        """The replayed fit's Stage-1 constant."""
        return self.base.stage1.embed_rate_scale
