"""A learning-augmented member of the closed-form backend family.

Following the learning-augmented analytic-modeling approach (PAPERS.md:
"Learning-Augmented Performance Model for Tensor Product Factorization in
High-Order FEM"), this backend keeps the closed forms' *structure* but
fits one multiplicative constant per stage to measured sweep columns: a
frozen training table of ``(lps, accuracy, success, stage1_s, stage2_s,
stage3_s)`` rows (a recorded measurement sweep, committed as data for
reproducibility) is fitted by least squares in log space —

    ``alpha_i = exp(mean(log(measured_i / predicted_i)))``

— and predictions are ``alpha_i * closed_form_i``.  That is exactly the
closed-form family's per-stage constants, so the backend is a
:class:`~repro.backends.closed_form.ClosedFormBackend` that only sets
``stage_constants``.  Because the training rows cover only part of the
operating space and the stage constants absorb systematic bias, not shape
error, the backend declares a *wider* envelope (``rtol=4.0``) than the
calibrated backend: the fit is expected to track the reference well
inside the training region but is trusted less when extrapolating.  The
registry-parametrized differential suite enrolls it automatically and
asserts agreement inside the declared envelope.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from ..core.pipeline import SplitExecutionModel
from ..exceptions import ValidationError
from .base import BackendCapabilities, register
from .closed_form import ClosedFormBackend

__all__ = ["LearnedBackend", "TRAINING_SWEEP_ROWS", "fit_stage_constants"]

#: Frozen measured sweep: ``(lps, accuracy, success, stage1_s, stage2_s,
#: stage3_s)`` rows from one recorded measurement run over the Fig.-9
#: operating region.  Committed as data so every process fits identical
#: constants (live measurement would break byte-identical study artifacts).
TRAINING_SWEEP_ROWS: tuple[tuple[int, float, float, float, float, float], ...] = (
    (10, 0.99, 0.7, 0.6439796462615196, 0.0004906637539783821, 6.2984900440540995e-09),
    (10, 0.9, 0.61, 0.5973789766451404, 0.00045167776922582295, 5.195641890549247e-09),
    (20, 0.99, 0.7, 3.1786742906515184, 0.0005008300424249726, 9.227268958079345e-09),
    (20, 0.9, 0.61, 3.1709806923461668, 0.0004693098352489219, 6.921916654920654e-09),
    (40, 0.99, 0.7, 26.261850537100504, 0.000543534447708027, 1.5806731522037603e-08),
    (40, 0.9, 0.61, 24.185511135256082, 0.0004893431389820116, 1.3266618582055124e-08),
    (60, 0.99, 0.7, 88.7128125894943, 0.000499280991502884, 3.043783768717567e-08),
    (60, 0.9, 0.61, 90.37101304531437, 0.0004415295095845113, 2.00489798612776e-08),
    (80, 0.99, 0.7, 193.59385476168035, 0.0004634694745079686, 4.003179768347416e-08),
    (80, 0.9, 0.61, 210.0221001507147, 0.00047386573163221826, 2.517947806440742e-08),
    (100, 0.99, 0.7, 390.70728379312, 0.00042812767214027187, 4.62847776534507e-08),
    (100, 0.9, 0.61, 378.98845849002186, 0.0004657142020205341, 2.795515128240403e-08),
)


def fit_stage_constants(
    rows: Iterable[tuple[int, float, float, float, float, float]],
    model: SplitExecutionModel | None = None,
) -> tuple[float, float, float]:
    """Log-space least-squares fit of one constant per stage.

    Each training row contributes ``log(measured_i / predicted_i)`` to the
    stage-``i`` fit; the minimizer of the mean squared log ratio is the
    geometric mean.  Non-finite or non-positive measured columns are a data
    error and raise :class:`ValidationError` — the same non-finite hygiene
    :func:`repro.core.calibration.calibrate_embed_rate` enforces.
    """
    model = model or SplitExecutionModel()
    logs: tuple[list[float], list[float], list[float]] = ([], [], [])
    for lps, accuracy, success, *measured in rows:
        if len(measured) != 3:
            raise ValidationError(
                f"training rows need 3 measured stage columns, got {len(measured)}"
            )
        t = model.time_to_solution(int(lps), float(accuracy), float(success))
        predicted = (t.stage1_seconds, t.stage2_seconds, t.stage3_seconds)
        for i, (meas, pred) in enumerate(zip(measured, predicted)):
            if not (math.isfinite(meas) and meas > 0):
                raise ValidationError(
                    f"measured stage{i + 1} column must be positive and finite, "
                    f"got {meas!r} at lps={lps}"
                )
            if pred <= 0:
                continue
            logs[i].append(math.log(meas / pred))
    alphas = []
    for i, series in enumerate(logs):
        if not series:
            raise ValidationError(
                f"no usable training rows for stage{i + 1}; cannot fit a constant"
            )
        alphas.append(float(np.exp(np.mean(series))))
    return (alphas[0], alphas[1], alphas[2])


@register
class LearnedBackend(ClosedFormBackend):
    """Closed forms rescaled by per-stage constants fitted to measurements."""

    name = "learned"
    capabilities = BackendCapabilities(
        supported_axes=frozenset({"lps", "accuracy", "success"}),
        # Wider than the calibrated backend: the per-stage constants are
        # trusted inside the training region, less so extrapolating.
        rtol=4.0,
        atol=0.0,
        description=(
            "closed forms with per-stage constants least-squares fitted to a "
            "recorded measurement sweep (learning-augmented model)"
        ),
    )

    def __init__(self) -> None:
        super().__init__()
        self.stage_constants = fit_stage_constants(TRAINING_SWEEP_ROWS, self.base)
