"""Unified performance backends: one protocol over three model realizations.

The repo carries multiple independent implementations of the paper's
split-execution performance model — the closed forms, the ASPEN-evaluated
listings, the discrete-event runtime, plus two measurement-informed
variants (a calibration replay and a learning-augmented fit).  This
package puts them behind one
:class:`~repro.backends.base.PerformanceBackend` protocol and a
string-keyed registry::

    from repro import backends

    backends.available_backends()
    # ('aspen', 'calibrated', 'closed_form', 'des', 'learned')
    t = backends.get("aspen").evaluate(backends.full_point(lps=30))
    cols = backends.get("des").sweep(backends.full_point(), [1, 10, 100])

The scenario-study engine sweeps the registry through the spec's
``backend`` axis, the CLI threads ``--backend`` through ``predict`` /
``fig9`` / ``study``, and the differential suite parametrizes over the
registry so each backend is held to its declared tolerance against the
``closed_form`` reference.  New backends register entry-point style (a
:func:`~repro.backends.base.register`-decorated class at import time).
"""

from .aspen import AspenBackend
from .base import (
    BACKENDS,
    CONTENTION_AXES,
    DEFAULT_BACKEND,
    DEFAULT_OPERATING_POINT,
    BackendCapabilities,
    BackendTimings,
    PerformanceBackend,
    SweepColumns,
    available_backends,
    capabilities,
    full_point,
    get,
    register,
    unregister,
)
from .calibrated import CalibratedBackend
from .closed_form import ClosedFormBackend, model_for_config
from .des import DesBackend
from .learned import LearnedBackend

__all__ = [
    "BACKENDS",
    "CONTENTION_AXES",
    "DEFAULT_BACKEND",
    "DEFAULT_OPERATING_POINT",
    "BackendCapabilities",
    "BackendTimings",
    "PerformanceBackend",
    "SweepColumns",
    "available_backends",
    "capabilities",
    "full_point",
    "get",
    "register",
    "unregister",
    "model_for_config",
    "ClosedFormBackend",
    "AspenBackend",
    "DesBackend",
    "CalibratedBackend",
    "LearnedBackend",
]
