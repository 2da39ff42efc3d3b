"""The ``PerformanceBackend`` protocol and its string-keyed registry.

The paper's trust argument rests on three *independent* realizations of the
same split-execution performance model: the closed forms (Figs. 6-8), the
ASPEN-evaluated listings, and the discrete-event runtime.  This module
gives them one calling convention so the study engine, the CLI, and the
differential test suite can treat "which model implementation" as data:

* :class:`PerformanceBackend` — the protocol: a scalar
  :meth:`~PerformanceBackend.evaluate` producing a
  :class:`BackendTimings`, a batched :meth:`~PerformanceBackend.sweep`
  producing :class:`SweepColumns` for one contiguous LPS run, and a
  :class:`BackendCapabilities` descriptor declaring which study axes the
  backend honors and how closely it is expected to track the closed-form
  reference;
* the registry — :func:`register` / :func:`get` /
  :func:`available_backends` / :func:`capabilities`, keyed on short string
  names (``"closed_form"``, ``"aspen"``, ``"des"``), so new backends plug
  in entry-point style without touching the executor.

**The sweep == evaluate-loop contract.**  For every backend,
``sweep(config, lps_values)`` must be *bit-identical* to evaluating each
point through :meth:`~PerformanceBackend.evaluate` — batching is a fast
path, never a different answer.  The default :meth:`PerformanceBackend.sweep`
implements exactly that loop (:meth:`SweepColumns.from_timings`, which
reads the derived columns off :class:`BackendTimings`' scalar
properties).  Backends override it only to share per-config work — the
closed-form family routes through the zero-copy ``sweep_arrays``, ASPEN
evaluates the LPS-independent Stage 2 listing once per config — and
return through :meth:`SweepColumns.from_stages`, the one vector
implementation of the derived columns (total, quantum fraction, dominant
stage).  The study executor's scalar/vectorized determinism audit leans
on this contract.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .._registry import Registry
from ..core.machine_params import XEON_E5_2680
from ..exceptions import ValidationError
from ..hardware.timing import DW2_TIMING

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
]

#: The backend a spec collapses to when no ``backend`` axis is given.
DEFAULT_BACKEND = "closed_form"

#: The paper's single default operating point: one value per non-``backend``
#: study axis.  ``repro.studies.spec`` derives its axis defaults from this
#: mapping, and capability checks compare unsupported axes against it.
DEFAULT_OPERATING_POINT: dict[str, object] = {
    "queue_policy": "fifo",
    "sessions": 1,
    "arrival_rate": 0.0,
    "embedding_mode": "online",
    "clock_hz": XEON_E5_2680.clock_hz,
    "memory_bandwidth_bytes_per_s": XEON_E5_2680.memory_bandwidth_bytes_per_s,
    "pcie_bandwidth_bytes_per_s": XEON_E5_2680.pcie_bandwidth_bytes_per_s,
    "anneal_us": DW2_TIMING.anneal_us,
    "success": 0.7,
    "accuracy": 0.99,
    "lps": 50,
}

#: The contended-workload axes: the traffic pattern and queue discipline a
#: row's contention columns are simulated under (:mod:`repro.contention`).
#: Only backends whose model realizes contention — the DES runtime —
#: declare them in ``supported_axes``; analytic backends subtract this set
#: so the spec layer pins the axes at the defaults above (the defaults
#: must mirror ``repro.contention``'s ``DEFAULT_QUEUE_POLICY``; literals
#: here to keep this module import-cycle free).
CONTENTION_AXES = frozenset({"queue_policy", "sessions", "arrival_rate"})

#: Backend names are slugs: they live in spec JSON, artifact columns (a
#: fixed-width ``U24`` field), and CLI flags.
_NAME_PATTERN = re.compile(r"^[a-z][a-z0-9_]*$")
MAX_BACKEND_NAME_LENGTH = 24


def full_point(**overrides) -> dict:
    """A complete operating-point dict: the defaults plus ``overrides``."""
    unknown = set(overrides) - set(DEFAULT_OPERATING_POINT)
    if unknown:
        raise ValidationError(
            f"unknown operating-point parameters {sorted(unknown)}; "
            f"valid: {sorted(DEFAULT_OPERATING_POINT)}"
        )
    return {**DEFAULT_OPERATING_POINT, **overrides}


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend supports, and how closely it tracks the reference.

    Parameters
    ----------
    supported_axes:
        The study axes whose values the backend honors.  Axes outside this
        set must sit at the paper's default operating point
        (:data:`DEFAULT_OPERATING_POINT`); the spec layer and
        :meth:`check_point` both enforce it.
    rtol, atol:
        The documented agreement envelope against the ``closed_form``
        reference, per stage column: ``|x - ref| <= atol + rtol * |ref|``.
        These are the tolerances the differential suite asserts and the
        study reports display.
    description:
        One line for reports and ``--help`` text.
    """

    supported_axes: frozenset[str]
    rtol: float
    atol: float
    description: str

    def check_point(self, point: Mapping) -> None:
        """Reject ``point`` if an unsupported axis strays from its default."""
        for axis, default in DEFAULT_OPERATING_POINT.items():
            if axis in self.supported_axes:
                continue
            value = point.get(axis, default)
            if value != default:
                raise ValidationError(
                    f"axis {axis!r} is not supported by this backend "
                    f"(got {value!r}, supported only at its default {default!r})"
                )


@dataclass(frozen=True)
class BackendTimings:
    """Stage-total prediction of one backend at one operating point.

    The backend-neutral counterpart of the closed forms' rich
    :class:`repro.core.StageTimings`: only the per-stage totals survive,
    because that is the largest surface all three model realizations share.
    Derived quantities reproduce the closed-form path's exact floating-point
    operation sequence (left-associated total, earlier-stage tie-breaking)
    so a closed-form :class:`BackendTimings` is bit-identical to the
    ``StageTimings`` it was built from.
    """

    backend: str
    lps: int
    accuracy: float
    success: float
    stage1_s: float
    stage2_s: float
    stage3_s: float
    repetitions: int

    @property
    def total_seconds(self) -> float:
        return self.stage1_s + self.stage2_s + self.stage3_s

    @property
    def dominant_stage(self) -> str:
        times = {
            "stage1": self.stage1_s,
            "stage2": self.stage2_s,
            "stage3": self.stage3_s,
        }
        return max(times, key=times.get)  # type: ignore[arg-type]

    @property
    def quantum_fraction(self) -> float:
        total = self.total_seconds
        return self.stage2_s / total if total > 0 else 0.0


@dataclass(frozen=True)
class SweepColumns:
    """Struct-of-arrays backend output for one contiguous LPS run.

    Exactly the model columns of a study results table, aligned with the
    run's ``lps`` values — what :meth:`PerformanceBackend.sweep` returns
    and the study executor copies into its shard slice.
    """

    stage1_s: np.ndarray
    stage2_s: np.ndarray
    stage3_s: np.ndarray
    total_s: np.ndarray
    quantum_fraction: np.ndarray
    dominant_stage: np.ndarray
    repetitions: np.ndarray

    @classmethod
    def from_timings(cls, timings: Sequence[BackendTimings]) -> "SweepColumns":
        """Columns assembled from per-point scalar evaluations."""
        return cls(
            stage1_s=np.array([t.stage1_s for t in timings], dtype=np.float64),
            stage2_s=np.array([t.stage2_s for t in timings], dtype=np.float64),
            stage3_s=np.array([t.stage3_s for t in timings], dtype=np.float64),
            total_s=np.array([t.total_seconds for t in timings], dtype=np.float64),
            quantum_fraction=np.array(
                [t.quantum_fraction for t in timings], dtype=np.float64
            ),
            dominant_stage=np.array([t.dominant_stage for t in timings], dtype="U6"),
            repetitions=np.array([t.repetitions for t in timings], dtype=np.int64),
        )

    @classmethod
    def from_stages(
        cls,
        stage1_s: np.ndarray,
        stage2_s: np.ndarray | float,
        stage3_s: np.ndarray,
        repetitions: int,
    ) -> "SweepColumns":
        """Columns derived from batched stage totals.

        ``stage2_s`` may be a scalar (Stage 2 is LPS-independent) and is
        broadcast.  The derived columns follow :class:`BackendTimings`'
        scalar rule exactly: left-associated total, a quantum fraction of
        0 for an empty total, and ties won by the earlier stage.
        """
        s1 = np.asarray(stage1_s, dtype=np.float64)
        s2 = np.full(s1.shape, stage2_s, dtype=np.float64)
        s3 = np.asarray(stage3_s, dtype=np.float64)
        total = s1 + s2 + s3
        return cls(
            stage1_s=s1,
            stage2_s=s2,
            stage3_s=s3,
            total_s=total,
            quantum_fraction=np.divide(
                s2, total, out=np.zeros_like(total), where=total > 0
            ),
            dominant_stage=np.where(
                s3 > np.maximum(s1, s2),
                "stage3",
                np.where(s2 > s1, "stage2", "stage1"),
            ).astype("U6"),
            repetitions=np.full(s1.shape, repetitions, dtype=np.int64),
        )

    def __len__(self) -> int:
        return int(self.stage1_s.shape[0])


class PerformanceBackend(ABC):
    """One realization of the split-execution performance model.

    Subclasses declare two class attributes — ``name`` (the registry key)
    and ``capabilities`` — and implement :meth:`evaluate`.  The batched
    :meth:`sweep` defaults to the evaluate loop; overrides must preserve
    bit-identity with it (the module docstring's contract).
    """

    name: str
    capabilities: BackendCapabilities

    @abstractmethod
    def evaluate(self, point: Mapping) -> BackendTimings:
        """Stage-total prediction at one full operating point.

        ``point`` carries every non-``backend`` axis (see
        :func:`full_point`); backends must reject points that move an
        unsupported axis off its default (``capabilities.check_point``).
        """

    def sweep(self, config: Mapping, lps_values: Iterable[int]) -> SweepColumns:
        """Batched predictions for one config's contiguous LPS run.

        ``config`` fixes every non-``lps`` axis.  The default
        implementation is the literal evaluate loop — the reference any
        override must match bit for bit.
        """
        return SweepColumns.from_timings(
            [self.evaluate({**config, "lps": int(n)}) for n in lps_values]
        )


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
BACKENDS: Registry[type[PerformanceBackend]] = Registry("backend")
_INSTANCES: dict[str, PerformanceBackend] = {}


def register(cls: type[PerformanceBackend] | None = None, *, replace: bool = False):
    """Register a :class:`PerformanceBackend` subclass under its ``name``.

    Usable as a plain decorator (``@register``) or with arguments
    (``@register(replace=True)``).  Registration is entry-point style:
    importing a module that registers a backend makes it reachable through
    :func:`get` and usable as a ``backend`` axis value in scenario specs.
    Collisions are an error unless ``replace=True`` — silently shadowing a
    backend would change what existing specs mean.

    Note that worker processes of the sharded study executor resolve
    backends from *their own* registry: custom backends must be registered
    at import time of their defining module (as the built-ins are), not
    conditionally at run time, to be visible under ``workers > 1`` spawn
    start methods.
    """

    def _register(cls: type[PerformanceBackend]) -> type[PerformanceBackend]:
        name = getattr(cls, "name", None)
        if not isinstance(name, str) or not name:
            raise ValidationError(
                f"backend class {cls.__name__} must declare a non-empty string `name`"
            )
        if not _NAME_PATTERN.match(name) or len(name) > MAX_BACKEND_NAME_LENGTH:
            raise ValidationError(
                f"backend name {name!r} must match {_NAME_PATTERN.pattern} and be "
                f"at most {MAX_BACKEND_NAME_LENGTH} characters (it is stored in "
                f"fixed-width artifact columns)"
            )
        if not isinstance(getattr(cls, "capabilities", None), BackendCapabilities):
            raise ValidationError(
                f"backend {name!r} must declare a BackendCapabilities descriptor"
            )
        if replace and name in BACKENDS.names():
            unregister(name)
        BACKENDS.add(name, cls)
        _INSTANCES.pop(name, None)
        return cls

    if cls is None:
        return _register
    return _register(cls)


def unregister(name: str) -> None:
    """Remove a registered backend (primarily for tests tearing down fakes)."""
    BACKENDS.remove(name)
    _INSTANCES.pop(name, None)


def available_backends() -> tuple[str, ...]:
    """The registered backend names, sorted."""
    return tuple(sorted(BACKENDS.names()))


def capabilities(name: str) -> BackendCapabilities:
    """The declared capabilities of backend ``name`` (no instantiation)."""
    return BACKENDS.get(name).capabilities


def get(name: str) -> PerformanceBackend:
    """The shared instance of backend ``name`` (constructed once, cached)."""
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = _INSTANCES[name] = BACKENDS.get(name)()
    return instance
