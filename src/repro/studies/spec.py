"""Declarative scenario-study specifications: parameter-space grids.

A :class:`ScenarioSpec` names a cartesian grid over the split-execution
model's operating-point axes — the performance backend, problem size,
target accuracy, success probability, embedding mode, and the host/QPU
machine constants — and the study executor (:mod:`repro.studies.executor`)
evaluates the performance models over every point of that grid.  The
paper's Fig. 9 is one tiny instance of such a study (three series over LPS
and accuracy); a spec can describe the whole families of operating points
Sec. 3.3 reasons about, evaluated by all three model realizations side by
side through the ``backend`` axis.

Point enumeration is *stable by construction*: axes are ordered by the
canonical :data:`AXIS_ORDER` (``backend`` outermost, then machine
constants, ``lps`` innermost) and points enumerate row-major over that
order, so point ``i`` of a spec means the same operating point forever —
artifacts, shards, and golden tests all key on it.  ``lps`` varying
fastest is also what lets the executor route each contiguous run of
points through a backend's batched ``sweep`` fast path; ``backend``
varying slowest keeps each backend's sub-grid one contiguous block for
per-backend comparison columns.

Backend values are validated against the live registry
(:mod:`repro.backends`), and each backend's capability descriptor is
enforced at spec-construction time: an axis the backend does not honor
may only sit at its single default value, so a spec never silently sweeps
a knob a backend ignores.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .._json import canonical_line
from ..backends import (
    BACKENDS,
    DEFAULT_BACKEND,
    DEFAULT_OPERATING_POINT,
    capabilities as backend_capabilities,
)
from ..contention.disciplines import QUEUE_POLICIES
from ..distributed.scheduler import DEFAULT_SCHEDULER, SCHEDULERS
from ..exceptions import ValidationError

__all__ = ["Axis", "ScenarioSpec", "AXIS_ORDER", "EXECUTOR_AXES", "axis_default"]

#: Canonical axis order, outermost first.  ``lps`` is always innermost
#: (fastest varying) so every config block is one contiguous LPS run;
#: ``backend`` is outermost so each backend owns one contiguous sub-grid.
#: ``scheduler`` sits right after it: the shard-dispatch strategy whose
#: modeled latency/steal columns a study compares (see
#: :mod:`repro.distributed.scheduler`), followed by the contended-traffic
#: axes (``queue_policy`` / ``sessions`` / ``arrival_rate``, realized by
#: the DES backend through :mod:`repro.contention`).
AXIS_ORDER = (
    "backend",
    "scheduler",
    "queue_policy",
    "sessions",
    "arrival_rate",
    "embedding_mode",
    "clock_hz",
    "memory_bandwidth_bytes_per_s",
    "pcie_bandwidth_bytes_per_s",
    "anneal_us",
    "success",
    "accuracy",
    "lps",
)

#: Hard ceiling on grid size — a guard against accidentally writing a spec
#: that tries to materialize billions of points in one results table.
MAX_POINTS = 50_000_000

_EMBEDDING_MODES = ("online", "offline")

#: Axes whose values are names in a registry.
_NAMED_AXES = {
    "backend": BACKENDS,
    "scheduler": SCHEDULERS,
    "queue_policy": QUEUE_POLICIES,
}

#: Axes owned by the *executor*, not the performance model: they shape
#: how shards are dispatched (and the sched_* result columns), never the
#: operating point a backend evaluates.  Exempt from backend capability
#: checks and stripped from the config before backend dispatch.
EXECUTOR_AXES = frozenset({"scheduler"})


#: Single-point default for every absent axis (the paper's operating point).
_DEFAULT_VALUES = {"backend": (DEFAULT_BACKEND,), "scheduler": (DEFAULT_SCHEDULER,)}
_DEFAULT_VALUES.update((name, (value,)) for name, value in DEFAULT_OPERATING_POINT.items())


def axis_default(name: str):
    """The single default value an absent ``name`` axis collapses to."""
    values = _DEFAULT_VALUES.get(name)
    if values is None:
        raise ValidationError(f"unknown axis {name!r}; valid axes: {AXIS_ORDER}")
    return values[0]


def _validate_axis(name: str, values: Sequence) -> tuple:
    """Normalize and validate one axis's values; returns the stored tuple."""
    if name not in AXIS_ORDER:
        raise ValidationError(f"unknown axis {name!r}; valid axes: {AXIS_ORDER}")
    vals = tuple(values)
    if not vals:
        raise ValidationError(f"axis {name!r} must have at least one value")
    if len(set(vals)) != len(vals):
        raise ValidationError(f"axis {name!r} has duplicate values")

    registry = _NAMED_AXES.get(name)
    if registry is not None:
        for v in vals:
            try:
                registry.get(v)
            except ValidationError as exc:
                raise ValidationError(f"axis {name!r}: {exc}") from None
        return vals
    if name == "embedding_mode":
        for v in vals:
            if v not in _EMBEDDING_MODES:
                raise ValidationError(
                    f"embedding_mode values must be one of {_EMBEDDING_MODES}, got {v!r}"
                )
        return vals
    if name in ("lps", "sessions"):
        out = []
        for v in vals:
            try:
                # int(nan) raises ValueError and int(inf) OverflowError —
                # both must land as ValidationError, not leak to the caller.
                is_integral = not isinstance(v, bool) and v == int(v)
            except (TypeError, ValueError, OverflowError):
                is_integral = False
            if not is_integral:
                raise ValidationError(f"{name} values must be integers, got {v!r}")
            if int(v) < 0:
                raise ValidationError(f"{name} values must be non-negative, got {v}")
            out.append(int(v))
        return tuple(out)

    out = []
    for v in vals:
        try:
            fv = float(v)
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"axis {name!r} values must be numbers, got {v!r}"
            ) from exc
        if not math.isfinite(fv):
            raise ValidationError(f"axis {name!r} values must be finite, got {v!r}")
        out.append(fv)
    vals = tuple(out)
    if name == "accuracy":
        for v in vals:
            if not 0.0 <= v < 1.0:
                raise ValidationError(f"accuracy values must lie in [0, 1), got {v}")
    elif name == "success":
        for v in vals:
            if not 0.0 < v <= 1.0:
                raise ValidationError(f"success values must lie in (0, 1], got {v}")
    elif name in ("anneal_us", "arrival_rate"):
        for v in vals:
            if v < 0:
                raise ValidationError(f"{name} values must be non-negative, got {v}")
    else:  # machine rates
        for v in vals:
            if v <= 0:
                raise ValidationError(f"axis {name!r} values must be positive, got {v}")
    return vals


@dataclass(frozen=True)
class Axis:
    """One named study axis: the values a parameter scans over."""

    name: str
    values: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _validate_axis(self.name, self.values))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative parameter-space study over the split-execution model.

    Parameters
    ----------
    axes:
        Mapping of axis name to its scan values (see :data:`AXIS_ORDER`) —
        plain sequences or :class:`Axis` instances (whose name must match
        the key).  Absent axes collapse to the paper's single default
        operating point (``axis_default``), so every point always carries
        a full parameter set.  The grid is the cartesian product of all
        axes.
    name:
        Label carried into artifacts and reports.
    mc_trials:
        When positive, each point also gets a Monte-Carlo estimate of the
        achieved ensemble accuracy — ``mc_trials`` simulated Eq.-6
        ensembles per point — using the executor's deterministic per-shard
        RNG streams.  0 disables the column.
    seed:
        Root seed for the Monte-Carlo streams (see ``repro._rng``).
    """

    axes: Mapping[str, Sequence] = field(default_factory=dict)
    name: str = "study"
    mc_trials: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        normalized = {}
        for axis_name in AXIS_ORDER:
            if axis_name in self.axes:
                values = self.axes[axis_name]
                if isinstance(values, Axis):
                    if values.name != axis_name:
                        raise ValidationError(
                            f"axis {values.name!r} stored under key {axis_name!r}"
                        )
                    values = values.values
                normalized[axis_name] = _validate_axis(axis_name, values)
        unknown = set(self.axes) - set(AXIS_ORDER)
        if unknown:
            raise ValidationError(
                f"unknown axes {sorted(unknown)}; valid axes: {AXIS_ORDER}"
            )
        if self.mc_trials < 0:
            raise ValidationError(f"mc_trials must be non-negative, got {self.mc_trials}")
        if not self.name:
            raise ValidationError("study name must be non-empty")
        object.__setattr__(self, "axes", normalized)
        # The effective grid, derived once: every axis's scan values (the
        # default for an absent one) and the grid extent along each.
        values = {n: normalized.get(n) or _DEFAULT_VALUES[n] for n in AXIS_ORDER}
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "shape", tuple(map(len, values.values())))
        if self.num_points > MAX_POINTS:
            raise ValidationError(
                f"grid has {self.num_points} points, exceeding MAX_POINTS={MAX_POINTS}"
            )
        # A grid point with no closed sessions *and* no open arrivals has
        # no traffic to simulate; reject it at spec time rather than deep
        # inside a worker's contention simulation.
        if 0 in self.axis_values("sessions") and 0.0 in self.axis_values("arrival_rate"):
            raise ValidationError(
                "grid contains the empty workload point sessions=0, arrival_rate=0 "
                "(no traffic: give the point at least one closed session or a "
                "positive arrival rate)"
            )
        self._check_backend_capabilities()

    def _check_backend_capabilities(self) -> None:
        """Every swept backend must honor every axis the grid moves.

        An axis outside a backend's ``supported_axes`` may only sit at its
        single default value — otherwise the study would silently record
        identical numbers for "different" operating points of that backend.
        """
        for backend_name in self.axis_values("backend"):
            caps = backend_capabilities(backend_name)
            for axis_name in AXIS_ORDER[1:]:
                if axis_name in EXECUTOR_AXES or axis_name in caps.supported_axes:
                    continue
                values = self.axis_values(axis_name)
                if values != (axis_default(axis_name),):
                    raise ValidationError(
                        f"backend {backend_name!r} does not support axis "
                        f"{axis_name!r} away from its default "
                        f"{axis_default(axis_name)!r} (spec scans {values})"
                    )

    # ------------------------------------------------------------------ #
    # Grid geometry
    # ------------------------------------------------------------------ #
    def axis_values(self, name: str) -> tuple:
        """The scan values of ``name`` (the single default if absent)."""
        if name not in AXIS_ORDER:
            raise ValidationError(f"unknown axis {name!r}; valid axes: {AXIS_ORDER}")
        return self._values[name]

    @property
    def num_points(self) -> int:
        return math.prod(self.shape)

    @property
    def scanned_axes(self) -> tuple[str, ...]:
        """Axes with more than one value, in canonical order."""
        return tuple(n for n in AXIS_ORDER if len(self.axis_values(n)) > 1)

    @property
    def lps_values(self) -> tuple[int, ...]:
        return self.axis_values("lps")

    @property
    def backend_values(self) -> tuple[str, ...]:
        return self.axis_values("backend")

    def point(self, index: int) -> dict:
        """Full parameter dict of grid point ``index`` (row-major enumeration)."""
        if not 0 <= index < self.num_points:
            raise ValidationError(
                f"point index {index} out of range for {self.num_points} points"
            )
        out = {}
        remainder = index
        for axis_name, extent in zip(reversed(AXIS_ORDER), reversed(self.shape)):
            remainder, digit = divmod(remainder, extent)
            out[axis_name] = self.axis_values(axis_name)[digit]
        return {n: out[n] for n in AXIS_ORDER}

    def iter_points(self) -> Iterator[dict]:
        """All grid points in enumeration order (for small grids / tests)."""
        value_lists = [self.axis_values(n) for n in AXIS_ORDER]
        for combo in itertools.product(*value_lists):
            yield dict(zip(AXIS_ORDER, combo))

    @property
    def num_configs(self) -> int:
        """Number of non-``lps`` axis combinations (grid points / LPS run)."""
        return self.num_points // len(self.lps_values)

    def config(self, k: int) -> dict:
        """Non-``lps`` parameters of config block ``k`` (mixed-radix decode).

        Config ``k`` owns the contiguous points
        ``[k * len(lps_values), (k + 1) * len(lps_values))`` — the random
        access the sharded executor uses to touch only the blocks a shard
        intersects.
        """
        if not 0 <= k < self.num_configs:
            raise ValidationError(
                f"config index {k} out of range for {self.num_configs} configs"
            )
        config_axes = AXIS_ORDER[:-1]
        out = {}
        remainder = k
        for axis_name in reversed(config_axes):
            values = self.axis_values(axis_name)
            remainder, digit = divmod(remainder, len(values))
            out[axis_name] = values[digit]
        return {n: out[n] for n in config_axes}

    def config_blocks(self) -> Iterator[tuple[int, dict, tuple[int, ...]]]:
        """Iterate ``(start_index, config, lps_values)`` over the grid.

        A *config* fixes every non-``lps`` axis; because ``lps`` is the
        innermost axis, each config owns one contiguous run of
        ``len(lps_values)`` points starting at ``start_index``.  This is
        the unit of vectorization for the executor.
        """
        config_axes = AXIS_ORDER[:-1]
        lps_values = self.lps_values
        block = len(lps_values)
        value_lists = [self.axis_values(n) for n in config_axes]
        for k, combo in enumerate(itertools.product(*value_lists)):
            yield k * block, dict(zip(config_axes, combo)), lps_values

    def cache_identity(self) -> dict:
        """The grid identity the artifact cache hashes (see ``studies.cache``).

        *Effective* axis values — absent axes and explicitly-spelled
        defaults collapse to the same payload — plus the Monte-Carlo
        parameters that shape the ``mc_accuracy`` column.  The display
        ``name`` is deliberately excluded: a re-labelled study evaluates
        the same grid and must reuse the same cached shards.
        """
        return {
            "axes": {n: list(self.axis_values(n)) for n in AXIS_ORDER},
            "mc_trials": self.mc_trials,
            "seed": self.seed,
        }

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-ready payload (canonical key order, explicit axes only)."""
        return {
            "name": self.name,
            "axes": {n: list(v) for n, v in self.axes.items()},
            "mc_trials": self.mc_trials,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ScenarioSpec":
        if not isinstance(payload, Mapping):
            raise ValidationError(f"spec payload must be an object, got {type(payload)}")
        unknown = set(payload) - {"name", "axes", "mc_trials", "seed"}
        if unknown:
            raise ValidationError(f"unknown spec keys {sorted(unknown)}")
        return cls(
            axes=dict(payload.get("axes", {})),
            name=str(payload.get("name", "study")),
            mc_trials=int(payload.get("mc_trials", 0)),
            seed=int(payload.get("seed", 0)),
        )

    def to_json(self) -> str:
        """Canonical JSON text of the spec (sorted keys, fixed separators).

        The wire format of the study service (``repro.service``): a spec
        round-trips exactly through ``from_json(spec.to_json())``, and two
        specs over the same grid serialize to the same bytes whenever their
        explicit axes match.
        """
        return canonical_line(self.to_dict())

    @classmethod
    def from_json(cls, text: str | bytes) -> "ScenarioSpec":
        """Parse a spec from JSON text (the inverse of :meth:`to_json`)."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"spec text is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioSpec":
        """Load a spec from a JSON file."""
        try:
            payload = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ValidationError(f"spec file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def describe(self) -> str:
        """One-line human summary: ``12000 points: lps(2000) x accuracy(3) ...``"""
        scanned = [f"{n}({len(self.axis_values(n))})" for n in self.scanned_axes]
        grid = " x ".join(scanned) if scanned else "single point"
        return f"{self.num_points} points: {grid}"
