"""Columnar study results: structured table, JSON artifact, aggregations.

A :class:`StudyResults` holds one row per grid point of a
:class:`~repro.studies.spec.ScenarioSpec`, in the spec's stable
enumeration order, as a structured NumPy array.  The JSON artifact
(`save`/`load`) is deliberately free of volatile fields — no timestamps, no
hostnames — so the same spec executed anywhere with any worker count
produces *byte-identical* files; that property is the backbone of the
executor's determinism audit.

The artifact is written by :func:`encode_columns` plus a small header:
each column's distinct values are formatted once and gathered by index,
and a study whose grid has been encoded before splices the ``"columns"``
object from its :class:`~repro.studies.cache.StudyCache` entry instead.
``to_dict`` + ``canonical_line`` (:meth:`StudyResults.to_json`) stays the
reference encoder the fast path is tested against, byte for byte.

Aggregations reuse the core analysis helpers rather than reimplementing
them: log-log scaling exponents via :func:`repro.core.scaling.loglog_slope`,
sampled crossovers via :func:`repro.core.scaling.crossover_index`, and
elasticity maps via :func:`repro.core.sensitivity.elasticity_series`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .._json import canonical_dumps, canonical_line
from ..backends.base import MAX_BACKEND_NAME_LENGTH
from ..contention.disciplines import MAX_QUEUE_POLICY_NAME_LENGTH
from ..distributed.scheduler import MAX_SCHEDULER_NAME_LENGTH
from ..core.scaling import crossover_index, loglog_slope
from ..core.sensitivity import elasticity_series
from ..exceptions import ValidationError
from .spec import AXIS_ORDER, ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..faults import FaultStats
    from .cache import ColumnsEntry

__all__ = ["StudyResults", "RESULT_COLUMNS", "ARTIFACT_SCHEMA_VERSION", "encode_columns"]

#: Version 2 added the ``backend`` axis column (the registry-dispatched
#: performance-backend axis of the spec grid).  Version 3 added the
#: ``scheduler`` axis column plus the modeled shard-dispatch columns
#: ``sched_latency_s`` / ``sched_steals`` (see
#: :mod:`repro.distributed.scheduler`).  Version 4 added the contention
#: axes (``queue_policy`` / ``sessions`` / ``arrival_rate``) and the
#: simulated contended-workload columns ``latency_p50_s`` /
#: ``latency_p95_s`` / ``latency_p99_s`` / ``queue_wait_s`` /
#: ``utilization`` (see :mod:`repro.contention`), NaN for rows whose
#: backend has no contention realization.
ARTIFACT_SCHEMA_VERSION = 4

#: Column name -> structured dtype.  Axis columns first (canonical order),
#: then the model outputs.  ``mc_accuracy`` is NaN when the spec disabled
#: Monte-Carlo sampling.  The ``backend`` width is the registry's name
#: ceiling, so no registrable name can be truncated on table assignment;
#: likewise ``scheduler`` (MAX_SCHEDULER_NAME_LENGTH) and ``queue_policy``
#: (MAX_QUEUE_POLICY_NAME_LENGTH).  The ``sched_*`` columns are the
#: deterministic schedule simulation of the row's strategy over the
#: study's shard grid: every row of shard ``k`` gets that shard's modeled
#: completion time and whether dispatching it crossed the static
#: ownership partition.  The contention columns are the per-row contended
#: workload simulation (keyed on the row's global grid index), NaN for
#: backends without the contention axes.
RESULT_COLUMNS: tuple[tuple[str, str], ...] = (
    ("backend", f"U{MAX_BACKEND_NAME_LENGTH}"),
    ("scheduler", f"U{MAX_SCHEDULER_NAME_LENGTH}"),
    ("queue_policy", f"U{MAX_QUEUE_POLICY_NAME_LENGTH}"),
    ("sessions", "i8"),
    ("arrival_rate", "f8"),
    ("embedding_mode", "U7"),
    ("clock_hz", "f8"),
    ("memory_bandwidth_bytes_per_s", "f8"),
    ("pcie_bandwidth_bytes_per_s", "f8"),
    ("anneal_us", "f8"),
    ("success", "f8"),
    ("accuracy", "f8"),
    ("lps", "i8"),
    ("repetitions", "i8"),
    ("stage1_s", "f8"),
    ("stage2_s", "f8"),
    ("stage3_s", "f8"),
    ("total_s", "f8"),
    ("quantum_fraction", "f8"),
    ("dominant_stage", "U6"),
    ("mc_accuracy", "f8"),
    ("sched_latency_s", "f8"),
    ("sched_steals", "i8"),
    ("latency_p50_s", "f8"),
    ("latency_p95_s", "f8"),
    ("latency_p99_s", "f8"),
    ("queue_wait_s", "f8"),
    ("utilization", "f8"),
)

_STAGE_COLUMNS = ("stage1_s", "stage2_s", "stage3_s", "total_s")

#: The simulated contended-workload metric columns (NaN when absent).
_CONTENTION_METRIC_COLUMNS = (
    "latency_p50_s",
    "latency_p95_s",
    "latency_p99_s",
    "queue_wait_s",
    "utilization",
)


#: Shorter columns are dumped whole: below this, ``np.unique``'s fixed cost
#: (~25 us a column) outweighs formatting repeated numbers again.
_DEDUP_MIN_ROWS = 256


def _encode_column(values: np.ndarray, code: str) -> str:
    """One column as the canonical JSON list ``json.dumps`` writes for it.

    A long numeric column has each distinct value formatted once, and the
    tokens are gathered by index.  Floats are deduplicated on their bit
    patterns: ``np.unique`` on the values would merge ``-0.0`` with
    ``0.0``, which format differently.  String columns, short columns and
    mostly distinct ones are dumped whole: sorting fixed-width strings
    costs more than formatting them, and the others gain nothing.
    """
    if code.startswith("U") or len(values) < _DEDUP_MIN_ROWS:
        return _dumps_values(values, code)
    keys = np.ascontiguousarray(values).view(np.uint64) if code == "f8" else values
    distinct, inverse = np.unique(keys, return_inverse=True)
    if 2 * len(distinct) > len(values):
        return _dumps_values(values, code)
    if code == "f8":
        distinct = distinct.view(np.float64)
    tokens = _dumps_values(distinct, code)[1:-1].split(",")  # no number holds a comma
    return "[" + ",".join(np.array(tokens, dtype=object)[inverse].tolist()) + "]"


#: ``canonical_dumps`` for a list, without building an encoder per call.
_DUMPS_LIST = json.JSONEncoder(separators=(",", ":")).encode


def _dumps_values(values: np.ndarray, code: str) -> str:
    column = values.tolist()  # str / int / float per dtype
    if code == "f8" and np.isnan(values).any():
        column = [None if v != v else v for v in column]  # NaN -> null
    return _DUMPS_LIST(column)


def encode_columns(table: np.ndarray) -> bytes:
    """The artifact's ``"columns"`` object, as canonical JSON bytes.

    Byte-identical to that object inside ``canonical_line(to_dict())``:
    sorted column names (plain identifiers, so quoting is their JSON form),
    compact separators, ``json.dumps`` number and string forms.
    """
    body = ",".join(
        f'"{name}":{_encode_column(table[name], code)}'
        for name, code in sorted(RESULT_COLUMNS)
    )
    return ("{" + body + "}").encode("utf-8")


_TABLE_DTYPE = np.dtype(list(RESULT_COLUMNS))


def table_dtype() -> np.dtype:
    """The structured dtype of a study results table."""
    return _TABLE_DTYPE


def unfilled_table(num_points: int) -> np.ndarray:
    """A results table with unspecified contents, for a caller that writes
    every row before reading any.  Allocated as bytes: numpy zero-fills a
    new array of a structured dtype, ~130 us for a 6,100-row table."""
    return np.empty(num_points * _TABLE_DTYPE.itemsize, dtype=np.uint8).view(_TABLE_DTYPE)


def empty_table(num_points: int) -> np.ndarray:
    """A zero-filled results table for ``num_points`` rows."""
    table = np.zeros(num_points, dtype=table_dtype())
    table["mc_accuracy"] = np.nan
    for name in _CONTENTION_METRIC_COLUMNS:
        table[name] = np.nan
    return table


@dataclass(frozen=True)
class StudyResults:
    """One evaluated study: the spec plus its per-point results table.

    ``fault_stats`` reports what the executor's resilience layer did
    (failures, retries, recoveries, cache faults — see
    :class:`repro.faults.FaultStats`).  It is execution telemetry, not a
    result: excluded from :meth:`to_dict`, the artifact bytes, and
    equality, so a run that survived transient faults serializes
    byte-identically to a clean run.  ``None`` on results loaded from an
    artifact (the artifact intentionally cannot say how it was computed).

    ``columns_entry`` is where this grid's encoded ``"columns"`` object
    lives in the :class:`~repro.studies.cache.StudyCache` that served
    every shard of the study (set by ``run_study(cache=)`` and the
    coordinator's ``wait``; a study that computed a shard has none);
    :meth:`artifact_bytes` splices it, or encodes and stores it.  Like
    ``fault_stats`` it is not compared.
    """

    spec: ScenarioSpec
    table: np.ndarray
    fault_stats: "FaultStats | None" = field(default=None, compare=False)
    columns_entry: "ColumnsEntry | None" = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.table.dtype != table_dtype():
            raise ValidationError("results table has the wrong structured dtype")
        if self.table.shape != (self.spec.num_points,):
            raise ValidationError(
                f"results table has {self.table.shape[0]} rows for a "
                f"{self.spec.num_points}-point spec"
            )
        self.table.setflags(write=False)

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    @property
    def num_points(self) -> int:
        return int(self.table.shape[0])

    def __len__(self) -> int:
        return self.num_points

    def column(self, name: str) -> np.ndarray:
        """One column across all points (read-only view)."""
        if name not in self.table.dtype.names:
            raise ValidationError(
                f"unknown column {name!r}; columns: {self.table.dtype.names}"
            )
        return self.table[name]

    def select(self, **fixed) -> np.ndarray:
        """Boolean mask of the rows matching every ``axis=value`` filter."""
        mask = np.ones(self.num_points, dtype=bool)
        for name, value in fixed.items():
            mask &= self.column(name) == value
        return mask

    def slice_along(self, axis: str, response: str = "total_s", **fixed) -> tuple[np.ndarray, np.ndarray]:
        """``(xs, ys)`` of ``response`` along ``axis`` with other axes fixed.

        ``fixed`` must pin every *other* scanned axis to one value so the
        slice is a function (one y per x); rows keep enumeration order,
        which is monotone in the axis values as given in the spec.
        """
        if axis not in AXIS_ORDER:
            raise ValidationError(f"unknown axis {axis!r}")
        unpinned = [
            n for n in self.spec.scanned_axes if n != axis and n not in fixed
        ]
        if unpinned:
            raise ValidationError(
                f"slice along {axis!r} needs the other scanned axes pinned; "
                f"missing {unpinned}"
            )
        mask = self.select(**fixed)
        xs = self.column(axis)[mask]
        ys = self.column(response)[mask]
        return xs, ys

    # ------------------------------------------------------------------ #
    # Aggregations (reusing the core analysis helpers)
    # ------------------------------------------------------------------ #
    def scaling_exponent(self, response: str = "total_s", axis: str = "lps", **fixed) -> float:
        """Empirical log-log exponent of ``response`` against ``axis``.

        Positive-sample filtering mirrors the Fig. 9 treatment (``lps = 0``
        rows cannot enter a log-log fit).
        """
        xs, ys = self.slice_along(axis, response, **fixed)
        keep = (np.asarray(xs, dtype=np.float64) > 0) & (ys > 0)
        if np.count_nonzero(keep) < 2:
            raise ValidationError(
                f"scaling exponent needs >= 2 positive samples along {axis!r}"
            )
        return loglog_slope(np.asarray(xs, dtype=np.float64)[keep], ys[keep])

    def elasticity_profile(self, response: str = "total_s", axis: str = "lps", **fixed) -> np.ndarray:
        """Pointwise elasticity of ``response`` along ``axis`` (one slice)."""
        xs, ys = self.slice_along(axis, response, **fixed)
        return elasticity_series(np.asarray(xs, dtype=np.float64), ys)

    def crossover_lps(self, above: str = "stage1_s", below: str = "stage2_s", **fixed) -> int | None:
        """Smallest scanned LPS at which ``above`` meets/exceeds ``below``.

        The sampled analogue of the paper's crossover discussion (e.g. where
        the Stage-1 translation overtakes quantum execution); ``None`` when
        no crossover occurs within the scanned sizes.
        """
        xs, f = self.slice_along("lps", above, **fixed)
        _, g = self.slice_along("lps", below, **fixed)
        idx = crossover_index(f, g)
        return int(xs[idx]) if idx is not None else None

    def dominance_counts(self, **fixed) -> dict[str, int]:
        """How many points each stage dominates (within an optional slice)."""
        mask = self.select(**fixed)
        stages, counts = np.unique(self.column("dominant_stage")[mask], return_counts=True)
        return {str(s): int(c) for s, c in zip(stages, counts)}

    # ------------------------------------------------------------------ #
    # Cross-backend comparison
    # ------------------------------------------------------------------ #
    def backend_rows(self, backend: str) -> slice:
        """The contiguous row block backend ``backend`` owns.

        ``backend`` is the outermost axis, so each swept backend's sub-grid
        is one block of ``num_points / num_backends`` rows in identical
        point order — which is what makes per-backend columns directly
        comparable row by row.
        """
        names = self.spec.backend_values
        if backend not in names:
            raise ValidationError(
                f"backend {backend!r} is not in this study's backend axis {names}"
            )
        block = self.num_points // len(names)
        index = names.index(backend)
        return slice(index * block, (index + 1) * block)

    def backend_deviation(
        self,
        reference: str = "closed_form",
        columns: tuple[str, ...] = _STAGE_COLUMNS,
    ) -> dict[str, dict[str, float]]:
        """Effective relative deviation of each swept backend vs ``reference``.

        For every non-reference backend and stage column, the maximum over
        rows of ``max(0, |x - ref| - atol) / |ref|`` with ``atol`` taken
        from the backend's declared capabilities — i.e. the relative
        deviation *after* the absolute floor, directly comparable to the
        declared ``rtol`` (``deviation <= rtol`` iff every row satisfies
        ``|x - ref| <= atol + rtol * |ref|``).  Rows where the reference is
        zero contribute 0 when within ``atol`` and ``inf`` otherwise.
        """
        from ..backends import capabilities as backend_capabilities

        names = self.spec.backend_values
        if reference not in names:
            raise ValidationError(
                f"reference backend {reference!r} is not swept by this study "
                f"(backend axis: {names})"
            )
        ref_rows = self.backend_rows(reference)
        out: dict[str, dict[str, float]] = {}
        for name in names:
            if name == reference:
                continue
            atol = backend_capabilities(name).atol
            rows = self.backend_rows(name)
            per_column: dict[str, float] = {}
            for column in columns:
                ref = np.abs(self.column(column)[ref_rows])
                diff = np.maximum(
                    np.abs(self.column(column)[rows] - self.column(column)[ref_rows])
                    - atol,
                    0.0,
                )
                with np.errstate(divide="ignore", invalid="ignore"):
                    rel = np.where(diff == 0.0, 0.0, diff / ref)
                per_column[column] = float(np.max(rel)) if rel.size else 0.0
            out[name] = per_column
        return out

    def backends_within_tolerance(self, reference: str = "closed_form") -> dict[str, bool]:
        """Whether each swept backend meets its declared envelope vs ``reference``."""
        from ..backends import capabilities as backend_capabilities

        return {
            name: max(per_column.values(), default=0.0)
            <= backend_capabilities(name).rtol
            for name, per_column in self.backend_deviation(reference).items()
        }

    def contention_rows(self) -> np.ndarray:
        """Boolean mask of rows carrying simulated contention metrics.

        Rows evaluated by a backend without the contention axes hold NaN
        in every contention column; this mask selects the rest.
        """
        return ~np.isnan(self.column("utilization"))

    def contention_summary(self) -> dict[str, dict[str, float]]:
        """Per-queue-policy aggregation of the contended-workload columns.

        For every ``queue_policy`` value with contended rows: the row
        count, mean p50 latency, *worst* p99 latency, mean queue wait,
        and mean annealer utilization — what a ``queue_policy``-axis
        study exists to compare.  Empty when no row was simulated under
        contention.
        """
        contended = self.contention_rows()
        out: dict[str, dict[str, float]] = {}
        for name in self.spec.axis_values("queue_policy"):
            mask = contended & (self.column("queue_policy") == name)
            if not mask.any():
                continue
            out[name] = {
                "rows": float(np.count_nonzero(mask)),
                "latency_p50_s": float(np.mean(self.column("latency_p50_s")[mask])),
                "latency_p99_s": float(np.max(self.column("latency_p99_s")[mask])),
                "queue_wait_s": float(np.mean(self.column("queue_wait_s")[mask])),
                "utilization": float(np.mean(self.column("utilization")[mask])),
            }
        return out

    # ------------------------------------------------------------------ #
    # Artifact serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-ready artifact payload (no volatile fields; see module doc)."""
        columns: dict[str, list] = {}
        for name, code in RESULT_COLUMNS:
            values = self.table[name]
            column = values.tolist()  # str / int / float per dtype, column-wise
            if code == "f8" and np.isnan(values).any():
                column = [None if v != v else v for v in column]  # NaN -> null
            columns[name] = column
        return {**self._header(), "columns": columns}

    def _header(self) -> dict:
        """Every artifact field but ``columns``."""
        return {
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "kind": "scenario-study-results",
            "spec": self.spec.to_dict(),
            "num_points": self.num_points,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StudyResults":
        if not isinstance(payload, dict):
            raise ValidationError("artifact payload must be an object")
        if payload.get("schema_version") != ARTIFACT_SCHEMA_VERSION:
            raise ValidationError(
                f"unsupported artifact schema_version {payload.get('schema_version')!r}"
            )
        if payload.get("kind") != "scenario-study-results":
            raise ValidationError(f"unexpected artifact kind {payload.get('kind')!r}")
        spec = ScenarioSpec.from_dict(payload["spec"])
        columns = payload["columns"]
        missing = [n for n, _ in RESULT_COLUMNS if n not in columns]
        if missing:
            raise ValidationError(f"artifact is missing columns {missing}")
        table = empty_table(int(payload["num_points"]))
        for name, code in RESULT_COLUMNS:
            values = columns[name]
            if len(values) != table.shape[0]:
                raise ValidationError(
                    f"column {name!r} has {len(values)} entries for "
                    f"{table.shape[0]} points"
                )
            if code == "f8":
                table[name] = [np.nan if v is None else float(v) for v in values]
            else:
                table[name] = values
        return cls(spec=spec, table=table)

    def to_json(self) -> str:
        """Canonical artifact text: sorted keys, fixed separators, trailing newline.

        The reference encoder: :meth:`artifact_bytes` writes the same
        text, UTF-8 encoded, without building the per-row lists.
        """
        return canonical_line(self.to_dict())

    def artifact_bytes(self) -> bytes:
        """The canonical artifact as UTF-8 bytes — exactly what :meth:`save`
        writes and what the study service puts on the wire, so HTTP-served
        and directly-saved artifacts compare byte for byte.

        ``"columns"`` sorts first among the artifact's keys, so the
        artifact is the columns object followed by the canonical header
        (kind, num_points, schema_version, spec).  The columns come from
        :attr:`columns_entry` when it holds them; otherwise they are
        encoded here and stored there.
        """
        entry = self.columns_entry
        columns = None if entry is None else entry.load()
        if columns is None:
            columns = encode_columns(self.table)
            if entry is not None:
                entry.store(columns)
        header = canonical_dumps(self._header())
        return b"".join((b'{"columns":', columns, b",", header[1:].encode("utf-8"), b"\n"))

    def save(self, path: str | Path) -> Path:
        """Write the artifact; identical results always produce identical bytes."""
        path = Path(path)
        path.write_bytes(self.artifact_bytes())
        return path

    @classmethod
    def load(cls, path: str | Path) -> "StudyResults":
        return cls.from_dict(json.loads(Path(path).read_text()))
