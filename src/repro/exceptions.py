"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to discriminate the failing subsystem.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ValidationError",
    "AspenError",
    "AspenSyntaxError",
    "AspenNameError",
    "AspenEvaluationError",
    "HardwareError",
    "EmbeddingError",
    "InvalidEmbeddingError",
    "SamplerError",
    "ShardError",
    "SimulationError",
    "DistributedError",
    "PushRejected",
    "UnknownStudy",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ValidationError(ReproError, ValueError):
    """An input value failed validation (wrong shape, domain, or type)."""


class AspenError(ReproError):
    """Base class for errors raised by the ASPEN modeling-language subsystem."""


class AspenSyntaxError(AspenError):
    """The ASPEN source text could not be tokenized or parsed.

    Attributes
    ----------
    line, column:
        1-based position of the offending token, when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}" + (f", col {column}" if column is not None else "") + f": {message}"
        super().__init__(message)


class AspenNameError(AspenError):
    """A model, parameter, kernel, data set, or resource name could not be resolved."""


class AspenEvaluationError(AspenError):
    """An ASPEN expression or model could not be evaluated to a numeric value."""


class HardwareError(ReproError):
    """A hardware-graph or device-property operation failed."""


class EmbeddingError(ReproError):
    """A minor-embedding algorithm failed to produce an embedding."""


class InvalidEmbeddingError(EmbeddingError, ValidationError):
    """A candidate embedding violates the minor-embedding definition.

    Raised by :func:`repro.embedding.verify_embedding` when a chain is empty,
    disconnected, overlapping another chain, uses a node absent from the
    hardware graph, or fails to cover a logical edge.
    """


class SamplerError(ReproError):
    """A sampler was invoked with invalid arguments or reached an invalid state."""


class ShardError(ReproError):
    """A study shard exhausted its retry budget.

    Attributes
    ----------
    shard_index:
        Logical index of the failing shard in the study's shard grid.
    attempts:
        Human-readable history, one entry per failed attempt (including
        worker deaths charged to the shard), oldest first.
    """

    def __init__(self, shard_index: int, attempts: list[str] | tuple[str, ...]):
        self.shard_index = int(shard_index)
        self.attempts = list(attempts)
        last = self.attempts[-1] if self.attempts else "unknown error"
        super().__init__(
            f"shard {self.shard_index} failed after {len(self.attempts)} attempt(s); "
            f"last: {last}"
        )


class SimulationError(ReproError):
    """The discrete-event simulation runtime reached an inconsistent state."""


class DistributedError(ReproError):
    """A distributed coordinator/worker operation failed."""


class PushRejected(DistributedError):
    """The coordinator refused a pushed shard payload.

    Attributes
    ----------
    reason:
        Machine-readable rejection cause (``"hash-mismatch"`` or
        ``"wrong-size"``).  The shard is requeued, never lost — a
        rejected push costs a recompute, not bytes.
    """

    def __init__(self, reason: str, message: str):
        self.reason = reason
        super().__init__(message)


class UnknownStudy(ValidationError):
    """A shard verb named a study the coordinator does not hold.

    Either it was never registered, or it has already been handed back
    by ``ShardCoordinator.wait`` (a late duplicate push), or the
    coordinator restarted.  A worker drops that shard and pulls again.
    """
