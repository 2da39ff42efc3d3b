"""Readout containers: ensembles of spin samples with their energies.

The QPU "effectively generates a classical representation of the quantum
computation" at readout (paper Sec. 2); Stage 3 of the application model
then *sorts* the ensemble by energy — "although only the lowest energy state
is necessary, it is useful to first sort the results to identify the
multiplicity for each value and avoid redundant computation" (Sec. 3.2).
:class:`SampleSet` implements exactly that: energy-sorted storage (heapsort,
as the paper's Stage-3 model assumes), aggregation with multiplicities, and
ground-state statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ValidationError
from ..qubo import IsingModel

__all__ = ["SampleSet"]


@dataclass(frozen=True)
class SampleSet:
    """An energy-sorted ensemble of spin configurations.

    Attributes
    ----------
    samples:
        ``(k, n)`` int8 array of spins in {-1, +1}, sorted ascending by energy.
    energies:
        ``(k,)`` float64 array aligned with ``samples``.
    num_occurrences:
        ``(k,)`` int64 multiplicities (all ones unless aggregated).
    """

    samples: np.ndarray
    energies: np.ndarray
    num_occurrences: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.samples, dtype=np.int8)
        e = np.asarray(self.energies, dtype=np.float64)
        o = np.asarray(self.num_occurrences, dtype=np.int64)
        if s.ndim != 2 or e.shape != (s.shape[0],) or o.shape != (s.shape[0],):
            raise ValidationError(
                f"inconsistent shapes: samples {s.shape}, energies {e.shape}, "
                f"occurrences {o.shape}"
            )
        if np.any(np.diff(e) < 0):
            raise ValidationError("samples must be sorted ascending by energy")
        for a in (s, e, o):
            a.setflags(write=False)
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "num_occurrences", o)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_samples(cls, model: IsingModel, samples: np.ndarray) -> "SampleSet":
        """Evaluate and heap-sort raw readout samples against ``model``.

        The sort uses NumPy's heapsort to mirror the paper's Stage-3 cost
        model (``SortOps = Results * log(Results)``).
        """
        S = np.asarray(samples, dtype=np.int8)
        if S.ndim != 2:
            raise ValidationError(f"samples must be 2-D, got shape {S.shape}")
        if not np.isin(S, (-1, 1)).all():
            raise ValidationError("samples must contain only -1/+1 spins")
        e = model.energies(S)
        order = np.argsort(e, kind="heapsort")
        return cls(S[order], e[order], np.ones(S.shape[0], dtype=np.int64))

    @classmethod
    def empty(cls, num_spins: int) -> "SampleSet":
        """A sample set with zero reads."""
        return cls(
            np.zeros((0, num_spins), dtype=np.int8),
            np.zeros(0, dtype=np.float64),
            np.zeros(0, dtype=np.int64),
        )

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    @property
    def num_reads(self) -> int:
        """Total number of reads, counting multiplicities."""
        return int(self.num_occurrences.sum())

    @property
    def num_rows(self) -> int:
        """Number of stored rows (distinct states if aggregated)."""
        return int(self.samples.shape[0])

    @property
    def num_spins(self) -> int:
        return int(self.samples.shape[1])

    @property
    def first(self) -> tuple[np.ndarray, float]:
        """The lowest-energy ``(state, energy)`` pair."""
        if self.num_rows == 0:
            raise ValidationError("sample set is empty")
        return self.samples[0], float(self.energies[0])

    @property
    def lowest_energy(self) -> float:
        """Lowest observed energy."""
        return self.first[1]

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def aggregated(self) -> "SampleSet":
        """Collapse duplicate states, accumulating multiplicities.

        This is the Stage-3 "identify the multiplicity for each value and
        avoid redundant computation" step.
        """
        if self.num_rows == 0:
            return self
        _, idx, inv = np.unique(
            self.samples, axis=0, return_index=True, return_inverse=True
        )
        counts = np.bincount(inv, weights=self.num_occurrences.astype(np.float64))
        reps = idx  # one representative row per unique state
        e = self.energies[reps]
        order = np.argsort(e, kind="heapsort")
        return SampleSet(
            self.samples[reps][order],
            e[order],
            counts.astype(np.int64)[order],
        )

    def ground_state_probability(self, ground_energy: float, atol: float = 1e-9) -> float:
        """Empirical probability that a read landed within ``atol`` of ``ground_energy``.

        This is the paper's characteristic single-run success probability
        ``p_s`` (Sec. 3.2), estimated from the ensemble.
        """
        if self.num_reads == 0:
            raise ValidationError("cannot estimate a probability from zero reads")
        hit = self.energies <= ground_energy + atol
        return float(self.num_occurrences[hit].sum() / self.num_reads)

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lo = f"{self.energies[0]:.6g}" if self.num_rows else "n/a"
        return (
            f"SampleSet(num_rows={self.num_rows}, num_reads={self.num_reads}, "
            f"lowest_energy={lo})"
        )
