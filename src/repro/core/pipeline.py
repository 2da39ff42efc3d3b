"""The end-to-end split-execution performance model.

Composes the three stage models into the paper's application model
(Sec. 3.2): time-to-solution, stage breakdown, bottleneck analysis, and the
bridge into the discrete-event runtime (a :class:`RequestProfile` for the
Fig. 1/2 simulations).

The ``embedding_mode`` knob implements the paper's closing discussion: with
``"offline"`` embedding, the minor-embedding computation moves off the
critical path into a precomputed lookup table, leaving only a graph-lookup
cost (charged as ``LPS^2`` comparisons — the documented stand-in for the
graph-isomorphism check the paper envisions the table needing).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..exceptions import ValidationError
from ..runtime.layers import RequestProfile
from .machine_params import HostMachineParams
from .stage1 import Stage1ArrayBreakdown, Stage1Breakdown, Stage1Model
from .stage2 import Stage2Breakdown, Stage2Model
from .stage3 import Stage3ArrayBreakdown, Stage3Breakdown, Stage3Model

__all__ = ["StageTimings", "SweepArrays", "SplitExecutionModel"]

_EMBEDDING_MODES = ("online", "offline")


@dataclass(frozen=True)
class StageTimings:
    """Stage-resolved prediction for one problem instance."""

    lps: int
    accuracy: float
    success: float
    stage1: Stage1Breakdown
    stage2: Stage2Breakdown
    stage3: Stage3Breakdown
    embedding_mode: str = "online"

    @property
    def stage1_seconds(self) -> float:
        return self.stage1.total

    @property
    def stage2_seconds(self) -> float:
        return self.stage2.total

    @property
    def stage3_seconds(self) -> float:
        return self.stage3.total

    @property
    def total_seconds(self) -> float:
        return self.stage1.total + self.stage2.total + self.stage3.total

    @property
    def dominant_stage(self) -> str:
        """Which stage dominates the time-to-solution."""
        times = {
            "stage1": self.stage1.total,
            "stage2": self.stage2.total,
            "stage3": self.stage3.total,
        }
        return max(times, key=times.get)  # type: ignore[arg-type]

    @property
    def quantum_fraction(self) -> float:
        """Fraction of the total spent in quantum execution (Stage 2)."""
        total = self.total_seconds
        return self.stage2.total / total if total > 0 else 0.0

    def stage_fractions(self) -> dict[str, float]:
        total = self.total_seconds
        if total <= 0:
            return {"stage1": 0.0, "stage2": 0.0, "stage3": 0.0}
        return {
            "stage1": self.stage1.total / total,
            "stage2": self.stage2.total / total,
            "stage3": self.stage3.total / total,
        }


@dataclass(frozen=True)
class SweepArrays:
    """Struct-of-arrays predictions across a whole range of problem sizes.

    The vectorized counterpart of ``[StageTimings, ...]`` returned by
    :meth:`SplitExecutionModel.sweep`: every per-point quantity is an
    ndarray aligned with ``lps``, computed with the same floating-point
    operation sequence as the scalar path, so
    ``sweep_arrays(ns).total_seconds[i] == sweep(ns)[i].total_seconds``
    exactly.  Stage 2 depends only on ``(accuracy, success)`` and is a
    single shared scalar breakdown.
    """

    lps: np.ndarray
    accuracy: float
    success: float
    stage1: Stage1ArrayBreakdown
    stage2: Stage2Breakdown
    stage3: Stage3ArrayBreakdown
    embedding_mode: str = "online"

    @property
    def stage1_seconds(self) -> np.ndarray:
        return self.stage1.total

    @property
    def stage2_seconds(self) -> float:
        return self.stage2.total

    @property
    def stage3_seconds(self) -> np.ndarray:
        return self.stage3.total

    @property
    def total_seconds(self) -> np.ndarray:
        return self.stage1.total + self.stage2.total + self.stage3.total

    def __len__(self) -> int:
        return int(self.lps.shape[0])


@dataclass(frozen=True)
class SplitExecutionModel:
    """The composed three-stage performance model.

    Parameters
    ----------
    stage1, stage2, stage3:
        The stage models (paper Figs. 6-8 defaults).
    embedding_mode:
        ``"online"`` — the embedding is computed inside the request (the
        paper's measured configuration, whose bottleneck Fig. 9 exposes);
        ``"offline"`` — the embedding comes from a precomputed lookup
        table and only the lookup cost remains.
    """

    stage1: Stage1Model = field(default_factory=Stage1Model)
    stage2: Stage2Model = field(default_factory=Stage2Model)
    stage3: Stage3Model = field(default_factory=Stage3Model)
    embedding_mode: str = "online"

    def __post_init__(self) -> None:
        if self.embedding_mode not in _EMBEDDING_MODES:
            raise ValidationError(
                f"embedding_mode must be one of {_EMBEDDING_MODES}, "
                f"got {self.embedding_mode!r}"
            )

    # ------------------------------------------------------------------ #
    # Derived models
    # ------------------------------------------------------------------ #
    def with_overrides(
        self,
        embedding_mode: str | None = None,
        host: HostMachineParams | None = None,
        anneal_us: float | None = None,
        **host_overrides: float,
    ) -> "SplitExecutionModel":
        """A derived model with selected operating constants replaced.

        ``host`` swaps the conventional-host rates wholesale (applied to both
        Stage 1 and Stage 3); keyword ``host_overrides`` replace individual
        :class:`HostMachineParams` fields on top of the current (or given)
        host, e.g. ``with_overrides(clock_hz=3.2e9)``.  ``anneal_us``
        re-times the QPU annealing duration.  This is the single knob-turning
        entry point shared by the sensitivity analysis and the scenario-study
        executor, so every "what if the machine were different" path builds
        models the same way.
        """
        model = self
        if embedding_mode is not None:
            model = replace(model, embedding_mode=embedding_mode)
        if host is not None or host_overrides:
            new_host = host if host is not None else model.stage1.host
            if host_overrides:
                new_host = replace(new_host, **host_overrides)
            model = replace(
                model,
                stage1=replace(model.stage1, host=new_host),
                stage3=replace(model.stage3, host=new_host),
            )
        if anneal_us is not None:
            model = replace(model, stage2=model.stage2.with_anneal_time(anneal_us))
        return model

    # ------------------------------------------------------------------ #
    # Predictions
    # ------------------------------------------------------------------ #
    def _stage1_breakdown(self, lps: int) -> Stage1Breakdown:
        b = self.stage1.breakdown(lps)
        if self.embedding_mode == "online":
            return b
        # Offline: replace the embedding computation with a table lookup
        # charged LPS^2 comparison flops (graph-signature matching).
        lookup_seconds = float(lps) ** 2 / self.stage1.host.flops_sp
        return replace(b, embedding_flops=lookup_seconds)

    def time_to_solution(
        self, lps: int, accuracy: float = 0.99, success: float = 0.7
    ) -> StageTimings:
        """Predict the stage-resolved time-to-solution for one problem.

        Parameters
        ----------
        lps:
            Logical problem size (spins in the logical Hamiltonian).
        accuracy:
            Target ensemble accuracy ``p_a`` (fraction, e.g. 0.99).
        success:
            Characteristic single-run success probability ``p_s``.
        """
        return StageTimings(
            lps=lps,
            accuracy=accuracy,
            success=success,
            stage1=self._stage1_breakdown(lps),
            stage2=self.stage2.breakdown(accuracy, success),
            stage3=self.stage3.breakdown(lps, accuracy, success),
            embedding_mode=self.embedding_mode,
        )

    def sweep(
        self,
        lps_values,
        accuracy: float = 0.99,
        success: float = 0.7,
    ) -> list[StageTimings]:
        """Predictions across a range of problem sizes (the Fig. 9 x-axes).

        For large scans prefer :meth:`sweep_arrays`, which produces the same
        numbers (bit for bit) in struct-of-arrays form without per-point
        Python objects.
        """
        return [self.time_to_solution(int(n), accuracy, success) for n in lps_values]

    def _stage1_breakdown_arrays(self, lps: np.ndarray) -> Stage1ArrayBreakdown:
        b = self.stage1.breakdown_arrays(lps)
        if self.embedding_mode == "online":
            return b
        # Offline: replace the embedding computation with a table lookup
        # charged LPS^2 comparison flops (graph-signature matching).
        lookup_seconds = lps.astype(np.float64) ** 2 / self.stage1.host.flops_sp
        return replace(b, embedding_flops=lookup_seconds)

    def sweep_arrays(
        self,
        lps_values,
        accuracy: float = 0.99,
        success: float = 0.7,
    ) -> SweepArrays:
        """Vectorized :meth:`sweep`: one struct-of-arrays result for the scan.

        This is the fast path for Fig. 9-style scans over thousands of LPS
        operating points: Stage 1 and Stage 3 evaluate as whole-array
        expressions and Stage 2 (independent of LPS) is computed once.
        Every element matches the corresponding scalar
        :meth:`time_to_solution` exactly.
        """
        lps = np.asarray(lps_values)
        if lps.ndim != 1:
            raise ValidationError(f"lps_values must be 1-D, got shape {lps.shape}")
        if not np.issubdtype(lps.dtype, np.integer):
            # Mirror the scalar path's int(n) truncation.
            lps = lps.astype(np.intp)
        return SweepArrays(
            lps=lps,
            accuracy=accuracy,
            success=success,
            stage1=self._stage1_breakdown_arrays(lps),
            stage2=self.stage2.breakdown(accuracy, success),
            stage3=self.stage3.breakdown_arrays(lps, accuracy, success),
            embedding_mode=self.embedding_mode,
        )

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def bottleneck(self, lps: int, accuracy: float = 0.99, success: float = 0.7) -> str:
        """The dominating stage at this operating point."""
        return self.time_to_solution(lps, accuracy, success).dominant_stage

    def required_embedding_speedup(
        self, lps: int, accuracy: float = 0.99, success: float = 0.7
    ) -> float:
        """Speedup of the classical translation needed to become QPU-limited.

        The paper concludes "the pre-processing overhead for split-execution
        must be reduced by many orders of magnitude in order to become
        processor limited"; this computes the exact factor at a given
        operating point (translation time / quantum execution time).
        """
        t = self.time_to_solution(lps, accuracy, success)
        if t.stage2.total <= 0:
            raise ValidationError("quantum execution time is zero; speedup undefined")
        return t.stage1.classical_translation / t.stage2.total

    # ------------------------------------------------------------------ #
    # Runtime bridge
    # ------------------------------------------------------------------ #
    def request_profile(
        self,
        lps: int,
        accuracy: float = 0.99,
        success: float = 0.7,
        network_latency: float = 0.0,
    ) -> RequestProfile:
        """Stage durations packaged for the discrete-event runtime (Fig. 2)."""
        t = self.time_to_solution(lps, accuracy, success)
        payload_bytes = 4.0 * (lps * lps)  # the dense logical problem
        transfer = payload_bytes / self.stage1.host.pcie_bandwidth_bytes_per_s
        return RequestProfile(
            ising_generation=t.stage1.ising_generation + t.stage1.parameter_setting,
            embedding=t.stage1.embedding_flops
            + t.stage1.input_loads
            + t.stage1.output_stores
            + t.stage1.intracomm,
            processor_init=t.stage1.processor_initialize,
            quantum_execution=t.stage2.total,
            postprocessing=t.stage3.total,
            network_latency=network_latency,
            payload_transfer=transfer,
        )
