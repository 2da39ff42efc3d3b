"""Equivalence of the vectorized sweep fast path with the scalar pipeline.

``SplitExecutionModel.sweep_arrays`` promises element-wise *exact* equality
with ``sweep`` (same floating-point operation sequence); these tests pin
that across a 100-point LPS grid, both embedding modes, and non-default
operating points.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SplitExecutionModel, Stage1Model, Stage3Model
from repro.exceptions import ValidationError


@pytest.fixture(scope="module", params=["online", "offline"])
def model(request) -> SplitExecutionModel:
    return SplitExecutionModel(embedding_mode=request.param)


GRID = np.arange(0, 500, 5)  # 100 points, including lps = 0
OPERATING_POINTS = [(0.99, 0.7), (0.995, 0.61), (0.5, 0.9999)]


class TestSweepEquivalence:
    @pytest.mark.parametrize("accuracy,success", OPERATING_POINTS)
    def test_totals_exact(self, model, accuracy, success):
        scalar = model.sweep(GRID, accuracy, success)
        arrays = model.sweep_arrays(GRID, accuracy, success)
        assert np.array_equal(arrays.total_seconds, [t.total_seconds for t in scalar])
        assert np.array_equal(arrays.stage1_seconds, [t.stage1_seconds for t in scalar])
        assert arrays.stage2_seconds == scalar[0].stage2_seconds
        assert np.array_equal(arrays.stage3_seconds, [t.stage3_seconds for t in scalar])

    def test_stage1_components_exact(self, model):
        scalar = model.sweep(GRID)
        arrays = model.sweep_arrays(GRID)
        for component in (
            "ising_generation",
            "parameter_setting",
            "embedding_flops",
            "input_loads",
            "output_stores",
            "intracomm",
            "processor_initialize",
        ):
            assert np.array_equal(
                getattr(arrays.stage1, component),
                [getattr(t.stage1, component) for t in scalar],
            ), component

    def test_stage3_components_exact(self, model):
        scalar = model.sweep(GRID, accuracy=0.999, success=0.5)
        arrays = model.sweep_arrays(GRID, accuracy=0.999, success=0.5)
        assert arrays.stage3.results == scalar[0].stage3.results
        assert np.array_equal(arrays.stage3.loads, [t.stage3.loads for t in scalar])
        assert np.array_equal(arrays.stage3.stores, [t.stage3.stores for t in scalar])
        assert np.array_equal(arrays.stage3.sort_flops, [t.stage3.sort_flops for t in scalar])

    def test_derived_quantities_match_scalar(self, model):
        scalar = model.sweep(GRID)
        arrays = model.sweep_arrays(GRID)
        assert np.array_equal(
            arrays.stage1.classical_translation,
            [t.stage1.classical_translation for t in scalar],
        )

    def test_len_and_lps_roundtrip(self, model):
        arrays = model.sweep_arrays(range(1, 51))
        assert len(arrays) == 50
        assert np.array_equal(arrays.lps, np.arange(1, 51))


class TestValidation:
    def test_non_1d_rejected(self, model):
        with pytest.raises(ValidationError, match="1-D"):
            model.sweep_arrays(np.ones((2, 2), dtype=np.intp))

    def test_negative_lps_rejected(self, model):
        with pytest.raises(ValidationError, match="non-negative"):
            model.sweep_arrays(np.array([3, -1]))

    def test_float_values_truncate_like_scalar(self, model):
        scalar = model.sweep([10.9, 20.2])
        arrays = model.sweep_arrays(np.array([10.9, 20.2]))
        assert np.array_equal(arrays.lps, [10, 20])
        assert np.array_equal(arrays.total_seconds, [t.total_seconds for t in scalar])


class TestStageArrayBreakdowns:
    def test_stage1_requires_integer_dtype(self):
        with pytest.raises(ValidationError, match="integer"):
            Stage1Model().breakdown_arrays(np.array([1.5, 2.5]))

    def test_stage3_requires_integer_dtype(self):
        with pytest.raises(ValidationError, match="integer"):
            Stage3Model().breakdown_arrays(np.array([1.5]))

    def test_stage1_narrow_dtype_does_not_overflow(self):
        """lps*(lps-1) must widen past int32 before the product (regression)."""
        m = Stage1Model()
        lps = 100_000
        arr = m.breakdown_arrays(np.array([lps], dtype=np.int32))
        assert arr.total[0] == m.breakdown(lps).total

    def test_stage1_matches_scalar_breakdown(self):
        m = Stage1Model()
        arr = m.breakdown_arrays(np.array([0, 1, 30, 100]))
        for i, lps in enumerate((0, 1, 30, 100)):
            assert arr.total[i] == m.breakdown(lps).total

    def test_stage3_matches_scalar_breakdown(self):
        m = Stage3Model()
        arr = m.breakdown_arrays(np.array([0, 1, 50]))
        for i, lps in enumerate((0, 1, 50)):
            assert arr.total[i] == m.breakdown(lps).total
