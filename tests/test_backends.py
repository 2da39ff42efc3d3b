"""Backend registry tests: lookup, registration, capabilities, parity.

The registry (`repro.backends`) is the single dispatch surface for the
three model realizations; these tests pin its error paths (unknown names,
registration collisions, capability violations), its extension contract
(register a custom backend, sweep it in a study, tear it down), and the
acceptance property of the multi-backend study engine: one spec sweeping
``closed_form``, ``aspen``, and ``des`` side by side with byte-identical
artifacts across worker counts and cold-vs-cache-served runs.
"""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np
import pytest

from repro import backends
from repro.backends import (
    BackendCapabilities,
    BackendTimings,
    PerformanceBackend,
    SweepColumns,
    full_point,
)
from repro.exceptions import ValidationError
from repro.studies import ScenarioSpec, StudyCache, run_study

ALL_BACKENDS = ("aspen", "closed_form", "des")


class TestRegistryLookup:
    def test_builtins_are_registered(self):
        assert set(ALL_BACKENDS) <= set(backends.available_backends())

    def test_get_returns_cached_instance(self):
        assert backends.get("closed_form") is backends.get("closed_form")
        assert isinstance(backends.get("des"), PerformanceBackend)

    def test_unknown_name_rejected_with_known_names(self):
        with pytest.raises(ValidationError, match="unknown backend 'warp'"):
            backends.get("warp")
        with pytest.raises(ValidationError, match="closed_form"):
            backends.capabilities("warp")
        with pytest.raises(ValidationError, match="unknown backend"):
            backends.unregister("warp")

    def test_capabilities_without_instantiation(self):
        caps = backends.capabilities("aspen")
        assert caps.rtol == 1e-12
        assert "lps" in caps.supported_axes
        assert "clock_hz" not in caps.supported_axes
        des = backends.capabilities("des")
        assert des.rtol == 1e-9 and des.atol == 1e-10


def _dummy_backend_class(backend_name: str):
    class _Dummy(PerformanceBackend):
        name = backend_name
        capabilities = BackendCapabilities(
            supported_axes=frozenset({"lps", "accuracy", "success"}),
            rtol=1.0,
            atol=1.0,
            description="constant-output test backend",
        )

        def evaluate(self, point):
            return BackendTimings(
                backend=self.name,
                lps=int(point["lps"]),
                accuracy=float(point["accuracy"]),
                success=float(point["success"]),
                stage1_s=1.0,
                stage2_s=2.0,
                stage3_s=3.0,
                repetitions=7,
            )

    return _Dummy


class TestRegistration:
    def test_collision_rejected_and_replace_allowed(self):
        backends.register(_dummy_backend_class("dummy_collide"))
        try:
            with pytest.raises(ValidationError, match="already registered"):
                backends.register(_dummy_backend_class("dummy_collide"))
            # replace=True is the explicit override path.
            backends.register(_dummy_backend_class("dummy_collide"), replace=True)
        finally:
            backends.unregister("dummy_collide")
        assert "dummy_collide" not in backends.available_backends()

    def test_bad_names_rejected(self):
        with pytest.raises(ValidationError, match="non-empty string"):
            backends.register(type("NoName", (PerformanceBackend,), {}))
        with pytest.raises(ValidationError, match="must match"):
            backends.register(_dummy_backend_class("Bad Name!"))
        with pytest.raises(ValidationError, match="at most 24"):
            backends.register(_dummy_backend_class("a" * 25))

    def test_missing_capabilities_rejected(self):
        cls = _dummy_backend_class("dummy_nocaps")
        cls.capabilities = None
        with pytest.raises(ValidationError, match="BackendCapabilities"):
            backends.register(cls)

    def test_registered_backend_sweeps_in_a_study(self):
        backends.register(_dummy_backend_class("dummy_study"))
        try:
            spec = ScenarioSpec(
                axes={"backend": ["closed_form", "dummy_study"], "lps": [1, 2]},
                name="custom",
            )
            results = run_study(spec)
            rows = results.backend_rows("dummy_study")
            assert np.all(results.column("stage1_s")[rows] == 1.0)
            assert np.all(results.column("total_s")[rows] == 6.0)
            assert np.all(results.column("repetitions")[rows] == 7)
            assert np.all(results.column("dominant_stage")[rows] == "stage3")
        finally:
            backends.unregister("dummy_study")
        # Specs naming the torn-down backend fail validation again.
        with pytest.raises(ValidationError, match="unknown backend"):
            ScenarioSpec(axes={"backend": ["dummy_study"]})


class TestCapabilityEnforcement:
    def test_spec_rejects_unsupported_axis_scan(self):
        with pytest.raises(ValidationError, match="does not support axis 'clock_hz'"):
            ScenarioSpec(axes={"backend": ["aspen"], "clock_hz": [1e9, 2e9]})
        with pytest.raises(ValidationError, match="embedding_mode"):
            ScenarioSpec(
                axes={"backend": ["aspen"], "embedding_mode": ["offline"]}
            )

    def test_spec_accepts_supported_scan_and_explicit_defaults(self):
        spec = ScenarioSpec(
            axes={
                "backend": ["aspen"],
                "lps": [1, 10],
                "accuracy": [0.9, 0.99],
                "embedding_mode": ["online"],  # the default, spelled out
            }
        )
        assert spec.num_points == 4

    def test_backend_evaluate_rejects_offaxis_point(self):
        point = full_point(lps=5, embedding_mode="offline")
        with pytest.raises(ValidationError, match="not supported"):
            backends.get("aspen").evaluate(point)

    def test_full_point_rejects_unknown_parameters(self):
        with pytest.raises(ValidationError, match="unknown operating-point"):
            full_point(qubits=3)

    @pytest.mark.parametrize(
        "name,offaxis",
        [
            ("closed_form", {"sessions": 4}),
            ("calibrated", {"clock_hz": 3.2e9}),
            ("learned", {"embedding_mode": "offline"}),
            ("aspen", {"anneal_us": 40.0}),
        ],
    )
    def test_evaluate_and_sweep_reject_offaxis_point(self, name, offaxis):
        backend = backends.get(name)
        point = full_point(**offaxis)
        with pytest.raises(ValidationError, match="not supported"):
            backend.evaluate(point)
        with pytest.raises(ValidationError, match="not supported"):
            backend.sweep(point, [1, 2])


#: Stage triples probing the derived-column rule: ties go to the earlier
#: stage, an empty total has quantum fraction 0, totals associate left.
FROM_STAGES_CASES = {
    "all-equal": (1.0, 1.0, 1.0),
    "s1-eq-s2-gt-s3": (2.0, 2.0, 1.0),
    "s2-eq-s3-gt-s1": (1.0, 2.0, 2.0),
    "s3-largest": (1.0, 2.0, 3.0),
    "all-zero": (0.0, 0.0, 0.0),
    "zero-stage2": (3.0, 0.0, 1.0),
    "left-associated": (0.1, 0.2, 0.3),
}


@pytest.mark.parametrize(
    "stages", FROM_STAGES_CASES.values(), ids=list(FROM_STAGES_CASES)
)
def test_from_stages_matches_scalar_rule(stages):
    """The vector rule is bit-identical to BackendTimings' scalar properties."""
    s1, s2, s3 = stages
    cols = SweepColumns.from_stages(np.array([s1, s1]), s2, np.array([s3, s3]), 7)
    timing = BackendTimings("probe", 1, 0.99, 0.7, s1, s2, s3, 7)
    ref = SweepColumns.from_timings([timing, timing])
    for field in fields(SweepColumns):
        got, want = getattr(cols, field.name), getattr(ref, field.name)
        assert got.dtype == want.dtype, field.name
        assert got.tobytes() == want.tobytes(), field.name
    if stages == (0.0, 0.0, 0.0):
        assert cols.quantum_fraction[0] == 0.0
        assert cols.dominant_stage[0] == "stage1"


FIG9_GRID = [(lps, acc) for lps in (1, 5, 20, 50, 100) for acc in (0.9, 0.99)]


@pytest.mark.parametrize("name", [n for n in ALL_BACKENDS if n != "closed_form"])
class TestRegistryParity:
    """All registered backends agree within their declared tolerances."""

    def test_fig9_grid_within_declared_tolerance(self, name):
        backend = backends.get(name)
        reference = backends.get("closed_form")
        caps = backends.capabilities(name)
        for lps, accuracy in FIG9_GRID:
            point = full_point(lps=lps, accuracy=accuracy)
            t = backend.evaluate(point)
            r = reference.evaluate(point)
            for field in ("stage1_s", "stage2_s", "stage3_s"):
                assert getattr(t, field) == pytest.approx(
                    getattr(r, field), rel=caps.rtol, abs=caps.atol
                ), (name, field, lps, accuracy)
            assert t.total_seconds == pytest.approx(
                r.total_seconds, rel=caps.rtol, abs=caps.atol
            )
            assert t.repetitions == r.repetitions

    def test_sweep_is_bit_identical_to_evaluate_loop(self, name):
        backend = backends.get(name)
        config = full_point(accuracy=0.99, success=0.7)
        lps_run = [0, 1, 5, 20, 50]
        cols = backend.sweep(config, lps_run)
        loop = PerformanceBackend.sweep(backend, config, lps_run)
        for field in (
            "stage1_s",
            "stage2_s",
            "stage3_s",
            "total_s",
            "quantum_fraction",
            "dominant_stage",
            "repetitions",
        ):
            assert np.array_equal(
                getattr(cols, field), getattr(loop, field)
            ), (name, field)


class TestPaperModelMemoization:
    def test_load_paper_models_is_shared(self):
        from repro.aspen import load_paper_models

        assert load_paper_models() is load_paper_models()

    def test_aspen_backends_share_one_registry(self):
        from repro.core import AspenStageModels

        a, b = AspenStageModels(), AspenStageModels()
        assert a._registry is b._registry


class TestMultiBackendAcceptance:
    """The PR's acceptance criterion, end to end."""

    @pytest.fixture(scope="class")
    def spec(self) -> ScenarioSpec:
        return ScenarioSpec(
            axes={
                "backend": ["closed_form", "aspen", "des"],
                "lps": [1, 5, 20],
                "accuracy": [0.9, 0.99],
            },
            name="acceptance",
            mc_trials=8,
            seed=5,
        )

    @pytest.fixture(scope="class")
    def reference_json(self, spec) -> str:
        return run_study(spec, workers=1, shard_size=4).to_json()

    def test_per_backend_columns_in_artifact(self, spec, reference_json):
        payload = json.loads(reference_json)
        assert payload["schema_version"] == 4
        column = payload["columns"]["backend"]
        assert column == (
            ["closed_form"] * 6 + ["aspen"] * 6 + ["des"] * 6
        )

    def test_byte_identical_across_worker_counts(self, spec, reference_json):
        assert run_study(spec, workers=2, shard_size=4).to_json() == reference_json

    def test_byte_identical_scalar_loop(self, spec, reference_json):
        assert (
            run_study(spec, workers=1, shard_size=4, vectorize=False).to_json()
            == reference_json
        )

    def test_byte_identical_cold_vs_cache_served(self, spec, reference_json, tmp_path):
        cache = StudyCache(tmp_path / "cache")
        cold = run_study(spec, shard_size=4, cache=cache)
        assert cold.to_json() == reference_json
        assert cache.stats() == {"hits": 0, "misses": 5, "requests": 5}
        warm = run_study(spec, shard_size=4, cache=cache)
        assert warm.to_json() == reference_json
        assert cache.hits == 5

    def test_backends_within_declared_tolerances(self, spec, reference_json):
        from repro.studies import StudyResults

        results = StudyResults.from_dict(json.loads(reference_json))
        assert results.backends_within_tolerance() == {"aspen": True, "des": True}

    def test_backend_rows_partition_the_table(self, spec, reference_json):
        from repro.studies import StudyResults

        results = StudyResults.from_dict(json.loads(reference_json))
        slices = [results.backend_rows(n) for n in spec.backend_values]
        assert [s.start for s in slices] == [0, 6, 12]
        assert [s.stop for s in slices] == [6, 12, 18]
        with pytest.raises(ValidationError, match="not in this study"):
            results.backend_rows("warp")
