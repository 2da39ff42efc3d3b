"""Content-addressed study-cache tests: keying rule, reuse, corruption.

The cache's value proposition is "byte-identical results, computed once";
these tests pin the keying rule documented in ``repro/studies/cache.py``
— what *must* share a key (re-labelled studies, explicitly-spelled
defaults), what *must not* (different seeds, MC settings, shard sizes) —
and the defensive behavior on corrupt entries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.studies import ScenarioSpec, StudyCache, run_study
from repro.studies.executor import StudyPlan, _run_shard
from repro.studies.results import empty_table


@pytest.fixture
def spec() -> ScenarioSpec:
    return ScenarioSpec(
        axes={"lps": [1, 2, 3, 4], "accuracy": [0.9, 0.99]},
        name="cache-spec",
        mc_trials=16,
        seed=2,
    )


@pytest.fixture
def cache(tmp_path) -> StudyCache:
    return StudyCache(tmp_path / "cache")


class TestKeyingRule:
    def test_key_is_stable_and_hex(self, spec):
        k1 = StudyCache.shard_key(spec, 4, 0)
        k2 = StudyCache.shard_key(spec, 4, 0)
        assert k1 == k2
        assert len(k1) == 64 and int(k1, 16) >= 0

    def test_name_is_excluded_from_the_key(self, spec):
        relabelled = ScenarioSpec(
            axes=dict(spec.axes), name="other-label",
            mc_trials=spec.mc_trials, seed=spec.seed,
        )
        assert StudyCache.shard_key(spec, 4, 0) == StudyCache.shard_key(relabelled, 4, 0)

    def test_explicit_defaults_collapse_to_absent_axes(self):
        bare = ScenarioSpec(axes={"lps": [1, 2]})
        spelled = ScenarioSpec(
            axes={"lps": [1, 2], "accuracy": [0.99], "backend": ["closed_form"]}
        )
        assert StudyCache.shard_key(bare, 2, 0) == StudyCache.shard_key(spelled, 2, 0)

    def test_grid_and_shard_identity_are_in_the_key(self, spec):
        base = StudyCache.shard_key(spec, 4, 0)
        assert StudyCache.shard_key(spec, 4, 1) != base
        assert StudyCache.shard_key(spec, 8, 0) != base
        reseeded = ScenarioSpec(
            axes=dict(spec.axes), name=spec.name, mc_trials=spec.mc_trials, seed=3
        )
        assert StudyCache.shard_key(reseeded, 4, 0) != base
        no_mc = ScenarioSpec(axes=dict(spec.axes), name=spec.name)
        assert StudyCache.shard_key(no_mc, 4, 0) != base
        other_grid = ScenarioSpec(axes={"lps": [1, 2, 3, 4]}, mc_trials=16, seed=2)
        assert StudyCache.shard_key(other_grid, 4, 0) != base

    def test_bad_shard_geometry_rejected(self, spec):
        with pytest.raises(ValidationError, match="shard_size"):
            StudyCache.shard_key(spec, 0, 0)
        with pytest.raises(ValidationError, match="out of range"):
            StudyCache(".").load_shard(spec, 4, 99)


class TestStoreAndLoad:
    def test_roundtrip_bytes(self, spec, cache):
        shard = _run_shard(StudyPlan.decode(spec.to_dict(), 4), 0, True)
        cache.store_shard(spec, 4, 0, shard)
        loaded = cache.load_shard(spec, 4, 0)
        assert loaded.tobytes() == shard.tobytes()
        assert cache.stats() == {"hits": 1, "misses": 0, "requests": 1}

    def test_miss_on_absent_entry(self, spec, cache):
        assert cache.load_shard(spec, 4, 0) is None
        assert cache.stats() == {"hits": 0, "misses": 1, "requests": 1}

    def test_wrong_shape_store_rejected(self, spec, cache):
        with pytest.raises(ValidationError, match="shard table"):
            cache.store_shard(spec, 4, 0, empty_table(3))

    def test_corrupt_entry_is_a_miss_and_heals(self, spec, cache):
        shard = _run_shard(StudyPlan.decode(spec.to_dict(), 4), 0, True)
        path = cache.store_shard(spec, 4, 0, shard)
        path.write_bytes(path.read_bytes()[:10])  # torn write
        assert cache.load_shard(spec, 4, 0) is None
        # A study run recomputes and rewrites the entry...
        results = run_study(spec, shard_size=4, cache=cache)
        # ...after which it serves correctly again.
        assert cache.load_shard(spec, 4, 0).tobytes() == shard.tobytes()
        # Bytewise: NaN-filled columns (contention metrics on non-DES rows)
        # would defeat a value-level structured comparison.
        assert results.table[0:4].tobytes() == shard.tobytes()

    def test_every_truncation_length_is_a_miss(self, spec, cache):
        # A partial write can tear at any byte; no prefix length may ever
        # parse as a valid entry (the loader checks exact size, not magic).
        shard = _run_shard(StudyPlan.decode(spec.to_dict(), 4), 0, True)
        path = cache.store_shard(spec, 4, 0, shard)
        whole = path.read_bytes()
        for cut in (0, 1, 7, len(whole) // 2, len(whole) - 1):
            path.write_bytes(whole[:cut])
            assert cache.load_shard(spec, 4, 0) is None, f"cut at {cut} served"
        # An entry *grown* past its size (appended garbage) is equally a miss.
        path.write_bytes(whole + b"\x00")
        assert cache.load_shard(spec, 4, 0) is None

    def test_unreadable_entry_is_a_miss_not_an_error(self, spec, cache):
        # chmod tricks don't bite when tests run as root; a directory squatting
        # on the entry path raises the same OSError family on read_bytes().
        shard = _run_shard(StudyPlan.decode(spec.to_dict(), 4), 0, True)
        path = cache.store_shard(spec, 4, 0, shard)
        path.unlink()
        path.mkdir()
        assert cache.load_shard(spec, 4, 0) is None
        assert cache.stats() == {"hits": 0, "misses": 1, "requests": 1}


class TestFaultInjectedCache:
    """A cache under injected faults must never poison an artifact."""

    def test_read_and_write_faults_leave_bytes_identical(self, spec, cache, tmp_path):
        from repro.faults import FaultPlan

        reference = run_study(spec, shard_size=4).artifact_bytes()
        plan = FaultPlan.from_dict(
            {
                "seed": 0,
                "rules": [
                    {"site": "cache-read", "keys": [0], "times": 1, "effect": "corrupt"},
                    {"site": "cache-read", "keys": [1], "times": 1},
                    {"site": "cache-write", "keys": [1], "times": 1},
                ],
            }
        )
        run_study(spec, shard_size=4, cache=cache)  # warm
        faulted = run_study(spec, shard_size=4, cache=cache, faults=plan)
        assert faulted.artifact_bytes() == reference
        assert faulted.fault_stats.cache_read_faults == 2
        assert faulted.fault_stats.cache_write_faults == 1
        # The store healed: a later fault-free run over the same directory
        # serves everything and still matches the reference bytes.
        healed_counter = StudyCache(cache.root)
        healed = run_study(spec, shard_size=4, cache=healed_counter)
        assert healed.artifact_bytes() == reference
        assert healed_counter.stats() == {"hits": 2, "misses": 0, "requests": 2}


class TestCachedStudies:
    def test_warm_run_is_byte_identical_and_all_hits(self, spec, cache):
        cold = run_study(spec, shard_size=4, cache=cache)
        assert cache.stats() == {"hits": 0, "misses": 2, "requests": 2}
        warm = run_study(spec, shard_size=4, cache=cache)
        assert warm.to_json() == cold.to_json()
        assert cache.stats() == {"hits": 2, "misses": 2, "requests": 4}

    def test_cache_matches_uncached_run(self, spec, cache):
        assert (
            run_study(spec, shard_size=4, cache=cache).to_json()
            == run_study(spec, shard_size=4).to_json()
        )

    def test_relabelled_study_reuses_shards(self, spec, cache):
        run_study(spec, shard_size=4, cache=cache)
        relabelled = ScenarioSpec(
            axes=dict(spec.axes), name="dashboard-rerun",
            mc_trials=spec.mc_trials, seed=spec.seed,
        )
        fresh_counter = StudyCache(cache.root)
        results = run_study(relabelled, shard_size=4, cache=fresh_counter)
        assert fresh_counter.stats() == {"hits": 2, "misses": 0, "requests": 2}
        assert results.spec.name == "dashboard-rerun"

    def test_multiprocess_run_populates_and_serves(self, spec, cache):
        cold = run_study(spec, workers=2, shard_size=2, cache=cache)
        assert cache.misses == 4 and cache.hits == 0
        warm = run_study(spec, workers=2, shard_size=2, cache=cache)
        assert cache.hits == 4
        assert warm.to_json() == cold.to_json()

    def test_partial_overlap_only_computes_new_shards(self, spec, cache):
        run_study(spec, shard_size=4, cache=cache)
        # Same grid, same shard grid, cache already warm: a different
        # StudyCache object over the same directory sees pure hits.
        counter = StudyCache(cache.root)
        run_study(spec, shard_size=4, cache=counter)
        assert counter.stats() == {"hits": 2, "misses": 0, "requests": 2}


class TestCliCacheFlag:
    def test_study_cache_flag_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        argv = [
            "study", "--lps", "1:9", "--accuracy", "0.9,0.99",
            "--name", "cli-cache", "--no-summary",
            "--cache", str(tmp_path / "cache"),
        ]
        assert main(argv + ["--out", str(tmp_path / "a.json")]) == 0
        cold_out = capsys.readouterr().out
        assert "cache: served 0/1 shards from cache" in cold_out
        assert main(argv + ["--out", str(tmp_path / "b.json")]) == 0
        warm_out = capsys.readouterr().out
        assert "cache: served 1/1 shards from cache" in warm_out
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
