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
from repro.studies import ScenarioSpec, StudyCache, StudyResults, run_study, shard_ranges
from repro.studies.cache import COLUMNS_ENTRY_MIN_POINTS
from repro.studies.executor import StudyPlan, _run_shard
from repro.studies.results import empty_table, encode_columns


@pytest.fixture
def spec() -> ScenarioSpec:
    return ScenarioSpec(
        axes={"lps": [1, 2, 3, 4], "accuracy": [0.9, 0.99]},
        name="cache-spec",
        mc_trials=16,
        seed=2,
    )


@pytest.fixture
def grid() -> ScenarioSpec:
    """The smallest grid that gets a columns entry (4 shards of 256)."""
    spec = ScenarioSpec(
        axes={
            "lps": list(range(1, 257)),
            "accuracy": [0.9, 0.99],
            "embedding_mode": ["online", "offline"],
        },
        name="columns-grid",
        mc_trials=4,
        seed=2,
    )
    assert spec.num_points == COLUMNS_ENTRY_MIN_POINTS
    return spec


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

    def test_multishard_run_populates_and_serves(self, spec, cache):
        cold = run_study(spec, shard_size=2, cache=cache)
        assert cache.misses == 4 and cache.hits == 0
        warm = run_study(spec, shard_size=2, cache=cache)
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
    def test_study_cache_flag_stores_and_splices_the_columns_entry(self, tmp_path, capsys):
        from repro.cli import main

        argv = [
            "study", "--lps", "1:257", "--accuracy", "0.9,0.99",
            "--embedding-mode", "online,offline", "--shard-size", "256",
            "--name", "cli-columns", "--no-summary", "--cache", str(tmp_path / "cache"),
        ]

        def entries():
            return list((tmp_path / "cache").glob("*/*.columns"))

        assert main(argv + ["--out", str(tmp_path / "a.json")]) == 0
        assert not entries()  # a cold run computed its shards: no entry
        assert main(argv + ["--out", str(tmp_path / "b.json")]) == 0
        assert len(entries()) == 1  # the cache-served run stores it
        assert main(argv + ["--out", str(tmp_path / "c.json")]) == 0  # and splices it
        capsys.readouterr()
        artifact = (tmp_path / "a.json").read_bytes()
        assert (tmp_path / "b.json").read_bytes() == artifact
        assert (tmp_path / "c.json").read_bytes() == artifact
        assert StudyResults.load(tmp_path / "a.json").to_json().encode() == artifact

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


# --------------------------------------------------------------------- #
# Key splice: one hashed prefix per grid, digests unchanged
# --------------------------------------------------------------------- #
def _whole_payload_key(grid, shard_size, kind, **fields):
    """A key as the cache computed it before the prefix splice: the sha256
    of the whole canonical payload, ``cache_identity()`` serialized per key."""
    import hashlib

    from repro import __version__
    from repro._json import canonical_dumps
    from repro.studies.results import ARTIFACT_SCHEMA_VERSION, RESULT_COLUMNS

    payload = {
        "kind": kind,
        "code_version": __version__,
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "columns": [list(column) for column in RESULT_COLUMNS],
        "grid": grid.cache_identity(),
        "shard_size": shard_size,
        **fields,
    }
    return hashlib.sha256(canonical_dumps(payload).encode("utf-8")).hexdigest()


_KEYED_SPECS = (
    ScenarioSpec(axes={"lps": [1, 2, 3, 4], "accuracy": [0.9, 0.99]}, mc_trials=16, seed=2),
    # Explicitly spelled defaults: the effective grid of the bare spec.
    ScenarioSpec(axes={"lps": [1, 2], "accuracy": [0.99], "backend": ["closed_form"]}),
    ScenarioSpec(axes={"lps": [1, 2]}, name="bare"),
    ScenarioSpec(
        axes={
            "backend": ["closed_form", "aspen", "des"],
            "embedding_mode": ["online"],
            "lps": list(range(1, 40)),
        },
        seed=9,
    ),
    ScenarioSpec(
        axes={"backend": ["des"], "queue_policy": ["fifo", "priority"], "sessions": [4],
              "arrival_rate": [2.0], "lps": [1, 2, 3]},
    ),
)


class TestKeySplice:
    @pytest.mark.parametrize("spec", _KEYED_SPECS, ids=lambda s: s.describe())
    @pytest.mark.parametrize("shard_size", [1, 3, 64])
    def test_digests_equal_the_whole_payload_hash(self, spec, shard_size):
        from repro.studies import study_key

        for index in range(len(shard_ranges(spec.num_points, shard_size))):
            assert StudyCache.shard_key(spec, shard_size, index) == _whole_payload_key(
                spec, shard_size, "study-shard", shard_index=index
            )
        assert study_key(spec, shard_size) == _whole_payload_key(
            spec, shard_size, "study", spec=spec.to_dict()
        )

    def test_columns_entry_is_keyed_by_grid_and_kind(self, grid, cache):
        key = _whole_payload_key(grid, 256, "study-columns")
        assert cache.columns_entry(grid, 256).path == cache.root / key[:2] / f"{key}.columns"
        relabelled = ScenarioSpec(
            axes=dict(grid.axes), name="other-label", mc_trials=grid.mc_trials, seed=grid.seed
        )
        assert cache.columns_entry(relabelled, 256) == cache.columns_entry(grid, 256)
        assert cache.columns_entry(grid, 512) != cache.columns_entry(grid, 256)

    def test_bad_shard_size_still_rejected(self, spec):
        with pytest.raises(ValidationError):
            StudyCache.shard_key(spec, 0, 0)


# --------------------------------------------------------------------- #
# The columns entry: the artifact's encoded "columns" object per grid
# --------------------------------------------------------------------- #
def cache_served(spec, shard_size, cache):
    """``spec``'s results once ``cache`` holds its grid: a cold run stores
    every shard, and the run returned is served by the cache alone."""
    run_study(spec, shard_size=shard_size, cache=cache)
    return run_study(spec, shard_size=shard_size, cache=cache)


class TestColumnsEntry:
    def test_small_grids_get_no_entry(self, spec, cache):
        assert spec.num_points < COLUMNS_ENTRY_MIN_POINTS
        assert cache.columns_entry(spec, 4) is None
        results = cache_served(spec, 4, cache)
        assert results.columns_entry is None
        assert results.artifact_bytes() == results.to_json().encode()

    def test_a_cold_study_writes_no_entry(self, grid, cache):
        # A study that computed its shards may be the only one of its grid
        # (a fresh seed per study): an entry for it would never be read.
        results = run_study(grid, shard_size=256, cache=cache)
        assert results.columns_entry is None
        assert results.artifact_bytes() == results.to_json().encode()
        assert not list(cache.root.glob("*/*.columns"))

    def test_run_study_never_writes_it_and_the_first_encode_does(self, grid, cache):
        results = cache_served(grid, 256, cache)
        entry = results.columns_entry
        assert entry == cache.columns_entry(grid, 256)
        assert not entry.path.exists()
        reference = results.to_json().encode()
        assert results.artifact_bytes() == reference
        assert entry.load() == encode_columns(results.table)
        # Every later study of the grid, under any name, splices it.
        renamed = ScenarioSpec(
            axes=dict(grid.axes), name="renamed", mc_trials=grid.mc_trials, seed=grid.seed
        )
        warm = run_study(renamed, shard_size=256, cache=cache)
        assert warm.columns_entry == entry
        assert warm.artifact_bytes() == warm.to_json().encode()

    def test_a_present_entry_is_spliced_not_reencoded(self, grid, cache):
        results = cache_served(grid, 256, cache)
        planted = b'{"planted":[1]}'
        results.columns_entry.store(planted)
        assert results.artifact_bytes().startswith(b'{"columns":{"planted":[1]},')

    @pytest.mark.parametrize("cut", ["tear", "half", "one-short"])
    def test_torn_or_short_entry_is_a_miss_that_reencodes(self, grid, cache, cut):
        results = cache_served(grid, 256, cache)
        reference = results.artifact_bytes()
        path = results.columns_entry.path
        whole = path.read_bytes()
        keep = {"tear": 7, "half": len(whole) // 2, "one-short": len(whole) - 1}[cut]
        path.write_bytes(whole[:keep])  # 7 bytes is the `corrupt` fault's tear
        assert results.columns_entry.load() is None
        assert results.artifact_bytes() == reference
        assert path.read_bytes() == whole  # rewritten whole

    def test_grown_or_unreadable_entry_is_a_miss(self, grid, cache):
        results = cache_served(grid, 256, cache)
        reference = results.artifact_bytes()
        path = results.columns_entry.path
        path.write_bytes(path.read_bytes() + b"}")
        assert results.columns_entry.load() is None
        path.unlink()
        path.mkdir()  # a directory squatting on the path: reads and writes fail
        assert results.columns_entry.load() is None
        assert results.artifact_bytes() == reference  # the failed store is ignored

    def test_entry_of_another_code_version_is_never_read(self, grid, cache, monkeypatch):
        import repro.studies.cache as cache_module

        current = cache.columns_entry(grid, 256)
        monkeypatch.setattr(cache_module, "_CODE_VERSION", "0.0.0-older")
        older_spec = ScenarioSpec(
            axes=dict(grid.axes), name="older", mc_trials=grid.mc_trials, seed=grid.seed
        )
        older = cache.columns_entry(older_spec, 256)
        assert older.path != current.path
        older.store(b'{"stale":[]}')
        monkeypatch.undo()
        results = cache_served(grid, 256, cache)
        assert results.columns_entry == current
        assert results.artifact_bytes() == results.to_json().encode()
        assert older.path.read_bytes().endswith(b'{"stale":[]}')
