"""Executor fault-tolerance tests: retry, recovery, and unchanged bytes.

The acceptance criterion this suite pins: **injected transient faults
never change the artifact**.  A study run that suffered shard failures,
worker deaths, or cache corruption produces byte-for-byte the artifact a
fault-free run produces — the damage is visible only in the
:class:`~repro.faults.FaultStats` attached *outside* the canonical
payload.  Permanent faults (more failures than the retry budget) surface
as :class:`~repro.exceptions.ShardError` carrying the attempt history.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ShardError, ValidationError
from repro.faults import (
    FaultInjected,
    FaultPlan,
    FaultRule,
    SITE_CACHE_READ,
    SITE_CACHE_WRITE,
    SITE_SHARD_EVAL,
    SITE_WORKER_DEATH,
)
from repro.studies import RetryPolicy, ScenarioSpec, StudyCache, run_study
from repro.studies.executor import _BACKOFF_DOMAIN, StudyPlan, _run_shard

pytestmark = pytest.mark.faults

#: 12 points over 3 shards (shard_size=4), with live MC draws so the test
#: also proves retries never advance the Monte-Carlo streams.
SPEC = ScenarioSpec(
    axes={"lps": [1, 2, 3, 4], "accuracy": [0.9, 0.95, 0.99]},
    name="resilience",
    mc_trials=16,
    seed=11,
)
SHARD_SIZE = 4

#: No sleeping in tests: real backoff schedules are pinned separately.
FAST_RETRY = RetryPolicy(base_delay_s=0.0, jitter=0.0)


@pytest.fixture(scope="module")
def reference_bytes() -> bytes:
    return run_study(SPEC, shard_size=SHARD_SIZE).artifact_bytes()


# --------------------------------------------------------------------- #
# Transient shard failures: retried, byte-identical
# --------------------------------------------------------------------- #
def test_transient_shard_failure_is_retried_and_bytes_match(reference_bytes):
    plan = FaultPlan([FaultRule(site=SITE_SHARD_EVAL, keys=(1,), times=1)])
    results = run_study(SPEC, shard_size=SHARD_SIZE, faults=plan, retry=FAST_RETRY)
    assert results.artifact_bytes() == reference_bytes
    stats = results.fault_stats
    assert stats.shard_failures == 1
    assert stats.shard_retries == 1
    assert stats.recovered_shards == 1
    assert not stats.clean


def test_every_shard_failing_once_still_converges(reference_bytes):
    plan = FaultPlan([FaultRule(site=SITE_SHARD_EVAL, times=1)])  # all keys
    results = run_study(SPEC, shard_size=SHARD_SIZE, faults=plan, retry=FAST_RETRY)
    assert results.artifact_bytes() == reference_bytes
    assert results.fault_stats.recovered_shards == 3


def test_clean_run_reports_clean_stats(reference_bytes):
    results = run_study(SPEC, shard_size=SHARD_SIZE)
    assert results.artifact_bytes() == reference_bytes
    assert results.fault_stats is not None and results.fault_stats.clean


def test_fault_stats_stay_out_of_the_artifact():
    plan = FaultPlan([FaultRule(site=SITE_SHARD_EVAL, keys=(0,), times=1)])
    results = run_study(SPEC, shard_size=SHARD_SIZE, faults=plan, retry=FAST_RETRY)
    assert "fault" not in results.to_json()
    roundtripped = type(results).from_dict(results.to_dict())
    assert roundtripped.fault_stats is None  # not serialized, by design


# --------------------------------------------------------------------- #
# Permanent failures: ShardError with history
# --------------------------------------------------------------------- #
def test_exhausted_retry_budget_raises_shard_error_with_history():
    plan = FaultPlan([FaultRule(site=SITE_SHARD_EVAL, keys=(2,), times=5)])
    with pytest.raises(ShardError) as excinfo:
        run_study(SPEC, shard_size=SHARD_SIZE, faults=plan, retry=FAST_RETRY)
    err = excinfo.value
    assert err.shard_index == 2
    assert len(err.attempts) == FAST_RETRY.max_attempts == 3
    assert [f"attempt {n}" in line for n, line in enumerate(err.attempts)] == [True] * 3
    assert "after 3 attempt(s)" in str(err)


def test_pool_run_also_raises_shard_error_on_permanent_failure():
    plan = FaultPlan([FaultRule(site=SITE_SHARD_EVAL, keys=(0,), times=5)])
    with pytest.raises(ShardError) as excinfo:
        run_study(SPEC, workers=2, shard_size=SHARD_SIZE, faults=plan, retry=FAST_RETRY)
    assert excinfo.value.shard_index == 0


# --------------------------------------------------------------------- #
# Cache faults: misses and dropped writes, never poisoned artifacts
# --------------------------------------------------------------------- #
def test_cache_read_fault_degrades_to_recompute(tmp_path, reference_bytes):
    cache = StudyCache(tmp_path / "cache")
    run_study(SPEC, shard_size=SHARD_SIZE, cache=cache)  # warm every shard
    plan = FaultPlan([FaultRule(site=SITE_CACHE_READ, keys=(0, 2), times=1)])
    results = run_study(
        SPEC, shard_size=SHARD_SIZE, cache=cache, faults=plan, retry=FAST_RETRY
    )
    assert results.artifact_bytes() == reference_bytes
    assert results.fault_stats.cache_read_faults == 2


def test_corrupting_cache_read_fault_heals_the_entry(tmp_path, reference_bytes):
    cache = StudyCache(tmp_path / "cache")
    run_study(SPEC, shard_size=SHARD_SIZE, cache=cache)
    plan = FaultPlan(
        [FaultRule(site=SITE_CACHE_READ, keys=(1,), times=1, effect="corrupt")]
    )
    results = run_study(
        SPEC, shard_size=SHARD_SIZE, cache=cache, faults=plan, retry=FAST_RETRY
    )
    assert results.artifact_bytes() == reference_bytes
    assert results.fault_stats.cache_read_faults == 1
    # The recompute re-stored the shard: a fresh fault-free run is all hits.
    counter = StudyCache(cache.root)
    run_study(SPEC, shard_size=SHARD_SIZE, cache=counter)
    assert counter.stats() == {"hits": 3, "misses": 0, "requests": 3}


def test_cache_write_fault_keeps_results_and_next_run_recomputes(tmp_path, reference_bytes):
    cache = StudyCache(tmp_path / "cache")
    plan = FaultPlan([FaultRule(site=SITE_CACHE_WRITE, keys=(1,), times=1)])
    results = run_study(
        SPEC, shard_size=SHARD_SIZE, cache=cache, faults=plan, retry=FAST_RETRY
    )
    assert results.artifact_bytes() == reference_bytes
    assert results.fault_stats.cache_write_faults == 1
    # Shard 1 never landed in the store; everything else did.
    counter = StudyCache(cache.root)
    rerun = run_study(SPEC, shard_size=SHARD_SIZE, cache=counter)
    assert counter.stats() == {"hits": 2, "misses": 1, "requests": 3}
    assert rerun.artifact_bytes() == reference_bytes


def test_corrupt_cache_write_is_detected_as_a_miss_later(tmp_path, reference_bytes):
    cache = StudyCache(tmp_path / "cache")
    plan = FaultPlan(
        [FaultRule(site=SITE_CACHE_WRITE, keys=(2,), times=1, effect="corrupt")]
    )
    run_study(SPEC, shard_size=SHARD_SIZE, cache=cache, faults=plan, retry=FAST_RETRY)
    counter = StudyCache(cache.root)
    rerun = run_study(SPEC, shard_size=SHARD_SIZE, cache=counter)
    assert counter.stats() == {"hits": 2, "misses": 1, "requests": 3}
    assert rerun.artifact_bytes() == reference_bytes


# --------------------------------------------------------------------- #
# Worker death: pool recovery and the degraded inline path
# --------------------------------------------------------------------- #
def test_worker_death_is_recovered_by_pool_restart(reference_bytes):
    plan = FaultPlan([FaultRule(site=SITE_WORKER_DEATH, keys=(0,), times=1)])
    results = run_study(
        SPEC, workers=2, shard_size=SHARD_SIZE, faults=plan, retry=FAST_RETRY
    )
    assert results.artifact_bytes() == reference_bytes
    stats = results.fault_stats
    assert stats.worker_deaths == 1
    assert stats.pool_restarts == 1
    assert stats.recovered_shards >= 1  # the dead shard, plus any charged victims
    assert stats.degraded_inline_shards == 0


def test_exhausted_pool_restarts_fall_back_to_inline(reference_bytes):
    plan = FaultPlan([FaultRule(site=SITE_WORKER_DEATH, keys=(0,), times=1)])
    policy = RetryPolicy(base_delay_s=0.0, jitter=0.0, max_pool_restarts=0)
    results = run_study(
        SPEC, workers=2, shard_size=SHARD_SIZE, faults=plan, retry=policy
    )
    assert results.artifact_bytes() == reference_bytes
    stats = results.fault_stats
    assert stats.pool_restarts == 1
    assert stats.degraded_inline_shards >= 1  # the rest of the grid ran in-process


def test_inline_worker_death_raises_instead_of_exiting():
    plan = FaultPlan([FaultRule(site=SITE_WORKER_DEATH, keys=(0,), times=1)])
    with pytest.raises(FaultInjected, match="raised instead of exiting"):
        _run_shard(StudyPlan.decode(SPEC.to_dict(), SHARD_SIZE), 0, True, plan.to_dict(), 0, False)


def test_respawned_worker_does_not_reset_the_fault_schedule():
    # The attempt number is parent-owned: shipping attempt=times means the
    # site must NOT fire again, no matter how fresh the worker process is.
    plan = FaultPlan([FaultRule(site=SITE_WORKER_DEATH, keys=(0,), times=2)])
    study = StudyPlan.decode(SPEC.to_dict(), SHARD_SIZE)
    shard = _run_shard(study, 0, True, plan.to_dict(), 2, False)
    assert shard.shape == (4,)


# --------------------------------------------------------------------- #
# Retry policy: validation and deterministic backoff
# --------------------------------------------------------------------- #
def test_retry_policy_validation():
    with pytest.raises(ValidationError, match="max_attempts"):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValidationError, match="delays"):
        RetryPolicy(base_delay_s=-0.1)
    with pytest.raises(ValidationError, match="jitter"):
        RetryPolicy(jitter=1.5)
    with pytest.raises(ValidationError, match="max_pool_restarts"):
        RetryPolicy(max_pool_restarts=-1)


def test_backoff_grows_exponentially_and_caps():
    from repro._rng import spawn_stream

    policy = RetryPolicy(base_delay_s=0.1, max_delay_s=0.3, jitter=0.0)
    rng = spawn_stream(0, _BACKOFF_DOMAIN, 0)
    assert [policy.delay(rng, n) for n in range(4)] == [0.1, 0.2, 0.3, 0.3]


def test_backoff_jitter_is_deterministic_per_shard_stream():
    from repro._rng import spawn_stream

    policy = RetryPolicy(base_delay_s=0.1, jitter=0.5)
    once = [policy.delay(spawn_stream(11, _BACKOFF_DOMAIN, k), 0) for k in range(4)]
    again = [policy.delay(spawn_stream(11, _BACKOFF_DOMAIN, k), 0) for k in range(4)]
    assert once == again
    assert len(set(once)) > 1  # distinct shard streams jitter differently
    assert all(0.05 <= d <= 0.1 for d in once)


def test_backoff_streams_do_not_touch_mc_streams():
    # MC stream for shard k is spawn_stream(seed, k); backoff is
    # spawn_stream(seed, _BACKOFF_DOMAIN, k).  Distinct draws, by domain.
    from repro._rng import spawn_stream

    mc = spawn_stream(11, 0).random(4)
    backoff = spawn_stream(11, _BACKOFF_DOMAIN, 0).random(4)
    assert not np.allclose(mc, backoff)


# --------------------------------------------------------------------- #
# The REPRO_FAULTS environment hook
# --------------------------------------------------------------------- #
def test_env_hook_activates_fault_plan(monkeypatch, reference_bytes):
    monkeypatch.setenv(
        "REPRO_FAULTS",
        '{"seed": 0, "rules": [{"site": "shard-eval", "keys": [0], "times": 1}]}',
    )
    results = run_study(SPEC, shard_size=SHARD_SIZE, retry=FAST_RETRY)
    assert results.artifact_bytes() == reference_bytes
    assert results.fault_stats.shard_retries == 1


def test_explicit_plan_overrides_env_hook(monkeypatch):
    monkeypatch.setenv(
        "REPRO_FAULTS", '{"rules": [{"site": "shard-eval", "times": 99}]}'
    )
    results = run_study(
        SPEC, shard_size=SHARD_SIZE, faults=FaultPlan([]), retry=FAST_RETRY
    )
    assert results.fault_stats.clean
