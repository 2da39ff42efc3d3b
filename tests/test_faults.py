"""Unit tests for the deterministic fault-injection plan (``repro.faults``).

The fault layer's whole value is that chaos is *reproducible*: the same
plan fires the same faults at the same (site, key, attempt) coordinates
every run, probability draws come from the repo's spawn-stream discipline
in their own key namespace, and plans round-trip through JSON (the
``REPRO_FAULTS`` env hook) without drift.  These tests pin all of that
without touching the executor or the service — the integration behavior
lives in ``tests/test_executor_resilience.py`` and
``tests/test_service_durability.py``.
"""

from __future__ import annotations

import threading

import pytest

from repro.exceptions import ValidationError
from repro.faults import (
    FAULT_SITES,
    FAULTS_ENV_VAR,
    FaultInjected,
    FaultPlan,
    FaultRule,
    FaultStats,
    SITE_CACHE_READ,
    SITE_HTTP_SLOW,
    SITE_SHARD_EVAL,
    SITE_WORKER_DEATH,
)

pytestmark = pytest.mark.faults


# --------------------------------------------------------------------- #
# Rule validation and serialization
# --------------------------------------------------------------------- #
class TestFaultRule:
    def test_defaults(self):
        rule = FaultRule(site=SITE_SHARD_EVAL)
        assert rule.keys is None and rule.times == 1
        assert rule.probability == 1.0 and rule.effect == "raise"

    def test_rejects_unknown_site(self):
        with pytest.raises(ValidationError, match="unknown fault site"):
            FaultRule(site="disk-on-fire")

    def test_rejects_bad_times_probability_effect_delay(self):
        with pytest.raises(ValidationError, match="times"):
            FaultRule(site=SITE_SHARD_EVAL, times=0)
        with pytest.raises(ValidationError, match="probability"):
            FaultRule(site=SITE_SHARD_EVAL, probability=1.5)
        with pytest.raises(ValidationError, match="effect"):
            FaultRule(site=SITE_CACHE_READ, effect="explode")
        with pytest.raises(ValidationError, match="delay_s"):
            FaultRule(site=SITE_HTTP_SLOW, delay_s=-1.0)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValidationError, match="unknown fault rule field"):
            FaultRule.from_dict({"site": SITE_SHARD_EVAL, "bogus": 1})
        with pytest.raises(ValidationError, match="requires a 'site'"):
            FaultRule.from_dict({"times": 2})
        with pytest.raises(ValidationError, match="mapping"):
            FaultRule.from_dict([SITE_SHARD_EVAL])

    def test_from_dict_reads_every_field(self):
        payload = {
            "site": SITE_CACHE_READ, "keys": [0, 3], "times": 2,
            "probability": 0.5, "effect": "corrupt",
        }
        assert FaultRule.from_dict(payload) == FaultRule(
            site=SITE_CACHE_READ, keys=(0, 3), times=2, probability=0.5, effect="corrupt"
        )
        slow = FaultRule.from_dict({"site": SITE_HTTP_SLOW, "delay_s": 0.125})
        assert slow.delay_s == 0.125

    def test_key_matching(self):
        assert FaultRule(site=SITE_SHARD_EVAL).matches_key(7)
        scoped = FaultRule(site=SITE_SHARD_EVAL, keys=(1, 2))
        assert scoped.matches_key(1) and not scoped.matches_key(0)


# --------------------------------------------------------------------- #
# Plan gating: attempt-gated determinism
# --------------------------------------------------------------------- #
class TestPlanFires:
    def test_fires_exactly_times_attempts_then_stops(self):
        plan = FaultPlan([FaultRule(site=SITE_SHARD_EVAL, keys=(0,), times=2)])
        assert plan.fires(SITE_SHARD_EVAL, key=0, attempt=0) is not None
        assert plan.fires(SITE_SHARD_EVAL, key=0, attempt=1) is not None
        assert plan.fires(SITE_SHARD_EVAL, key=0, attempt=2) is None
        assert plan.fires(SITE_SHARD_EVAL, key=1, attempt=0) is None  # wrong key
        assert plan.fires(SITE_WORKER_DEATH, key=0, attempt=0) is None  # wrong site

    def test_first_matching_rule_wins(self):
        corrupt = FaultRule(site=SITE_CACHE_READ, effect="corrupt")
        unreadable = FaultRule(site=SITE_CACHE_READ, effect="raise")
        plan = FaultPlan([corrupt, unreadable])
        assert plan.fires(SITE_CACHE_READ, key=0, attempt=0) is corrupt

    def test_unknown_site_query_is_loud(self):
        plan = FaultPlan([])
        with pytest.raises(ValidationError, match="unknown fault site"):
            plan.fires("nonsense")

    def test_probability_draws_are_deterministic_per_seed(self):
        rule = FaultRule(site=SITE_SHARD_EVAL, times=1, probability=0.5)
        decisions = [
            tuple(
                FaultPlan([rule], seed=seed).fires(SITE_SHARD_EVAL, key=k) is not None
                for k in range(64)
            )
            for seed in (7, 7, 8)
        ]
        assert decisions[0] == decisions[1]     # same seed -> same schedule
        assert decisions[0] != decisions[2]     # different seed -> different schedule
        hits = sum(decisions[0])
        assert 0 < hits < 64                    # p=0.5 actually gates something

    def test_probability_zero_never_fires_and_one_always_fires(self):
        never = FaultPlan([FaultRule(site=SITE_SHARD_EVAL, probability=0.0)])
        always = FaultPlan([FaultRule(site=SITE_SHARD_EVAL, probability=1.0)])
        assert all(never.fires(SITE_SHARD_EVAL, key=k) is None for k in range(32))
        assert all(always.fires(SITE_SHARD_EVAL, key=k) is not None for k in range(32))


# --------------------------------------------------------------------- #
# Counted sites
# --------------------------------------------------------------------- #
class TestCountedFires:
    def test_counter_advances_per_site_and_key(self):
        plan = FaultPlan([FaultRule(site=SITE_CACHE_READ, times=2)])
        assert plan.fires_counted(SITE_CACHE_READ, key=0) is not None
        assert plan.fires_counted(SITE_CACHE_READ, key=0) is not None
        assert plan.fires_counted(SITE_CACHE_READ, key=0) is None   # times exhausted
        assert plan.fires_counted(SITE_CACHE_READ, key=1) is not None  # own counter

    def test_counter_is_thread_safe(self):
        plan = FaultPlan([FaultRule(site=SITE_CACHE_READ, times=10)])
        fired = []

        def hammer():
            for _ in range(50):
                fired.append(plan.fires_counted(SITE_CACHE_READ, key=0) is not None)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Exactly the first `times` invocations fired, no lost updates.
        assert sum(fired) == 10


# --------------------------------------------------------------------- #
# Plan serialization and the env hook
# --------------------------------------------------------------------- #
class TestPlanSerialization:
    def test_from_dict_reads_seed_rules_and_sites(self):
        plan = FaultPlan.from_dict({
            "seed": 42,
            "rules": [{"site": SITE_SHARD_EVAL, "keys": [1]}, {"site": SITE_CACHE_READ}],
        })
        assert plan.seed == 42
        assert plan.rules == (
            FaultRule(site=SITE_SHARD_EVAL, keys=(1,)), FaultRule(site=SITE_CACHE_READ)
        )
        assert plan.sites == {SITE_SHARD_EVAL, SITE_CACHE_READ}

    def test_from_dict_accepts_bare_rule_list(self):
        plan = FaultPlan.from_dict([{"site": SITE_SHARD_EVAL}])
        assert plan.seed == 0 and plan.sites == {SITE_SHARD_EVAL}

    def test_from_dict_rejects_junk(self):
        with pytest.raises(ValidationError, match="unknown fault plan field"):
            FaultPlan.from_dict({"seed": 0, "rules": [], "extra": 1})
        with pytest.raises(ValidationError, match="mapping or a list"):
            FaultPlan.from_dict("shard-eval")

    def test_from_json_rejects_invalid_json(self):
        with pytest.raises(ValidationError, match="not valid JSON"):
            FaultPlan.from_json("{nope")

    def test_from_env(self):
        assert FaultPlan.from_env({}) is None
        assert FaultPlan.from_env({FAULTS_ENV_VAR: "  "}) is None
        plan = FaultPlan.from_env(
            {FAULTS_ENV_VAR: '{"seed": 3, "rules": [{"site": "shard-eval"}]}'}
        )
        assert plan is not None and plan.seed == 3
        with pytest.raises(ValidationError):
            FaultPlan.from_env({FAULTS_ENV_VAR: "not json"})


def test_shard_fault_names_worker_death_ahead_of_shard_eval():
    plan = FaultPlan([
        FaultRule(site=SITE_SHARD_EVAL, keys=(0, 1), times=1),
        FaultRule(site=SITE_WORKER_DEATH, keys=(0,), times=1),
    ])
    assert plan.shard_fault(0, 0) == SITE_WORKER_DEATH
    assert plan.shard_fault(1, 0) == SITE_SHARD_EVAL
    assert plan.shard_fault(1, 1) is None
    assert plan.shard_fault(2, 0) is None


# --------------------------------------------------------------------- #
# Stats and the exception type
# --------------------------------------------------------------------- #
def test_fault_stats_clean_flag():
    stats = FaultStats()
    assert stats.clean
    stats.shard_retries += 1
    assert not stats.clean
    assert stats.as_dict()["shard_retries"] == 1
    assert set(stats.as_dict()) == {
        "shard_failures", "shard_retries", "recovered_shards",
        "cache_read_faults", "cache_write_faults",
    }


def test_fault_injected_is_a_repro_error():
    from repro.exceptions import ReproError

    assert issubclass(FaultInjected, ReproError)
    assert len(FAULT_SITES) == len(set(FAULT_SITES)) == 8
