"""Fault rules, the deterministic fault plan, and fault accounting.

Injection sites
---------------
A *site* is a named point in the execution stack where a fault can be
injected.  Sites are string constants so plans serialize naturally:

``shard-eval``
    ``_run_shard`` raises :class:`FaultInjected` before evaluating the
    shard.  Keyed by shard index, gated by the caller-supplied attempt
    number, so "fail the first ``times`` attempts, then succeed" is exact.
``worker-death``
    ``_run_shard`` kills its process with ``os._exit`` when running in a
    pool worker (inline execution raises instead — killing the caller's
    process would be sabotage, not chaos).  Keyed like ``shard-eval``.
``cache-read`` / ``cache-write``
    The executor's cache pre-pass/store sees an unreadable entry
    (``effect="raise"``) or a torn file (``effect="corrupt"``).  Counted
    per (site, shard) over the plan's lifetime.
``http-connection``
    The study server closes the client connection before responding —
    the client observes a connection reset.  Counted per request.
``http-slow``
    The server sleeps ``delay_s`` before handling the request.  Counted
    per request.
``worker-pull`` / ``worker-push``
    A distributed :class:`~repro.distributed.worker.ShardWorker` fails a
    lease pull (before any shard is held) or a shard push (after
    evaluation, before the coordinator accepts).  Counted per (site,
    key) — pulls key on the worker's pull counter, pushes on the shard
    index — and absorbed by the worker's own RetryPolicy backoff, so an
    injected transport fault costs retries, never bytes.

Determinism
-----------
Two gating mechanisms, both deterministic:

* **attempt-gated** sites (``shard-eval``, ``worker-death``) fire for
  attempts ``0..times-1`` at a matching key.  The attempt number is owned
  by the *parent* process and shipped to workers with the shard, so a
  respawned worker does not reset the count — the fault converges.
* **counted** sites (cache/http) keep a per-(site, key) invocation
  counter inside the plan object and treat it as the attempt number.

Probabilistic rules (``probability < 1``) draw from
``spawn_stream(seed, _FAULT_DOMAIN, site_index, key, attempt)`` — the
same spawn-stream discipline as ``repro._rng``, in a key namespace that
cannot collide with the executor's MC streams (one key component) or its
backoff streams (two components).
"""

from __future__ import annotations

import json
import os
import threading
from collections.abc import Mapping, Sequence
from dataclasses import asdict, dataclass

from .._rng import spawn_stream
from ..exceptions import ReproError, ValidationError

SITE_SHARD_EVAL = "shard-eval"
SITE_WORKER_DEATH = "worker-death"
SITE_CACHE_READ = "cache-read"
SITE_CACHE_WRITE = "cache-write"
SITE_HTTP_CONNECTION = "http-connection"
SITE_HTTP_SLOW = "http-slow"
SITE_WORKER_PULL = "worker-pull"
SITE_WORKER_PUSH = "worker-push"

# New sites append; fires() keys probability draws on the site's position
# here, so reordering would silently reshuffle seeded fault schedules.
FAULT_SITES = (
    SITE_SHARD_EVAL,
    SITE_WORKER_DEATH,
    SITE_CACHE_READ,
    SITE_CACHE_WRITE,
    SITE_HTTP_CONNECTION,
    SITE_HTTP_SLOW,
    SITE_WORKER_PULL,
    SITE_WORKER_PUSH,
)

#: Environment variable holding a JSON fault plan (see FaultPlan.from_env).
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: Spawn-key domain separating fault draws from MC and backoff streams.
_FAULT_DOMAIN = 0xFA117

_CACHE_EFFECTS = ("raise", "corrupt")


class FaultInjected(ReproError):
    """Raised (or exited with) at an injection site the plan fired on."""


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: where, for whom, how often, and how.

    ``keys`` restricts the rule to specific keys (shard indices for
    executor/cache sites); ``None`` matches every key.  ``times`` is the
    number of attempts that fail before the site succeeds again;
    ``probability`` further gates each eligible attempt.  ``effect``
    selects the failure mode for cache sites (``"raise"`` — an
    ``OSError``-like unreadable/unwritable entry — or ``"corrupt"`` — a
    torn file the loader must detect).  ``delay_s`` is the added latency
    for ``http-slow``.
    """

    site: str
    keys: tuple[int, ...] | None = None
    times: int = 1
    probability: float = 1.0
    effect: str = "raise"
    delay_s: float = 0.05

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValidationError(
                f"unknown fault site {self.site!r}; expected one of {FAULT_SITES}"
            )
        if self.keys is not None:
            object.__setattr__(self, "keys", tuple(int(k) for k in self.keys))
        if self.times < 1:
            raise ValidationError(f"times must be >= 1, got {self.times}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValidationError(f"probability must be in [0, 1], got {self.probability}")
        if self.effect not in _CACHE_EFFECTS:
            raise ValidationError(
                f"unknown fault effect {self.effect!r}; expected one of {_CACHE_EFFECTS}"
            )
        if self.delay_s < 0:
            raise ValidationError(f"delay_s must be >= 0, got {self.delay_s}")

    def matches_key(self, key: int) -> bool:
        return self.keys is None or key in self.keys

    def to_dict(self) -> dict:
        payload: dict = {"site": self.site, "times": self.times}
        if self.keys is not None:
            payload["keys"] = list(self.keys)
        if self.probability != 1.0:
            payload["probability"] = self.probability
        if self.effect != "raise":
            payload["effect"] = self.effect
        if self.site == SITE_HTTP_SLOW:
            payload["delay_s"] = self.delay_s
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FaultRule":
        if not isinstance(payload, Mapping):
            raise ValidationError(f"fault rule must be a mapping, got {type(payload).__name__}")
        known = {"site", "keys", "times", "probability", "effect", "delay_s"}
        unknown = set(payload) - known
        if unknown:
            raise ValidationError(f"unknown fault rule field(s): {sorted(unknown)}")
        if "site" not in payload:
            raise ValidationError("fault rule requires a 'site' field")
        kwargs = dict(payload)
        if kwargs.get("keys") is not None:
            kwargs["keys"] = tuple(kwargs["keys"])
        return cls(**kwargs)


class FaultPlan:
    """A deterministic, seedable schedule of injected faults.

    The plan itself is cheap and thread-safe; the only mutable state is
    the per-(site, key) counters behind :meth:`fires_counted`.  Plans
    cross process boundaries as their :meth:`to_dict` payload (counters
    intentionally do not travel — workers are attempt-gated by the
    parent instead).
    """

    def __init__(self, rules: Sequence[FaultRule | Mapping], seed: int = 0) -> None:
        parsed = []
        for rule in rules:
            parsed.append(rule if isinstance(rule, FaultRule) else FaultRule.from_dict(rule))
        self.rules: tuple[FaultRule, ...] = tuple(parsed)
        self.seed = int(seed)
        self._counters: dict[tuple[str, int], int] = {}
        self._lock = threading.Lock()

    @property
    def sites(self) -> frozenset:
        return frozenset(rule.site for rule in self.rules)

    def fires(self, site: str, key: int = 0, attempt: int = 0) -> FaultRule | None:
        """Return the first rule that fires at (site, key, attempt), or None."""
        if site not in FAULT_SITES:
            raise ValidationError(f"unknown fault site {site!r}")
        for rule in self.rules:
            if rule.site != site or not rule.matches_key(key):
                continue
            if attempt >= rule.times:
                continue
            if rule.probability < 1.0:
                site_index = FAULT_SITES.index(site)
                u = spawn_stream(self.seed, _FAULT_DOMAIN, site_index, key, attempt).random()
                if u >= rule.probability:
                    continue
            return rule
        return None

    def fires_counted(self, site: str, key: int = 0) -> FaultRule | None:
        """Like :meth:`fires`, with a plan-lifetime invocation counter as attempt."""
        with self._lock:
            n = self._counters.get((site, key), 0)
            self._counters[(site, key)] = n + 1
        return self.fires(site, key=key, attempt=n)

    def to_dict(self) -> dict:
        return {"seed": self.seed, "rules": [rule.to_dict() for rule in self.rules]}

    @classmethod
    def from_dict(cls, payload: Mapping | Sequence) -> "FaultPlan":
        if isinstance(payload, Mapping):
            unknown = set(payload) - {"seed", "rules"}
            if unknown:
                raise ValidationError(f"unknown fault plan field(s): {sorted(unknown)}")
            return cls(payload.get("rules", []), seed=payload.get("seed", 0))
        if isinstance(payload, Sequence) and not isinstance(payload, (str, bytes)):
            return cls(payload)
        raise ValidationError(
            f"fault plan must be a mapping or a list of rules, got {type(payload).__name__}"
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None) -> "FaultPlan | None":
        """Parse :data:`FAULTS_ENV_VAR`; None when unset/empty, loud when invalid."""
        env = os.environ if environ is None else environ
        text = env.get(FAULTS_ENV_VAR, "").strip()
        if not text:
            return None
        return cls.from_json(text)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(rules={list(self.rules)!r}, seed={self.seed})"


@dataclass
class FaultStats:
    """What the resilience machinery actually did during one study run.

    Attached to :class:`~repro.studies.results.StudyResults` *outside*
    the canonical artifact: two runs that differ only in injected faults
    produce byte-identical artifacts but different stats.
    """

    shard_failures: int = 0        # shard attempts that raised (incl. worker deaths)
    shard_retries: int = 0         # re-executions scheduled after a failure
    recovered_shards: int = 0      # shards that succeeded after >= 1 failure
    worker_deaths: int = 0         # process-pool breakages observed
    pool_restarts: int = 0         # pools rebuilt after a breakage
    degraded_inline_shards: int = 0  # shards run in-process after pool gave up
    cache_read_faults: int = 0     # cache loads that failed (treated as misses)
    cache_write_faults: int = 0    # cache stores that failed (results kept anyway)

    def as_dict(self) -> dict:
        return asdict(self)

    @property
    def clean(self) -> bool:
        """True when the run saw no failures or degraded paths at all."""
        return not any(self.as_dict().values())
