"""Sharded study execution: deterministic grid evaluation.

The executor partitions a spec's point space into fixed-size shards and
evaluates them in-process.  A multi-process run is the distributed
fleet: ``cli coordinate`` (a
:class:`~repro.distributed.coordinator.ShardCoordinator`) plus any number
of ``cli worker`` processes (:class:`~repro.distributed.worker.ShardWorker`),
which evaluate the same shards through the same :func:`_run_shard`.
Evaluation is dispatched through the performance-backend registry
(:mod:`repro.backends`): each config block
names its backend (the spec's outermost axis) and the executor routes the
block through that backend's batched ``sweep`` entry point, so one study
can hold closed-form, ASPEN, and DES rows side by side.

Three properties make it safe to scale a study out and still trust the
bytes:

* **Shard grid before scheduling.**  Shards are contiguous index ranges
  ``[k*shard_size, (k+1)*shard_size)`` derived from ``shard_size`` alone;
  the topology only decides *who* runs a shard, never *what* a shard is.
  A shard is ``(plan, index)``: the :class:`StudyPlan` holds everything
  study-level (decoded spec, shard grid, simulated schedule traces) and
  is built once per study in each process that runs its shards.
* **Spawn-derived RNG streams.**  The Monte-Carlo column draws from
  ``spawn_stream(spec.seed, shard_index)`` (see ``repro._rng``), keyed on
  the shard's logical index, so any topology and any shard execution
  order consume identical streams.  The contended-workload columns use
  their own namespace — ``spawn_stream(seed, CONTENTION_DOMAIN, row)``,
  keyed per *row* — so contention simulations are identical across any
  shard slicing as well.
* **Batched == scalar, bit for bit.**  Each shard routes its contiguous
  LPS runs through the config's backend ``sweep``, which every backend
  documents (and the differential suite tests) to match its per-point
  ``evaluate`` loop exactly; ``vectorize=False`` forces that scalar loop
  for cross-checking.

Together: the results table (and hence the saved artifact) is
byte-identical inline or on 1, 2 or N fleet workers, for in-order or
re-ordered shards, and for vectorized or scalar evaluation.  Changing
``shard_size`` re-partitions the Monte-Carlo stream grid and may
legitimately change ``mc_accuracy`` draws (never the model columns); it
is part of the study's identity, not a tuning knob to vary mid-study.

Because shard bytes are this reproducible, they are also *cacheable*:
pass a :class:`~repro.studies.cache.StudyCache` and every shard is served
from the content-addressed store when its key — the spec's effective grid
plus the shard grid — has been computed before, with byte-identical
results to a cold run.

Fault tolerance
---------------
Every shard runs on one engine, :class:`ShardRun`, which keeps the
study's whole shard state — table, pending queue, done set, and one
attempt ledger.  Its two execution paths (the inline loop and the
distributed coordinator's lease verbs) both charge a failed attempt
through the same :meth:`ShardRun.charge`, so a shard's budget is
spent the same way whoever ran it: ``run_study`` fails a shard at
:attr:`RetryPolicy.max_attempts`, a coordinated study past its
``max_requeues``.  A charged shard goes back in the queue; ``run_study``
retries it after an exponential backoff whose jitter is drawn from a
*dedicated* spawn stream — ``spawn_stream(seed, _BACKOFF_DOMAIN,
shard_index)`` — so retries never advance the MC streams.  A shard that
exhausts its budget raises :class:`~repro.exceptions.ShardError`
carrying the attempt history.  Cache faults degrade gracefully: a failed
load is a miss (the shard is recomputed), a failed store is ignored (the
shard still lands in the table).  Everything the resilience layer did
is reported in :class:`~repro.faults.FaultStats` on the returned
results — *outside* the canonical artifact, which stays byte-identical
with and without faults.  Deterministic fault injection
for tests and the CI chaos smoke comes from :mod:`repro.faults` via
``run_study(faults=)`` or the ``REPRO_FAULTS`` environment hook.
"""

from __future__ import annotations

import bisect
import threading
import time
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .._rng import spawn_stream
from ..backends import CONTENTION_AXES, SweepColumns, get as get_backend
from ..contention.simulate import CONTENTION_COLUMNS, contention_columns
from ..core.repetition import achieved_accuracy
from ..exceptions import ShardError, ValidationError
from ..faults import (
    SITE_CACHE_READ,
    SITE_CACHE_WRITE,
    FaultInjected,
    FaultPlan,
    FaultStats,
)
from ..distributed.scheduler import ScheduleTrace, shard_schedule
from .results import StudyResults, empty_table, unfilled_table
from .spec import EXECUTOR_AXES, ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from .cache import StudyCache

__all__ = [
    "run_study",
    "ShardRun",
    "StudyPlan",
    "shard_ranges",
    "DEFAULT_SHARD_SIZE",
    "ProgressCallback",
    "RetryPolicy",
]

DEFAULT_SHARD_SIZE = 4096

#: Spawn-key domain for retry-backoff jitter streams.  MC streams use a
#: single key component (``spawn_stream(seed, k)``); backoff uses two
#: (``spawn_stream(seed, _BACKOFF_DOMAIN, k)``), so the two families can
#: never collide and retries leave the MC draws untouched.
_BACKOFF_DOMAIN = 0xB0FF

#: Signature of the optional ``run_study`` progress hook:
#: ``progress(shard_index, from_cache, shards_done, shards_total)``, called
#: once per shard as it lands in the results table (cache-served shards
#: report during the cache pre-pass).  ``shards_done`` counts monotonically
#: to ``shards_total``; completion *order* is a scheduling detail and not
#: part of the determinism contract — the table bytes are.
ProgressCallback = Callable[[int, bool, int, int], None]


@dataclass(frozen=True)
class RetryPolicy:
    """Shard retry/backoff budget for :func:`run_study`.

    ``delay(rng, attempt)`` is ``base_delay_s * 2**attempt`` capped at
    ``max_delay_s``, scaled by a jitter factor in ``[1 - jitter, 1]``
    drawn from the shard's dedicated backoff stream.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValidationError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValidationError("backoff delays must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValidationError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, rng: np.random.Generator, attempt: int) -> float:
        base = min(self.base_delay_s * (2.0 ** attempt), self.max_delay_s)
        if base <= 0.0:
            return 0.0
        return base * (1.0 - self.jitter * rng.random())


def shard_ranges(num_points: int, shard_size: int) -> list[tuple[int, int]]:
    """The fixed shard grid: contiguous ``[start, stop)`` index ranges."""
    if shard_size < 1:
        raise ValidationError(f"shard_size must be >= 1, got {shard_size}")
    return [
        (start, min(start + shard_size, num_points))
        for start in range(0, num_points, shard_size)
    ]


def _fill_run(out: np.ndarray, cols: SweepColumns) -> None:
    """Copy one backend sweep's columns into a results-table slice."""
    out["stage1_s"] = cols.stage1_s
    out["stage2_s"] = cols.stage2_s
    out["stage3_s"] = cols.stage3_s
    out["total_s"] = cols.total_s
    out["quantum_fraction"] = cols.quantum_fraction
    out["dominant_stage"] = cols.dominant_stage
    out["repetitions"] = cols.repetitions


@dataclass(frozen=True)
class StudyPlan:
    """The study-level state every shard of one study reads, derived once.

    The canonical spec payload, the decoded spec, ``shard_size``, the
    shard grid and one simulated :class:`ScheduleTrace` per ``scheduler``
    value.  :meth:`decode` is the only constructor; each process that
    runs a study's shards builds its plan once and evaluates every shard
    as ``(plan, index)``.
    """

    payload: dict
    spec: ScenarioSpec
    shard_size: int
    ranges: tuple[tuple[int, int], ...]
    traces: Mapping[str, ScheduleTrace]

    @classmethod
    def decode(cls, payload: Mapping, shard_size: int) -> "StudyPlan":
        spec = ScenarioSpec.from_dict(payload)
        shard_size = int(shard_size)
        return cls(
            payload=spec.to_dict(),
            spec=spec,
            shard_size=shard_size,
            ranges=tuple(shard_ranges(spec.num_points, shard_size)),
            traces={n: shard_schedule(spec, shard_size, n) for n in spec.axis_values("scheduler")},
        )


def _run_shard(plan: StudyPlan, shard_index: int, vectorize: bool) -> np.ndarray:
    """Evaluate shard ``shard_index`` of ``plan`` into a results table slice.

    The one shard evaluation: the inline loop and every
    :class:`~repro.distributed.worker.ShardWorker` run it; backends
    resolve from the running process's own registry.  Injected shard
    faults are the caller's to apply (:meth:`FaultPlan.shard_fault`).
    """
    spec = plan.spec
    start, stop = plan.ranges[shard_index]
    out = empty_table(stop - start)
    mc_rng = spawn_stream(spec.seed, shard_index) if spec.mc_trials > 0 else None

    # Touch only the config blocks this shard intersects (random access via
    # spec.config, not a scan of the whole grid): block k covers points
    # [k*block, (k+1)*block).
    lps_values = spec.lps_values
    block = len(lps_values)
    for k in range(start // block, (stop - 1) // block + 1):
        config = spec.config(k)
        # Executor-owned axes (scheduler) shape dispatch, not the operating
        # point: backends never see them.
        model_config = {n: v for n, v in config.items() if n not in EXECUTOR_AXES}
        backend = get_backend(model_config["backend"])
        block_start = k * block
        block_stop = block_start + block
        lo = max(start, block_start)
        hi = min(stop, block_stop)
        rows = slice(lo - start, hi - start)
        run = out[rows]
        lps_run = lps_values[lo - block_start : hi - block_start]

        for axis_name, value in config.items():
            run[axis_name] = value
        run["lps"] = lps_run
        if vectorize:
            cols = backend.sweep(model_config, lps_run)
        else:
            # The scalar reference loop every batched sweep must match.
            cols = SweepColumns.from_timings(
                [backend.evaluate({**model_config, "lps": int(n)}) for n in lps_run]
            )
        _fill_run(run, cols)

        # Modeled dispatch columns: this shard's entry in the row's strategy
        # simulated over the study's full shard grid — a pure function of
        # (spec, shard_size), so any topology writes the same values.
        trace = plan.traces[config["scheduler"]]
        run["sched_latency_s"] = trace.finish_s[shard_index]
        run["sched_steals"] = trace.stolen[shard_index]

        # Contended-workload columns: simulated only for backends that
        # declare the contention axes (the DES runtime).  Each row draws
        # from spawn_stream(seed, CONTENTION_DOMAIN, global_row_index) —
        # keyed per row, not per shard, so any shard grid writes the same
        # bytes for a row.  Other backends keep the NaN fill from
        # empty_table.
        if CONTENTION_AXES <= backend.capabilities.supported_axes:
            contended = contention_columns(
                model_config, lps_run, range(lo, hi), spec.seed
            )
            for column in CONTENTION_COLUMNS:
                run[column] = contended[column]

        if mc_rng is not None:
            # One simulated batch of mc_trials Eq.-6 ensembles per point:
            # each ensemble of `repetitions` runs hits the ground state with
            # the analytic probability; the column is the empirical hit rate.
            p_hit = achieved_accuracy(int(run["repetitions"][0]), config["success"])
            hits = mc_rng.binomial(spec.mc_trials, p_hit, size=hi - lo)
            run["mc_accuracy"] = hits / float(spec.mc_trials)
    return out


class ShardRun:
    """One study's shard state, and the engine every execution path runs on.

    Its :attr:`plan` is decoded from ``spec.to_dict()`` once, here — the
    one construction path the inline loop and the coordinator share.  It
    owns the results table, the pending queue (in ``order``,
    default ascending), the done set, each shard's attempt count and error
    history, the seeded backoff streams, :class:`FaultStats`, the cache
    pre-pass (:meth:`serve_cached`) and the landing path (:meth:`land`:
    table write, then the tolerant cache store, then progress).  Two
    execution paths use it and nothing else: the inline loop
    (:meth:`drain`) and the coordinator's lease verbs.

    ``budget`` is the number of failed attempts a shard may absorb; the
    failure that takes its attempts past it fails the run (see
    :meth:`charge`).  ``progress(k, from_cache, done, total, worker_id)``
    is called once per landed shard; ``lock`` guards the queue, the done
    set and the ledger (a coordinator passes its own).
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        shard_size: int,
        budget: int,
        vectorize: bool = True,
        order: Sequence[int] | None = None,
        cache: "StudyCache | None" = None,
        fault_plan: FaultPlan | None = None,
        policy: RetryPolicy | None = None,
        progress: Callable[[int, bool, int, int, "str | None"], None] | None = None,
        lock: threading.RLock | None = None,
    ) -> None:
        self.plan = StudyPlan.decode(spec.to_dict(), shard_size)
        self.pending = list(range(self.total)) if order is None else list(order)
        if sorted(self.pending) != list(range(self.total)):
            raise ValidationError(
                f"shard_order must be a permutation of range({self.total})"
            )
        self._rank = {k: i for i, k in enumerate(self.pending)}
        self.budget = budget
        self.vectorize = vectorize
        self.cache = cache
        self.fault_plan = fault_plan
        self.policy = policy
        self.progress = progress
        self.lock = threading.RLock() if lock is None else lock
        # Every row is written when its shard lands, before the table is read.
        self.table = unfilled_table(spec.num_points)
        self.done: set[int] = set()
        self.attempts: dict[int, int] = {}
        self.errors: dict[int, list[str]] = {}
        self.stats = FaultStats()
        self.error: ShardError | None = None
        #: Set once the run has failed, or once every shard has landed and
        #: its landing has been published — so whoever wakes on it never
        #: sees a complete run whose progress feed is still behind.
        self.settled = threading.Event()
        self._published = 0
        self._rngs: dict[int, np.random.Generator] = {}
        #: Whether the cache pre-pass served every shard: the grid was
        #: computed before, so its columns entry is worth reading and writing.
        self.all_cached = False

    @property
    def total(self) -> int:
        return len(self.plan.ranges)

    def take(self) -> int | None:
        """Pop the head of the pending queue (None when empty or failed)."""
        with self.lock:
            if self.error is not None or not self.pending:
                return None
            return self.pending.pop(0)

    def charge(self, k: int, reason: str) -> bool:
        """Charge one failed attempt to shard ``k``; False once it is failed.

        The only place a shard's attempt count moves.  Within budget the
        shard goes back in the pending queue at its place in the run's
        order (for the inline loop, that is the head: it retries next);
        past it the run fails with a :class:`ShardError` carrying the
        shard's whole history and :attr:`settled` is set.
        """
        with self.lock:
            n = self.attempts.get(k, 0)
            history = self.errors.setdefault(k, [])
            history.append(f"attempt {n}: {reason}")
            self.attempts[k] = n + 1
            self.stats.shard_failures += 1
            if n + 1 > self.budget:
                self.error = ShardError(k, history)
                self.settled.set()
                return False
            self.stats.shard_retries += 1
            bisect.insort(self.pending, k, key=self._rank.__getitem__)
            return True

    def backoff(self, k: int) -> float:
        """Backoff before shard ``k``'s next attempt, from its own stream."""
        if self.policy is None:
            return 0.0
        if k not in self._rngs:
            self._rngs[k] = spawn_stream(self.plan.spec.seed, _BACKOFF_DOMAIN, k)
        return self.policy.delay(self._rngs[k], self.attempts[k] - 1)

    def place(self, k: int, shard: np.ndarray | None) -> int | None:
        """Land shard ``k``: write its rows into the table — unless
        ``shard`` is None, when the cache pre-pass has read them there —
        and return the new done count, or None when it had already landed
        (the first landing wins)."""
        with self.lock:
            if k in self.done:
                return None
            if shard is not None:
                start, stop = self.plan.ranges[k]
                # A byte copy: a field-by-field structured assignment is ~7x slower.
                row = self.table.itemsize
                self.table.view(np.uint8)[start * row : stop * row] = shard.view(np.uint8)
            self.done.add(k)
            if k in self.errors:
                self.stats.recovered_shards += 1
            return len(self.done)

    def publish(
        self, k: int, shard: np.ndarray, done: int, worker_id: str | None = None
    ) -> None:
        """The landing tail, outside any lock: cache store, then progress."""
        if self.cache is not None:
            self._store(k, shard)
        if self.progress is not None:
            self.progress(k, False, done, self.total, worker_id)
        self._count_published()

    def land(self, k: int, shard: np.ndarray) -> None:
        done = self.place(k, shard)
        if done is not None:
            self.publish(k, shard, done)

    def serve_cached(self) -> None:
        """The cache pre-pass: land every stored shard, leave the rest pending."""
        if self.cache is None:
            return
        missing = []
        for k in self.pending:
            if not self._load(k):
                missing.append(k)
                continue
            done = self.place(k, None)
            if self.progress is not None:
                self.progress(k, True, done, self.total, None)
            self._count_published()
        self.pending = missing
        self.all_cached = not missing

    def drain(self, faults: FaultPlan | None) -> None:
        """The inline loop: run pending shards in-process until none is left.

        An injected shard fault at a shard's current attempt raises
        :class:`FaultInjected` here — a ``worker-death`` too, since
        exiting would kill the caller's process.  A failure is charged and
        backed off; the shard retries when the queue brings it round
        again.  Raises the run's :class:`ShardError` once it has failed.
        """
        while (k := self.take()) is not None:
            try:
                attempt = self.attempts.get(k, 0)
                site = None if faults is None else faults.shard_fault(k, attempt)
                if site is not None:
                    raise FaultInjected(
                        f"injected {site} fault at shard {k}, attempt {attempt}"
                    )
                shard = _run_shard(self.plan, k, self.vectorize)
            except Exception as exc:
                if not self.charge(k, repr(exc)):
                    raise self.error from exc
                delay = self.backoff(k)
                if delay > 0.0:
                    time.sleep(delay)
            else:
                self.land(k, shard)
        if self.error is not None:
            raise self.error

    def results(self) -> StudyResults:
        """The run's table as :class:`StudyResults` of the plan's spec, with
        the cache's columns entry for this grid when the cache served every
        shard.  A run that computed any shard gets none: its grid may never
        be studied again (a fresh seed per study makes a fresh grid), and
        writing the entry costs a file of the artifact's size."""
        plan = self.plan
        entry = None
        if self.all_cached:
            entry = self.cache.columns_entry(plan.spec, plan.shard_size)
        return StudyResults(
            spec=plan.spec, table=self.table, fault_stats=self.stats, columns_entry=entry
        )

    def _count_published(self) -> None:
        with self.lock:
            self._published += 1
            if self._published == self.total:
                self.settled.set()

    def _load(self, k: int) -> bool:
        """Read shard ``k`` from the cache into its rows of the table;
        False on a miss, to which every failure mode degrades."""
        spec, shard_size = self.plan.spec, self.plan.shard_size
        if self.fault_plan is not None:
            rule = self.fault_plan.fires_counted(SITE_CACHE_READ, key=k)
            if rule is not None:
                self.stats.cache_read_faults += 1
                if rule.effect == "corrupt":
                    # Tear the stored entry; the real loader must detect and miss.
                    path = self.cache.shard_path(self.cache.shard_key(spec, shard_size, k))
                    try:
                        if path.exists():
                            path.write_bytes(path.read_bytes()[:7])
                    except OSError:  # pragma: no cover - injected tear failed; still a miss
                        pass
                else:
                    return False  # simulated unreadable entry
        rows = self.table[slice(*self.plan.ranges[k])]
        try:
            return self.cache.load_shard(spec, shard_size, k, out=rows) is not None
        except OSError:  # pragma: no cover - defensive: a broken store is a miss
            self.stats.cache_read_faults += 1
            return False

    def _store(self, k: int, shard: np.ndarray) -> None:
        """Cache store that never lets a cache failure lose computed results."""
        if self.fault_plan is not None:
            rule = self.fault_plan.fires_counted(SITE_CACHE_WRITE, key=k)
            if rule is not None:
                self.stats.cache_write_faults += 1
                if rule.effect == "corrupt":
                    path = self.cache.store_shard(self.plan.spec, self.plan.shard_size, k, shard)
                    try:
                        path.write_bytes(path.read_bytes()[:7])
                    except OSError:  # pragma: no cover - tear failed; entry stays valid
                        pass
                return  # simulated failed write: the entry never lands
        try:
            self.cache.store_shard(self.plan.spec, self.plan.shard_size, k, shard)
        except OSError:
            self.stats.cache_write_faults += 1


def run_study(
    spec: ScenarioSpec,
    shard_size: int = DEFAULT_SHARD_SIZE,
    vectorize: bool = True,
    shard_order: Sequence[int] | None = None,
    cache: "StudyCache | None" = None,
    progress: ProgressCallback | None = None,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
) -> StudyResults:
    """Evaluate every grid point of ``spec`` in-process into a :class:`StudyResults`.

    A multi-process run of the same study is ``cli coordinate`` plus
    ``cli worker`` processes (:mod:`repro.distributed`); its artifact is
    byte-identical to this one at the same ``shard_size``.

    Parameters
    ----------
    shard_size:
        Points per shard.  Fixes the shard grid and the Monte-Carlo stream
        partitioning (see the module docstring's determinism contract).
    vectorize:
        Route contiguous LPS runs through each backend's batched ``sweep``
        (the fast path) instead of the scalar per-point ``evaluate`` loop.
        Both produce identical tables; the scalar loop exists for
        cross-checks and as the perf-harness baseline.
    shard_order:
        Optional permutation of shard indices controlling evaluation
        order — a determinism-audit hook, not a tuning knob.
    cache:
        Optional :class:`~repro.studies.cache.StudyCache`.  Shards whose
        content key is already stored are loaded instead of recomputed
        (byte-identical either way); freshly computed shards are stored
        for future runs.
    progress:
        Optional :data:`ProgressCallback` invoked once per landed shard —
        the study service's per-shard status feed.  Exceptions raised by
        the callback propagate and abort the run.
    faults:
        Optional :class:`~repro.faults.FaultPlan` of injected failures.
        When omitted, the ``REPRO_FAULTS`` environment hook is consulted
        (see :meth:`FaultPlan.from_env`).  Injected transient faults never
        change the artifact bytes.
    retry:
        Shard retry/backoff budget; defaults to :class:`RetryPolicy`'s
        defaults.  Retries apply to *any* shard failure, injected or real.
    """
    plan = FaultPlan.from_env() if faults is None else faults
    policy = RetryPolicy() if retry is None else retry
    run = ShardRun(
        spec,
        shard_size,
        budget=policy.max_attempts - 1,
        vectorize=vectorize,
        order=shard_order,
        cache=cache,
        fault_plan=plan,
        policy=policy,
        progress=None if progress is None else (
            lambda k, cached, done, total, _worker: progress(k, cached, done, total)
        ),
    )
    run.serve_cached()
    run.drain(plan)
    return run.results()
