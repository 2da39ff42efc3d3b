"""Contended multi-session simulation of the split-execution pipeline.

This is the paper's Fig. 1/Fig. 2 architecture under production traffic:
N concurrent sessions (and an optional open Poisson arrival stream)
contend for the single annealer :class:`~repro.runtime.des.Resource`
under a pluggable queue discipline, and the simulation reports latency
percentiles, mean queue wait, and annealer utilization.

Determinism
-----------
Every random draw — request sizes, think times, inter-arrival gaps,
service factors — is made *before* the simulation starts, in one fixed
order, from the caller-supplied generator.  The event loop itself is
deterministic (heap tiebreaks, resource FIFO guarantee), so a workload
simulated from ``spawn_stream(seed, CONTENTION_DOMAIN, row)`` produces
bit-identical metrics on any worker, in any shard order, on any
topology.  :func:`contention_columns` packages exactly that contract for
the study executor: columns are a pure function of ``(config, lps, row,
seed)``, keyed on each row's *global* grid index, so any shard slice
yields the same bytes as the corresponding full-run rows.

Workload model
--------------
* **Closed population** — ``sessions`` clients, each issuing
  :data:`SESSION_REQUESTS` requests separated by exponential think times
  with mean ``think_factor x`` the mean uncontended request latency.
* **Open stream** — when ``arrival_rate`` > 0, a Poisson process at rate
  λ injects :data:`OPEN_REQUESTS` additional one-shot requests.
* **Size mix** — each request draws one of the supplied
  :class:`~repro.runtime.layers.RequestProfile` variants (the executor
  builds them at :data:`SIZE_SPREAD` multiples of the row's LPS), which
  is what makes size-aware disciplines distinguishable from FIFO.
* **Service law** — ``deterministic`` uses the profile durations as-is
  (an M/D/1-like server); ``exponential`` scales each request's QPU
  occupancy by an Exp(1) factor (M/M/1-like), which is what the analytic
  cross-check module compares against.

The workload constants (:data:`SESSION_REQUESTS`, :data:`OPEN_REQUESTS`,
:data:`SIZE_SPREAD`, ...) are fixed by contract: they are part of the
artifact's meaning, like ``SIM_WORKERS`` for the ``sched_*`` columns, and
changing them is an artifact schema change.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .._rng import spawn_stream
from ..exceptions import ValidationError
from ..runtime.des import Simulator
from ..runtime.layers import RequestProfile
from ..runtime.trace import Trace
from .disciplines import DEFAULT_QUEUE_POLICY, get_queue_policy

__all__ = [
    "CONTENTION_COLUMNS",
    "CONTENTION_DOMAIN",
    "OPEN_REQUESTS",
    "SESSION_REQUESTS",
    "SIZE_SPREAD",
    "ContentionMetrics",
    "ContentionWorkload",
    "contention_columns",
    "simulate_contention",
]

#: Spawn-key domain for per-row contention streams.  MC streams use one
#: key component (``spawn_stream(seed, shard)``), backoff uses
#: ``(seed, 0xB0FF, shard)``; contention uses ``(seed, CONTENTION_DOMAIN,
#: row)`` — a distinct two-component family that can never collide with
#: either (see ``repro._rng``).
CONTENTION_DOMAIN = 0xC047

#: Requests each closed-population session issues.
SESSION_REQUESTS = 32

#: Requests the open Poisson stream injects when ``arrival_rate`` > 0.
OPEN_REQUESTS = 128

#: LPS multipliers of the request-size mix the executor simulates; the
#: spread is what gives size-sensitive disciplines something to reorder.
SIZE_SPREAD = (0.5, 1.0, 2.0)

#: The result-table columns :func:`contention_columns` fills.
CONTENTION_COLUMNS = (
    "latency_p50_s",
    "latency_p95_s",
    "latency_p99_s",
    "queue_wait_s",
    "utilization",
)

_SERVICE_LAWS = ("deterministic", "exponential")


@dataclass(frozen=True)
class ContentionWorkload:
    """One contended traffic pattern: who arrives, how often, who's next.

    ``sessions`` is the closed population (0 = open traffic only);
    ``arrival_rate`` the open Poisson rate in requests/s (0 = closed
    only); at least one source must produce traffic.  ``queue_policy``
    names the discipline (:mod:`repro.contention.disciplines`).
    """

    sessions: int = 1
    arrival_rate: float = 0.0
    queue_policy: str = DEFAULT_QUEUE_POLICY
    session_requests: int = SESSION_REQUESTS
    open_requests: int = OPEN_REQUESTS
    think_factor: float = 1.0
    service: str = "deterministic"

    def __post_init__(self) -> None:
        if isinstance(self.sessions, bool) or self.sessions != int(self.sessions):
            raise ValidationError(f"sessions must be an integer, got {self.sessions!r}")
        if self.sessions < 0:
            raise ValidationError(f"sessions must be >= 0, got {self.sessions}")
        rate = float(self.arrival_rate)
        if not np.isfinite(rate) or rate < 0:
            raise ValidationError(
                f"arrival_rate must be a finite non-negative rate, got {self.arrival_rate!r}"
            )
        if self.sessions == 0 and rate == 0.0:
            raise ValidationError(
                "empty workload: sessions=0 and arrival_rate=0 produce no traffic"
            )
        get_queue_policy(self.queue_policy)
        if self.session_requests < 1 or self.open_requests < 1:
            raise ValidationError("session_requests and open_requests must be >= 1")
        if self.think_factor < 0:
            raise ValidationError(f"think_factor must be >= 0, got {self.think_factor}")
        if self.service not in _SERVICE_LAWS:
            raise ValidationError(
                f"service must be one of {_SERVICE_LAWS}, got {self.service!r}"
            )

    @property
    def num_requests(self) -> int:
        """Total requests the workload generates."""
        closed = self.sessions * self.session_requests
        return closed + (self.open_requests if float(self.arrival_rate) > 0 else 0)


@dataclass(frozen=True)
class ContentionMetrics:
    """Aggregated outcome of one contended simulation."""

    requests: int
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    mean_latency_s: float
    mean_queue_wait_s: float
    utilization: float
    busy_s: float
    makespan_s: float


@dataclass(frozen=True)
class _Plan:
    """Every random draw of a workload, pre-drawn in one fixed order."""

    size_index: np.ndarray  # per request: index into the profile mix
    think_s: np.ndarray  # per closed request: think gap before issuing
    inter_arrival_s: np.ndarray  # per open request: Poisson gap
    service_factor: np.ndarray  # per request: QPU occupancy scale


def _draw_plan(
    workload: ContentionWorkload,
    profiles: Sequence[RequestProfile],
    rng: np.random.Generator,
) -> _Plan:
    n_closed = workload.sessions * workload.session_requests
    n_open = workload.open_requests if float(workload.arrival_rate) > 0 else 0
    n = n_closed + n_open
    size_index = rng.integers(0, len(profiles), size=n)
    think_mean = workload.think_factor * float(
        np.mean([p.total_service_time for p in profiles])
    )
    think_s = rng.exponential(1.0, size=n_closed) * think_mean
    inter_arrival_s = (
        rng.exponential(1.0 / float(workload.arrival_rate), size=n_open)
        if n_open
        else np.zeros(0)
    )
    if workload.service == "exponential":
        service_factor = rng.exponential(1.0, size=n)
    else:
        service_factor = np.ones(n)
    return _Plan(size_index, think_s, inter_arrival_s, service_factor)


def _request(
    sim: Simulator,
    qpu,
    profile: RequestProfile,
    scale: float,
    quanta: int,
    session: int,
    index: int,
    latencies: np.ndarray,
    waits: np.ndarray,
    busy: list,
    trace: Trace | None,
):
    """One Fig.-2 request under contention: pre-stages, QPU quanta, post."""
    t0 = sim.now
    hop = profile.network_latency + profile.payload_transfer
    if hop > 0:
        start = sim.now
        yield sim.timeout(hop)
        if trace is not None:
            trace.record("network", "push_problem", start, sim.now, session)

    start = sim.now
    yield sim.timeout(profile.ising_generation)
    if trace is not None:
        trace.record("sw", "generate_ising", start, sim.now, session)

    start = sim.now
    yield sim.timeout(profile.embedding)
    if trace is not None:
        trace.record("mw", "minor_embedding", start, sim.now, session)

    init_s = profile.processor_init * scale
    exec_slice_s = profile.quantum_execution * scale / quanta
    # The priority tag is the request's total QPU demand: what a
    # size-aware discipline orders the queue by.
    demand = init_s + profile.quantum_execution * scale
    total_wait = 0.0
    for _ in range(quanta):
        requested = sim.now
        yield qpu.request(tag=demand)
        wait = sim.now - requested
        total_wait += wait
        try:
            start = sim.now
            yield sim.timeout(init_s)
            if trace is not None:
                trace.record("qhw", "program_processor", start, sim.now, session, wait)
            start = sim.now
            yield sim.timeout(exec_slice_s)
            if trace is not None:
                trace.record("qhw", "anneal_and_readout", start, sim.now, session)
        finally:
            qpu.release()
        busy[0] += init_s + exec_slice_s

    start = sim.now
    yield sim.timeout(profile.postprocessing)
    if trace is not None:
        trace.record("mw", "postprocess_sort", start, sim.now, session)

    if hop > 0:
        start = sim.now
        yield sim.timeout(hop)
        if trace is not None:
            trace.record("network", "return_solution", start, sim.now, session)

    latencies[index] = sim.now - t0
    waits[index] = total_wait


def simulate_contention(
    profiles: Sequence[RequestProfile],
    workload: ContentionWorkload,
    rng: np.random.Generator,
    trace: Trace | None = None,
) -> ContentionMetrics:
    """Run one contended workload; return its aggregated metrics.

    ``profiles`` is the request-size mix (each request draws one
    uniformly); ``rng`` supplies every draw (pre-drawn — see module doc).
    Pass a :class:`~repro.runtime.trace.Trace` to capture per-session
    spans (with ``wait_s`` attribution) for auditing.
    """
    profiles = tuple(profiles)
    if not profiles:
        raise ValidationError("simulate_contention needs at least one profile")
    discipline = get_queue_policy(workload.queue_policy)
    plan = _draw_plan(workload, profiles, rng)

    n_closed = workload.sessions * workload.session_requests
    n = workload.num_requests
    latencies = np.zeros(n)
    waits = np.zeros(n)
    busy = [0.0]

    sim = Simulator()
    qpu = sim.resource(capacity=1, name="qpu", select=discipline.select)

    def closed_session(j: int):
        for r in range(workload.session_requests):
            i = j * workload.session_requests + r
            if plan.think_s[i] > 0:
                yield sim.timeout(float(plan.think_s[i]))
            yield sim.process(
                _request(
                    sim, qpu, profiles[plan.size_index[i]],
                    float(plan.service_factor[i]), discipline.quanta,
                    j, i, latencies, waits, busy, trace,
                )
            )

    def open_arrivals():
        for k in range(len(plan.inter_arrival_s)):
            i = n_closed + k
            yield sim.timeout(float(plan.inter_arrival_s[k]))
            sim.process(
                _request(
                    sim, qpu, profiles[plan.size_index[i]],
                    float(plan.service_factor[i]), discipline.quanta,
                    workload.sessions + k, i, latencies, waits, busy, trace,
                )
            )

    for j in range(workload.sessions):
        sim.process(closed_session(j))
    if len(plan.inter_arrival_s):
        sim.process(open_arrivals())
    makespan = sim.run()

    p50, p95, p99 = np.percentile(latencies, (50.0, 95.0, 99.0))
    return ContentionMetrics(
        requests=n,
        latency_p50_s=float(p50),
        latency_p95_s=float(p95),
        latency_p99_s=float(p99),
        mean_latency_s=float(np.mean(latencies)),
        mean_queue_wait_s=float(np.mean(waits)),
        utilization=float(busy[0] / makespan) if makespan > 0 else 0.0,
        busy_s=float(busy[0]),
        makespan_s=float(makespan),
    )


def _scaled_lps(lps: int, multiplier: float) -> int:
    return max(int(round(lps * multiplier)), 0)


def contention_columns(
    config: Mapping,
    lps_run: Sequence[int],
    row_indices: Sequence[int],
    seed: int,
) -> dict[str, np.ndarray]:
    """The contention result columns for one config block's LPS run.

    A pure function of ``(config, lps, global row index, seed)``: row
    ``row_indices[i]`` draws from ``spawn_stream(seed, CONTENTION_DOMAIN,
    row_indices[i])`` regardless of which shard, worker, or topology
    evaluates it — the per-row keying that keeps shard slices
    byte-identical to full runs.

    At the uncontended operating point — one closed session and no open
    arrivals, the default every non-contended study runs at — the columns
    come back NaN: contention metrics mean "simulated under contended
    traffic", and a lone session never contends.
    """
    from ..backends.closed_form import model_for_config

    if int(config["sessions"]) == 1 and float(config["arrival_rate"]) == 0.0:
        return {name: np.full(len(lps_run), np.nan) for name in CONTENTION_COLUMNS}

    workload = ContentionWorkload(
        sessions=int(config["sessions"]),
        arrival_rate=float(config["arrival_rate"]),
        queue_policy=str(config["queue_policy"]),
    )
    model = model_for_config(config)
    accuracy = float(config["accuracy"])
    success = float(config["success"])
    out = {name: np.empty(len(lps_run)) for name in CONTENTION_COLUMNS}
    profile_cache: dict[int, tuple[RequestProfile, ...]] = {}
    for i, (lps, row) in enumerate(zip(lps_run, row_indices)):
        lps = int(lps)
        profiles = profile_cache.get(lps)
        if profiles is None:
            profiles = tuple(
                model.request_profile(_scaled_lps(lps, m), accuracy, success)
                for m in SIZE_SPREAD
            )
            profile_cache[lps] = profiles
        metrics = simulate_contention(
            profiles, workload, spawn_stream(seed, CONTENTION_DOMAIN, int(row))
        )
        out["latency_p50_s"][i] = metrics.latency_p50_s
        out["latency_p95_s"][i] = metrics.latency_p95_s
        out["latency_p99_s"][i] = metrics.latency_p99_s
        out["queue_wait_s"][i] = metrics.mean_queue_wait_s
        out["utilization"][i] = metrics.utilization
    return out
