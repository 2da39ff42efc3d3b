#!/usr/bin/env python3
"""End-to-end benchmark of the study service, with a per-layer ledger.

The measured path is the one a user waits on: ``StudyServiceClient.run``
(submit, poll, fetch) against an in-process ``StudyServer`` on an ephemeral
port, from submission until the artifact bytes are at the client.  Load is
one closed-loop client: it submits its next spec only after it has the
previous artifact.  Every spec is derived from ``--seed`` and carries a
distinct name, so no two requests share a job id.

    python3 perfbench/run.py --workload grid_cold --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the loop
twice, untraced and then behind the timing shims of ``tracing.py``, and
prints the per-layer ledger plus the tracing overhead.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The program is imported from ``src/`` next to this
directory; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SHARD_SIZE = 250
#: Set-ups per phase, every workload; ``setup_s`` is their median.
SETUPS = 9
#: Client-side deadline for one study (submit through fetch).
REQUEST_TIMEOUT_S = 30.0
#: Ledger closure: the queue wait plus the self times of the named layers
#: on a study's job thread must cover its ``jobs.job_s`` up to this share.
#: The rest is the self time of the two root spans (``ROOT_LAYERS``),
#: reported as ``executor.unattributed_s``; it is ~7% on grid_cold and
#: under 4% elsewhere.
CLOSURE_SHARE = 0.15
ROOT_LAYERS = ("jobs.run_job", "executor.run_study")

# Grid sizes keep each workload's job time inside one poll interval of
# ``StudyServiceClient.wait`` (done is seen 0, 50, 150, 350, 750 or 1550 ms
# after submission) while the host runs anywhere from its fastest speed to
# 1.8x slower, so the client latency does not jump a tick from run to run.
# grid_warm's jobs land in (50, 150] ms, and grid_cold's, fleet's and
# contended's in (150, 350].  contended has one client, like the others:
# with two, the jobs' GIL hand-offs made their time swing 2x with the load
# other processes put on the machine, across two ticks.
GRID_AXES = {
    "backend": ["closed_form"],
    "embedding_mode": ["online", "offline"],
    "accuracy": [0.9, 0.99],
    "lps": list(range(1, 2251)),
}
WARM_AXES = {**GRID_AXES, "lps": list(range(1, 1526))}
FLEET_AXES = {**GRID_AXES, "lps": list(range(1, 1501))}
CONTENDED_AXES = {
    "backend": ["des"],
    "queue_policy": ["fifo", "priority", "round-robin"],
    "sessions": [4],
    "arrival_rate": [2.0],
    "lps": list(range(1, 9)),
}

_COMMON_LAYERS = (
    "client.submit", "client.status", "client.fetch",
    "jobs.run_job", "cache.key", "results.encode",
)


@dataclass(frozen=True)
class Workload:
    name: str
    axes: dict
    distributed: bool
    #: Every request hits a grid pre-computed during setup (renamed copy).
    warm: bool
    #: Layers whose shims must record calls on this workload.
    required: tuple


# What each workload exercises is described in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid_cold", GRID_AXES, False, False,
            ("executor.run_study", "spec.decode", "backends.sweep",
             "scheduler.shard_schedule", "cache.load", "cache.store"),
        ),
        Workload(
            "grid_warm", WARM_AXES, False, True,
            ("executor.run_study", "cache.load"),
        ),
        Workload(
            "contended", CONTENDED_AXES, False, False,
            ("executor.run_study", "spec.decode", "backends.sweep",
             "contention.simulate", "scheduler.shard_schedule", "cache.store"),
        ),
        Workload(
            "fleet", FLEET_AXES, True, False,
            ("coordinator.register", "coordinator.wait", "coordinator.push",
             "worker.lease", "worker.push", "spec.decode", "backends.sweep",
             "cache.load", "cache.store"),
        ),
    )
}


def _import_program():
    """Put ``src/`` first on the path; refuse to run without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        sys.exit(2)


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #
class Specs:
    """Every spec of one phase, derived from the workload seed."""

    def __init__(self, workload: Workload, seed: int) -> None:
        from repro.studies import ScenarioSpec

        self._spec = ScenarioSpec
        self.workload = workload
        self.seed = seed
        self._rng = random.Random(f"{workload.name}:{seed}")
        self.base_seed = self._rng.randrange(1 << 31)
        self._next = 0

    def base(self):
        """The grid a ``warm`` workload pre-computes during setup."""
        return self._spec(axes=self.workload.axes, name="base", seed=self.base_seed)

    def warmup(self):
        axes = {**self.workload.axes, "lps": [1]}
        for name in ("queue_policy", "embedding_mode", "accuracy"):
            if name in axes:
                axes[name] = axes[name][:1]
        return self._spec(axes=axes, name=f"warmup-{self.seed}", seed=self.base_seed)

    def take(self):
        """The next request's spec; its name never repeats."""
        fresh = self._rng.randrange(1 << 31)
        seed = self.base_seed if self.workload.warm else fresh
        name = f"{self.workload.name}-{self.seed}-{self._next}"
        self._next += 1
        return self._spec(axes=self.workload.axes, name=name, seed=seed)


# --------------------------------------------------------------------------- #
# Set-up and tear-down
# --------------------------------------------------------------------------- #
class Environment:
    """One server (plus cache directory and fleet worker) for one phase.

    ``close`` stops the server, ends the worker and deletes the cache
    directory, whatever state set-up or the loop left them in.
    """

    def __init__(self, workload: Workload, specs: Specs, shims=None) -> None:
        self.workload = workload
        self.specs = specs
        self.shims = shims
        self.server = None
        self.worker_proc = None
        self.worker_thread = None
        self.worker_stop = threading.Event()
        self.cache_dir = None
        self.setup_s = 0.0

    def open(self) -> "Environment":
        from repro.service import StudyServer, StudyServiceClient
        from repro.studies import StudyCache, run_study

        try:
            if self.workload.distributed and self.shims is None:
                self.worker_proc = _boot_worker()
            started = time.perf_counter()
            WORK.mkdir(exist_ok=True)
            self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=WORK)
            self.server = StudyServer(
                cache=StudyCache(self.cache_dir),
                shard_size=SHARD_SIZE,
                distributed=self.workload.distributed,
            ).start()
            if self.shims is not None:
                from tracing import install_cache_shims, install_coordinator_shims

                install_cache_shims(self.shims, self.server.cache)
                if self.server.coordinator is not None:
                    install_coordinator_shims(self.shims, self.server.coordinator)
            client = StudyServiceClient(self.server.url, timeout=REQUEST_TIMEOUT_S)
            if self.workload.warm:
                run_study(self.specs.base(), shard_size=SHARD_SIZE, cache=self.server.cache)
            if self.workload.distributed:
                self._attach_worker(client)
            _round_trip(client, self.specs.warmup())
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started
        return self

    def _attach_worker(self, client) -> None:
        if self.shims is None:
            self.worker_proc.stdin.write(self.server.url + "\n")
            self.worker_proc.stdin.flush()
        else:
            # The traced run keeps the worker in-process so its lease and
            # push calls go through the timed transport.
            from repro.distributed.worker import HttpCoordinatorTransport, ShardWorker
            from tracing import TimedTransport

            transport = TimedTransport(
                HttpCoordinatorTransport(self.server.url), self.shims.tracer
            )
            worker = ShardWorker(transport, worker_id="bench-worker", poll_s=0.05)
            self.worker_thread = threading.Thread(
                target=worker.run, kwargs={"stop": self.worker_stop},
                name="bench-fleet-worker", daemon=True,
            )
            self.worker_thread.start()
        deadline = time.monotonic() + 60.0
        while client.healthz()["distributed"]["workers"] < 1:
            if self.worker_proc is not None and self.worker_proc.poll() is not None:
                raise RuntimeError(f"fleet worker exited with {self.worker_proc.returncode}")
            if time.monotonic() > deadline:
                raise RuntimeError("fleet worker never attached")
            time.sleep(0.01)

    def close(self) -> None:
        # The worker goes first, so it never pulls from a stopped server.
        self.worker_stop.set()
        try:
            if self.worker_proc is not None:
                self.worker_proc.terminate()
                try:
                    self.worker_proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.worker_proc.kill()
                    self.worker_proc.wait()
                # A worker that died before reading its URL leaves it unsent.
                with contextlib.suppress(BrokenPipeError):
                    self.worker_proc.stdin.close()
                self.worker_proc.stdout.close()
            if self.worker_thread is not None:
                self.worker_thread.join(timeout=10)
            if self.server is not None:
                self.server.stop()
        finally:
            if self.cache_dir is not None:
                shutil.rmtree(self.cache_dir, ignore_errors=True)


#: The fleet worker process: it imports the program, says so, then runs the
#: ``cli worker`` command against the coordinator URL it reads from stdin.
_WORKER_BOOT = """\
import os, sys
import repro.cli, repro.distributed.worker
print("ready", flush=True)
url = sys.stdin.readline().strip()
os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
sys.exit(repro.cli.main(
    ["worker", "--coordinator", url, "--id", "bench-worker", "--poll", "0.05"]))
"""


def _boot_worker() -> subprocess.Popen:
    """Start the fleet worker process and wait until it has imported the program.

    This happens before the set-up clock starts, so ``setup_s`` times the
    worker's attachment, not an interpreter start: on a shared host the
    start's ~0.8 s of imports swings with the machine's load more than with
    the program, and it moved fleet's setup_s by a third between sets of runs.
    """
    proc = subprocess.Popen(
        [sys.executable, "-c", _WORKER_BOOT],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)},
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True,
    )
    if proc.stdout.readline().strip() != "ready":
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()
        raise RuntimeError(f"fleet worker failed to start (exit {proc.returncode})")
    return proc


def _round_trip(client, spec) -> None:
    """One study through the server, polled every millisecond.

    Set-up ends with this readiness check.  It polls tightly instead of
    using ``client.wait``, whose first ticks (0 and 50 ms) would quantize
    ``setup_s`` at the few-millisecond scale of a local set-up.
    """
    job_id = client.submit(spec)["job_id"]
    deadline = time.monotonic() + REQUEST_TIMEOUT_S
    while (state := client.status(job_id)["state"]) not in ("done", "failed"):
        if time.monotonic() > deadline:
            raise RuntimeError(f"set-up study {spec.name} did not finish")
        time.sleep(0.001)
    if state == "failed":
        raise RuntimeError(f"set-up study {spec.name} failed")
    client.artifact(job_id)


# --------------------------------------------------------------------------- #
# The closed loop
# --------------------------------------------------------------------------- #
@dataclass
class Sample:
    spec: object
    latency_s: float
    job_s: float
    finished_unix: float
    sha256: str
    shards_total: int
    shards_from_cache: int


@dataclass
class Phase:
    samples: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    wall_s: float = 0.0
    setup_s: float = 0.0
    health_delta: dict = field(default_factory=dict)


def closed_loop(env: Environment, seconds: float, shims=None) -> Phase:
    """Run one closed-loop client for ``seconds`` seconds."""
    from repro.service import ServiceError, StudyServiceClient

    workload, specs = env.workload, env.specs
    phase = Phase()
    tracer = None if shims is None else shims.tracer
    client = StudyServiceClient(env.server.url, timeout=REQUEST_TIMEOUT_S)
    if shims is not None:
        from tracing import wrap_client

        wrap_client(shims, client)
    health_before = client.healthz()
    started = time.perf_counter()
    while time.perf_counter() < started + seconds:
        spec = specs.take()
        phase.attempted += 1
        t0 = time.perf_counter()
        try:
            with tracer.bind(spec.name) if tracer is not None else contextlib.nullcontext():
                artifact = client.run(spec, timeout=REQUEST_TIMEOUT_S)
            latency = time.perf_counter() - t0
            # Called on the class, so the traced run does not count it as a poll.
            snapshot = StudyServiceClient.status(client, artifact.job_id)
        except ServiceError as exc:
            phase.failures.append(f"{spec.name}: {exc.code}: {exc}")
            continue
        except Exception as exc:  # noqa: BLE001 - the loop must keep going
            phase.failures.append(f"{spec.name}: {exc!r}")
            continue
        if artifact.served_from_cache != workload.warm:
            phase.failures.append(f"{spec.name}: served_from_cache={artifact.served_from_cache}")
            continue
        phase.samples.append(Sample(
            spec=spec,
            latency_s=latency,
            job_s=snapshot["finished_unix"] - snapshot["submitted_unix"],
            finished_unix=snapshot["finished_unix"],
            sha256=hashlib.sha256(artifact.body).hexdigest(),
            shards_total=snapshot["progress"]["shards_total"],
            shards_from_cache=snapshot["progress"]["shards_from_cache"],
        ))
    phase.wall_s = time.perf_counter() - started
    health_after = client.healthz()
    if workload.distributed:
        before, after = health_before["distributed"], health_after["distributed"]
        phase.health_delta = {
            key: after[key] - before[key]
            for key in ("leases_granted", "requeues", "rejected_pushes", "inline_shards")
        }
        if phase.health_delta["inline_shards"]:
            phase.failures.append(
                f"coordinator drained {phase.health_delta['inline_shards']} "
                "shard(s) inline: the fleet was bypassed"
            )
    return phase


def check_outputs(phase: Phase) -> None:
    """Byte-compare the first and last artifact with a direct run."""
    from repro.studies import run_study

    if not phase.samples:
        phase.failures.append("no study completed")
        return
    for sample in {id(s): s for s in (phase.samples[0], phase.samples[-1])}.values():
        expected = run_study(sample.spec, shard_size=SHARD_SIZE).artifact_bytes()
        if hashlib.sha256(expected).hexdigest() != sample.sha256:
            phase.failures.append(f"{sample.spec.name}: artifact bytes differ from run_study")


def run_phase(workload: Workload, seed: int, seconds: float, shims=None) -> Phase:
    """``SETUPS`` set-ups, the closed loop on the last one, then the oracle."""
    specs = Specs(workload, seed)
    setup_times = []
    for _ in range(SETUPS - 1):
        env = Environment(workload, Specs(workload, seed)).open()
        setup_times.append(env.setup_s)
        env.close()
    env = Environment(workload, specs, shims)
    try:
        env.open()
        setup_times.append(env.setup_s)
        if shims is not None:
            shims.tracer.enabled = True
        try:
            phase = closed_loop(env, seconds, shims)
        finally:
            if shims is not None:
                shims.tracer.enabled = False
    finally:
        env.close()
    phase.setup_s = statistics.median(setup_times)
    check_outputs(phase)
    return phase


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
def tail(values: list[float]) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``; with ten samples or fewer the
    maximum is reported as its 100th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    return ordered[n - 11], math.floor(100 * (n - 10) / n)


def end_to_end(phase: Phase) -> tuple[dict, list[str]]:
    latencies = [s.latency_s for s in phase.samples]
    tail_s, tail_pct = tail(latencies)
    failed = min(len(phase.failures), phase.attempted)
    metrics = {
        "setup_s": (phase.setup_s, "s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail_s, "s"),
        "studies_per_s": (len(phase.samples) / phase.wall_s, "1/s"),
        "success_rate": (1.0 - failed / phase.attempted, "ratio"),
    }
    notes = [
        f"error_rate {failed / phase.attempted:.4f} ratio ({failed}/{phase.attempted})",
        f"latency_tail_s is p{tail_pct} of {len(latencies)} samples",
        # Server-side job time is not quantized by poll ticks, so it follows
        # the host's speed, which on a shared host moves by up to 1.6x from
        # one run to the next; it is printed, and bounded nowhere.
        f"job_p50_s {statistics.median(s.job_s for s in phase.samples):.6g} s",
    ]
    return metrics, notes


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer(workload: Workload, phase: Phase, tracer, untraced: Phase) -> tuple[dict, list[str]]:
    """The ledger of the traced phase; returns ``(metrics, problems)``."""
    studies = {s.spec.name: s for s in phase.samples}
    total = {name: {} for name in studies}   # layer -> inclusive seconds
    selfs = {name: {} for name in studies}   # layer -> self seconds
    calls = {name: {} for name in studies}
    layer_calls: dict[str, int] = {}
    job_threads: dict[str, int] = {}
    for study, layer, thread, start, end, self_s in tracer.spans:
        layer_calls[layer] = layer_calls.get(layer, 0) + 1
        if study not in studies:
            continue
        total[study][layer] = total[study].get(layer, 0.0) + (end - start)
        selfs[study][layer] = selfs[study].get(layer, 0.0) + self_s
        calls[study][layer] = calls[study].get(layer, 0) + 1
        if layer == "jobs.run_job":
            job_threads[study] = thread

    def count(study, key):
        return tracer.counts.get((study, key), 0.0)

    problems = []
    for layer in _COMMON_LAYERS + workload.required:
        if not layer_calls.get(layer):
            problems.append(f"shim {layer} recorded no calls on {workload.name}")

    # Ledger closure over the job thread.  The root spans' self times absorb
    # whatever no named layer timed, so they are left out: a shim that
    # times too little shows up as a gap.
    gaps = {}
    for name, sample in studies.items():
        thread = job_threads.get(name)
        attributed = count(name, "jobs.queue_wait_s") + sum(
            self_s
            for study, layer, t, _, _, self_s in tracer.spans
            if study == name and t == thread and layer not in ROOT_LAYERS
        )
        gaps[name] = sample.job_s - attributed
    # Judged on the median study, so that one job thread descheduled inside
    # a root span does not fail the run.
    gap_share = _median(abs(gaps[s]) / x.job_s for s, x in studies.items())
    if gap_share > CLOSURE_SHARE:
        problems.append(
            f"ledger does not close: the median study leaves {gap_share:.1%} of "
            f"jobs.job_s to no named layer (limit {CLOSURE_SHARE:.0%})"
        )

    n = max(len(studies), 1)
    per_study = {
        "client.submit_s": ("s", lambda s, x: total[s].get("client.submit", 0.0)),
        "client.polls": ("count", lambda s, x: calls[s].get("client.status", 0)),
        "client.poll_overshoot_s": (
            "s", lambda s, x: count(s, "client.done_seen_unix") - x.finished_unix,
        ),
        "client.fetch_s": ("s", lambda s, x: total[s].get("client.fetch", 0.0)),
        "client.fetch_bytes": ("bytes", lambda s, x: count(s, "client.fetch_bytes")),
        "jobs.job_s": ("s", lambda s, x: x.job_s),
        "jobs.queue_wait_s": ("s", lambda s, x: count(s, "jobs.queue_wait_s")),
        "jobs.shards_executed": ("count", lambda s, x: x.shards_total - x.shards_from_cache),
        "jobs.shards_from_cache": ("count", lambda s, x: x.shards_from_cache),
        "spec.decode_calls": ("count", lambda s, x: calls[s].get("spec.decode", 0)),
        "spec.decode_s": ("s", lambda s, x: total[s].get("spec.decode", 0.0)),
        "executor.run_study_s": ("s", lambda s, x: total[s].get("executor.run_study", 0.0)),
        "executor.shards": (
            "count", lambda s, x: x.shards_total if calls[s].get("executor.run_study") else 0,
        ),
        "executor.unattributed_s": ("s", lambda s, x: gaps[s]),
        "backends.sweep_calls": ("count", lambda s, x: calls[s].get("backends.sweep", 0)),
        "backends.sweep_s": ("s", lambda s, x: total[s].get("backends.sweep", 0.0)),
        "backends.points": ("count", lambda s, x: count(s, "backends.points")),
        "contention.simulate_s": ("s", lambda s, x: total[s].get("contention.simulate", 0.0)),
        "contention.rows": ("count", lambda s, x: count(s, "contention.rows")),
        "scheduler.shard_schedule_s": (
            "s", lambda s, x: total[s].get("scheduler.shard_schedule", 0.0),
        ),
        "cache.key_s": ("s", lambda s, x: total[s].get("cache.key", 0.0)),
        "cache.load_s": ("s", lambda s, x: selfs[s].get("cache.load", 0.0)),
        "cache.store_s": ("s", lambda s, x: selfs[s].get("cache.store", 0.0)),
        "cache.hits": ("count", lambda s, x: count(s, "cache.hits")),
        "cache.misses": ("count", lambda s, x: count(s, "cache.misses")),
        "cache.store_bytes": ("bytes", lambda s, x: count(s, "cache.store_bytes")),
        "results.encode_s": ("s", lambda s, x: total[s].get("results.encode", 0.0)),
        "results.artifact_bytes": ("bytes", lambda s, x: count(s, "results.artifact_bytes")),
        "coordinator.wait_s": ("s", lambda s, x: total[s].get("coordinator.wait", 0.0)),
        "coordinator.verify_s": ("s", lambda s, x: selfs[s].get("coordinator.push", 0.0)),
        "worker.lease_s": ("s", lambda s, x: total[s].get("worker.lease", 0.0)),
        "worker.push_s": ("s", lambda s, x: total[s].get("worker.push", 0.0)),
        "worker.push_bytes": ("bytes", lambda s, x: count(s, "worker.push_bytes")),
    }
    metrics = {
        key: (_median(fn(name, sample) for name, sample in studies.items()), unit)
        for key, (unit, fn) in per_study.items()
    }
    metrics["worker.empty_pulls"] = (count(None, "worker.empty_pulls") / n, "count")
    for key in ("leases", "requeues", "rejected_pushes", "inline_shards"):
        source = "leases_granted" if key == "leases" else key
        metrics[f"coordinator.{key}"] = (phase.health_delta.get(source, 0) / n, "count")
    metrics["ledger.gap_share"] = (gap_share, "ratio")
    metrics["tracing.latency_overhead_s"] = (
        _median(s.latency_s for s in phase.samples)
        - _median(s.latency_s for s in untraced.samples),
        "s",
    )
    metrics["tracing.job_overhead_s"] = (
        _median(s.job_s for s in phase.samples) - _median(s.job_s for s in untraced.samples),
        "s",
    )
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    workload = WORKLOADS[args.workload]

    if args.trace == 0:
        phases = [run_phase(workload, args.seed, args.seconds)]
    else:
        from tracing import Shims, Tracer, install_service_shims

        untraced = run_phase(workload, args.seed, args.seconds / 2)
        shims = Shims(Tracer())
        install_service_shims(shims)
        try:
            traced = run_phase(workload, args.seed, args.seconds / 2, shims=shims)
        finally:
            shims.restore()
        shims.tracer.dump(WORK / f"spans-{workload.name}.jsonl")
        phases = [untraced, traced]

    attempted = sum(p.attempted for p in phases)
    failed = min(sum(len(p.failures) for p in phases), attempted)
    for phase in phases:
        for failure in phase.failures:
            print(f"FAILED {failure}", file=sys.stderr)
    if not all(phase.samples for phase in phases):
        print("perfbench: no study completed; nothing to measure", file=sys.stderr)
        return 1
    problems: list[str] = []
    if args.trace == 0:
        metrics, notes = end_to_end(phases[0])
    else:
        metrics, problems = per_layer(workload, traced, shims.tracer, untraced)
        notes = [f"{len(shims.tracer.spans)} spans over {len(traced.samples)} traced studies"]
    for problem in problems:
        print(f"LEDGER {problem}", file=sys.stderr)
    print(f"workload {workload.name}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
