"""Persistent performance-regression harness for the hot kernels.

Times a fixed set of named reference workloads — the kernels the paper's
headline result (Fig. 9) makes hot: SA sampling, batched energy evaluation,
brute-force enumeration, CMR minor embedding, the Fig.-9 pipeline sweep,
ASPEN paper-model loading, the compiled ASPEN backend sweep, the sharded
scenario-study executor, the coordinator/worker distributed study path,
a cache-warm round trip through the study service, and the artifact
encoder — and emits a machine-readable
``BENCH_PERF.json`` at the repository root so every PR's perf delta is
visible in review.

Usage::

    python -m benchmarks.perf_harness            # full run, writes BENCH_PERF.json
    python -m benchmarks.perf_harness --check    # smoke mode: tiny workloads,
                                                 # schema validation, no write
    python -m benchmarks.perf_harness --output /tmp/perf.json --repeats 9

Each kernel records a ``seed_seconds`` baseline: the same workload measured
on the pre-optimization (seed) implementation, captured once on the
reference container when the kernels were rewritten.  ``speedup_vs_seed``
therefore tracks cumulative speedup over the project's starting point, while
comparing ``seconds`` between two commits' ``BENCH_PERF.json`` tracks
per-PR regressions.  See DESIGN.md ("Performance architecture") for how to
read the file.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_PERF.json"
SCHEMA_VERSION = 1

if str(REPO_ROOT / "src") not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

#: Wall-clock seconds of each reference workload under the seed (pre-PR-1)
#: implementations, measured best-of-5 on the reference container.  These
#: are deliberately constants, not re-measured: they pin the project's
#: starting point so ``speedup_vs_seed`` is meaningful across machines of
#: the same class.  ``embed`` has no entry because the CMR router is
#: unchanged since the seed.
SEED_BASELINE_SECONDS: dict[str, float | None] = {
    "sa_sample": 0.09325,
    "energies": 0.78107,
    "brute_force": 0.31469,
    "embed": None,
    "sweep": 0.24968,
    # The study baseline is the scalar reference loop (vectorize=False) over
    # the same 10k-point grid, measured best-of-3 on the reference container
    # when the study engine landed — the pre-engine way of producing these
    # numbers was exactly such a per-point Python loop.
    "study": 0.50354,
    # The aspen_models baseline is the same workload (20 AspenStageModels
    # constructions + a Stage-1 evaluation each) measured best-of-5 before
    # load_paper_models() was memoized — every construction re-lexed and
    # re-parsed the five bundled listing files.
    "aspen_models": 0.11626,
    # The study_contended baseline is this exact workload measured best-of-5
    # when the contention subsystem landed: 75 contended rows, each running
    # a 256-request DES simulation (4 closed sessions + 128 open arrivals)
    # through the queue-discipline Resource.  speedup_vs_seed therefore
    # tracks future optimizations of the DES engine and the contention path
    # directly; it starts at ~1.0 and must stay >= 0.7 (the perf-marked
    # floor in tests/test_perf_harness.py).
    "study_contended": 0.52890,
    # The study_faulted baseline is the *fault-free* run of the identical
    # workload (same grid, same shard_size=250), measured best-of-5 when the
    # fault-injection layer landed.  speedup_vs_seed does not read as retry
    # overhead: the faulted and fault-free runs time alike, so the fault
    # path (one recomputed shard plus the plan/retry bookkeeping) costs
    # nothing measurable.  What the kernel prices is per-shard fixed cost
    # over 40 shards; with the spec decoded and the schedule simulated once
    # per study (StudyPlan) it must stay >= 1.2x (the perf-marked floor in
    # tests/test_perf_harness.py).
    "study_faulted": 0.03964,
    # The study_distributed baseline is the identical workload (same grid,
    # same shard_size=250) through plain inline run_study, measured
    # best-of-5 when the coordinator/worker subsystem landed.
    # speedup_vs_seed therefore prices the distributed machinery directly —
    # lease bookkeeping, sha256 verification on every push, the scheduler
    # simulation — relative to in-process execution of the same shards.
    "study_distributed": 0.06881,
    # The aspen_sweep baseline is the identical workload through the
    # tree-walking evaluate loop (SweepColumns.from_timings over per-point
    # AspenEvaluator walks), measured best-of-3 on the reference container
    # when the expression compiler landed.  speedup_vs_seed is the
    # compiler's whole point; the differential suite pins the compiled
    # arrays bit-identical to that loop.
    "aspen_sweep": 4.54712,
    # The service_roundtrip baseline is this exact workload on the polling
    # client (status polled from 50 ms with geometric back-off), measured
    # best-of-25 over five runs on a 2-vCPU container when the settle-event
    # long-poll landed.  The poll tick, not the job, set that time; the
    # long-poll must stay >= 2.0x ahead of it (the perf-marked floor in
    # tests/test_perf_harness.py).
    "service_roundtrip": 0.0623,
    # The artifact_encode baseline is this exact workload through the
    # row-wise encoder (one float()/int()/str() call and one NaN test per
    # cell), measured best-of-25 over five runs on the same container when
    # the column-wise ndarray.tolist() encoder landed.  What is left is
    # json.dumps itself; the floor is >= 1.2x.
    "artifact_encode": 0.0875,
}


# --------------------------------------------------------------------- #
# Reference workloads
# --------------------------------------------------------------------- #
def _sa_sample(check: bool):
    from repro.annealer import SimulatedAnnealingSampler, geometric_schedule
    from repro.qubo import random_ising

    model = random_ising(14, density=0.6, rng=42)
    if check:
        sampler = SimulatedAnnealingSampler(geometric_schedule(8))

        def op():
            sampler.sample(model, num_reads=4, rng=0)

        return op, "n=14 d=0.6 ising, 8 sweeps, 4 reads, 1 call (check)"

    sampler = SimulatedAnnealingSampler(geometric_schedule(64))

    def op():
        for k in range(8):
            sampler.sample(model, num_reads=64, rng=k)

    return op, "n=14 d=0.6 ising, 64 sweeps, 64 reads, 8 calls (Eq.-6 batch shape)"


def _energies(check: bool):
    from repro.qubo import random_ising

    model = random_ising(64, density=0.3, rng=7)
    k = 64 if check else 4096
    calls = 1 if check else 20
    S = (np.random.default_rng(0).integers(0, 2, size=(k, 64)) * 2 - 1).astype(np.int8)

    def op():
        for _ in range(calls):
            model.energies(S)

    return op, f"n=64 d=0.3 ising, batch {k}, {calls} calls"


def _brute_force(check: bool):
    from repro.qubo import brute_force_ising, random_ising

    n = 8 if check else 18
    model = random_ising(n, density=0.4, rng=3)

    def op():
        brute_force_ising(model, num_best=8)

    return op, f"n={n} d=0.4 ising, num_best=8, full enumeration"


def _embed(check: bool):
    import networkx as nx

    from repro.embedding import find_embedding_cmr, minimal_clique_topology

    n = 4 if check else 8
    source = nx.complete_graph(n)
    hardware = minimal_clique_topology(n).working_graph()

    def op():
        find_embedding_cmr(source, hardware, rng=0)

    return op, f"CMR K{n} into minimal clique Chimera, fixed rng"


def _sweep(check: bool):
    from repro.core import SplitExecutionModel

    model = SplitExecutionModel()
    points = np.arange(1, 51 if check else 2001)
    calls = 1 if check else 10

    def op():
        for _ in range(calls):
            model.sweep_arrays(points)

    return op, f"Fig.-9 sweep, {points.size} LPS points, {calls} calls"


def _aspen_models(check: bool):
    from repro.core import AspenStageModels

    calls = 2 if check else 20

    def op():
        for _ in range(calls):
            AspenStageModels().stage1_seconds(50)

    return op, (
        f"{calls} AspenStageModels constructions + Stage-1 evals "
        f"(memoized paper-model registry)"
    )


def _study(check: bool):
    from repro.studies import ScenarioSpec, run_study

    if check:
        spec = ScenarioSpec(
            axes={"lps": list(range(1, 21)), "accuracy": [0.9, 0.99]},
            name="perf-check",
        )

        def op():
            run_study(spec)

        return op, "study grid, 40 points (20 LPS x 2 pa), sharded executor (check)"

    spec = ScenarioSpec(
        axes={
            "lps": list(range(1, 2501)),
            "accuracy": [0.9, 0.99],
            "embedding_mode": ["online", "offline"],
        },
        name="perf",
    )

    def op():
        run_study(spec)

    return op, "study grid, 10000 points (2500 LPS x 2 pa x 2 modes)"


def _study_contended(check: bool):
    from repro.studies import ScenarioSpec, run_study

    if check:
        spec = ScenarioSpec(
            axes={
                "backend": ["des"],
                "queue_policy": ["fifo"],
                "sessions": [2],
                "arrival_rate": [2.0],
                "lps": list(range(1, 7)),
            },
            name="perf-contended-check",
        )

        def op():
            run_study(spec, shard_size=3)

        return op, "contended study, 6 points, 2 sessions + open traffic (check)"

    spec = ScenarioSpec(
        axes={
            "backend": ["des"],
            "queue_policy": ["fifo", "priority", "round-robin"],
            "sessions": [4],
            "arrival_rate": [2.0],
            "lps": list(range(1, 26)),
        },
        name="perf-contended",
    )

    def op():
        run_study(spec, shard_size=25)

    return op, (
        "contended study, 75 points (3 policies x 25 LPS), 4 sessions + "
        "open arrivals, 256 simulated requests per row"
    )


def _study_faulted(check: bool):
    from repro.faults import SITE_SHARD_EVAL, FaultPlan, FaultRule
    from repro.studies import RetryPolicy, ScenarioSpec, run_study

    # Zero-delay retries: the kernel prices the retry *machinery* (plan
    # consultation per shard, attempt bookkeeping, one recomputed shard),
    # not the backoff sleeps, which are configuration.
    retry = RetryPolicy(base_delay_s=0.0, jitter=0.0)
    plan = FaultPlan([FaultRule(site=SITE_SHARD_EVAL, keys=(7,), times=1)])
    if check:
        spec = ScenarioSpec(
            axes={"lps": list(range(1, 21)), "accuracy": [0.9, 0.99]},
            name="perf-faulted-check",
        )

        def op():
            results = run_study(spec, shard_size=5, faults=plan, retry=retry)
            assert results.fault_stats.recovered_shards == 1

        return op, "faulted study grid, 40 points over 8 shards, 1 injected retry (check)"

    spec = ScenarioSpec(
        axes={
            "lps": list(range(1, 2501)),
            "accuracy": [0.9, 0.99],
            "embedding_mode": ["online", "offline"],
        },
        name="perf-faulted",
    )

    def op():
        results = run_study(spec, shard_size=250, faults=plan, retry=retry)
        assert results.fault_stats.recovered_shards == 1

    return op, (
        "faulted study grid, 10000 points over 40 shards, 1 injected transient "
        "shard failure (retried)"
    )


def distributed_study(spec, shard_size: int):
    """``spec``'s results through one in-process worker draining the whole
    grid over the full lease -> evaluate -> hash -> push -> verify path.

    Single-threaded on purpose (``poll_s=0``): it prices the coordination
    machinery, not thread scheduling noise."""
    from repro.distributed import ShardCoordinator, ShardWorker
    from repro.faults import FaultPlan

    coord = ShardCoordinator()
    sid = coord.register_study(spec, shard_size=shard_size)
    worker = ShardWorker(coord, worker_id="perf", faults=FaultPlan([]), poll_s=0.0)
    worker.run(max_shards=-(-spec.num_points // shard_size))
    return coord.wait(sid, timeout=60.0)


def _study_distributed(check: bool):
    from repro.studies import ScenarioSpec

    if check:
        spec = ScenarioSpec(
            axes={"lps": list(range(1, 21)), "accuracy": [0.9, 0.99]},
            name="perf-dist-check",
        )
        return (
            lambda: distributed_study(spec, 5),
            "distributed study, 40 points over 8 leased shards, 1 worker (check)",
        )

    spec = ScenarioSpec(
        axes={
            "lps": list(range(1, 2501)),
            "accuracy": [0.9, 0.99],
            "embedding_mode": ["online", "offline"],
        },
        name="perf-dist",
    )
    return lambda: distributed_study(spec, 250), (
        "distributed study, 10000 points over 40 leased shards, 1 in-process "
        "worker, hash-verified pushes"
    )


def _aspen_sweep(check: bool):
    from repro.backends import get

    # The aspen backend's batched sweep: Stages 1 and 3 through the
    # compiled LPS closures, Stage 2 evaluated once per config.  The
    # backend instance is shared, so compile cost amortizes exactly as it
    # does in study runs; the first warmup call pays it.
    backend = get("aspen")
    config = {"accuracy": 0.99, "success": 0.75}
    points = list(range(1, 51 if check else 2001))
    calls = 1 if check else 10

    def op():
        for _ in range(calls):
            backend.sweep(config, points)

    return op, (
        f"aspen backend sweep, {len(points)} LPS points, {calls} calls "
        f"(compiled listings)"
    )


def _service_roundtrip(check: bool):
    import itertools
    import shutil
    import tempfile

    from repro.service import StudyServer, StudyServiceClient
    from repro.studies import ScenarioSpec

    # One client round trip (submit, wait, fetch) through an in-process
    # server whose StudyCache already holds every shard: each call submits
    # a renamed copy of the warmed grid, so the job is a fresh one served
    # wholly from cache, and what is timed is the service path itself —
    # HTTP, the job queue, cache load, encode and the completion wait.
    lps = range(1, 11) if check else range(1, 501)
    axes = {
        "lps": list(lps),
        "accuracy": [0.9, 0.99],
        "embedding_mode": ["online", "offline"],
    }
    names = itertools.count()
    cache_dir = tempfile.mkdtemp(prefix="perf-service-")
    server = StudyServer(cache=cache_dir).start()
    client = StudyServiceClient(server.url)

    def round_trip():
        spec = ScenarioSpec(axes=axes, name=f"perf-roundtrip-{next(names)}")
        return client.run(spec, timeout=60.0)

    def op():
        assert round_trip().served_from_cache

    def close():
        server.stop()
        shutil.rmtree(cache_dir, ignore_errors=True)

    try:
        round_trip()  # computes every shard into the cache
    except BaseException:
        close()
        raise
    points = 4 * len(lps)
    return op, (
        f"service round trip, {points}-point closed_form grid, cache-warm, "
        f"in-process StudyServer{' (check)' if check else ''}"
    ), close


def _artifact_encode(check: bool):
    from repro.studies import ScenarioSpec, run_study

    lps = range(1, 21) if check else range(1, 2251)
    spec = ScenarioSpec(
        axes={
            "lps": list(lps),
            "accuracy": [0.9, 0.99],
            "embedding_mode": ["online", "offline"],
        },
        name="perf-encode",
    )
    results = run_study(spec)

    def op():
        results.artifact_bytes()

    return op, (
        f"artifact_bytes of a {spec.num_points}-point closed_form study"
        f"{' (check)' if check else ''}"
    )


KERNELS = {
    "sa_sample": _sa_sample,
    "energies": _energies,
    "brute_force": _brute_force,
    "embed": _embed,
    "sweep": _sweep,
    "aspen_models": _aspen_models,
    "aspen_sweep": _aspen_sweep,
    "study": _study,
    "study_contended": _study_contended,
    "study_faulted": _study_faulted,
    "study_distributed": _study_distributed,
    "service_roundtrip": _service_roundtrip,
    "artifact_encode": _artifact_encode,
}


# --------------------------------------------------------------------- #
# Runner
# --------------------------------------------------------------------- #
def _time(op, repeats: int) -> tuple[float, float]:
    """Best and median wall-clock seconds over ``repeats`` runs (1 warmup)."""
    op()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        op()
        samples.append(time.perf_counter() - t0)
    return min(samples), statistics.median(samples)


def run(check: bool = False, repeats: int = 5) -> dict:
    """Execute every kernel and return the ``BENCH_PERF.json`` report dict."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    kernels = {}
    for name, factory in KERNELS.items():
        # A kernel that holds resources (a server, a temp dir) returns a
        # third element: the teardown to run once it has been timed.
        op, workload, *teardown = factory(check)
        try:
            if check:
                t0 = time.perf_counter()
                op()
                best = median = time.perf_counter() - t0
                reps = 1
            else:
                best, median = _time(op, repeats)
                reps = repeats
        finally:
            for close in teardown:
                close()
        seed = SEED_BASELINE_SECONDS.get(name) if not check else None
        kernels[name] = {
            "seconds": best,
            "median_seconds": median,
            "repeats": reps,
            "workload": workload,
            "seed_seconds": seed,
            "speedup_vs_seed": (seed / best) if seed else None,
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": "check" if check else "full",
        "created_unix": time.time(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "kernels": kernels,
    }


def validate_report(report: dict) -> None:
    """Raise ``ValueError`` unless ``report`` matches the BENCH_PERF schema."""
    if not isinstance(report, dict):
        raise ValueError("report must be a JSON object")
    for key, typ in (
        ("schema_version", int),
        ("mode", str),
        ("created_unix", (int, float)),
        ("python", str),
        ("numpy", str),
        ("platform", str),
        ("kernels", dict),
    ):
        if key not in report:
            raise ValueError(f"missing top-level key {key!r}")
        if not isinstance(report[key], typ):
            raise ValueError(f"key {key!r} must be {typ}, got {type(report[key])}")
    if report["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"schema_version must be {SCHEMA_VERSION}")
    if report["mode"] not in ("full", "check"):
        raise ValueError(f"mode must be 'full' or 'check', got {report['mode']!r}")
    kernels = report["kernels"]
    if len(kernels) < 5:
        raise ValueError(f"expected >= 5 named kernels, got {sorted(kernels)}")
    for name, entry in kernels.items():
        if not isinstance(entry, dict):
            raise ValueError(f"kernel {name!r} entry must be an object")
        for key, typ in (
            ("seconds", (int, float)),
            ("median_seconds", (int, float)),
            ("repeats", int),
            ("workload", str),
        ):
            if key not in entry:
                raise ValueError(f"kernel {name!r} missing {key!r}")
            if not isinstance(entry[key], typ):
                raise ValueError(f"kernel {name!r} key {key!r} has wrong type")
        if entry["seconds"] <= 0 or entry["median_seconds"] <= 0:
            raise ValueError(f"kernel {name!r} timings must be positive")
        for key in ("seed_seconds", "speedup_vs_seed"):
            if key not in entry:
                raise ValueError(f"kernel {name!r} missing {key!r}")
            if entry[key] is not None and not isinstance(entry[key], (int, float)):
                raise ValueError(f"kernel {name!r} key {key!r} has wrong type")


def _format_report(report: dict) -> str:
    lines = [f"{'kernel':<12} {'seconds':>12} {'vs seed':>9}  workload"]
    for name, e in report["kernels"].items():
        speedup = f"{e['speedup_vs_seed']:.2f}x" if e["speedup_vs_seed"] else "-"
        lines.append(f"{name:<12} {e['seconds']:>12.6f} {speedup:>9}  {e['workload']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.perf_harness", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="smoke mode: run each kernel once on a tiny workload and "
        "validate the report schema without writing BENCH_PERF.json",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="timing repetitions per kernel (full mode)"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help=f"output path (default: {DEFAULT_OUTPUT}; ignored in --check mode)",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error(f"--repeats must be >= 1, got {args.repeats}")

    report = run(check=args.check, repeats=args.repeats)
    validate_report(report)
    print(_format_report(report))
    if args.check:
        print("perf_harness --check: schema OK, nothing written")
        return 0
    output = args.output or DEFAULT_OUTPUT
    output.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
