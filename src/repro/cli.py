"""Command-line interface: ``python -m repro.cli <command>``.

Nine commands cover the everyday uses of the library:

* ``predict`` — stage-resolved time-to-solution from the performance models
  (the paper's Fig. 9 numbers for one operating point);
* ``solve``   — run a random problem through the simulated device end to end;
* ``embed``   — minor-embed a random graph and report chain statistics;
* ``fig9``    — print the three Fig. 9 series from the ASPEN artifacts;
* ``study``   — evaluate a declarative parameter-space study (a whole grid
  of operating points) through the sharded executor, write the results
  artifact, and print the dominance/scaling summary;
* ``serve``   — run the study job service (:mod:`repro.service`): an HTTP
  server accepting spec submissions and serving byte-stable artifacts;
* ``submit``  — send a study to a running service, wait for it, and write
  the served artifact (byte-identical to a local ``study`` of the same
  spec);
* ``coordinate`` — ``serve`` with distributed shard dispatch: submitted
  studies are leased shard-by-shard to pulled ``worker`` processes (with
  an inline-drain liveness fallback), and the artifact stays
  byte-identical to every other topology;
* ``worker``  — one shard worker pulling leases from a ``coordinate``
  server, evaluating them through the backend registry, and pushing
  content-hash-verified shard bytes back.

``predict``, ``fig9``, and ``study`` accept ``--backend``: any name from
the performance-backend registry (:mod:`repro.backends`) — for ``study``
a comma list forming a grid axis, so one command sweeps the closed forms,
the ASPEN listings, and the DES runtime side by side.  ``study --cache``
and ``serve --cache`` point at a content-addressed shard store that
repeated runs (local or served) reuse.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Split-execution performance models (Humble et al., 2016)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="stage-resolved time-to-solution")
    p.add_argument("--lps", type=int, default=50, help="logical problem size")
    p.add_argument("--accuracy", type=float, default=0.99, help="target accuracy pa")
    p.add_argument("--success", type=float, default=0.7, help="single-run success ps")
    p.add_argument(
        "--embedding-mode",
        choices=("online", "offline"),
        default="online",
        help="inline CMR embedding vs precomputed lookup table",
    )
    p.add_argument(
        "--backend",
        type=str,
        default="closed_form",
        help="performance backend (registry name: closed_form, aspen, des, "
        "calibrated, learned, ...)",
    )

    p = sub.add_parser("solve", help="solve an Ising problem on the simulated QPU")
    p.add_argument("--file", type=str, default=None,
                   help="COO problem file (see repro.qubo.io); random problem if omitted")
    p.add_argument("--spins", type=int, default=8, help="random-problem size")
    p.add_argument("--reads", type=int, default=100, help="annealing reads")
    p.add_argument("--cells", type=int, default=4, help="Chimera lattice is cells x cells")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("embed", help="CMR-embed a random graph and report statistics")
    p.add_argument("--vertices", type=int, default=16)
    p.add_argument("--density", type=float, default=0.3, help="edge probability")
    p.add_argument("--cells", type=int, default=12, help="Chimera lattice is cells x cells")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("fig9", help="print the Fig. 9 series from the ASPEN models")
    p.add_argument("--max-lps", type=int, default=100)
    p.add_argument(
        "--backend",
        type=str,
        default="aspen",
        help="performance backend evaluating the series (default: the ASPEN "
        "artifacts; closed_form/des use the library defaults pa=0.99, ps=0.7)",
    )

    p = sub.add_parser(
        "study",
        help="evaluate a parameter-space study over the performance models",
        description="Evaluate a cartesian grid of operating points through the "
        "sharded study executor.  Describe the grid either with a JSON spec "
        "file (--spec) or inline axis flags; axis flags accept comma lists "
        "(0.9,0.99) and, for --lps, start:stop[:step] ranges.",
    )
    _add_spec_flags(p)
    p.add_argument("--workers", type=int, default=1, help="executor process count")
    p.add_argument("--shard-size", type=int, default=None,
                   help="points per shard (fixes the shard grid; see DESIGN.md)")
    p.add_argument("--scalar", action="store_true",
                   help="force the scalar reference loop instead of sweep_arrays")
    p.add_argument("--out", type=str, default=None,
                   help="write the results artifact JSON here")
    p.add_argument("--cache", type=str, default=None,
                   help="content-addressed shard cache directory; repeated "
                   "studies over the same grid reuse stored shards")
    p.add_argument("--no-summary", action="store_true", help="skip the summary tables")

    p = sub.add_parser(
        "serve",
        help="run the study job service (HTTP server over the study executor)",
        description="Serve POST /studies, GET /studies/<id>[/artifact], "
        "GET /backends, and GET /healthz on a ThreadingHTTPServer.  Served "
        "artifacts are byte-identical to a local `study` run of the same "
        "spec; identical grids deduplicate onto one content-hash job id.",
    )
    _add_serve_flags(p)

    p = sub.add_parser(
        "coordinate",
        help="run the study service with distributed shard dispatch",
        description="A `serve` whose jobs are executed by leasing shards to "
        "pulled `worker` processes over POST /distributed/lease|push|fail.  "
        "Leases expire and requeue (a SIGKILLed worker costs nothing but "
        "time), pushed bytes are verified against their content hash before "
        "acceptance, and with no workers attached shards drain inline — the "
        "served artifact is byte-identical in every topology.",
    )
    _add_serve_flags(p)
    p.add_argument("--scheduler", type=str, default="static",
                   choices=("static", "work-stealing", "size-aware"),
                   help="default shard dispatch strategy (a spec pinning its "
                   "scheduler axis to one value overrides this per study)")
    p.add_argument("--lease-ttl", type=float, default=30.0,
                   help="seconds a shard lease lives before the coordinator "
                   "requeues it (the crash-recovery clock)")

    p = sub.add_parser(
        "worker",
        help="run one shard worker against a `coordinate` server",
        description="Pull shard leases from a coordinator, evaluate them "
        "through the backend registry, and push content-hash-verified shard "
        "bytes back.  Workers are stateless between pulls; run as many as "
        "you like, kill any of them freely.",
    )
    p.add_argument("--coordinator", type=str, required=True,
                   help="base URL of the coordinator (e.g. http://127.0.0.1:8321)")
    p.add_argument("--id", type=str, default=None,
                   help="worker identity for attribution (default: worker-<pid>)")
    p.add_argument("--poll", type=float, default=0.2,
                   help="seconds between empty lease pulls")
    p.add_argument("--max-idle", type=float, default=None,
                   help="exit after this many idle seconds (default: run until "
                   "the coordinator goes away)")
    p.add_argument("--max-shards", type=int, default=None,
                   help="exit after completing this many shards")

    p = sub.add_parser(
        "submit",
        help="submit a study to a running service and fetch its artifact",
        description="Send a ScenarioSpec (same --spec/axis flags as `study`) "
        "to a study service, wait for the job to finish, and write the "
        "served artifact — byte-identical to running `study` locally.",
    )
    p.add_argument("--url", type=str, required=True,
                   help="base URL of the service (e.g. http://127.0.0.1:8321)")
    _add_spec_flags(p)
    p.add_argument("--out", type=str, default=None,
                   help="write the served artifact JSON here")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="seconds to wait for the job before giving up")
    p.add_argument("--poll", type=float, default=0.1,
                   help="minimum seconds between two status reads of an unfinished "
                   "job (completion itself is long-polled, not polled)")
    p.add_argument("--retries", type=int, default=2,
                   help="transient-failure retries per request (connection resets, "
                   "5xx, 429); safe because job ids are content hashes")

    return parser


def _add_serve_flags(p: argparse.ArgumentParser) -> None:
    """The server-shaping flags shared by ``serve`` and ``coordinate``."""
    p.add_argument("--host", type=str, default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=8321,
                   help="bind port (0 picks an ephemeral port and prints it)")
    p.add_argument("--cache", type=str, default=None,
                   help="content-addressed shard cache directory shared by all jobs")
    p.add_argument("--queue-size", type=int, default=64,
                   help="bounded job-queue capacity (full queue rejects with 429)")
    p.add_argument("--job-workers", type=int, default=2,
                   help="worker threads executing queued studies")
    p.add_argument("--executor-workers", type=int, default=1,
                   help="run_study process count per job")
    p.add_argument("--shard-size", type=int, default=None,
                   help="points per shard for every served job (part of job identity)")
    p.add_argument("--journal", type=str, default=None,
                   help="append-only JSONL job journal; a restarted server replays "
                   "it to re-serve finished grids and complete interrupted jobs")
    p.add_argument("--quiet", action="store_true", help="suppress per-request log lines")


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    """The ScenarioSpec-shaping flags shared by ``study`` and ``submit``."""
    p.add_argument("--spec", type=str, default=None, help="JSON ScenarioSpec file")
    p.add_argument("--name", type=str, default=None, help="study label for the artifact")
    p.add_argument("--lps", type=str, default=None,
                   help="LPS axis: comma list or start:stop[:step] range (e.g. 1:101)")
    p.add_argument("--accuracy", type=str, default=None, help="accuracy axis (comma list)")
    p.add_argument("--success", type=str, default=None, help="success axis (comma list)")
    p.add_argument("--embedding-mode", type=str, default=None,
                   help="embedding-mode axis: online, offline, or online,offline")
    p.add_argument("--backend", type=str, default=None,
                   help="backend axis: comma list of registry names "
                   "(e.g. closed_form,aspen,des,calibrated,learned)")
    p.add_argument("--scheduler", type=str, default=None,
                   help="scheduler axis: comma list of dispatch strategies "
                   "(static, work-stealing, size-aware); adds the simulated "
                   "per-shard latency/steal columns for each strategy")
    p.add_argument("--queue-policy", type=str, default=None,
                   help="queue-policy axis: comma list of annealer queue "
                   "disciplines (fifo, priority, round-robin); contended-"
                   "traffic axes need the des backend")
    p.add_argument("--sessions", type=str, default=None,
                   help="sessions axis: comma list of concurrent closed-"
                   "population session counts (des backend)")
    p.add_argument("--arrival-rate", type=str, default=None,
                   help="arrival-rate axis: comma list of open Poisson "
                   "arrival rates in requests/s (des backend)")
    p.add_argument("--anneal-us", type=str, default=None,
                   help="QPU anneal-duration axis in us (comma list)")
    p.add_argument("--clock-hz", type=str, default=None, help="host clock axis (comma list)")
    p.add_argument("--mc-trials", type=int, default=None,
                   help="Monte-Carlo ensembles per point (0 disables the column)")
    p.add_argument("--seed", type=int, default=None, help="root seed for the MC streams")


def _cmd_predict(args: argparse.Namespace) -> int:
    from .core import SplitExecutionModel, format_seconds
    from .exceptions import ValidationError

    if args.backend == "closed_form":
        # The closed forms expose the full per-contribution breakdown.
        model = SplitExecutionModel(embedding_mode=args.embedding_mode)
        t = model.time_to_solution(args.lps, args.accuracy, args.success)
        print(f"split-execution prediction (LPS={args.lps}, pa={args.accuracy}, "
              f"ps={args.success}, embedding={args.embedding_mode}):")
        print(f"  stage 1 (classical pre-processing): {format_seconds(t.stage1_seconds)}")
        print(f"    - embedding computation : {format_seconds(t.stage1.embedding_flops)}")
        print(f"    - processor programming : {format_seconds(t.stage1.processor_initialize)}")
        print(f"  stage 2 (quantum execution, {t.stage2.repetitions} reads): "
              f"{format_seconds(t.stage2_seconds)}")
        print(f"  stage 3 (post-processing)         : {format_seconds(t.stage3_seconds)}")
        print(f"  total                             : {format_seconds(t.total_seconds)}")
        print(f"  dominant stage                    : {t.dominant_stage}")
        if t.stage2_seconds > 0:
            print(f"  quantum fraction                  : {t.quantum_fraction:.3e}")
        return 0

    # Any other registered backend: the shared stage-total surface.
    from . import backends

    try:
        backend = backends.get(args.backend)
        t = backend.evaluate(
            backends.full_point(
                lps=args.lps,
                accuracy=args.accuracy,
                success=args.success,
                embedding_mode=args.embedding_mode,
            )
        )
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"split-execution prediction (LPS={args.lps}, pa={args.accuracy}, "
          f"ps={args.success}, embedding={args.embedding_mode}, "
          f"backend={args.backend}):")
    print(f"  stage 1 (classical pre-processing): {format_seconds(t.stage1_s)}")
    print(f"  stage 2 (quantum execution, {t.repetitions} reads): "
          f"{format_seconds(t.stage2_s)}")
    print(f"  stage 3 (post-processing)         : {format_seconds(t.stage3_s)}")
    print(f"  total                             : {format_seconds(t.total_seconds)}")
    print(f"  dominant stage                    : {t.dominant_stage}")
    if t.stage2_s > 0:
        print(f"  quantum fraction                  : {t.quantum_fraction:.3e}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    from .annealer import DWaveDevice, ExactSolver
    from .core import format_seconds
    from .hardware import ChimeraTopology
    from .qubo import Qubo, load_problem, qubo_to_ising, random_ising

    if args.file:
        loaded = load_problem(args.file)
        problem = qubo_to_ising(loaded) if isinstance(loaded, Qubo) else loaded
        origin = f"loaded from {args.file}"
    else:
        problem = random_ising(args.spins, rng=args.seed)
        origin = "random Ising"
    device = DWaveDevice(topology=ChimeraTopology(args.cells, args.cells, 4))
    t0 = time.perf_counter()
    result = device.solve_ising(problem, num_reads=args.reads, rng=args.seed)
    wall = time.perf_counter() - t0
    print(f"problem: {origin}, {problem.num_spins} spins")
    print(f"best energy found : {result.best_energy:.6g}")
    if problem.num_spins <= 20:
        exact = ExactSolver().ground_energy(problem)
        gap = result.best_energy - exact
        print(f"exact ground      : {exact:.6g}  (gap {gap:.3g})")
    emb = result.embedded.embedding
    print(f"embedding         : {emb.num_physical} qubits, max chain {emb.max_chain_length}")
    print(f"chain breaks      : {result.chain_break_fraction:.2%}")
    print(f"device-model time : {format_seconds(result.timing.total_s)}")
    print(f"wall-clock time   : {format_seconds(wall)}")
    return 0


def _cmd_embed(args: argparse.Namespace) -> int:
    import networkx as nx

    from .core import format_seconds
    from .embedding import find_embedding_cmr, verify_embedding
    from .hardware import ChimeraTopology

    graph = nx.gnp_random_graph(args.vertices, args.density, seed=args.seed)
    topo = ChimeraTopology(args.cells, args.cells, 4)
    hardware = topo.graph()
    t0 = time.perf_counter()
    emb, diag = find_embedding_cmr(graph, hardware, rng=args.seed, return_diagnostics=True)
    wall = time.perf_counter() - t0
    verify_embedding(emb, graph, hardware)
    print(f"source: G({args.vertices}, {args.density}) with {graph.number_of_edges()} edges")
    print(f"target: C({args.cells},{args.cells},4) with {topo.num_qubits} qubits")
    print(f"embedding found in {format_seconds(wall)} "
          f"({diag.tries} tries, {diag.evaluations} vertex-model evaluations)")
    print(f"  physical qubits : {emb.num_physical}")
    print(f"  max chain       : {emb.max_chain_length}")
    print(f"  mean chain      : {emb.num_physical / max(emb.num_logical, 1):.2f}")
    return 0


def _cmd_fig9(args: argparse.Namespace) -> int:
    from .core import format_seconds, format_table
    from .exceptions import ValidationError

    sizes = [n for n in (1, 2, 5, 10, 20, 30, 50, 75, 100) if n <= args.max_lps]
    accuracies = (50.0, 90.0, 99.0, 99.9, 99.99)

    if args.backend == "aspen":
        # The paper's artifacts, evaluated with the listings' own defaults
        # (Stage 3 uses the Fig.-8 listing's Success=0.75).
        from .core import AspenStageModels

        aspen = AspenStageModels()
        stage13_rows = [
            [n, format_seconds(aspen.stage1_seconds(n)),
             format_seconds(aspen.stage3_seconds(n))] for n in sizes
        ]
        stage2_rows = [
            [f"{a}%", format_seconds(aspen.stage2_seconds(a, 0.7))] for a in accuracies
        ]
    else:
        from . import backends

        try:
            backend = backends.get(args.backend)
            stage13_rows = []
            for n in sizes:
                t = backend.evaluate(backends.full_point(lps=n))
                stage13_rows.append(
                    [n, format_seconds(t.stage1_s), format_seconds(t.stage3_s)]
                )
            stage2_rows = []
            for a in accuracies:
                t = backend.evaluate(backends.full_point(accuracy=a / 100.0))
                stage2_rows.append([f"{a}%", format_seconds(t.stage2_s)])
        except ValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"backend: {args.backend}")
        print()

    print(format_table(
        ["LPS", "stage 1", "stage 3"],
        stage13_rows,
        title="Fig. 9(a)/(c): stage 1 and stage 3 vs problem size",
    ))
    print()
    print(format_table(
        ["accuracy", "stage 2 (ps=0.7)"],
        stage2_rows,
        title="Fig. 9(b): stage 2 vs accuracy",
    ))
    return 0


class _StudyArgError(Exception):
    """A user-input error in the study command (reported as 'error: ...', exit 2)."""


def _parse_lps_axis(text: str) -> list[int]:
    """``start:stop[:step]`` range (half-open, like Python) or comma list."""
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) not in (2, 3):
                raise _StudyArgError(
                    f"bad --lps range {text!r}; expected start:stop[:step]"
                )
            start, stop = int(parts[0]), int(parts[1])
            step = int(parts[2]) if len(parts) == 3 else 1
            if step < 1 or stop < start:
                raise _StudyArgError(f"bad --lps range {text!r}")
            return list(range(start, stop, step))
        return [int(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise _StudyArgError(f"bad --lps value {text!r}: {exc}") from exc


def _parse_float_axis(flag: str, text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise _StudyArgError(f"bad {flag} value {text!r}: {exc}") from exc


def _build_study_spec(args: argparse.Namespace):
    from .exceptions import ValidationError
    from .studies import ScenarioSpec

    if args.spec:
        try:
            payload = ScenarioSpec.from_file(args.spec).to_dict()
        except OSError as exc:
            raise _StudyArgError(f"cannot read spec file {args.spec}: {exc}") from exc
        except ValidationError as exc:
            raise _StudyArgError(str(exc)) from exc
    else:
        payload = {"name": "study", "axes": {}, "mc_trials": 0, "seed": 0}
    axes = payload["axes"]
    # Inline flags refine (or fully define) the spec.
    if args.lps is not None:
        axes["lps"] = _parse_lps_axis(args.lps)
    if args.accuracy is not None:
        axes["accuracy"] = _parse_float_axis("--accuracy", args.accuracy)
    if args.success is not None:
        axes["success"] = _parse_float_axis("--success", args.success)
    if args.embedding_mode is not None:
        axes["embedding_mode"] = [v for v in args.embedding_mode.split(",") if v]
    if args.backend is not None:
        axes["backend"] = [v for v in args.backend.split(",") if v]
    if args.scheduler is not None:
        axes["scheduler"] = [v for v in args.scheduler.split(",") if v]
    if args.queue_policy is not None:
        axes["queue_policy"] = [v for v in args.queue_policy.split(",") if v]
    if args.sessions is not None:
        try:
            axes["sessions"] = [int(v) for v in args.sessions.split(",") if v]
        except ValueError as exc:
            raise _StudyArgError(f"bad --sessions value {args.sessions!r}: {exc}") from exc
    if args.arrival_rate is not None:
        axes["arrival_rate"] = _parse_float_axis("--arrival-rate", args.arrival_rate)
    if args.anneal_us is not None:
        axes["anneal_us"] = _parse_float_axis("--anneal-us", args.anneal_us)
    if args.clock_hz is not None:
        axes["clock_hz"] = _parse_float_axis("--clock-hz", args.clock_hz)
    if args.name is not None:
        payload["name"] = args.name
    if args.mc_trials is not None:
        payload["mc_trials"] = args.mc_trials
    if args.seed is not None:
        payload["seed"] = args.seed
    if not axes and not args.spec:
        # A spec file with empty axes is a valid single-point study; with
        # neither file nor flags there is nothing to run.
        raise _StudyArgError("no axes given; pass --spec or at least one axis flag")
    try:
        return ScenarioSpec.from_dict(payload)
    except ValidationError as exc:
        raise _StudyArgError(str(exc)) from exc


def _cmd_study(args: argparse.Namespace) -> int:
    from .exceptions import ValidationError
    from .studies import StudyCache, run_study, study_summary
    from .studies.executor import DEFAULT_SHARD_SIZE

    shard_size = DEFAULT_SHARD_SIZE if args.shard_size is None else args.shard_size
    cache = StudyCache(args.cache) if args.cache else None
    try:
        spec = _build_study_spec(args)
        t0 = time.perf_counter()
        results = run_study(
            spec,
            workers=args.workers,
            shard_size=shard_size,
            vectorize=not args.scalar,
            cache=cache,
        )
    except (_StudyArgError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - t0

    if not args.no_summary:
        print(study_summary(results))
        print()
    print(f"evaluated {results.num_points} points "
          f"(workers={args.workers}, shard_size={shard_size}, "
          f"{'scalar' if args.scalar else 'vectorized'})")
    if cache is not None:
        print(f"cache: served {cache.hits}/{cache.requests} shards from cache")
    print(f"elapsed: {wall:.3f} s")
    if args.out:
        path = results.save(args.out)
        print(f"wrote {path}")
    return 0


def _cmd_serve(args: argparse.Namespace, distributed: bool = False) -> int:
    from .backends import available_backends
    from .service import StudyServer
    from .studies.executor import DEFAULT_SHARD_SIZE

    server = StudyServer(
        host=args.host,
        port=args.port,
        cache=args.cache,
        queue_size=args.queue_size,
        job_workers=args.job_workers,
        executor_workers=args.executor_workers,
        shard_size=DEFAULT_SHARD_SIZE if args.shard_size is None else args.shard_size,
        journal=args.journal,
        log=None if args.quiet else lambda line: print(line, file=sys.stderr, flush=True),
        distributed=distributed,
        scheduler=getattr(args, "scheduler", None) or "static",
        lease_ttl_s=getattr(args, "lease_ttl", 30.0),
    )
    # Flushed eagerly so wrappers (the CI smoke) can scrape the bound port
    # even when stdout is a pipe.
    role = "shard coordinator" if distributed else "study service"
    print(f"{role} listening on {server.url}", flush=True)
    print(f"  backends: {', '.join(available_backends())}", flush=True)
    print(f"  cache: {args.cache if args.cache else 'none (in-process job dedup only)'}",
          flush=True)
    print(f"  queue: {args.queue_size} jobs, {args.job_workers} workers", flush=True)
    if distributed:
        print(f"  dispatch: {server.coordinator.default_scheduler.name} scheduling, "
              f"{server.coordinator.lease_ttl_s:g}s lease TTL", flush=True)
    if args.journal:
        print(f"  journal: {args.journal} "
              f"({server.manager.recovered_jobs} job(s) recovered)", flush=True)
    server.run_forever()
    return 0


def _cmd_coordinate(args: argparse.Namespace) -> int:
    return _cmd_serve(args, distributed=True)


def _cmd_worker(args: argparse.Namespace) -> int:
    from .distributed.worker import HttpCoordinatorTransport, ShardWorker
    from .exceptions import DistributedError, PushRejected

    worker = ShardWorker(
        HttpCoordinatorTransport(args.coordinator),
        worker_id=args.id,
        poll_s=args.poll,
        max_idle_s=args.max_idle,
        exit_on_death=True,  # injected deaths look like SIGKILL, as intended
    )
    print(f"worker {worker.worker_id} pulling from {args.coordinator}", flush=True)
    try:
        stats = worker.run(max_shards=args.max_shards)
    except KeyboardInterrupt:
        stats = worker.stats
    except PushRejected as exc:
        # The coordinator refused this worker's bytes: a fault in the
        # worker, not the end of the coordinator.
        print(f"push rejected: {exc}", file=sys.stderr, flush=True)
        return 1
    except DistributedError as exc:
        # The coordinator going away is this process's natural end of life,
        # not a crash: report and exit cleanly.
        print(f"coordinator gone: {exc}", file=sys.stderr, flush=True)
        stats = worker.stats
    print(f"worker {worker.worker_id} done: "
          f"{stats.shards_completed} shard(s) over {stats.pulls} pull(s), "
          f"{stats.eval_failures} eval failure(s), "
          f"{stats.pull_faults + stats.push_faults} transport fault(s)", flush=True)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service import ServiceError, StudyServiceClient

    client = StudyServiceClient(args.url, retries=args.retries)
    try:
        spec = _build_study_spec(args)
    except _StudyArgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        submitted = client.submit(spec)
        job_id = submitted["job_id"]
        print(f"submitted {spec.name!r} to {args.url}: job {job_id}")
        if submitted["deduplicated"]:
            print("job: deduplicated (grid already known to the service)")
        print(f"grid: {submitted['num_points']} points, "
              f"{submitted['progress']['shards_total']} shard(s)")
        snapshot = client.wait(job_id, timeout=args.timeout, poll_interval=args.poll)
        progress = snapshot["progress"]
        print(f"state: {snapshot['state']} ({progress['shards_done']}/"
              f"{progress['shards_total']} shards, "
              f"{progress['shards_from_cache']} from cache)")
        if snapshot["state"] == "failed":
            error = snapshot.get("error") or {}
            print(f"error: [{error.get('code')}] {error.get('message')}", file=sys.stderr)
            return 1
        artifact = client.artifact(job_id)
    except ServiceError as exc:
        print(f"error: [{exc.code}] {exc.message}", file=sys.stderr)
        return 2
    print(f"artifact: {len(artifact.body)} bytes, "
          f"served-from-cache={'true' if artifact.served_from_cache else 'false'}")
    if args.out:
        from pathlib import Path

        Path(args.out).write_bytes(artifact.body)
        print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "predict": _cmd_predict,
    "solve": _cmd_solve,
    "embed": _cmd_embed,
    "fig9": _cmd_fig9,
    "study": _cmd_study,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "coordinate": _cmd_coordinate,
    "worker": _cmd_worker,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
