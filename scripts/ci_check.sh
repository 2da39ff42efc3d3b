#!/usr/bin/env bash
# The repo's one-command verification gate.
#
#   ./scripts/ci_check.sh          # tier-1 + stress reruns + examples + perf smoke
#                                  #   + traced perfbench smoke + cache smoke
#                                  #   + service smoke + coverage
#   ./scripts/ci_check.sh --fast   # everything except the coverage gate
#
# Coverage: the floor below is enforced whenever the gate runs.  It is
# measured by scripts/linecov.py, a standard-library pytest plugin (no
# pytest-cov, no network), so the gate runs in any container that can run
# the tests.  `--fast` is the only way to skip the gate.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Recorded coverage floor (line coverage of src/repro under the tier-1
# suite).  Raise it as coverage grows; never lower it to make a PR pass.
COVERAGE_FLOOR=85

# start_service LOG NAME CMD...: run CMD in the background with its output
# in LOG and wait until it prints its bound URL.  Sets BG_PID and BG_URL;
# fails the gate (naming the process NAME) if CMD exits first or never
# reports a URL.
start_service() {
    local log="$1" name="$2"
    shift 2
    "$@" > "$log" 2>&1 &
    BG_PID=$!
    BG_URL=""
    for _ in $(seq 1 100); do
        BG_URL="$(grep -oE 'http://[0-9.]+:[0-9]+' "$log" | head -1 || true)"
        [[ -n "$BG_URL" ]] && return 0
        kill -0 "$BG_PID" 2>/dev/null || {
            echo "ERROR: $name exited during startup:" >&2
            cat "$log" >&2; exit 1; }
        sleep 0.1
    done
    echo "ERROR: $name never reported its URL:" >&2
    cat "$log" >&2
    kill "$BG_PID" 2>/dev/null || true
    exit 1
}

echo "== bytecode compile gate =="
# Every module under src/ must at least compile: import-time syntax errors
# in rarely-exercised corners fail here, before any test tier runs.
python -m compileall -q src

echo
echo "== code-line count (informational, not a gate) =="
# The tokenize count PRs quote for src/repro: comment, blank and docstring
# lines excluded.  `python scripts/codelines.py src/repro` lists every file.
echo "src/repro: $(python scripts/codelines.py --total src/repro) code lines"

echo
echo "== tier-1 test suite =="
python -m pytest -x -q

echo
echo "== paper-figure bench import gate =="
# testpaths=tests and pytest's default file pattern keep benchmarks/bench_*.py
# out of every test tier, so collect them explicitly: a bench that imports a
# removed or renamed name fails here instead of passing silently.
python -m pytest --collect-only -q -o addopts="" benchmarks/bench_*.py

echo
echo "== concurrency stress tier (distributed + faults, 5 reruns) =="
# The shard engine's execution paths race worker threads, lease expiry and stall
# detection; one green run proves little.  Rerun the markers that cover
# them and fail on the first failing run.
STRESS_RUNS=5
for run in $(seq 1 "$STRESS_RUNS"); do
    echo "-- stress run $run/$STRESS_RUNS --"
    python -m pytest -q -m "distributed or faults" || {
        echo "ERROR: stress run $run/$STRESS_RUNS failed" >&2; exit 1; }
done

echo
echo "== examples smoke tier =="
# Every script under examples/ runs in-process (tests/test_examples_smoke.py);
# the tier is deselected from the default run, so invoke its marker explicitly.
python -m pytest -q -m examples

echo
echo "== perf-harness smoke (--check) =="
python -m benchmarks.perf_harness --check

echo
echo "== traced service benchmark smoke (perfbench, grid_warm + grid_cold + fleet) =="
# perfbench's timing shims wrap service callables by name and call shape
# (StudyServiceClient.status, JobManager._run_job, ...); a src/ change that
# breaks that contract fails the traced run's zero-call and ledger checks.
# grid_cold is the workload that requires the executor's spec.decode and
# scheduler.shard_schedule layers; grid_warm requires neither.  fleet is the
# one that runs through ShardCoordinator (register_study, wait, push) and
# the worker transport (lease, push), and fails if the coordinator drains
# any shard inline instead of leasing it to the attached worker.
python3 perfbench/run.py --workload grid_warm --seed 1 --seconds 2 --trace 1
python3 perfbench/run.py --workload grid_cold --seed 1 --seconds 2 --trace 1
python3 perfbench/run.py --workload fleet --seed 1 --seconds 2 --trace 1

echo
echo "== study-cache correctness smoke =="
# The same tiny three-backend study twice against one cache: the second
# run must be served entirely from cache and produce byte-identical bytes.
CACHE_SCRATCH="$(mktemp -d)"
trap 'rm -rf "$CACHE_SCRATCH"' EXIT
run_cached_study() {
    python -m repro.cli study \
        --lps 1:11 --accuracy 0.9,0.99 --backend closed_form,aspen,des \
        --name ci-cache-smoke --no-summary \
        --cache "$CACHE_SCRATCH/cache" --out "$1"
}
COLD_OUT="$(run_cached_study "$CACHE_SCRATCH/cold.json")"
echo "$COLD_OUT"
grep -q "cache: served 0/1 shards from cache" <<<"$COLD_OUT" || {
    echo "ERROR: cold study run unexpectedly hit the cache" >&2; exit 1; }
WARM_OUT="$(run_cached_study "$CACHE_SCRATCH/warm.json")"
echo "$WARM_OUT"
grep -q "cache: served 1/1 shards from cache" <<<"$WARM_OUT" || {
    echo "ERROR: warm study run was not served from the cache" >&2; exit 1; }
cmp "$CACHE_SCRATCH/cold.json" "$CACHE_SCRATCH/warm.json" || {
    echo "ERROR: cache-served artifact differs from the cold run" >&2; exit 1; }
echo "cache smoke: warm run byte-identical to cold run"

echo
echo "== study service smoke =="
# Start the job server on an ephemeral port, submit the small three-backend
# study through it, and hold the served artifact to the same standard as the
# cache smoke: byte-identical to a direct `cli study` of the same spec, with
# the second submission answered from the job table without re-execution.
start_service "$CACHE_SCRATCH/serve.log" "study service" \
    python -m repro.cli serve --port 0 --quiet \
    --cache "$CACHE_SCRATCH/service-cache"
SERVICE_PID=$BG_PID SERVICE_URL=$BG_URL
trap 'kill "$SERVICE_PID" 2>/dev/null || true; rm -rf "$CACHE_SCRATCH"' EXIT
submit_smoke_study() {
    python -m repro.cli submit --url "$SERVICE_URL" \
        --lps 1:11 --accuracy 0.9,0.99 --backend closed_form,aspen,des \
        --name ci-service-smoke --out "$1"
}
FIRST_SUBMIT="$(submit_smoke_study "$CACHE_SCRATCH/served.json")"
echo "$FIRST_SUBMIT"
python -m repro.cli study \
    --lps 1:11 --accuracy 0.9,0.99 --backend closed_form,aspen,des \
    --name ci-service-smoke --no-summary --out "$CACHE_SCRATCH/direct.json" > /dev/null
cmp "$CACHE_SCRATCH/served.json" "$CACHE_SCRATCH/direct.json" || {
    echo "ERROR: HTTP-served artifact differs from the direct run_study artifact" >&2
    exit 1; }
SECOND_SUBMIT="$(submit_smoke_study "$CACHE_SCRATCH/served2.json")"
echo "$SECOND_SUBMIT"
grep -q "deduplicated" <<<"$SECOND_SUBMIT" || {
    echo "ERROR: repeated submission was not deduplicated onto the cached job" >&2
    exit 1; }
cmp "$CACHE_SCRATCH/served.json" "$CACHE_SCRATCH/served2.json" || {
    echo "ERROR: cache-served artifact differs from the first submission" >&2
    exit 1; }
kill "$SERVICE_PID" 2>/dev/null || true
echo "service smoke: served artifact byte-identical to direct run, repeat cache-served"

echo
echo "== executor chaos smoke (REPRO_FAULTS) =="
# Chaos determinism gate: a run that suffers an injected transient shard
# failure AND an injected cache read error must still produce bytes
# identical to the fault-free run.  The cache is warmed first so the
# cache-read fault actually bites (forcing a recompute), and the recompute
# then trips the shard-eval fault (forcing a retry).
run_chaos_study() {
    python -m repro.cli study \
        --lps 1:11 --accuracy 0.9,0.99 --backend closed_form,aspen,des \
        --name ci-chaos-smoke --no-summary \
        --cache "$CACHE_SCRATCH/chaos-cache" --out "$1"
}
run_chaos_study "$CACHE_SCRATCH/chaos-clean.json" > /dev/null
REPRO_FAULTS='{"seed":0,"rules":[{"site":"shard-eval","keys":[0],"times":1},{"site":"cache-read","times":1}]}' \
    run_chaos_study "$CACHE_SCRATCH/chaos-faulted.json" > /dev/null
cmp "$CACHE_SCRATCH/chaos-clean.json" "$CACHE_SCRATCH/chaos-faulted.json" || {
    echo "ERROR: fault-injected study artifact differs from the fault-free run" >&2
    exit 1; }
echo "executor chaos: fault-injected artifact byte-identical to the clean run"

echo
echo "== service chaos smoke (journal + kill -9 + connection reset) =="
# Durability gate: a server with a journal is killed with SIGKILL after
# finishing a job; a restarted server over the same journal + cache must
# recover the job and re-serve its artifact byte-identically without
# re-executing anything.  The first server also injects one connection
# reset, which the client's default retry budget must absorb silently.
JOURNAL="$CACHE_SCRATCH/journal.jsonl"
CHAOS_LOG="$CACHE_SCRATCH/serve-chaos.log"
start_service "$CHAOS_LOG" "chaos study service" \
    env REPRO_FAULTS='{"rules":[{"site":"http-connection","times":1}]}' \
    python -m repro.cli serve --port 0 --quiet \
    --cache "$CACHE_SCRATCH/chaos-service-cache" --journal "$JOURNAL"
CHAOS_PID=$BG_PID CHAOS_URL=$BG_URL
trap 'kill "$SERVICE_PID" "$CHAOS_PID" 2>/dev/null || true; rm -rf "$CACHE_SCRATCH"' EXIT
submit_chaos_study() {
    python -m repro.cli submit --url "$1" \
        --lps 1:11 --accuracy 0.9,0.99 --backend closed_form,aspen,des \
        --name ci-chaos-service --out "$2"
}
# The very first request eats the injected reset; default --retries rides it out.
submit_chaos_study "$CHAOS_URL" "$CACHE_SCRATCH/chaos-served.json" > /dev/null
kill -9 "$CHAOS_PID" 2>/dev/null || true
wait "$CHAOS_PID" 2>/dev/null || true
start_service "$CHAOS_LOG" "restarted study service" \
    python -m repro.cli serve --port 0 --quiet \
    --cache "$CACHE_SCRATCH/chaos-service-cache" --journal "$JOURNAL"
CHAOS_PID=$BG_PID CHAOS_URL=$BG_URL
grep -q "1 job(s) recovered" "$CHAOS_LOG" || {
    echo "ERROR: restarted server did not recover the journaled job:" >&2
    cat "$CHAOS_LOG" >&2; exit 1; }
submit_chaos_study "$CHAOS_URL" "$CACHE_SCRATCH/chaos-recovered.json" > /dev/null
cmp "$CACHE_SCRATCH/chaos-served.json" "$CACHE_SCRATCH/chaos-recovered.json" || {
    echo "ERROR: artifact served after kill -9 + journal recovery differs" >&2
    exit 1; }
kill "$CHAOS_PID" 2>/dev/null || true
echo "service chaos: kill -9 + restart re-served the journaled job byte-identically"

echo
echo "== distributed smoke (coordinator + 2 workers + kill -9) =="
# Topology gate: a coordinator with two worker processes — one of which is
# SIGKILLed mid-study so its lease has to expire and requeue — must serve
# an artifact byte-identical to a single-process `cli study` of the same
# spec.  The short --lease-ttl keeps the requeue path fast.
start_service "$CACHE_SCRATCH/coordinate.log" "shard coordinator" \
    python -m repro.cli coordinate --port 0 --quiet \
    --cache "$CACHE_SCRATCH/dist-cache" \
    --shard-size 3 --lease-ttl 2
DIST_PID=$BG_PID DIST_URL=$BG_URL
trap 'kill "$SERVICE_PID" "$CHAOS_PID" "$DIST_PID" 2>/dev/null || true; rm -rf "$CACHE_SCRATCH"' EXIT
python -m repro.cli worker --coordinator "$DIST_URL" --id ci-w0 --poll 0.05 \
    > "$CACHE_SCRATCH/worker0.log" 2>&1 &
WORKER0_PID=$!
python -m repro.cli worker --coordinator "$DIST_URL" --id ci-w1 --poll 0.05 \
    > "$CACHE_SCRATCH/worker1.log" 2>&1 &
WORKER1_PID=$!
( sleep 0.4; kill -9 "$WORKER0_PID" 2>/dev/null || true ) &
KILLER_PID=$!
python -m repro.cli submit --url "$DIST_URL" \
    --lps 1:11 --accuracy 0.9,0.99 --backend closed_form,aspen,des \
    --name ci-dist-smoke --out "$CACHE_SCRATCH/dist-served.json" > /dev/null
wait "$KILLER_PID" 2>/dev/null || true
wait "$WORKER0_PID" 2>/dev/null || true
kill "$WORKER1_PID" "$DIST_PID" 2>/dev/null || true
python -m repro.cli study \
    --lps 1:11 --accuracy 0.9,0.99 --backend closed_form,aspen,des \
    --name ci-dist-smoke --no-summary --shard-size 3 \
    --out "$CACHE_SCRATCH/dist-direct.json" > /dev/null
cmp "$CACHE_SCRATCH/dist-served.json" "$CACHE_SCRATCH/dist-direct.json" || {
    echo "ERROR: worker-executed artifact differs from the single-process run" >&2
    exit 1; }
echo "distributed smoke: artifact byte-identical after kill -9 of one worker"

echo
echo "== contention analytic smoke (simulated vs M/M/1) =="
# Queueing-theory gate: an open-arrival exponential-service workload
# through the contention simulator must land inside the M/M/1 envelope the
# analytic module declares (WAIT_RTOL / UTILIZATION_RTOL), at a moderate
# load the differential suite also pins.
python - <<'PYEOF'
from repro._rng import spawn_stream
from repro.contention import ContentionWorkload, get_analytic_model, simulate_contention
from repro.contention.simulate import CONTENTION_DOMAIN
from repro.runtime import RequestProfile

service_s, rho = 0.02, 0.6
model = get_analytic_model("mm1")
workload = ContentionWorkload(
    sessions=0, arrival_rate=rho / service_s,
    open_requests=4000, service="exponential",
)
metrics = simulate_contention(
    (RequestProfile(0.0, 0.0, 0.0, service_s, 0.0),),
    workload, spawn_stream(7, CONTENTION_DOMAIN, 0),
)
prediction = model.predict(workload.arrival_rate, service_s)
assert model.utilization_within_envelope(metrics.utilization, prediction), (
    f"simulated utilization {metrics.utilization:.4f} outside the declared "
    f"envelope of analytic {prediction.utilization:.4f}")
assert model.wait_within_envelope(metrics.mean_queue_wait_s, prediction), (
    f"simulated mean wait {metrics.mean_queue_wait_s:.5f}s outside the "
    f"declared envelope of analytic {prediction.mean_wait_s:.5f}s")
print(f"contention smoke: rho={rho} utilization "
      f"{metrics.utilization:.4f} vs M/M/1 {prediction.utilization:.4f}, "
      f"wait {metrics.mean_queue_wait_s*1e3:.2f}ms vs "
      f"{prediction.mean_wait_s*1e3:.2f}ms — inside the declared envelope")
PYEOF

echo
echo "== calibration smoke (measure -> calibrate -> finite fit) =="
# Non-finite-hygiene gate: a live measure_cmr_timings run on tiny sizes,
# replayed through calibrate_embed_rate, must produce a finite positive
# embed_rate_scale and model/measured ratios inside a generous sanity
# envelope — the NaN-poisoned-fit class of bug cannot regress silently.
python - <<'PYEOF'
import math
from repro.core import Stage1Model, calibrate_embed_rate, measure_cmr_timings, model_measured_ratios
from repro.embedding.cmr import CmrParams
from repro.hardware import ChimeraTopology

topo = ChimeraTopology(4, 4, 4)
measured = measure_cmr_timings(
    [4, 6, 8], topology=topo, params=CmrParams(max_tries=8), rng=0)
model = Stage1Model(m=4, n=4, l=4)
fitted = calibrate_embed_rate(measured, model, min_size=4)
assert math.isfinite(fitted.embed_rate_scale) and fitted.embed_rate_scale > 0, (
    f"calibration produced a bad embed_rate_scale: {fitted.embed_rate_scale!r}")
ratios = model_measured_ratios(measured, fitted)
assert ratios, "no model/measured ratios computed"
for n, r in ratios.items():
    assert math.isfinite(r) and 1 / 25 < r < 25, (
        f"fitted model/measured ratio at n={n} outside sanity envelope: {r!r}")
print(f"calibration smoke: embed_rate_scale={fitted.embed_rate_scale:.3g}, "
      f"{len(ratios)} size ratios finite and inside the envelope")
PYEOF

if [[ "${1:-}" == "--fast" ]]; then
    echo
    echo "ci_check: fast mode — coverage gate skipped by request"
    exit 0
fi

echo
echo "== coverage gate (floor: ${COVERAGE_FLOOR}%) =="
PYTHONPATH="scripts:$PYTHONPATH" python -m pytest -q -p linecov \
    --linecov=src/repro --linecov-fail-under="${COVERAGE_FLOOR}"

echo
echo "ci_check: all gates passed"
