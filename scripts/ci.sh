#!/usr/bin/env bash
# Full local CI gate: static checks, the race-enabled test suite, and a
# benchmark-regression smoke run.
#
# The bench smoke runs right after the race suite with a short -benchtime,
# so on shared hardware timings can read 50-80% high from transient CPU
# contention alone. Its default threshold is therefore relaxed to catch
# only order-of-magnitude regressions while still proving the harness
# end to end; pin BENCH_MAX_REGRESSION_PCT for strict gating, or run
# scripts/bench.sh + scripts/bench-compare.sh (default 5%) on a quiet
# machine for the full-fidelity check.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./internal/obs (telemetry fast gate)"
go test -race ./internal/obs/

echo "==> incremental-engine fast gate (equivalence to the reference oracles under -race + 1-iteration bench smoke)"
# The equivalence suite is the exactness contract of the incremental
# engine, the only evaluation path: DeltaEvaluator vs Config.Payoff (plus
# fuzz seed corpus), the DBR engine and Solve vs the naive best-response
# scan and Algorithm 2 sweep, and the CGBD masters vs a full grid scan over
# freshly tabulated cuts (replayed cut by cut). It runs first so a broken
# cache fails in seconds, then a single-iteration bench pass proves the
# tracked harness end to end without timing anything. The gate fails if
# the regex selects no test in any of the three packages.
inc_out="$(go test -race -v -run 'Delta|Engine|Incremental|MatchesNaive|ZeroAlloc|PrimalMemo|CutDomination' \
  ./internal/game/ ./internal/dbr/ ./internal/gbd/)" || { echo "$inc_out"; exit 1; }
if grep -q 'no tests to run' <<<"$inc_out"; then
  echo "$inc_out"; echo "incremental fast gate: a package ran no tests"; exit 1
fi
inc_n="$(grep -c -- '^--- PASS' <<<"$inc_out" || true)"
[ "$inc_n" -gt 0 ] || { echo "incremental fast gate: regex selected no tests"; exit 1; }
echo "incremental fast gate: $inc_n tests passed"
BENCH_TIME=1x BENCH_COUNT=1 scripts/bench.sh >/dev/null

echo "==> fleet fast gate (batch determinism + planner under -race)"
# The batched engine's contract is byte-identity with one-at-a-time solves
# under any interleaving, so its suite runs under -race early; -short skips
# only the wall-clock regret test, which needs a quiet machine and runs in
# the full race suite below.
go test -race -short ./internal/fleet/

echo "==> verify gate (invariant auditor under -race + mutation self-tests)"
# The mutation suite injects one seeded violation per invariant family and
# requires the matching check to fire: a silent auditor fails the gate, not
# just a wrong one. The clean half (including the differential harness
# cross-running CGBD against an independent exhaustive solver) runs under
# -race because the hooks are installed process-globally.
go test -race ./internal/verify/
go test -count=1 -run Mutation ./internal/verify/

echo "==> go test -race ./..."
go test -race ./...

echo "==> diag smoke (tradefl-sim -diag-addr)"
DIAG_ADDR="${DIAG_ADDR:-127.0.0.1:6161}"
DIAG_BIN="$(mktemp -d)/tradefl-sim"
go build -o "$DIAG_BIN" ./cmd/tradefl-sim
"$DIAG_BIN" -fig fig5 -quick -summary none -verify \
  -diag-addr "$DIAG_ADDR" -diag-hold 60s >/dev/null &
SIM_PID=$!
trap 'kill "$SIM_PID" 2>/dev/null || true' EXIT
up=0
for _ in $(seq 1 50); do
  if curl -fsS "http://$DIAG_ADDR/healthz" 2>/dev/null | grep -q '"status":"ok"'; then
    up=1
    break
  fi
  sleep 0.2
done
[ "$up" -eq 1 ] || { echo "diag smoke: /healthz never became healthy"; exit 1; }
metrics="$(curl -fsS "http://$DIAG_ADDR/metrics")"
for name in tradefl_gbd_iterations_total tradefl_dbr_rounds_total tradefl_fl_round_accuracy; do
  echo "$metrics" | grep -q "^$name " || { echo "diag smoke: $name missing from /metrics"; exit 1; }
done
echo "$metrics" | grep -q '^tradefl_dbr_rounds_total [1-9]' \
  || { echo "diag smoke: tradefl_dbr_rounds_total still zero after a DBR run"; exit 1; }
# -verify was armed above: the auditor must have run checks and found
# nothing (a nonzero violation count would also fail the sim's exit code).
echo "$metrics" | grep -q '^tradefl_verify_checks_total [1-9]' \
  || { echo "diag smoke: tradefl_verify_checks_total zero with -verify armed"; exit 1; }
echo "$metrics" | grep -q '^tradefl_verify_violations_total 0' \
  || { echo "diag smoke: verify violations recorded on a clean run"; exit 1; }
kill "$SIM_PID" 2>/dev/null || true
wait "$SIM_PID" 2>/dev/null || true
trap - EXIT

echo "==> chaos smoke (seeded soak under -race)"
# Fault schedule is a pure function of the seed: a failure here reproduces
# exactly via `scripts/chaos.sh "<spec>"`. The soak fails the gate if the
# ring misses the fault-free Nash equilibrium or the settlement contract
# leaks a single wei.
scripts/chaos.sh "seed=${CHAOS_SEED:-7},drop=0.15,dup=0.05,delayp=0.1,delaymax=15ms,rpcfail=0.1,rpclost=0.05,orgs=3,game=5"

echo "==> obs-v2 gate (tracing, flight recorder, telemetry)"
# Race-check the instrumentation fabric itself first: spans, the flight
# ring and trace propagation are touched from every worker goroutine.
go test -race ./internal/obs/ ./internal/transport/
OBS_DIR="$(mktemp -d)"
OBS_BIN="$OBS_DIR/tradefl-sim"
go build -o "$OBS_BIN" ./cmd/tradefl-sim

# A seeded traced soak must export one trace that crosses the solver, the
# ring and the chain — the cross-process propagation contract. Foreground:
# -trace-out flushes on exit, which a killed background run would skip.
"$OBS_BIN" -chaos "seed=${CHAOS_SEED:-7},drop=0.1,dup=0.05,orgs=3,game=5" \
  -trace-out "$OBS_DIR/chaos-trace.json" >/dev/null
go run ./scripts/tracecheck -min-components 3 "$OBS_DIR/chaos-trace.json"

# A traced fleet batch must join solver spans to the batch trace and emit
# per-solve + per-batch convergence telemetry. plan=pruned forces the CGBD
# path: DBR solves emit no gbd.solve records.
"$OBS_BIN" -fleet 64 -plan pruned -summary none \
  -trace-out "$OBS_DIR/fleet-trace.json" \
  -telemetry-out "$OBS_DIR/fleet-telemetry.jsonl" >/dev/null
go run ./scripts/tracecheck -min-components 2 "$OBS_DIR/fleet-trace.json"
grep -q '"kind":"gbd.solve"' "$OBS_DIR/fleet-telemetry.jsonl" \
  || { echo "obs smoke: no gbd.solve telemetry records"; exit 1; }
grep -q '"kind":"fleet.batch"' "$OBS_DIR/fleet-telemetry.jsonl" \
  || { echo "obs smoke: no fleet.batch telemetry record"; exit 1; }

# Live endpoints: /tracez?fmt=chrome and /flightz on a held diag server.
OBS_ADDR="${OBS_ADDR:-127.0.0.1:6162}"
TRADEFL_TRACE=1 "$OBS_BIN" -fleet 32 -plan pruned -summary none \
  -diag-addr "$OBS_ADDR" -diag-hold 60s >/dev/null &
OBS_PID=$!
trap 'kill "$OBS_PID" 2>/dev/null || true' EXIT
up=0
for _ in $(seq 1 50); do
  if curl -fsS "http://$OBS_ADDR/healthz" 2>/dev/null | grep -q '"status":"ok"'; then
    up=1
    break
  fi
  sleep 0.2
done
[ "$up" -eq 1 ] || { echo "obs smoke: /healthz never became healthy"; exit 1; }
curl -fsS "http://$OBS_ADDR/tracez?fmt=chrome" > "$OBS_DIR/tracez.json"
go run ./scripts/tracecheck -min-components 2 "$OBS_DIR/tracez.json"
curl -fsS "http://$OBS_ADDR/flightz" | grep -q '"reason"' \
  || { echo "obs smoke: /flightz returned no flight dump"; exit 1; }
kill "$OBS_PID" 2>/dev/null || true
wait "$OBS_PID" 2>/dev/null || true
trap - EXIT

echo "==> serve gate (gateway suite under -race + live HTTP smoke)"
# The gateway's contract is byte-identity with core.RunBatch under
# concurrent multi-tenant load, so its suite (including the 64-tenant
# soak) runs under -race first. Then a live smoke: boot tradefl-server,
# create a job over HTTP, follow the SSE progress stream to completion
# and require every streamed instance result to match a local
# core.RunBatch over the same seeded corpus, field for field. The drain
# check sends SIGTERM and requires a clean exit (graceful drain).
go vet ./internal/serve/ ./cmd/tradefl-server/ ./scripts/servegate/
go test -race -count=1 ./internal/serve/
SERVE_DIR="$(mktemp -d)"
SERVE_BIN="$SERVE_DIR/tradefl-server"
go build -o "$SERVE_BIN" ./cmd/tradefl-server
SERVE_ADDR="${SERVE_ADDR:-127.0.0.1:6163}"
"$SERVE_BIN" -listen "$SERVE_ADDR" >/dev/null &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
up=0
for _ in $(seq 1 50); do
  if curl -fsS "http://$SERVE_ADDR/healthz" 2>/dev/null | grep -q '"status": "ok"'; then
    up=1
    break
  fi
  sleep 0.2
done
[ "$up" -eq 1 ] || { echo "serve smoke: /healthz never became healthy"; exit 1; }
go run ./scripts/servegate -addr "$SERVE_ADDR" -count 3 -n 4 -seed 41
# Oversized bodies get an explicit 413 at the gateway edge, same as the
# chain RPC fix this gate rides with.
code="$(head -c 2097152 /dev/zero | tr '\0' 'x' | \
  curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary @- "http://$SERVE_ADDR/v1/jobs")"
[ "$code" = "413" ] || { echo "serve smoke: oversized body got $code, want 413"; exit 1; }
kill -TERM "$SERVE_PID" 2>/dev/null || true
drained=1
wait "$SERVE_PID" || drained=0
[ "$drained" -eq 1 ] || { echo "serve smoke: SIGTERM drain exited nonzero"; exit 1; }
trap - EXIT

echo "==> bench regression smoke"
sleep "${BENCH_SETTLE_SECS:-15}" # let CPU contention from the race suite drain
BENCH_TIME="${BENCH_TIME:-100ms}" BENCH_COUNT="${BENCH_COUNT:-4}" scripts/bench.sh >/dev/null
BENCH_MAX_REGRESSION_PCT="${BENCH_MAX_REGRESSION_PCT:-100}" scripts/bench-compare.sh

echo "==> fleet throughput gate"
# Within-profile ratios (speedup over naive, auto vs best fixed plan), so
# machine-load noise partially cancels — but single-iteration jitter on a
# contended box still swings the auto-vs-fixed ratio by tens of percent, so
# like the regression smoke the defaults only catch gross misrouting (auto
# picking the wrong solver class). Pin FLEET_MIN_SPEEDUP=3
# FLEET_MAX_REGRET_PCT=10 for the strict quiet-machine contract.
go run ./scripts/benchcmp fleet-gate \
  -min-speedup "${FLEET_MIN_SPEEDUP:-2}" \
  -max-regret "${FLEET_MAX_REGRET_PCT:-50}" \
  -min-solves-per-sec "${FLEET_MIN_SOLVES_PER_SEC:-1000}" \
  BENCH_latest.json

echo "==> chain settlement throughput gate"
# Sharded batched settlement vs the retained pre-sharding configuration,
# within one profile (BenchmarkChainSettle). The ratio cancels machine-load
# noise and the measured margin is wide (>2x the floor on this hardware),
# so the strict 3x contract is the default here.
go run ./scripts/benchcmp chain-gate \
  -min-speedup "${CHAIN_MIN_SPEEDUP:-3}" \
  -min-tx-per-sec "${CHAIN_MIN_TX_PER_SEC:-1000}" \
  -txs-per-op 129 \
  BENCH_latest.json

echo "==> obs tracing overhead gate (in-process A/B)"
# Tracing must not tax the solver hot path: fleet batch solves with
# tracing enabled must stay within OBS_TRACE_MAX_PCT of untraced CPU
# time, and the outputs must be byte-identical. scripts/obsgate
# interleaves traced/untraced reps of the BenchmarkFleetSolve workload
# inside one process and compares the median per-pair process-CPU ratio —
# process-level bench A/B (the naive design) reads 10-60% regressions
# from machine-load noise alone on shared hardware. -plan dbr / -plan
# pruned isolate the two solver paths when chasing a failure.
go run ./scripts/obsgate -plan "${OBS_AB_PLAN:-auto}" \
  -reps "${OBS_AB_PAIRS:-15}" -max-pct "${OBS_TRACE_MAX_PCT:-3}"

echo "==> durability-gate (WAL/recovery suite, crash-restart soak, group-commit throughput)"
# The chain's durability contract, in three parts. First the focused
# WAL/recovery/failover suites under -race: frame torn-tail handling,
# replay exactness, snapshot + PITR, standby promotion and term fencing —
# plus the sharded-settlement suite (cross-K execution equivalence, batch
# submission, dedup-horizon eviction, read-path contention, pipelined
# prefix replay).
go test -race -run 'WAL|Recover|Durable|Snapshot|Checkpoint|PITR|Standby|Replicat|Fencing|Term|ZeroPadding|ZeroExtend|Frame|TornTail|Mempool|Shard|Batch|Equivalence|Horizon|Contention|Transfer|Prefix' \
  ./internal/chain/ ./internal/durable/
# One seeded crash-restart soak: kill -9 the validator on a deterministic
# schedule mid-settlement, recover from snapshot + log each time, and
# require every recovery to reproduce the durable prefix exactly (height,
# state root, mempool), the wei-exact settlement check on the final
# incarnation, and a point-in-time recovery view. shards=0 rotates the
# shard count per recovery and batch=1 drives submission through
# SubmitTxBatch, so every cycle reopens the same WAL under a different K
# with batched group commit. Reproduce a failure with
# `scripts/crashloop.sh "<spec>"`.
scripts/crashloop.sh "seed=${CHAOS_SEED:-7},crashcycles=3,crashmin=25ms,crashmax=70ms,snapevery=2,rpcfail=0.05,orgs=3,game=5,shards=0,batch=1"
# Group-commit throughput: WAL-on SubmitTx must stay near the in-memory
# baseline. The 10% contract holds on a quiet machine (pin WAL_MAX_PCT=10
# there); on this gate's shared hardware the per-op block-until-durable
# parking inflates even the crypto between commits, so the default backstop
# is relaxed to catch only structural collapses (e.g. group commit
# degrading to one fsync per append). See scripts/walgate for the ABBA
# in-process methodology.
go run ./scripts/walgate -max-pct "${WAL_MAX_PCT:-50}"

echo "==> CI OK"
