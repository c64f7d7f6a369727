#!/usr/bin/env bash
# End-to-end smoke of the serving layer (DESIGN.md §11, §13): build orfd,
# feed it a datagen fleet over HTTP, scrape /metrics, then prove the
# lifecycle contract — SIGTERM drains to a final checkpoint and --resume
# restores it bit-identically to a run that was never interrupted (run B).
# Then a concurrency soak: ~1k simultaneous keep-alive connections driving
# pipelined /v1/score through the reactor, once per model backend,
# reconciling the server's connection/request counters against the load
# generator's client-side totals and requiring the micro-batches to average
# >= 256 rows. Also checks the admission-control 429 path. Leaves the last
# /metrics exposition at $SERVE_SMOKE_METRICS (default
# $BUILD_DIR/serve_metrics.prom, so the artifact lands under the build
# tree, not the repo root) for CI to archive.
#
# Knobs: SERVE_SMOKE_SOAK_CONNS (default 1000) and
# SERVE_SMOKE_BATCH_AVG_MIN (default 256) scale the soak for slower boxes.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${BUILD_DIR:-build}
METRICS_OUT=${SERVE_SMOKE_METRICS:-$BUILD/serve_metrics.prom}
if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
fi
cmake --build "$BUILD" -j "$(nproc)" --target orfd fleet_to_json micro_serve

WORK=$(mktemp -d /tmp/orf_serve_smoke.XXXXXX)
DAEMON_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

DAYS=10
STOP_AFTER=6
ORFD="$BUILD/src/serve/orfd"
COMMON=(--trees 10 --port 0 --checkpoint-every 4)

# One JSON day-batch per line, the exact bodies /v1/ingest accepts.
./"$BUILD"/examples/fleet_to_json --mode ingest --scale 0.002 \
  --days "$DAYS" > "$WORK/ingest.jsonl"
./"$BUILD"/examples/fleet_to_json --mode score --scale 0.002 \
  --days 1 > "$WORK/score.json"

start_daemon() {  # start_daemon <log> [extra orfd flags...]
  local log=$1
  shift
  "$ORFD" "${COMMON[@]}" "$@" > "$log" 2>&1 &
  DAEMON_PID=$!
  PORT=""
  for _ in $(seq 100); do
    PORT=$(sed -n 's/.* server on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$log")
    [ -n "$PORT" ] && return 0
    sleep 0.1
  done
  echo "orfd did not come up:" >&2
  cat "$log" >&2
  return 1
}

stop_daemon() {  # SIGTERM → drain → final checkpoint → exit 0
  kill -TERM "$DAEMON_PID"
  wait "$DAEMON_PID"
  DAEMON_PID=""
}

post() { curl -sSf -X POST "http://127.0.0.1:$PORT$1" --data-binary "$2"; }

ingest_days() {  # ingest_days <first-day> <last-day-exclusive>
  sed -n "$(($1 + 1)),$(($2))p" "$WORK/ingest.jsonl" |
    while IFS= read -r body; do
      post /v1/ingest "$body" > /dev/null
    done
}

flat_rebuilds() {
  curl -sSf "http://127.0.0.1:$PORT/metrics" |
    grep '^orf_forest_flat_rebuilds_total'
}

echo "== run A: serve $STOP_AFTER days, then SIGTERM-drain =="
start_daemon "$WORK/a.log" --checkpoint-dir "$WORK/a"
curl -sSf "http://127.0.0.1:$PORT/healthz" | grep -q '"status":"ok"'
ingest_days 0 "$STOP_AFTER"

# Scoring goes through the flat SoA kernel and never resyncs it: the rebuild
# counter must not move across a burst of /v1/score calls.
REBUILDS_BEFORE=$(flat_rebuilds)
for _ in $(seq 5); do
  post /v1/score "$(cat "$WORK/score.json")" | grep -q '"results"'
done
[ "$(flat_rebuilds)" = "$REBUILDS_BEFORE" ] ||
  { echo "flat kernel resynced under score-only traffic" >&2; exit 1; }

curl -sSf "http://127.0.0.1:$PORT/metrics" > "$METRICS_OUT"
grep -q '^orf_serve_requests_total{' "$METRICS_OUT"
grep -q '^orf_engine_shard_ingested_total' "$METRICS_OUT"
stop_daemon
grep -q 'final checkpoint' "$WORK/a.log"

echo "== run A resumed: days $STOP_AFTER..$((DAYS - 1)) =="
start_daemon "$WORK/a2.log" --checkpoint-dir "$WORK/a" --resume
grep -q "resumed from .* at day $STOP_AFTER" "$WORK/a2.log"
ingest_days "$STOP_AFTER" "$DAYS"
stop_daemon

echo "== run B: all $DAYS days uninterrupted =="
start_daemon "$WORK/b.log" --checkpoint-dir "$WORK/b"
ingest_days 0 "$DAYS"
stop_daemon

# The checkpoint envelope is a pure function of the serialized state, so
# byte-equal final snapshots prove the resumed daemon ended bit-identical.
LATEST_A=$(ls "$WORK"/a/orf-service-*.ckpt | sort -V | tail -1)
LATEST_B=$(ls "$WORK"/b/orf-service-*.ckpt | sort -V | tail -1)
cmp "$LATEST_A" "$LATEST_B" ||
  { echo "resume diverged from the uninterrupted run" >&2; exit 1; }

echo "== backend seam: full lifecycle on --backend mondrian =="
# The same daemon lifecycle — ingest, score, SIGTERM-drain, resume — with
# the second ModelBackend, proving the serving layer is backend-agnostic.
# The checkpoint header must name the backend, and /metrics must label it.
start_daemon "$WORK/m.log" --backend mondrian --checkpoint-dir "$WORK/m"
# Buffer the scrape: under pipefail, `curl | grep -q` races grep's early
# exit against curl's remaining writes (curl exit 23).
MONDRIAN_METRICS=$(curl -sSf "http://127.0.0.1:$PORT/metrics")
grep -q '^orf_backend_info{backend="mondrian"} 1' <<<"$MONDRIAN_METRICS" ||
  { echo "mondrian backend not labeled in /metrics" >&2; exit 1; }
ingest_days 0 "$STOP_AFTER"
post /v1/score "$(cat "$WORK/score.json")" | grep -q '"results"'
stop_daemon
grep -q 'final checkpoint' "$WORK/m.log"
LATEST_M=$(ls "$WORK"/m/orf-service-*.ckpt | sort -V | tail -1)
grep -q 'backend=mondrian' "$LATEST_M" ||
  { echo "mondrian checkpoint does not record its backend" >&2; exit 1; }

start_daemon "$WORK/m2.log" --backend mondrian --checkpoint-dir "$WORK/m" \
  --resume
grep -q "resumed from .* at day $STOP_AFTER" "$WORK/m2.log"
ingest_days "$STOP_AFTER" "$DAYS"
stop_daemon

# Restoring a mondrian checkpoint into the default orf backend must be
# refused at startup, not silently mis-modeled.
if "$ORFD" "${COMMON[@]}" --checkpoint-dir "$WORK/m" --resume \
    > "$WORK/mx.log" 2>&1; then
  echo "orf backend accepted a mondrian checkpoint" >&2
  exit 1
fi
grep -q "written by the 'mondrian' backend" "$WORK/mx.log" ||
  { echo "backend-mismatch refusal lacks its cause:" >&2
    cat "$WORK/mx.log" >&2; exit 1; }

# The reconciliation below needs exact accounting, and every curl is itself
# an accepted connection — so each side takes ONE /metrics snapshot and all
# values are parsed from it. A snapshot's own connection is accepted before
# the exposition renders, so it is included in the numbers it reports.
snapshot() { curl -sSf "http://127.0.0.1:$PORT/metrics"; }

metric_of() {  # metric_of <name> <<< snapshot
  awk -v name="$1" '$1 == name { print $2 }'
}

score_requests_of() {  # sum of orf_serve_requests_total over /v1/score
  awk '/^orf_serve_requests_total\{route="\/v1\/score"/ { sum += $2 }
       END { printf "%d\n", sum }'
}

bench_field() {  # bench_field <field> <SERVE_BENCH line>
  echo "$2" | sed -n "s/.* $1=\\([0-9][0-9]*\\).*/\\1/p"
}

SOAK_CONNS=${SERVE_SMOKE_SOAK_CONNS:-1000}
BATCH_AVG_MIN=${SERVE_SMOKE_BATCH_AVG_MIN:-256}
ulimit -n 16384 2>/dev/null ||
  echo "warn: could not raise ulimit -n ($(ulimit -n) fds available)" >&2

for BACKEND in orf mondrian; do
  echo "== soak [$BACKEND]: $SOAK_CONNS keep-alive conns, pipelined score =="
  # The micro-batcher sits above the ModelBackend seam, so both backends
  # must survive the same connection storm with the same accounting.
  # The batcher flushes whenever its flusher is free, so everything that
  # arrives during one flush rides the next: under this storm batches grow
  # by themselves, which is what the >=256-row coalescing floor below is
  # asserting.
  start_daemon "$WORK/soak_$BACKEND.log" --backend "$BACKEND"
  BEFORE=$(snapshot)
  CONNS_BEFORE=$(metric_of orf_serve_connections_total <<<"$BEFORE")
  REQS_BEFORE=$(score_requests_of <<<"$BEFORE")

  SOAK_LINE=$("$BUILD/bench/micro_serve" --attach "127.0.0.1:$PORT" \
    --connections "$SOAK_CONNS" --rows 16 --pipeline 2 --duration-s 3)
  echo "$SOAK_LINE"
  CLIENT_CONNS=$(bench_field connections "$SOAK_LINE")
  CLIENT_REQS=$(bench_field requests "$SOAK_LINE")
  CLIENT_ERRS=$(bench_field errors "$SOAK_LINE")

  [ "$CLIENT_ERRS" = 0 ] ||
    { echo "soak[$BACKEND]: $CLIENT_ERRS client-side errors" >&2; exit 1; }
  [ "$CLIENT_CONNS" = "$SOAK_CONNS" ] ||
    { echo "soak[$BACKEND]: only $CLIENT_CONNS/$SOAK_CONNS connected" >&2
      exit 1; }

  # Server-side accounting must reconcile with what the client measured:
  # every handshake appears in orf_serve_connections_total (plus exactly
  # one for the AFTER snapshot's own connection), and the server may have
  # finished at most conns*pipeline responses the client never read before
  # the deadline closed its sockets.
  AFTER=$(snapshot)
  CONNS_DELTA=$(( $(metric_of orf_serve_connections_total <<<"$AFTER") \
                  - CONNS_BEFORE - 1 ))
  REQS_DELTA=$(( $(score_requests_of <<<"$AFTER") - REQS_BEFORE ))
  [ "$CONNS_DELTA" -eq "$CLIENT_CONNS" ] ||
    { echo "soak[$BACKEND]: server saw $CONNS_DELTA conns," \
           "client made $CLIENT_CONNS" >&2; exit 1; }
  [ "$REQS_DELTA" -ge "$CLIENT_REQS" ] &&
    [ "$REQS_DELTA" -le $((CLIENT_REQS + 2 * SOAK_CONNS)) ] ||
    { echo "soak[$BACKEND]: server answered $REQS_DELTA score requests," \
           "client completed $CLIENT_REQS" >&2; exit 1; }

  # Under a saturated queue the coalescer must actually coalesce: the
  # orf_serve_batch_rows histogram has to average >= $BATCH_AVG_MIN rows.
  awk -v min="$BATCH_AVG_MIN" '
      /^orf_serve_batch_rows_sum/ { sum = $2 }
      /^orf_serve_batch_rows_count/ { count = $2 }
      END {
        if (count == 0) { print "no batches flushed"; exit 1 }
        avg = sum / count
        printf "batch average: %.1f rows over %d flushes\n", avg, count
        if (avg < min) { printf "below the %d-row floor\n", min; exit 1 }
      }' <<<"$AFTER" ||
    { echo "soak[$BACKEND]: micro-batching under-coalesced" >&2; exit 1; }
  stop_daemon
done

echo "== admission control: --max-in-flight 0 answers 429 =="
start_daemon "$WORK/c.log" --max-in-flight 0
RESPONSE=$(curl -s -D - "http://127.0.0.1:$PORT/healthz")
echo "$RESPONSE" | grep -q '^HTTP/1.1 429'
echo "$RESPONSE" | grep -qi '^Retry-After:'
stop_daemon

echo "SERVE SMOKE OK (metrics: $METRICS_OUT)"
