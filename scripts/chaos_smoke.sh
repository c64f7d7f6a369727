#!/usr/bin/env bash
# Chaos soak for orfd (DESIGN.md §14): crash the daemon at exact WAL and
# checkpoint writer instructions (ORF_FAILPOINTS="<site>=abort@K" makes the
# armed site call std::abort() at a deterministic hit), plus plain kill -9
# cycles, while a client drives a fixed ingest-day schedule. After every
# crash the client restarts orfd with --resume, re-syncs its cursor from
# /healthz next_day, and asserts the durability contract: no day whose ack
# it received is ever lost. When the schedule is done, the chaos run's
# final checkpoint is byte-compared against one from a run that was never
# crashed — the WAL replay is day-keyed, so crash-and-replay must be
# invisible in the serialized model state.
#
# A reconciliation report (days acked, crashes survived, WAL rows replayed,
# compare verdict) lands at $CHAOS_REPORT (default chaos_report.txt) for CI
# to archive.
#
# Knobs: BUILD_DIR (default build; scripts/check.sh --chaos points it at
# build-asan so the whole soak runs under ASan) and CHAOS_DAYS (default 16).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${BUILD_DIR:-build}
REPORT=${CHAOS_REPORT:-chaos_report.txt}
DAYS=${CHAOS_DAYS:-16}
if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
fi
cmake --build "$BUILD" -j "$(nproc)" --target orfd fleet_to_json

WORK=$(mktemp -d /tmp/orf_chaos.XXXXXX)
DAEMON_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

ORFD="$BUILD/src/serve/orfd"
# --wal-sync always: every ack is an fsynced record, the strictest contract
# to hold under kill -9. checkpoint-every 4 keeps rotation (and its
# failpoint sites) in play mid-schedule.
COMMON=(--trees 8 --port 0 --checkpoint-every 4 --wal-sync always)

# One JSON day-batch per line; line i is always day i, so whichever process
# incarnation ingests a day, it ingests identical bytes.
./"$BUILD"/examples/fleet_to_json --mode ingest --scale 0.002 \
  --days "$DAYS" > "$WORK/ingest.jsonl"

start_daemon() {  # start_daemon <log> <ckpt-dir> [extra flags...]
  local log=$1 dir=$2
  shift 2
  ORF_FAILPOINTS="${FAILPOINTS:-}" "$ORFD" "${COMMON[@]}" \
    --checkpoint-dir "$dir" "$@" > "$log" 2>&1 &
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

reap_crashed() {  # the daemon died by abort/kill: reap it, count the crash
  wait "$DAEMON_PID" 2>/dev/null || true
  DAEMON_PID=""
  CRASHES=$((CRASHES + 1))
}

next_day_of() {  # the daemon's day cursor, from the liveness body
  # The JSON writer renders numbers like 10 as "1e+01"; awk normalises.
  curl -sSf --max-time 10 "http://127.0.0.1:$PORT/healthz" |
    sed -n 's/.*"next_day":\([0-9.eE+-]*\).*/\1/p' |
    awk '{ printf "%d\n", $1 + 0 }'
}

# post_day <day>: sends line <day>; returns curl's verdict. The ack lost in
# a crash is fine — the client re-syncs from next_day — but an ack that was
# RECEIVED is a durability promise the restart assertions below enforce.
post_day() {
  sed -n "$(($1 + 1))p" "$WORK/ingest.jsonl" |
    curl -sSf --max-time 10 -X POST "http://127.0.0.1:$PORT/v1/ingest" \
      --data-binary @- > /dev/null
}

# The crash schedule: every WAL writer site, the checkpoint writer's
# durability-critical stages, and raw kill -9 (no failpoint cooperation at
# all). "@K" skips K hits so the abort lands mid-stream, not on the first
# byte the process writes.
SCHEDULE=(
  "wal.append=abort@2"
  "kill9"
  "wal.fsync=abort@1"
  "checkpoint.write_payload=abort"
  "wal.rotate=abort"
  "kill9"
  "checkpoint.rename=abort"
)

CRASHES=0
ACKED=-1   # highest day index whose ack the client actually read
CURSOR=0
RESUME=()

echo "== chaos: ${#SCHEDULE[@]} scheduled crashes over $DAYS days =="
for LEG in "${SCHEDULE[@]}"; do
  [ "$CURSOR" -ge "$DAYS" ] && break
  if [ "$LEG" = kill9 ]; then
    FAILPOINTS=""
  else
    FAILPOINTS="$LEG"
  fi
  start_daemon "$WORK/leg_$CRASHES.log" "$WORK/chaos" "${RESUME[@]}"
  RESUME=(--resume)

  # Durability assertion: everything acked before the last crash survived.
  SEEN=$(next_day_of)
  [ "$SEEN" -gt "$ACKED" ] ||
    { echo "LOST ACKED DATA: next_day=$SEEN, acked day $ACKED" >&2; exit 1; }
  CURSOR=$SEEN

  if [ "$LEG" = kill9 ]; then
    # Two days land normally, then the process dies with no warning.
    while [ "$CURSOR" -lt "$DAYS" ] && [ "$CURSOR" -lt $((SEEN + 2)) ]; do
      post_day "$CURSOR" || break
      ACKED=$CURSOR
      CURSOR=$((CURSOR + 1))
    done
    kill -9 "$DAEMON_PID"
    reap_crashed
  else
    # Ingest until the armed abort kills the daemon mid-request.
    while [ "$CURSOR" -lt "$DAYS" ]; do
      if post_day "$CURSOR"; then
        ACKED=$CURSOR
        CURSOR=$((CURSOR + 1))
      else
        break
      fi
    done
    # A crashed child lingers as a zombie until reaped, so kill -0 cannot
    # tell dead from alive here — a health probe can.
    if curl -sf --max-time 2 "http://127.0.0.1:$PORT/healthz" \
        > /dev/null 2>&1; then
      # Schedule exhausted the days before the site fired: clean kill, the
      # crash did not happen on this leg.
      kill -9 "$DAEMON_PID"
      wait "$DAEMON_PID" 2>/dev/null || true
      DAEMON_PID=""
    else
      reap_crashed
    fi
  fi
done

echo "== chaos: final clean leg — resume, finish the schedule, drain =="
FAILPOINTS=""
start_daemon "$WORK/final.log" "$WORK/chaos" "${RESUME[@]}"
SEEN=$(next_day_of)
[ "$SEEN" -gt "$ACKED" ] ||
  { echo "LOST ACKED DATA: next_day=$SEEN, acked day $ACKED" >&2; exit 1; }
CURSOR=$SEEN
while [ "$CURSOR" -lt "$DAYS" ]; do
  post_day "$CURSOR"
  ACKED=$CURSOR
  CURSOR=$((CURSOR + 1))
done
REPLAYED=$(curl -sSf --max-time 10 "http://127.0.0.1:$PORT/metrics" |
  awk '/^orf_wal_replayed_rows_total/ { print $2; exit }')
stop_daemon
grep -q 'final checkpoint' "$WORK/final.log"

echo "== reference: the same $DAYS days with no crashes =="
FAILPOINTS=""
start_daemon "$WORK/ref.log" "$WORK/ref"
for ((day = 0; day < DAYS; ++day)); do
  post_day "$day"
done
stop_daemon

# The verdict: day-keyed WAL replay makes the crashed-and-resumed lineage
# end in exactly the bytes of the lineage that never crashed.
LATEST_CHAOS=$(ls "$WORK"/chaos/orf-service-*.ckpt | sort -V | tail -1)
LATEST_REF=$(ls "$WORK"/ref/orf-service-*.ckpt | sort -V | tail -1)
if cmp -s "$LATEST_CHAOS" "$LATEST_REF"; then
  VERDICT="identical"
else
  VERDICT="DIVERGED"
fi

{
  echo "chaos_smoke reconciliation"
  echo "days acked:        $((ACKED + 1)) / $DAYS"
  echo "crashes survived:  $CRASHES (of ${#SCHEDULE[@]} scheduled)"
  echo "wal rows replayed: ${REPLAYED:-0} (final resume)"
  echo "final checkpoint vs uninterrupted run: $VERDICT"
} | tee "$REPORT"

[ "$VERDICT" = identical ] ||
  { echo "chaos lineage diverged from the uninterrupted run" >&2; exit 1; }
[ "$((ACKED + 1))" -eq "$DAYS" ] ||
  { echo "schedule incomplete: acked $((ACKED + 1)) of $DAYS days" >&2
    exit 1; }
[ "$CRASHES" -ge 1 ] ||
  { echo "no crash ever happened — the soak tested nothing" >&2; exit 1; }

echo "CHAOS SMOKE OK (report: $REPORT)"
