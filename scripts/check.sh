#!/usr/bin/env bash
# Tier-1 verification plus sanitizer passes over the riskiest suites.
#
#   1. normal build + full ctest (the tier-1 gate from ROADMAP.md);
#   2. ASan+UBSan build (cmake -DORF_SANITIZE=ON into build-asan/) running
#      the suites that exercise the new threaded engine paths directly —
#      test_engine, test_core, test_util — so data races on freed memory,
#      container misuse and UB in the shard/learn stages surface loudly,
#      plus test_robust for the checkpoint-envelope fuzz suite
#      (EnvelopeFuzz.*) and the slicing-by-8 CRC32 against its bytewise
#      oracle (Crc32.*), test_orf for the WAL batch codec fuzz suite
#      (WalCodec.*) and the pool-parallel save oracle (DurabilityOracle.*),
#      test_tsdb for the history-store codec fuzz
#      suite (truncation/byte-flip/compound corruption against the Gorilla
#      decoder) and test_serve's JSON codec suites (ServeJson.*, the
#      /v1/ingest and /v1/score body fuzz/differential Codec*.*) — all
#      exist to be run under sanitizers.
#   3. (--faults) the fault-tolerance suites under the same sanitizers:
#      test_robust (failpoints, envelope corruption, recovery rotation) and
#      test_integration (kill-during-save at every writer stage, dirty-
#      stream accuracy), then a quarantine smoke run of backblaze_ingest
#      --dirt that leaves the rejected-row sidecar at
#      build-asan/quarantine_sidecar.csv for CI to upload.
#   4. (--tsan) a ThreadSanitizer build (cmake -DORF_TSAN=ON into
#      build-tsan/) over the threaded suites — test_serve (the reactor's
#      single-owner connection model, the batcher's cross-thread
#      completions), test_engine (sharded ingest), test_obs (lock-free
#      instruments), test_robust (concurrent checkpoint save/load, WAL
#      appends racing replay bookkeeping), test_tsdb (the history store's
#      single-writer contract under the service's pooled ingest and its
#      pooled flush), test_core (forest saves formatting trees on a pool)
#      and test_orf (pooled checkpoint payloads and WAL batch encoding) —
#      with
#      TSAN_OPTIONS=halt_on_error=1 so the first race fails the run.
#   5. (--chaos) the chaos soak: scripts/chaos_smoke.sh against an ASan
#      build of orfd — kill -9 and abort-at-failpoint cycles over a live
#      ingest schedule, asserting no acked day is ever lost and that the
#      crashed lineage's final checkpoint is byte-identical to an
#      uninterrupted run's. Leaves the reconciliation report at
#      build-asan/chaos_report.txt for CI to upload.
#
# Usage: scripts/check.sh [--asan-only] [--faults] [--tsan] [--chaos]
#   --asan-only   skip step 1 and run only the sanitizer pass (what the CI
#                 sanitizer job runs; the build/test matrix already covers
#                 tier-1 there).
#   --faults      skip steps 1-2 and run only the fault-tolerance pass
#                 (what the CI faults job runs).
#   --tsan        run only the ThreadSanitizer pass (what the CI tsan job
#                 runs).
#   --chaos       run only the chaos soak (what the CI chaos job runs).
#
# Exits non-zero on the first failure. ~5 minutes on one core.
#
# Fast local iteration: the heavyweight suites (test_eval, test_integration)
# carry the ctest label "slow", so
#     ctest --test-dir build -LE slow
# runs the quick tiers in a few seconds; the full gate here still runs
# everything.
set -euo pipefail
cd "$(dirname "$0")/.."

asan_only=false
faults_only=false
tsan_only=false
chaos_only=false
for arg in "$@"; do
  case "$arg" in
    --asan-only) asan_only=true ;;
    --faults) faults_only=true ;;
    --tsan) tsan_only=true ;;
    --chaos) chaos_only=true ;;
    *)
      echo "unknown argument: $arg" \
           "(supported: --asan-only, --faults, --tsan, --chaos)" >&2
      exit 2
      ;;
  esac
done

if $tsan_only; then
  echo "== tsan: ThreadSanitizer over serve + engine + obs + robust + tsdb + core + orf =="
  cmake -B build-tsan -S . -DORF_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    >/dev/null
  cmake --build build-tsan -j "$(nproc)" \
    --target test_serve test_engine test_obs test_robust test_tsdb test_core \
    test_orf
  export TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1
  ./build-tsan/tests/test_obs
  ./build-tsan/tests/test_engine
  ./build-tsan/tests/test_serve
  ./build-tsan/tests/test_robust
  ./build-tsan/tests/test_tsdb
  ./build-tsan/tests/test_core
  ./build-tsan/tests/test_orf
  echo "CHECK OK"
  exit 0
fi

if $chaos_only; then
  echo "== chaos: crash/resume soak of orfd under ASan =="
  cmake -B build-asan -S . -DORF_SANITIZE=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
  # abort-at-failpoint is how this soak dies on purpose; a leak report on
  # those deliberate aborts would drown the signal.
  export ASAN_OPTIONS=detect_leaks=0
  BUILD_DIR=build-asan CHAOS_REPORT=build-asan/chaos_report.txt \
    ./scripts/chaos_smoke.sh
  echo "CHECK OK"
  exit 0
fi

if ! $asan_only && ! $faults_only; then
  echo "== tier-1: build + full test suite =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$(nproc)"
  ctest --test-dir build --output-on-failure -j "$(nproc)"
fi

cmake -B build-asan -S . -DORF_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  >/dev/null
export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
export ASAN_OPTIONS=detect_leaks=0

if ! $faults_only; then
  echo "== sanitizers: ASan+UBSan over engine + core + tsdb + orf + serve codec suites =="
  # One --target invocation with all the names: repeating the --target flag
  # is generator-dependent (Makefiles honour only the last one), while the
  # multi-name form is portable CMake >= 3.15 and fails the script on the
  # first broken target.
  cmake --build build-asan -j "$(nproc)" \
    --target test_engine test_core test_util test_robust test_tsdb test_orf \
    test_serve
  ./build-asan/tests/test_util
  ./build-asan/tests/test_core
  ./build-asan/tests/test_engine
  # The fuzz suites exist to be run under sanitizers: byte-flips,
  # truncations and random garbage against the checkpoint parsers and the
  # history store's Gorilla-codec decoder (a bit-level reader where an
  # overrun is exactly the kind of bug ASan turns from silent to loud).
  ./build-asan/tests/test_robust --gtest_filter='EnvelopeFuzz.*:Crc32.*'
  ./build-asan/tests/test_tsdb
  # The history consumers: replay windows, label-correction differentials,
  # retention GC — heavy on spans into reused buffers and on file mmaps,
  # exactly what ASan is for. Also the WAL batch codec fuzz suite and the
  # pooled save oracle (reserve-ahead buffers written by pool workers).
  ./build-asan/tests/test_orf
  # The request-body codec: a pull reader that decoders drive straight into
  # row buffers, fuzzed with truncations, substitutions and compound
  # mutations and diffed against the value-tree decoder.
  ./build-asan/tests/test_serve --gtest_filter='ServeJson.*:Codec*.*:HttpFuzz.*'
fi

if $faults_only; then
  echo "== faults: ASan+UBSan over recovery + failpoint suites =="
  cmake --build build-asan -j "$(nproc)" \
    --target test_robust test_integration backblaze_ingest
  ./build-asan/tests/test_robust
  # Exercise the env-var arming path end to end: the armed site must fire
  # (nonzero exit) and leave no sanitizer finding.
  if ORF_FAILPOINTS="checkpoint.rename=io_error" \
      ./build-asan/tests/test_robust \
      --gtest_filter='Recovery.SaveThenLoadReturnsNewest' >/dev/null 2>&1; then
    echo "ORF_FAILPOINTS had no effect" >&2
    exit 1
  fi
  ./build-asan/tests/test_integration --gtest_filter='Resume.*'
  echo "== faults: quarantine smoke (2% dirty rows) =="
  ./build-asan/examples/backblaze_ingest --scale 0.002 --dirt 0.02 \
    --out build-asan/dirty_fleet.csv \
    --quarantine-out build-asan/quarantine_sidecar.csv
  echo "sidecar: build-asan/quarantine_sidecar.csv"
fi

echo "CHECK OK"
