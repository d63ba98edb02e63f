#!/usr/bin/env bash
# Tier-1 verify + the CI entry points, in one command.
#
#   ci/check.sh                          # plain build + all suites
#   ci/check.sh --sanitize               # ASan/UBSan build, every suite
#   ci/check.sh --tsan                   # TSan build, concurrency suites
#                                        #   (util/hw/runtime/serving/
#                                        #   tensor_cache)
#   ci/check.sh --werror                 # add -DSMOL_WERROR=ON (combinable)
#   ci/check.sh --bench-smoke [out]      # bench_micro + bench_serving smoke
#                                        #   -> merged JSON snapshot
#                                        #   (default out: bench_smoke_ci.json,
#                                        #   gitignored; name a BENCH_*.json
#                                        #   to record a snapshot)
#   ci/check.sh --bench-compare OLD NEW  # fail if any benchmark in NEW
#                                        #   regressed >15% vs OLD, or a
#                                        #   benchmark in OLD is missing
#   ci/check.sh --format                 # clang-format check (check-only)
#   ci/check.sh -L unit                  # remaining args are passed to ctest
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
BUILD_DIR=build
MODE=check
CMAKE_ARGS=()
CTEST_ARGS=(--output-on-failure -j "${JOBS}")
BENCH_OUT=bench_smoke_ci.json
COMPARE_OLD=""
COMPARE_NEW=""
WANT_ASAN=0
WANT_TSAN=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --sanitize)
      shift
      WANT_ASAN=1
      BUILD_DIR=build-asan
      # Sanitizer runs cover every suite; tests/CMakeLists.txt scales the
      # per-suite timeouts by SMOL_TEST_TIMEOUT_FACTOR to absorb ASan
      # overhead.
      CMAKE_ARGS+=(-DSMOL_SANITIZE=ON -DSMOL_BUILD_BENCH=OFF
                   -DSMOL_BUILD_EXAMPLES=OFF)
      ;;
    --tsan)
      shift
      WANT_TSAN=1
      BUILD_DIR=build-tsan
      # TSan targets the threaded serving stack: the MPMC queue / histogram /
      # pool primitives, the simulated device's clock (shared by concurrent
      # batchers), batch runs, the sharded server, and the tensor cache's
      # shards (LRU lists and frequency sketches). The
      # compute-heavy single-threaded suites add hours under TSan for no
      # thread coverage, so the run is scoped to the concurrency suites.
      # SMOL_SANITIZE_THREAD also forces GoogleTest to build from source so
      # every library in the process is instrumented.
      CMAKE_ARGS+=(-DSMOL_SANITIZE_THREAD=ON -DSMOL_BUILD_BENCH=OFF
                   -DSMOL_BUILD_EXAMPLES=OFF)
      CTEST_ARGS+=(-R 'util_test|hw_test|runtime_test|serving_test|tensor_cache_test')
      ;;
    --werror)
      shift
      CMAKE_ARGS+=(-DSMOL_WERROR=ON)
      ;;
    --bench-smoke)
      shift
      MODE=bench-smoke
      if [[ $# -gt 0 && "$1" != -* ]]; then
        BENCH_OUT="$1"
        shift
      fi
      ;;
    --bench-compare)
      [[ $# -ge 3 ]] || {
        echo "usage: ci/check.sh --bench-compare OLD NEW" >&2
        exit 2
      }
      MODE=bench-compare
      COMPARE_OLD="$2"
      COMPARE_NEW="$3"
      shift 3
      ;;
    --format)
      shift
      MODE=format
      ;;
    *)
      CTEST_ARGS+=("$1")
      shift
      ;;
  esac
done

# The sanitizer configurations turn the bench targets off, so a sanitized
# bench smoke cannot exist — reject the combination instead of failing
# mid-build on a missing bench_micro target. ASan and TSan cannot share a
# process either.
if [[ "${MODE}" == bench-smoke && "${BUILD_DIR}" != build ]]; then
  echo "ci/check.sh: --bench-smoke cannot be combined with --sanitize/--tsan" >&2
  exit 2
fi
if [[ "${WANT_ASAN}" == 1 && "${WANT_TSAN}" == 1 ]]; then
  echo "ci/check.sh: --sanitize and --tsan are mutually exclusive" >&2
  exit 2
fi

# Compiler cache when available (the CI workflow restores ~/.cache/ccache).
if command -v ccache > /dev/null 2>&1; then
  CMAKE_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

case "${MODE}" in
  format)
    # Check-only: never rewrites. Mirrors the `format` CI job; skips (rather
    # than fails) where clang-format is not installed so the plain tier-1
    # gate stays runnable everywhere.
    if ! command -v clang-format > /dev/null 2>&1; then
      echo "clang-format not found; skipping format check" >&2
      exit 0
    fi
    mapfile -t FILES < <(git ls-files '*.h' '*.cc' '*.cpp')
    clang-format --dry-run --Werror "${FILES[@]}"
    echo "format check passed (${#FILES[@]} files)"
    ;;
  bench-compare)
    python3 ci/bench_compare.py "${COMPARE_OLD}" "${COMPARE_NEW}" \
      --threshold 0.15
    ;;
  bench-smoke)
    cmake -B "${BUILD_DIR}" -S . "${CMAKE_ARGS[@]}"
    cmake --build "${BUILD_DIR}" -j "${JOBS}" --target bench_micro \
      --target bench_serving
    # min_time 0.5s, best of 5 randomly interleaved repetitions: a single
    # 0.1s pass on the 1-core CI host jitters the ~100us microbenches past
    # the 15% regression gate, and the host's slow phases span minutes —
    # longer than 5 back-to-back repetitions. Interleaving spreads each
    # benchmark's repetitions across the whole run so they sample distinct
    # time windows; timing noise is one-sided (preemption and ambient load
    # only ever slow a run down), so the merge step below folds repetitions
    # to their minimum and keeps the bare benchmark name, comparable
    # across PR snapshots.
    "${BUILD_DIR}/bench/bench_micro" \
      --benchmark_min_time=0.5 \
      --benchmark_repetitions=5 \
      --benchmark_enable_random_interleaving=true \
      --benchmark_out="${BUILD_DIR}/bench_micro_smoke.json" \
      --benchmark_out_format=json
    # bench_serving carries its own pass/fail (throughput + cache +
    # adaptive-ladder checks) and emits the headline rows (poisson max load,
    # zipf cache off/on, adaptive burst static/on) in google-benchmark
    # format for the same regression gate.
    "${BUILD_DIR}/bench/bench_serving" --adaptive \
      --json "${BUILD_DIR}/bench_serving_smoke.json"
    python3 - "${BUILD_DIR}/bench_micro_smoke.json" \
      "${BUILD_DIR}/bench_serving_smoke.json" "${BENCH_OUT}" <<'PY'
import json, sys
micro, serving, out = sys.argv[1], sys.argv[2], sys.argv[3]
with open(micro, encoding="utf-8") as f:
    doc = json.load(f)
# Fold repetition rows (name/repetitions:N or plain repeats of one name)
# to the fastest repetition per benchmark; aggregate rows (_mean etc.)
# are dropped. Snapshot rows keep the bare name and look like a single
# iteration run so bench_compare matches them against older snapshots.
best = {}
order = []
for b in doc["benchmarks"]:
    if b.get("run_type") == "aggregate":
        continue
    name = b.get("run_name") or b.get("name", "")
    b["name"] = name
    b["run_type"] = "iteration"
    b.pop("repetition_index", None)
    if name not in best:
        best[name] = b
        order.append(name)
    elif b.get("real_time", 0.0) < best[name].get("real_time", 0.0):
        best[name] = b
doc["benchmarks"] = [best[n] for n in order]
with open(serving, encoding="utf-8") as f:
    doc["benchmarks"].extend(json.load(f)["benchmarks"])
with open(out, "w", encoding="utf-8") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
PY
    echo "bench smoke snapshot written to ${BENCH_OUT}"
    ;;
  check)
    cmake -B "${BUILD_DIR}" -S . "${CMAKE_ARGS[@]}"
    cmake --build "${BUILD_DIR}" -j "${JOBS}"
    (cd "${BUILD_DIR}" && ctest "${CTEST_ARGS[@]}")
    ;;
esac
