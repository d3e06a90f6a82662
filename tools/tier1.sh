#!/usr/bin/env bash
# Tier-1 verification: the default build + full test suite, then the same
# suite under AddressSanitizer + UBSan (the `asan` CMake preset), then the
# concurrency suites (serve + threading + chaos + the ParallelSampler,
# PiMatrix and DistributedSampler suites) and the pinned kernel bits of
# the portable bodies under ThreadSanitizer (the `tsan` preset). Run from
# anywhere; the build trees live next to the sources (build/,
# build-asan/, build-tsan/).
#
#   tools/tier1.sh               # default + asan + tsan
#   SKIP_ASAN=1 tools/tier1.sh   # skip the asan pass (fast local loop)
#   SKIP_TSAN=1 tools/tier1.sh   # skip the tsan pass
set -euo pipefail
cd "$(dirname "$0")/.."

# Each step's wall time is recorded here and printed as a summary at the
# end, so slow suites are visible without scrolling through ctest logs.
SUMMARY=()
timed() {  # timed <name> <command...>
  local name=$1; shift
  local t0=$SECONDS
  "$@"
  SUMMARY+=("$(printf '%-28s %4ds' "$name" $((SECONDS - t0)))")
}

# The labeled suites (chaos, tune, quant, sparse, serve, proc, kernels)
# are run by label so a mislabeled/undiscovered suite fails loudly
# instead of silently shrinking the full run:
#   chaos   — fault injection + recovery
#   tune    — autotuner acceptance (tuned-vs-exhaustive)
#   quant   — pi-row quantization incl. the perplexity-tolerance gate
#   sparse  — sparse top-R codec, kernels, DKV accounting, checkpoints
#   serve   — serving index/query engine/traffic incl. snapshot swap
#   proc    — multi-process backend: sockets, forked workers, sim parity
#   kernels — pinned output bits of the fused kernels; run verbose so
#             the log shows which ISA clone (avx2/default) was checked
run_preset() {  # run_preset <preset>
  local preset=$1
  timed "$preset: full suite" ctest --preset "$preset" -j
  local label verbose
  for label in chaos tune quant sparse serve proc kernels; do
    verbose=()
    [[ $label == kernels ]] && verbose=(--verbose)
    timed "$preset: -L $label" \
      ctest --preset "$preset" -L "$label" --no-tests=error \
        --output-on-failure "${verbose[@]}"
  done
}

echo "== tier-1: default preset =="
timed "default: configure+build" bash -c \
  'cmake --preset default && cmake --build --preset default -j'
run_preset default

if [[ "${SKIP_ASAN:-0}" != "1" ]]; then
  echo "== tier-1: asan preset =="
  timed "asan: configure+build" bash -c \
    'cmake --preset asan && cmake --build --preset asan -j'
  run_preset asan
fi

# TSan pass: the lock-free snapshot swap and the thread pool are exactly
# the code where a missed fence shows up as a rare torn read, so the
# concurrency-heavy labels run under ThreadSanitizer — chaos among them,
# whose fault-injected sim runs crash, stall and recover ranks that are
# threads sharing one store and one transport — together with the
# ParallelSampler suites, whose stages claim work from a shared atomic
# cursor, the PiMatrix suite, whose pool init claims rows the same way,
# and the DistributedSampler suites, whose constructor builds the store
# image on a transient pool and whose sim ranks run as threads. Scoped
# to those (TSan slows everything ~10x; the rest of the suite is covered
# by the asan pass).
if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
  echo "== tier-1: tsan preset (serve + threading + chaos + samplers + pi init) =="
  timed "tsan: configure+build" bash -c \
    'cmake --preset tsan && cmake --build --preset tsan -j'
  timed "tsan: -L serve|threading|chaos" \
    ctest --preset tsan -L 'serve|threading|chaos' --no-tests=error \
      --output-on-failure
  # SCD_KERNEL builds no clones under TSan, so this checks the portable
  # kernel bodies against the same pinned hashes the AVX2 clones match.
  timed "tsan: -L kernels" \
    ctest --preset tsan -L kernels --no-tests=error --output-on-failure \
      --verbose
  timed "tsan: samplers + pi init" \
    ctest --preset tsan \
      -R 'Parallel(EquivalenceTest|SamplerTest|SamplerThreadsTest)\.|PiMatrixTest\.|DistributedSamplerTest\.|DistributedEquivalenceTest\.' \
      --no-tests=error --output-on-failure
fi

# Bench drift guard: diff the deterministic modeled benches against their
# committed JSON baselines. Runs from the default tree only — the asan
# preset builds with SCD_BUILD_BENCH=OFF (and drift is build-type
# independent anyway: the benches measure virtual time, not wall time).
echo "== tier-1: bench baselines =="
timed "default: check_bench" \
  cmake --build --preset default -j --target check_bench

echo "== tier-1: wall-time summary =="
for line in "${SUMMARY[@]}"; do echo "  $line"; done

echo "tier-1: all green"
