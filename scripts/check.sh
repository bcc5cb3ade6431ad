#!/usr/bin/env bash
# Full local gate, in escalating order of what each stage can catch:
#
#   optimized  build + full ctest (the tier-1 contract)
#   lint       splap-lint determinism rules over src/ and tests/, plus the
#              rule-by-rule fixture self-tests
#   graph      splap-graph call-graph/include-graph proofs over src/:
#              blocking-reachability (no handler-context path may reach a
#              suspension primitive), include-closure layering, and
#              Status-discard — plus the analyzer's own fixture self-tests
#   tidy       clang-tidy over src/ (skipped with a notice when the host has
#              no clang-tidy; the curated check set lives in .clang-tidy)
#   asan       ASan+UBSan build + full ctest
#   chaos      the fault-injection harness under ASan+UBSan (the code most
#              likely to touch freed records or stale buffers)
#   overload   the flow-control overload harness (bounded-RX incast,
#              partial-table sheds, credit loss, the MPL unexpected cap)
#              under both ASan+UBSan and SPLAP_AUDIT
#   recovery   the crash-stop recovery harness (tests labelled `recovery`:
#              kill/restart scenarios plus the crash chaos cases) run
#              optimized, under ASan+UBSan, and under SPLAP_AUDIT — a
#              crashed node's teardown must leak zero records and credits
#              beyond the forgiven crashed-epoch residue
#   scale      the engine scale-out harness (tests labelled `scale`): the
#              1024-node smoke, the stackless completion-pool equivalence
#              and the spawn-exhaustion path, run optimized, under
#              ASan+UBSan, and under SPLAP_AUDIT
#   partition  the partition / gray-failure harness (tests labelled
#              `partition`): asymmetric blackholes, split/merge of partition
#              groups, stragglers under legacy-vs-accrual detection, the
#              detector math units and the flap-leak test — run optimized,
#              under ASan+UBSan, and under SPLAP_AUDIT
#   rdma       the zero-copy transfer path (tests labelled `rdma`): protocol
#              selection, registration-cache lifecycle (LRU, epoch bumps),
#              scatter-direct assembly, FakeWire exactly-once under loss and
#              corruption, and the GA putv/getv wiring — run optimized,
#              under ASan+UBSan, and under SPLAP_AUDIT
#   tsan       ThreadSanitizer over the genuinely-concurrent code: the baton
#              handoff between actor threads, which also carries the event
#              loop from thread to thread (sim_engine_test, sim_sync_test and
#              the whole-stack integration_test), and the parallel sweep
#              driver (bench_fig2_bandwidth with SPLAP_SWEEP_THREADS=4)
#   audit      SPLAP_AUDIT build + full ctest: shadow-state lifecycle and
#              virtual-time race auditing across every suite, chaos included
#
# Stages can be selected by name: `scripts/check.sh lint audit` runs just
# those two; no arguments runs everything.
set -euo pipefail
cd "$(dirname "$0")/.."

STAGES="$*"
want() {
  [ -z "${STAGES}" ] && return 0
  case " ${STAGES} " in
    *" $1 "*) return 0 ;;
    *) return 1 ;;
  esac
}

if want optimized; then
  echo "== optimized build =="
  cmake -B build -S . >/dev/null
  cmake --build build -j"$(nproc)"
  ctest --test-dir build --output-on-failure
fi

if want lint; then
  echo "== determinism lint =="
  cmake -B build -S . >/dev/null
  cmake --build build -j"$(nproc)" --target splap_lint lint_selftest
  ctest --test-dir build -L lint --no-tests=error --output-on-failure
fi

if want graph; then
  echo "== call-graph contract proofs =="
  cmake -B build -S . >/dev/null
  cmake --build build -j"$(nproc)" --target splap_graph graph_selftest
  ctest --test-dir build -R 'graph_selftest|graph_tree' --no-tests=error \
    --output-on-failure
fi

if want tidy; then
  echo "== clang-tidy =="
  if command -v clang-tidy >/dev/null 2>&1; then
    cmake -B build -S . >/dev/null  # refreshes compile_commands.json
    # Headers are pulled in via the translation units that include them.
    find src -name '*.cpp' -print0 |
      xargs -0 -n 4 clang-tidy -p build --quiet
  else
    echo "SKIP: clang-tidy not installed on this host (config: .clang-tidy)"
  fi
fi

if want asan; then
  echo "== sanitized build (ASan+UBSan) =="
  cmake -B build-asan -S . -DSPLAP_SANITIZE=ON -DCMAKE_BUILD_TYPE=Debug >/dev/null
  cmake --build build-asan -j"$(nproc)"
  ctest --test-dir build-asan --output-on-failure
fi

if want chaos; then
  # An explicit sanitized pass over the chaos label even though the full
  # ctest run above already includes it (this stage keeps failing loudly if
  # the chaos label set ever becomes empty).
  echo "== chaos harness (ASan+UBSan) =="
  cmake -B build-asan -S . -DSPLAP_SANITIZE=ON -DCMAKE_BUILD_TYPE=Debug >/dev/null
  cmake --build build-asan -j"$(nproc)"
  ctest --test-dir build-asan -L chaos --no-tests=error --output-on-failure
fi

if want overload; then
  # Overload scenarios drive the credit/NACK recovery machinery through its
  # worst cases (drops of recovery traffic included), so they run under both
  # the memory sanitizers and the shadow-state auditor: a leaked credit or a
  # send record touched after reclamation fails here first.
  echo "== overload harness (ASan+UBSan) =="
  cmake -B build-asan -S . -DSPLAP_SANITIZE=ON -DCMAKE_BUILD_TYPE=Debug >/dev/null
  cmake --build build-asan -j"$(nproc)"
  ctest --test-dir build-asan -L overload --no-tests=error --output-on-failure
  echo "== overload harness (SPLAP_AUDIT) =="
  cmake -B build-audit -S . -DSPLAP_AUDIT=ON >/dev/null
  cmake --build build-audit -j"$(nproc)"
  ctest --test-dir build-audit -L overload --no-tests=error --output-on-failure
fi

if want recovery; then
  # Crash-stop recovery scenarios tear contexts down mid-flight, the exact
  # window where a stale timer or straggler ack can touch a reclaimed
  # record. The suite runs optimized first (the behavioural contract:
  # bounded detection, epoch rejection, full lease reclamation), then under
  # the memory sanitizers, then under SPLAP_AUDIT whose teardown ledger
  # forgives only the crashed incarnation's own residue.
  echo "== recovery harness (optimized) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j"$(nproc)"
  ctest --test-dir build -L recovery --no-tests=error --output-on-failure
  echo "== recovery harness (ASan+UBSan) =="
  cmake -B build-asan -S . -DSPLAP_SANITIZE=ON -DCMAKE_BUILD_TYPE=Debug >/dev/null
  cmake --build build-asan -j"$(nproc)"
  ctest --test-dir build-asan -L recovery --no-tests=error --output-on-failure
  echo "== recovery harness (SPLAP_AUDIT) =="
  cmake -B build-audit -S . -DSPLAP_AUDIT=ON >/dev/null
  cmake --build build-audit -j"$(nproc)"
  ctest --test-dir build-audit -L recovery --no-tests=error --output-on-failure
fi

if want scale; then
  # The engine scale-out machinery end to end: the scale-labelled tests run
  # optimized, then under ASan+UBSan, then under the SPLAP_AUDIT
  # race/lifecycle auditor.
  echo "== scale harness (optimized) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j"$(nproc)"
  ctest --test-dir build -L scale --no-tests=error --output-on-failure
  echo "== scale harness (ASan+UBSan) =="
  cmake -B build-asan -S . -DSPLAP_SANITIZE=ON -DCMAKE_BUILD_TYPE=Debug >/dev/null
  cmake --build build-asan -j"$(nproc)"
  ctest --test-dir build-asan -L scale --no-tests=error --output-on-failure
  echo "== scale harness (SPLAP_AUDIT) =="
  cmake -B build-audit -S . -DSPLAP_AUDIT=ON >/dev/null
  cmake --build build-audit -j"$(nproc)"
  ctest --test-dir build-audit -L scale --no-tests=error --output-on-failure
fi

if want partition; then
  # Partition windows stress the retry ladder, the quarantine queue and the
  # suspect/heal transitions — the states most likely to leak a credit lease
  # or revive a reclaimed send record. Optimized first (the behavioural
  # contract: heal inside the ladder, no split-brain, straggler survival),
  # then the memory sanitizers, then the SPLAP_AUDIT lifecycle ledger.
  echo "== partition harness (optimized) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j"$(nproc)"
  ctest --test-dir build -L partition --no-tests=error --output-on-failure
  echo "== partition harness (ASan+UBSan) =="
  cmake -B build-asan -S . -DSPLAP_SANITIZE=ON -DCMAKE_BUILD_TYPE=Debug >/dev/null
  cmake --build build-asan -j"$(nproc)"
  ctest --test-dir build-asan -L partition --no-tests=error --output-on-failure
  echo "== partition harness (SPLAP_AUDIT) =="
  cmake -B build-audit -S . -DSPLAP_AUDIT=ON >/dev/null
  cmake --build build-audit -j"$(nproc)"
  ctest --test-dir build-audit -L partition --no-tests=error --output-on-failure
fi

if want rdma; then
  # The zero-copy path off-by-default means the tier-1 golden suite never
  # exercises it; this stage is where the rdma label earns its keep, in all
  # three instrumentation regimes (a stale registration entry or a double
  # scatter lands in ASan; a zero-copy packet replayed across an epoch bump
  # lands in the audit ledger).
  echo "== rdma harness (optimized) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j"$(nproc)"
  ctest --test-dir build -L rdma --no-tests=error --output-on-failure
  echo "== rdma harness (ASan+UBSan) =="
  cmake -B build-asan -S . -DSPLAP_SANITIZE=ON -DCMAKE_BUILD_TYPE=Debug >/dev/null
  cmake --build build-asan -j"$(nproc)"
  ctest --test-dir build-asan -L rdma --no-tests=error --output-on-failure
  echo "== rdma harness (SPLAP_AUDIT) =="
  cmake -B build-audit -S . -DSPLAP_AUDIT=ON >/dev/null
  cmake --build build-audit -j"$(nproc)"
  ctest --test-dir build-audit -L rdma --no-tests=error --output-on-failure
fi

if want tsan; then
  echo "== thread-sanitized build (TSan) =="
  cmake -B build-tsan -S . -DSPLAP_SANITIZE=thread -DCMAKE_BUILD_TYPE=Debug >/dev/null
  cmake --build build-tsan -j"$(nproc)" --target sim_engine_test \
    sim_sync_test integration_test bench_fig2_bandwidth
  ./build-tsan/tests/sim_engine_test
  ./build-tsan/tests/sim_sync_test
  ./build-tsan/tests/integration_test
  SPLAP_SWEEP_THREADS=4 ./build-tsan/bench/bench_fig2_bandwidth
fi

if want audit; then
  echo "== audit build (SPLAP_AUDIT) =="
  cmake -B build-audit -S . -DSPLAP_AUDIT=ON >/dev/null
  cmake --build build-audit -j"$(nproc)"
  ctest --test-dir build-audit --output-on-failure
fi

echo "All checks passed."
