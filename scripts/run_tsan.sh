#!/usr/bin/env bash
# Build with ThreadSanitizer (-DPKB_SANITIZE=thread) and run the
# concurrency-heavy tests: the serving layer, session manager + admission,
# history store, observability registry, thread-pool, resilience/chaos, and
# lexicon-delta / rerank-during-publish suites. Usage, from anywhere:
#
#   scripts/run_tsan.sh [extra gtest filter]
#
# A separate build tree (build-tsan/) keeps the sanitized artifacts from
# polluting the normal build. Exits non-zero on any TSan report (halt on
# first error) or test failure.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="$repo_root/build-tsan"

filter="ServeServer*:BoundedQueue*:ShardedLruCache*:HistoryStore*:Metrics*:Tracer*:ThreadPool*:SimClock*:KnowledgeBase*:Ingest*:SnapshotPersist*:Resilience*:FaultPlan*:CircuitBreaker*:Chaos*:SimClockWait*:ShardRouter*:ShardEquivalence*:ShardChaos*:ShardKnowledgeBase*:ShardServe*:Kernels*:KernelsArena*:Quantize*:Hnsw*:Kmeans*:Pq*:AnnIndex*:AnnKnowledgeBase*:StageGraph*:StageParity*:TraceRecorder*:Replay*:Session*:LexiconDelta*:RerankDuringPublish*"
if [[ $# -ge 1 ]]; then
  filter="$filter:$1"
fi

cmake -B "$build_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPKB_SANITIZE=thread
cmake --build "$build_dir" --target pkb_tests -j "$(nproc)"

TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}" \
  "$build_dir/tests/pkb_tests" --gtest_filter="$filter"
echo "run_tsan: OK"
