#pragma once
// Live knowledge-base ingestion — the paper's central curation loop (§II,
// §V): resolved conversations and new documentation flow back into the
// corpus so the next question retrieves from a richer knowledge base,
// without a process restart.
//
// The Ingestor builds the *next* generation off to the side of serving
// traffic: it pins the current Snapshot as its base, chunks the incoming
// documents with the base's splitter options, merges them with the retained
// base chunks (upsert by "source": re-ingesting a source replaces its old
// chunks), embeds and analyses only what is new (the lexicon shares the
// retained chunks' analyses with the base), rebuilds the symbol index and
// the document frequencies, and publishes the result through
// KnowledgeBase::publish() — one pointer swap.
//
// Embedder lifecycle: a delta build reuses the base's fitted embedder and
// copies retained vectors bit-identically (VectorStore::add_prenormalized),
// so existing chunks score exactly as before. When the chunk list has
// drifted more than `refit_drift_threshold` since the embedder was last
// fitted, the build refits on the full merged corpus and re-embeds
// everything — retrieval quality tracks the corpus at a bounded cost.
//
// Observable as the ingest_build span, the pkb_ingest_* counters and
// histogram, and the knowledge base's own generation gauge and kb_swap span
// (docs/OBSERVABILITY.md).

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "history/store.h"
#include "rag/knowledge_base.h"
#include "resilience/fault_plan.h"

namespace pkb::ingest {

struct IngestorOptions {
  /// Fractional chunk-count growth since the last embedder fit that
  /// triggers a full refit + re-embed instead of a delta merge.
  double refit_drift_threshold = 0.25;
  /// Minimum mean blind score (Table I rubric, 0..4) for a history record
  /// to qualify for ingest_vetted_history().
  double min_mean_score = 3.0;
  /// Also ingest unscored human-authored answers (model == "").
  bool trust_unscored_human = true;
};

/// Cumulative ingestion statistics (monotonic).
struct IngestStats {
  std::uint64_t builds = 0;        ///< generations built and published
  std::uint64_t docs = 0;          ///< source documents ingested
  std::uint64_t chunks_added = 0;  ///< new chunks embedded
  std::uint64_t refits = 0;        ///< builds that refitted the embedder
  std::uint64_t aborted_builds = 0;  ///< builds lost to injected faults
};

/// Builds and publishes knowledge-base generations. All entry points are
/// serialized internally, so concurrent callers (the chat bot's resolution
/// hook, a docs watcher) cannot race a build; readers of the KnowledgeBase
/// are never blocked.
class Ingestor {
 public:
  /// `kb` must outlive the ingestor.
  explicit Ingestor(rag::KnowledgeBase& kb, IngestorOptions opts = {});

  /// Ingest Markdown files: chunk, merge (upsert by path), publish. Returns
  /// the published snapshot, or nullptr when `files` is empty.
  rag::SnapshotPtr ingest_files(const text::VirtualDir& files);

  /// Ingest one resolved Q&A exchange as a synthetic Markdown document with
  /// path `source_id` (re-ingesting the same id updates it in place).
  rag::SnapshotPtr ingest_qa(std::string_view source_id,
                             std::string_view title, std::string_view question,
                             std::string_view answer);

  /// Ingest every vetted record of `store` (mean score >= min_mean_score,
  /// plus unscored human answers when trusted) that has not been ingested by
  /// this Ingestor before. One new generation for the whole batch; returns
  /// nullptr when nothing qualifies.
  rag::SnapshotPtr ingest_vetted_history(const history::HistoryStore& store);

  [[nodiscard]] IngestStats stats() const;
  /// Seconds spent inside each publish's swap critical section, in publish
  /// order (what bench/ingest_swap summarizes).
  [[nodiscard]] std::vector<double> swap_history() const;

  /// Attach a chaos plan (Stage::Ingest). A transient fault earns the build
  /// one immediate retry; a permanent or timeout fault aborts the build —
  /// the base generation stays published and the entry point returns
  /// nullptr (counted in stats().aborted_builds and
  /// pkb_resilience_ingest_aborts_total). Setup-time only; the plan must
  /// outlive the ingestor.
  void set_fault_plan(const resilience::FaultPlan* plan) {
    fault_plan_ = plan;
  }

  [[nodiscard]] const rag::KnowledgeBase& kb() const { return kb_; }
  [[nodiscard]] const IngestorOptions& options() const { return opts_; }

 private:
  /// Chunk `files`, merge with the pinned base, build + publish the next
  /// generation. Caller holds mu_.
  rag::SnapshotPtr build_and_publish_locked(const text::VirtualDir& files);

  rag::KnowledgeBase& kb_;
  IngestorOptions opts_;
  const resilience::FaultPlan* fault_plan_ = nullptr;
  mutable std::mutex mu_;  ///< serializes builds and guards the state below
  IngestStats stats_;
  std::vector<double> swap_seconds_;
  std::unordered_set<std::uint64_t> ingested_history_ids_;
};

}  // namespace pkb::ingest
