#pragma once
// The retrieval phase (§III-B/C/D): embedding search (first pass, K
// candidates) + PETSc keyword augmentation + optional reranking down to L.
//
// Generational model: every retrieval runs against one pinned Snapshot and
// the result carries that SnapshotPtr, so the contexts' Document pointers
// stay valid even after the knowledge base publishes newer generations.
// Callers that already pinned a snapshot (the serve layer does, to keep its
// caches generation-consistent) pass it to the *_on entry points; the plain
// entry points pin the current generation themselves.

#include <cstdint>
#include <memory>
#include <string>

#include "rag/knowledge_base.h"
#include "rerank/reranker.h"
#include "resilience/fault_plan.h"

namespace pkb::rag {

/// Retrieval configuration. The paper's setting is K = 8, L = 4.
struct RetrieverOptions {
  std::size_t first_pass_k = 8;  ///< vector-search candidates
  std::size_t final_l = 4;       ///< contexts kept after reranking
  bool use_keyword_search = true;
  /// Reranker registry name; empty disables the rerank stage (plain RAG).
  std::string reranker = "sim-flashrank";
};

/// One retrieved context with provenance. `doc` points into the snapshot
/// pinned by the owning RetrievalResult.
struct RetrievedContext {
  const text::Document* doc = nullptr;
  double score = 0.0;
  /// "vector", "keyword", or "vector+keyword" — how the candidate was found.
  std::string via;
  /// Rank in the first pass (0-based; keyword-only candidates rank after all
  /// vector candidates in arrival order).
  std::size_t first_pass_rank = 0;
  /// Index of `doc` in the pinned snapshot's chunk list (what the reranker
  /// reads the chunk's analysis by); lexical::kNoChunk when unknown.
  std::size_t chunk = lexical::kNoChunk;
};

/// Full retrieval outcome with stage timings (feeds Table II).
struct RetrievalResult {
  /// The generation this retrieval ran against. Owning this pointer is what
  /// keeps every `doc` pointer in `contexts` alive across later publishes.
  SnapshotPtr snapshot;
  /// Final contexts, best first. Plain RAG: first-pass order; rerank arm:
  /// rerank order, truncated to L.
  std::vector<RetrievedContext> contexts;
  /// The first-pass candidates before reranking (for the case-study benches
  /// that diff the two arms' context sets).
  std::vector<RetrievedContext> first_pass;
  double embed_seconds = 0.0;    ///< query embedding
  double search_seconds = 0.0;   ///< vector search + keyword lookup
  double rerank_seconds = 0.0;   ///< rerank stage (0 when disabled)
  /// The rerank stage failed (injected fault/timeout) and `contexts` is the
  /// unreranked first-pass order — the first rung of the degradation ladder.
  bool rerank_degraded = false;
  /// Scatter–gather shard accounting (0/0 on the monolithic path). A
  /// nonzero shards_failed tags the answer partial: the first pass covered
  /// only the surviving shards' documents. All shards failing raises a
  /// FaultError instead (degradation ladder: NoRetrieval), so shards_failed
  /// < shards_total whenever a result is returned.
  std::size_t shards_failed = 0;
  std::size_t shards_total = 0;
  /// The query embedding that produced the first pass (shared so copies of
  /// the result stay cheap). Carried for the record/replay subsystem: a
  /// trace of a precomputed-retrieval request still captures the Embed
  /// artifact. Null only for an empty (degraded) result.
  std::shared_ptr<const embed::Vector> query_embedding;
  /// Set once this retrieval's rag_seconds() has been charged to a request
  /// deadline budget (PromptStage). Guarantees a retrieval's wall time is
  /// charged exactly once however the result reaches the workflow — ask(),
  /// ask_with_retrieval(), or a batch path that pre-charged it.
  bool budget_charged = false;
  [[nodiscard]] bool partial() const { return shards_failed > 0; }
  /// Total RAG processing time (embed + search + rerank).
  [[nodiscard]] double rag_seconds() const {
    return embed_seconds + search_seconds + rerank_seconds;
  }
  /// Generation id of the pinned snapshot (0 when unset).
  [[nodiscard]] std::uint64_t generation() const {
    return snapshot ? snapshot->generation : 0;
  }
};

/// Bound to a KnowledgeBase; owns one stateless reranker. All retrieval
/// entry points are const and safe to call concurrently from many threads
/// without locks: snapshots are immutable, and the reranker scores from the
/// pinned snapshot's lexicon, so a new generation needs no refit.
class Retriever {
 public:
  Retriever(const KnowledgeBase& kb, RetrieverOptions opts = {});

  [[nodiscard]] RetrievalResult retrieve(std::string_view query) const;

  /// As retrieve(), but against an explicitly pinned generation. The serve
  /// layer pins once per request and passes the same snapshot to embedding
  /// and retrieval so the two can never straddle a publish.
  [[nodiscard]] RetrievalResult retrieve_on(const SnapshotPtr& snap,
                                            std::string_view query) const;

  /// As retrieve_on(), but with the query embedding supplied by the caller
  /// (e.g. the serve layer's embedding memo cache). `query_vec` must equal
  /// snap->embedder->embed(query) for the result to match retrieve_on();
  /// embed_seconds is reported as 0 (no embedding work happened here).
  [[nodiscard]] RetrievalResult retrieve_with_embedding(
      const SnapshotPtr& snap, std::string_view query,
      const embed::Vector& query_vec) const;

  /// Batched retrieval: embeds every query, runs one amortized
  /// VectorStore::similarity_search_batch scan, then completes keyword
  /// augmentation and reranking per query. Element i is identical in
  /// content to retrieve(queries[i]) on the same snapshot.
  [[nodiscard]] std::vector<RetrievalResult> retrieve_batch(
      const std::vector<std::string>& queries) const;

  /// Batched retrieval with caller-supplied query embeddings (the serve
  /// layer's memo cache); `vecs` is parallel to `queries`. embed_seconds is
  /// reported as 0.
  [[nodiscard]] std::vector<RetrievalResult> retrieve_batch_with_embeddings(
      const SnapshotPtr& snap, const std::vector<std::string>& queries,
      const std::vector<embed::Vector>& vecs) const;

  [[nodiscard]] const RetrieverOptions& options() const { return opts_; }
  [[nodiscard]] bool reranking_enabled() const {
    return !opts_.reranker.empty();
  }

  // --- stage-level entry points -------------------------------------------
  // The retrieval phase decomposed along the stage-graph cut points
  // (rag/stage_graph.h). retrieve_on() is exactly embed_stage ->
  // search_stage -> augment_stage -> rerank_stage; the stage graph and the
  // replay engine run the same pieces individually, so there is one
  // definition of each stage's behaviour. All are const and thread-safe.

  /// Embed `query` against `snap` (embed_query span, embed_seconds,
  /// result.query_embedding).
  void embed_stage(const Snapshot& snap, std::string_view query,
                   RetrievalResult& result) const;

  /// First-pass vector hits for an already-embedded query (vector_search
  /// span, search_seconds, shard accounting). Throws FaultError when the
  /// search is lost past its hedges.
  [[nodiscard]] std::vector<vectordb::SearchResult> search_stage(
      const Snapshot& snap, const embed::Vector& query_vec,
      RetrievalResult& result) const;

  /// Keyword augmentation + candidate assembly (keyword_augment span,
  /// provenance counters); fills result.first_pass.
  void augment_stage(const Snapshot& snap, std::string_view query,
                     const std::vector<vectordb::SearchResult>& vector_hits,
                     RetrievalResult& result) const;

  /// Rerank result.first_pass down to L into result.contexts (rerank span;
  /// a faulted rerank degrades to first-pass order), or pass first-pass
  /// order through when reranking is disabled.
  void rerank_stage(const Snapshot& snap, std::string_view query,
                    RetrievalResult& result) const;

  /// Observe the per-stage latency histograms for a completed retrieval.
  void observe_retrieval_metrics(const RetrievalResult& result) const;

  /// Attach a chaos plan. Vector-search decisions are consulted here (the
  /// snapshot's store is immutable, so the retriever is the injection
  /// point on the serving path) with up to `search_hedges` hedged
  /// re-attempts before the fault propagates; the plan is also handed to
  /// the reranker, whose rerank faults are caught in rerank_stage and
  /// degrade to first-pass order. Pass nullptr to detach. Setup-time only —
  /// must not race in-flight retrievals.
  void set_fault_plan(const pkb::resilience::FaultPlan* plan,
                      std::uint32_t search_hedges = 1);
  [[nodiscard]] const KnowledgeBase& kb() const { return kb_; }
  /// Compat name for the pre-generational accessor.
  [[nodiscard]] const KnowledgeBase& db() const { return kb_; }

 private:
  /// Stages 2..4 of retrieval: keyword augmentation, provenance metrics,
  /// reranking. `vector_hits` are the first-pass hits for `query` against
  /// `snap`; `result` carries the embed timing already accounted by the
  /// caller and has `result.snapshot` set.
  void assemble_from_hits(const Snapshot& snap, std::string_view query,
                          const std::vector<vectordb::SearchResult>& vector_hits,
                          RetrievalResult& result) const;

  /// Vector search with fault consultation and hedged re-attempts; the
  /// single-query and batched paths share the retry shape through the
  /// `search` callable.
  template <typename SearchFn>
  auto search_with_hedge(SearchFn&& search) const
      -> decltype(search());

  /// First-pass vector hits for one query: the snapshot's ShardRouter when
  /// sharding is on (per-shard hedging and breakers inside; shard losses
  /// tagged on `result`), the monolithic hedged scan otherwise. Throws a
  /// FaultError when no shard (or the single scan, past its hedges) could
  /// answer.
  [[nodiscard]] std::vector<vectordb::SearchResult> first_pass_hits(
      const Snapshot& snap, const embed::Vector& query_vec,
      RetrievalResult& result) const;

  const KnowledgeBase& kb_;
  RetrieverOptions opts_;
  /// Made once from opts_.reranker; null when reranking is off.
  std::unique_ptr<rerank::Reranker> ranker_;
  const pkb::resilience::FaultPlan* fault_plan_ = nullptr;
  std::uint32_t search_hedges_ = 1;
};

}  // namespace pkb::rag
