#include "rag/retriever.h"

#include <algorithm>
#include <unordered_map>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/clock.h"
#include "util/thread_pool.h"
#include "vectordb/shard_router.h"

namespace pkb::rag {

void Retriever::observe_retrieval_metrics(const RetrievalResult& result) const {
  obs::MetricsRegistry& metrics = obs::global_metrics();
  metrics.histogram(obs::kRetrieveEmbedSeconds).observe(result.embed_seconds);
  metrics.histogram(obs::kRetrieveSearchSeconds)
      .observe(result.search_seconds);
  metrics.histogram(obs::kRetrieveRagSeconds).observe(result.rag_seconds());
}

Retriever::Retriever(const KnowledgeBase& kb, RetrieverOptions opts)
    : kb_(kb), opts_(std::move(opts)) {
  if (!opts_.reranker.empty()) ranker_ = rerank::make_reranker(opts_.reranker);
}

void Retriever::set_fault_plan(const pkb::resilience::FaultPlan* plan,
                               std::uint32_t search_hedges) {
  fault_plan_ = plan;
  search_hedges_ = search_hedges;
  if (ranker_ != nullptr) ranker_->set_fault_plan(plan);
}

template <typename SearchFn>
auto Retriever::search_with_hedge(SearchFn&& search) const
    -> decltype(search()) {
  namespace res = pkb::resilience;
  for (std::uint32_t attempt = 0;; ++attempt) {
    try {
      res::consult(fault_plan_, res::Stage::VectorSearch);
      auto hits = search();
      if (attempt > 0) {
        obs::global_metrics()
            .counter(obs::kResilienceHedgeWinsTotal,
                     {{"stage", "vector_search"}})
            .inc();
      }
      return hits;
    } catch (const res::FaultError&) {
      if (attempt >= search_hedges_) throw;
      obs::global_metrics()
          .counter(obs::kResilienceHedgesTotal, {{"stage", "vector_search"}})
          .inc();
      obs::Span span(obs::global_tracer(), obs::kSpanHedge);
      span.set_attr("stage", "vector_search");
      span.set_attr("attempt", static_cast<std::uint64_t>(attempt) + 1);
    }
  }
}

std::vector<vectordb::SearchResult> Retriever::first_pass_hits(
    const Snapshot& snap, const embed::Vector& query_vec,
    RetrievalResult& result) const {
  namespace res = pkb::resilience;
  if (snap.shards != nullptr) {
    // Scatter–gather: hedging, fault consultation, and per-shard breakers
    // live inside the router, so no search_with_hedge wrapper here. A lost
    // shard degrades the result (partial, tagged); only every shard failing
    // escalates to the caller's degradation ladder.
    const vectordb::ScatterOptions sopts{fault_plan_, search_hedges_};
    vectordb::Scatter sc =
        snap.shards->search(query_vec, opts_.first_pass_k, nullptr, sopts);
    if (sc.shards_total > 0 && sc.shards_failed == sc.shards_total) {
      throw res::TransientError(res::Stage::VectorSearch,
                                "shard scatter: every shard failed");
    }
    result.shards_failed = sc.shards_failed;
    result.shards_total = sc.shards_total;
    return std::move(sc.hits);
  }
  if (snap.ann != nullptr) {
    // Monolithic ANN path (opts.index): same hedging as the exact scan.
    return search_with_hedge(
        [&] { return snap.ann->search(query_vec, opts_.first_pass_k); });
  }
  return search_with_hedge([&] {
    return snap.store.similarity_search(query_vec, opts_.first_pass_k);
  });
}

void Retriever::embed_stage(const Snapshot& snap, std::string_view query,
                            RetrievalResult& result) const {
  pkb::util::Stopwatch watch;
  auto vec = std::make_shared<embed::Vector>();
  {
    obs::Span embed_span(obs::global_tracer(), obs::kSpanEmbedQuery);
    *vec = snap.embedder->embed(query);
    embed_span.set_attr("embedder", snap.embedder->name());
    embed_span.set_attr("dim", vec->size());
  }
  result.query_embedding = std::move(vec);
  result.embed_seconds = watch.seconds();
}

std::vector<vectordb::SearchResult> Retriever::search_stage(
    const Snapshot& snap, const embed::Vector& query_vec,
    RetrievalResult& result) const {
  pkb::util::Stopwatch watch;
  std::vector<vectordb::SearchResult> vector_hits;
  {
    obs::Span search_span(obs::global_tracer(), obs::kSpanVectorSearch);
    vector_hits = first_pass_hits(snap, query_vec, result);
    search_span.set_attr("hits", vector_hits.size());
  }
  result.search_seconds = watch.seconds();
  return vector_hits;
}

void Retriever::augment_stage(
    const Snapshot& snap, std::string_view query,
    const std::vector<vectordb::SearchResult>& vector_hits,
    RetrievalResult& result) const {
  obs::MetricsRegistry& metrics = obs::global_metrics();
  pkb::util::Stopwatch watch;

  // --- First pass 2/2: PETSc keyword augmentation (§III-C). ---
  // Candidates dedup by chunk id: vector hits point into the store's copy
  // of the documents, keyword hits into the snapshot's chunk list.
  std::vector<RetrievedContext> candidates;
  std::unordered_map<std::string_view, std::size_t> pos;
  for (const vectordb::SearchResult& hit : vector_hits) {
    RetrievedContext ctx;
    ctx.doc = hit.doc;
    ctx.score = hit.score;
    ctx.via = "vector";
    ctx.first_pass_rank = candidates.size();
    ctx.chunk = hit.index;
    pos.emplace(hit.doc->id, candidates.size());
    candidates.push_back(std::move(ctx));
  }
  if (opts_.use_keyword_search) {
    obs::Span keyword_span(obs::global_tracer(), obs::kSpanKeywordAugment);
    std::size_t added = 0;
    std::size_t merged = 0;
    for (const lexical::KeywordHit& hit : snap.symbols->lookup(query)) {
      for (std::size_t chunk_index : hit.chunks) {
        const text::Document* doc = &snap.chunks[chunk_index];
        auto it = pos.find(std::string_view(doc->id));
        if (it != pos.end()) {
          if (candidates[it->second].via == "vector") ++merged;
          candidates[it->second].via = "vector+keyword";
          continue;
        }
        RetrievedContext ctx;
        ctx.doc = doc;
        ctx.score = 0.0;  // keyword hits carry no embedding score
        ctx.via = "keyword";
        ctx.first_pass_rank = candidates.size();
        ctx.chunk = chunk_index;
        pos.emplace(std::string_view(doc->id), candidates.size());
        candidates.push_back(std::move(ctx));
        ++added;
      }
    }
    keyword_span.set_attr("added", added);
    keyword_span.set_attr("merged", merged);
  }
  result.search_seconds += watch.seconds();
  result.first_pass = candidates;

  // Candidate provenance counters (one registry lookup per label value).
  {
    std::size_t by_via[3] = {0, 0, 0};
    for (const RetrievedContext& ctx : candidates) {
      if (ctx.via == "vector") ++by_via[0];
      else if (ctx.via == "keyword") ++by_via[1];
      else ++by_via[2];
    }
    static constexpr std::string_view kVia[3] = {"vector", "keyword",
                                                 "vector+keyword"};
    for (int i = 0; i < 3; ++i) {
      if (by_via[i] > 0) {
        metrics
            .counter(obs::kRetrieveCandidatesTotal,
                     {{"via", std::string(kVia[i])}})
            .inc(by_via[i]);
      }
    }
  }
}

void Retriever::rerank_stage(const Snapshot& snap, std::string_view query,
                             RetrievalResult& result) const {
  // --- Second pass: reranking K (+ keyword extras) down to L (§III-D). ---
  const std::vector<RetrievedContext>& candidates = result.first_pass;
  if (ranker_ != nullptr) {
    pkb::util::Stopwatch watch;
    obs::Span rerank_span(obs::global_tracer(), obs::kSpanRerank);
    rerank_span.set_attr("reranker", ranker_->name());
    rerank_span.set_attr("in", candidates.size());
    std::vector<rerank::RerankCandidate> rc;
    rc.reserve(candidates.size());
    for (const RetrievedContext& ctx : candidates) {
      rc.push_back(rerank::RerankCandidate{
          ctx.doc, static_cast<float>(ctx.score), ctx.chunk});
    }
    try {
      const auto reranked =
          ranker_->rerank(*snap.lexicon, query, rc, opts_.final_l);
      result.contexts.clear();
      for (const rerank::RerankResult& rr : reranked) {
        RetrievedContext ctx = candidates[rr.original_rank];
        ctx.score = rr.score;
        result.contexts.push_back(std::move(ctx));
      }
    } catch (const pkb::resilience::FaultError&) {
      // First rung of the degradation ladder: a failed/timed-out rerank
      // serves the first-pass order instead of failing the request.
      result.contexts = candidates;
      result.rerank_degraded = true;
      rerank_span.set_attr("degraded", true);
    }
    rerank_span.set_attr("out", result.contexts.size());
    result.rerank_seconds = watch.seconds();
  } else {
    // Plain RAG: first-pass order, unreranked. All candidates are passed on;
    // the model's attention window (L) decides what is actually read.
    result.contexts = candidates;
  }
}

RetrievalResult Retriever::retrieve(std::string_view query) const {
  return retrieve_on(kb_.snapshot(), query);
}

void Retriever::assemble_from_hits(
    const Snapshot& snap, std::string_view query,
    const std::vector<vectordb::SearchResult>& vector_hits,
    RetrievalResult& result) const {
  augment_stage(snap, query, vector_hits, result);
  rerank_stage(snap, query, result);
}

RetrievalResult Retriever::retrieve_on(const SnapshotPtr& snap,
                                       std::string_view query) const {
  obs::global_metrics().counter(obs::kRetrieveRequestsTotal).inc();
  obs::Span span(obs::global_tracer(), obs::kSpanRetrieve);
  span.set_attr("k", opts_.first_pass_k);
  span.set_attr("l", opts_.final_l);
  span.set_attr("generation", snap->generation);

  RetrievalResult result;
  result.snapshot = snap;

  // --- First pass 1/2: embedding search (box 1 of Fig 3). ---
  embed_stage(*snap, query, result);
  const std::vector<vectordb::SearchResult> vector_hits =
      search_stage(*snap, *result.query_embedding, result);
  assemble_from_hits(*snap, query, vector_hits, result);
  span.set_attr("candidates", result.first_pass.size());
  span.set_attr("kept", result.contexts.size());
  observe_retrieval_metrics(result);
  return result;
}

RetrievalResult Retriever::retrieve_with_embedding(
    const SnapshotPtr& snap, std::string_view query,
    const embed::Vector& query_vec) const {
  obs::global_metrics().counter(obs::kRetrieveRequestsTotal).inc();
  obs::Span span(obs::global_tracer(), obs::kSpanRetrieve);
  span.set_attr("k", opts_.first_pass_k);
  span.set_attr("l", opts_.final_l);
  span.set_attr("generation", snap->generation);

  RetrievalResult result;
  result.snapshot = snap;
  result.query_embedding = std::make_shared<embed::Vector>(query_vec);
  const std::vector<vectordb::SearchResult> vector_hits =
      search_stage(*snap, query_vec, result);
  assemble_from_hits(*snap, query, vector_hits, result);
  span.set_attr("candidates", result.first_pass.size());
  span.set_attr("kept", result.contexts.size());
  observe_retrieval_metrics(result);
  return result;
}

std::vector<RetrievalResult> Retriever::retrieve_batch(
    const std::vector<std::string>& queries) const {
  if (queries.empty()) return {};
  const SnapshotPtr snap = kb_.snapshot();
  // Embed every query in parallel (the embedder is thread-safe after fit).
  pkb::util::Stopwatch watch;
  std::vector<embed::Vector> vecs(queries.size());
  pkb::util::parallel_for(
      0, queries.size(),
      [&](std::size_t i) { vecs[i] = snap->embedder->embed(queries[i]); },
      /*min_block=*/1);
  const double embed_total = watch.seconds();

  std::vector<RetrievalResult> out =
      retrieve_batch_with_embeddings(snap, queries, vecs);
  // Attribute the shared embedding time evenly across the batch.
  const double share = embed_total / static_cast<double>(queries.size());
  for (RetrievalResult& r : out) r.embed_seconds = share;
  return out;
}

std::vector<RetrievalResult> Retriever::retrieve_batch_with_embeddings(
    const SnapshotPtr& snap, const std::vector<std::string>& queries,
    const std::vector<embed::Vector>& vecs) const {
  std::vector<RetrievalResult> out(queries.size());
  if (queries.empty()) return out;
  obs::MetricsRegistry& metrics = obs::global_metrics();
  metrics.counter(obs::kRetrieveRequestsTotal).inc(queries.size());

  // One amortized scan for the whole batch.
  pkb::util::Stopwatch watch;
  std::vector<std::vector<vectordb::SearchResult>> all_hits;
  std::size_t shards_failed = 0;
  std::size_t shards_total = 0;
  {
    obs::Span span(obs::global_tracer(), obs::kSpanVectorSearchBatch);
    span.set_attr("queries", queries.size());
    span.set_attr("k", opts_.first_pass_k);
    if (snap->shards != nullptr) {
      // Sharded: every shard runs one amortized batch scan; shard losses
      // are shared by the whole batch (see ShardRouter::search_batch).
      const vectordb::ScatterOptions sopts{fault_plan_, search_hedges_};
      std::vector<vectordb::Scatter> scatters =
          snap->shards->search_batch(vecs, opts_.first_pass_k, nullptr,
                                     sopts);
      shards_failed = scatters[0].shards_failed;
      shards_total = scatters[0].shards_total;
      if (shards_total > 0 && shards_failed == shards_total) {
        throw pkb::resilience::TransientError(
            pkb::resilience::Stage::VectorSearch,
            "shard scatter: every shard failed");
      }
      all_hits.reserve(scatters.size());
      for (vectordb::Scatter& sc : scatters) {
        all_hits.push_back(std::move(sc.hits));
      }
    } else if (snap->ann != nullptr) {
      all_hits = search_with_hedge([&] {
        return snap->ann->search_batch(vecs, opts_.first_pass_k);
      });
    } else {
      all_hits = search_with_hedge([&] {
        return snap->store.similarity_search_batch(vecs, opts_.first_pass_k);
      });
    }
  }
  const double search_total = watch.seconds();

  // Per-query completion: keyword augmentation + rerank. The shared scan
  // time is attributed evenly across the batch so per-query rag_seconds
  // still sums to the batch's true stage cost.
  const double n = static_cast<double>(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    obs::Span span(obs::global_tracer(), obs::kSpanRetrieve);
    span.set_attr("k", opts_.first_pass_k);
    span.set_attr("l", opts_.final_l);
    span.set_attr("generation", snap->generation);
    out[i].snapshot = snap;
    out[i].query_embedding = std::make_shared<embed::Vector>(vecs[i]);
    out[i].search_seconds = search_total / n;
    out[i].shards_failed = shards_failed;
    out[i].shards_total = shards_total;
    assemble_from_hits(*snap, queries[i], all_hits[i], out[i]);
    span.set_attr("candidates", out[i].first_pass.size());
    span.set_attr("kept", out[i].contexts.size());
    observe_retrieval_metrics(out[i]);
  }
  return out;
}

}  // namespace pkb::rag
