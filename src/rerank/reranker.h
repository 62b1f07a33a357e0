#pragma once
// Reranking-enhanced retrieval (§III-D, Fig 4 of the paper).
//
// The first-pass retriever returns K candidates quickly; the reranker
// re-scores each (query, document) pair with a more expensive model and
// keeps the best L. We provide two rerankers mirroring the paper's pair:
//
//  * FlashRanker       — the Flashrank analogue: lightweight CPU scoring
//                        (IDF-weighted term coverage + exact-symbol and
//                        bigram bonuses). Fast.
//  * CrossScoreReranker — the NVIDIA-reranker analogue: a cross-attention-
//                        style alignment score computed over all (query
//                        term, document term) pairs with positional
//                        proximity weighting. More expensive per pair,
//                        similar accuracy on this corpus (reproduced by
//                        bench/reranker_comparison).

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lexical/lexicon.h"
#include "resilience/fault_plan.h"
#include "text/document.h"

namespace pkb::rerank {

/// A first-pass candidate entering the reranker.
struct RerankCandidate {
  const text::Document* doc = nullptr;
  /// First-pass (embedding or keyword) score, informational only.
  float retrieval_score = 0.0f;
  /// Index of `doc` in the lexicon's chunk list; lexical::kNoChunk for a
  /// document outside the generation, which is analysed on the fly.
  std::size_t chunk = lexical::kNoChunk;
};

/// A reranked document.
struct RerankResult {
  const text::Document* doc = nullptr;
  double score = 0.0;
  /// Position in the candidate list before reranking (0-based).
  std::size_t original_rank = 0;
};

/// Common interface. Rerankers are stateless: rerank() reads term
/// statistics (IDF) and the candidates' per-chunk analyses from the lexicon
/// of the generation the candidates come from, and returns the best `top_l`
/// in descending score order.
class Reranker {
 public:
  virtual ~Reranker() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Score and reorder against `lexicon`; returns min(top_l,
  /// candidates.size()) results, descending score, ties broken by original
  /// rank. Deterministic.
  [[nodiscard]] virtual std::vector<RerankResult> rerank(
      const lexical::Lexicon& lexicon, std::string_view query,
      const std::vector<RerankCandidate>& candidates,
      std::size_t top_l) const = 0;

  /// Attach a chaos plan consulted (Stage::Rerank) at each rerank() entry:
  /// error/timeout decisions throw the matching resilience::FaultError,
  /// which the retrieval layer catches to fall back to first-pass order.
  /// Setup-time only — must not race in-flight rerank() calls.
  void set_fault_plan(const pkb::resilience::FaultPlan* plan) {
    fault_plan_ = plan;
  }

 protected:
  /// Implementations call this first thing in rerank().
  void consult_fault_plan() const {
    pkb::resilience::consult(fault_plan_, pkb::resilience::Stage::Rerank);
  }

  /// Sort scored results (descending score, ties by original rank) and keep
  /// the best `top_l`.
  [[nodiscard]] static std::vector<RerankResult> best(
      std::vector<RerankResult> scored, std::size_t top_l);

 private:
  const pkb::resilience::FaultPlan* fault_plan_ = nullptr;
};

/// Registry: "sim-flashrank" or "sim-nv-cross". Throws on unknown names.
[[nodiscard]] std::unique_ptr<Reranker> make_reranker(std::string_view name);

/// All registry names.
[[nodiscard]] std::vector<std::string> reranker_registry();

}  // namespace pkb::rerank
