#pragma once
// The heavy reranker (NVIDIA cross-encoder analogue): an all-pairs soft
// alignment between query and document terms with positional proximity
// weighting — O(|query| * |doc|) per pair, an order of magnitude more work
// than FlashRanker's set operations.

#include "rerank/reranker.h"

namespace pkb::rerank {

struct CrossScoreOptions {
  /// Gaussian width (in token positions) of the proximity kernel: query
  /// terms matching close together in the document score more.
  double proximity_sigma = 12.0;
  /// Weight of the proximity-weighted alignment vs plain coverage.
  double alignment_weight = 1.0;
  double coverage_weight = 0.8;
  /// Character-trigram soft matching threshold for near-miss terms
  /// (handles morphology: "restarting" ~ "restart").
  double soft_match_threshold = 0.55;
};

class CrossScoreReranker final : public Reranker {
 public:
  explicit CrossScoreReranker(CrossScoreOptions opts = {});

  [[nodiscard]] std::string name() const override { return "sim-nv-cross"; }
  [[nodiscard]] std::vector<RerankResult> rerank(
      const lexical::Lexicon& lexicon, std::string_view query,
      const std::vector<RerankCandidate>& candidates,
      std::size_t top_l) const override;

  /// Score one pair under `lexicon`'s IDF; exposed for tests and the
  /// comparison bench.
  [[nodiscard]] double score_pair(const lexical::Lexicon& lexicon,
                                  std::string_view query,
                                  const text::Document& doc) const;

 private:
  CrossScoreOptions opts_;
};

}  // namespace pkb::rerank
