#pragma once
// The lightweight CPU reranker (Flashrank analogue). Query-side work
// (tokens, distinct terms with their IDF, bigrams, symbol IDFs) runs once per
// rerank() call; the chunk side comes precomputed from the lexicon.

#include "rerank/reranker.h"

namespace pkb::rerank {

/// Scoring weights of the FlashRanker blend.
struct FlashRankerOptions {
  double coverage_weight = 1.0;  ///< IDF-weighted query-term coverage
  double bm25_weight = 0.35;     ///< BM25 score contribution
  double symbol_bonus = 1.5;     ///< per exact API-symbol match (x IDF)
  double bigram_bonus = 0.3;     ///< per matched query bigram
  /// Weight of IDF-weighted query terms found in the document title — a
  /// rare query term matching the manual-page symbol ("richardson" in
  /// "KSPRICHARDSON") is close to decisive.
  double title_weight = 0.22;
  /// Extra bonus when a query API symbol IS the document title.
  double title_symbol_bonus = 2.0;
};

class FlashRanker final : public Reranker {
 public:
  explicit FlashRanker(FlashRankerOptions opts = {});

  [[nodiscard]] std::string name() const override { return "sim-flashrank"; }
  [[nodiscard]] std::vector<RerankResult> rerank(
      const lexical::Lexicon& lexicon, std::string_view query,
      const std::vector<RerankCandidate>& candidates,
      std::size_t top_l) const override;

  /// Score one (query, document) pair under `lexicon`'s IDF, analysing
  /// `doc` on the fly; exposed for tests and ablations.
  [[nodiscard]] double score_pair(const lexical::Lexicon& lexicon,
                                  std::string_view query,
                                  const text::Document& doc) const;

 private:
  FlashRankerOptions opts_;
};

}  // namespace pkb::rerank
