#pragma once
// Inverted index with BM25 ranking.
//
// Used (a) by the history retriever and the parametric-memory model, and
// (b) as a lexical baseline in the retrieval benches. Its IDF formula
// (bm25_idf) is also what the rerankers read through lexical::Lexicon.

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "text/document.h"

namespace pkb::lexical {

/// One BM25 hit.
struct Bm25Result {
  std::size_t index = 0;  ///< document position in the indexed collection
  double score = 0.0;
  const text::Document* doc = nullptr;
};

/// BM25 parameters (standard Okapi defaults).
struct Bm25Options {
  double k1 = 1.2;   ///< term-frequency saturation
  double b = 0.75;   ///< length normalization strength
};

/// Smoothed BM25 IDF of a term found in `df` of `n` documents — the one
/// formula behind Bm25Index::idf and Lexicon::idf.
[[nodiscard]] double bm25_idf(double n, double df);

/// Immutable-after-build inverted index.
class Bm25Index {
 public:
  explicit Bm25Index(Bm25Options opts = {});

  /// Index a collection (replaces any previous contents). Documents are
  /// stored by value; the index owns them.
  void build(std::vector<text::Document> docs);

  [[nodiscard]] std::size_t size() const { return docs_.size(); }
  [[nodiscard]] const text::Document& doc(std::size_t i) const;

  /// Top-k by BM25 (descending; ties by lower index). Query terms absent
  /// from the index contribute nothing.
  [[nodiscard]] std::vector<Bm25Result> search(std::string_view query,
                                               std::size_t k) const;

  /// BM25 score of one specific document for a query (0 when no overlap).
  [[nodiscard]] double score_one(std::string_view query, std::size_t i) const;

  /// Smoothed IDF of a term under the BM25 formula (0 when unknown).
  [[nodiscard]] double idf(std::string_view term) const;

 private:
  struct Posting {
    std::size_t doc = 0;
    std::uint32_t tf = 0;
  };

  [[nodiscard]] double score_posting(double idf, double tf,
                                     double doc_len) const;

  Bm25Options opts_;
  std::vector<text::Document> docs_;
  std::vector<double> doc_len_;
  double avg_len_ = 0.0;
  std::unordered_map<std::string, std::vector<Posting>> postings_;
};

}  // namespace pkb::lexical
