#pragma once
// Per-generation text analysis for the rerankers.
//
// Every knowledge-base Snapshot carries a Lexicon: one ChunkAnalysis per
// chunk (lowercased text and title plus the chunk's distinct terms) and the
// generation's document-frequency table. Rerankers read term IDF and each
// candidate's analysis from the pinned snapshot's Lexicon instead of
// re-tokenizing chunk text per request or fitting an index per generation.
// Analyses depend only on chunk text, so an ingest delta generation shares
// its retained chunks' analyses with the base (shared_ptr<const>) and
// analyses only the new chunks; its frequency table is the base's adjusted
// by the removed and added chunks, so terms of replaced sources drop out of
// the vocabulary instead of accumulating across publishes.

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "text/document.h"

namespace pkb::lexical {

/// "Not a chunk of this generation": a candidate carrying it is analysed on
/// the fly.
inline constexpr std::size_t kNoChunk = std::numeric_limits<std::size_t>::max();

/// What scoring reads from one chunk's text, computed once per chunk.
struct ChunkAnalysis {
  /// A distinct term: a byte range of `lower_text`.
  struct Term {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
  };

  std::string lower_text;   ///< to_lower(doc.text)
  std::string lower_title;  ///< to_lower(doc.meta("title"))
  /// The distinct tokens of text::tokens_of(doc.text), sorted by term.
  std::vector<Term> terms;

  [[nodiscard]] std::string_view term(Term t) const {
    return std::string_view(lower_text).substr(t.offset, t.size);
  }
  /// True when `term` is one of the chunk's tokens (binary search).
  [[nodiscard]] bool contains(std::string_view term) const;
};

using ChunkAnalysisPtr = std::shared_ptr<const ChunkAnalysis>;

/// Analyse one document.
[[nodiscard]] ChunkAnalysis analyse(const text::Document& doc);

/// One generation's analyses plus its document-frequency table. Immutable;
/// share freely across threads.
class Lexicon {
 public:
  /// Adopt `chunks` (analysis i belongs to chunk i of the generation) and
  /// count their document frequencies.
  explicit Lexicon(std::vector<ChunkAnalysisPtr> chunks);

  /// The next generation after `base`: base's chunks at the indices
  /// `retained` (ascending) followed by `added`. Retained analyses are
  /// shared, and the frequency table is base's adjusted by the removed and
  /// added chunks' terms — equal to a count from scratch.
  Lexicon(const Lexicon& base, const std::vector<std::size_t>& retained,
          std::vector<ChunkAnalysisPtr> added);

  /// Analyse every document of a chunk list.
  [[nodiscard]] static std::shared_ptr<const Lexicon> build(
      const std::vector<text::Document>& chunks);

  [[nodiscard]] std::size_t size() const { return chunks_.size(); }
  /// Chunk i's analysis; a delta generation's retained chunks return the
  /// base's very objects.
  [[nodiscard]] const ChunkAnalysis& chunk(std::size_t i) const {
    return *chunks_[i];
  }

  /// Number of chunks containing `term` (0 when unknown).
  [[nodiscard]] std::uint32_t df(std::string_view term) const;
  /// bm25_idf over the generation's chunks; 0 for a term no chunk contains.
  [[nodiscard]] double idf(std::string_view term) const;
  /// Distinct terms with df > 0.
  [[nodiscard]] std::size_t vocabulary_size() const { return vocab_.size(); }

 private:
  /// One vocabulary term: a byte range of terms_ and its frequency.
  struct Entry {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
    std::uint32_t df = 0;
  };

  [[nodiscard]] std::string_view term(const Entry& e) const {
    return std::string_view(terms_).substr(e.offset, e.size);
  }
  /// Fill the table with `base`'s frequencies (none when null) plus one
  /// per term of each `added` chunk, minus one per term of each `removed`.
  void count(const Lexicon* base,
             const std::vector<const ChunkAnalysis*>& removed,
             const std::vector<const ChunkAnalysis*>& added);

  std::vector<ChunkAnalysisPtr> chunks_;
  /// The vocabulary's terms, concatenated in sorted order; the table owns
  /// them, so it never points into an analysis another generation dropped.
  std::string terms_;
  std::vector<Entry> vocab_;  ///< sorted by term
};

using LexiconPtr = std::shared_ptr<const Lexicon>;

}  // namespace pkb::lexical
