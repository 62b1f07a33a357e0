#include "rerank/flashranker.h"

#include <algorithm>
#include <unordered_set>

#include "text/tokenizer.h"
#include "util/strings.h"

namespace pkb::rerank {

namespace {

/// The query side of a FlashRanker score, computed once per rerank() call.
struct QueryAnalysis {
  struct Term {
    std::string text;
    double idf = 0.0;
    bool stopword = false;
  };
  struct Symbol {
    std::string text;   ///< surface form, found case-sensitively in raw text
    std::string lower;  ///< compared with the lowercased title
    double weight = 0.0;  ///< max(0.2, idf(lower))
  };

  /// Distinct non-stopword terms in first-occurrence order with their
  /// coverage weight max(0.1, idf), and the sum of those weights.
  std::vector<std::pair<std::string, double>> coverage;
  double total_idf = 0.0;
  /// Distinct terms in the iteration order of an unordered_set filled with
  /// the query tokens in order. The title and BM25 sums add in this order;
  /// any other order can change the low bits of a score.
  std::vector<Term> seen;
  /// Adjacent token pairs, "a b", unless both are stopwords.
  std::vector<std::string> bigrams;
  std::vector<Symbol> symbols;
};

QueryAnalysis analyse_query(const lexical::Lexicon& lexicon,
                            std::string_view query) {
  const text::TokenizedText tokens = text::tokenize(query);
  const auto& stopwords = text::stopwords();
  QueryAnalysis q;
  std::unordered_set<std::string> seen;
  for (const std::string& term : tokens.tokens) {
    if (!seen.insert(term).second) continue;
    if (stopwords.contains(term)) continue;
    const double w = std::max(0.1, lexicon.idf(term));
    q.total_idf += w;
    q.coverage.emplace_back(term, w);
  }
  q.seen.reserve(seen.size());
  for (const std::string& term : seen) {
    q.seen.push_back({term, lexicon.idf(term), stopwords.contains(term)});
  }
  for (std::size_t i = 0; i + 1 < tokens.tokens.size(); ++i) {
    if (stopwords.contains(tokens.tokens[i]) &&
        stopwords.contains(tokens.tokens[i + 1])) {
      continue;
    }
    q.bigrams.push_back(tokens.tokens[i] + " " + tokens.tokens[i + 1]);
  }
  for (const std::string& symbol : tokens.symbols) {
    std::string lower = pkb::util::to_lower(symbol);
    const double weight = std::max(0.2, lexicon.idf(lower));
    q.symbols.push_back({symbol, std::move(lower), weight});
  }
  return q;
}

double score(const FlashRankerOptions& opts, const QueryAnalysis& q,
             const lexical::ChunkAnalysis& chunk, const text::Document& doc) {
  // IDF-weighted coverage of distinct query terms.
  double coverage = 0.0;
  for (const auto& [term, w] : q.coverage) {
    if (chunk.contains(term)) coverage += w;
  }
  double score =
      q.total_idf > 0.0 ? opts.coverage_weight * coverage / q.total_idf : 0.0;

  // Exact API-symbol matches (case-sensitive surface form in the raw text).
  for (const QueryAnalysis::Symbol& symbol : q.symbols) {
    if (doc.text.find(symbol.text) != std::string::npos) {
      score += opts.symbol_bonus * symbol.weight;
    }
  }

  // Query bigrams appearing verbatim (lowercased) in the document.
  for (const std::string& bigram : q.bigrams) {
    if (chunk.lower_text.find(bigram) != std::string::npos) {
      score += opts.bigram_bonus;
    }
  }

  // Title hits, IDF-weighted: rare query terms matching the page symbol are
  // near-decisive.
  if (!chunk.lower_title.empty()) {
    for (const QueryAnalysis::Term& term : q.seen) {
      if (term.stopword) continue;
      if (chunk.lower_title.find(term.text) != std::string::npos) {
        score += opts.title_weight * std::max(0.2, term.idf);
      }
    }
    for (const QueryAnalysis::Symbol& symbol : q.symbols) {
      if (symbol.lower == chunk.lower_title) score += opts.title_symbol_bonus;
    }
  }

  // BM25 against the generation's statistics: approximate by scoring the
  // candidate text directly (per-term idf * saturated tf).
  double bm25 = 0.0;
  for (const QueryAnalysis::Term& term : q.seen) {
    if (!chunk.contains(term.text)) continue;
    const double tf = static_cast<double>(
        pkb::util::count_occurrences(chunk.lower_text, term.text));
    bm25 += term.idf * (tf * 2.2) / (tf + 1.2);
  }
  score += opts.bm25_weight * bm25 / 10.0;

  return score;
}

}  // namespace

FlashRanker::FlashRanker(FlashRankerOptions opts) : opts_(opts) {}

double FlashRanker::score_pair(const lexical::Lexicon& lexicon,
                               std::string_view query,
                               const text::Document& doc) const {
  return score(opts_, analyse_query(lexicon, query), lexical::analyse(doc),
               doc);
}

std::vector<RerankResult> FlashRanker::rerank(
    const lexical::Lexicon& lexicon, std::string_view query,
    const std::vector<RerankCandidate>& candidates, std::size_t top_l) const {
  consult_fault_plan();
  const QueryAnalysis q = analyse_query(lexicon, query);
  std::vector<RerankResult> out;
  out.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const RerankCandidate& c = candidates[i];
    const double s =
        c.chunk < lexicon.size()
            ? score(opts_, q, lexicon.chunk(c.chunk), *c.doc)
            : score(opts_, q, lexical::analyse(*c.doc), *c.doc);
    out.push_back(RerankResult{c.doc, s, i});
  }
  return best(std::move(out), top_l);
}

}  // namespace pkb::rerank
