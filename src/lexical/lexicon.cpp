#include "lexical/lexicon.h"

#include <algorithm>
#include <unordered_map>

#include "lexical/bm25.h"
#include "text/tokenizer.h"
#include "util/strings.h"

namespace pkb::lexical {

bool ChunkAnalysis::contains(std::string_view term) const {
  const auto it = std::lower_bound(
      terms.begin(), terms.end(), term,
      [this](Term t, std::string_view value) { return this->term(t) < value; });
  return it != terms.end() && this->term(*it) == term;
}

ChunkAnalysis analyse(const text::Document& doc) {
  ChunkAnalysis a;
  a.lower_text = pkb::util::to_lower(doc.text);
  a.lower_title = pkb::util::to_lower(doc.meta("title"));
  for (const text::TokenSpan& span : text::token_spans(a.lower_text)) {
    a.terms.push_back(ChunkAnalysis::Term{
        static_cast<std::uint32_t>(span.offset),
        static_cast<std::uint32_t>(span.size)});
  }
  const auto less = [&a](ChunkAnalysis::Term x, ChunkAnalysis::Term y) {
    return a.term(x) < a.term(y);
  };
  const auto same = [&a](ChunkAnalysis::Term x, ChunkAnalysis::Term y) {
    return a.term(x) == a.term(y);
  };
  std::sort(a.terms.begin(), a.terms.end(), less);
  a.terms.erase(std::unique(a.terms.begin(), a.terms.end(), same),
                a.terms.end());
  a.terms.shrink_to_fit();
  return a;
}

Lexicon::Lexicon(std::vector<ChunkAnalysisPtr> chunks)
    : chunks_(std::move(chunks)) {
  std::vector<const ChunkAnalysis*> added;
  added.reserve(chunks_.size());
  for (const ChunkAnalysisPtr& chunk : chunks_) added.push_back(chunk.get());
  count(nullptr, {}, added);
}

Lexicon::Lexicon(const Lexicon& base, const std::vector<std::size_t>& retained,
                 std::vector<ChunkAnalysisPtr> added) {
  chunks_.reserve(retained.size() + added.size());
  std::vector<bool> kept(base.size(), false);
  for (std::size_t i : retained) {
    chunks_.push_back(base.chunks_[i]);
    kept[i] = true;
  }
  std::vector<const ChunkAnalysis*> removed;
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (!kept[i]) removed.push_back(base.chunks_[i].get());
  }
  std::vector<const ChunkAnalysis*> fresh;
  fresh.reserve(added.size());
  for (ChunkAnalysisPtr& chunk : added) {
    fresh.push_back(chunk.get());
    chunks_.push_back(std::move(chunk));
  }
  count(&base, removed, fresh);
}

void Lexicon::count(const Lexicon* base,
                    const std::vector<const ChunkAnalysis*>& removed,
                    const std::vector<const ChunkAnalysis*>& added) {
  // Net change per term, sorted and merged with the base's sorted table in
  // one pass; terms whose frequency reaches 0 drop out.
  std::unordered_map<std::string_view, std::int32_t> delta;
  for (const ChunkAnalysis* chunk : added) {
    for (ChunkAnalysis::Term t : chunk->terms) ++delta[chunk->term(t)];
  }
  for (const ChunkAnalysis* chunk : removed) {
    for (ChunkAnalysis::Term t : chunk->terms) --delta[chunk->term(t)];
  }
  std::vector<std::pair<std::string_view, std::int32_t>> changes(
      delta.begin(), delta.end());
  std::sort(changes.begin(), changes.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  const std::vector<Entry> none;
  const std::vector<Entry>& old = base != nullptr ? base->vocab_ : none;
  vocab_.reserve(old.size() + changes.size() / 4);
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < old.size() || j < changes.size()) {
    std::string_view term;
    std::int64_t df = 0;
    if (j == changes.size() ||
        (i < old.size() && base->term(old[i]) < changes[j].first)) {
      term = base->term(old[i]);
      df = old[i++].df;
    } else {
      term = changes[j].first;
      if (i < old.size() && base->term(old[i]) == term) df = old[i++].df;
      df += changes[j++].second;
    }
    if (df <= 0) continue;
    vocab_.push_back(Entry{static_cast<std::uint32_t>(terms_.size()),
                           static_cast<std::uint32_t>(term.size()),
                           static_cast<std::uint32_t>(df)});
    terms_ += term;
  }
  vocab_.shrink_to_fit();
  terms_.shrink_to_fit();
}

std::shared_ptr<const Lexicon> Lexicon::build(
    const std::vector<text::Document>& chunks) {
  std::vector<ChunkAnalysisPtr> analyses;
  analyses.reserve(chunks.size());
  for (const text::Document& doc : chunks) {
    analyses.push_back(std::make_shared<const ChunkAnalysis>(analyse(doc)));
  }
  return std::make_shared<const Lexicon>(std::move(analyses));
}

std::uint32_t Lexicon::df(std::string_view term) const {
  const auto it = std::lower_bound(
      vocab_.begin(), vocab_.end(), term,
      [this](const Entry& e, std::string_view value) {
        return this->term(e) < value;
      });
  return it != vocab_.end() && this->term(*it) == term ? it->df : 0;
}

double Lexicon::idf(std::string_view term) const {
  const std::uint32_t n = df(term);
  if (n == 0) return 0.0;
  return bm25_idf(static_cast<double>(chunks_.size()),
                  static_cast<double>(n));
}

}  // namespace pkb::lexical
