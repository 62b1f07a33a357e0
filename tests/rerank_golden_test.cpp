// Golden rerank scores: both rerankers, scoring the real first-pass
// candidates of the 37 Krylov questions from the snapshot's lexicon, must
// reproduce the committed scores (tests/data/rerank_golden.inc) bit for bit.
// The same holds for documents analysed on the fly (score_pair).

#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/generator.h"
#include "corpus/questions.h"
#include "rag/knowledge_base.h"
#include "rag/retriever.h"
#include "rerank/cross_score.h"
#include "rerank/flashranker.h"

namespace {

using namespace pkb;

struct GoldenRow {
  int question = 0;
  const char* chunk_id = nullptr;
  double flash = 0.0;
  double cross = 0.0;
};

constexpr GoldenRow kGolden[] = {
#include "data/rerank_golden.inc"
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::map<std::string, double> scores_by_id(
    const std::vector<rerank::RerankResult>& ranked) {
  std::map<std::string, double> out;
  for (const rerank::RerankResult& r : ranked) out[r.doc->id] = r.score;
  return out;
}

TEST(RerankGolden, BothRerankersMatchCapturedScoresBitForBit) {
  const rag::KnowledgeBase kb =
      rag::KnowledgeBase::build(corpus::generate_corpus());
  rag::RetrieverOptions opts;
  opts.reranker = "";  // first pass only
  const rag::Retriever retriever(kb, opts);
  const rag::SnapshotPtr snap = kb.snapshot();
  const rerank::FlashRanker flash;
  const rerank::CrossScoreReranker cross;

  std::size_t row = 0;
  for (const corpus::BenchmarkQuestion& q : corpus::krylov_benchmark()) {
    const rag::RetrievalResult first = retriever.retrieve_on(snap, q.question);
    std::vector<rerank::RerankCandidate> cands;
    for (const rag::RetrievedContext& ctx : first.first_pass) {
      cands.push_back({ctx.doc, static_cast<float>(ctx.score), ctx.chunk});
    }
    const auto flash_scores = scores_by_id(
        flash.rerank(*snap->lexicon, q.question, cands, cands.size()));
    const auto cross_scores = scores_by_id(
        cross.rerank(*snap->lexicon, q.question, cands, cands.size()));
    for (const rag::RetrievedContext& ctx : first.first_pass) {
      ASSERT_LT(row, std::size(kGolden));
      const GoldenRow& g = kGolden[row++];
      ASSERT_EQ(g.question, q.id);
      ASSERT_EQ(ctx.doc->id, g.chunk_id) << "question " << q.id;
      SCOPED_TRACE("question " + std::to_string(q.id) + ", " + g.chunk_id);
      EXPECT_EQ(bits(flash_scores.at(ctx.doc->id)), bits(g.flash));
      EXPECT_EQ(bits(cross_scores.at(ctx.doc->id)), bits(g.cross));
      // A document analysed on the fly scores exactly as its stored
      // analysis does.
      EXPECT_EQ(bits(flash.score_pair(*snap->lexicon, q.question, *ctx.doc)),
                bits(g.flash));
      EXPECT_EQ(bits(cross.score_pair(*snap->lexicon, q.question, *ctx.doc)),
                bits(g.cross));
    }
  }
  EXPECT_EQ(row, std::size(kGolden));
}

}  // namespace
