#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "lexical/lexicon.h"
#include "rerank/cross_score.h"
#include "rerank/flashranker.h"
#include "rerank/reranker.h"
#include "util/rng.h"

namespace pkb::rerank {
namespace {

std::vector<text::Document> corpus() {
  std::vector<text::Document> docs = {
      {"lsqr", "KSPLSQR solves least squares problems with rectangular "
               "matrices using bidiagonalization.", {{"title", "KSPLSQR"}}},
      {"cg", "KSPCG implements conjugate gradient for symmetric positive "
             "definite matrices.", {{"title", "KSPCG"}}},
      {"gmres", "KSPGMRES restarts every 30 iterations and handles "
                "nonsymmetric square matrices.", {{"title", "KSPGMRES"}}},
      {"monitor", "The -ksp_monitor option prints the residual norm at "
                  "every iteration.", {{"title", "-ksp_monitor"}}},
      {"info", "The -info option prints diagnostics including matrix "
               "preallocation success and malloc counts.",
       {{"title", "-info"}}},
      {"filler1", "Vectors support axpy operations and norms.", {}},
      {"filler2", "Preconditioners reduce the iteration count.", {}},
  };
  return docs;
}

/// Candidate i is chunk i of the lexicon built over `d`.
std::vector<RerankCandidate> candidates(const std::vector<text::Document>& d) {
  std::vector<RerankCandidate> out;
  for (std::size_t i = 0; i < d.size(); ++i) out.push_back({&d[i], 0.5f, i});
  return out;
}

class RerankerParamTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RerankerParamTest, PutsTheDecisiveDocFirst) {
  auto ranker = make_reranker(GetParam());
  const auto docs = corpus();
  const auto lex = lexical::Lexicon::build(docs);
  const auto ranked = ranker->rerank(
      *lex, "Can I solve a rectangular least squares system?",
      candidates(docs), 4);
  ASSERT_EQ(ranked.size(), 4u);
  EXPECT_EQ(ranked[0].doc->id, "lsqr") << GetParam();
}

TEST_P(RerankerParamTest, TruncatesToTopL) {
  auto ranker = make_reranker(GetParam());
  const auto docs = corpus();
  const auto lex = lexical::Lexicon::build(docs);
  EXPECT_EQ(
      ranker->rerank(*lex, "query about matrices", candidates(docs), 2).size(),
      2u);
  EXPECT_EQ(ranker->rerank(*lex, "query", candidates(docs), 100).size(),
            docs.size());
  EXPECT_TRUE(ranker->rerank(*lex, "query", {}, 4).empty());
}

TEST_P(RerankerParamTest, ScoresDescendAndTiesKeepOriginalOrder) {
  auto ranker = make_reranker(GetParam());
  const auto docs = corpus();
  const auto lex = lexical::Lexicon::build(docs);
  const auto ranked =
      ranker->rerank(*lex, "preallocation malloc diagnostics",
                     candidates(docs), docs.size());
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    if (ranked[i - 1].score == ranked[i].score) {
      EXPECT_LT(ranked[i - 1].original_rank, ranked[i].original_rank);
    } else {
      EXPECT_GT(ranked[i - 1].score, ranked[i].score);
    }
  }
  EXPECT_EQ(ranked[0].doc->id, "info");
}

TEST_P(RerankerParamTest, PermutationInvariantScores) {
  // Candidate order must not change per-document scores (tied documents may
  // legitimately swap positions — ties break by arrival order).
  auto ranker = make_reranker(GetParam());
  const auto docs = corpus();
  const auto lex = lexical::Lexicon::build(docs);
  auto cands = candidates(docs);
  const auto a =
      ranker->rerank(*lex, "rectangular least squares", cands, docs.size());
  std::reverse(cands.begin(), cands.end());
  const auto b =
      ranker->rerank(*lex, "rectangular least squares", cands, docs.size());
  ASSERT_EQ(a.size(), b.size());
  std::map<std::string, double> score_a;
  std::map<std::string, double> score_b;
  for (const auto& r : a) score_a[r.doc->id] = r.score;
  for (const auto& r : b) score_b[r.doc->id] = r.score;
  EXPECT_EQ(score_a, score_b);
  // The top document (a strict winner) is order-independent.
  EXPECT_EQ(a[0].doc->id, b[0].doc->id);
}

TEST_P(RerankerParamTest, Deterministic) {
  auto r1 = make_reranker(GetParam());
  auto r2 = make_reranker(GetParam());
  const auto docs = corpus();
  const auto lex = lexical::Lexicon::build(docs);
  const auto a = r1->rerank(*lex, "monitor residual", candidates(docs), 3);
  const auto b = r2->rerank(*lex, "monitor residual", candidates(docs), 3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].doc->id, b[i].doc->id);
  }
}

INSTANTIATE_TEST_SUITE_P(BothRerankers, RerankerParamTest,
                         ::testing::Values("sim-flashrank", "sim-nv-cross"),
                         [](const auto& info) {
                           return info.param == "sim-flashrank" ? "flashrank"
                                                                : "nvcross";
                         });

TEST(FlashRanker, SymbolMatchOutweighsProse) {
  FlashRanker ranker;
  const auto docs = corpus();
  const auto lex = lexical::Lexicon::build(docs);
  // Query names the API symbol: the exact match must dominate.
  const auto ranked =
      ranker.rerank(*lex, "what does KSPGMRES do", candidates(docs), 1);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0].doc->id, "gmres");
}

TEST(FlashRanker, ScorePairIsNonNegativeAndZeroForNoOverlap) {
  FlashRanker ranker;
  const auto docs = corpus();
  const auto lex = lexical::Lexicon::build(docs);
  EXPECT_DOUBLE_EQ(ranker.score_pair(*lex, "zzz qqq", docs[5]), 0.0);
  EXPECT_GT(ranker.score_pair(*lex, "least squares", docs[0]), 0.0);
}

TEST(CrossScore, ProximityRewardsClusteredMatches) {
  CrossScoreReranker ranker;
  text::Document clustered{
      "c", "the rectangular least squares solver converges quickly", {}};
  text::Document scattered{
      "s", "rectangular grids are common; unrelated text follows here and "
           "goes on and on for a very long while about meshes and output "
           "and diagnostics; eventually least squares appears far away; "
           "and after yet more filler text the word solver shows up",
      {}};
  const auto lex = lexical::Lexicon::build({clustered, scattered});
  const double c = ranker.score_pair(*lex, "rectangular least squares solver",
                                     clustered);
  const double s = ranker.score_pair(*lex, "rectangular least squares solver",
                                     scattered);
  EXPECT_GT(c, s);
}

TEST(CrossScore, SoftMatchingHandlesMorphology) {
  CrossScoreReranker ranker;
  text::Document doc{"d", "restarting the iteration bounds memory usage", {}};
  const auto lex = lexical::Lexicon::build({doc});
  // "restart" ~ "restarting" via trigram soft match.
  EXPECT_GT(ranker.score_pair(*lex, "restart memory", doc), 0.3);
}

TEST(Registry, NamesConstructAndUnknownThrows) {
  for (const std::string& name : reranker_registry()) {
    EXPECT_NO_THROW((void)make_reranker(name));
  }
  EXPECT_THROW((void)make_reranker("bogus"), std::invalid_argument);
}

}  // namespace
}  // namespace pkb::rerank
