// Micro-benchmarks of the rerankers: per-candidate-set cost of the
// lightweight FlashRanker vs the heavy cross-scoring reranker, for the
// paper's K=8 candidate sets. Candidates carry their chunk index, so the
// rerankers read the chunk analyses from the lexicon as on the serving path.
#include <benchmark/benchmark.h>

#include "corpus/generator.h"
#include "lexical/lexicon.h"
#include "rerank/cross_score.h"
#include "rerank/flashranker.h"
#include "text/loader.h"
#include "text/splitter.h"

namespace {

const std::vector<pkb::text::Document>& chunks() {
  static const auto* result = [] {
    const auto tree = pkb::corpus::generate_corpus();
    const pkb::text::MarkdownLoader loader(pkb::text::MarkdownMode::Single,
                                           /*drop_headings=*/true);
    const pkb::text::RecursiveCharacterTextSplitter splitter;
    return new std::vector<pkb::text::Document>(
        splitter.split_documents(loader.load(tree)));
  }();
  return *result;
}

std::vector<pkb::rerank::RerankCandidate> candidate_set(std::size_t k) {
  std::vector<pkb::rerank::RerankCandidate> cands;
  for (std::size_t i = 0; i < k && i < chunks().size(); ++i) {
    const std::size_t chunk = i * 7 % chunks().size();
    cands.push_back({&chunks()[chunk], 0.5f, chunk});
  }
  return cands;
}

constexpr const char* kQuery =
    "Can I use KSP to solve a system where the matrix is not square, only "
    "rectangular?";

template <typename Ranker>
void run_rerank(benchmark::State& state) {
  const Ranker ranker;
  const auto lexicon = pkb::lexical::Lexicon::build(chunks());
  const auto cands = candidate_set(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto ranked = ranker.rerank(*lexicon, kQuery, cands, 4);
    benchmark::DoNotOptimize(ranked.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_FlashRanker(benchmark::State& state) {
  run_rerank<pkb::rerank::FlashRanker>(state);
}

void BM_CrossScoreReranker(benchmark::State& state) {
  run_rerank<pkb::rerank::CrossScoreReranker>(state);
}

}  // namespace

BENCHMARK(BM_FlashRanker)->Arg(8)->Arg(16)->Arg(32);
BENCHMARK(BM_CrossScoreReranker)->Arg(8)->Arg(16)->Arg(32);

BENCHMARK_MAIN();
