#include "rerank/reranker.h"

#include <algorithm>
#include <stdexcept>

#include "rerank/cross_score.h"
#include "rerank/flashranker.h"

namespace pkb::rerank {

std::vector<RerankResult> Reranker::best(std::vector<RerankResult> scored,
                                         std::size_t top_l) {
  std::sort(scored.begin(), scored.end(),
            [](const RerankResult& a, const RerankResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.original_rank < b.original_rank;
            });
  if (scored.size() > top_l) scored.resize(top_l);
  return scored;
}

std::unique_ptr<Reranker> make_reranker(std::string_view name) {
  if (name == "sim-flashrank") return std::make_unique<FlashRanker>();
  if (name == "sim-nv-cross") return std::make_unique<CrossScoreReranker>();
  throw std::invalid_argument("unknown reranker: " + std::string(name));
}

std::vector<std::string> reranker_registry() {
  return {"sim-flashrank", "sim-nv-cross"};
}

}  // namespace pkb::rerank
