#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {
namespace {

constexpr const char* kOpeners[] = {
    "", "Hi all, ", "Quick question: ", "Hello PETSc team, ",
    "Sorry if this is basic: ", "From a user on Discord: ",
};
constexpr const char* kClosers[] = {
    "", " Thanks!", " Any pointers appreciated.", " (PETSc 3.21)",
    " I am new to PETSc.",
};
constexpr const char* kFollowUps[] = {
    "Which command-line options control %s?",
    "Can you show a minimal example that uses %s?",
    "What should I check when %s does not converge?",
    "How does %s interact with the preconditioner choice?",
    "Is %s safe to call in parallel runs?",
    "What are the defaults of %s?",
};
constexpr const char* kTopics[] = {
    "lattice", "tundra", "quasar", "meadow", "harbor", "saffron", "glacier",
    "orchid",
};

template <typename T, std::size_t N>
constexpr std::size_t count_of(const T (&)[N]) {
  return N;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  SplitMix64 r(a ^ (b * 0x9e3779b97f4a7c15ULL));
  return r.next();
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SplitMix64::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t SplitMix64::below(std::uint64_t bound) {
  return bound == 0 ? 0 : next() % bound;
}

UniqueQuestions::UniqueQuestions(const std::vector<Canonical>& canon,
                                 std::uint64_t seed, std::uint64_t stream)
    : canon_(canon), key_(mix(seed, stream + 1)) {}

std::string UniqueQuestions::at(std::uint64_t i) const {
  SplitMix64 r(mix(key_, i));
  const Canonical& c = canon_[r.below(canon_.size())];
  std::string q = kOpeners[r.below(count_of(kOpeners))];
  q += c.question;
  q += kClosers[r.below(count_of(kClosers))];
  q += " [ticket " + hex(mix(key_, i ^ 0x5bd1e995ULL)) + "]";
  return q;
}

std::vector<Arrival> faq_arrivals(const std::vector<Canonical>& canon,
                                  const FaqShape& shape, std::uint64_t seed,
                                  double horizon_s) {
  SplitMix64 r(mix(seed, 0xfa9));
  // Zipf CDF over the canonical order: rank k is question k, for every
  // seed, so the hot set (and the size of what a hit copies) is fixed and
  // the seed only varies the draws.
  std::vector<double> cdf(canon.size());
  double total = 0.0;
  for (std::size_t k = 0; k < canon.size(); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), shape.zipf_s);
    cdf[k] = total;
  }
  const UniqueQuestions tail(canon, seed, 0x7a11);

  std::vector<Arrival> out;
  double t = 0.0;
  for (std::uint64_t i = 0;; ++i) {
    t += -std::log(1.0 - r.uniform()) / shape.rate_per_s;
    if (t >= horizon_s) break;
    Arrival a;
    a.due_s = t;
    if (r.uniform() < shape.tail_share) {
      a.question = tail.at(i);
    } else {
      const double u = r.uniform() * total;
      const auto k = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      a.canonical = static_cast<int>(std::min(k, canon.size() - 1));
      a.question = canon[static_cast<std::size_t>(a.canonical)].question;
    }
    a.ingest_after = shape.ingest_every > 0 && (i + 1) % shape.ingest_every == 0;
    out.push_back(std::move(a));
  }
  return out;
}

IngestBatch ingest_batch(const FaqShape& shape, std::uint64_t seed,
                         std::uint64_t k) {
  SplitMix64 r(mix(mix(seed, 0x1a6e57), k));
  IngestBatch b;
  const std::uint64_t slot = k % std::max<std::uint64_t>(1, shape.rotating_paths);
  b.path = "community/notes/meeting_" + std::to_string(slot) + ".md";
  // Plain prose the embedder can place (made-up API-style names are out
  // of its vocabulary and of the keyword index), plus a reference token
  // that only this batch carries, so a probe proves the new text is live.
  const std::string topic = kTopics[r.below(count_of(kTopics))];
  b.token = "note-" + hex(r.next()).substr(0, 8);
  b.markdown = "# Community meeting notes: " + topic + " project\n\n"
               "The community meeting notes for the " + topic +
               " project record the action items, the owners, and the "
               "follow-up schedule agreed at the community meeting. "
               "Reference " + b.token + ".\n";
  b.probe = "What do the community meeting notes for the " + topic +
            " project record?";
  return b;
}

SessionScript agent_session(const std::vector<Canonical>& canon,
                            std::uint64_t seed, std::uint64_t agent,
                            std::uint64_t j) {
  SplitMix64 r(mix(mix(seed, 0xa6e7 + agent), j));
  SessionScript s;
  s.id = "agent" + std::to_string(agent) + "-s" + std::to_string(j) + "-" +
         hex(mix(seed, agent)).substr(0, 6);
  const Canonical& c = canon[r.below(canon.size())];
  s.turns.push_back(c.question);
  const std::uint64_t follow = 2 + r.below(4);
  std::uint64_t pick = r.below(count_of(kFollowUps));
  for (std::uint64_t t = 0; t < follow; ++t) {
    char buf[256];
    std::snprintf(buf, sizeof buf, kFollowUps[pick % count_of(kFollowUps)],
                  c.symbol.c_str());
    s.turns.emplace_back(buf);
    pick += 1 + r.below(2);
  }
  return s;
}

}  // namespace perfbench
