#pragma once
// Seeded input generators for the three workloads. Everything here is a
// pure function of the seed (and of the canonical question list handed
// in), so the same seed gives the same questions, arrivals, ingest batches
// and session scripts. The program under test only ever receives the
// generated strings.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: small, fast, and stable across platforms and library
/// versions (the inputs must not change when the program's own RNG does).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform integer in [0, bound).
  std::uint64_t below(std::uint64_t bound);

 private:
  std::uint64_t state_;
};

/// One canonical benchmark question and the API symbol that decides it.
struct Canonical {
  std::string question;
  std::string symbol;
};

/// Unique, sessionless questions: seeded paraphrases of the canonical set,
/// each carrying a distinct ticket token so no two are equal (the answer
/// cache and embedding memo can never hit). `stream` separates disjoint
/// families from one seed (timed traffic, warm-up, probes).
class UniqueQuestions {
 public:
  UniqueQuestions(const std::vector<Canonical>& canon, std::uint64_t seed,
                  std::uint64_t stream);
  /// The i-th question (random access; the same i always gives the same
  /// text).
  [[nodiscard]] std::string at(std::uint64_t i) const;

 private:
  const std::vector<Canonical>& canon_;
  std::uint64_t key_;
};

/// One arrival of the open-loop FAQ stream.
struct Arrival {
  double due_s = 0.0;     ///< seconds after the start of the timed phase
  std::string question;
  int canonical = -1;     ///< index into the canonical set, -1 for the tail
  bool ingest_after = false;  ///< the writer ingests after this arrival
};

/// One ingest batch: one Markdown file upserted at a rotating path, plus
/// the probe question that must retrieve it once it is live.
struct IngestBatch {
  std::string path;
  std::string markdown;
  std::string token;  ///< the batch's unique term, present in `markdown`
  std::string probe;  ///< a question naming `token`
};

struct FaqShape {
  double rate_per_s = 1000.0;
  double tail_share = 0.10;  ///< share of arrivals that are unique questions
  double zipf_s = 1.1;       ///< exponent over the canonical ranks
  std::uint64_t ingest_every = 400;  ///< arrivals between ingests
  std::uint64_t rotating_paths = 4;  ///< distinct upserted source paths
};

/// Poisson arrivals at a fixed absolute rate over [0, horizon_s), Zipf over
/// the canonical questions (rank k is question k) plus a unique
/// tail, with an ingest marked after every `ingest_every` arrivals.
[[nodiscard]] std::vector<Arrival> faq_arrivals(
    const std::vector<Canonical>& canon, const FaqShape& shape,
    std::uint64_t seed, double horizon_s);

/// The k-th ingest batch of a seed (k counts from 0).
[[nodiscard]] IngestBatch ingest_batch(const FaqShape& shape,
                                       std::uint64_t seed, std::uint64_t k);

/// One scripted agent session: a topic and its turns, asked in order.
struct SessionScript {
  std::string id;
  std::vector<std::string> turns;
};

/// The j-th session of agent `agent`: a canonical topic opened by its
/// question, followed by 2-5 follow-ups about the same API symbol (so the
/// retrieved contexts overlap from turn to turn).
[[nodiscard]] SessionScript agent_session(const std::vector<Canonical>& canon,
                                          std::uint64_t seed,
                                          std::uint64_t agent,
                                          std::uint64_t j);

}  // namespace perfbench
