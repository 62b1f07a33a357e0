// The per-generation lexicon: chunk analyses agree with the tokenizer, IDF
// agrees with Bm25Index, ingest deltas share retained analyses and recount
// document frequencies, candidates carry the right chunk index on every
// first-pass path, and reranking stays exact while generations publish.
// The LexiconDelta* and RerankDuringPublish* suites are part of the
// scripts/run_tsan.sh filter.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/generator.h"
#include "corpus/questions.h"
#include "ingest/ingestor.h"
#include "lexical/bm25.h"
#include "lexical/lexicon.h"
#include "rag/knowledge_base.h"
#include "rag/retriever.h"
#include "text/tokenizer.h"
#include "util/strings.h"

namespace {

using namespace pkb;

const text::VirtualDir& full_corpus() {
  static const text::VirtualDir tree = corpus::generate_corpus();
  return tree;
}

std::vector<std::string> terms_of(const lexical::ChunkAnalysis& a) {
  std::vector<std::string> out;
  for (lexical::ChunkAnalysis::Term t : a.terms) {
    out.emplace_back(a.term(t));
  }
  return out;
}

/// The delta lexicon's frequency table equals a from-scratch count: every
/// term of the fresh build has the same df, and neither has extra terms.
void expect_same_frequencies(const lexical::Lexicon& delta,
                             const lexical::Lexicon& fresh) {
  ASSERT_EQ(delta.size(), fresh.size());
  EXPECT_EQ(delta.vocabulary_size(), fresh.vocabulary_size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    for (const std::string& term : terms_of(fresh.chunk(i))) {
      EXPECT_EQ(delta.df(term), fresh.df(term)) << term;
    }
  }
}

TEST(Lexicon, AnalysisMatchesTheTokenizer) {
  const rag::KnowledgeBase kb = rag::KnowledgeBase::build(full_corpus());
  const rag::SnapshotPtr snap = kb.snapshot();
  ASSERT_EQ(snap->lexicon->size(), snap->chunks.size());
  for (std::size_t i = 0; i < snap->chunks.size(); ++i) {
    const text::Document& doc = snap->chunks[i];
    const lexical::ChunkAnalysis& a = snap->lexicon->chunk(i);
    EXPECT_EQ(a.lower_text, util::to_lower(doc.text));
    EXPECT_EQ(a.lower_title, util::to_lower(doc.meta("title")));
    std::vector<std::string> expect = text::tokens_of(doc.text);
    std::sort(expect.begin(), expect.end());
    expect.erase(std::unique(expect.begin(), expect.end()), expect.end());
    EXPECT_EQ(terms_of(a), expect) << doc.id;
    for (const std::string& term : expect) EXPECT_TRUE(a.contains(term));
  }
  EXPECT_FALSE(snap->lexicon->chunk(0).contains("zzz-not-a-term"));
}

TEST(Lexicon, IdfIsBitIdenticalToBm25Index) {
  const rag::KnowledgeBase kb = rag::KnowledgeBase::build(full_corpus());
  const rag::SnapshotPtr snap = kb.snapshot();
  lexical::Bm25Index index;
  index.build(snap->chunks);
  std::size_t checked = 0;
  for (std::size_t i = 0; i < snap->lexicon->size(); ++i) {
    for (const std::string& term : terms_of(snap->lexicon->chunk(i))) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(snap->lexicon->idf(term)),
                std::bit_cast<std::uint64_t>(index.idf(term)))
          << term;
      ++checked;
    }
  }
  EXPECT_GT(checked, 1000u);
  EXPECT_EQ(snap->lexicon->idf("zzz-not-a-term"), 0.0);
  EXPECT_EQ(snap->lexicon->df("zzz-not-a-term"), 0u);
}

TEST(LexiconDelta, UpsertSharesRetainedAnalysesAndRecountsFrequencies) {
  auto kb = rag::KnowledgeBase::build(full_corpus());
  ingest::Ingestor ingestor(kb);
  ASSERT_NE(ingestor.ingest_files({{"faq/upsert.md",
                                    "# Upsert\n\nThe qzxoldterm appears only "
                                    "in the first version of this page."}}),
            nullptr);
  const rag::SnapshotPtr v1 = kb.snapshot();
  EXPECT_EQ(v1->lexicon->df("qzxoldterm"), 1u);
  EXPECT_GT(v1->lexicon->idf("qzxoldterm"), 0.0);

  const rag::SnapshotPtr v2 = ingestor.ingest_files(
      {{"faq/upsert.md",
        "# Upsert\n\nThe qzxnewterm replaces it in the second version."}});
  ASSERT_NE(v2, nullptr);
  EXPECT_EQ(ingestor.stats().refits, 0u);

  // Retained chunks share the base's analysis objects; the replaced source's
  // chunks are analysed anew.
  std::size_t shared = 0;
  for (std::size_t i = 0; i < v2->chunks.size(); ++i) {
    if (v2->chunks[i].meta("source") == "faq/upsert.md") continue;
    ASSERT_EQ(v1->chunks[i].id, v2->chunks[i].id);
    EXPECT_EQ(&v2->lexicon->chunk(i), &v1->lexicon->chunk(i));
    ++shared;
  }
  EXPECT_EQ(shared + 1, v2->chunks.size());

  // The frequency table equals a from-scratch build over the same chunks.
  expect_same_frequencies(*v2->lexicon, *lexical::Lexicon::build(v2->chunks));
  // A term found only in the replaced source has left the vocabulary.
  EXPECT_EQ(v2->lexicon->df("qzxoldterm"), 0u);
  EXPECT_EQ(v2->lexicon->idf("qzxoldterm"), 0.0);
  EXPECT_EQ(v2->lexicon->df("qzxnewterm"), 1u);
  // The base generation's lexicon is untouched.
  EXPECT_EQ(v1->lexicon->df("qzxoldterm"), 1u);
}

TEST(LexiconDelta, RefitBuildAlsoSharesAnalyses) {
  auto kb = rag::KnowledgeBase::build(full_corpus());
  const rag::SnapshotPtr base = kb.snapshot();
  ingest::IngestorOptions opts;
  opts.refit_drift_threshold = 0.0;  // every build refits the embedder
  ingest::Ingestor ingestor(kb, opts);
  const rag::SnapshotPtr next = ingestor.ingest_files(
      {{"faq/refit.md", "# Refit\n\nA page that forces a refit build."}});
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(ingestor.stats().refits, 1u);
  for (std::size_t i = 0; i < base->chunks.size(); ++i) {
    EXPECT_EQ(&next->lexicon->chunk(i), &base->lexicon->chunk(i));
  }
  expect_same_frequencies(*next->lexicon,
                          *lexical::Lexicon::build(next->chunks));
}

TEST(LexiconDelta, SnapshotLoadRebuildsTheLexicon) {
  const rag::KnowledgeBase kb = rag::KnowledgeBase::build(full_corpus());
  const std::string path =
      ::testing::TempDir() + "pkb_lexicon_snapshot.bin";
  kb.snapshot()->save(path);
  const rag::SnapshotPtr loaded = rag::Snapshot::load(path);
  std::remove(path.c_str());
  ASSERT_NE(loaded->lexicon, nullptr);
  const lexical::Lexicon& original = *kb.snapshot()->lexicon;
  ASSERT_EQ(loaded->lexicon->size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded->lexicon->chunk(i).lower_text,
              original.chunk(i).lower_text);
    EXPECT_EQ(terms_of(loaded->lexicon->chunk(i)), terms_of(original.chunk(i)));
  }
  expect_same_frequencies(*loaded->lexicon, original);
}

// Every first-pass candidate's chunk index names its own document, on the
// exact scan, every ANN index and the sharded router, single and batched.
TEST(LexiconChunkIndex, CandidatesCarryTheirChunkIndexOnEveryPath) {
  std::vector<rag::KnowledgeBaseOptions> configs(6);
  configs[1].shards = 4;
  configs[2].index.kind = vectordb::IndexKind::Ivf;
  configs[3].index.kind = vectordb::IndexKind::Hnsw;
  configs[4].index.quant = vectordb::Quantizer::Pq;
  configs[5].shards = 3;
  configs[5].index.kind = vectordb::IndexKind::Hnsw;
  configs[5].index.quant = vectordb::Quantizer::Int8;
  std::vector<std::string> questions;
  for (const corpus::BenchmarkQuestion& q : corpus::krylov_benchmark()) {
    questions.push_back(q.question);
  }
  for (const rag::KnowledgeBaseOptions& opts : configs) {
    const rag::KnowledgeBase kb =
        rag::KnowledgeBase::build(full_corpus(), opts);
    const rag::Retriever retriever(kb);
    const auto check = [&](const rag::RetrievalResult& r) {
      for (const rag::RetrievedContext& ctx : r.first_pass) {
        ASSERT_LT(ctx.chunk, r.snapshot->chunks.size());
        EXPECT_EQ(r.snapshot->chunks[ctx.chunk].id, ctx.doc->id)
            << "shards " << opts.shards << ", index " << opts.index.name();
      }
    };
    for (const std::string& q : questions) check(retriever.retrieve(q));
    for (const rag::RetrievalResult& r : retriever.retrieve_batch(questions)) {
      check(r);
    }
  }
}

struct Recorded {
  rag::SnapshotPtr snapshot;
  std::size_t question = 0;
  std::vector<std::string> ids;
  std::vector<double> scores;
};

Recorded record(const rag::RetrievalResult& r, std::size_t question) {
  Recorded out{r.snapshot, question, {}, {}};
  for (const rag::RetrievedContext& ctx : r.contexts) {
    out.ids.push_back(ctx.doc->id);
    out.scores.push_back(ctx.score);
  }
  return out;
}

// Four threads rerank while an Ingestor publishes 200 generations; every
// result equals a serial rerank on the same pinned snapshot afterwards.
TEST(RerankDuringPublish, ConcurrentResultsEqualSerialRerankOnPinnedSnapshot) {
  auto kb = rag::KnowledgeBase::build(full_corpus());
  const rag::Retriever retriever(kb);
  ingest::Ingestor ingestor(kb);
  const auto& questions = corpus::krylov_benchmark();
  constexpr int kThreads = 4;
  constexpr int kGenerations = 200;

  std::atomic<bool> done{false};
  std::vector<std::vector<Recorded>> per_thread(kThreads);
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t last = 0;
      for (std::size_t i = static_cast<std::size_t>(t);
           !done.load(std::memory_order_acquire); i += kThreads) {
        const std::size_t qi = i % questions.size();
        const rag::SnapshotPtr snap = kb.snapshot();
        const rag::RetrievalResult r =
            retriever.retrieve_on(snap, questions[qi].question);
        // Keep a bounded sample (the first result, then one per tenth
        // generation) so the pinned snapshots stay few.
        if ((last == 0 || snap->generation % 10 == 0) &&
            snap->generation != last) {
          per_thread[t].push_back(record(r, qi));
          last = snap->generation;
        }
      }
    });
  }
  for (int g = 0; g < kGenerations; ++g) {
    const std::string n = std::to_string(g);
    EXPECT_NE(ingestor.ingest_files(
                  {{"faq/live-" + std::to_string(g % 7) + ".md",
                    "# Live " + n + "\n\nKSPSolve and the qzxlive" + n +
                        " residual monitor converge with GMRES restarts."}}),
              nullptr);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  std::size_t compared = 0;
  for (const std::vector<Recorded>& recs : per_thread) {
    for (const Recorded& rec : recs) {
      const Recorded serial =
          record(retriever.retrieve_on(rec.snapshot,
                                       questions[rec.question].question),
                 rec.question);
      EXPECT_EQ(serial.ids, rec.ids);
      ASSERT_EQ(serial.scores.size(), rec.scores.size());
      for (std::size_t i = 0; i < rec.scores.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.scores[i]),
                  std::bit_cast<std::uint64_t>(rec.scores[i]));
      }
      ++compared;
    }
  }
  EXPECT_GT(compared, 0u);
  EXPECT_EQ(kb.generation(), 1u + kGenerations);
}

}  // namespace
