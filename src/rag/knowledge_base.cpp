#include "rag/knowledge_base.h"

#include <fstream>
#include <stdexcept>
#include <utility>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/binio.h"
#include "util/clock.h"
#include "util/log.h"
#include "vectordb/shard_router.h"

namespace pkb::rag {

namespace {

void publish_kb_gauges(const Snapshot& snap) {
  obs::MetricsRegistry& metrics = obs::global_metrics();
  metrics.gauge(obs::kKbGeneration).set(static_cast<double>(snap.generation));
  metrics.gauge(obs::kKbChunks).set(static_cast<double>(snap.chunks.size()));
}

}  // namespace

KnowledgeBase KnowledgeBase::build(const text::VirtualDir& corpus,
                                   KnowledgeBaseOptions opts) {
  auto snap = std::make_shared<Snapshot>();
  snap->generation = 1;
  snap->opts = std::move(opts);

  const text::DirectoryLoader dir_loader(snap->opts.file_pattern);
  const text::MarkdownLoader md_loader(text::MarkdownMode::Single,
                                       /*drop_headings=*/true);
  const std::vector<text::Document> docs =
      md_loader.load(dir_loader.load(corpus));
  snap->source_count = docs.size();

  const text::RecursiveCharacterTextSplitter splitter(snap->opts.splitter);
  snap->chunks = splitter.split_documents(docs);

  std::unique_ptr<embed::Embedder> embedder =
      embed::make_embedder(snap->opts.embedder);
  embedder->fit(snap->chunks);
  snap->store = vectordb::VectorStore::from_documents(snap->chunks, *embedder);
  snap->embedder = std::move(embedder);
  snap->symbols = std::make_shared<lexical::SymbolIndex>(snap->chunks);
  snap->lexicon = lexical::Lexicon::build(snap->chunks);
  snap->embedder_fit_generation = 1;
  snap->chunks_at_fit = snap->chunks.size();
  snap->attach_indexes();

  PKB_LOG(Info, "rag") << "knowledge base built: generation 1, "
                       << snap->source_count << " documents, "
                       << snap->chunks.size() << " chunks, embedder "
                       << snap->embedder->name() << " (dim "
                       << snap->embedder->dimension() << ")";
  return KnowledgeBase(std::move(snap));
}

KnowledgeBase::KnowledgeBase(SnapshotPtr snap) {
  if (snap == nullptr) {
    throw std::invalid_argument("KnowledgeBase: null snapshot");
  }
  gen_.store(snap->generation, std::memory_order_release);
  publish_kb_gauges(*snap);
  snap_ = std::move(snap);
}

KnowledgeBase::KnowledgeBase(KnowledgeBase&& other) noexcept
    : snap_(other.snapshot()) {
  gen_.store(other.gen_.load(std::memory_order_acquire),
             std::memory_order_release);
}

KnowledgeBase& KnowledgeBase::operator=(KnowledgeBase&& other) noexcept {
  if (this != &other) {
    SnapshotPtr snap = other.snapshot();
    std::lock_guard<std::mutex> lock(snap_mu_);
    snap_ = std::move(snap);
    gen_.store(other.gen_.load(std::memory_order_acquire),
               std::memory_order_release);
  }
  return *this;
}

void Snapshot::attach_indexes() {
  if (opts.shards < 2) {
    shards = nullptr;
    // Monolithic: one snapshot-level index (null for the identity spec).
    ann = vectordb::build_index(store, opts.index);
    return;
  }
  // Sharded: per-shard indexes live inside the router; the snapshot-level
  // handle stays null so there is exactly one ANN path per configuration.
  ann = nullptr;
  vectordb::ShardRouterOptions ropts;
  ropts.index = opts.index;
  shards = vectordb::ShardRouter::partition(store, opts.shards,
                                            std::move(ropts));
}

double KnowledgeBase::publish(SnapshotPtr next) {
  if (next == nullptr) {
    throw std::invalid_argument("KnowledgeBase::publish: null snapshot");
  }
  std::lock_guard<std::mutex> lock(publish_mu_);
  const SnapshotPtr cur = snapshot();
  if (next->generation <= cur->generation) {
    throw std::logic_error(
        "KnowledgeBase::publish: generation must increase (current " +
        std::to_string(cur->generation) + ", got " +
        std::to_string(next->generation) + ")");
  }

  obs::Span span(obs::global_tracer(), obs::kSpanKbSwap);
  span.set_attr("from", cur->generation);
  span.set_attr("to", next->generation);
  pkb::util::Stopwatch watch;
  const std::uint64_t generation = next->generation;
  publish_kb_gauges(*next);
  {
    // `cur` keeps the old generation alive, so its release happens outside
    // this critical section.
    std::lock_guard<std::mutex> swap(snap_mu_);
    snap_ = std::move(next);
    gen_.store(generation, std::memory_order_release);
  }
  const double seconds = watch.seconds();
  obs::global_metrics().histogram(obs::kKbSwapSeconds).observe(seconds);
  return seconds;
}

// ---------------------------------------------------------------------------
// Snapshot persistence.
//
// Layout: magic "PKBS" | u32 version | u64 generation |
//         u64 embedder_fit_generation | u64 chunks_at_fit | u64 source_count
//         | options (embedder, file_pattern, splitter fields)
//         | VectorStore blob (its own magic/version, docs + vectors)
//         | chunk section "CHNK": per-entry ids revalidating store order
//         | symbol section "SYMS": symbol -> chunk indices.
//
// The chunks are reconstructed from the store's documents (entry i ==
// chunks[i] by invariant); the embedder is refitted and the lexicon rebuilt
// from them — both are deterministic, so the reloaded generation embeds
// queries and reranks identically.
// ---------------------------------------------------------------------------

namespace {

constexpr char kSnapshotMagic[4] = {'P', 'K', 'B', 'S'};
constexpr char kChunkSectionMagic[4] = {'C', 'H', 'N', 'K'};
constexpr char kSymbolSectionMagic[4] = {'S', 'Y', 'M', 'S'};
// Version 2 appends opts.shards to the options block; version-1 files load
// with shards = 0 (monolithic). Version 3 appends the IndexSpec (kind,
// int8 flag, rerank_factor, IVF and HNSW options); older files load with
// the identity spec (flat fp32) — exactly their pre-index behavior.
// Version 4 generalizes the quantizer: the v3 int8 flag stays in place
// (written as quant == Int8 for old readers' field positions) and the
// block gains quant + PqOptions after hnsw.seed; v3 files load with the
// flag mapped to Quantizer::Int8/None and default PQ options.
constexpr std::uint32_t kSnapshotVersion = 4;

void read_magic(std::istream& in, const char (&expect)[4], const char* what) {
  char magic[4] = {};
  pkb::util::read_bytes(in, magic, sizeof magic, what);
  if (std::string_view(magic, 4) != std::string_view(expect, 4)) {
    throw std::runtime_error(std::string("Snapshot::load: bad magic for ") +
                             what);
  }
}

}  // namespace

void Snapshot::save(const std::string& path) const {
  namespace bin = pkb::util;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("Snapshot::save: cannot open " + path);
  }
  out.write(kSnapshotMagic, sizeof kSnapshotMagic);
  bin::write_u32(out, kSnapshotVersion);
  bin::write_u64(out, generation);
  bin::write_u64(out, embedder_fit_generation);
  bin::write_u64(out, chunks_at_fit);
  bin::write_u64(out, source_count);
  bin::write_str(out, opts.embedder);
  bin::write_str(out, opts.file_pattern);
  bin::write_u64(out, opts.splitter.chunk_size);
  bin::write_u64(out, opts.splitter.chunk_overlap);
  bin::write_u32(out, opts.splitter.keep_separator ? 1 : 0);
  bin::write_u64(out, opts.splitter.separators.size());
  for (const std::string& sep : opts.splitter.separators) {
    bin::write_str(out, sep);
  }
  bin::write_u64(out, opts.shards);
  bin::write_u32(out, static_cast<std::uint32_t>(opts.index.kind));
  bin::write_u32(out,
                 opts.index.quant == vectordb::Quantizer::Int8 ? 1 : 0);
  bin::write_u64(out, opts.index.rerank_factor);
  bin::write_u64(out, opts.index.ivf.clusters);
  bin::write_u64(out, opts.index.ivf.kmeans_iters);
  bin::write_u64(out, opts.index.ivf.nprobe);
  bin::write_u64(out, opts.index.ivf.seed);
  bin::write_u64(out, opts.index.hnsw.m);
  bin::write_u64(out, opts.index.hnsw.ef_construction);
  bin::write_u64(out, opts.index.hnsw.ef_search);
  bin::write_u64(out, opts.index.hnsw.seed);
  bin::write_u32(out, static_cast<std::uint32_t>(opts.index.quant));
  bin::write_u64(out, opts.index.pq.m);
  bin::write_u64(out, opts.index.pq.kmeans_iters);
  bin::write_u64(out, opts.index.pq.seed);

  store.save(out);

  out.write(kChunkSectionMagic, sizeof kChunkSectionMagic);
  bin::write_u64(out, chunks.size());
  for (const text::Document& chunk : chunks) {
    bin::write_str(out, chunk.id);
  }

  const std::vector<lexical::SymbolEntry> entries = symbols->entries();
  out.write(kSymbolSectionMagic, sizeof kSymbolSectionMagic);
  bin::write_u64(out, entries.size());
  for (const lexical::SymbolEntry& entry : entries) {
    bin::write_str(out, entry.symbol);
    bin::write_u64(out, entry.chunks.size());
    for (std::size_t index : entry.chunks) {
      bin::write_u64(out, index);
    }
  }
  if (!out) {
    throw std::runtime_error("Snapshot::save: write failed for " + path);
  }
}

SnapshotPtr Snapshot::load(const std::string& path) {
  namespace bin = pkb::util;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("Snapshot::load: cannot open " + path);
  }
  read_magic(in, kSnapshotMagic, "snapshot header");
  const std::uint32_t version = bin::read_u32(in, "snapshot version");
  if (version < 1 || version > kSnapshotVersion) {
    throw std::runtime_error("Snapshot::load: unsupported version " +
                             std::to_string(version));
  }
  auto snap = std::make_shared<Snapshot>();
  snap->generation = bin::read_u64(in, "generation");
  snap->embedder_fit_generation = bin::read_u64(in, "embedder_fit_generation");
  snap->chunks_at_fit = bin::read_count(in, "chunks_at_fit");
  snap->source_count = bin::read_count(in, "source_count");
  snap->opts.embedder = bin::read_str(in, "embedder name");
  snap->opts.file_pattern = bin::read_str(in, "file pattern");
  snap->opts.splitter.chunk_size = bin::read_count(in, "chunk_size");
  snap->opts.splitter.chunk_overlap = bin::read_count(in, "chunk_overlap");
  snap->opts.splitter.keep_separator =
      bin::read_u32(in, "keep_separator") != 0;
  const std::uint64_t n_separators =
      bin::read_count(in, "separator count", /*max=*/1024);
  snap->opts.splitter.separators.clear();
  for (std::uint64_t i = 0; i < n_separators; ++i) {
    snap->opts.splitter.separators.push_back(bin::read_str(in, "separator"));
  }
  snap->opts.shards =
      version >= 2 ? bin::read_count(in, "shard count", /*max=*/1 << 16) : 0;
  if (version >= 3) {
    const std::uint32_t kind = bin::read_u32(in, "index kind");
    if (kind > static_cast<std::uint32_t>(vectordb::IndexKind::Hnsw)) {
      throw std::runtime_error("Snapshot::load: unknown index kind " +
                               std::to_string(kind));
    }
    snap->opts.index.kind = static_cast<vectordb::IndexKind>(kind);
    const bool int8_flag = bin::read_u32(in, "index int8") != 0;
    snap->opts.index.quant =
        int8_flag ? vectordb::Quantizer::Int8 : vectordb::Quantizer::None;
    snap->opts.index.rerank_factor = bin::read_count(in, "rerank factor");
    snap->opts.index.ivf.clusters = bin::read_count(in, "ivf clusters");
    snap->opts.index.ivf.kmeans_iters = bin::read_count(in, "ivf iters");
    snap->opts.index.ivf.nprobe = bin::read_count(in, "ivf nprobe");
    snap->opts.index.ivf.seed = bin::read_u64(in, "ivf seed");
    snap->opts.index.hnsw.m = bin::read_count(in, "hnsw m");
    snap->opts.index.hnsw.ef_construction =
        bin::read_count(in, "hnsw ef_construction");
    snap->opts.index.hnsw.ef_search = bin::read_count(in, "hnsw ef_search");
    snap->opts.index.hnsw.seed = bin::read_u64(in, "hnsw seed");
  }
  if (version >= 4) {
    const std::uint32_t quant = bin::read_u32(in, "index quant");
    if (quant > static_cast<std::uint32_t>(vectordb::Quantizer::Pq)) {
      throw std::runtime_error("Snapshot::load: unknown quantizer " +
                               std::to_string(quant));
    }
    snap->opts.index.quant = static_cast<vectordb::Quantizer>(quant);
    snap->opts.index.pq.m = bin::read_count(in, "pq m");
    snap->opts.index.pq.kmeans_iters = bin::read_count(in, "pq iters");
    snap->opts.index.pq.seed = bin::read_u64(in, "pq seed");
  }

  snap->store = vectordb::VectorStore::load(in);

  read_magic(in, kChunkSectionMagic, "chunk section");
  const std::uint64_t chunk_count = bin::read_count(in, "chunk count");
  if (chunk_count != snap->store.size()) {
    throw std::runtime_error(
        "Snapshot::load: chunk section disagrees with vector store size");
  }
  snap->chunks.reserve(chunk_count);
  for (std::uint64_t i = 0; i < chunk_count; ++i) {
    const std::string id = bin::read_str(in, "chunk id");
    if (id != snap->store.doc(i).id) {
      throw std::runtime_error(
          "Snapshot::load: chunk id mismatch at index " + std::to_string(i));
    }
    snap->chunks.push_back(snap->store.doc(i));
  }

  read_magic(in, kSymbolSectionMagic, "symbol section");
  const std::uint64_t symbol_count = bin::read_count(in, "symbol count");
  std::vector<lexical::SymbolEntry> entries;
  entries.reserve(symbol_count);
  for (std::uint64_t i = 0; i < symbol_count; ++i) {
    lexical::SymbolEntry entry;
    entry.symbol = bin::read_str(in, "symbol name");
    const std::uint64_t n = bin::read_count(in, "symbol chunk count");
    entry.chunks.reserve(n);
    for (std::uint64_t c = 0; c < n; ++c) {
      const std::uint64_t index = bin::read_u64(in, "symbol chunk index");
      if (index >= chunk_count) {
        throw std::runtime_error(
            "Snapshot::load: symbol chunk index out of range");
      }
      entry.chunks.push_back(static_cast<std::size_t>(index));
    }
    entries.push_back(std::move(entry));
  }
  snap->symbols = std::make_shared<lexical::SymbolIndex>(
      lexical::SymbolIndex::from_entries(std::move(entries)));
  snap->lexicon = lexical::Lexicon::build(snap->chunks);

  std::unique_ptr<embed::Embedder> embedder =
      embed::make_embedder(snap->opts.embedder);
  embedder->fit(snap->chunks);
  if (snap->embedder_fit_generation == snap->generation) {
    // The saved embedder was fitted on exactly this chunk list; refitting
    // reproduces it, so the stored vectors are kept bit-exact.
    if (!snap->chunks.empty() &&
        embedder->dimension() != snap->store.dimension()) {
      throw std::runtime_error(
          "Snapshot::load: refitted embedder dimension disagrees with "
          "stored vectors");
    }
  } else {
    // Delta generation: its embedder was fitted on an older chunk list that
    // the file does not carry. Reload as a refit generation — re-embed the
    // chunks with the freshly fitted embedder so store and queries agree.
    snap->store =
        vectordb::VectorStore::from_documents(snap->chunks, *embedder);
    snap->embedder_fit_generation = snap->generation;
    snap->chunks_at_fit = snap->chunks.size();
  }
  snap->embedder = std::move(embedder);
  snap->attach_indexes();

  PKB_LOG(Info, "rag") << "snapshot loaded: generation " << snap->generation
                       << ", " << snap->chunks.size() << " chunks from "
                       << path;
  return snap;
}

}  // namespace pkb::rag
