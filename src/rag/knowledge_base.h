#pragma once
// Generational retrieval substrate — the RCU-style successor of the old
// immutable RagDatabase.
//
// A `Snapshot` is one immutable generation of the knowledge base: chunked
// corpus + fitted embedder + vector store + symbol index + lexicon, stamped
// with a monotonically increasing generation id. `KnowledgeBase` holds a
// shared_ptr to the current snapshot: readers pin a generation with
// snapshot() (one pointer copy under a short lock) and keep using it for as
// long as they hold the pointer, while the ingest subsystem (src/ingest/)
// builds the next generation off to the side and publish()es it with a
// single pointer swap. In-flight queries are never torn across generations
// and a build never blocks readers.
//
// This is how the paper's central loop — resolved conversations curated
// back into the corpus so the next question retrieves from a richer KB
// (§II, §V) — runs without a process restart.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "embed/embedder.h"
#include "lexical/keyword_search.h"
#include "lexical/lexicon.h"
#include "text/loader.h"
#include "text/splitter.h"
#include "vectordb/index.h"
#include "vectordb/vector_store.h"

namespace pkb::vectordb {
class ShardRouter;
}  // namespace pkb::vectordb

namespace pkb::rag {

/// Build configuration, shared by the initial build and every later
/// ingest-built generation (carried inside each Snapshot).
struct KnowledgeBaseOptions {
  /// Embedding model registry name.
  std::string embedder = "sim-embed-3-large";
  /// Glob selecting corpus files.
  std::string file_pattern = "**/*.md";
  /// Chunking parameters (LangChain-style defaults scaled to manual pages).
  text::SplitterOptions splitter = {.chunk_size = 700,
                                    .chunk_overlap = 100,
                                    .separators = {"\n\n", "\n", " ", ""},
                                    .keep_separator = false};
  /// Vector-store partitions for scatter–gather retrieval. 0 or 1 keeps the
  /// monolithic scan; >= 2 attaches a vectordb::ShardRouter to every
  /// published snapshot and the Retriever fans queries out across shards
  /// (bit-identical results; see vectordb/shard_router.h). The monolithic
  /// `store` stays authoritative — the router is a derived read path, so
  /// sharding costs one extra copy of the vectors.
  std::size_t shards = 0;
  /// ANN strategy for the snapshot's searches (vectordb/index.h): flat/IVF/
  /// HNSW × optional int8 quantization with exact re-rank. The default
  /// (flat fp32) builds no index and keeps the exact scan. Composes with
  /// `shards`: a sharded snapshot builds one index per shard and merges
  /// unchanged. Rebuilt per generation on every ingest publish.
  vectordb::IndexSpec index;
};

/// Compat alias: the pre-generational name, still used across benches and
/// examples.
using RagDatabaseOptions = KnowledgeBaseOptions;

/// One immutable generation: everything retrieval needs, bundled. Invariant:
/// `store` entry i is the embedding of `chunks[i]` (same document, same
/// order); `symbols` and `lexicon` index into `chunks`. Never mutated after
/// publish — share freely across threads via SnapshotPtr.
struct Snapshot {
  /// Monotonic generation id; the initial build is generation 1.
  std::uint64_t generation = 0;
  KnowledgeBaseOptions opts;
  std::vector<text::Document> chunks;
  /// Fitted embedder. Shared between delta generations; replaced only by a
  /// full refit (see embedder_fit_generation).
  std::shared_ptr<const embed::Embedder> embedder;
  vectordb::VectorStore store;
  /// Scatter–gather partitions of `store` (null when opts.shards < 2). The
  /// pointee is internally synchronized (breakers, dead flags), so the
  /// chaos switches stay usable through a SnapshotPtr; the partition shape
  /// itself is immutable. A pinned snapshot pins every shard of its
  /// generation — a rolling shard swap publishes a new snapshot whose
  /// router shares the untouched shard objects, so no reader ever sees a
  /// mixed generation.
  std::shared_ptr<vectordb::ShardRouter> shards;
  /// ANN index over `store` per opts.index (null for the identity spec or
  /// when sharded — per-shard indexes live inside the router then). The
  /// retriever routes first-pass searches through it when present.
  std::shared_ptr<const vectordb::AnnIndex> ann;
  std::shared_ptr<const lexical::SymbolIndex> symbols;
  /// Per-chunk analyses and document frequencies, what the stateless
  /// rerankers score from. Derived data: rebuilt on load, never saved; a
  /// delta generation shares its retained chunks' analyses with the base.
  lexical::LexiconPtr lexicon;
  /// Number of source documents that contributed to `chunks`.
  std::size_t source_count = 0;
  /// Generation at which `embedder` was last fitted — the serve layer keys
  /// its embedding memo by this, so delta generations (same embedder) keep
  /// their memo hits and a refit invalidates them.
  std::uint64_t embedder_fit_generation = 0;
  /// Chunk count at the last embedder fit; the ingestor's drift check
  /// compares growth since then against its refit threshold.
  std::size_t chunks_at_fit = 0;

  /// Persist this generation so a cold start can skip the corpus rebuild
  /// (loaders, splitter, embed_batch). Format: versioned header + the
  /// VectorStore binary blob + chunk-id and symbol-index sections. The
  /// embedder is refitted from the chunks on load (fit is deterministic),
  /// not serialized. Throws std::runtime_error on I/O failure.
  void save(const std::string& path) const;
  static std::shared_ptr<const Snapshot> load(const std::string& path);

  /// (Re)build the derived read paths from `store`: the shard router per
  /// opts.shards (with per-shard ANN indexes per opts.index) and, when
  /// monolithic, the snapshot-level ANN index. Called by build(), load(),
  /// and the ingestor after assembling a new generation; clears both when
  /// not configured.
  void attach_indexes();
};

using SnapshotPtr = std::shared_ptr<const Snapshot>;

/// The generational knowledge base: a current-snapshot pointer plus the
/// publish protocol. Readers and publishers share the pointer only for a
/// copy or a swap; a reader's pinned snapshot stays fully usable (and alive)
/// across any number of publishes.
///
/// Compat surface: the chunks()/store()/embedder()/symbols() accessors of
/// the old immutable RagDatabase delegate to the *current* snapshot. They
/// are safe in single-generation use (every bench and example); code that
/// runs concurrently with live ingestion must pin snapshot() instead.
class KnowledgeBase {
 public:
  /// Build generation 1 from an in-memory corpus tree.
  static KnowledgeBase build(const text::VirtualDir& corpus,
                             KnowledgeBaseOptions opts = {});

  /// Adopt an existing snapshot (e.g. Snapshot::load) as the current
  /// generation.
  explicit KnowledgeBase(SnapshotPtr snap);

  /// Movable (factory return, test fixtures); moving while other threads
  /// use the source is undefined, as for any container.
  KnowledgeBase(KnowledgeBase&& other) noexcept;
  KnowledgeBase& operator=(KnowledgeBase&& other) noexcept;
  KnowledgeBase(const KnowledgeBase&) = delete;
  KnowledgeBase& operator=(const KnowledgeBase&) = delete;

  /// Pin the current generation. The returned snapshot (and every pointer
  /// into it) stays valid for as long as the caller holds the SnapshotPtr,
  /// regardless of later publishes.
  [[nodiscard]] SnapshotPtr snapshot() const {
    std::lock_guard<std::mutex> lock(snap_mu_);
    return snap_;
  }

  /// Current generation id without pinning (cheap staleness checks, e.g.
  /// the serve layer's cache validation).
  [[nodiscard]] std::uint64_t generation() const {
    return gen_.load(std::memory_order_acquire);
  }

  /// Publish `next` as the current generation: one pointer swap.
  /// In-flight readers keep their pinned snapshot; new snapshot() calls see
  /// `next`. Requires next->generation > generation() (publishers are
  /// serialized internally; a stale build throws std::logic_error).
  /// Returns the seconds spent inside the swap critical section (what
  /// bench/ingest_swap reports as swap latency).
  double publish(SnapshotPtr next);

  // --- compat accessors (current generation; see class comment) -----------
  [[nodiscard]] const std::vector<text::Document>& chunks() const {
    return current().chunks;
  }
  [[nodiscard]] const vectordb::VectorStore& store() const {
    return current().store;
  }
  [[nodiscard]] const embed::Embedder& embedder() const {
    return *current().embedder;
  }
  [[nodiscard]] const lexical::SymbolIndex& symbols() const {
    return *current().symbols;
  }
  [[nodiscard]] const KnowledgeBaseOptions& options() const {
    return current().opts;
  }
  [[nodiscard]] std::size_t source_count() const {
    return current().source_count;
  }

 private:
  /// Reference into the current snapshot. The KnowledgeBase itself keeps
  /// the snapshot alive, so the reference is valid until the next publish.
  [[nodiscard]] const Snapshot& current() const { return *snapshot(); }

  /// The current generation. A mutex-guarded shared_ptr rather than
  /// std::atomic<shared_ptr>: libstdc++'s lock-bit implementation of the
  /// latter is invisible to ThreadSanitizer, which then reports every
  /// publish racing every pin. The critical section is one shared_ptr copy.
  SnapshotPtr snap_;
  mutable std::mutex snap_mu_;
  std::atomic<std::uint64_t> gen_{0};
  mutable std::mutex publish_mu_;  ///< serializes publishers only
};

/// Compat alias: existing call sites (benches, examples, tests) keep
/// compiling against the generational substrate unchanged.
using RagDatabase = KnowledgeBase;

}  // namespace pkb::rag
