// The workloads and the traced run. The program is driven only through its
// public entry points (serve::Server, serve::SessionManager,
// ingest::Ingestor, rag::AugmentedWorkflow, the stage graph); every timing
// and span here is taken from outside, around those calls.
#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdarg>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "corpus/generator.h"
#include "corpus/questions.h"
#include "eval/rubric.h"
#include "ingest/ingestor.h"
#include "llm/model_config.h"
#include "obs/trace.h"
#include "rag/knowledge_base.h"
#include "rag/stage_graph.h"
#include "rag/workflow.h"
#include "serve/server.h"
#include "serve/session.h"

#include "inputs.h"
#include "loadgen.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

namespace rag = pkb::rag;
namespace serve = pkb::serve;

// Load shape. The generator never uses more threads than the machine's
// four cores: four closed-loop clients, or one open-loop sender plus its
// collector and the ingest writer.
constexpr std::size_t kClients = 4;
constexpr int kSetupRepeats = 15;
/// End-to-end rates and latency percentiles are taken per window of the
/// timed phase and reported as the median over the windows, so one burst
/// of interference from outside the process moves one window, not the
/// result.
constexpr double kWindowSeconds = 1.0;
/// The timed phase runs in equal segments, each on a freshly built system
/// (new server threads, new allocations) after its own warm-up, so no
/// single process-level state (where the scheduler put the threads, how
/// the heap was laid out) decides a run.
int segments_of(const std::string&) { return 4; }
constexpr double kWarmupSeconds = 1.0;
/// Back-to-back publishes in the traced run's ingest burst (enough for a
/// supported p99 of the swap time), with a computed request after every
/// tenth.
constexpr std::size_t kIngestBurst = 1010;
constexpr std::size_t kPostPublishEvery = 10;

FaqShape faq_shape() {
  FaqShape s;
  s.rate_per_s = 2000.0;
  s.tail_share = 0.10;
  s.zipf_s = 1.1;
  s.ingest_every = 500;
  s.rotating_paths = 4;
  return s;
}

const std::vector<Canonical>& canonical() {
  static const std::vector<Canonical> set = [] {
    std::vector<Canonical> out;
    for (const auto& q : pkb::corpus::krylov_benchmark()) {
      out.push_back(Canonical{q.question, q.decisive_symbol});
    }
    return out;
  }();
  return set;
}

// --- the system under test --------------------------------------------------

/// Everything set-up builds, in construction order (destroyed in reverse).
struct System {
  pkb::text::VirtualDir corpus;
  std::unique_ptr<rag::KnowledgeBase> kb;
  std::unique_ptr<rag::AugmentedWorkflow> wf;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::SessionManager> sessions;
  std::unique_ptr<pkb::ingest::Ingestor> ingestor;
};

serve::ServerOptions server_options() {
  serve::ServerOptions o;  // program defaults: 4 workers, caches on
  o.llm_latency_scale = 0.0;  // compute-bound: no simulated LLM sleep
  return o;
}

std::unique_ptr<System> build_system(bool with_sessions, bool with_ingestor) {
  auto s = std::make_unique<System>();
  s->corpus = pkb::corpus::generate_corpus();
  s->kb = std::make_unique<rag::KnowledgeBase>(
      rag::KnowledgeBase::build(s->corpus));
  rag::RetrieverOptions retriever;
  retriever.reranker = "sim-flashrank";
  s->wf = std::make_unique<rag::AugmentedWorkflow>(
      *s->kb, rag::PipelineArm::RagRerank,
      pkb::llm::model_config("sim-gpt-4o"), retriever);
  s->server = std::make_unique<serve::Server>(*s->wf, server_options());
  if (with_sessions) {
    s->sessions = std::make_unique<serve::SessionManager>(*s->server);
  }
  if (with_ingestor) s->ingestor = std::make_unique<pkb::ingest::Ingestor>(*s->kb);
  return s;
}

struct Setup {
  std::unique_ptr<System> sys;
  std::vector<double> seconds;  ///< one per repeat
};

/// Build the system `repeats` times (each previous one freed first, so
/// peak memory holds one system) and keep the last.
Setup timed_setup(bool with_sessions, bool with_ingestor, int repeats) {
  Setup s;
  for (int i = 0; i < repeats; ++i) {
    s.sys.reset();
    const double t0 = now_s();
    s.sys = build_system(with_sessions, with_ingestor);
    s.seconds.push_back(now_s() - t0);
  }
  return s;
}

// --- outcome digests --------------------------------------------------------

std::uint64_t fnv(std::uint64_t h, std::string_view s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return (h ^ 0xff) * 0x100000001b3ULL;  // field separator
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// Response text plus the ids of the final contexts, in order.
std::uint64_t digest(const rag::WorkflowOutcome& o) {
  std::uint64_t h = fnv(kFnvBasis, o.response.text);
  for (const rag::RetrievedContext& c : o.retrieval.contexts) {
    h = fnv(h, c.doc != nullptr ? std::string_view(c.doc->id) : "");
  }
  return h;
}

std::uint64_t digest(const serve::TurnOutcome& t) {
  std::uint64_t h = digest(t.outcome);
  h = fnv(h, std::to_string(t.turn));
  h = fnv(h, std::to_string(t.deduped_contexts));
  return fnv(h, std::to_string(t.history_contexts));
}

bool retrieved_source(const rag::WorkflowOutcome& o, const std::string& path,
                      const std::string& token) {
  for (const rag::RetrievedContext& c : o.retrieval.contexts) {
    if (c.doc != nullptr && c.doc->meta("source") == path &&
        c.doc->text.find(token) != std::string::npos) {
      return true;
    }
  }
  return false;
}

/// Peak resident set size of the process so far (the kernel's VmHWM).
double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    throw std::runtime_error("getrusage failed");
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The 37 canonical questions through `ask`, scored with the Table I
/// rubric. Returns the mean score.
template <typename Ask>
double answer_score_mean(Ask&& ask) {
  const auto& qs = pkb::corpus::krylov_benchmark();
  double total = 0.0;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    total += pkb::eval::score_answer(qs[i], ask(i, qs[i].question)).score;
  }
  return total / static_cast<double>(qs.size());
}

// --- report helpers ---------------------------------------------------------

void add(Report& r, std::string name, double value, std::string unit,
         std::size_t samples) {
  r.metrics.push_back(Metric{std::move(name), value, std::move(unit), samples});
}

void line(Report& r, const char* fmt, ...) __attribute__((format(printf, 2, 3)));
void line(Report& r, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  r.lines.emplace_back(buf);
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

double segment_seconds(const RunOptions& o) {
  return o.seconds / segments_of(o.workload);
}

/// Inputs of one segment: distinct for every (seed, segment) pair.
std::uint64_t segment_seed(std::uint64_t seed, int segment) {
  return seed * 16 + static_cast<std::uint64_t>(segment);
}

/// The timed phase's completions, cut into windows segment by segment.
struct Phase {
  std::vector<Samples> windows;
  double window_s = kWindowSeconds;
  Samples all;  ///< every latency, for the whole-phase text report

  void add(const std::vector<double>& at_s, const Samples& latency_s,
           double start_s, double seconds) {
    const std::size_t count = std::max<std::size_t>(
        1, static_cast<std::size_t>(seconds / kWindowSeconds));
    window_s = std::min(kWindowSeconds, seconds);
    for (Samples& w :
         by_window(at_s, latency_s.values(), start_s, window_s, count)) {
      windows.push_back(std::move(w));
    }
    all.append(latency_s);
  }
};

/// The end-to-end metrics every workload reports.
void add_end_to_end(Report& r, const Setup& setup, const Phase& phase,
                    double score, const Samples& visible_s, const Tally& t) {
  std::vector<double> rate, p50, p99;
  std::size_t n = 0;
  for (const Samples& w : phase.windows) {
    rate.push_back(static_cast<double>(w.count()) / phase.window_s);
    p50.push_back(w.median().value);
    p99.push_back(w.percentile(99.0).value);
    n += w.count();
  }
  add(r, "setup_s", median_of(setup.seconds), "s", setup.seconds.size());
  add(r, "throughput_rps", median_of(rate), "1/s", n);
  add(r, "latency_p50_ms", median_of(p50) * 1e3, "ms", n);
  add(r, "latency_p99_ms", median_of(p99) * 1e3, "ms", n);
  add(r, "ok_ratio",
      static_cast<double>(t.attempted - t.failed) /
          static_cast<double>(std::max<std::uint64_t>(1, t.attempted)),
      "fraction", t.attempted);
  add(r, "answer_score_mean", score, "rubric",
      pkb::corpus::krylov_benchmark().size());
  add(r, "peak_rss_mb", peak_rss_mb(), "MB", 1);
  const Percentile vis = visible_s.median();
  add(r, "ingest_visible_p50_ms", vis.value * 1e3, "ms", vis.samples);
  const std::size_t count = phase.windows.size();
  for (std::size_t i = 0; i < count; i += 5) {
    std::string per_window;
    for (std::size_t j = i; j < std::min(count, i + 5); ++j) {
      char buf[96];
      std::snprintf(buf, sizeof buf, " [%.0f/s p50 %.3f p99 %.3f]", rate[j],
                    p50[j] * 1e3, p99[j] * 1e3);
      per_window += buf;
    }
    line(r, "  windows %2zu-%2zu (ms):%s", i + 1, std::min(count, i + 5),
         per_window.c_str());
  }
  line(r, "  %zu windows of %.1f s; whole-phase latency p50 %s ms, p99 %s ms",
       count, phase.window_s,
       with_count(phase.all.median().value * 1e3, n).c_str(),
       with_count(phase.all.percentile(99.0).value * 1e3, n).c_str());
  for (const Metric& m : r.metrics) {
    line(r, "  %-24s %14.6g %-8s n=%zu", m.name.c_str(), m.value,
         m.unit.c_str(), m.samples);
  }
  r.attempted = t.attempted;
  r.failed = t.failed;
  r.correct = t.failed == 0;
}

/// Publishes measured after the timed phase of a workload that has no
/// writer of its own: each one is followed by a probe through the
/// workload's serving path, timed from the ingest_files call until the
/// probe's answer retrieved the new source.
constexpr std::size_t kFreshnessProbes = 60;

template <typename Probe>
Samples idle_freshness(System& sys, std::uint64_t seed, Probe&& probe,
                       Tally& t) {
  Samples visible_s;
  for (std::size_t k = 0; k < kFreshnessProbes; ++k) {
    const IngestBatch b = ingest_batch(faq_shape(), seed ^ 0xf5e5, k);
    ++t.attempted;
    const double t0 = now_s();
    bool ok = false;
    try {
      const rag::SnapshotPtr snap =
          sys.ingestor->ingest_files({{b.path, b.markdown}});
      const rag::WorkflowOutcome out = probe(k, b.probe);
      ok = snap != nullptr && out.generation >= snap->generation &&
           retrieved_source(out, b.path, b.token);
    } catch (const std::exception&) {
    }
    visible_s.add(now_s() - t0);
    if (!ok) ++t.failed;
  }
  return visible_s;
}

// --- qa_unique --------------------------------------------------------------

struct Served {
  std::uint64_t index = 0;
  std::uint64_t digest = 0;
  bool ok = false;
};

Report run_qa_unique(const RunOptions& o) {
  Report r;
  Setup setup = timed_setup(false, true, kSetupRepeats);
  std::unique_ptr<System> fresh = std::move(setup.sys);
  const UniqueQuestions timed(canonical(), o.seed, 1);
  const UniqueQuestions warm(canonical(), o.seed, 2);
  std::atomic<std::uint64_t> next{0}, warm_next{0};
  std::vector<std::vector<Served>> served(kClients);
  Phase phase;
  for (int seg = 0; seg < segments_of(o.workload); ++seg) {
    if (seg > 0) {
      fresh.reset();
      fresh = build_system(false, true);
    }
    serve::Server& server = *fresh->server;
    (void)run_closed_loop(kClients, kWarmupSeconds, [&](std::size_t) {
      (void)server.ask(warm.at(warm_next.fetch_add(1)));
      return true;
    });
    const ClosedLoopResult load =
        run_closed_loop(kClients, segment_seconds(o), [&](std::size_t c) {
          Served s;
          s.index = next.fetch_add(1);
          try {
            const rag::WorkflowOutcome out = server.ask(timed.at(s.index));
            s.digest = digest(out);
            s.ok = !out.degraded();
          } catch (const std::exception&) {
          }
          served[c].push_back(s);
          return true;
        });
    phase.add(load.finish_s, load.latency_s, load.start_s, segment_seconds(o));
  }
  System& sys = *fresh;

  // Reference: every served question again, straight through
  // AugmentedWorkflow::ask (no Server, no caches), after the timed phase.
  // Each client's questions are recomputed one at a time on a thread of
  // their own.
  Tally t;
  std::atomic<std::uint64_t> failed{0}, mismatched{0};
  {
    std::vector<std::thread> refs;
    for (std::size_t c = 0; c < kClients; ++c) {
      t.attempted += served[c].size();
      refs.emplace_back([&, c] {
        for (const Served& s : served[c]) {
          bool same = false;
          try {
            same = s.ok && digest(sys.wf->ask(timed.at(s.index))) == s.digest;
          } catch (const std::exception&) {
          }
          if (!same) failed.fetch_add(1);
          if (s.ok && !same) mismatched.fetch_add(1);
        }
      });
    }
    for (std::thread& th : refs) th.join();
  }
  t.failed = failed.load();
  const double score = answer_score_mean([&](std::size_t, const std::string& q) {
    return sys.server->ask(q).response.text;
  });
  const Samples visible_s = idle_freshness(
      sys, o.seed,
      [&](std::size_t, const std::string& q) { return sys.server->ask(q); }, t);
  line(r, "qa_unique: %zu closed-loop clients, %zu unique questions in %.2f s",
       kClients, phase.all.count(), o.seconds);
  line(r, "  reference mismatches %llu, failed %llu of %llu",
       static_cast<unsigned long long>(mismatched.load()),
       static_cast<unsigned long long>(t.failed),
       static_cast<unsigned long long>(t.attempted));
  const serve::Server::Stats st = sys.server->stats();
  line(r, "  answer cache hits %llu / lookups %llu (unique by construction)",
       static_cast<unsigned long long>(st.answer_cache.hits),
       static_cast<unsigned long long>(st.answer_cache.hits +
                                       st.answer_cache.misses));
  add_end_to_end(r, setup, phase, score, visible_s, t);
  return r;
}

// --- faq_ingest -------------------------------------------------------------

struct IngestRecord {
  double call_s = 0.0;       ///< ingest_files called
  double published_s = 0.0;  ///< ingest_files returned (generation live)
  double visible_s = 0.0;    ///< the probe retrieved the new source
  bool ok = false;
};

struct FaqRun {
  OpenLoopResult load;
  std::vector<char> ok;
  std::uint64_t stale = 0;
  std::uint64_t errors = 0;
  std::vector<IngestRecord> ingests;
  serve::Server::Stats before, after;
};

/// Drive `arrivals` open-loop through Server::submit while a writer thread
/// ingests one batch (batch ids from `batch_base`) after every marked
/// arrival and probes until the new source is retrieved.
FaqRun drive_faq(System& sys, const std::vector<Arrival>& arrivals,
                 std::uint64_t seed, std::uint64_t batch_base, SpanLog* log,
                 std::atomic<std::uint64_t>& ids) {
  const FaqShape shape = faq_shape();
  FaqRun run;
  run.ok.assign(arrivals.size(), 0);
  run.before = sys.server->stats();
  std::atomic<std::uint64_t> stale{0}, errors{0};

  std::mutex wmu;
  std::condition_variable wcv;
  std::uint64_t pending = 0;
  bool closing = false;
  std::thread writer([&] {
    for (std::uint64_t k = 0;; ++k) {
      {
        std::unique_lock<std::mutex> lock(wmu);
        wcv.wait(lock, [&] { return closing || pending > 0; });
        if (pending == 0) return;
        --pending;
      }
      const IngestBatch b = ingest_batch(shape, seed, batch_base + k);
      IngestRecord rec;
      rec.call_s = now_s();
      std::uint64_t gen = 0;
      try {
        const rag::SnapshotPtr snap =
            sys.ingestor->ingest_files({{b.path, b.markdown}});
        rec.published_s = now_s();
        gen = snap != nullptr ? snap->generation : 0;
        const rag::WorkflowOutcome out = sys.server->ask(b.probe);
        rec.ok = gen > 0 && out.generation >= gen &&
                 retrieved_source(out, b.path, b.token);
      } catch (const std::exception&) {
        rec.published_s = now_s();
      }
      rec.visible_s = now_s();
      if (log != nullptr) {
        const std::uint64_t id = ids.fetch_add(1);
        const std::int64_t root =
            log->record("ingest", id, kNoParent, log->us_of(rec.call_s),
                        log->us_of(rec.visible_s));
        log->record("ingest.ingest_files", id, root, log->us_of(rec.call_s),
                    log->us_of(rec.published_s));
        log->record("ingest.probe", id, root, log->us_of(rec.published_s),
                    log->us_of(rec.visible_s));
      }
      run.ingests.push_back(rec);
    }
  });

  auto check = [&](std::size_t i, std::uint64_t gen_sent,
                   std::future<rag::WorkflowOutcome>& f) {
    try {
      const rag::WorkflowOutcome out = f.get();
      if (out.generation < gen_sent) stale.fetch_add(1);
      run.ok[i] = !out.degraded() && out.generation >= gen_sent;
    } catch (const std::exception&) {
      errors.fetch_add(1);
    }
  };

  std::vector<double> offsets;
  offsets.reserve(arrivals.size());
  for (const Arrival& a : arrivals) offsets.push_back(a.due_s);
  run.load = run_open_loop(offsets, [&](std::size_t i) -> Waiter {
    const Arrival& a = arrivals[i];
    const std::uint64_t gen_sent = sys.kb->generation();
    std::future<rag::WorkflowOutcome> f;
    try {
      f = sys.server->submit(a.question);
    } catch (const std::exception&) {
      errors.fetch_add(1);
    }
    if (a.ingest_after) {
      {
        std::lock_guard<std::mutex> lock(wmu);
        ++pending;
      }
      wcv.notify_one();
    }
    if (!f.valid()) return {};
    if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      check(i, gen_sent, f);
      return {};
    }
    auto shared = std::make_shared<std::future<rag::WorkflowOutcome>>(std::move(f));
    return [&check, i, gen_sent, shared] { check(i, gen_sent, *shared); };
  });
  {
    std::lock_guard<std::mutex> lock(wmu);
    closing = true;
  }
  wcv.notify_one();
  writer.join();
  run.after = sys.server->stats();
  run.stale = stale.load();
  run.errors = errors.load();

  if (log != nullptr) {
    const std::vector<double>& late = run.load.lateness_s.values();
    const std::vector<double>& in_submit = run.load.issue_s.values();
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      const std::uint64_t id = ids.fetch_add(1);
      const double due = run.load.due_s[i];
      const double sent = due + late[i];
      const double back = sent + in_submit[i];
      const std::int64_t root =
          log->record("faq.request", id, kNoParent, log->us_of(due),
                      log->us_of(run.load.completed_s[i]));
      log->record("loadgen.late", id, root, log->us_of(due), log->us_of(sent));
      log->record("serve.submit", id, root, log->us_of(sent), log->us_of(back));
      log->record("serve.wait", id, root, log->us_of(back),
                  log->us_of(run.load.completed_s[i]));
    }
  }
  return run;
}

Tally faq_tally(const FaqRun& run) {
  Tally t;
  t.attempted = run.ok.size() + run.ingests.size();
  for (char ok : run.ok) t.failed += ok ? 0 : 1;
  for (const IngestRecord& rec : run.ingests) t.failed += rec.ok ? 0 : 1;
  return t;
}

/// Warm-up: one publish and the canonical questions asked once, so the
/// reranker fit and the answer cache are settled before timing.
void warm_faq(System& sys, std::uint64_t seed) {
  const IngestBatch b = ingest_batch(faq_shape(), seed ^ 0x3a3a, 0);
  (void)sys.ingestor->ingest_files({{b.path, b.markdown}});
  for (const Canonical& c : canonical()) (void)sys.server->ask(c.question);
}

Report run_faq_ingest(const RunOptions& o) {
  Report r;
  Setup setup = timed_setup(false, true, kSetupRepeats);
  std::unique_ptr<System> fresh = std::move(setup.sys);
  std::atomic<std::uint64_t> ids{0};
  Phase phase;
  Tally t;
  Samples visible_s, lateness_s, submit_s;
  std::uint64_t hits = 0, lookups = 0, stale = 0, errors = 0, bad_probes = 0;
  std::size_t arrivals_total = 0, ingests_total = 0;
  for (int seg = 0; seg < segments_of(o.workload); ++seg) {
    if (seg > 0) {
      fresh.reset();
      fresh = build_system(false, true);
    }
    warm_faq(*fresh, o.seed);
    const std::vector<Arrival> arrivals =
        faq_arrivals(canonical(), faq_shape(), segment_seed(o.seed, seg),
                     segment_seconds(o));
    const FaqRun run = drive_faq(*fresh, arrivals, o.seed,
                                 1000 * static_cast<std::uint64_t>(seg),
                                 nullptr, ids);
    const Tally st = faq_tally(run);
    t.attempted += st.attempted;
    t.failed += st.failed;
    for (const IngestRecord& rec : run.ingests) {
      visible_s.add(rec.visible_s - rec.call_s);
      bad_probes += rec.ok ? 0 : 1;
    }
    const std::uint64_t h =
        run.after.answer_cache.hits - run.before.answer_cache.hits;
    hits += h;
    lookups += h + run.after.answer_cache.misses - run.before.answer_cache.misses;
    stale += run.stale;
    errors += run.errors;
    arrivals_total += arrivals.size();
    ingests_total += run.ingests.size();
    lateness_s.append(run.load.lateness_s);
    submit_s.append(run.load.issue_s);
    phase.add(run.load.completed_s, run.load.latency_s, run.load.origin_s,
              segment_seconds(o));
  }
  System& sys = *fresh;
  const double score = answer_score_mean([&](std::size_t, const std::string& q) {
    return sys.server->ask(q).response.text;
  });
  line(r, "faq_ingest: open loop at %.0f/s, %zu arrivals, %zu ingests "
       "(one per %llu arrivals)",
       faq_shape().rate_per_s, arrivals_total, ingests_total,
       static_cast<unsigned long long>(faq_shape().ingest_every));
  line(r, "  answer cache hits %llu / lookups %llu; stale answers %llu; "
       "errors %llu; failed probes %llu",
       static_cast<unsigned long long>(hits),
       static_cast<unsigned long long>(lookups),
       static_cast<unsigned long long>(stale),
       static_cast<unsigned long long>(errors),
       static_cast<unsigned long long>(bad_probes));
  line(r, "  generator lateness p50 %.1f us p99 %.1f us; inside submit p50 "
       "%.1f us p99 %.1f us max %.1f us (n=%zu)",
       lateness_s.median().value * 1e6,
       lateness_s.percentile(99.0).value * 1e6,
       submit_s.median().value * 1e6, submit_s.percentile(99.0).value * 1e6,
       submit_s.max() * 1e6, submit_s.count());
  add_end_to_end(r, setup, phase, score, visible_s, t);
  return r;
}

// --- agent_sessions ---------------------------------------------------------

struct TurnRec {
  std::uint64_t digest = 0;
  bool ok = false;
  double queue_wait_s = 0.0;
  std::size_t deduped = 0;
  std::size_t history = 0;
  std::size_t retrieved = 0;
};

struct SessionLog {
  SessionScript script;
  std::vector<TurnRec> turns;
};

struct AgentRun {
  ClosedLoopResult load;
  std::vector<std::vector<SessionLog>> per_agent;
};

/// kClients agent threads, each running its own scripted sessions one turn
/// at a time through SessionManager::ask.
AgentRun drive_agents(serve::SessionManager& mgr, std::uint64_t seed,
                      std::uint64_t agent_base, double seconds, SpanLog* log,
                      std::atomic<std::uint64_t>& ids) {
  AgentRun run;
  run.per_agent.resize(kClients);
  std::vector<std::size_t> next_turn(kClients, 0);
  run.load = run_closed_loop(kClients, seconds, [&](std::size_t c) {
    std::vector<SessionLog>& mine = run.per_agent[c];
    if (mine.empty() || next_turn[c] == mine.back().script.turns.size()) {
      mine.push_back(SessionLog{
          agent_session(canonical(), seed, agent_base + c, mine.size()), {}});
      next_turn[c] = 0;
    }
    SessionLog& s = mine.back();
    TurnRec rec;
    try {
      const std::uint64_t id = ids.fetch_add(1);
      SpanLog::Scope span(log, "session.turn", id);
      const serve::TurnOutcome t =
          mgr.ask(s.script.id, s.script.turns[next_turn[c]]);
      rec.digest = digest(t);
      rec.ok = !t.shed() && !t.outcome.degraded();
      rec.queue_wait_s = t.queue_wait_seconds;
      rec.deduped = t.deduped_contexts;
      rec.history = t.history_contexts;
      rec.retrieved = t.outcome.retrieval.contexts.size();
    } catch (const std::exception&) {
    }
    s.turns.push_back(rec);
    ++next_turn[c];
    return true;
  });
  return run;
}

Report run_agent_sessions(const RunOptions& o) {
  Report r;
  Setup setup = timed_setup(true, true, kSetupRepeats);
  std::unique_ptr<System> fresh = std::move(setup.sys);
  std::atomic<std::uint64_t> ids{0};
  Phase phase;
  std::vector<AgentRun> runs;
  for (int seg = 0; seg < segments_of(o.workload); ++seg) {
    if (seg > 0) {
      fresh.reset();
      fresh = build_system(true, true);
    }
    const auto base = static_cast<std::uint64_t>(seg) * kClients;
    (void)drive_agents(*fresh->sessions, o.seed, 100 + base, kWarmupSeconds,
                       nullptr, ids);
    runs.push_back(drive_agents(*fresh->sessions, o.seed, base,
                                segment_seconds(o), nullptr, ids));
    const ClosedLoopResult& load = runs.back().load;
    phase.add(load.finish_s, load.latency_s, load.start_s, segment_seconds(o));
  }
  System& sys = *fresh;

  // Reference: replay every session's turns in order on a fresh
  // SessionManager over a fresh Server; each agent's sessions replay one
  // turn at a time on a thread of their own.
  Tally t;
  std::atomic<std::uint64_t> failed{0}, mismatched{0};
  std::size_t sessions = 0;
  {
    serve::Server fresh_server(*sys.wf, server_options());
    serve::SessionManager fresh_mgr(fresh_server);
    std::vector<std::thread> replays;
    for (std::size_t c = 0; c < kClients; ++c) {
      for (const AgentRun& run : runs) {
        sessions += run.per_agent[c].size();
        for (const SessionLog& s : run.per_agent[c]) t.attempted += s.turns.size();
      }
      replays.emplace_back([&, c] {
        for (const AgentRun& run : runs) {
          for (const SessionLog& s : run.per_agent[c]) {
            for (std::size_t k = 0; k < s.turns.size(); ++k) {
              bool same = false;
              try {
                same = s.turns[k].ok &&
                       digest(fresh_mgr.ask(s.script.id, s.script.turns[k])) ==
                           s.turns[k].digest;
              } catch (const std::exception&) {
              }
              if (!same) failed.fetch_add(1);
              if (s.turns[k].ok && !same) mismatched.fetch_add(1);
            }
          }
        }
      });
    }
    for (std::thread& th : replays) th.join();
  }
  t.failed = failed.load();
  const double score = answer_score_mean([&](std::size_t i, const std::string& q) {
    return sys.sessions->ask("score-" + std::to_string(i), q)
        .outcome.response.text;
  });
  const Samples visible_s = idle_freshness(
      sys, o.seed,
      [&](std::size_t k, const std::string& q) {
        return sys.sessions->ask("fresh-" + std::to_string(k), q).outcome;
      },
      t);
  line(r, "agent_sessions: %zu agents, %zu turns in %zu sessions in %.2f s",
       kClients, phase.all.count(), sessions, o.seconds);
  line(r, "  replay mismatches %llu, failed %llu of %llu",
       static_cast<unsigned long long>(mismatched.load()),
       static_cast<unsigned long long>(t.failed),
       static_cast<unsigned long long>(t.attempted));
  add_end_to_end(r, setup, phase, score, visible_s, t);
  return r;
}

// --- the traced run ---------------------------------------------------------

constexpr const char* kStageSpans[rag::kStageCount] = {
    "stage.embed",  "stage.retrieve", "stage.rerank",
    "stage.prompt", "stage.generate", "stage.postprocess",
};

/// Per-session memory the benchmark keeps for the stage ledger of
/// agent_sessions, filled exactly as SessionManager (at its default
/// options) fills its own: the retrieval memory of attached context ids and
/// the last turns as history, so the staged requests carry the prompts the
/// lanes would build.
struct LedgerSession {
  SessionScript script;
  std::size_t next = 0;
  std::unordered_set<std::string> seen;
  std::deque<std::string> seen_order;
  std::uint64_t memory_generation = 0;
  std::deque<pkb::llm::ContextDoc> history;
};

const serve::SessionOptions kSessionDefaults;

void fill_inputs(const LedgerSession& s,
                 const std::vector<pkb::llm::ContextDoc>& history,
                 rag::SessionPromptContext& ctx) {
  if (!s.seen.empty()) {
    ctx.seen_context_ids = &s.seen;
    ctx.memory_generation = s.memory_generation;
  }
  if (!history.empty()) ctx.history_contexts = &history;
}

void remember(LedgerSession& s, const std::string& question,
              rag::SessionPromptContext& ctx, const rag::WorkflowOutcome& out) {
  if (ctx.memory_stale) {
    s.seen.clear();
    s.seen_order.clear();
  }
  s.memory_generation = out.generation;
  for (std::string& id : ctx.attached_context_ids) {
    if (s.seen.insert(id).second) {
      s.seen_order.push_back(std::move(id));
      if (s.seen_order.size() > kSessionDefaults.max_memory_entries) {
        s.seen.erase(s.seen_order.front());
        s.seen_order.pop_front();
      }
    }
  }
  pkb::llm::ContextDoc doc;
  doc.id = "session:" + s.script.id + ":turn:" + std::to_string(s.next + 1);
  doc.title = "Earlier in this conversation";
  doc.text = "Q: " + question + "\nA: " +
             (out.processed.plain_text.empty() ? out.response.text
                                               : out.processed.plain_text);
  s.history.push_back(std::move(doc));
  while (s.history.size() > kSessionDefaults.max_history_turns) {
    s.history.pop_front();
  }
}

/// Stage ledger: the workload's computed requests at its concurrency, each
/// run stage by stage through global_stage_graph().run_range(st, k, k)
/// under a `request` span with one child span per stage, and once more
/// through AugmentedWorkflow::ask under an `ask` span (order alternating).
/// The two must give the same answer.
Tally stage_ledger(System& sys, const std::string& workload,
                   std::uint64_t seed, double seconds, SpanLog& log,
                   std::atomic<std::uint64_t>& ids) {
  const bool sessions = workload == "agent_sessions";
  const UniqueQuestions unique(canonical(), seed, 3);
  const std::vector<Arrival> faq =
      faq_arrivals(canonical(), faq_shape(), seed, 60.0);
  std::atomic<std::uint64_t> next{0};
  std::vector<LedgerSession> ledger(kClients);
  std::vector<std::size_t> sessions_started(kClients, 0);
  std::atomic<std::uint64_t> attempted{0}, failed{0};
  const rag::StageGraph& graph = rag::global_stage_graph();

  (void)run_closed_loop(kClients, seconds, [&](std::size_t c) {
    std::string question;
    LedgerSession& ls = ledger[c];
    if (sessions) {
      if (ls.script.turns.empty() || ls.next == ls.script.turns.size()) {
        ls = LedgerSession{};
        ls.script = agent_session(canonical(), seed, 200 + c,
                                  sessions_started[c]++);
      }
      question = ls.script.turns[ls.next];
    } else if (workload == "faq_ingest") {
      question = faq[next.fetch_add(1) % faq.size()].question;
    } else {
      question = unique.at(next.fetch_add(1));
    }
    const std::vector<pkb::llm::ContextDoc> history(ls.history.begin(),
                                                    ls.history.end());
    rag::SessionPromptContext staged_ctx, direct_ctx;
    if (sessions) {
      fill_inputs(ls, history, staged_ctx);
      fill_inputs(ls, history, direct_ctx);
    }
    const std::uint64_t id = ids.fetch_add(1);
    rag::StageState st;
    rag::WorkflowOutcome direct;
    auto run_staged = [&] {
      SpanLog::Scope root(&log, "request", id);
      st.wf = sys.wf.get();
      st.question = question;
      st.session = sessions ? &staged_ctx : nullptr;
      for (int k = 0; k < rag::kStageCount; ++k) {
        SpanLog::Scope span(&log, kStageSpans[k], id);
        const auto kind = static_cast<rag::StageKind>(k);
        graph.run_range(st, kind, kind);
      }
    };
    auto run_direct = [&] {
      SpanLog::Scope span(&log, "ask", id);
      direct = sys.wf->ask(question, nullptr, nullptr,
                           sessions ? &direct_ctx : nullptr);
    };
    attempted.fetch_add(1);
    try {
      if (id % 2 == 0) {
        run_staged();
        run_direct();
      } else {
        run_direct();
        run_staged();
      }
      if (digest(st.outcome) != digest(direct) || st.outcome.degraded()) {
        failed.fetch_add(1);
      }
    } catch (const std::exception&) {
      failed.fetch_add(1);
    }
    if (sessions) {
      remember(ls, question, staged_ctx, st.outcome);
      ++ls.next;
    }
    return true;
  });
  return Tally{attempted.load(), failed.load()};
}

struct NamedSamples {
  std::unordered_map<std::string, Samples> self_us;
  std::unordered_map<std::string, Samples> duration_us;
};

NamedSamples summarize(const std::vector<SpanRecord>& spans) {
  NamedSamples out;
  const std::vector<double> self = self_times_us(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out.self_us[spans[i].name].add(self[i]);
    out.duration_us[spans[i].name].add(spans[i].duration_us());
  }
  return out;
}

struct ServeProbe {
  double rps1 = 0.0, rps4 = 0.0, rps4_untraced = 0.0;
  Samples server_us, direct_us;
  serve::Server::Stats before, after;  ///< around the 4-client phase
  Tally tally;
};

/// Unique questions through Server::ask at one and four clients (program
/// tracer on, then off) and straight through AugmentedWorkflow::ask at four.
ServeProbe serve_probe(System& sys, std::uint64_t seed, double each_s,
                       SpanLog& log, std::atomic<std::uint64_t>& ids) {
  ServeProbe p;
  const UniqueQuestions unique(canonical(), seed, 4);
  std::atomic<std::uint64_t> next{0};
  std::atomic<std::uint64_t> failed{0};
  auto via_server = [&](std::size_t) {
    const std::uint64_t id = ids.fetch_add(1);
    SpanLog::Scope span(&log, "serve.ask", id);
    if (sys.server->ask(unique.at(next.fetch_add(1))).degraded()) {
      failed.fetch_add(1);
    }
    return true;
  };
  const ClosedLoopResult one = run_closed_loop(1, each_s, via_server);
  p.rps1 = static_cast<double>(one.completed) / one.wall_s;
  p.before = sys.server->stats();
  const ClosedLoopResult four = run_closed_loop(kClients, each_s, via_server);
  p.after = sys.server->stats();
  p.rps4 = static_cast<double>(four.completed) / four.wall_s;
  p.server_us = four.latency_s;
  pkb::obs::global_tracer().set_enabled(false);
  const ClosedLoopResult off = run_closed_loop(kClients, each_s, via_server);
  pkb::obs::global_tracer().set_enabled(true);
  p.rps4_untraced = static_cast<double>(off.completed) / off.wall_s;
  const ClosedLoopResult direct = run_closed_loop(kClients, each_s, [&](std::size_t) {
    const std::uint64_t id = ids.fetch_add(1);
    SpanLog::Scope span(&log, "workflow.ask", id);
    if (sys.wf->ask(unique.at(next.fetch_add(1))).degraded()) failed.fetch_add(1);
    return true;
  });
  p.direct_us = direct.latency_s;
  for (Samples* s : {&p.server_us, &p.direct_us}) {
    Samples us;
    for (double x : s->values()) us.add(x * 1e6);
    *s = us;
  }
  p.tally.attempted = one.completed + four.completed + off.completed + direct.completed;
  p.tally.failed = failed.load();
  return p;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

struct HitRatios {
  double answer = 0.0, memo = 0.0;
};

HitRatios hit_ratios(const serve::Server::Stats& a, const serve::Server::Stats& b) {
  const std::uint64_t ah = b.answer_cache.hits - a.answer_cache.hits;
  const std::uint64_t am = b.answer_cache.misses - a.answer_cache.misses;
  const std::uint64_t mh = b.embedding_cache.hits - a.embedding_cache.hits;
  const std::uint64_t mm = b.embedding_cache.misses - a.embedding_cache.misses;
  return HitRatios{ratio(ah, ah + am), ratio(mh, mh + mm)};
}

Report run_traced(const RunOptions& o) {
  Report r;
  const std::string& w = o.workload;
  Setup setup = timed_setup(true, true, 1);
  System& sys = *setup.sys;
  SpanLog log;
  std::atomic<std::uint64_t> ids{0};
  Tally total;
  auto tally = [&](const Tally& t) {
    total.attempted += t.attempted;
    total.failed += t.failed;
  };
  // Warm-up so lazy fits and caches settle before anything is recorded.
  warm_faq(sys, o.seed);
  {
    SpanLog warmup_log;
    tally(stage_ledger(sys, w, o.seed ^ 0x77, kWarmupSeconds, warmup_log, ids));
  }

  // (a) the stage ledger on this workload's traffic.
  tally(stage_ledger(sys, w, o.seed, 0.3 * o.seconds, log, ids));
  // (b) serving layer over unique questions.
  const ServeProbe sp = serve_probe(sys, o.seed, 0.05 * o.seconds, log, ids);
  tally(sp.tally);
  // (c) faq traffic with live ingestion, then a publish burst.
  const std::vector<Arrival> arrivals =
      faq_arrivals(canonical(), faq_shape(), o.seed, 0.2 * o.seconds);
  const FaqRun faq = drive_faq(sys, arrivals, o.seed, 1000, &log, ids);
  tally(faq_tally(faq));
  Samples publish_ms, post_publish_ms;
  const UniqueQuestions after_publish(canonical(), o.seed, 5);
  for (std::size_t k = 0; k < kIngestBurst; ++k) {
    const IngestBatch b = ingest_batch(faq_shape(), o.seed, 100000 + k);
    const std::uint64_t id = ids.fetch_add(1);
    const double t0 = now_s();
    {
      SpanLog::Scope span(&log, "ingest.ingest_files", id);
      if (sys.ingestor->ingest_files({{b.path, b.markdown}}) == nullptr) {
        ++total.failed;
      }
    }
    publish_ms.add((now_s() - t0) * 1e3);
    ++total.attempted;
    if (k % kPostPublishEvery == 0) {
      const double t1 = now_s();
      {
        SpanLog::Scope span(&log, "kb.post_publish", id);
        if (sys.server->ask(after_publish.at(k)).degraded()) ++total.failed;
      }
      post_publish_ms.add((now_s() - t1) * 1e3);
      ++total.attempted;
    }
  }
  // (d) agent sessions through the SessionManager.
  const serve::Server::Stats before_sessions = sys.server->stats();
  const serve::SessionManager::Stats sess_before = sys.sessions->stats();
  const AgentRun agents =
      drive_agents(*sys.sessions, o.seed, 300, 0.2 * o.seconds, &log, ids);
  const serve::Server::Stats after_sessions = sys.server->stats();
  const serve::SessionManager::Stats sess_after = sys.sessions->stats();

  // --- per-layer metrics ---
  const std::vector<SpanRecord> spans = log.merged();
  const NamedSamples named = summarize(spans);
  auto self_of = [&](const std::string& name) -> const Samples& {
    const auto it = named.self_us.find(name);
    if (it == named.self_us.end()) throw std::runtime_error("no spans: " + name);
    return it->second;
  };
  double stage_mean_sum = 0.0;
  for (const char* s : kStageSpans) stage_mean_sum += self_of(s).mean();
  for (const char* s : kStageSpans) {
    const Samples& x = self_of(s);
    const Percentile p = x.median();
    add(r, std::string(s) + ".self_us", p.value, "us", p.samples);
  }
  for (const char* s : kStageSpans) {
    add(r, std::string(s) + ".share", self_of(s).mean() / stage_mean_sum,
        "fraction", self_of(s).count());
  }
  const Samples& ask_us = named.duration_us.at("ask");
  const Samples& request_us = named.duration_us.at("request");

  const Percentile srv = sp.server_us.median();
  const Percentile dir = sp.direct_us.median();
  add(r, "serve.overhead_us", srv.value - dir.value, "us",
      std::min(srv.samples, dir.samples));
  HitRatios hits;
  if (w == "faq_ingest") {
    hits = hit_ratios(faq.before, faq.after);
  } else if (w == "agent_sessions") {
    hits = hit_ratios(before_sessions, after_sessions);
  } else {
    hits = hit_ratios(sp.before, sp.after);
  }
  add(r, "serve.answer_cache_hit_ratio", hits.answer, "fraction", 0);
  add(r, "serve.embed_memo_hit_ratio", hits.memo, "fraction", 0);
  Samples submit_us;
  for (double x : faq.load.issue_s.values()) submit_us.add(x * 1e6);
  const Percentile sub = submit_us.percentile(99.0);
  add(r, "serve.submit_block_p99_us", sub.value, "us", sub.samples);
  add(r, "serve.scaling_eff", sp.rps4 / (static_cast<double>(kClients) * sp.rps1),
      "ratio", 0);
  add(r, "obs.tracer_on_off_ratio", sp.rps4 / sp.rps4_untraced, "ratio", 0);

  const Percentile pub = publish_ms.median();
  add(r, "ingest.publish_ms_p50", pub.value, "ms", pub.samples);
  Samples swap_us;
  for (double x : sys.ingestor->swap_history()) swap_us.add(x * 1e6);
  const Percentile swap = swap_us.percentile(99.0);
  add(r, "ingest.swap_us_p99", swap.value, "us", swap.samples);
  add(r, "ingest.refits", static_cast<double>(sys.ingestor->stats().refits),
      "count", 0);
  const Percentile post = post_publish_ms.median();
  add(r, "kb.post_publish_ms", post.value, "ms", post.samples);

  Samples wait_us, history;
  std::uint64_t deduped = 0, retrieved = 0;
  std::vector<std::uint64_t> per_lane(sys.sessions->options().lanes, 0);
  for (const auto& agent : agents.per_agent) {
    for (const SessionLog& s : agent) {
      per_lane[sys.sessions->lane_of(s.script.id)] += s.turns.size();
      for (const TurnRec& t : s.turns) {
        ++total.attempted;
        if (!t.ok) ++total.failed;
        wait_us.add(t.queue_wait_s * 1e6);
        history.add(static_cast<double>(t.history));
        deduped += t.deduped;
        retrieved += t.retrieved;
      }
    }
  }
  const Percentile w50 = wait_us.median();
  const Percentile w99 = wait_us.percentile(99.0);
  add(r, "session.queue_wait_us_p50", w50.value, "us", w50.samples);
  add(r, "session.queue_wait_us_p99", w99.value, "us", w99.samples);
  add(r, "session.dedup_ratio", ratio(deduped, retrieved), "fraction",
      history.count());
  add(r, "session.history_contexts_mean", history.mean(), "count",
      history.count());
  double lane_sum = 0.0, lane_max = 0.0;
  for (std::uint64_t n : per_lane) {
    lane_sum += static_cast<double>(n);
    lane_max = std::max(lane_max, static_cast<double>(n));
  }
  add(r, "session.lane_imbalance",
      lane_max / (lane_sum / static_cast<double>(per_lane.size())), "ratio", 0);
  add(r, "session.shed", static_cast<double>(sess_after.shed - sess_before.shed),
      "count", 0);

  add(r, "trace.overhead", ask_us.mean() / request_us.mean(), "ratio",
      request_us.count());
  add(r, "trace.unaccounted_share", 1.0 - stage_mean_sum / ask_us.mean(),
      "fraction", ask_us.count());
  Samples late_us;
  for (double x : faq.load.lateness_s.values()) late_us.add(x * 1e6);
  const Percentile late = late_us.percentile(99.0);
  add(r, "loadgen.lateness_p99_us", late.value, "us", late.samples);

  // --- text report ---
  line(r, "traced run for %s: %zu spans, %llu requests (%llu failed)",
       w.c_str(), spans.size(), static_cast<unsigned long long>(total.attempted),
       static_cast<unsigned long long>(total.failed));
  line(r, "  %-22s %10s %12s %12s", "span", "count", "self p50 us",
       "self mean us");
  std::vector<std::string> names;
  for (const auto& [name, s] : named.self_us) names.push_back(name);
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    const Samples& s = named.self_us.at(name);
    line(r, "  %-22s %10zu %12.2f %12.2f", name.c_str(), s.count(),
         s.supports(50.0) ? s.median().value : s.mean(), s.mean());
  }
  line(r, "  direct ask mean %.2f us = stage self sum %.2f us + remainder "
       "%.2f us",
       ask_us.mean(), stage_mean_sum, ask_us.mean() - stage_mean_sum);
  line(r, "  server 1 client %.1f/s, 4 clients %.1f/s (program tracer off "
       "%.1f/s)",
       sp.rps1, sp.rps4, sp.rps4_untraced);
  for (const Metric& m : r.metrics) {
    line(r, "  %-34s %14.6g %-8s n=%zu", m.name.c_str(), m.value,
         m.unit.c_str(), m.samples);
  }
  if (!o.trace_out.empty()) {
    std::filesystem::create_directories(o.trace_out);
    const std::string path = o.trace_out + "/" + w + "-seed" +
                             std::to_string(o.seed) + ".json";
    std::ofstream(path) << log.chrome_json();
    line(r, "  span log written to %s", path.c_str());
  }
  r.attempted = total.attempted;
  r.failed = total.failed;
  r.correct = total.failed == 0;
  return r;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"qa_unique", "faq_ingest",
                                                 "agent_sessions"};
  return names;
}

Report run(const RunOptions& o) {
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  }
  if (o.trace) return run_traced(o);
  if (o.workload == "qa_unique") return run_qa_unique(o);
  if (o.workload == "faq_ingest") return run_faq_ingest(o);
  return run_agent_sessions(o);
}

}  // namespace perfbench
