#pragma once
// The benchmark's own span log. Spans are recorded from the benchmark's
// files around calls into the program's public functions, never from
// inside the program. Each thread appends to its own buffer (no lock on
// the recording path); the buffers are merged when the run ends.
//
// A span has a name, a start and end (steady-clock microseconds since the
// log was created), the span that caused it, and a request id shared by
// every span of one request. Self time is the span's duration minus the
// part of its interval that its direct children cover.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Sentinel parent of a root span.
inline constexpr std::int64_t kNoParent = -1;

struct SpanRecord {
  std::string name;
  std::uint64_t request = 0;
  std::int64_t parent = kNoParent;  ///< index into the same vector
  double start_us = 0.0;
  double end_us = 0.0;
  [[nodiscard]] double duration_us() const { return end_us - start_us; }
};

/// Self time of every span in `spans` (same order): its duration minus the
/// measure of the union of its direct children's intervals clipped to its
/// own interval. Overlapping children are counted once.
[[nodiscard]] std::vector<double> self_times_us(
    const std::vector<SpanRecord>& spans);

class SpanLog {
 public:
  SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  [[nodiscard]] double now_us() const;
  /// A steady-clock time in seconds (loadgen.h now_s()) on this log's
  /// microsecond scale.
  [[nodiscard]] double us_of(double steady_s) const;

  /// Record a finished span with explicit times (a span whose interval is
  /// known only afterwards, e.g. an open-loop request from its due time to
  /// its completion). `parent` is a handle from this thread or kNoParent.
  /// Returns this span's handle on the calling thread.
  std::int64_t record(std::string name, std::uint64_t request,
                      std::int64_t parent, double start_us, double end_us);

  /// RAII span on the calling thread. Its parent is the innermost open
  /// Scope of the same thread; it closes in scope order.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::int64_t index_ = kNoParent;
  };

  /// All spans of all threads, parents remapped into the merged vector.
  /// Call after every recording thread has finished.
  [[nodiscard]] std::vector<SpanRecord> merged() const;

  /// Chrome trace-event JSON of merged() (load in Perfetto).
  [[nodiscard]] std::string chrome_json() const;

 private:
  struct Buffer {
    std::vector<SpanRecord> spans;
    std::vector<std::int64_t> open;  ///< indices of open Scopes
    int tid = 0;
  };
  Buffer& local();

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;  ///< guards buffers_ (registration only)
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::uint64_t id_ = 0;  ///< distinguishes logs in the thread-local map
};

}  // namespace perfbench
