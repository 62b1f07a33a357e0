#include "spans.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

std::atomic<std::uint64_t> g_next_log_id{1};

}  // namespace

std::vector<double> self_times_us(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::vector<double> self(spans.size());
  std::vector<std::pair<double, double>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    iv.clear();
    for (std::size_t c : children[i]) {
      const double lo = std::max(spans[c].start_us, s.start_us);
      const double hi = std::min(spans[c].end_us, s.end_us);
      if (hi > lo) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0, cur_hi = 0.0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = s.duration_us() - covered;
  }
  return self;
}

SpanLog::SpanLog()
    : epoch_(std::chrono::steady_clock::now()),
      id_(g_next_log_id.fetch_add(1)) {}

double SpanLog::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

double SpanLog::us_of(double steady_s) const {
  const double epoch_s =
      std::chrono::duration<double>(epoch_.time_since_epoch()).count();
  return (steady_s - epoch_s) * 1e6;
}

SpanLog::Buffer& SpanLog::local() {
  // One buffer per (thread, log); ids are never reused, so a stale entry
  // of a destroyed log can never be mistaken for a live one.
  thread_local std::unordered_map<std::uint64_t, Buffer*> mine;
  Buffer*& slot = mine[id_];
  if (slot == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    slot = buffers_.back().get();
    slot->tid = static_cast<int>(buffers_.size());
    slot->spans.reserve(4096);
  }
  return *slot;
}

std::int64_t SpanLog::record(std::string name, std::uint64_t request,
                             std::int64_t parent, double start_us,
                             double end_us) {
  Buffer& b = local();
  b.spans.push_back(
      SpanRecord{std::move(name), request, parent, start_us, end_us});
  return static_cast<std::int64_t>(b.spans.size()) - 1;
}

SpanLog::Scope::Scope(SpanLog* log, const char* name, std::uint64_t request)
    : log_(log) {
  if (log_ == nullptr) return;
  Buffer& b = log_->local();
  const std::int64_t parent = b.open.empty() ? kNoParent : b.open.back();
  b.spans.push_back(SpanRecord{name, request, parent, log_->now_us(), 0.0});
  index_ = static_cast<std::int64_t>(b.spans.size()) - 1;
  b.open.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  Buffer& b = log_->local();
  b.spans[static_cast<std::size_t>(index_)].end_us = log_->now_us();
  b.open.pop_back();
}

std::vector<SpanRecord> SpanLog::merged() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  for (const auto& b : buffers_) {
    const auto base = static_cast<std::int64_t>(out.size());
    for (const SpanRecord& s : b->spans) {
      out.push_back(s);
      if (s.parent != kNoParent) out.back().parent = s.parent + base;
    }
  }
  return out;
}

std::string SpanLog::chrome_json() const {
  std::vector<int> tids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& b : buffers_) {
      tids.insert(tids.end(), b->spans.size(), b->tid);
    }
  }
  const std::vector<SpanRecord> spans = merged();
  std::string out = "{\"traceEvents\":[\n";
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                  "\"span\":%zu,\"parent\":%lld}}",
                  i == 0 ? "" : ",\n", s.name.c_str(), tids[i], s.start_us,
                  s.duration_us(), static_cast<unsigned long long>(s.request),
                  i, static_cast<long long>(s.parent));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
