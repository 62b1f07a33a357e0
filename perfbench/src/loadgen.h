#pragma once
// Load generators. A closed loop gives each client its next request only
// after the previous one returns; an open loop sends on a schedule no
// matter how the system keeps up, and times every request from the moment
// it was due, so a stall is charged to every request it delays. The open
// loop also reports how late it was itself.

#include <cstddef>
#include <functional>
#include <vector>

#include "stats.h"

namespace perfbench {

/// Seconds on the steady clock (process-wide origin).
[[nodiscard]] double now_s();

/// Sleep until `deadline` (now_s() scale).
void wait_until(double deadline);

/// What issuing one open-loop request hands back: empty when the request
/// already completed inside issue (e.g. a cache hit answered on the
/// caller's thread), else a callable that blocks until it completes.
using Waiter = std::function<void()>;

struct OpenLoopResult {
  std::vector<double> due_s;         ///< absolute due times
  std::vector<double> completed_s;   ///< absolute completion times
  Samples latency_s;                 ///< completion - due, every request
  Samples lateness_s;                ///< issue start - due
  Samples issue_s;                   ///< time spent inside issue()
  double origin_s = 0.0;             ///< the time offsets count from
};

/// Issue request i at origin + offsets_s[i] for every i, in order, from a
/// sender thread of its own. issue(i) must not block for long except where the
/// system under test pushes back (that time is what issue_s measures).
/// Neither issue nor a waiter may throw: record failures instead.
/// Outstanding requests are awaited in issue order on one collector
/// thread; a request that finishes before an earlier one is stamped when
/// the collector reaches it (an upper bound on its completion time).
[[nodiscard]] OpenLoopResult run_open_loop(
    const std::vector<double>& offsets_s,
    const std::function<Waiter(std::size_t)>& issue);

struct ClosedLoopResult {
  Samples latency_s;         ///< every completed call
  std::vector<double> finish_s;  ///< when each call in latency_s returned
  double start_s = 0.0;      ///< when the clients started
  std::size_t completed = 0;
  double wall_s = 0.0;       ///< first start to the last client's stop
};

/// `clients` threads each call work(client) back to back until `seconds`
/// have passed since the start (the call in flight at the deadline
/// finishes and counts). work returns false to stop that client early. An
/// exception from work stops its client and is rethrown once all clients
/// have finished.
[[nodiscard]] ClosedLoopResult run_closed_loop(
    std::size_t clients, double seconds,
    const std::function<bool(std::size_t)>& work);

}  // namespace perfbench
