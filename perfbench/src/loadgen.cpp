#include "loadgen.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include <sys/prctl.h>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void wait_until(double deadline) {
  const double left = deadline - now_s();
  if (left > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(left));
  }
}

OpenLoopResult run_open_loop(const std::vector<double>& offsets_s,
                             const std::function<Waiter(std::size_t)>& issue) {
  const std::size_t n = offsets_s.size();
  OpenLoopResult r;
  r.due_s.resize(n);
  r.completed_s.resize(n);

  struct Pending {
    std::size_t index;
    Waiter wait;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> fifo;
  bool done = false;

  std::thread collector([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !fifo.empty(); });
        if (fifo.empty()) return;
        p = std::move(fifo.front());
        fifo.pop_front();
      }
      p.wait();
      r.completed_s[p.index] = now_s();
    }
  });

  // The sender gets a thread of its own, so where the scheduler puts it
  // is decided afresh for every call rather than inherited from the caller.
  std::thread sender([&] {
    // A sleeping sender, not a spinning one: the scheduler then treats it
    // as interactive and runs it promptly when it wakes, instead of
    // charging it for a busy loop and letting busy server threads delay
    // it. The tightest timer slack keeps the wake-up close to the due time.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const double origin = now_s() + 0.001;
    r.origin_s = origin;
    for (std::size_t i = 0; i < n; ++i) {
      const double due = origin + offsets_s[i];
      r.due_s[i] = due;
      wait_until(due);
      const double start = now_s();
      Waiter w = issue(i);
      const double end = now_s();
      r.lateness_s.add(start - due);
      r.issue_s.add(end - start);
      if (!w) {
        r.completed_s[i] = end;
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        fifo.push_back(Pending{i, std::move(w)});
      }
      cv.notify_one();
    }
  });
  sender.join();
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  collector.join();

  for (std::size_t i = 0; i < n; ++i) {
    r.latency_s.add(r.completed_s[i] - r.due_s[i]);
  }
  return r;
}

ClosedLoopResult run_closed_loop(std::size_t clients, double seconds,
                                 const std::function<bool(std::size_t)>& work) {
  std::vector<Samples> per(clients);
  std::vector<std::vector<double>> finished(clients);
  std::vector<double> stop(clients, 0.0);
  const double start = now_s();
  const double deadline = start + seconds;
  std::vector<std::exception_ptr> errors(clients);
  std::vector<std::thread> fleet;
  fleet.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    fleet.emplace_back([&, c] {
      double t = now_s();
      try {
        while (t < deadline) {
          if (!work(c)) break;
          const double after = now_s();
          per[c].add(after - t);
          finished[c].push_back(after);
          t = after;
        }
      } catch (...) {
        errors[c] = std::current_exception();
      }
      stop[c] = t;
    });
  }
  for (std::thread& t : fleet) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  ClosedLoopResult r;
  r.start_s = start;
  for (std::size_t c = 0; c < clients; ++c) {
    r.latency_s.append(per[c]);
    r.finish_s.insert(r.finish_s.end(), finished[c].begin(), finished[c].end());
    r.wall_s = std::max(r.wall_s, stop[c] - start);
  }
  r.completed = r.latency_s.count();
  return r;
}

}  // namespace perfbench
