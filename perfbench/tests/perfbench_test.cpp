// Unit tests for the benchmark's own machinery: seeded inputs, the
// percentile rule, span self-time arithmetic and open-loop timing.
//
//   python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "inputs.h"
#include "loadgen.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<Canonical> canon() {
  return {{"How do I pick a Krylov method?", "KSPSetType"},
          {"How do I monitor the residual norm?", "KSPMonitorSet"},
          {"What does GMRES restart do?", "KSPGMRESSetRestart"}};
}

// --- inputs -----------------------------------------------------------------

TEST(Inputs, SameSeedSameArrivalsQuestionsAndIngests) {
  const auto c = canon();
  FaqShape shape;
  shape.rate_per_s = 500.0;
  shape.ingest_every = 50;
  const auto a = faq_arrivals(c, shape, 42, 2.0);
  const auto b = faq_arrivals(c, shape, 42, 2.0);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 500u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_EQ(a[i].question, b[i].question);
    EXPECT_EQ(a[i].ingest_after, b[i].ingest_after);
  }
  for (std::uint64_t k = 0; k < 8; ++k) {
    const IngestBatch x = ingest_batch(shape, 42, k);
    const IngestBatch y = ingest_batch(shape, 42, k);
    EXPECT_EQ(x.path, y.path);
    EXPECT_EQ(x.markdown, y.markdown);
    EXPECT_EQ(x.probe, y.probe);
    EXPECT_NE(x.markdown.find(x.token), std::string::npos);
  }
  const UniqueQuestions u1(c, 42, 1), u2(c, 42, 1);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(u1.at(i), u2.at(i));
  const SessionScript s1 = agent_session(c, 42, 2, 7);
  const SessionScript s2 = agent_session(c, 42, 2, 7);
  EXPECT_EQ(s1.id, s2.id);
  EXPECT_EQ(s1.turns, s2.turns);
}

TEST(Inputs, OtherSeedOtherSequence) {
  const auto c = canon();
  FaqShape shape;
  const auto a = faq_arrivals(c, shape, 1, 1.0);
  const auto b = faq_arrivals(c, shape, 2, 1.0);
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  EXPECT_NE(a[0].due_s, b[0].due_s);
  EXPECT_NE(UniqueQuestions(c, 1, 1).at(0), UniqueQuestions(c, 2, 1).at(0));
  EXPECT_NE(ingest_batch(shape, 1, 0).token, ingest_batch(shape, 2, 0).token);
}

TEST(Inputs, ArrivalShape) {
  const auto c = canon();
  FaqShape shape;
  shape.rate_per_s = 1000.0;
  shape.tail_share = 0.1;
  shape.ingest_every = 100;
  const auto a = faq_arrivals(c, shape, 9, 5.0);
  // Poisson count at 1000/s over 5 s: 5000 +- a few sigma (sigma ~ 71).
  EXPECT_NEAR(static_cast<double>(a.size()), 5000.0, 400.0);
  std::size_t tail = 0, ingests = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(a[i].due_s, a[i - 1].due_s);
    }
    EXPECT_LT(a[i].due_s, 5.0);
    tail += a[i].canonical < 0 ? 1 : 0;
    ingests += a[i].ingest_after ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(tail) / static_cast<double>(a.size()), 0.1,
              0.03);
  EXPECT_EQ(ingests, a.size() / 100);
}

TEST(Inputs, UniqueQuestionsNeverRepeat) {
  const auto c = canon();
  const UniqueQuestions u(c, 5, 1);
  std::vector<std::string> seen;
  for (std::uint64_t i = 0; i < 2000; ++i) seen.push_back(u.at(i));
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
  // Disjoint streams from one seed.
  EXPECT_NE(UniqueQuestions(c, 5, 1).at(0), UniqueQuestions(c, 5, 2).at(0));
}

TEST(Inputs, SessionsStayOnOneTopic) {
  const auto c = canon();
  for (std::uint64_t j = 0; j < 20; ++j) {
    const SessionScript s = agent_session(c, 3, 0, j);
    ASSERT_GE(s.turns.size(), 3u);
    ASSERT_LE(s.turns.size(), 6u);
    std::string symbol;
    for (const Canonical& x : c) {
      if (x.question == s.turns[0]) symbol = x.symbol;
    }
    ASSERT_FALSE(symbol.empty());
    for (std::size_t t = 1; t < s.turns.size(); ++t) {
      EXPECT_NE(s.turns[t].find(symbol), std::string::npos) << s.turns[t];
    }
  }
}

// --- percentiles ------------------------------------------------------------

TEST(Percentiles, ReportsSampleCountAndBeyond) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  const Percentile p50 = s.median();
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_EQ(p50.beyond, 50u);
  const Percentile p90 = s.percentile(90.0);
  EXPECT_EQ(p90.value, 90.0);
  EXPECT_EQ(p90.beyond, 10u);
}

TEST(Percentiles, RefusesFewerThanTenBeyond) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_FALSE(s.supports(99.0));  // rank 99: one sample beyond
  EXPECT_THROW((void)s.percentile(99.0), std::domain_error);
  EXPECT_THROW((void)s.percentile(91.0), std::domain_error);  // 9 beyond
  for (int i = 101; i <= 1000; ++i) s.add(i);
  EXPECT_TRUE(s.supports(99.0));  // rank 990: ten beyond
  EXPECT_EQ(s.percentile(99.0).value, 990.0);
  EXPECT_EQ(s.percentile(99.0).samples, 1000u);

  Samples few;
  for (int i = 0; i < 19; ++i) few.add(i);
  EXPECT_THROW((void)few.median(), std::domain_error);  // 9 beyond
  few.add(19);
  EXPECT_EQ(few.median().beyond, 10u);
  EXPECT_THROW((void)Samples().median(), std::domain_error);
}

TEST(Percentiles, UnorderedInput) {
  Samples s;
  for (int i = 0; i < 40; ++i) s.add((i * 17) % 40);
  EXPECT_EQ(s.median().value, 19.0);
  EXPECT_DOUBLE_EQ(s.mean(), 19.5);
}

// --- span self time ---------------------------------------------------------

SpanRecord span(std::int64_t parent, double start, double end) {
  return SpanRecord{"s", 1, parent, start, end};
}

TEST(SpanSelfTime, LeafIsItsDuration) {
  const std::vector<double> self = self_times_us({span(kNoParent, 10, 25)});
  EXPECT_DOUBLE_EQ(self[0], 15.0);
}

TEST(SpanSelfTime, NestedChildrenSubtractOnlyFromTheirParent) {
  // root [0,100] > child [10,60] > grandchild [20,50]
  const std::vector<SpanRecord> spans = {span(kNoParent, 0, 100),
                                         span(0, 10, 60), span(1, 20, 50)};
  const std::vector<double> self = self_times_us(spans);
  EXPECT_DOUBLE_EQ(self[0], 50.0);
  EXPECT_DOUBLE_EQ(self[1], 20.0);
  EXPECT_DOUBLE_EQ(self[2], 30.0);
  // Self times of a tree add up to the root's duration.
  EXPECT_DOUBLE_EQ(self[0] + self[1] + self[2], 100.0);
}

TEST(SpanSelfTime, OverlappingChildrenCountOnce) {
  // Two children overlapping on [30,40] and a third disjoint one.
  const std::vector<SpanRecord> spans = {span(kNoParent, 0, 100),
                                         span(0, 10, 40), span(0, 30, 60),
                                         span(0, 80, 90)};
  const std::vector<double> self = self_times_us(spans);
  EXPECT_DOUBLE_EQ(self[0], 100.0 - 50.0 - 10.0);
}

TEST(SpanSelfTime, ChildrenClippedToParent) {
  // A child that outlives its parent (asynchronous completion) only covers
  // the part inside the parent's interval.
  const std::vector<SpanRecord> spans = {span(kNoParent, 0, 50),
                                         span(0, 40, 70), span(0, -5, 5)};
  const std::vector<double> self = self_times_us(spans);
  EXPECT_DOUBLE_EQ(self[0], 50.0 - 10.0 - 5.0);
}

TEST(SpanLog, ScopesNestPerThreadAndMerge) {
  SpanLog log;
  auto work = [&](std::uint64_t req) {
    SpanLog::Scope root(&log, "request", req);
    for (int k = 0; k < 3; ++k) SpanLog::Scope child(&log, "stage", req);
  };
  std::thread a(work, 1), b(work, 2);
  a.join();
  b.join();
  const std::vector<SpanRecord> spans = log.merged();
  ASSERT_EQ(spans.size(), 8u);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    EXPECT_LE(s.start_us, s.end_us);
    if (s.name == "request") {
      EXPECT_EQ(s.parent, kNoParent);
    } else {
      ASSERT_GE(s.parent, 0);
      const SpanRecord& p = spans[static_cast<std::size_t>(s.parent)];
      EXPECT_EQ(p.name, "request");
      EXPECT_EQ(p.request, s.request);
      EXPECT_GE(s.start_us, p.start_us);
      EXPECT_LE(s.end_us, p.end_us);
    }
  }
  EXPECT_NE(log.chrome_json().find("\"traceEvents\""), std::string::npos);
}

// --- open loop --------------------------------------------------------------

TEST(OpenLoop, TimesFromDueTimeAndReportsLateness) {
  // Ten arrivals 2 ms apart; the third stalls the sender for 15 ms inside
  // issue, so the following requests are sent late. Their latency must be
  // counted from when they were due, not from when they were sent.
  std::vector<double> due;
  for (int i = 0; i < 10; ++i) due.push_back(0.002 * i);
  const OpenLoopResult r = run_open_loop(due, [](std::size_t i) -> Waiter {
    if (i == 2) std::this_thread::sleep_for(std::chrono::milliseconds(15));
    return {};
  });
  ASSERT_EQ(r.latency_s.count(), 10u);
  const auto& late = r.lateness_s.values();
  const auto& lat = r.latency_s.values();
  EXPECT_LT(late[0], 0.002);
  EXPECT_GE(lat[2], 0.015);
  EXPECT_GT(late[3], 0.010);  // due at 6 ms, sent after ~19 ms
  EXPECT_GT(late[4], 0.008);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_GE(lat[i], late[i]);
    EXPECT_GE(r.completed_s[i], r.due_s[i]);
  }
  EXPECT_GE(r.issue_s.max(), 0.015);
}

TEST(OpenLoop, AsynchronousCompletionsAreAwaited) {
  std::vector<double> due = {0.0, 0.001, 0.002};
  const OpenLoopResult r = run_open_loop(due, [](std::size_t) -> Waiter {
    return [] { std::this_thread::sleep_for(std::chrono::milliseconds(5)); };
  });
  ASSERT_EQ(r.latency_s.count(), 3u);
  for (double x : r.latency_s.values()) EXPECT_GE(x, 0.005);
  // Waiters run in issue order on one thread.
  EXPECT_GE(r.completed_s.back() - r.origin_s, 0.015);
}

TEST(ClosedLoop, RunsForTheRequestedTime) {
  std::atomic<int> calls{0};
  const ClosedLoopResult r = run_closed_loop(2, 0.05, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    calls.fetch_add(1);
    return true;
  });
  EXPECT_EQ(r.completed, static_cast<std::size_t>(calls.load()));
  EXPECT_GE(r.wall_s, 0.05);
  EXPECT_GT(r.completed, 20u);
}

}  // namespace
}  // namespace perfbench
