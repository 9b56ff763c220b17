// Thread-safety regression test for the observability layer: hammers the
// tracing spans, the leveled logger and the metrics registry from many
// threads at once, then checks the emitted artifacts are still coherent
// (the JSON parses, counters add up, log lines never shear). Run it under
// -DLR_SANITIZE=thread to turn the hammer into a race detector.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <latch>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/profile.hpp"
#include "support/json.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/progress.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"
#include "symbolic/relation.hpp"
#include "symbolic/space.hpp"

namespace lr::support {
namespace {

constexpr std::size_t kThreads = 8;
constexpr std::size_t kRoundsPerThread = 200;

// With exactly kThreads tasks on a kThreads-wide pool, a task that blocks
// until all tasks have started cannot share a worker thread with another
// task. On a single-core machine one worker would otherwise happily drain
// the whole queue before the rest wake up, and the hammer would test
// nothing.
std::latch& start_line(std::latch& gate) {
  gate.count_down();
  gate.wait();
  return gate;
}

TEST(ObservabilityThreadsTest, TraceHammerProducesParsableLanes) {
  trace::start();
  {
    std::latch gate(kThreads);
    ThreadPool pool(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      pool.submit([&gate, t] {
        start_line(gate);
        for (std::size_t round = 0; round < kRoundsPerThread; ++round) {
          LR_TRACE_SPAN_NAMED(outer, "hammer.outer");
          outer.attr("thread", static_cast<std::uint64_t>(t));
          outer.attr("round", static_cast<std::uint64_t>(round));
          {
            LR_TRACE_SPAN("hammer.inner");
          }
          // Counter lanes ride along but must not count as span events.
          trace::counter("hammer.progress", static_cast<double>(round));
        }
      });
    }
    pool.wait_idle();
  }
  trace::stop();
  // Two spans per round per thread; counter events are excluded on purpose
  // (event_count feeds span-shaped assertions like this one).
  EXPECT_EQ(trace::event_count(), kThreads * kRoundsPerThread * 2);

  const auto doc = json_parse(trace::to_chrome_json());
  ASSERT_TRUE(doc.has_value()) << "trace JSON no longer parses";
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // Every complete event carries a lane id; concurrent spans must have
  // landed on more than one lane for the hammer to have tested anything.
  std::vector<double> lanes;
  std::size_t complete = 0;
  std::size_t counters = 0;
  for (const JsonValue& event : events->array) {
    const JsonValue* ph = event.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "C") {
      ++counters;
      continue;
    }
    if (ph->string != "X") continue;
    ++complete;
    const JsonValue* tid = event.find("tid");
    ASSERT_NE(tid, nullptr);
    ASSERT_TRUE(tid->is_number());
    if (std::find(lanes.begin(), lanes.end(), tid->number) == lanes.end()) {
      lanes.push_back(tid->number);
    }
  }
  EXPECT_EQ(complete, kThreads * kRoundsPerThread * 2);
  EXPECT_EQ(counters, kThreads * kRoundsPerThread);
  EXPECT_EQ(lanes.size(), kThreads);
}

TEST(ObservabilityThreadsTest, HeartbeatHammerEmitsWholeLines) {
  std::ostringstream sink;
  set_log_stream(&sink);
  progress::configure(0.001);
  {
    // One shared Heartbeat, as in the batch executor: due()/emit() race
    // across workers, and every resulting line must still be whole.
    progress::Heartbeat beat("hammer");
    std::latch gate(kThreads);
    ThreadPool pool(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      pool.submit([&beat, &gate, t] {
        start_line(gate);
        for (std::size_t round = 0; round < kRoundsPerThread; ++round) {
          beat.maybe_emit("thread " + std::to_string(t) + " round " +
                          std::to_string(round) + " tail");
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      });
    }
    pool.wait_idle();
  }
  progress::configure(0.0);
  set_log_stream(nullptr);

  std::istringstream lines(sink.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    ++count;
    EXPECT_EQ(line.rfind("[progress] hammer: thread ", 0), 0u) << line;
    EXPECT_EQ(line.substr(line.size() - 5), " tail") << line;
  }
  EXPECT_GT(count, 0u) << "a 1ms interval must fire at least once";
}

TEST(ObservabilityThreadsTest, MetricsHammerCountsExactly) {
  metrics::Registry registry;
  {
    std::latch gate(kThreads);
    ThreadPool pool(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      pool.submit([&registry, &gate, t] {
        start_line(gate);
        for (std::size_t round = 0; round < kRoundsPerThread; ++round) {
          registry.add("hammer.shared");
          registry.add("hammer.thread" + std::to_string(t));
          registry.set_gauge("hammer.last_round",
                             static_cast<double>(round));
          registry.max_gauge("hammer.high_water",
                             static_cast<double>(t * 1000 + round));
        }
      });
    }
    pool.wait_idle();
  }
  EXPECT_EQ(registry.counter("hammer.shared"), kThreads * kRoundsPerThread);
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(registry.counter("hammer.thread" + std::to_string(t)),
              kRoundsPerThread);
  }
  EXPECT_EQ(registry.gauge("hammer.high_water"),
            static_cast<double>((kThreads - 1) * 1000 + kRoundsPerThread - 1));

  const auto doc = json_parse(registry.to_json());
  ASSERT_TRUE(doc.has_value()) << "metrics JSON no longer parses";
  const JsonValue* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* shared = counters->find("hammer.shared");
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->number,
            static_cast<double>(kThreads * kRoundsPerThread));
}

// The intra engine's concurrency protocol has every worker thread traverse
// the main manager's node pool read-only (Manager::node_view) while the
// main thread sits quiescent between dispatch and join, and merges the
// worker profilers into the main one after every join. This hammer drives
// that whole read path — pins, concurrent imports, worker-side products,
// export-to-main — many times over with the profiler on, and checks the
// sharded results stay bit-identical to a sequential reference. Under
// -DLR_SANITIZE=thread it doubles as the race detector for node_view and
// the shared profiler counters.
TEST(ObservabilityThreadsTest, IntraBddReadPathHammerMatchesSequential) {
  sym::Space space;
  constexpr std::size_t kProcs = 6;
  std::vector<sym::VarId> vars;
  for (std::size_t i = 0; i < kProcs; ++i) {
    vars.push_back(space.add_variable("x" + std::to_string(i), 4));
  }
  // Ring of copy actions: process i reads its right neighbor, everything
  // else stays put — small pieces, but enough shared structure that the
  // workers chase overlapping regions of the main node pool.
  std::vector<bdd::Bdd> rels;
  for (std::size_t i = 0; i < kProcs; ++i) {
    bdd::Bdd rel = space.vars_eq(vars[i], sym::Version::kNext,
                                 vars[(i + 1) % kProcs], sym::Version::kCurrent);
    for (std::size_t j = 0; j < kProcs; ++j) {
      if (j != i) rel &= space.unchanged(vars[j]);
    }
    rels.push_back(rel);
  }
  std::vector<bdd::Bdd> froms;
  for (std::uint32_t v = 0; v < 4; ++v) {
    froms.push_back(space.value_eq(vars[0], v, sym::Version::kCurrent) &
                    space.value_lt(vars[1], v + 1, sym::Version::kCurrent));
  }
  const sym::TransitionRelation relation =
      sym::TransitionRelation::build(space, rels, sym::RelationMode::kMono);
  // Sequential references, computed before sharding is switched on (same
  // manager, so canonicity makes equality a node-id comparison).
  std::vector<bdd::Bdd> img_ref;
  std::vector<bdd::Bdd> pre_ref;
  for (const bdd::Bdd& from : froms) {
    img_ref.push_back(space.image(relation, from));
    pre_ref.push_back(space.preimage(relation, from));
  }

  space.enable_intra(4);
  bdd::profile::set_enabled(true);
  constexpr std::size_t kHammerRounds = 50;
  {
    LR_TRACE_SPAN("hammer.intra_bdd");
    for (std::size_t round = 0; round < kHammerRounds; ++round) {
      const std::size_t v = round % froms.size();
      const bdd::Bdd img = space.image(relation, froms[v]);
      const bdd::Bdd pre = space.preimage(relation, froms[v]);
      ASSERT_TRUE(img == img_ref[v]) << "sharded image diverged, round "
                                     << round;
      ASSERT_TRUE(pre == pre_ref[v]) << "sharded preimage diverged, round "
                                     << round;
    }
  }
  bdd::profile::set_enabled(false);

  // Worker-side work must have been merged back under the dispatching
  // span, not lost and not left "(unattributed)".
  const auto& buckets = space.manager().profiler().buckets();
  const auto it = buckets.find("hammer.intra_bdd");
  ASSERT_NE(it, buckets.end());
  EXPECT_GT(it->second.op(bdd::profile::OpClass::kQuantify).calls, 0u);
  EXPECT_GT(it->second.work_steps(), 0u);
}

TEST(ObservabilityThreadsTest, LogHammerEmitsWholeLines) {
  std::ostringstream sink;
  set_log_stream(&sink);
  const LogLevel before = log_level();
  set_log_level(LogLevel::info);
  {
    std::latch gate(kThreads);
    ThreadPool pool(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      pool.submit([&gate, t] {
        start_line(gate);
        for (std::size_t round = 0; round < kRoundsPerThread; ++round) {
          LR_LOG(info) << "hammer thread=" << t << " round=" << round
                       << " tail";
        }
      });
    }
    pool.wait_idle();
  }
  set_log_level(before);
  set_log_stream(nullptr);

  // Every line must be complete: "[info] hammer thread=T round=R tail".
  std::istringstream lines(sink.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    ++count;
    EXPECT_EQ(line.rfind("[info] hammer thread=", 0), 0u) << line;
    EXPECT_NE(line.find(" tail"), std::string::npos) << line;
  }
  EXPECT_EQ(count, kThreads * kRoundsPerThread);
}

}  // namespace
}  // namespace lr::support
