// Exact-conservation suite for the call-path profiler and its flamegraph
// export, run over every case study:
//
//  * the flat attribution table (buckets()) is exactly the call-path tree
//    rolled up by leaf span name — no counter is created or destroyed by
//    the re-bucketing;
//  * collapsed-stack line weights sum to the run's total work_steps under
//    every weight mode that is deterministic;
//  * the collapsed output is byte-identical between intra_jobs = 2 and
//    intra_jobs = 4, because workers charge the dispatching thread's span
//    path and merge after join (a sequential run executes a different plan
//    — no sharding engine — so its profile legitimately differs);
//  * measuring does not change what is measured: a profiled run leaves the
//    main manager with exactly the cache lookups and created nodes of an
//    unprofiled run of the same plan, sequential and sharded alike.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bdd/profile.hpp"
#include "casestudies/byzantine.hpp"
#include "casestudies/chain.hpp"
#include "casestudies/tmr.hpp"
#include "casestudies/token_ring.hpp"
#include "program/distributed_program.hpp"
#include "repair/lazy.hpp"

namespace lr::repair {
namespace {

using bdd::profile::OpClass;
using ProgramFactory =
    std::function<std::unique_ptr<prog::DistributedProgram>()>;

struct ProfileRun {
  bool success = false;
  bdd::ManagerStats main_stats;
  bdd::profile::SpanCounters totals;
  bdd::profile::SpanCounters flat_sum;
  bdd::profile::SpanCounters tree_sum;
  std::string collapsed_steps;
  std::string collapsed_nodes;
};

ProfileRun run_profiled(const ProgramFactory& make, std::size_t intra_jobs) {
  bdd::profile::set_enabled(true);
  std::unique_ptr<prog::DistributedProgram> program = make();
  Options options;
  options.intra_jobs = intra_jobs;
  const RepairResult result = lazy_repair(*program, options);

  const bdd::profile::Profiler& prof = program->space().manager().profiler();
  ProfileRun run;
  run.success = result.success;
  run.main_stats = program->space().manager().stats();
  run.totals = prof.totals();
  for (const auto& [name, counters] : prof.buckets()) {
    run.flat_sum.accumulate(counters);
  }
  for (const bdd::profile::Profiler::PathNode& node : prof.path_nodes()) {
    run.tree_sum.accumulate(node.counters);
  }
  run.collapsed_steps =
      bdd::profile::to_collapsed(prof, bdd::profile::FlameWeight::kSteps);
  run.collapsed_nodes =
      bdd::profile::to_collapsed(prof, bdd::profile::FlameWeight::kNodes);
  bdd::profile::set_enabled(false);
  return run;
}

bdd::ManagerStats run_unprofiled(const ProgramFactory& make,
                                 std::size_t intra_jobs) {
  std::unique_ptr<prog::DistributedProgram> program = make();
  Options options;
  options.intra_jobs = intra_jobs;
  const RepairResult result = lazy_repair(*program, options);
  EXPECT_TRUE(result.success);
  return program->space().manager().stats();
}

std::uint64_t sum_collapsed_weights(const std::string& collapsed) {
  std::uint64_t sum = 0;
  std::istringstream lines(collapsed);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t split = line.rfind(' ');
    EXPECT_NE(split, std::string::npos) << line;
    if (split == std::string::npos) continue;
    sum += std::stoull(line.substr(split + 1));
  }
  return sum;
}

void expect_counters_equal(const bdd::profile::SpanCounters& a,
                           const bdd::profile::SpanCounters& b,
                           const std::string& what) {
  for (unsigned c = 0; c < bdd::profile::kOpClassCount; ++c) {
    const auto op = static_cast<OpClass>(c);
    EXPECT_EQ(a.op(op).calls, b.op(op).calls)
        << what << ": " << bdd::profile::op_class_name(op) << " calls";
    EXPECT_EQ(a.op(op).steps, b.op(op).steps)
        << what << ": " << bdd::profile::op_class_name(op) << " steps";
  }
  EXPECT_EQ(a.created_nodes, b.created_nodes) << what;
  EXPECT_EQ(a.unique_hits, b.unique_hits) << what;
  EXPECT_EQ(a.cache_lookups, b.cache_lookups) << what;
  EXPECT_EQ(a.cache_hits, b.cache_hits) << what;
  EXPECT_EQ(a.gc_runs, b.gc_runs) << what;
  EXPECT_EQ(a.gc_reclaimed, b.gc_reclaimed) << what;
}

void expect_conservation(const char* name, const ProgramFactory& make) {
  const ProfileRun seq = run_profiled(make, 1);
  EXPECT_TRUE(seq.success) << name;
  EXPECT_GT(seq.totals.work_steps(), 0u) << name;

  // Flat table == tree rollup == totals, counter for counter.
  expect_counters_equal(seq.flat_sum, seq.totals,
                        std::string(name) + " flat vs totals");
  expect_counters_equal(seq.tree_sum, seq.totals,
                        std::string(name) + " tree vs totals");

  // Collapsed self-weights sum exactly to the flat table's totals.
  EXPECT_EQ(sum_collapsed_weights(seq.collapsed_steps),
            seq.totals.work_steps())
      << name;
  EXPECT_EQ(sum_collapsed_weights(seq.collapsed_nodes),
            seq.totals.created_nodes)
      << name;

  // Workers charge the dispatching path, and work is strided over a fixed
  // number of contexts: the profile is byte-identical whatever the thread
  // count, not merely weight-conserving.
  const ProfileRun par2 = run_profiled(make, 2);
  const ProfileRun par = run_profiled(make, 4);
  EXPECT_EQ(par2.collapsed_steps, par.collapsed_steps)
      << name << ": collapsed steps profile differs between --par-intra=2 "
      << "and --par-intra=4";
  expect_counters_equal(par.flat_sum, par.totals,
                        std::string(name) + " par flat vs totals");
  EXPECT_EQ(sum_collapsed_weights(par.collapsed_steps),
            par.totals.work_steps())
      << name;
}

/// Profiling must not choose the plan: at each intra_jobs value the
/// profiled run does exactly the main-manager work of the unprofiled one.
void expect_profiling_keeps_plan(const char* name, const ProgramFactory& make) {
  for (const std::size_t intra_jobs : {std::size_t{1}, std::size_t{4}}) {
    const ProfileRun profiled = run_profiled(make, intra_jobs);
    const bdd::ManagerStats plain = run_unprofiled(make, intra_jobs);
    const std::string what =
        std::string(name) + " intra_jobs=" + std::to_string(intra_jobs);
    EXPECT_TRUE(profiled.success) << what;
    EXPECT_EQ(profiled.main_stats.cache_lookups, plain.cache_lookups) << what;
    EXPECT_EQ(profiled.main_stats.created_nodes, plain.created_nodes) << what;
  }
}

TEST(FlamegraphConservationTest, Tmr) {
  expect_conservation("tmr", [] { return cs::make_tmr({}); });
}

TEST(FlamegraphConservationTest, TokenRing) {
  expect_conservation("token_ring", [] { return cs::make_token_ring({}); });
}

TEST(FlamegraphConservationTest, Byzantine) {
  expect_conservation("byzantine", [] { return cs::make_byzantine({}); });
}

TEST(FlamegraphConservationTest, Chain) {
  cs::ChainOptions chain;
  chain.length = 8;
  expect_conservation("Sc^8", [chain] { return cs::make_chain(chain); });
}

TEST(ProfiledPlanTest, Tmr) {
  expect_profiling_keeps_plan("tmr", [] { return cs::make_tmr({}); });
}

TEST(ProfiledPlanTest, TokenRing) {
  expect_profiling_keeps_plan("token_ring",
                              [] { return cs::make_token_ring({}); });
}

TEST(ProfiledPlanTest, Byzantine) {
  expect_profiling_keeps_plan("byzantine",
                              [] { return cs::make_byzantine({}); });
}

TEST(ProfiledPlanTest, Chain) {
  cs::ChainOptions chain;
  chain.length = 8;
  expect_profiling_keeps_plan("Sc^8",
                              [chain] { return cs::make_chain(chain); });
}

}  // namespace
}  // namespace lr::repair
