// Unit tests for the per-span BDD profiler: counter deltas must land in
// the bucket of the innermost active trace span, with exact call counts
// for a crafted workload, and the whole layer must be a no-op when
// disabled.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/profile.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"
#include "symbolic/relation.hpp"
#include "symbolic/space.hpp"

namespace lr::bdd {
namespace {

using profile::OpClass;

/// Turns profiling on for one test and always back off, so the global
/// switch never leaks into other tests in this binary.
struct ProfilingOn {
  ProfilingOn() { profile::set_enabled(true); }
  ~ProfilingOn() { profile::set_enabled(false); }
};

class BddProfileTest : public ::testing::Test {
 protected:
  BddProfileTest() {
    for (int i = 0; i < 6; ++i) vars_.push_back(mgr_.new_var());
  }

  Manager mgr_;
  std::vector<VarIndex> vars_;
};

TEST_F(BddProfileTest, DisabledByDefaultCollectsNothing) {
  ASSERT_FALSE(profile::enabled());
  const Bdd a = mgr_.bdd_var(vars_[0]);
  const Bdd b = mgr_.bdd_var(vars_[1]);
  (void)(a & b);
  (void)mgr_.exists(a & b, mgr_.bdd_var(vars_[0]));
  EXPECT_TRUE(mgr_.profiler().empty());
}

TEST_F(BddProfileTest, ChargesExactCallCountsToInnermostSpan) {
  ProfilingOn guard;
  const Bdd a = mgr_.bdd_var(vars_[0]);
  const Bdd b = mgr_.bdd_var(vars_[1]);
  const Bdd c = mgr_.bdd_var(vars_[2]);

  {
    LR_TRACE_SPAN("profile_test.build");
    (void)(a & b);        // apply 1
    (void)(a | c);        // apply 2
    (void)(b ^ c);        // apply 3
    (void)a.ite(b, c);    // 1 ite
  }
  {
    LR_TRACE_SPAN("profile_test.quantify");
    (void)mgr_.exists(a & b, mgr_.bdd_var(vars_[0]));   // quantify 1 (+apply)
    (void)mgr_.forall(a | c, mgr_.bdd_var(vars_[2]));   // quantify 2 (+apply)
    (void)mgr_.leq(a, b);                               // 1 decide
  }
  (void)(a & c);  // no span open: unattributed apply

  const profile::Profiler& prof = mgr_.profiler();
  ASSERT_EQ(prof.buckets().size(), 3u) << "build, quantify, (unattributed)";

  const profile::SpanCounters& build =
      prof.buckets().at("profile_test.build");
  EXPECT_EQ(build.op(OpClass::kApply).calls, 3u);
  EXPECT_EQ(build.op(OpClass::kIte).calls, 1u);
  EXPECT_EQ(build.op(OpClass::kQuantify).calls, 0u);

  const profile::SpanCounters& quantify =
      prof.buckets().at("profile_test.quantify");
  EXPECT_EQ(quantify.op(OpClass::kQuantify).calls, 2u);
  EXPECT_EQ(quantify.op(OpClass::kDecide).calls, 1u);
  // The a&b / a|c rebuilt inside this span hit the cache but still count
  // as apply calls here, not in the build span.
  EXPECT_EQ(quantify.op(OpClass::kApply).calls, 2u);

  const profile::SpanCounters& other = prof.buckets().at("(unattributed)");
  EXPECT_EQ(other.op(OpClass::kApply).calls, 1u);

  const profile::SpanCounters totals = prof.totals();
  EXPECT_EQ(totals.op(OpClass::kApply).calls, 6u);
  EXPECT_EQ(totals.op(OpClass::kIte).calls, 1u);
  EXPECT_EQ(totals.op(OpClass::kQuantify).calls, 2u);
  EXPECT_GT(totals.work_steps(), 0u);
  EXPECT_GT(totals.created_nodes, 0u);
}

TEST_F(BddProfileTest, ProfileSpansStayOutOfTheTraceBuffer) {
  // Attribution must work without trace collection — and must not grow the
  // trace event buffer as a side effect.
  ProfilingOn guard;
  const std::size_t before = support::trace::event_count();
  {
    LR_TRACE_SPAN("profile_test.silent");
    (void)(mgr_.bdd_var(vars_[0]) & mgr_.bdd_var(vars_[1]));
  }
  EXPECT_EQ(support::trace::event_count(), before);
  EXPECT_EQ(mgr_.profiler()
                .buckets()
                .at("profile_test.silent")
                .op(OpClass::kApply)
                .calls,
            1u);
}

TEST_F(BddProfileTest, AttributionTableRanksByWorkAndEndsWithTotal) {
  ProfilingOn guard;
  {
    LR_TRACE_SPAN("profile_test.heavy");
    Bdd f = mgr_.bdd_true();
    for (std::size_t v = 0; v + 1 < vars_.size(); ++v) {
      f = f & (mgr_.bdd_var(vars_[v]) ^ mgr_.bdd_var(vars_[v + 1]));
    }
  }
  {
    LR_TRACE_SPAN("profile_test.light");
    (void)(mgr_.bdd_var(vars_[0]) & mgr_.bdd_var(vars_[1]));
  }

  std::ostringstream table;
  profile::write_attribution_table(mgr_.profiler(), table);
  const std::string text = table.str();
  const std::size_t heavy = text.find("profile_test.heavy");
  const std::size_t light = text.find("profile_test.light");
  const std::size_t total = text.find("TOTAL");
  ASSERT_NE(heavy, std::string::npos) << text;
  ASSERT_NE(light, std::string::npos) << text;
  ASSERT_NE(total, std::string::npos) << text;
  EXPECT_LT(heavy, light) << "rows must be sorted by work, largest first";
  EXPECT_GT(total, light) << "TOTAL row must come last";
}

TEST_F(BddProfileTest, RecordMetricsMirrorsBuckets) {
  ProfilingOn guard;
  {
    LR_TRACE_SPAN("profile_test.metrics");
    (void)(mgr_.bdd_var(vars_[0]) & mgr_.bdd_var(vars_[1]));
  }
  profile::record_metrics(mgr_.profiler(), "bddprofiletest");
  support::metrics::Registry& m = support::metrics::registry();
  EXPECT_EQ(m.counter("bddprofiletest.profile_test.metrics.apply_calls"), 1u);
  EXPECT_GE(m.gauge("bddprofiletest.profile_test.metrics.peak_nodes"), 1.0);
}

// --- Attribution under intra-problem (nested) parallelism -------------------
//
// A sharded Space fans image/preimage work out to worker threads whose
// managers charge the span that was current on the dispatching thread, and
// merges the worker profilers back after every join. Two invariants:
//
//  * attribution: worker-side work lands in the innermost dispatching
//    span's bucket — never in "(unattributed)", never in an enclosing span;
//  * conservation: re-bucketing identical work across differently-nested
//    spans must neither create nor destroy counted work — the
//    `bdd.<span>.*` totals over all buckets are the same whether the
//    workload ran under one flat span or split across nested ones.

namespace {

constexpr std::size_t kShardProcs = 5;

/// A sharded space plus the relation handles into it. `rels` is declared
/// after `space` so the handles are released before the manager they
/// point into is torn down.
struct ShardedFixture {
  std::unique_ptr<sym::Space> space;
  std::vector<bdd::Bdd> rels;
};

ShardedFixture make_sharded_space() {
  ShardedFixture fx;
  fx.space = std::make_unique<sym::Space>();
  std::vector<sym::VarId> vars;
  for (std::size_t i = 0; i < kShardProcs; ++i) {
    vars.push_back(fx.space->add_variable("p" + std::to_string(i), 4));
  }
  for (std::size_t i = 0; i < kShardProcs; ++i) {
    bdd::Bdd rel = fx.space->vars_eq(vars[i], sym::Version::kNext,
                                     vars[(i + 1) % kShardProcs],
                                     sym::Version::kCurrent);
    for (std::size_t j = 0; j < kShardProcs; ++j) {
      if (j != i) rel &= fx.space->unchanged(vars[j]);
    }
    fx.rels.push_back(rel);
  }
  fx.space->enable_intra(2);
  // Setup work (relation building) is not part of the measured workload.
  fx.space->manager().profiler().clear();
  return fx;
}

void sharded_workload(sym::Space& space, std::span<const bdd::Bdd> parts,
                      bool nested) {
  const sym::TransitionRelation rels =
      sym::TransitionRelation::build(space, parts, sym::RelationMode::kMono);
  const bdd::Bdd from = space.valid(sym::Version::kCurrent);
  if (nested) {
    LR_TRACE_SPAN("profile_test.shard_outer");
    (void)space.image(rels, from);
    {
      LR_TRACE_SPAN("profile_test.shard_inner");
      (void)space.preimage(rels, from);
    }
  } else {
    LR_TRACE_SPAN("profile_test.shard_flat");
    (void)space.image(rels, from);
    (void)space.preimage(rels, from);
  }
}

}  // namespace

TEST_F(BddProfileTest, ShardedWorkLandsInDispatchingSpan) {
  ProfilingOn guard;
  ShardedFixture fx = make_sharded_space();
  sharded_workload(*fx.space, fx.rels, /*nested=*/true);

  const auto& buckets = fx.space->manager().profiler().buckets();
  ASSERT_TRUE(buckets.count("profile_test.shard_outer")) << "outer missing";
  ASSERT_TRUE(buckets.count("profile_test.shard_inner")) << "inner missing";
  EXPECT_FALSE(buckets.count("(unattributed)"))
      << "worker-side work escaped span attribution";
  // Each sharded call runs one and_exists per partition; the image belongs
  // to the outer span, the preimage to the innermost one.
  const profile::SpanCounters& outer =
      buckets.at("profile_test.shard_outer");
  const profile::SpanCounters& inner =
      buckets.at("profile_test.shard_inner");
  EXPECT_GE(outer.op(OpClass::kQuantify).calls, kShardProcs);
  EXPECT_GE(inner.op(OpClass::kQuantify).calls, kShardProcs);
  EXPECT_GT(outer.work_steps(), 0u);
  EXPECT_GT(inner.work_steps(), 0u);
}

TEST_F(BddProfileTest, NestedSpansConserveShardedTotals) {
  ProfilingOn guard;
  // Identical workloads on two fresh, identical spaces: every BDD
  // operation sequence is deterministic, so only the span bucketing may
  // differ — the summed `bdd.<span>.*` totals must not.
  ShardedFixture flat = make_sharded_space();
  sharded_workload(*flat.space, flat.rels, /*nested=*/false);

  ShardedFixture nested = make_sharded_space();
  sharded_workload(*nested.space, nested.rels, /*nested=*/true);

  const profile::SpanCounters a = flat.space->manager().profiler().totals();
  const profile::SpanCounters b = nested.space->manager().profiler().totals();
  for (unsigned c = 0; c < profile::kOpClassCount; ++c) {
    const auto op = static_cast<OpClass>(c);
    EXPECT_EQ(a.op(op).calls, b.op(op).calls)
        << profile::op_class_name(op) << " calls not conserved";
    EXPECT_EQ(a.op(op).steps, b.op(op).steps)
        << profile::op_class_name(op) << " steps not conserved";
  }
  EXPECT_EQ(a.cache_lookups, b.cache_lookups);
  EXPECT_EQ(a.created_nodes, b.created_nodes);

  // And the metrics mirror sums to the same totals it was derived from.
  profile::record_metrics(nested.space->manager().profiler(), "bddshardtest");
  support::metrics::Registry& m = support::metrics::registry();
  std::uint64_t mirrored = 0;
  for (const auto& [name, counters] :
       nested.space->manager().profiler().buckets()) {
    mirrored += m.counter("bddshardtest." + name + ".quantify_calls");
    (void)counters;
  }
  EXPECT_EQ(mirrored, b.op(OpClass::kQuantify).calls);
}

// --- Call-path tree ----------------------------------------------------------

TEST_F(BddProfileTest, NestedSpansFormDistinctPathsThatRollUpByLeaf) {
  ProfilingOn guard;
  const Bdd a = mgr_.bdd_var(vars_[0]);
  const Bdd b = mgr_.bdd_var(vars_[1]);
  const Bdd c = mgr_.bdd_var(vars_[2]);
  {
    LR_TRACE_SPAN("profile_test.outer");
    {
      LR_TRACE_SPAN("profile_test.leaf");
      (void)(a & b);  // path outer;leaf
    }
  }
  {
    LR_TRACE_SPAN("profile_test.other");
    {
      LR_TRACE_SPAN("profile_test.leaf");
      (void)(a | c);  // path other;leaf — same leaf, different path
    }
  }

  const profile::Profiler& prof = mgr_.profiler();
  // Tree: root + outer + other + two distinct "leaf" children.
  ASSERT_EQ(prof.path_nodes().size(), 5u);
  std::vector<std::string> paths;
  for (profile::PathId id = 1; id < prof.path_nodes().size(); ++id) {
    paths.push_back(prof.path_string(id));
  }
  EXPECT_NE(std::find(paths.begin(), paths.end(),
                      "profile_test.outer;profile_test.leaf"),
            paths.end());
  EXPECT_NE(std::find(paths.begin(), paths.end(),
                      "profile_test.other;profile_test.leaf"),
            paths.end());

  // Flat view: both paths roll up into one "profile_test.leaf" bucket.
  ASSERT_EQ(prof.buckets().size(), 1u);
  EXPECT_EQ(prof.buckets().at("profile_test.leaf").op(OpClass::kApply).calls,
            2u);
}

TEST_F(BddProfileTest, FlatViewIsExactTreeRollup) {
  ProfilingOn guard;
  Bdd f = mgr_.bdd_true();
  {
    LR_TRACE_SPAN("profile_test.phase1");
    for (std::size_t v = 0; v + 1 < vars_.size(); ++v) {
      LR_TRACE_SPAN("profile_test.step");
      f = f & (mgr_.bdd_var(vars_[v]) ^ mgr_.bdd_var(vars_[v + 1]));
    }
  }
  {
    LR_TRACE_SPAN("profile_test.phase2");
    (void)mgr_.exists(f, mgr_.bdd_var(vars_[0]));
  }
  (void)(mgr_.bdd_var(vars_[0]) & mgr_.bdd_var(vars_[1]));  // root charge

  const profile::Profiler& prof = mgr_.profiler();
  profile::SpanCounters from_tree;
  for (const profile::Profiler::PathNode& node : prof.path_nodes()) {
    from_tree.accumulate(node.counters);
  }
  profile::SpanCounters from_flat;
  for (const auto& [name, counters] : prof.buckets()) {
    from_flat.accumulate(counters);
  }
  const profile::SpanCounters totals = prof.totals();
  for (unsigned c = 0; c < profile::kOpClassCount; ++c) {
    const auto op = static_cast<OpClass>(c);
    EXPECT_EQ(from_tree.op(op).calls, totals.op(op).calls);
    EXPECT_EQ(from_flat.op(op).calls, totals.op(op).calls);
    EXPECT_EQ(from_flat.op(op).steps, totals.op(op).steps);
  }
  EXPECT_EQ(from_flat.cache_lookups, totals.cache_lookups);
  EXPECT_EQ(from_flat.created_nodes, totals.created_nodes);
  EXPECT_EQ(from_flat.work_steps(), totals.work_steps());
}

// Regression (span-name cache): the profiler's one-entry fast path
// compares frame pointers, but the fallback must match by string
// *content*, so identically-named spans from different storage (two heap
// buffers here — the hostile case for literal pooling) share one path
// node and one flat bucket.
TEST_F(BddProfileTest, IdenticallyNamedSpansFromDifferentStorageShareBucket) {
  ProfilingOn guard;
  const std::string name_a = "profile_test.dynamic";
  const std::string name_b = std::string("profile_test.") + "dynamic";
  ASSERT_NE(name_a.c_str(), name_b.c_str()) << "distinct storage required";
  {
    support::trace::Span span(name_a.c_str());
    (void)(mgr_.bdd_var(vars_[0]) & mgr_.bdd_var(vars_[1]));
  }
  {
    support::trace::Span span(name_b.c_str());
    (void)(mgr_.bdd_var(vars_[1]) & mgr_.bdd_var(vars_[2]));
  }
  const profile::Profiler& prof = mgr_.profiler();
  ASSERT_EQ(prof.path_nodes().size(), 2u) << "root + one shared span node";
  ASSERT_EQ(prof.buckets().size(), 1u);
  EXPECT_EQ(
      prof.buckets().at("profile_test.dynamic").op(OpClass::kApply).calls,
      2u);
}

// --- Flamegraph export -------------------------------------------------------

TEST_F(BddProfileTest, CollapsedWeightsSumToTotalWorkSteps) {
  ProfilingOn guard;
  Bdd f = mgr_.bdd_true();
  {
    LR_TRACE_SPAN("profile_test.flame_outer");
    for (std::size_t v = 0; v + 1 < vars_.size(); ++v) {
      LR_TRACE_SPAN("profile_test.flame_inner");
      f = f & (mgr_.bdd_var(vars_[v]) ^ mgr_.bdd_var(vars_[v + 1]));
    }
    (void)mgr_.exists(f, mgr_.bdd_var(vars_[0]));
  }

  const profile::Profiler& prof = mgr_.profiler();
  const std::string collapsed = profile::to_collapsed(prof);
  std::uint64_t sum = 0;
  std::istringstream lines(collapsed);
  std::string line;
  std::string prev;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    const std::size_t split = line.rfind(' ');
    ASSERT_NE(split, std::string::npos) << line;
    sum += std::stoull(line.substr(split + 1));
    EXPECT_LE(prev, line) << "lines must be sorted";
    prev = line;
  }
  EXPECT_EQ(sum, prof.totals().work_steps());
  EXPECT_NE(collapsed.find(
                "profile_test.flame_outer;profile_test.flame_inner "),
            std::string::npos)
      << collapsed;
}

TEST_F(BddProfileTest, FlameWeightParsingAndAlternatives) {
  EXPECT_EQ(profile::parse_flame_weight("steps"),
            profile::FlameWeight::kSteps);
  EXPECT_EQ(profile::parse_flame_weight("seconds"),
            profile::FlameWeight::kSeconds);
  EXPECT_EQ(profile::parse_flame_weight("nodes"),
            profile::FlameWeight::kNodes);
  EXPECT_FALSE(profile::parse_flame_weight("bogus").has_value());

  ProfilingOn guard;
  {
    LR_TRACE_SPAN("profile_test.flame_nodes");
    (void)(mgr_.bdd_var(vars_[0]) & mgr_.bdd_var(vars_[1]));
  }
  const std::string by_nodes =
      profile::to_collapsed(mgr_.profiler(), profile::FlameWeight::kNodes);
  std::uint64_t sum = 0;
  std::istringstream lines(by_nodes);
  std::string line;
  while (std::getline(lines, line)) {
    sum += std::stoull(line.substr(line.rfind(' ') + 1));
  }
  EXPECT_EQ(sum, mgr_.profiler().totals().created_nodes);
}

TEST_F(BddProfileTest, MergePreservesFullPathsNotJustLeaves) {
  ProfilingOn guard;
  Manager other;
  const VarIndex v0 = other.new_var();
  const VarIndex v1 = other.new_var();
  {
    LR_TRACE_SPAN("profile_test.mergepath_outer");
    LR_TRACE_SPAN("profile_test.mergepath_leaf");
    (void)(mgr_.bdd_var(vars_[0]) & mgr_.bdd_var(vars_[1]));
    (void)(other.bdd_var(v0) & other.bdd_var(v1));
  }
  profile::Profiler merged;
  merged.merge(mgr_.profiler());
  merged.merge(other.profiler());
  // Same two-deep path in both sources: the merged tree has root + outer +
  // leaf (coalesced), and the leaf self-counters aggregate.
  ASSERT_EQ(merged.path_nodes().size(), 3u);
  bool found = false;
  for (profile::PathId id = 1; id < merged.path_nodes().size(); ++id) {
    if (merged.path_string(id) ==
        "profile_test.mergepath_outer;profile_test.mergepath_leaf") {
      EXPECT_EQ(merged.path_nodes()[id].counters.op(OpClass::kApply).calls,
                2u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(BddProfileTest, MergeAggregatesAcrossProfilers) {
  ProfilingOn guard;
  Manager other;
  const VarIndex v0 = other.new_var();
  const VarIndex v1 = other.new_var();
  {
    LR_TRACE_SPAN("profile_test.merge");
    (void)(mgr_.bdd_var(vars_[0]) & mgr_.bdd_var(vars_[1]));
    (void)(other.bdd_var(v0) & other.bdd_var(v1));
  }
  profile::Profiler merged;
  merged.merge(mgr_.profiler());
  merged.merge(other.profiler());
  EXPECT_EQ(merged.buckets().at("profile_test.merge").op(OpClass::kApply).calls,
            2u);
}

}  // namespace
}  // namespace lr::bdd
