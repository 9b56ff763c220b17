// Tests for the adaptive operation cache: growth only under reuse *and*
// overflow, and retention of surviving entries across garbage collection.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "bdd/bdd.hpp"
#include "support/rng.hpp"

namespace lr::bdd {
namespace {

constexpr std::uint32_t kVars = 12;

Manager::Options small_cache() {
  Manager::Options options;
  options.cache_log2 = 8;             // 256 entries
  options.gc_threshold = 1u << 20;    // GC only when a test asks for it
  return options;
}

/// A random function over the first kVars variables: a disjunction of
/// `terms` random partial cubes.
Bdd random_function(Manager& mgr, support::SplitMix64& rng, int terms) {
  Bdd f = mgr.bdd_false();
  for (int t = 0; t < terms; ++t) {
    Bdd cube = mgr.bdd_true();
    for (VarIndex v = 0; v < kVars; ++v) {
      if (rng.below(3) != 0) continue;
      cube &= rng.flip() ? mgr.bdd_var(v) : mgr.bdd_nvar(v);
    }
    f |= cube;
  }
  return f;
}

/// Repeats every pairwise conjunction, disjunction and xor of a fixed set of
/// functions: a working set larger than 256 entries, revisited each round.
void reuse_heavy_loop(const std::vector<Bdd>& fs, int rounds) {
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < fs.size(); ++i) {
      for (std::size_t j = i + 1; j < fs.size(); ++j) {
        const Bdd a = fs[i] & fs[j];
        const Bdd b = fs[i] | fs[j];
        const Bdd c = fs[i] ^ fs[j];
      }
    }
  }
}

/// A manager whose 256-entry cache has grown, plus the functions it used.
struct Grown {
  Manager mgr{small_cache()};
  std::vector<Bdd> fs;

  Grown() {
    for (std::uint32_t i = 0; i < kVars; ++i) (void)mgr.new_var();
    support::SplitMix64 rng(11);
    for (int i = 0; i < 8; ++i) fs.push_back(random_function(mgr, rng, 12));
    reuse_heavy_loop(fs, 4);
  }
};

/// f's truth table over the first kVars variables.
std::vector<bool> truth_table(const Manager& mgr, const Bdd& f) {
  std::vector<bool> table;
  bool assignment[kVars];
  for (std::uint32_t bits = 0; bits < (1u << kVars); ++bits) {
    for (std::uint32_t v = 0; v < kVars; ++v) {
      assignment[v] = ((bits >> v) & 1u) != 0;
    }
    table.push_back(mgr.eval(f, assignment));
  }
  return table;
}

TEST(BddCacheTest, ReuseHeavyLoopGrowsTheCache) {
  Grown g;
  EXPECT_GT(g.mgr.stats().cache_resizes, 0u);
  EXPECT_GT(g.mgr.cache_entry_count(), 256u);
  EXPECT_EQ(g.mgr.stats().cache_entries, g.mgr.cache_entry_count());
  EXPECT_LE(g.mgr.cache_entry_count(), Manager::kMaxCacheEntries);
}

TEST(BddCacheTest, ColdWorkloadEvictsButNeverGrows) {
  // Every op is new: OR-ing distinct random minterms into a growing set
  // walks one fresh path per op, so the cache overflows without hitting.
  Manager mgr(small_cache());
  for (std::uint32_t i = 0; i < kVars; ++i) (void)mgr.new_var();
  support::SplitMix64 rng(5);
  Bdd set = mgr.bdd_false();
  for (int i = 0; i < 3000; ++i) {
    Bdd minterm = mgr.bdd_true();
    for (VarIndex v = 0; v < kVars; ++v) {
      minterm &= rng.flip() ? mgr.bdd_var(v) : mgr.bdd_nvar(v);
    }
    set |= minterm;
  }
  const ManagerStats& stats = mgr.stats();
  ASSERT_GT(stats.cache_lookups, 4 * 256u);  // several growth windows
  EXPECT_GE(stats.cache_evictions * 8, stats.cache_lookups);
  EXPECT_EQ(stats.cache_resizes, 0u);
  EXPECT_EQ(mgr.cache_entry_count(), 256u);
}

TEST(BddCacheTest, GrownCacheKeepsLiveEntriesAcrossGc) {
  Grown g;
  ASSERT_GT(g.mgr.stats().cache_resizes, 0u);
  const Bdd& f = g.fs[0];
  const Bdd& h = g.fs[1];
  const Bdd fh = f & h;
  g.mgr.collect_garbage();
  const ManagerStats before = g.mgr.stats();
  const Bdd again = f & h;
  const ManagerStats after = g.mgr.stats();
  EXPECT_EQ(again, fh);
  EXPECT_EQ(after.cache_lookups - before.cache_lookups, 1u);
  EXPECT_EQ(after.cache_hits - before.cache_hits, 1u);
  EXPECT_EQ(after.created_nodes, before.created_nodes);
}

TEST(BddCacheTest, UngrownCacheIsClearedByGc) {
  Manager mgr;  // 2^20 entries: this workload never fills a window
  for (std::uint32_t i = 0; i < kVars; ++i) (void)mgr.new_var();
  support::SplitMix64 rng(11);
  const Bdd f = random_function(mgr, rng, 12);
  const Bdd h = random_function(mgr, rng, 12);
  const Bdd fh = f & h;
  mgr.collect_garbage();
  const std::uint64_t lookups = mgr.stats().cache_lookups;
  EXPECT_EQ(f & h, fh);
  EXPECT_EQ(mgr.stats().cache_resizes, 0u);
  EXPECT_GT(mgr.stats().cache_lookups - lookups, 1u);
}

TEST(BddCacheTest, DeadResultsDoNotSurviveSlotRecycling) {
  Grown g;
  ASSERT_GT(g.mgr.stats().cache_resizes, 0u);
  const Bdd& f = g.fs[2];
  const Bdd& h = g.fs[3];
  { const Bdd dropped = f ^ h; }  // its nodes die at the next GC
  const std::uint64_t reclaimed_before = g.mgr.stats().gc_reclaimed;
  g.mgr.collect_garbage();
  const std::uint64_t freed = g.mgr.stats().gc_reclaimed - reclaimed_before;
  ASSERT_GT(freed, 0u);
  // Build (and hold) new nodes until every freed slot has been reused.
  const std::uint64_t created_at_gc = g.mgr.stats().created_nodes;
  support::SplitMix64 rng(99);
  std::vector<Bdd> fresh;
  while (g.mgr.stats().created_nodes - created_at_gc < freed) {
    fresh.push_back(random_function(g.mgr, rng, 6));
  }
  ASSERT_EQ(g.mgr.stats().gc_runs, 1u);  // no collection freed more slots
  const Bdd recomputed = f ^ h;

  // The same functions in a fresh manager give the reference answer.
  Manager reference;
  for (std::uint32_t i = 0; i < kVars; ++i) (void)reference.new_var();
  support::SplitMix64 replay(11);
  std::vector<Bdd> ref_fs;
  for (int i = 0; i < 8; ++i) {
    ref_fs.push_back(random_function(reference, replay, 12));
  }
  const Bdd expected = ref_fs[2] ^ ref_fs[3];
  EXPECT_EQ(truth_table(g.mgr, recomputed), truth_table(reference, expected));
}

}  // namespace
}  // namespace lr::bdd
