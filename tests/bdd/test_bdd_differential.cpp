// Differential tests: the same computation executed in managers with very
// different cache and pool geometries (including one small enough to force
// many garbage collections) must produce semantically identical results.
// This guards against operation-cache aliasing and GC interactions that
// unit tests cannot reach.

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "bdd/bdd.hpp"
#include "support/rng.hpp"

namespace lr::bdd {
namespace {

constexpr std::uint32_t kVars = 12;

/// Deterministically replays a random workload of boolean and quantifier
/// operations and returns a fingerprint of every intermediate result
/// (its satisfying-assignment count — semantic, so node ids don't matter).
/// `resizes`, when given, receives the manager's op-cache doublings.
std::vector<double> run_workload(const Manager::Options& options,
                                 std::uint64_t seed,
                                 std::uint64_t* resizes = nullptr) {
  Manager mgr(options);
  std::vector<VarIndex> vars;
  for (std::uint32_t i = 0; i < kVars; ++i) vars.push_back(mgr.new_var());
  std::vector<VarIndex> evens;
  for (std::uint32_t i = 0; i < kVars; i += 2) evens.push_back(vars[i]);
  const Bdd cube = mgr.make_cube(evens);

  lr::support::SplitMix64 rng(seed);
  std::vector<Bdd> pool{mgr.bdd_true(), mgr.bdd_false()};
  for (const VarIndex v : vars) pool.push_back(mgr.bdd_var(v));

  std::vector<double> fingerprint;
  for (int step = 0; step < 300; ++step) {
    const Bdd& a = pool[rng.below(pool.size())];
    const Bdd& b = pool[rng.below(pool.size())];
    Bdd result;
    switch (rng.below(7)) {
      case 0: result = a & b; break;
      case 1: result = a | b; break;
      case 2: result = a ^ b; break;
      case 3: result = ~a; break;
      case 4: result = a.minus(b); break;
      case 5: result = mgr.exists(a, cube); break;
      default: result = mgr.and_exists(a, b, cube); break;
    }
    fingerprint.push_back(mgr.sat_count(result, kVars));
    pool.push_back(std::move(result));
    if (pool.size() > 40) {
      // Drop old entries so dead nodes accumulate and GC has work to do.
      pool.erase(pool.begin() + 2, pool.begin() + 20);
    }
  }
  if (resizes != nullptr) *resizes = mgr.stats().cache_resizes;
  return fingerprint;
}

constexpr std::uint64_t kSeeds[] = {3ull, 17ull, 2026ull, 0xc0ffeeull};

/// The small geometry of GeometriesAgree: its 2^8-entry cache evicts
/// heavily, its pool grows, and GC runs every few thousand nodes.
Manager::Options tiny_geometry() {
  Manager::Options tiny;
  tiny.cache_log2 = 8;          // heavy cache eviction
  tiny.initial_capacity = 256;  // forced pool growth
  tiny.gc_threshold = 2048;     // frequent garbage collections
  return tiny;
}

class BddDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BddDifferentialTest, GeometriesAgree) {
  Manager::Options big;
  big.cache_log2 = 20;
  big.initial_capacity = 1u << 16;
  big.gc_threshold = 1u << 20;

  const auto reference = run_workload(big, GetParam());
  const auto stressed = run_workload(tiny_geometry(), GetParam());
  ASSERT_EQ(reference.size(), stressed.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_DOUBLE_EQ(reference[i], stressed[i]) << "step " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddDifferentialTest,
                         ::testing::ValuesIn(kSeeds));

TEST(BddDifferentialCoverageTest, TinyGeometryGrowsItsCacheOnSomeSeed) {
  // Keeps GeometriesAgree honest about what it covers: on at least one seed
  // the small cache grows, so the comparison spans growth (rehashing) and
  // GC retention of a grown cache, not only eviction.
  std::uint64_t grown_seeds = 0;
  for (const std::uint64_t seed : kSeeds) {
    std::uint64_t resizes = 0;
    (void)run_workload(tiny_geometry(), seed, &resizes);
    grown_seeds += resizes > 0 ? 1 : 0;
  }
  EXPECT_GT(grown_seeds, 0u);
}

}  // namespace
}  // namespace lr::bdd
