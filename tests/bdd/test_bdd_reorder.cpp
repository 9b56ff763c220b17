// Tests for in-place variable reordering (adjacent-level swaps).

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/order.hpp"
#include "support/rng.hpp"

namespace lr::bdd {
namespace {

/// Truth-table fingerprint of f over the first `n` variables (n <= 16).
std::vector<bool> fingerprint(const Manager& mgr, const Bdd& f,
                              std::uint32_t n) {
  std::vector<bool> table;
  table.reserve(1u << n);
  std::vector<bool> assignment(n);
  for (std::uint32_t row = 0; row < (1u << n); ++row) {
    bool buf[16];
    for (std::uint32_t v = 0; v < n; ++v) buf[v] = ((row >> v) & 1u) != 0;
    table.push_back(mgr.eval(f, std::span<const bool>(buf, n)));
  }
  (void)assignment;
  return table;
}

/// Shuffles the order by `swaps` random adjacent-level exchanges.
void scramble_order(Manager& mgr, lr::support::SplitMix64& rng, int swaps) {
  for (int i = 0; i < swaps; ++i) {
    (void)mgr.swap_adjacent_levels(
        static_cast<std::uint32_t>(rng.below(mgr.var_count() - 1)));
  }
}

TEST(BddReorderTest, SwapAdjacentLevelsPreservesSemantics) {
  Manager mgr;
  std::vector<VarIndex> vars;
  for (int i = 0; i < 6; ++i) vars.push_back(mgr.new_var());
  lr::support::SplitMix64 rng(5);
  Bdd f = mgr.bdd_false();
  for (int i = 0; i < 24; ++i) {
    Bdd term = mgr.bdd_true();
    for (const VarIndex v : vars) {
      if (rng.flip()) term &= rng.flip() ? mgr.bdd_var(v) : mgr.bdd_nvar(v);
    }
    f |= term;
  }
  const auto before = fingerprint(mgr, f, 6);
  for (std::uint32_t l = 0; l + 1 < 6; ++l) {
    (void)mgr.swap_adjacent_levels(l);
    EXPECT_EQ(fingerprint(mgr, f, 6), before) << "after swapping level " << l;
  }
  // Levels stay a permutation.
  std::vector<bool> seen(6, false);
  for (std::uint32_t l = 0; l < 6; ++l) {
    const VarIndex v = mgr.var_at_level(l);
    EXPECT_EQ(mgr.level_of(v), l);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(BddReorderTest, DoubleSwapIsStructuralIdentity) {
  Manager mgr;
  for (int i = 0; i < 4; ++i) (void)mgr.new_var();
  const Bdd f = (mgr.bdd_var(0) & mgr.bdd_var(1)) ^
                (mgr.bdd_var(2) | mgr.bdd_nvar(3));
  const NodeId id_before = f.id();
  (void)mgr.swap_adjacent_levels(1);
  (void)mgr.swap_adjacent_levels(1);
  EXPECT_EQ(f.id(), id_before);  // handle untouched by construction
  EXPECT_EQ(mgr.var_at_level(1), 1u);
  EXPECT_EQ(mgr.var_at_level(2), 2u);
  // Rebuilding the function reaches the same canonical node.
  const Bdd again = (mgr.bdd_var(0) & mgr.bdd_var(1)) ^
                    (mgr.bdd_var(2) | mgr.bdd_nvar(3));
  EXPECT_EQ(again, f);
}

TEST(BddReorderTest, OperationsAfterReorderAreCanonical) {
  Manager mgr;
  std::vector<VarIndex> vars;
  for (int i = 0; i < 8; ++i) vars.push_back(mgr.new_var());
  lr::support::SplitMix64 rng(77);
  Bdd f = mgr.bdd_false();
  for (int i = 0; i < 32; ++i) {
    Bdd term = mgr.bdd_true();
    for (const VarIndex v : vars) {
      if (rng.chance(2, 3)) {
        term &= rng.flip() ? mgr.bdd_var(v) : mgr.bdd_nvar(v);
      }
    }
    f |= term;
  }
  scramble_order(mgr, rng, 40);
  // New operations must agree with a fresh manager computing in the
  // original order (semantic differential).
  const Bdd g = f ^ mgr.bdd_var(vars[3]);
  const Bdd h = mgr.exists(g, mgr.make_cube(std::vector<VarIndex>{vars[0],
                                                                  vars[5]}));
  EXPECT_EQ(h & f, f & h);
  EXPECT_EQ(~(~h), h);
  EXPECT_TRUE((h & ~h).is_false());
  // make_cube respects the new order (no assertion failures / malformed
  // cubes): quantifying everything yields a constant.
  std::vector<VarIndex> all(vars);
  const Bdd constant = mgr.exists(f, mgr.make_cube(all));
  EXPECT_TRUE(constant.is_true() || constant.is_false());
}

TEST(BddReorderTest, SatCountInvariantUnderReordering) {
  Manager mgr;
  std::vector<VarIndex> vars;
  for (int i = 0; i < 10; ++i) vars.push_back(mgr.new_var());
  lr::support::SplitMix64 rng(123);
  Bdd f = mgr.bdd_false();
  for (int i = 0; i < 64; ++i) {
    Bdd term = mgr.bdd_true();
    for (const VarIndex v : vars) {
      if (rng.flip()) term &= rng.flip() ? mgr.bdd_var(v) : mgr.bdd_nvar(v);
    }
    f |= term;
  }
  const double count = mgr.sat_count(f, 10);
  scramble_order(mgr, rng, 60);
  EXPECT_DOUBLE_EQ(mgr.sat_count(f, 10), count);
}

TEST(BddReorderTest, SingleVariableIsANoOp) {
  // One variable has only one order: realizing it swaps nothing and
  // leaves every handle as it was.
  Manager mgr;
  (void)mgr.new_var();
  const Bdd f = mgr.bdd_var(0);
  const VarIndex target[1] = {0};
  EXPECT_EQ(order::apply_order(mgr, target), 0u);
  EXPECT_EQ(order::restore_creation_order(mgr), 0u);
  EXPECT_EQ(f, mgr.bdd_var(0));
  EXPECT_EQ(mgr.level_of(0), 0u);
}

}  // namespace
}  // namespace lr::bdd
