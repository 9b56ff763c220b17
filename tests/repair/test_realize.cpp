// Unit tests for Step 2 (Algorithm 2) and the equivalence of its two group
// methods.

#include <gtest/gtest.h>

#include "casestudies/byzantine.hpp"
#include "casestudies/chain.hpp"
#include "casestudies/token_ring.hpp"
#include "repair/add_masking.hpp"
#include "repair/realize.hpp"

namespace lr::repair {
namespace {

/// Runs step 1 + step 2 with the given group method and returns the
/// per-process deltas along with the tolerance set used.
struct Realized {
  std::vector<bdd::Bdd> deltas;
  bdd::Bdd tolerance;
  Stats stats;
};

Realized realize_case(prog::DistributedProgram& p, GroupMethod method,
                      bool expand = true) {
  Realized out;
  Options options;
  options.group_method = method;
  options.use_expand_group = expand;
  const StepOneResult step1 = add_masking(
      p, p.invariant(), p.space().bdd_false(), bdd::Bdd(), options, out.stats);
  EXPECT_TRUE(step1.success);
  std::vector<bdd::Bdd> parts{step1.delta};
  for (const bdd::Bdd& f : p.fault_action_deltas()) parts.push_back(f);
  out.tolerance = p.space().forward_reachable(
      sym::TransitionRelation::build(p.space(), parts,
                                     sym::RelationMode::kMono),
      step1.invariant);
  out.deltas = realize(p, step1.delta, out.tolerance, options, out.stats);
  return out;
}

TEST(RealizeTest, OutputIsRealizableByEachProcess) {
  auto p = cs::make_byzantine({.non_generals = 3});
  const Realized r = realize_case(*p, GroupMethod::kPaperLoop);
  for (std::size_t j = 0; j < p->process_count(); ++j) {
    EXPECT_TRUE(p->realizable_by_process(j, r.deltas[j])) << "process " << j;
    EXPECT_TRUE(r.deltas[j].disjoint(p->space().identity()));
  }
}

TEST(RealizeTest, PaperLoopAndOneShotAgreeInsideTolerance) {
  // The two methods keep exactly the same groups; compare the transitions
  // that start inside the tolerance set (outside it both keep don't-cares
  // of the accepted groups only).
  auto p1 = cs::make_byzantine({.non_generals = 3});
  const Realized loop = realize_case(*p1, GroupMethod::kPaperLoop);
  auto p2 = cs::make_byzantine({.non_generals = 3});
  const Realized oneshot = realize_case(*p2, GroupMethod::kOneShot);
  ASSERT_EQ(loop.deltas.size(), oneshot.deltas.size());
  // The spaces are different objects; compare counts of each restriction.
  for (std::size_t j = 0; j < loop.deltas.size(); ++j) {
    EXPECT_DOUBLE_EQ(
        p1->space().count_transitions(loop.deltas[j] & loop.tolerance),
        p2->space().count_transitions(oneshot.deltas[j] & oneshot.tolerance))
        << "process " << j;
    // Outside the tolerance set the methods may keep different don't-cares
    // (ExpandGroup absorbs whole don't-care groups), so full counts are
    // intentionally not compared.
  }
}

TEST(RealizeTest, ExpandGroupDoesNotChangeTheResult) {
  auto p1 = cs::make_byzantine({.non_generals = 3});
  const Realized with = realize_case(*p1, GroupMethod::kPaperLoop, true);
  auto p2 = cs::make_byzantine({.non_generals = 3});
  const Realized without = realize_case(*p2, GroupMethod::kPaperLoop, false);
  for (std::size_t j = 0; j < with.deltas.size(); ++j) {
    // Identical behavior inside the tolerance set (outside it, expansion
    // may absorb extra don't-care groups).
    EXPECT_DOUBLE_EQ(
        p1->space().count_transitions(with.deltas[j] & with.tolerance),
        p2->space().count_transitions(without.deltas[j] & without.tolerance));
  }
  // With expansion, strictly fewer loop iterations on this model.
  EXPECT_LT(with.stats.group_iterations, without.stats.group_iterations);
  EXPECT_GT(with.stats.expand_successes, 0u);
}

TEST(RealizeTest, KeepsOriginalRealizableBehavior) {
  // The chain's propagation actions are realizable and inside δ'; they must
  // survive realization wherever the tolerance retains them.
  auto p = cs::make_chain({.length = 3, .domain = 3});
  const Realized r = realize_case(*p, GroupMethod::kPaperLoop);
  for (std::size_t j = 0; j < p->process_count(); ++j) {
    const bdd::Bdd original = p->process_delta(j) & r.tolerance;
    EXPECT_TRUE(original.leq(r.deltas[j])) << "process " << j;
  }
}

TEST(RealizeTest, UnionOfDeltasWithinStepOneDeltaInsideTolerance) {
  // Inside the tolerance set, realization only removes behavior.
  auto p = cs::make_token_ring({.processes = 3, .domain = 3});
  Options options;
  Stats stats;
  const StepOneResult step1 =
      add_masking(*p, p->invariant(), p->space().bdd_false(), bdd::Bdd(),
                  options, stats);
  ASSERT_TRUE(step1.success);
  std::vector<bdd::Bdd> parts{step1.delta};
  for (const bdd::Bdd& f : p->fault_action_deltas()) parts.push_back(f);
  const bdd::Bdd tolerance = p->space().forward_reachable(
      sym::TransitionRelation::build(p->space(), parts,
                                     sym::RelationMode::kMono),
      step1.invariant);
  const auto deltas = realize(*p, step1.delta, tolerance, options, stats);
  for (const bdd::Bdd& dj : deltas) {
    EXPECT_TRUE((dj & tolerance).leq(step1.delta));
  }
}

TEST(RealizeTest, GroupIterationsAreCounted) {
  auto p = cs::make_chain({.length = 3, .domain = 2});
  const Realized r = realize_case(*p, GroupMethod::kPaperLoop);
  EXPECT_GT(r.stats.group_iterations, 0u);
  auto p2 = cs::make_chain({.length = 3, .domain = 2});
  const Realized o = realize_case(*p2, GroupMethod::kOneShot);
  EXPECT_EQ(o.stats.group_iterations, 0u);
}

}  // namespace
}  // namespace lr::repair
