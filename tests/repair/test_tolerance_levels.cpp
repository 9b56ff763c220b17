// Tests for the failsafe / nonmasking / masking tolerance hierarchy.

#include <gtest/gtest.h>

#include "casestudies/byzantine.hpp"
#include "casestudies/chain.hpp"
#include "program/distributed_program.hpp"
#include "repair/lazy.hpp"
#include "repair/verify.hpp"

namespace lr::repair {
namespace {

using lang::Expr;
using lang::action;

/// A model where masking is impossible but failsafe is: x ∈ {0,1,2},
/// invariant x=0, fault 0→1, bad state 2, and the process **cannot write
/// x** — so there is no recovery from 1, but stopping at 1 is safe.
std::unique_ptr<prog::DistributedProgram> make_failsafe_only() {
  auto p = std::make_unique<prog::DistributedProgram>("failsafe-only");
  const sym::VarId x = p->add_variable("x", 3);
  const sym::VarId y = p->add_variable("y", 2);
  prog::Process proc;
  proc.name = "p";
  proc.reads = {x, y};
  proc.writes = {y};  // cannot restore x
  proc.actions.push_back(
      action("work", Expr::var(y) == 0u).assign(y, Expr::constant(1)));
  proc.actions.push_back(
      action("rest", Expr::var(y) == 1u).assign(y, Expr::constant(0)));
  p->add_process(std::move(proc));
  p->add_fault(action("bump", Expr::var(x) == 0u).assign(x, Expr::constant(1)));
  p->set_invariant(Expr::var(x) == 0u);
  p->add_bad_states(Expr::var(x) == 2u);
  return p;
}

/// A model where nonmasking is possible but masking is not: recovery from
/// the perturbed state exists, but every recovery path must execute a
/// transition the safety specification forbids.
std::unique_ptr<prog::DistributedProgram> make_nonmasking_only() {
  auto p = std::make_unique<prog::DistributedProgram>("nonmasking-only");
  const sym::VarId x = p->add_variable("x", 3);
  prog::Process proc;
  proc.name = "p";
  proc.reads = {x};
  proc.writes = {x};
  p->add_process(std::move(proc));
  p->add_fault(action("bump", Expr::var(x) == 0u).assign(x, Expr::constant(2)));
  p->set_invariant(Expr::var(x) == 0u);
  // Every transition leaving x=2 is a bad transition.
  p->add_bad_transitions(Expr::var(x) == 2u && Expr::next(x) != 2u);
  return p;
}

TEST(ToleranceLevelTest, FailsafeSucceedsWhereMaskingCannot) {
  auto p1 = make_failsafe_only();
  Options masking;
  EXPECT_FALSE(lazy_repair(*p1, masking).success);

  auto p2 = make_failsafe_only();
  Options failsafe;
  failsafe.level = ToleranceLevel::kFailsafe;
  const RepairResult r = lazy_repair(*p2, failsafe);
  ASSERT_TRUE(r.success) << r.failure_reason;
  const VerifyReport report =
      verify_masking(*p2, r, ToleranceLevel::kFailsafe);
  EXPECT_TRUE(report.ok);
  for (const auto& f : report.failures) ADD_FAILURE() << f;
}

TEST(ToleranceLevelTest, NonmaskingSucceedsWhereMaskingCannot) {
  auto p1 = make_nonmasking_only();
  Options masking;
  EXPECT_FALSE(lazy_repair(*p1, masking).success);

  auto p2 = make_nonmasking_only();
  Options nonmasking;
  nonmasking.level = ToleranceLevel::kNonmasking;
  const RepairResult r = lazy_repair(*p2, nonmasking);
  ASSERT_TRUE(r.success) << r.failure_reason;
  const VerifyReport report =
      verify_masking(*p2, r, ToleranceLevel::kNonmasking);
  EXPECT_TRUE(report.ok);
  for (const auto& f : report.failures) ADD_FAILURE() << f;
}

TEST(ToleranceLevelTest, MaskingResultSatisfiesWeakerLevels) {
  // A masking repair verifies at every level of the hierarchy.
  auto p = cs::make_byzantine({.non_generals = 3});
  const RepairResult r = lazy_repair(*p);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(verify_masking(*p, r, ToleranceLevel::kMasking).ok);
  EXPECT_TRUE(verify_masking(*p, r, ToleranceLevel::kFailsafe).ok);
  EXPECT_TRUE(verify_masking(*p, r, ToleranceLevel::kNonmasking).ok);
}

TEST(ToleranceLevelTest, FailsafeOnByzantineAgreement) {
  auto p = cs::make_byzantine({.non_generals = 3});
  Options failsafe;
  failsafe.level = ToleranceLevel::kFailsafe;
  const RepairResult r = lazy_repair(*p, failsafe);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_TRUE(verify_masking(*p, r, ToleranceLevel::kFailsafe).ok);
}

TEST(ToleranceLevelTest, NonmaskingEqualsMaskingWithEmptySafety) {
  // The chain has an empty safety specification, so nonmasking and masking
  // coincide.
  auto p1 = cs::make_chain({.length = 3, .domain = 3});
  const RepairResult masking = lazy_repair(*p1);
  auto p2 = cs::make_chain({.length = 3, .domain = 3});
  Options options;
  options.level = ToleranceLevel::kNonmasking;
  const RepairResult nonmasking = lazy_repair(*p2, options);
  ASSERT_TRUE(masking.success);
  ASSERT_TRUE(nonmasking.success);
  EXPECT_DOUBLE_EQ(p1->space().count_states(masking.invariant),
                   p2->space().count_states(nonmasking.invariant));
  EXPECT_DOUBLE_EQ(p1->space().count_transitions(masking.delta),
                   p2->space().count_transitions(nonmasking.delta));
}

TEST(ToleranceLevelTest, FailsafeKeepsSafetyUnderFaults) {
  // The failsafe BA result must still never violate safety, even though it
  // may stop.
  auto p = cs::make_byzantine({.non_generals = 3});
  Options failsafe;
  failsafe.level = ToleranceLevel::kFailsafe;
  const RepairResult r = lazy_repair(*p, failsafe);
  ASSERT_TRUE(r.success);
  auto& sp = p->space();
  std::vector<bdd::Bdd> parts = r.process_deltas;
  for (const auto& f : p->fault_action_deltas()) parts.push_back(f);
  const bdd::Bdd span = sp.forward_reachable(
      sym::TransitionRelation::build(sp, parts, sym::RelationMode::kMono),
      r.invariant);
  EXPECT_TRUE(span.disjoint(p->safety().bad_states));
}

}  // namespace
}  // namespace lr::repair
