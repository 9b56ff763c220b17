// Unit tests for Step 2 (Algorithm 2), the equivalence of its two group
// methods, and the closure-first enumeration against the literal loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "casestudies/byzantine.hpp"
#include "casestudies/chain.hpp"
#include "casestudies/tmr.hpp"
#include "casestudies/token_ring.hpp"
#include "lang/parser.hpp"
#include "repair/add_masking.hpp"
#include "repair/journal.hpp"
#include "repair/realize.hpp"
#include "support/rng.hpp"
#include "../support/model_gen.hpp"

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

// --- Closure-first enumeration vs. the literal loop ----------------------------

/// Lines 1-22 of Algorithm 2 exactly as the paper states them: one loop
/// iteration per group, a group with a missing member is rejected inside
/// the loop and removed from both the pool and the worklist. realize()
/// decides closure before the loop instead; this is the reference it must
/// reproduce decision for decision.
std::vector<bdd::Bdd> literal_realize(prog::DistributedProgram& program,
                                      const bdd::Bdd& delta,
                                      const bdd::Bdd& tolerance,
                                      const Options& options, Stats& stats) {
  sym::Space& space = program.space();
  bdd::Manager& mgr = space.manager();
  const bdd::Bdd proper =
      (delta | (space.valid(sym::Version::kCurrent).minus(tolerance) &
                space.valid_pair()))
          .minus(space.identity());
  const bdd::Bdd all_bits =
      space.cube(sym::Version::kCurrent) & space.cube(sym::Version::kNext);
  std::vector<bdd::Bdd> result;
  for (std::size_t j = 0; j < program.process_count(); ++j) {
    const prog::Process& proc = program.process(j);
    const std::unordered_set<sym::VarId> writes(proc.writes.begin(),
                                                proc.writes.end());
    bdd::Bdd pool = proper & program.respects_write(j);
    bdd::Bdd worklist = pool & tolerance;
    bdd::Bdd accepted = space.bdd_false();
    while (!worklist.is_false()) {
      ++stats.group_iterations;
      const bdd::Bdd chosen = mgr.pick_minterm(worklist, all_bits);
      bdd::Bdd group = program.group(j, chosen);
      if (!group.leq(pool)) {
        if (options.journal != nullptr) {
          options.journal->group_rejected("repair.realize", j, "closure",
                                          group, group, pool);
        }
        ++stats.closure_rejects;
        pool = pool.minus(group);
        worklist = worklist.minus(group);
        continue;
      }
      if (options.use_expand_group) {
        for (const sym::VarId v : proc.reads) {
          if (writes.count(v) != 0) continue;
          const sym::VarId vs[1] = {v};
          const bdd::Bdd widened =
              mgr.exists(group, space.cube_pair_of(vs)) & space.unchanged(v);
          if (widened.leq(pool)) {
            group = widened;
            ++stats.expand_successes;
          } else {
            ++stats.expand_failures;
          }
        }
      }
      if (options.journal != nullptr) {
        options.journal->group_accepted("repair.realize", j, group);
      }
      accepted |= group;
      pool = pool.minus(group);
      worklist = worklist.minus(group);
    }
    result.push_back(std::move(accepted));
  }
  return result;
}

using ProgramFactory =
    std::function<std::unique_ptr<prog::DistributedProgram>()>;

/// Runs Step 1 once, then realize() and literal_realize() on its output in
/// the same manager, with the journal off and on and at intra_jobs 1 and 4,
/// and compares deltas (==), loop counters and journal bytes. Returns the
/// literal loop's closure rejections, so callers can check that the
/// comparison exercised the rejection path.
std::size_t expect_matches_literal_loop(const ProgramFactory& make,
                                        const std::string& what,
                                        bool expand = true) {
  SCOPED_TRACE(what);
  auto p = make();
  Options options;
  options.use_expand_group = expand;
  Stats step1_stats;
  const StepOneResult step1 =
      add_masking(*p, p->invariant(), p->space().bdd_false(), bdd::Bdd(),
                  options, step1_stats);
  if (!step1.success) return 0;  // nothing for Step 2 to realize
  std::vector<bdd::Bdd> parts{step1.delta};
  for (const bdd::Bdd& f : p->fault_action_deltas()) parts.push_back(f);
  const bdd::Bdd tolerance = p->space().forward_reachable(
      sym::TransitionRelation::build(p->space(), parts,
                                     sym::RelationMode::kMono),
      step1.invariant);

  std::size_t rejects = 0;
  for (const bool journaling : {false, true}) {
    for (const std::size_t intra : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("journal=" + std::to_string(journaling) +
                   " intra_jobs=" + std::to_string(intra));
      Journal literal_journal;
      Journal journal;
      Options literal_options = options;
      Options run_options = options;
      if (journaling) {
        literal_journal.begin_run(*p, "lazy", "masking");
        journal.begin_run(*p, "lazy", "masking");
        literal_options.journal = &literal_journal;
        run_options.journal = &journal;
      }
      Stats literal_stats;
      const std::vector<bdd::Bdd> expected = literal_realize(
          *p, step1.delta, tolerance, literal_options, literal_stats);
      p->space().enable_intra(intra);
      Stats stats;
      const std::vector<bdd::Bdd> actual =
          realize(*p, step1.delta, tolerance, run_options, stats);
      p->space().enable_intra(1);

      EXPECT_EQ(actual.size(), expected.size());
      for (std::size_t j = 0; j < std::min(actual.size(), expected.size());
           ++j) {
        EXPECT_TRUE(actual[j] == expected[j]) << "process " << j;
      }
      EXPECT_EQ(stats.group_iterations, literal_stats.group_iterations);
      EXPECT_EQ(stats.closure_rejects, literal_stats.closure_rejects);
      EXPECT_EQ(stats.expand_successes, literal_stats.expand_successes);
      EXPECT_EQ(stats.expand_failures, literal_stats.expand_failures);
      EXPECT_EQ(journal.to_jsonl(), literal_journal.to_jsonl());
      rejects = literal_stats.closure_rejects;
    }
  }
  return rejects;
}

ProgramFactory model_file(const char* name) {
  return [name] {
    return lang::parse_program_file(std::string(LR_SOURCE_DIR) + "/models/" +
                                    name);
  };
}

TEST(RealizeClosureFirstTest, MatchesLiteralLoopOnCaseStudies) {
  expect_matches_literal_loop([] { return cs::make_tmr({}); }, "tmr");
  expect_matches_literal_loop(model_file("tmr.lr"), "tmr.lr");
  expect_matches_literal_loop(model_file("mutex_ring.lr"), "mutex_ring.lr");
  expect_matches_literal_loop(
      [] { return cs::make_token_ring({.processes = 4, .domain = 3}); },
      "token ring 4x3");
  EXPECT_GT(expect_matches_literal_loop(
                [] { return cs::make_byzantine({.non_generals = 3}); },
                "BA^3"),
            0u);
  expect_matches_literal_loop(
      [] { return cs::make_byzantine({.non_generals = 3}); },
      "BA^3 without ExpandGroup", /*expand=*/false);
  expect_matches_literal_loop(
      [] { return cs::make_byzantine({.non_generals = 4}); }, "BA^4");
  expect_matches_literal_loop(
      [] {
        return cs::make_byzantine({.non_generals = 3, .fail_stop = true});
      },
      "BAFS^3");
  expect_matches_literal_loop(
      [] { return cs::make_chain({.length = 10, .domain = 8}); }, "Sc^10 d8");
}

TEST(RealizeClosureFirstTest, MatchesLiteralLoopOnRandomModels) {
  // 4 topologies x 2 fault classes x 8 seeds = 64 generated models.
  constexpr const char* kTopologies[] = {"random", "ring", "tree", "star"};
  constexpr const char* kFaultClasses[] = {"havoc", "corrupt"};
  constexpr std::uint64_t kSeed = 20160523ull;
  std::size_t with_rejects = 0;
  for (const char* topology : kTopologies) {
    ::setenv("LR_FUZZ_TOPOLOGY", topology, 1);
    for (const char* faults : kFaultClasses) {
      ::setenv("LR_FUZZ_FAULTS", faults, 1);
      for (std::uint64_t i = 0; i < 8; ++i) {
        const std::uint64_t seed = testgen::model_seed(kSeed, i);
        const std::size_t rejects = expect_matches_literal_loop(
            [seed] {
              support::SplitMix64 rng(seed);
              return testgen::random_program(rng);
            },
            std::string(topology) + "/" + faults + " seed " +
                std::to_string(seed));
        if (rejects > 0) ++with_rejects;
      }
    }
  }
  ::unsetenv("LR_FUZZ_FAULTS");
  ::unsetenv("LR_FUZZ_TOPOLOGY");
  EXPECT_GT(with_rejects, 0u);
  std::printf("[oracle] %zu of 64 models rejected a group\n", with_rejects);
}

}  // namespace
}  // namespace lr::repair
