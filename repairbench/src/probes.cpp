#include "probes.hpp"

#include <memory>
#include <stdexcept>
#include <vector>

#include "repair/add_masking.hpp"
#include "repair/cautious.hpp"
#include "repair/lazy.hpp"
#include "repair/realize.hpp"
#include "repair/relation_setup.hpp"
#include "support/stopwatch.hpp"

namespace rb {

namespace {

std::unique_ptr<lr::prog::DistributedProgram> compiled(const Instance& instance) {
  std::unique_ptr<lr::prog::DistributedProgram> program = instance.make();
  (void)program->program_delta();
  return program;
}

template <typename Call>
Probe measure(lr::prog::DistributedProgram& program, Call&& call) {
  const std::uint64_t before = program.space().manager().stats().cache_lookups;
  lr::support::Stopwatch watch;
  call();
  return {watch.seconds(),
          program.space().manager().stats().cache_lookups - before};
}

}  // namespace

Probe probe_reach(const Instance& instance) {
  const auto program = compiled(instance);
  return measure(*program, [&] { (void)program->reachable_under_faults(); });
}

Probe probe_backreach(const Instance& instance) {
  const auto program = compiled(instance);
  return measure(*program, [&] {
    (void)program->space().backward_reachable(program->program_delta(),
                                              program->invariant());
  });
}

Probe probe_realize(const Instance& instance) {
  const auto program = compiled(instance);
  lr::sym::Space& space = program->space();
  const lr::repair::Options options = instance.options();
  lr::repair::Stats stats;
  const lr::sym::RelationMode mode =
      lr::repair::resolved_relation_mode(*program, options);
  const lr::bdd::Bdd context = space.forward_reachable(
      lr::repair::program_fault_relation(*program, mode), program->invariant());
  const lr::repair::StepOneResult step1 = lr::repair::add_masking(
      *program, program->invariant(), space.bdd_false(), context, options,
      stats);
  if (!step1.success) {
    throw std::runtime_error(instance.key() + ": Add-Masking failed");
  }
  std::vector<lr::bdd::Bdd> parts{step1.delta};
  for (const lr::bdd::Bdd& fault : program->fault_action_deltas()) {
    parts.push_back(fault);
  }
  const lr::bdd::Bdd tolerance = space.forward_reachable(
      lr::sym::TransitionRelation::build(space, parts, mode), step1.invariant);
  return measure(*program, [&] {
    (void)lr::repair::realize(*program, step1.delta, tolerance, options, stats);
  });
}

double probe_repair_seconds(const Instance& instance, std::size_t intra_jobs) {
  const auto program = compiled(instance);
  lr::repair::Options options = instance.options();
  options.intra_jobs = intra_jobs;
  const lr::repair::RepairResult result =
      instance.algorithm == Algorithm::kLazy
          ? lr::repair::lazy_repair(*program, options)
          : lr::repair::cautious_repair(*program, options);
  if (!result.success) {
    throw std::runtime_error(instance.key() + ": repair failed at intra_jobs=" +
                             std::to_string(intra_jobs));
  }
  return result.stats.total_seconds;
}

}  // namespace rb
