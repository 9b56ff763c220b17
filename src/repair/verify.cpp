#include "repair/verify.hpp"

#include "support/trace.hpp"
#include "symbolic/relation.hpp"

namespace lr::repair {

VerifyReport verify_masking(prog::DistributedProgram& program,
                            const RepairResult& result,
                            ToleranceLevel level) {
  LR_TRACE_SPAN("verify_masking");
  VerifyReport report;
  sym::Space& space = program.space();
  bdd::Manager& mgr = space.manager();

  auto fail = [&report](bool& flag, bool passed, const std::string& message) {
    flag = passed;
    if (!passed) report.failures.push_back(message);
  };

  if (!result.success) {
    report.failures.push_back("result is not marked successful");
    return report;
  }
  if (result.process_deltas.size() != program.process_count()) {
    report.failures.push_back("wrong number of process deltas");
    return report;
  }

  const bdd::Bdd s_orig = program.invariant();
  const bdd::Bdd delta_orig = program.program_delta();
  const bdd::Bdd faults = program.fault_delta();
  const bdd::Bdd identity = space.identity();
  const bdd::Bdd s_new = result.invariant;

  // Assembled program: union of process deltas + Definition-18 stuttering.
  bdd::Bdd actions = space.bdd_false();
  for (const bdd::Bdd& dj : result.process_deltas) actions |= dj;
  const bdd::Bdd delta = program.stutter_completion(actions);

  fail(report.invariant_nonempty, !s_new.is_false(), "S' is empty");
  fail(report.invariant_subset, s_new.leq(s_orig), "S' is not a subset of S");

  // δ'|S' ⊆ δ_P|S' — no new behavior inside the invariant.
  const bdd::Bdd inside = delta & s_new & space.prime(s_new);
  fail(report.no_new_behavior, inside.leq(delta_orig),
       "new transitions were added inside the invariant");

  // Closure of S' in δ'.
  fail(report.invariant_closed, space.image(delta, s_new).leq(s_new),
       "S' is not closed under the repaired program");

  // Safety inside the invariant.
  const prog::SafetySpec& spec = program.safety();
  fail(report.safe_in_invariant,
       s_new.disjoint(spec.bad_states) && (delta & s_new).disjoint(spec.bad_trans),
       "safety violated inside the invariant");

  // Safety in the presence of faults, over the actual reachable span
  // (partitioned reachability: one relation per process delta and fault
  // action, plus the stutter steps which add nothing).
  std::vector<bdd::Bdd> partitions = result.process_deltas;
  const std::vector<bdd::Bdd>& fault_parts = program.fault_action_deltas();
  partitions.insert(partitions.end(), fault_parts.begin(), fault_parts.end());
  const bdd::Bdd span = space.forward_reachable(
      sym::TransitionRelation::build(space, partitions,
                                     sym::RelationMode::kMono),
      s_new);
  report.reachable_span_states = space.count_states(span);
  fail(report.safety_under_faults,
       level == ToleranceLevel::kNonmasking ||
           (span.disjoint(spec.bad_states) &&
            ((delta | faults) & span).disjoint(spec.bad_trans)),
       "safety violated in the presence of faults");

  fail(report.span_covers_reachable, span.leq(result.fault_span),
       "reported fault span does not cover the reachable span");

  // Deadlock freedom: a state with no enabled action stutters; that is only
  // legitimate where the *original* program stuttered, inside S'.
  const bdd::Bdd enabled =
      mgr.exists(actions, space.cube(sym::Version::kNext));
  const bdd::Bdd stuck = level == ToleranceLevel::kFailsafe
                             ? span.minus(enabled) & s_new
                             : span.minus(enabled);
  fail(report.deadlock_free,
       stuck.leq(s_new) && (stuck & identity).leq(delta_orig),
       "a reachable state deadlocks outside a legitimate terminal state");

  // Livelock freedom: νZ. (span − S') ∩ pre(δ', Z) must be empty, i.e. no
  // infinite execution stays outside the invariant (faults are finite by
  // Definition 13, so program transitions alone must converge).
  bdd::Bdd z = level == ToleranceLevel::kFailsafe ? space.bdd_false()
                                                   : span.minus(s_new);
  while (true) {
    const bdd::Bdd shrunk = space.has_successor_in(delta, z);
    if (shrunk == z) break;
    z = shrunk;
  }
  fail(report.livelock_free, z.is_false(),
       "an infinite execution can avoid the invariant (recovery fails)");

  // Realizability of each process delta (Definition 19) and of the program
  // (Definition 20: δ = ∪ δ_j by construction).
  bool realizable = true;
  for (std::size_t j = 0; j < program.process_count(); ++j) {
    const bdd::Bdd& dj = result.process_deltas[j];
    if (!dj.disjoint(identity)) realizable = false;             // proper
    if (!dj.leq(program.respects_write(j))) realizable = false; // write
    if (program.group(j, dj) != dj) realizable = false;         // read
  }
  fail(report.realizable, realizable,
       "some process delta violates its read/write restrictions");

  report.ok = report.failures.empty();
  return report;
}

VerifyReport verify_tolerant_model(prog::DistributedProgram& program,
                                   ToleranceLevel level) {
  LR_TRACE_SPAN("verify_tolerant_model");
  sym::Space& space = program.space();
  bdd::Manager& mgr = space.manager();
  const bdd::Bdd valid_cur = space.valid(sym::Version::kCurrent);
  const bdd::Bdd faults = program.fault_delta();

  // View the model's own processes as the "repair result" under test.
  RepairResult view;
  view.success = true;
  view.delta = space.bdd_false();
  for (std::size_t j = 0; j < program.process_count(); ++j) {
    view.process_deltas.push_back(program.process_delta(j));
    view.delta |= view.process_deltas.back();
  }

  // ms: states from which faults alone can violate safety, over the full
  // valid space (no reachability restriction — this is verification, not
  // synthesis, so over-approximating costs only precision of S', and the
  // closure step below removes any state the model cannot keep safe).
  bdd::Bdd ms = space.bdd_false();
  if (level != ToleranceLevel::kNonmasking) {
    const prog::SafetySpec& spec = program.safety();
    ms = (spec.bad_states |
          mgr.exists(faults & spec.bad_trans, space.cube(sym::Version::kNext))) &
         valid_cur;
    while (true) {
      const bdd::Bdd grown = (ms | space.preimage(faults, ms)) & valid_cur;
      if (grown == ms) break;
      ms = grown;
    }
  }

  // Candidate S': the largest subset of the declared invariant avoiding ms
  // and closed under the model's stutter-completed transitions. Any genuine
  // repair's S' is such a set, so this derivation never under-shoots a
  // correct export.
  bdd::Bdd s = program.invariant().minus(ms);
  const bdd::Bdd delta_stutter = program.stutter_completion(view.delta);
  while (true) {
    const bdd::Bdd escaping =
        s & space.preimage(delta_stutter, valid_cur.minus(s));
    if (escaping.is_false()) break;
    s = s.minus(escaping);
  }
  view.invariant = s;

  std::vector<bdd::Bdd> partitions = view.process_deltas;
  const std::vector<bdd::Bdd>& fault_parts = program.fault_action_deltas();
  partitions.insert(partitions.end(), fault_parts.begin(), fault_parts.end());
  view.fault_span = space.forward_reachable(
      sym::TransitionRelation::build(space, partitions,
                                     sym::RelationMode::kMono),
      s);

  return verify_masking(program, view, level);
}

}  // namespace lr::repair
