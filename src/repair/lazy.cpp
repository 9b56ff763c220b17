#include "repair/lazy.hpp"

#include <algorithm>

#include "repair/add_masking.hpp"
#include "repair/journal.hpp"
#include "repair/realize.hpp"
#include "repair/relation_setup.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/progress.hpp"
#include "support/stopwatch.hpp"
#include "support/trace.hpp"

namespace lr::repair {

namespace {

/// Removes, group-wise, the transitions that let executions spin outside
/// the invariant forever. Step 1 keeps original behavior outside the
/// invariant wholesale and layers only the *added* recovery, so the
/// realized program may cycle between kept original groups and synthesized
/// recovery groups; whole groups are removed (synthesized ones first,
/// original behavior as a last resort) so realizability is preserved.
void eliminate_livelocks(prog::DistributedProgram& program,
                         const bdd::Bdd& invariant, const bdd::Bdd& span,
                         std::vector<bdd::Bdd>& deltas,
                         const Options& options) {
  LR_TRACE_SPAN("lazy_repair.eliminate_livelocks");
  sym::Space& space = program.space();
  const bdd::Bdd outside = span.minus(invariant);
  for (std::size_t pass = 0; pass < 2 * deltas.size() + 2; ++pass) {
    throw_if_cancelled(options.cancel);
    bdd::Bdd actions = space.bdd_false();
    for (const bdd::Bdd& dj : deltas) actions |= dj;
    bdd::Bdd cycle_states = outside;
    while (true) {
      const bdd::Bdd shrunk = space.has_successor_in(actions, cycle_states);
      if (shrunk == cycle_states) break;
      cycle_states = shrunk;
    }
    if (cycle_states.is_false()) break;
    const bdd::Bdd on_cycle = cycle_states & space.prime(cycle_states);
    bool removed_added = false;
    for (std::size_t j = 0; j < deltas.size(); ++j) {
      const bdd::Bdd synthesized =
          (deltas[j] & on_cycle).minus(program.process_delta(j));
      const bdd::Bdd drop = program.group(j, synthesized);
      if (!drop.is_false()) {
        if (options.journal != nullptr) {
          options.journal->prune("repair.livelock", "cycle", j, deltas[j],
                                 deltas[j].minus(drop));
        }
        deltas[j] = deltas[j].minus(drop);
        removed_added = true;
      }
    }
    if (removed_added) continue;
    // Cycles made purely of original behavior: break them group-wise.
    for (std::size_t j = 0; j < deltas.size(); ++j) {
      const bdd::Bdd kept =
          deltas[j].minus(program.group(j, deltas[j] & on_cycle));
      if (options.journal != nullptr) {
        options.journal->prune("repair.livelock", "cycle", j, deltas[j], kept);
      }
      deltas[j] = kept;
    }
  }
}

}  // namespace

RepairResult lazy_repair(prog::DistributedProgram& program,
                         const Options& options) {
  sym::Space& space = program.space();
  support::Stopwatch total;
  LR_TRACE_SPAN_NAMED(run_span, "lazy_repair");

  RepairResult result;
  const auto finish = [&result, &space, &total] {
    result.stats.total_seconds = total.seconds();
    result.stats.bdd = space.engine_stats();
    result.stats.peak_bdd_nodes =
        std::max(result.stats.peak_bdd_nodes, result.stats.bdd.peak_nodes);
  };

  throw_if_cancelled(options.cancel);

  if (options.journal != nullptr) {
    options.journal->begin_run(program, "lazy",
                               tolerance_level_name(options.level));
  }

  space.enable_intra(options.intra_jobs);

  // Resolve --rel against the program's natural partition width and record
  // the partition shape (metrics + journal header). The shape describes
  // the program, not the mode, so journals stay byte-identical across
  // --rel values.
  const sym::RelationMode rel_mode = resolved_relation_mode(program, options);
  record_relation_shape(program, options, options.journal);

  bdd::Bdd candidate_invariant = program.invariant();
  bdd::Bdd extra_bad_trans = space.bdd_false();
  const bdd::Bdd identity = space.identity();
  const bdd::Bdd valid_pair = space.valid_pair();
  // The Section V-A heuristic's search space, computed once: deadlock bans
  // only ever shrink the program, so the round-1 reach stays a sound
  // restriction for every later round.
  bdd::Bdd context;
  if (options.restrict_to_reachable) {
    LR_TRACE_SPAN_NAMED(ctx_span, "lazy_repair.context_reach");
    context = space.forward_reachable(
        program_fault_relation(program, rel_mode), candidate_invariant);
    if (support::trace::enabled()) {
      ctx_span.attr("states", space.count_states(context));
    }
  }
  const std::vector<bdd::Bdd>& fault_parts = program.fault_action_deltas();

  support::progress::Heartbeat heartbeat("lazy_repair");
  for (std::size_t round = 0; round < options.max_outer_iterations; ++round) {
    throw_if_cancelled(options.cancel);
    ++result.stats.outer_iterations;
    if (options.journal != nullptr) options.journal->round_start(round);
    LR_TRACE_SPAN_NAMED(round_span, "lazy_repair.round");
    round_span.attr("round", static_cast<std::uint64_t>(round));
    support::trace::counter("repair.deadlock_round",
                            static_cast<double>(round));
    if (heartbeat.due()) {
      heartbeat.emit("outer round " + std::to_string(round) +
                     ", deadlock rounds " +
                     std::to_string(result.stats.deadlock_rounds) +
                     ", live nodes " +
                     std::to_string(space.manager().live_nodes()));
    }

    // Step 1: Add-Masking without realizability constraints.
    support::Stopwatch sw1;
    const StepOneResult step1 =
        add_masking(program, candidate_invariant, extra_bad_trans, context,
                    options, result.stats);
    result.stats.step1_seconds += sw1.seconds();
    if (!step1.success) {
      result.failure_reason = "Add-Masking found no fault-tolerant program";
      if (options.journal != nullptr) {
        options.journal->run_end(false, result.failure_reason);
      }
      finish();
      return result;
    }

    // Step 2: enforce the read/write restrictions. The don't-care zone of
    // Algorithm 2's Line 1 is the complement of δ'’s own reachable set
    // (every realizable sub-program stays within it), then drop group-wise
    // whatever would livelock.
    support::Stopwatch sw2;
    LR_TRACE_SPAN_NAMED(step2_span, "lazy_repair.step2");
    std::vector<bdd::Bdd> step1_parts{step1.delta};
    step1_parts.insert(step1_parts.end(), fault_parts.begin(),
                       fault_parts.end());
    const bdd::Bdd tolerance = space.forward_reachable(
        sym::TransitionRelation::build(space, step1_parts, rel_mode),
        step1.invariant);
    std::vector<bdd::Bdd> deltas =
        realize(program, step1.delta, tolerance, options, result.stats);
    if (options.level != ToleranceLevel::kFailsafe) {
      eliminate_livelocks(program, step1.invariant, tolerance, deltas,
                          options);
    }

    // Reachable span of the realized program (⊆ tolerance by
    // construction, so Line-1 don't-cares are indeed never executed).
    std::vector<bdd::Bdd> partitions = deltas;
    partitions.insert(partitions.end(), fault_parts.begin(), fault_parts.end());
    const bdd::Bdd realized_span = space.forward_reachable(
        sym::TransitionRelation::build(space, partitions, rel_mode),
        step1.invariant);

    // Deadlock check (Algorithm 1 lines 10-12), over the states the
    // realized program actually visits, generalized to the whole dead
    // region at once: a state is alive when some successor chain stays
    // alive (original stutter loops kept by Step 1 keep their states
    // alive: those states legitimately idle). Banning the backward-closed
    // dead set in one round replaces the paper's one-layer-per-iteration
    // peeling; branch transitions from alive states into the dead region
    // are banned too, which is exactly the paper's Line 11.
    // The monolithic union is only needed for the failsafe branch; build
    // it before the span opens so its work lands in step2, exactly where
    // the sequential profile has always charged it.
    const bool failsafe = options.level == ToleranceLevel::kFailsafe;
    bdd::Bdd realized = space.bdd_false();
    if (failsafe) {
      realized = step1.delta & identity;
      for (const bdd::Bdd& dj : deltas) realized |= dj;
    }
    LR_TRACE_SPAN_NAMED(dl_span, "lazy_repair.deadlock_check");
    bdd::Bdd deadlocks;
    if (failsafe) {
      // Failsafe: only the invariant owes progress; stopping after a fault
      // is allowed. A state of S' whose actions were all dropped (and that
      // was not already a legitimate terminal) must still be banned.
      const bdd::Bdd enabled =
          space.manager().exists(realized, space.cube(sym::Version::kNext));
      deadlocks = step1.invariant.minus(enabled);
    } else {
      // Partitioned νZ: {δ' ∩ id} ∪ {δ_j} as disjuncts — the same fixpoint
      // as a νZ over the monolithic union, with per-step products that stay
      // small. Used in sequential runs too (has_successor_in reduces the
      // partitions in order when intra is off), so the call-path profile is
      // byte-identical with and without --par-intra.
      std::vector<bdd::Bdd> realized_parts{step1.delta & identity};
      realized_parts.insert(realized_parts.end(), deltas.begin(),
                            deltas.end());
      const sym::TransitionRelation realized_rel =
          sym::TransitionRelation::build(space, realized_parts, rel_mode);
      bdd::Bdd alive = realized_span;
      while (true) {
        const bdd::Bdd shrunk = space.has_successor_in(realized_rel, alive);
        if (shrunk == alive) break;
        alive = shrunk;
      }
      deadlocks = realized_span.minus(alive);
    }
    result.stats.step2_seconds += sw2.seconds();

    if (deadlocks.is_false()) {
      result.success = true;
      result.invariant = step1.invariant;
      result.fault_span = realized_span;
      result.delta = space.bdd_false();
      for (const bdd::Bdd& dj : deltas) result.delta |= dj;
      result.process_deltas = std::move(deltas);
      result.stats.span_states = space.count_states(realized_span);
      result.stats.invariant_states = space.count_states(step1.invariant);
      if (options.journal != nullptr) options.journal->run_end(true, "");
      finish();
      if (support::trace::enabled()) {
        run_span.attr("invariant_states", result.stats.invariant_states);
        run_span.attr("span_states", result.stats.span_states);
        run_span.attr("outer_iterations",
                      static_cast<std::uint64_t>(result.stats.outer_iterations));
      }
      return result;
    }

    // Ban transitions into the deadlocked states and retry; also withdraw
    // those states from the invariant so the loop cannot revisit the same
    // deadlock forever.
    extra_bad_trans |= space.prime(deadlocks) & valid_pair;
    candidate_invariant = step1.invariant.minus(deadlocks);
    ++result.stats.deadlock_rounds;
    const double banned = space.count_states(deadlocks);
    result.stats.deadlock_states_banned += banned;
    result.stats.banned_trans_nodes = extra_bad_trans.node_count();
    if (options.journal != nullptr) {
      options.journal->deadlock_round(deadlocks,
                                      result.stats.banned_trans_nodes);
    }
    support::metrics::registry().set_gauge(
        "repair.deadlock_states.round" + std::to_string(round), banned);
    LR_LOG(debug) << "[lazy] round=" << round << " banned " << banned
                  << " deadlock states (ban relation "
                  << result.stats.banned_trans_nodes << " nodes)";
  }

  result.failure_reason = "outer iteration bound exceeded";
  if (options.journal != nullptr) {
    options.journal->run_end(false, result.failure_reason);
  }
  finish();
  return result;
}

}  // namespace lr::repair
