#include "repair/cautious.hpp"

#include <algorithm>

#include "repair/journal.hpp"
#include "repair/relation_setup.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/progress.hpp"
#include "support/stopwatch.hpp"
#include "support/trace.hpp"

namespace lr::repair {

namespace {

/// Largest subset of `states` where every state has a `rel`-successor
/// inside the subset.
bdd::Bdd construct_invariant(sym::Space& space, bdd::Bdd states,
                             const sym::TransitionRelation& rel) {
  while (true) {
    const bdd::Bdd alive = states & space.preimage(rel, states);
    if (alive == states) return states;
    states = alive;
  }
}

/// Keeps the groups of `candidate` (for process j) all of whose *reachable*
/// members satisfy `zone` — the cautious discipline's per-step closure with
/// the Section-IV unreachable-member tolerance — and returns them closed
/// (unreachable members re-included so the result is a union of groups).
///
/// Two implementations, selected by options.group_method:
///  * kPaperLoop — group-by-group enumeration, as the tool of ref [2]
///    worked: pick a transition, build its group, test every member,
///    accept or reject. This is the faithful baseline the paper compares
///    against; its cost is what makes cautious repair expensive, because
///    it runs inside every iteration over the full state space.
///  * kOneShot — one universal quantification (same result, much faster);
///    an ablation showing how much of the paper's gap is the enumeration.
bdd::Bdd tolerant_groups(prog::DistributedProgram& program, std::size_t j,
                         const bdd::Bdd& candidate, const bdd::Bdd& zone,
                         const bdd::Bdd& reachable, const char* phase,
                         const Options& options, Stats& stats) {
  sym::Space& space = program.space();
  bdd::Manager& mgr = space.manager();
  if (options.group_method == GroupMethod::kOneShot) {
    const bdd::Bdd acceptable = zone | ~reachable;
    const bdd::Bdd closed =
        mgr.forall(program.member_shape(j).implies(acceptable),
                   program.unreadable_cube(j));
    const bdd::Bdd seeds = candidate & zone & closed;
    const bdd::Bdd accepted = program.group(j, seeds);
    if (options.journal != nullptr) {
      options.journal->group_accepted(phase, j, accepted);
      // Seeds that fell to the closure test (some reachable member of
      // their group leaves the zone).
      options.journal->prune(phase, "safety", j, candidate & zone, accepted);
    }
    return accepted;
  }
  const bdd::Bdd all_bits =
      space.cube(sym::Version::kCurrent) & space.cube(sym::Version::kNext);
  bdd::Bdd pool = candidate & zone;
  bdd::Bdd accepted = space.bdd_false();
  while (!pool.is_false()) {
    throw_if_cancelled(options.cancel);
    ++stats.group_iterations;
    const bdd::Bdd chosen = mgr.pick_minterm(pool, all_bits);
    const bdd::Bdd group = program.group(j, chosen);
    // Accept iff every member that the original program can reach lies in
    // the acceptable zone (Section-IV heuristic for the rest).
    if ((group & reachable).leq(zone)) {
      if (options.journal != nullptr) {
        options.journal->group_accepted(phase, j, group);
      }
      accepted |= group;
    } else if (options.journal != nullptr) {
      options.journal->group_rejected(phase, j, "safety", group,
                                      group & reachable, zone);
    }
    pool = pool.minus(group);
  }
  return accepted;
}

}  // namespace

RepairResult cautious_repair(prog::DistributedProgram& program,
                             const Options& options) {
  LR_TRACE_SPAN_NAMED(run_span, "cautious_repair");
  sym::Space& space = program.space();
  bdd::Manager& mgr = space.manager();
  support::Stopwatch total;

  RepairResult result;
  const auto finish = [&result, &space, &total] {
    result.stats.total_seconds = total.seconds();
    result.stats.bdd = space.engine_stats();
    result.stats.peak_bdd_nodes =
        std::max(result.stats.peak_bdd_nodes, result.stats.bdd.peak_nodes);
  };
  if (options.journal != nullptr) {
    options.journal->begin_run(program, "cautious",
                               tolerance_level_name(options.level));
  }

  // Sharded image/preimage: the cautious fixpoints all funnel through
  // Space::preimage, which auto-partitions large relations when enabled.
  space.enable_intra(options.intra_jobs);

  // --rel resolution + partition-shape record (metrics, journal header).
  const sym::RelationMode rel_mode = resolved_relation_mode(program, options);
  const bool rel_partitioned = rel_mode == sym::RelationMode::kPartition;
  record_relation_shape(program, options, options.journal);
  const sym::TransitionRelation faults_rel = fault_relation(program, rel_mode);

  const std::size_t nproc = program.process_count();
  const bdd::Bdd delta_p = program.program_delta();
  const bdd::Bdd faults = program.fault_delta();
  const bdd::Bdd valid_cur = space.valid(sym::Version::kCurrent);
  const bdd::Bdd valid_pair = space.valid_pair();
  const bdd::Bdd identity = space.identity();
  const bdd::Bdd bad_states = program.safety().bad_states;
  // The original stutter steps (legitimate terminal states).
  const bdd::Bdd orig_diag = delta_p & identity;

  // Reachability of the fault-intolerant program under faults: used only by
  // the Section-IV heuristic, as in [2] — the repair itself explores the
  // full state space.
  // `reach_ref` is the reachability reference of the Section-IV tolerance.
  // It starts as the fault-intolerant program's reachable set and is
  // refined to the candidate program's own reachable set whenever that is
  // smaller — the cautious analogue of SYCRAFT's deferred decisions, and
  // necessary for non-degenerate solutions (see DESIGN.md).
  bdd::Bdd reach_ref = program.reachable_under_faults();
  result.stats.reachable_states = space.count_states(reach_ref);

  // ms / mt over the full state space.
  bdd::Bdd ms = bad_states |
                mgr.exists(faults & program.safety().bad_trans,
                           space.cube(sym::Version::kNext));
  while (true) {
    const bdd::Bdd grown = ms | space.preimage(faults_rel, ms);
    if (grown == ms) break;
    ms = grown;
  }
  bdd::Bdd mt = (program.safety().bad_trans | space.prime(ms)) & valid_pair;

  bdd::Bdd s1 = program.invariant().minus(ms);
  bdd::Bdd t1 = valid_cur.minus(ms);
  std::size_t refinements = 0;

  support::progress::Heartbeat heartbeat("cautious_repair");
  for (std::size_t round = 0; round < options.max_outer_iterations; ++round) {
    throw_if_cancelled(options.cancel);
    ++result.stats.outer_iterations;
    if (options.journal != nullptr) options.journal->round_start(round);
    LR_TRACE_SPAN_NAMED(round_span, "cautious_repair.round");
    round_span.attr("round", static_cast<std::uint64_t>(round));
    support::trace::counter("repair.deadlock_round",
                            static_cast<double>(round));
    if (heartbeat.due()) {
      heartbeat.emit("round " + std::to_string(round) + ", refinements " +
                     std::to_string(refinements) + ", live nodes " +
                     std::to_string(mgr.live_nodes()));
    }
    LR_LOG(debug) << "[cautious] round=" << round
                  << " s1=" << space.count_states(s1)
                  << " t1=" << space.count_states(t1)
                  << " refs=" << refinements;
    if (s1.is_false()) {
      result.failure_reason = "invariant became empty";
      if (options.journal != nullptr) {
        options.journal->run_end(false, result.failure_reason);
      }
      finish();
      return result;
    }

    // --- Group-closed invariant behavior per process ----------------------------
    LR_TRACE_SPAN_NAMED(groups_span, "cautious_repair.groups");
    const bdd::Bdd inv_zone = s1 & space.prime(s1) & ~mt;
    std::vector<bdd::Bdd> inv_j(nproc);
    bdd::Bdd inv_all = space.bdd_false();
    for (std::size_t j = 0; j < nproc; ++j) {
      inv_j[j] = tolerant_groups(program, j, program.process_delta(j),
                                 inv_zone & program.process_delta(j),
                                 reach_ref, "analysis.invariant", options,
                                 result.stats);
      inv_all |= inv_j[j];
    }
    // Keep original stutter loops inside the invariant.
    const bdd::Bdd inv_stutter = orig_diag & s1 & space.prime(s1);

    // --- Group-closed candidate recovery per process -----------------------------
    // Targets are kept inside the original reachable set (plus S1) so the
    // unreachable-member tolerance above stays sound.
    const bdd::Bdd rec_targets = s1 | (reach_ref & t1);
    const bdd::Bdd rec_zone = t1.minus(s1) & space.prime(rec_targets) &
                              valid_pair & ~mt & ~identity;
    std::vector<bdd::Bdd> rec_j(nproc);
    bdd::Bdd rec_all = space.bdd_false();
    for (std::size_t j = 0; j < nproc; ++j) {
      const bdd::Bdd cand = rec_zone & program.respects_write(j);
      rec_j[j] = tolerant_groups(program, j, cand, cand, reach_ref,
                                 "analysis.recovery", options, result.stats);
      rec_all |= rec_j[j];
    }

    groups_span.close();

    // --- Shrink (S1, T1) with the grouped transition sets -------------------------
    ++result.stats.addmasking_rounds;
    LR_TRACE_SPAN_NAMED(shrink_span, "cautious_repair.shrink");
    // P1 as a relation: partitioned it keeps the per-process grouped sets
    // as disjunctive parts (their supports are what early quantification
    // schedules around); mono materializes the historical union.
    sym::TransitionRelation p1_rel(space, rel_mode);
    if (rel_partitioned) {
      for (const bdd::Bdd& part : inv_j) {
        if (!part.is_false()) p1_rel.add_part(part);
      }
      if (!inv_stutter.is_false()) p1_rel.add_part(inv_stutter);
      for (const bdd::Bdd& part : rec_j) {
        if (!part.is_false()) p1_rel.add_part(part);
      }
    } else {
      p1_rel.add_part(inv_all | inv_stutter | rec_all);
    }
    bdd::Bdd t2 = t1;
    while (true) {
      throw_if_cancelled(options.cancel);
      bdd::Bdd can_recover = s1 & t2;
      while (true) {
        const bdd::Bdd grown =
            can_recover | (t2 & space.preimage(p1_rel, can_recover));
        if (grown == can_recover) break;
        can_recover = grown;
      }
      bdd::Bdd t2_new = can_recover;
      while (true) {
        const bdd::Bdd escaping =
            t2_new & space.preimage(faults_rel, valid_cur.minus(t2_new));
        if (escaping.is_false()) break;
        t2_new = t2_new.minus(escaping);
      }
      if (t2_new == t2) break;
      t2 = t2_new;
    }
    bdd::Bdd s2 = s1 & t2;
    {
      // Invariant closure under P1 ∧ S2': partitioned, prime(s2) rides as
      // a conjunct of each invariant part instead of materializing the
      // product.
      sym::TransitionRelation closure_rel(space, rel_mode);
      if (rel_partitioned) {
        const bdd::Bdd s2_primed = space.prime(s2);
        for (const bdd::Bdd& part : inv_j) {
          if (!part.is_false()) closure_rel.add_part(part, s2_primed);
        }
        if (!inv_stutter.is_false()) {
          closure_rel.add_part(inv_stutter, s2_primed);
        }
      } else {
        closure_rel.add_part((inv_all | inv_stutter) & space.prime(s2));
      }
      s2 = construct_invariant(space, s2, closure_rel);
    }
    if (options.journal != nullptr) {
      options.journal->fixpoint_round("cautious.shrink",
                                      result.stats.addmasking_rounds,
                                      space.count_states(s2),
                                      space.count_states(t2));
    }
    if (s2 != s1 || t2 != t1) {
      LR_LOG(debug) << "[cautious]   shrink path";
      s1 = s2;
      t1 = t2;
      continue;  // groups must be re-derived for the shrunk pair
    }
    shrink_span.close();

    // --- Layered, group-closed recovery selection ----------------------------------
    LR_TRACE_SPAN_NAMED(layers_span, "cautious_repair.layers");
    bdd::Bdd below = s1;
    bdd::Bdd layer_decreasing = space.bdd_false();
    bdd::Bdd remaining = t1.minus(s1);
    sym::TransitionRelation rec_rel(space, rel_mode);
    if (rel_partitioned) {
      for (const bdd::Bdd& part : rec_j) {
        if (!part.is_false()) rec_rel.add_part(part);
      }
    } else {
      rec_rel.add_part(rec_all);
    }
    result.stats.recovery_layers = 0;
    while (!remaining.is_false()) {
      const bdd::Bdd layer = space.preimage(rec_rel, below) & remaining;
      if (layer.is_false()) break;  // leftovers are handled by the DL check
      layer_decreasing |= layer & space.prime(below);
      below |= layer;
      remaining = remaining.minus(layer);
      ++result.stats.recovery_layers;
      if (options.journal != nullptr) {
        options.journal->recovery_layer(result.stats.recovery_layers,
                                        space.count_states(layer),
                                        rec_all & layer & space.prime(below));
      }
    }
    std::vector<bdd::Bdd> final_j(nproc);
    bdd::Bdd actions = space.bdd_false();
    for (std::size_t j = 0; j < nproc; ++j) {
      const bdd::Bdd kept_rec =
          tolerant_groups(program, j, rec_j[j], rec_j[j] & layer_decreasing,
                          reach_ref, "analysis.layers", options, result.stats);
      final_j[j] = inv_j[j] | kept_rec;
      actions |= final_j[j];
    }

    layers_span.close();

    // --- Deadlock check over the program's own reachable span ----------------------
    LR_TRACE_SPAN_NAMED(dl_span, "cautious_repair.deadlock_check");
    const bdd::Bdd realized = actions | inv_stutter;
    std::vector<bdd::Bdd> partitions = final_j;
    const std::vector<bdd::Bdd>& fault_parts = program.fault_action_deltas();
    partitions.insert(partitions.end(), fault_parts.begin(), fault_parts.end());
    const sym::TransitionRelation span_rel =
        sym::TransitionRelation::build(space, partitions, rel_mode);
    const bdd::Bdd span = space.forward_reachable(span_rel, s1);
    // Refinement reference: the candidate program's reach from the *full*
    // candidate invariant — the set the next round restarts from. (Using
    // `span` alone could shrink the reference below the restart invariant
    // and blanket-tolerate legitimate states.)
    const bdd::Bdd span_full = space.forward_reachable(
        span_rel, program.invariant().minus(ms));
    if (refinements < 8 && !reach_ref.leq(span_full)) {
      // The candidate program visits fewer states than the tolerance
      // reference assumed: tighten the reference and redo the analysis
      // from the initial (S1, T1) so previously-rejected groups can enter.
      ++refinements;
      LR_LOG(debug) << "[cautious]   refine path";
      reach_ref &= span_full;
      if (options.journal != nullptr) {
        options.journal->refine(space.count_states(reach_ref));
      }
      s1 = program.invariant().minus(ms);
      t1 = valid_cur.minus(ms);
      continue;
    }
    // Dead-region check: a state is alive when some successor chain stays
    // alive (stutter loops keep legitimate terminals alive); banning the
    // backward-closed dead set at once avoids one-layer-per-round peeling.
    sym::TransitionRelation realized_rel(space, rel_mode);
    if (rel_partitioned) {
      for (const bdd::Bdd& part : final_j) {
        if (!part.is_false()) realized_rel.add_part(part);
      }
      if (!inv_stutter.is_false()) realized_rel.add_part(inv_stutter);
    } else {
      realized_rel.add_part(realized);
    }
    bdd::Bdd alive = span;
    while (true) {
      const bdd::Bdd shrunk = space.has_successor_in(realized_rel, alive);
      if (shrunk == alive) break;
      alive = shrunk;
    }
    const bdd::Bdd deadlocks = span.minus(alive);
    if (deadlocks.is_false()) {
      result.success = true;
      result.invariant = s1;
      result.fault_span = span;
      result.process_deltas = std::move(final_j);
      result.delta = actions;
      result.stats.span_states = space.count_states(span);
      result.stats.invariant_states = space.count_states(s1);
      if (options.journal != nullptr) options.journal->run_end(true, "");
      finish();
      // The whole run is one cautious pass; report it as "step 1" time so
      // the benchmark tables have a single comparable column.
      result.stats.step1_seconds = result.stats.total_seconds;
      if (support::trace::enabled()) {
        run_span.attr("invariant_states", result.stats.invariant_states);
        run_span.attr("span_states", result.stats.span_states);
        run_span.attr("outer_iterations",
                      static_cast<std::uint64_t>(result.stats.outer_iterations));
      }
      return result;
    }
    LR_LOG(debug) << "[cautious]   ban path: dl=" << space.count_states(deadlocks)
                  << " dl&t1=" << space.count_states(deadlocks & t1)
                  << " dl&s1=" << space.count_states(deadlocks & s1)
                  << " span=" << space.count_states(span);
    mt |= space.prime(deadlocks) & valid_pair;
    s1 = s1.minus(deadlocks);
    t1 = t1.minus(deadlocks);
    ++result.stats.deadlock_rounds;
    const double banned = space.count_states(deadlocks);
    result.stats.deadlock_states_banned += banned;
    result.stats.banned_trans_nodes = mt.node_count();
    if (options.journal != nullptr) {
      options.journal->deadlock_round(deadlocks,
                                      result.stats.banned_trans_nodes);
    }
    support::metrics::registry().set_gauge(
        "repair.deadlock_states.round" + std::to_string(round), banned);
  }

  result.failure_reason = "outer iteration bound exceeded";
  if (options.journal != nullptr) {
    options.journal->run_end(false, result.failure_reason);
  }
  finish();
  return result;
}

}  // namespace lr::repair
