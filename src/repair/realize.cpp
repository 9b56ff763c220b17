#include "repair/realize.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "repair/journal.hpp"
#include "support/progress.hpp"
#include "support/trace.hpp"
#include "symbolic/intra.hpp"

namespace lr::repair {

namespace {

/// Bits of process j's readable variables, current and next copies. A
/// group of j is one assignment to exactly these bits (see count_groups).
std::uint32_t readable_bits(const sym::Space& space,
                            const prog::Process& proc) {
  const std::unordered_set<sym::VarId> reads(proc.reads.begin(),
                                             proc.reads.end());
  std::uint32_t bits = 0;
  for (const sym::VarId v : reads) bits += 2 * space.info(v).bits;
  return bits;
}

/// Number of process-j groups that meet `delta` (write-respecting, hence
/// inside same_unreadable(j)): groups are the classes of the readable
/// projection, so project the unreadable bits away and count the readable
/// assignments that remain. Equals |group_j(delta)| divided by the members
/// per group (the product of the unreadable domains) without building the
/// group.
std::size_t count_groups(bdd::Manager& m, const bdd::Bdd& delta,
                         const bdd::Bdd& unreadable_cube,
                         std::uint32_t readable) {
  return static_cast<std::size_t>(
      std::llround(m.sat_count(m.exists(delta, unreadable_cube), readable)));
}

/// A journal event decided on a worker thread, buffered as worker-manager
/// handles and replayed on the main thread in canonical process order so
/// the journal stream is byte-identical to the sequential run's.
struct PendingEvent {
  enum Kind { kAccepted, kRejected, kPrune } kind = kAccepted;
  const char* reason = nullptr;
  bdd::Bdd a;  ///< accepted: group; rejected: group; prune: pre
  bdd::Bdd b;  ///< rejected: pre pool; prune: post
  bdd::Bdd c;  ///< rejected: acceptable pool
};

/// Everything one process's enumeration produced on its worker.
struct ProcessOutcome {
  bdd::Bdd accepted;  // worker-manager handle
  std::vector<PendingEvent> events;
  std::size_t iterations = 0;
  std::size_t closure_rejects = 0;
  std::size_t expand_successes = 0;
  std::size_t expand_failures = 0;
};

/// Per-process inputs pinned on the main manager for worker import.
struct ProcessInputs {
  bdd::NodeId respects_write = 0;
  bdd::NodeId same_unreadable = 0;
  bdd::NodeId unreadable_cube = 0;
  std::uint32_t readable_bits = 0;
  /// (cube_pair_of({v}), unchanged(v)) per expandable variable, in the
  /// sequential path's iteration order (R_j − W_j, reads order).
  std::vector<std::pair<bdd::NodeId, bdd::NodeId>> expand;
};

/// Parallel per-process group enumeration: processes are independent in
/// Algorithm 2 (each only consumes its own pool δ ∩ respects_write(j)), so
/// worker w replicates the exact sequential loop for processes
/// {w, w+J, ...} on its own manager. The worker's manager mirrors the main
/// variable order, so pick_minterm/leq decide identically (canonicity) and
/// accept/reject decisions match the sequential run one-for-one; results
/// and journal events commit in ascending process order afterwards.
std::vector<bdd::Bdd> realize_parallel(
    prog::DistributedProgram& program, const bdd::Bdd& proper,
    const bdd::Bdd& tolerance, const Options& options, Stats& stats,
    sym::IntraEngine& engine) {
  sym::Space& space = program.space();
  const std::size_t n = program.process_count();
  const bool journaling = options.journal != nullptr;

  const bdd::NodeId proper_id = engine.pin(proper);
  const bdd::NodeId tolerance_id = engine.pin(tolerance);
  const bdd::NodeId valid_pair_id = engine.pin(space.valid_pair());
  std::vector<ProcessInputs> inputs(n);
  for (std::size_t j = 0; j < n; ++j) {
    inputs[j].respects_write = engine.pin(program.respects_write(j));
    inputs[j].same_unreadable = engine.pin(program.same_unreadable(j));
    inputs[j].unreadable_cube = engine.pin(program.unreadable_cube(j));
    inputs[j].readable_bits = readable_bits(space, program.process(j));
    if (options.group_method == GroupMethod::kPaperLoop &&
        options.use_expand_group) {
      const prog::Process& proc = program.process(j);
      std::unordered_set<sym::VarId> writes(proc.writes.begin(),
                                            proc.writes.end());
      for (const sym::VarId v : proc.reads) {
        if (writes.count(v) != 0) continue;
        const sym::VarId vs[1] = {v};
        inputs[j].expand.emplace_back(engine.pin(space.cube_pair_of(vs)),
                                      engine.pin(space.unchanged(v)));
      }
    }
  }

  std::vector<ProcessOutcome> outcomes(n);
  engine.run([&](std::size_t w, sym::IntraEngine::Worker& worker) {
    bdd::Manager& m = worker.mgr;
    const bdd::Bdd w_proper = engine.import(w, proper_id);
    const bdd::Bdd w_tol = engine.import(w, tolerance_id);
    const bdd::Bdd w_valid_pair = engine.import(w, valid_pair_id);
    const bdd::Bdd all_bits = worker.cube_cur & worker.cube_next;
    for (std::size_t j = w; j < n; j += engine.contexts()) {
      ProcessOutcome& out = outcomes[j];
      const bdd::Bdd w_same = engine.import(w, inputs[j].same_unreadable);
      const bdd::Bdd w_ucube = engine.import(w, inputs[j].unreadable_cube);
      // program.group / program.realizable_subset, replicated over the
      // worker's manager (see prog::DistributedProgram).
      const auto group_of = [&](const bdd::Bdd& delta) {
        return m.exists(delta & w_same, w_ucube) & w_same & w_valid_pair;
      };
      bdd::Bdd pool =
          w_proper & engine.import(w, inputs[j].respects_write);
      bdd::Bdd accepted = m.bdd_false();
      throw_if_cancelled(options.cancel);
      const bdd::Bdd member_shape = w_same & w_valid_pair;
      const bdd::Bdd closed =
          pool & member_shape & m.forall(member_shape.implies(pool), w_ucube);
      if (options.group_method == GroupMethod::kOneShot) {
        accepted = group_of(closed & w_tol);
        if (journaling) {
          out.events.push_back({PendingEvent::kAccepted, nullptr, accepted,
                                bdd::Bdd(), bdd::Bdd()});
          out.events.push_back({PendingEvent::kPrune, "closure",
                                pool & w_tol, accepted, bdd::Bdd()});
        }
      } else {
        std::vector<std::pair<bdd::Bdd, bdd::Bdd>> expand;
        expand.reserve(inputs[j].expand.size());
        for (const auto& [cube_id, unchanged_id] : inputs[j].expand) {
          expand.emplace_back(engine.import(w, cube_id),
                              engine.import(w, unchanged_id));
        }
        // Closure first, exactly as the sequential loop below.
        bdd::Bdd worklist = pool & w_tol;
        if (!journaling) {
          const std::size_t skipped =
              count_groups(m, worklist.minus(closed), w_ucube,
                           inputs[j].readable_bits);
          out.iterations += skipped;
          out.closure_rejects += skipped;
          worklist &= closed;
        }
        while (!worklist.is_false()) {
          throw_if_cancelled(options.cancel);
          ++out.iterations;
          const bdd::Bdd chosen = m.pick_minterm(worklist, all_bits);
          bdd::Bdd group = group_of(chosen);
          if (journaling && !chosen.leq(closed)) {
            out.events.push_back(
                {PendingEvent::kRejected, "closure", group, group, pool});
            ++out.closure_rejects;
            pool = pool.minus(group);
            worklist = worklist.minus(group);
            continue;
          }
          assert(group.leq(pool));
          if (options.use_expand_group) {
            for (const auto& [cube_v, unchanged_v] : expand) {
              const bdd::Bdd widened = m.exists(group, cube_v) & unchanged_v;
              if (widened.leq(pool)) {
                group = widened;
                ++out.expand_successes;
              } else {
                ++out.expand_failures;
              }
            }
          }
          if (journaling) {
            out.events.push_back({PendingEvent::kAccepted, nullptr, group,
                                  bdd::Bdd(), bdd::Bdd()});
          }
          accepted |= group;
          pool = pool.minus(group);
          worklist = worklist.minus(group);
        }
      }
      out.accepted = std::move(accepted);
    }
  });

  // Commit in canonical (ascending process) order: stats, journal events,
  // then the per-process delta — exactly the sequential emission order.
  std::vector<bdd::Bdd> result;
  result.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t w = j % engine.contexts();
    ProcessOutcome& out = outcomes[j];
    stats.group_iterations += out.iterations;
    stats.closure_rejects += out.closure_rejects;
    stats.expand_successes += out.expand_successes;
    stats.expand_failures += out.expand_failures;
    if (journaling) {
      for (const PendingEvent& event : out.events) {
        switch (event.kind) {
          case PendingEvent::kAccepted:
            options.journal->group_accepted(
                "repair.realize", j, engine.export_to_main(w, event.a));
            break;
          case PendingEvent::kRejected:
            options.journal->group_rejected(
                "repair.realize", j, event.reason,
                engine.export_to_main(w, event.a),
                engine.export_to_main(w, event.b),
                engine.export_to_main(w, event.c));
            break;
          case PendingEvent::kPrune:
            options.journal->prune("repair.realize", event.reason, j,
                                   engine.export_to_main(w, event.a),
                                   engine.export_to_main(w, event.b));
            break;
        }
      }
    }
    result.push_back(out.accepted.valid()
                         ? engine.export_to_main(w, out.accepted)
                         : space.bdd_false());
    if (out.iterations > 0) {
      support::trace::counter("repair.groups_processed",
                              static_cast<double>(stats.group_iterations));
    }
  }
  return result;
}

}  // namespace

std::vector<bdd::Bdd> realize(prog::DistributedProgram& program,
                              const bdd::Bdd& delta, const bdd::Bdd& tolerance,
                              const Options& options, Stats& stats) {
  LR_TRACE_SPAN_NAMED(span, "realize");
  sym::Space& space = program.space();
  bdd::Manager& mgr = space.manager();

  const bdd::Bdd valid_cur = space.valid(sym::Version::kCurrent);
  const bdd::Bdd valid_pair = space.valid_pair();
  const bdd::Bdd identity = space.identity();

  // Line 1: add every transition that starts outside the fault span.
  const bdd::Bdd with_outside =
      delta | (valid_cur.minus(tolerance) & valid_pair);
  // Self-loops are realized by stuttering, not by grouping.
  const bdd::Bdd proper = with_outside.minus(identity);

  // Accepted groups = group_iterations - closure_rejects.
  const auto finish = [&] {
    stats.peak_bdd_nodes =
        std::max(stats.peak_bdd_nodes, mgr.stats().peak_nodes);
    if (support::trace::enabled()) {
      span.attr("group_iterations",
                static_cast<std::uint64_t>(stats.group_iterations));
      span.attr("closure_rejects",
                static_cast<std::uint64_t>(stats.closure_rejects));
      span.attr("expand_accepts",
                static_cast<std::uint64_t>(stats.expand_successes));
      span.attr("expand_rejects",
                static_cast<std::uint64_t>(stats.expand_failures));
    }
  };

  if (sym::IntraEngine* engine = space.intra();
      engine != nullptr && program.process_count() > 1) {
    std::vector<bdd::Bdd> result =
        realize_parallel(program, proper, tolerance, options, stats, *engine);
    finish();
    return result;
  }

  const bdd::Bdd all_bits_cube =
      space.cube(sym::Version::kCurrent) & space.cube(sym::Version::kNext);

  std::vector<bdd::Bdd> result;
  result.reserve(program.process_count());

  for (std::size_t j = 0; j < program.process_count(); ++j) {
    LR_TRACE_SPAN_NAMED(proc_span, "realize.process");
    proc_span.attr("process", static_cast<std::uint64_t>(j));
    // Line 5: drop transitions that write outside W_j.
    bdd::Bdd delta_j_pool = proper & program.respects_write(j);
    bdd::Bdd accepted = space.bdd_false();

    throw_if_cancelled(options.cancel);
    // The transitions whose whole group is present. Groups partition the
    // write-respecting transitions, so this is fixed before any group is
    // enumerated (DESIGN.md, "Closure-first group enumeration").
    const bdd::Bdd closed = program.realizable_subset(j, delta_j_pool);
    if (options.group_method == GroupMethod::kOneShot) {
      // Equivalent one-pass formulation: keep exactly the closed
      // transitions, restricted to groups that carry span behavior.
      accepted = program.group(j, closed & tolerance);
      if (options.journal != nullptr) {
        options.journal->group_accepted("repair.realize", j, accepted);
        // Everything of the pool that carried span behavior but is not in
        // the accepted closure fell to the closure test.
        options.journal->prune("repair.realize", "closure", j,
                               delta_j_pool & tolerance, accepted);
      }
    } else {
      // Lines 7-22 of Algorithm 2. The worklist is restricted to
      // transitions that start inside the span: groups made purely of
      // Line-1 don't-cares carry no behavior and need not be enumerated.
      const prog::Process& proc = program.process(j);
      std::unordered_set<sym::VarId> writes(proc.writes.begin(),
                                            proc.writes.end());
      std::vector<sym::VarId> expandable;  // R_j − W_j
      for (const sym::VarId v : proc.reads) {
        if (writes.count(v) == 0) expandable.push_back(v);
      }

      // Closure first: without a journal, the groups Line 11 would reject
      // are counted in one step and never enumerated, and the pool
      // shrinks by accepted groups only (a group that is not closed fails
      // every later containment test regardless). With a journal, every
      // group is still visited so each rejection is journaled in order.
      bdd::Bdd worklist = delta_j_pool & tolerance;
      if (options.journal == nullptr) {
        const std::size_t skipped =
            count_groups(mgr, worklist.minus(closed),
                         program.unreadable_cube(j),
                         readable_bits(space, proc));
        stats.group_iterations += skipped;
        stats.closure_rejects += skipped;
        worklist &= closed;
      }
      support::progress::Heartbeat heartbeat("realize.groups");
      while (!worklist.is_false()) {
        throw_if_cancelled(options.cancel);
        ++stats.group_iterations;
        support::trace::counter("repair.groups_processed",
                                static_cast<double>(stats.group_iterations));
        if (heartbeat.due()) {
          heartbeat.emit("process " + std::to_string(j) + ", " +
                         std::to_string(stats.group_iterations) +
                         " groups, live nodes " +
                         std::to_string(mgr.live_nodes()));
        }
        // Line 8: choose one transition.
        const bdd::Bdd chosen = mgr.pick_minterm(worklist, all_bits_cube);
        // Line 9: its group.
        bdd::Bdd group = program.group(j, chosen);
        if (options.journal != nullptr && !chosen.leq(closed)) {
          // Line 11: some member is missing; discard the whole group.
          options.journal->group_rejected("repair.realize", j, "closure",
                                          group, group, delta_j_pool);
          ++stats.closure_rejects;
          delta_j_pool = delta_j_pool.minus(group);
          worklist = worklist.minus(group);
          continue;
        }
        assert(group.leq(delta_j_pool));
        // Lines 13-18: try to widen the group by dropping readable
        // variables from the implicit guard.
        if (options.use_expand_group) {
          for (const sym::VarId v : expandable) {
            const sym::VarId vs[1] = {v};
            const bdd::Bdd widened =
                mgr.exists(group, space.cube_pair_of(vs)) & space.unchanged(v);
            if (widened.leq(delta_j_pool)) {
              group = widened;
              ++stats.expand_successes;
            } else {
              ++stats.expand_failures;
            }
          }
        }
        // Lines 19-20.
        if (options.journal != nullptr) {
          options.journal->group_accepted("repair.realize", j, group);
        }
        accepted |= group;
        delta_j_pool = delta_j_pool.minus(group);
        worklist = worklist.minus(group);
      }
    }
    if (support::trace::enabled()) {
      proc_span.attr("delta_nodes",
                     static_cast<std::uint64_t>(accepted.node_count()));
    }
    result.push_back(std::move(accepted));
  }
  finish();
  return result;
}

}  // namespace lr::repair
