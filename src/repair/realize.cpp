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

/// A journal event of one process's loop, held as handles of the manager
/// that ran the loop and written after it, in the loop's order, so the
/// journal stream is the same whichever manager ran the process.
struct PendingEvent {
  enum Kind { kAccepted, kRejected, kPrune } kind = kAccepted;
  const char* reason = nullptr;
  bdd::Bdd a;  ///< accepted: group; rejected: group; prune: pre
  bdd::Bdd b;  ///< rejected: pre; prune: post
  bdd::Bdd c;  ///< rejected: acceptable pool
};

/// Everything one process's loop produced, as handles of its manager.
struct ProcessOutcome {
  bdd::Bdd accepted;
  std::vector<PendingEvent> events;
  std::size_t iterations = 0;
  std::size_t closure_rejects = 0;
  std::size_t expand_successes = 0;
  std::size_t expand_failures = 0;
};

/// ExpandGroup's inputs for one readable-but-unwritten variable v.
struct ExpandVar {
  bdd::Bdd cube;       ///< cube_pair_of({v})
  bdd::Bdd unchanged;  ///< unchanged(v)
};

/// Process j's Algorithm 2 inputs, as handles of the manager whose loop
/// reads them: the main manager's own, or a worker's imports of them.
struct ProcessInputs {
  bdd::Bdd proper;  ///< Line 1's δ, self-loops removed (shared by all j)
  bdd::Bdd tolerance;
  bdd::Bdd all_bits;  ///< cube of every current and next bit
  bdd::Bdd respects_write;
  bdd::Bdd same_unreadable;
  bdd::Bdd member_shape;
  bdd::Bdd unreadable_cube;
  std::uint32_t readable_bits = 0;
  /// R_j − W_j in reads order; empty unless the loop runs ExpandGroup.
  std::vector<ExpandVar> expand;
};

/// Calls `fn` on every BDD of `in`, in one fixed order (pin, then import).
template <class Inputs, class Fn>
void for_each_bdd(Inputs& in, Fn&& fn) {
  fn(in.proper);
  fn(in.tolerance);
  fn(in.all_bits);
  fn(in.respects_write);
  fn(in.same_unreadable);
  fn(in.member_shape);
  fn(in.unreadable_cube);
  for (auto& var : in.expand) {
    fn(var.cube);
    fn(var.unchanged);
  }
}

/// Lines 5-22 of Algorithm 2 for process j, on the manager `m` that owns
/// `in`. The pool is fixed at pool₀ = proper ∧ respects_write(j) and never
/// rebuilt: ExpandGroup over v is decided against fits_v = ∀(v,v′).
/// (unchanged_v → closed), built once per process, and against the groups
/// accepted so far. Decisions, counters and journal events equal the
/// literal loop's, whose pool shrinks after every group (DESIGN.md,
/// "Fixed-pool Algorithm 2").
ProcessOutcome realize_process(bdd::Manager& m, std::size_t j,
                               const ProcessInputs& in, const Options& options,
                               support::progress::Heartbeat& heartbeat) {
  const bool journaling = options.journal != nullptr;
  ProcessOutcome out;
  throw_if_cancelled(options.cancel);
  // Line 5: drop transitions that write outside W_j.
  const bdd::Bdd pool = in.proper & in.respects_write;
  // program.group, over `m`.
  const auto group_of = [&](const bdd::Bdd& delta) {
    return m.exists(delta & in.same_unreadable, in.unreadable_cube) &
           in.member_shape;
  };
  // The transitions whose whole group is in the pool (program.
  // realizable_subset). Groups partition the write-respecting transitions,
  // so this is fixed before any group is enumerated (DESIGN.md,
  // "Closure-first group enumeration").
  const bdd::Bdd closed =
      pool & in.member_shape &
      m.forall(in.member_shape.implies(pool), in.unreadable_cube);
  if (options.group_method == GroupMethod::kOneShot) {
    // Equivalent one-pass formulation: keep exactly the closed
    // transitions, restricted to groups that carry span behavior.
    out.accepted = group_of(closed & in.tolerance);
    if (journaling) {
      out.events.push_back({PendingEvent::kAccepted, nullptr, out.accepted,
                            bdd::Bdd(), bdd::Bdd()});
      // Everything of the pool that carried span behavior but is not in
      // the accepted closure fell to the closure test.
      out.events.push_back({PendingEvent::kPrune, "closure",
                            pool & in.tolerance, out.accepted, bdd::Bdd()});
    }
    return out;
  }

  // Lines 7-22. The worklist is restricted to transitions that start
  // inside the span: groups made purely of Line-1 don't-cares carry no
  // behavior and need not be enumerated. Without a journal, the groups
  // Line 11 would reject are counted in one step and never enumerated;
  // with one, every group is visited so each rejection is journaled in
  // order.
  bdd::Bdd worklist = pool & in.tolerance;
  if (!journaling) {
    const std::size_t skipped =
        count_groups(m, worklist.minus(closed), in.unreadable_cube,
                     in.readable_bits);
    out.iterations += skipped;
    out.closure_rejects += skipped;
    worklist &= closed;
  }
  // fits[i] for in.expand[i], built on the first attempt over that variable.
  std::vector<bdd::Bdd> fits(in.expand.size());
  bdd::Bdd accepted = m.bdd_false();
  while (!worklist.is_false()) {
    throw_if_cancelled(options.cancel);
    ++out.iterations;
    if (heartbeat.due()) {
      heartbeat.emit("process " + std::to_string(j) + ", " +
                     std::to_string(out.iterations) + " groups, live nodes " +
                     std::to_string(m.live_nodes()));
    }
    // Line 8: choose one transition; Line 9: its group.
    const bdd::Bdd chosen = m.pick_minterm(worklist, in.all_bits);
    bdd::Bdd group = group_of(chosen);
    if (journaling && !chosen.leq(closed)) {
      // Line 11: some member is missing; discard the whole group. It
      // leaves the worklist only: a group that is not closed in pool₀ is
      // in no widened set that fits pool₀, and group − pool₀ is the
      // literal loop's group − pool.
      out.events.push_back(
          {PendingEvent::kRejected, "closure", group, group, pool});
      ++out.closure_rejects;
      worklist = worklist.minus(group);
      continue;
    }
    assert(group.leq(pool) && group.disjoint(accepted));
    // Lines 13-18: try to widen the group by dropping readable variables
    // from the implicit guard. The literal test ∃v.group ∧ unchanged_v ⊆
    // pool_t splits into group ⊆ fits_v and disjointness from accepted.
    for (std::size_t i = 0; i < in.expand.size(); ++i) {
      const ExpandVar& var = in.expand[i];
      if (!fits[i].valid()) {
        fits[i] = m.forall(var.unchanged.implies(closed), var.cube);
      }
      bool widened_ok = false;
      if (!fits[i].is_false() && group.leq(fits[i])) {
        const bdd::Bdd widened = m.exists(group, var.cube) & var.unchanged;
        if (widened.disjoint(accepted)) {
          group = widened;
          widened_ok = true;
        }
      }
      ++(widened_ok ? out.expand_successes : out.expand_failures);
    }
    // Lines 19-20.
    if (journaling) {
      out.events.push_back({PendingEvent::kAccepted, nullptr, group,
                            bdd::Bdd(), bdd::Bdd()});
    }
    accepted |= group;
    worklist = worklist.minus(group);
  }
  out.accepted = std::move(accepted);
  return out;
}

/// Adds process j's outcome to `stats` and the journal, in the loop's
/// order, and returns its δ_j in the main manager. `to_main` moves a handle
/// of the loop's manager into the main manager.
template <class ToMain>
bdd::Bdd commit(std::size_t j, const ProcessOutcome& out,
                const Options& options, Stats& stats, ToMain&& to_main) {
  stats.group_iterations += out.iterations;
  stats.closure_rejects += out.closure_rejects;
  stats.expand_successes += out.expand_successes;
  stats.expand_failures += out.expand_failures;
  if (out.iterations > 0) {
    support::trace::counter("repair.groups_processed",
                            static_cast<double>(stats.group_iterations));
  }
  if (options.journal != nullptr) {
    for (const PendingEvent& event : out.events) {
      switch (event.kind) {
        case PendingEvent::kAccepted:
          options.journal->group_accepted("repair.realize", j,
                                          to_main(event.a));
          break;
        case PendingEvent::kRejected:
          options.journal->group_rejected("repair.realize", j, event.reason,
                                          to_main(event.a), to_main(event.b),
                                          to_main(event.c));
          break;
        case PendingEvent::kPrune:
          options.journal->prune("repair.realize", event.reason, j,
                                 to_main(event.a), to_main(event.b));
          break;
      }
    }
  }
  return to_main(out.accepted);
}

}  // namespace

std::vector<bdd::Bdd> realize(prog::DistributedProgram& program,
                              const bdd::Bdd& delta, const bdd::Bdd& tolerance,
                              const Options& options, Stats& stats) {
  LR_TRACE_SPAN_NAMED(span, "realize");
  sym::Space& space = program.space();
  bdd::Manager& mgr = space.manager();
  const std::size_t n = program.process_count();

  const bdd::Bdd valid_cur = space.valid(sym::Version::kCurrent);
  const bdd::Bdd valid_pair = space.valid_pair();
  const bdd::Bdd identity = space.identity();

  // Line 1: add every transition that starts outside the fault span.
  const bdd::Bdd with_outside =
      delta | (valid_cur.minus(tolerance) & valid_pair);
  // Self-loops are realized by stuttering, not by grouping.
  const bdd::Bdd proper = with_outside.minus(identity);
  const bdd::Bdd all_bits =
      space.cube(sym::Version::kCurrent) & space.cube(sym::Version::kNext);
  const bool expanding = options.group_method == GroupMethod::kPaperLoop &&
                         options.use_expand_group;

  const auto main_inputs = [&](std::size_t j) {
    ProcessInputs in;
    in.proper = proper;
    in.tolerance = tolerance;
    in.all_bits = all_bits;
    in.respects_write = program.respects_write(j);
    in.same_unreadable = program.same_unreadable(j);
    in.member_shape = program.member_shape(j);
    in.unreadable_cube = program.unreadable_cube(j);
    const prog::Process& proc = program.process(j);
    in.readable_bits = readable_bits(space, proc);
    if (expanding) {
      const std::unordered_set<sym::VarId> writes(proc.writes.begin(),
                                                  proc.writes.end());
      for (const sym::VarId v : proc.reads) {
        if (writes.count(v) != 0) continue;
        const sym::VarId vs[1] = {v};
        in.expand.push_back({space.cube_pair_of(vs), space.unchanged(v)});
      }
    }
    return in;
  };

  support::progress::Heartbeat heartbeat("realize.groups");
  std::vector<bdd::Bdd> result;
  result.reserve(n);
  if (sym::IntraEngine* engine = space.intra(); engine != nullptr && n > 1) {
    // Processes are independent in Algorithm 2 (each only consumes its own
    // pool), so context w runs the same loop for processes {w, w+K, ...}
    // on its own manager. Worker managers mirror the main variable order,
    // so every decision matches the main manager's (canonicity); outcomes
    // commit in ascending process order afterwards.
    std::vector<ProcessInputs> inputs;
    std::vector<std::vector<bdd::NodeId>> ids(n);
    inputs.reserve(n);
    for (std::size_t j = 0; j < n; ++j) {
      inputs.push_back(main_inputs(j));
      for_each_bdd(inputs[j],
                   [&](const bdd::Bdd& f) { ids[j].push_back(engine->pin(f)); });
    }
    std::vector<ProcessOutcome> outcomes(n);
    engine->run([&](std::size_t w, sym::IntraEngine::Worker& worker) {
      for (std::size_t j = w; j < n; j += engine->contexts()) {
        ProcessInputs in;
        in.readable_bits = inputs[j].readable_bits;
        in.expand.resize(inputs[j].expand.size());
        std::size_t k = 0;
        for_each_bdd(in, [&](bdd::Bdd& f) { f = engine->import(w, ids[j][k++]); });
        outcomes[j] = realize_process(worker.mgr, j, in, options, heartbeat);
      }
    });
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t w = j % engine->contexts();
      result.push_back(commit(j, outcomes[j], options, stats,
                              [&](const bdd::Bdd& f) {
                                return engine->export_to_main(w, f);
                              }));
    }
  } else {
    for (std::size_t j = 0; j < n; ++j) {
      LR_TRACE_SPAN_NAMED(proc_span, "realize.process");
      proc_span.attr("process", static_cast<std::uint64_t>(j));
      const ProcessOutcome out =
          realize_process(mgr, j, main_inputs(j), options, heartbeat);
      result.push_back(commit(j, out, options, stats,
                              [](const bdd::Bdd& f) { return f; }));
      if (support::trace::enabled()) {
        proc_span.attr("delta_nodes",
                       static_cast<std::uint64_t>(result.back().node_count()));
      }
    }
  }

  // Accepted groups = group_iterations - closure_rejects.
  stats.peak_bdd_nodes = std::max(stats.peak_bdd_nodes, mgr.stats().peak_nodes);
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
  return result;
}

}  // namespace lr::repair
