#pragma once

#include <vector>

#include "bdd/bdd.hpp"
#include "program/distributed_program.hpp"
#include "repair/types.hpp"

namespace lr::repair {

/// Step 2 of lazy repair: Algorithm 2 ("Constructing Distributed Program").
///
/// Takes the (possibly unrealizable) masking program δ' from Step 1 and its
/// fault span T', and returns per-process transition predicates δ_j that
/// satisfy both the write restriction (δ_j changes only W_j) and the read
/// restriction (δ_j is a union of complete groups).
///
/// Following the algorithm's Line 1, transitions from states the program
/// can never be in are added as don't-cares so that a group is not dropped
/// merely because some member starts there. The paper uses the complement
/// of the fault span T'; this implementation uses the complement of
/// `tolerance` — the forward reach of δ' ∪ f from S', a subset of T' that
/// over-approximates the reach of *every* realizable sub-program of δ'
/// (δ_j ⊆ δ' plus don't-cares that, inductively, are never executed). This
/// is the same justification the paper gives for its Line 1 ("the starting
/// state of that transition is never reached"), with the reachable set
/// computed exactly instead of over-approximated; it is what lets the
/// classic Byzantine-agreement solution through (see DESIGN.md).
///
/// Groups are then accepted only when all their members are present. That
/// test is decided up front, one ∀ per process: without a journal the loop
/// enumerates only the groups it accepts and counts the rejected ones in
/// Stats::group_iterations and Stats::closure_rejects in one step (with a
/// journal it visits every group so each rejection is recorded in order).
/// Decisions, deltas and counters equal the paper's literal loop; see
/// DESIGN.md, "Closure-first group enumeration". ExpandGroup (options.use_expand_group) merges groups that differ only in
/// the value of a readable-but-unwritten variable, which removes an
/// exponential number of loop iterations when it succeeds.
///
/// The returned δ_j contain exactly the accepted groups that carry some
/// behavior inside `tolerance` (groups entirely outside it are don't-cares
/// and are omitted from the output program; no computation from S' can
/// tell the difference).
///
/// Self-loops in δ' (original stutter steps inside S') are not subject to
/// grouping — Definition 18's stuttering realizes them — and are therefore
/// ignored here; Algorithm 1 accounts for them when checking deadlocks.
[[nodiscard]] std::vector<bdd::Bdd> realize(prog::DistributedProgram& program,
                                            const bdd::Bdd& delta,
                                            const bdd::Bdd& tolerance,
                                            const Options& options,
                                            Stats& stats);

}  // namespace lr::repair
