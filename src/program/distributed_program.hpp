#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "lang/action.hpp"
#include "lang/expr.hpp"
#include "symbolic/space.hpp"

namespace lr::prog {

/// One process of a distributed program (Definition 17): the variables it
/// may read (R_j), the variables it may write (W_j ⊆ R_j), and its actions
/// (which compile to its transition predicate δ_j).
struct Process {
  std::string name;
  std::vector<sym::VarId> reads;
  std::vector<sym::VarId> writes;
  std::vector<lang::Action> actions;
};

/// Safety specification (Definition 7): a set of states that must never be
/// visited and a set of transitions that must never be executed, by the
/// program or by faults.
struct SafetySpec {
  bdd::Bdd bad_states;  ///< Sf_bs, over the current copy
  bdd::Bdd bad_trans;   ///< Sf_bt, over (current, next)
};

/// A distributed program P = (V_P, P_P) with faults, an invariant and a
/// safety specification — the full input of the repair problem (Section II).
///
/// Build order: declare variables, then processes/faults/invariant/spec in
/// any order, then call the accessors. The first accessor call compiles all
/// actions and freezes the program; mutation afterwards throws.
class DistributedProgram {
 public:
  explicit DistributedProgram(std::string name,
                              bdd::Manager::Options options = {});

  DistributedProgram(const DistributedProgram&) = delete;
  DistributedProgram& operator=(const DistributedProgram&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  // --- Construction -----------------------------------------------------------

  /// Declares a program variable (Definition 16). Returns its id; use
  /// lang::Expr::var / Expr::next to reference it in actions.
  sym::VarId add_variable(const std::string& var_name, std::uint32_t domain);

  /// Adds a process; returns its index.
  std::size_t add_process(Process process);

  /// Adds a fault action (Definition 12). Faults are not subject to
  /// read/write restrictions.
  void add_fault(lang::Action fault);

  /// Sets the invariant (legitimate states) S from an expression.
  void set_invariant(const lang::Expr& predicate);

  /// Marks states satisfying `predicate` as bad (added to Sf_bs).
  void add_bad_states(const lang::Expr& predicate);

  /// Marks transitions satisfying `predicate` (which may reference
  /// next-state values via Expr::next) as bad (added to Sf_bt).
  void add_bad_transitions(const lang::Expr& predicate);

  // --- Compiled artifacts (first call freezes the program) -----------------------

  [[nodiscard]] sym::Space& space() noexcept { return space_; }
  [[nodiscard]] std::size_t process_count() const noexcept {
    return processes_.size();
  }
  [[nodiscard]] const Process& process(std::size_t j) const {
    return processes_.at(j);
  }

  /// δ_j of process j: the union of its compiled actions, restricted to
  /// proper (state-changing) transitions. Self-loops are represented by the
  /// stuttering rule of Definition 18 instead.
  [[nodiscard]] const bdd::Bdd& process_delta(std::size_t j);

  /// ∪_j δ_j (no stuttering).
  [[nodiscard]] const bdd::Bdd& actions_delta();

  /// δ_P per Definition 18: ∪_j δ_j plus a self-loop at every valid state
  /// where no process transition is enabled.
  [[nodiscard]] const bdd::Bdd& program_delta();

  /// Union of the compiled fault actions (proper transitions).
  [[nodiscard]] const bdd::Bdd& fault_delta();

  /// The compiled fault actions individually (for partitioned reachability).
  [[nodiscard]] const std::vector<bdd::Bdd>& fault_action_deltas();

  /// Process deltas followed by fault action deltas: the natural partition
  /// of δ_P ∪ f for partitioned forward reachability (one
  /// sym::TransitionRelation part per entry). Stutter steps add
  /// no reachability and are omitted.
  [[nodiscard]] std::vector<bdd::Bdd> transition_partitions();

  /// The invariant S (conjoined with domain validity).
  [[nodiscard]] const bdd::Bdd& invariant();

  /// The safety specification (bad states / bad transitions).
  [[nodiscard]] const SafetySpec& safety();

  // --- Source-level views (for exporters/tools) ---------------------------------
  /// The fault actions as written (source form of fault_delta()).
  [[nodiscard]] const std::vector<lang::Action>& fault_actions() const {
    return faults_;
  }
  /// The invariant expression passed to set_invariant (throws if unset).
  [[nodiscard]] const lang::Expr& invariant_expression() const;
  /// The bad-state expressions as written.
  [[nodiscard]] const std::vector<lang::Expr>& bad_state_expressions() const {
    return bad_state_exprs_;
  }
  /// The bad-transition expressions as written.
  [[nodiscard]] const std::vector<lang::Expr>& bad_transition_expressions()
      const {
    return bad_trans_exprs_;
  }

  // --- Realizability machinery (Section III-B) --------------------------------------

  /// Transition predicate "respects W_j": every variable outside W_j is
  /// unchanged (the complement of the paper's write(W_j)).
  [[nodiscard]] const bdd::Bdd& respects_write(std::size_t j);

  /// Conjunction of unchanged(v) for every variable process j cannot read.
  [[nodiscard]] const bdd::Bdd& same_unreadable(std::size_t j);

  /// Cube of both copies of every bit process j cannot read.
  [[nodiscard]] const bdd::Bdd& unreadable_cube(std::size_t j);

  /// same_unreadable(j) ∧ valid_pair: the shape every member of a process-j
  /// group has (unreadable variables unchanged, every value in its domain).
  /// Built on first use, so compilation does not pay for it.
  [[nodiscard]] const bdd::Bdd& member_shape(std::size_t j);

  /// group_j(δ): the read-restriction closure of δ for process j —
  /// the union of the groups of all transitions of δ ∩ same_unreadable(j)
  /// (a transition changing an unreadable variable has an empty group).
  [[nodiscard]] bdd::Bdd group(std::size_t j, const bdd::Bdd& delta);

  /// The subset of δ whose groups are entirely contained in δ — exactly
  /// the transitions process j can realize out of δ (one ∀ per call).
  [[nodiscard]] bdd::Bdd realizable_subset(std::size_t j, const bdd::Bdd& delta);

  /// Definition 19: δ is realizable by process j.
  [[nodiscard]] bool realizable_by_process(std::size_t j, const bdd::Bdd& delta);

  /// Definition 20 (off-diagonal part): δ equals ∪_j δ_j for some
  /// realizable per-process decomposition. Returns the decomposition when
  /// it exists.
  [[nodiscard]] std::optional<std::vector<bdd::Bdd>> realize_by_program(
      const bdd::Bdd& delta);

  /// Adds the Definition-18 stutter completion to an action union:
  /// delta ∪ {(s,s) | s valid, no delta-successor}.
  [[nodiscard]] bdd::Bdd stutter_completion(const bdd::Bdd& delta);

  /// States of `set` reachable by the fault-intolerant program in the
  /// presence of faults (the Step-1 heuristic's search space).
  [[nodiscard]] const bdd::Bdd& reachable_under_faults();

 private:
  void compile();
  void require_mutable(const char* what) const;

  std::string name_;
  sym::Space space_;
  std::vector<Process> processes_;
  std::vector<lang::Action> faults_;
  std::optional<lang::Expr> invariant_expr_;
  std::vector<lang::Expr> bad_state_exprs_;
  std::vector<lang::Expr> bad_trans_exprs_;

  bool compiled_ = false;
  std::vector<bdd::Bdd> process_deltas_;
  std::vector<bdd::Bdd> fault_action_deltas_;
  bdd::Bdd actions_delta_;
  bdd::Bdd program_delta_;
  bdd::Bdd fault_delta_;
  bdd::Bdd invariant_bdd_;
  SafetySpec safety_;
  std::vector<bdd::Bdd> respects_write_;
  std::vector<bdd::Bdd> same_unreadable_;
  std::vector<bdd::Bdd> unreadable_cubes_;
  std::vector<bdd::Bdd> member_shapes_;  // invalid until member_shape(j)
  std::optional<bdd::Bdd> reachable_;
};

}  // namespace lr::prog
