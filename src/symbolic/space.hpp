#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <memory>

#include "bdd/bdd.hpp"

namespace lr::sym {

class IntraEngine;
class TransitionRelation;
struct RelationPart;

/// Identifier of a finite-domain program variable within a Space.
using VarId = std::uint32_t;

/// Which copy of the state a formula talks about: the pre-state (current)
/// or the post-state (next) of a transition.
enum class Version { kCurrent, kNext };

/// Metadata for one finite-domain variable.
struct VariableInfo {
  std::string name;
  std::uint32_t domain = 0;  ///< values are 0 .. domain-1
  std::uint32_t bits = 0;    ///< ceil(log2(domain)), at least 1
  std::vector<bdd::VarIndex> cur_bits;   ///< LSB first
  std::vector<bdd::VarIndex> next_bits;  ///< LSB first
};

/// A symbolic state space over finite-domain variables (Definition 16).
///
/// Every program variable with domain D is log-encoded into ceil(log2 D)
/// boolean variables; each boolean variable exists in a *current* and a
/// *next* copy, and the copies are interleaved in the BDD order
/// (b0, b0', b1, b1', ...) — the standard ordering for transition
/// relations. State predicates are BDDs over current bits; transition
/// predicates are BDDs over current and next bits.
///
/// The Space owns its BDD manager: one synthesis problem = one Space = one
/// manager, which matches the paper's tool structure and keeps lifetimes
/// trivial. After the first query that needs whole-space structures (cubes,
/// the prime/unprime permutation), the variable set is frozen and
/// add_variable() throws.
class Space {
 public:
  explicit Space(bdd::Manager::Options options = {});
  ~Space();  // out of line: IntraEngine is incomplete here

  Space(const Space&) = delete;
  Space& operator=(const Space&) = delete;

  /// Declares a variable with values 0..domain-1 (1 <= domain <= 2^31;
  /// throws std::invalid_argument otherwise). Allocation order defines
  /// the BDD variable order, so callers should declare interacting
  /// variables (e.g. chain neighbors) consecutively.
  VarId add_variable(std::string name, std::uint32_t domain);

  [[nodiscard]] const VariableInfo& info(VarId v) const { return vars_.at(v); }
  [[nodiscard]] std::size_t variable_count() const noexcept {
    return vars_.size();
  }
  /// Boolean variables per state copy.
  [[nodiscard]] std::uint32_t bits_per_state() const noexcept {
    return bits_per_state_;
  }
  /// Looks a variable up by name (nullopt when absent).
  [[nodiscard]] std::optional<VarId> find(const std::string& name) const;

  /// Total number of syntactically valid states (product of domains).
  [[nodiscard]] double state_space_size() const;

  // --- Predicate constructors ----------------------------------------------

  [[nodiscard]] bdd::Bdd bdd_true() { return mgr_.bdd_true(); }
  [[nodiscard]] bdd::Bdd bdd_false() { return mgr_.bdd_false(); }

  /// v == value (in the given state copy).
  [[nodiscard]] bdd::Bdd value_eq(VarId v, std::uint32_t value, Version ver);

  /// v < value (unsigned comparison against a constant).
  [[nodiscard]] bdd::Bdd value_lt(VarId v, std::uint32_t value, Version ver);

  /// a (in version va) == b (in version vb); domains may differ, equality
  /// is on the integer value.
  [[nodiscard]] bdd::Bdd vars_eq(VarId a, Version va, VarId b, Version vb);

  /// Transition predicate "v keeps its value": v' == v.
  [[nodiscard]] bdd::Bdd unchanged(VarId v);

  /// Conjunction of unchanged(v) over the given variables.
  [[nodiscard]] bdd::Bdd unchanged(std::span<const VarId> vs);

  /// The identity transition relation (every variable unchanged).
  [[nodiscard]] bdd::Bdd identity();

  /// Conjunction of the domain constraints of all variables in one copy
  /// (true when every domain is a power of two).
  [[nodiscard]] bdd::Bdd valid(Version ver);

  /// valid(kCurrent) ∧ valid(kNext).
  [[nodiscard]] bdd::Bdd valid_pair();

  // --- Cubes and renaming ------------------------------------------------------

  /// Cube of every bit of one state copy (for image/preimage).
  [[nodiscard]] bdd::Bdd cube(Version ver);

  /// Cube of the bits of the given variables in one copy.
  [[nodiscard]] bdd::Bdd cube_of(std::span<const VarId> vs, Version ver);

  /// Cube of the bits of the given variables in both copies.
  [[nodiscard]] bdd::Bdd cube_pair_of(std::span<const VarId> vs);

  /// Renames current bits to next bits. `state` must only depend on
  /// current bits.
  [[nodiscard]] bdd::Bdd prime(const bdd::Bdd& state);

  /// Renames next bits to current bits. `state` must only depend on next
  /// bits.
  [[nodiscard]] bdd::Bdd unprime(const bdd::Bdd& state);

  // --- Relational operations ------------------------------------------------------

  /// States reachable from `from` in exactly one step of `rel`
  /// (a current-version state predicate). With intra sharding enabled
  /// (see enable_intra) a large relation is transparently split into
  /// disjuncts and computed on the worker pool; the result is bit-identical
  /// (BDD canonicity) to the sequential product.
  [[nodiscard]] bdd::Bdd image(const bdd::Bdd& rel, const bdd::Bdd& from);

  /// States with at least one `rel` successor inside `to`. Shards like
  /// image() when intra sharding is enabled.
  [[nodiscard]] bdd::Bdd preimage(const bdd::Bdd& rel, const bdd::Bdd& to);

  // --- Relation-aware overloads (symbolic/relation.hpp) --------------------
  //
  // A scheduled TransitionRelation interleaves quantification with
  // conjunction: per part, the bits outside the part's support are
  // quantified out of the operand first, then a combined and-exists over
  // the part's conjuncts quantifies only the support-local bits. An
  // unscheduled (mono) relation reduces the flat per-part products above
  // in partition order, reproducing the historical execution path exactly.
  // Either way the results are the same canonical sets.

  /// Image over a TransitionRelation (∪ over parts).
  [[nodiscard]] bdd::Bdd image(const TransitionRelation& rel,
                               const bdd::Bdd& from);

  /// Preimage over a TransitionRelation (∪ over parts).
  [[nodiscard]] bdd::Bdd preimage(const TransitionRelation& rel,
                                  const bdd::Bdd& to);

  /// Least fixpoint of `from ∪ image(rel, ·)` (forward reachability).
  [[nodiscard]] bdd::Bdd forward_reachable(const bdd::Bdd& rel,
                                           const bdd::Bdd& from);

  /// Forward reachability over a TransitionRelation. With several parts
  /// (scheduled or not) it runs chaotic iteration: each part is saturated
  /// in turn until a global fixpoint. That is the same set as breadth-first
  /// search over the union, without the frontier blow-up on loosely-coupled
  /// relations (orders of magnitude faster on havoc-style fault
  /// structures). A single mono part runs breadth-first.
  [[nodiscard]] bdd::Bdd forward_reachable(const TransitionRelation& rel,
                                           const bdd::Bdd& from);

  /// Least fixpoint of `to ∪ preimage(rel, ·)` (backward reachability).
  [[nodiscard]] bdd::Bdd backward_reachable(const bdd::Bdd& rel,
                                            const bdd::Bdd& to);

  /// States of `set` that have at least one `rel`-successor within `set`
  /// — i.e. set ∩ preimage(rel, set). Always computed monolithically on
  /// the main manager, even when intra sharding is on: fixpoints whose
  /// iterate changes little per step (livelock νZ) are faster this way,
  /// because the main op cache absorbs repeat iterations almost entirely,
  /// while worker dispatch would re-materialize every per-piece preimage
  /// each iteration.
  [[nodiscard]] bdd::Bdd has_successor_in(const bdd::Bdd& rel,
                                          const bdd::Bdd& set);

  /// TransitionRelation form: set ∩ preimage(rel, set).
  [[nodiscard]] bdd::Bdd has_successor_in(const TransitionRelation& rel,
                                          const bdd::Bdd& set);

  // --- Intra-problem sharding ------------------------------------------------

  /// Enables (jobs >= 2) or disables (jobs <= 1) work-sharded image and
  /// preimage computation on a per-Space worker pool (see
  /// symbolic/intra.hpp). Freezes the space. Results are bit-identical to
  /// the sequential path in either mode; only wall-clock and memory
  /// behavior change. Profiling never changes the choice: a profiled run
  /// executes the same plan as an unprofiled one. Idempotent per jobs
  /// value.
  void enable_intra(std::size_t jobs);

  /// The sharding engine, or nullptr when sequential. The repair layer
  /// uses it directly for parallel per-process group enumeration.
  [[nodiscard]] IntraEngine* intra() noexcept { return intra_.get(); }

  /// The main manager's counters plus the summable counters (lookups,
  /// hits, created nodes, GCs, ...) of every intra worker manager this
  /// space has run, so a report covers all of its BDD work. High-water
  /// marks (live, peak, bytes, cache entries) stay the main manager's.
  [[nodiscard]] bdd::ManagerStats engine_stats() const;

  // --- Counting and enumeration -----------------------------------------------------

  /// Number of valid states in a state predicate.
  [[nodiscard]] double count_states(const bdd::Bdd& set);

  /// Number of valid (s, s') pairs in a transition predicate.
  [[nodiscard]] double count_transitions(const bdd::Bdd& rel);

  /// Calls fn with the variable values of every valid state in `set`
  /// (exponential; small spaces only).
  void foreach_state(const bdd::Bdd& set,
                     const std::function<void(std::span<const std::uint32_t>)>& fn);

  /// Calls fn(from_values, to_values) for every valid transition in `rel`.
  void foreach_transition(
      const bdd::Bdd& rel,
      const std::function<void(std::span<const std::uint32_t>,
                               std::span<const std::uint32_t>)>& fn);

  /// The minterm of one concrete state (values listed per variable).
  [[nodiscard]] bdd::Bdd state(std::span<const std::uint32_t> values,
                               Version ver = Version::kCurrent);

  /// The minterm of one concrete transition.
  [[nodiscard]] bdd::Bdd transition(std::span<const std::uint32_t> from,
                                    std::span<const std::uint32_t> to);

  /// Human-readable "name=value, ..." rendering of a concrete state.
  [[nodiscard]] std::string state_to_string(
      std::span<const std::uint32_t> values) const;

  /// One concrete valid state of `set` (nullopt when empty), decoded to
  /// per-variable values. Deterministic: bdd::sat_one path, don't-care
  /// bits fixed to 0 — the journal's witness-state extractor.
  [[nodiscard]] std::optional<std::vector<std::uint32_t>> witness_state(
      const bdd::Bdd& set);

  /// One concrete valid (from, to) transition of `rel` (nullopt when
  /// empty), decoded like witness_state.
  [[nodiscard]] std::optional<
      std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>>>
  witness_transition(const bdd::Bdd& rel);

  /// The underlying BDD manager (tests, statistics).
  [[nodiscard]] bdd::Manager& manager() noexcept { return mgr_; }

 private:
  void freeze();
  [[nodiscard]] const std::vector<bdd::VarIndex>& bits_of(VarId v,
                                                          Version ver) const {
    return ver == Version::kCurrent ? vars_[v].cur_bits : vars_[v].next_bits;
  }

  /// Early-quantified image/preimage of one scheduled part (see
  /// symbolic/relation.hpp). With the intra engine active the part is
  /// Shannon-sharded into scheduled pieces (the shards inherit the part's
  /// quantification cubes — a cofactor's support never grows).
  [[nodiscard]] bdd::Bdd image_part(const RelationPart& part,
                                    const bdd::Bdd& from);
  [[nodiscard]] bdd::Bdd preimage_part(const RelationPart& part,
                                       const bdd::Bdd& to_primed);

  bdd::Manager mgr_;
  std::vector<VariableInfo> vars_;
  std::uint32_t bits_per_state_ = 0;
  bool frozen_ = false;

  // Lazily built after freeze().
  bdd::Bdd cube_cur_;
  bdd::Bdd cube_next_;
  bdd::Bdd valid_cur_;
  bdd::Bdd valid_next_;
  bdd::Bdd identity_;
  std::optional<bdd::PermId> swap_perm_;
  // Saved for mirroring the space into intra workers.
  std::vector<bdd::VarIndex> cur_bit_list_;
  std::vector<bdd::VarIndex> next_bit_list_;
  std::vector<bdd::VarIndex> swap_perm_vec_;
  std::unique_ptr<IntraEngine> intra_;
  // Worker counters of engines enable_intra has already replaced.
  bdd::ManagerStats retired_worker_counters_;
};

}  // namespace lr::sym
