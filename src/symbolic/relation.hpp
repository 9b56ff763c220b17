#pragma once

// First-class partitioned transition relations with a static
// early-quantification schedule.
//
// The repair algorithms historically passed transition relations around as
// ad-hoc `bdd::Bdd` values or `std::span<const bdd::Bdd>` partitions. A
// TransitionRelation makes the partition explicit: it owns a disjunctive
// list of parts, each part a (small) conjunction of factors that is never
// materialized when a combined and-exists can consume the factors
// directly, plus per-part "can-quantify-now" cubes derived from the parts'
// support sets. An image over a part only mentions the state bits the part
// actually reads/writes, so the bits *outside* its support can be
// quantified out of the operand set before the product — the standard
// early-quantification optimization for partitioned relations.
//
// Soundness of the schedule: for a part R with support S,
//   ∃cur. (R ∧ from) = ∃(cur∩S). (R ∧ ∃(cur\S). from)
// because R is independent of cur\S. The supports are computed from the
// *compiled* BDDs (bdd::Manager::support), not from parsed declarations,
// so the schedule stays exact for algorithm-built parts (e.g. a process
// delta minus a banned-transition set). The program's process and fault
// structure guides how the repair layer *groups* actions into parts; the
// cubes themselves never over-approximate.
//
// Representation modes: a relation is built either `scheduled` (the
// partitioned representation above) or flat (mono) — the exact pre-refactor
// call shapes, kept so `--rel=mono` reproduces the historical execution
// path and the differential suite can compare the two. Both paths compute
// the same canonical sets, so exports, journals and non-timing metrics are
// byte-identical by construction.

#include <cstddef>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "bdd/bdd.hpp"
#include "symbolic/space.hpp"

namespace lr::sym {

/// Which transition-relation representation the engine executes with.
enum class RelationMode {
  kMono,       ///< flat per-part BDDs, no early-quantification schedule
  kPartition,  ///< scheduled conjunctive/disjunctive partition
  kAuto,       ///< partition when the program has >= 2 parts, else mono
};

[[nodiscard]] const char* relation_mode_name(RelationMode mode) noexcept;
[[nodiscard]] std::optional<RelationMode> parse_relation_mode(
    std::string_view name) noexcept;

/// Resolves kAuto against the partition width: partitioning only pays when
/// there is more than one part to schedule around.
[[nodiscard]] RelationMode resolve_relation_mode(RelationMode requested,
                                                 std::size_t parts) noexcept;

/// One disjunctive part: a conjunction of factors plus its
/// early-quantification cubes. `local_*` cubes cover the state bits inside
/// the part's support (quantified during the product), `absent_*` cubes the
/// bits outside it (quantified out of the operand before the product).
/// The cube handles are only populated on scheduled relations.
struct RelationPart {
  std::vector<bdd::Bdd> conjuncts;
  bdd::Bdd local_cur_cube;
  bdd::Bdd absent_cur_cube;
  bdd::Bdd local_next_cube;
  bdd::Bdd absent_next_cube;
  std::size_t support_bits = 0;  ///< |support| over cur+next bits
};

/// Partition-shape summary (metrics, journal header, --stats report).
/// Describes the *relation*, not the execution mode, so both modes report
/// identical shapes for the same program.
struct RelationShape {
  std::size_t parts = 0;
  std::size_t conjuncts = 0;
  std::size_t min_support_bits = 0;
  std::size_t max_support_bits = 0;
  double avg_support_bits = 0.0;
  /// Sum over parts of the bits *outside* the part's support — the bits
  /// the schedule quantifies before the product. 0 means partitioning
  /// cannot help (every part touches every bit).
  std::size_t schedulable_bits = 0;
  std::size_t total_bits = 0;  ///< 2 * bits_per_state
};

/// A transition relation as an explicit disjunctive partition of
/// conjunctive parts. See the file comment for the representation contract.
class TransitionRelation {
 public:
  /// An empty relation to grow with add_part(). `mode` must already be
  /// resolved (kMono or kPartition, not kAuto).
  TransitionRelation(Space& space, RelationMode mode);

  /// A single flat part, no schedule (the historical call shape).
  [[nodiscard]] static TransitionRelation monolithic(Space& space,
                                                     bdd::Bdd rel);

  /// One scheduled part per entry of `parts`.
  [[nodiscard]] static TransitionRelation partitioned(
      Space& space, std::span<const bdd::Bdd> parts);

  /// Mode-resolving factory: builds scheduled parts under kPartition (or
  /// kAuto with >= 2 parts) and flat parts otherwise.
  [[nodiscard]] static TransitionRelation build(Space& space,
                                                std::span<const bdd::Bdd> parts,
                                                RelationMode mode);

  /// Appends one part. Scheduled relations keep the conjuncts separate and
  /// compute the part's quantification cubes from the union of their
  /// supports; mono relations conjoin them immediately (the historical
  /// shape). Multi-factor parts are how call sites avoid materializing
  /// products like `delta ∧ prime(invariant)`.
  void add_part(std::span<const bdd::Bdd> conjuncts);
  void add_part(const bdd::Bdd& a);
  void add_part(const bdd::Bdd& a, const bdd::Bdd& b);

  [[nodiscard]] bool scheduled() const noexcept { return scheduled_; }
  [[nodiscard]] RelationMode mode() const noexcept {
    return scheduled_ ? RelationMode::kPartition : RelationMode::kMono;
  }
  [[nodiscard]] const std::vector<RelationPart>& parts() const noexcept {
    return parts_;
  }
  [[nodiscard]] std::size_t part_count() const noexcept {
    return parts_.size();
  }
  [[nodiscard]] Space& space() const noexcept { return *space_; }

  /// One BDD per part (multi-factor parts conjoined on demand, cached).
  [[nodiscard]] std::span<const bdd::Bdd> flat_parts() const;

  /// The whole relation as one BDD (union of flat parts, cached). Call
  /// sites that genuinely need the monolithic product (e.g. transition
  /// subtraction against the full relation) use this; image/preimage never
  /// do.
  [[nodiscard]] const bdd::Bdd& flat() const;

  /// Partition-shape summary. Supports are computed on demand for mono
  /// relations so both modes describe the same program identically.
  [[nodiscard]] RelationShape shape() const;

 private:
  Space* space_;
  bool scheduled_;
  std::vector<RelationPart> parts_;
  mutable std::vector<bdd::Bdd> flat_parts_;
  mutable bdd::Bdd flat_;
};

}  // namespace lr::sym
