#include "symbolic/space.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "bdd/witness.hpp"
#include "support/trace.hpp"
#include "symbolic/intra.hpp"
#include "symbolic/relation.hpp"

namespace lr::sym {

namespace {

std::uint32_t bits_for_domain(std::uint32_t domain) {
  if (domain < 2) return 1;
  std::uint32_t bits = 0;
  std::uint32_t capacity = 1;
  while (capacity < domain) {
    capacity <<= 1;
    ++bits;
  }
  return bits;
}

}  // namespace

Space::Space(bdd::Manager::Options options) : mgr_(options) {}

Space::~Space() = default;

VarId Space::add_variable(std::string name, std::uint32_t domain) {
  if (frozen_) {
    throw std::logic_error(
        "Space::add_variable: space is frozen (a whole-space structure was "
        "already queried)");
  }
  if (domain < 1) {
    throw std::invalid_argument("Space::add_variable: domain must be >= 1");
  }
  if (domain > (1u << 31)) {
    throw std::invalid_argument(
        "Space::add_variable: domain must be at most 2^31");
  }
  VariableInfo info;
  info.name = std::move(name);
  info.domain = domain;
  info.bits = bits_for_domain(domain);
  info.cur_bits.reserve(info.bits);
  info.next_bits.reserve(info.bits);
  for (std::uint32_t b = 0; b < info.bits; ++b) {
    // Interleave current and next copies of each bit.
    info.cur_bits.push_back(mgr_.new_var());
    info.next_bits.push_back(mgr_.new_var());
  }
  bits_per_state_ += info.bits;
  vars_.push_back(std::move(info));
  return static_cast<VarId>(vars_.size() - 1);
}

std::optional<VarId> Space::find(const std::string& name) const {
  for (VarId v = 0; v < vars_.size(); ++v) {
    if (vars_[v].name == name) return v;
  }
  return std::nullopt;
}

double Space::state_space_size() const {
  double size = 1.0;
  for (const auto& v : vars_) size *= static_cast<double>(v.domain);
  return size;
}

void Space::freeze() {
  if (frozen_) return;
  frozen_ = true;
  // Cubes over each copy.
  std::vector<bdd::VarIndex> cur;
  std::vector<bdd::VarIndex> next;
  for (const auto& v : vars_) {
    cur.insert(cur.end(), v.cur_bits.begin(), v.cur_bits.end());
    next.insert(next.end(), v.next_bits.begin(), v.next_bits.end());
  }
  cube_cur_ = mgr_.make_cube(cur);
  cube_next_ = mgr_.make_cube(next);
  // The swap permutation (an involution thanks to interleaving).
  std::vector<bdd::VarIndex> perm(mgr_.var_count());
  for (bdd::VarIndex i = 0; i < perm.size(); ++i) perm[i] = i;
  for (const auto& v : vars_) {
    for (std::uint32_t b = 0; b < v.bits; ++b) {
      perm[v.cur_bits[b]] = v.next_bits[b];
      perm[v.next_bits[b]] = v.cur_bits[b];
    }
  }
  swap_perm_ = mgr_.register_permutation(perm);
  // Keep the raw structures around: enable_intra mirrors them into every
  // worker manager.
  cur_bit_list_ = std::move(cur);
  next_bit_list_ = std::move(next);
  swap_perm_vec_ = std::move(perm);
  // Domain-validity constraints and the identity relation.
  valid_cur_ = mgr_.bdd_true();
  valid_next_ = mgr_.bdd_true();
  identity_ = mgr_.bdd_true();
  for (VarId v = 0; v < vars_.size(); ++v) {
    const std::uint32_t domain = vars_[v].domain;
    if ((1u << vars_[v].bits) != domain) {
      valid_cur_ &= value_lt(v, domain, Version::kCurrent);
      valid_next_ &= value_lt(v, domain, Version::kNext);
    }
    identity_ &= unchanged(v);
  }
}

bdd::Bdd Space::value_eq(VarId v, std::uint32_t value, Version ver) {
  const VariableInfo& info = vars_.at(v);
  if (value >= info.domain) {
    throw std::invalid_argument("Space::value_eq: value " +
                                std::to_string(value) + " outside domain of " +
                                info.name);
  }
  const auto& bits = bits_of(v, ver);
  bdd::Bdd result = mgr_.bdd_true();
  for (std::uint32_t b = 0; b < info.bits; ++b) {
    const bool bit = ((value >> b) & 1u) != 0;
    result &= bit ? mgr_.bdd_var(bits[b]) : mgr_.bdd_nvar(bits[b]);
  }
  return result;
}

bdd::Bdd Space::value_lt(VarId v, std::uint32_t value, Version ver) {
  const VariableInfo& info = vars_.at(v);
  const auto& bits = bits_of(v, ver);
  if (value >= (1u << info.bits)) return mgr_.bdd_true();
  // Compare MSB-down: v < value iff some prefix matches and the next
  // constant bit is 1 while the variable bit is 0.
  bdd::Bdd result = mgr_.bdd_false();
  bdd::Bdd prefix_eq = mgr_.bdd_true();
  for (std::int32_t b = static_cast<std::int32_t>(info.bits) - 1; b >= 0;
       --b) {
    const bool cbit = ((value >> b) & 1u) != 0;
    const bdd::Bdd bit = mgr_.bdd_var(bits[b]);
    if (cbit) {
      result |= prefix_eq & ~bit;
      prefix_eq &= bit;
    } else {
      prefix_eq &= ~bit;
    }
  }
  return result;
}

bdd::Bdd Space::vars_eq(VarId a, Version va, VarId b, Version vb) {
  const VariableInfo& ia = vars_.at(a);
  const VariableInfo& ib = vars_.at(b);
  const auto& bits_a = bits_of(a, va);
  const auto& bits_b = bits_of(b, vb);
  const std::uint32_t common = std::min(ia.bits, ib.bits);
  bdd::Bdd result = mgr_.bdd_true();
  for (std::uint32_t i = 0; i < common; ++i) {
    result &= mgr_.bdd_var(bits_a[i]).iff(mgr_.bdd_var(bits_b[i]));
  }
  // The wider variable's extra bits must be zero for the values to match.
  for (std::uint32_t i = common; i < ia.bits; ++i) {
    result &= mgr_.bdd_nvar(bits_a[i]);
  }
  for (std::uint32_t i = common; i < ib.bits; ++i) {
    result &= mgr_.bdd_nvar(bits_b[i]);
  }
  return result;
}

bdd::Bdd Space::unchanged(VarId v) {
  return vars_eq(v, Version::kCurrent, v, Version::kNext);
}

bdd::Bdd Space::unchanged(std::span<const VarId> vs) {
  bdd::Bdd result = mgr_.bdd_true();
  for (const VarId v : vs) result &= unchanged(v);
  return result;
}

bdd::Bdd Space::identity() {
  freeze();
  return identity_;
}

bdd::Bdd Space::valid(Version ver) {
  freeze();
  return ver == Version::kCurrent ? valid_cur_ : valid_next_;
}

bdd::Bdd Space::valid_pair() {
  freeze();
  return valid_cur_ & valid_next_;
}

bdd::Bdd Space::cube(Version ver) {
  freeze();
  return ver == Version::kCurrent ? cube_cur_ : cube_next_;
}

bdd::Bdd Space::cube_of(std::span<const VarId> vs, Version ver) {
  std::vector<bdd::VarIndex> bits;
  for (const VarId v : vs) {
    const auto& src = bits_of(v, ver);
    bits.insert(bits.end(), src.begin(), src.end());
  }
  return mgr_.make_cube(bits);
}

bdd::Bdd Space::cube_pair_of(std::span<const VarId> vs) {
  std::vector<bdd::VarIndex> bits;
  for (const VarId v : vs) {
    const auto& cur = vars_.at(v).cur_bits;
    const auto& next = vars_.at(v).next_bits;
    bits.insert(bits.end(), cur.begin(), cur.end());
    bits.insert(bits.end(), next.begin(), next.end());
  }
  return mgr_.make_cube(bits);
}

bdd::Bdd Space::prime(const bdd::Bdd& state) {
  freeze();
  return mgr_.permute(state, *swap_perm_);
}

bdd::Bdd Space::unprime(const bdd::Bdd& state) {
  freeze();
  return mgr_.permute(state, *swap_perm_);
}

bdd::Bdd Space::image(const bdd::Bdd& rel, const bdd::Bdd& from) {
  freeze();
  if (intra_ != nullptr) {
    // Copy the cached pieces: the engine may trim its caches on a later
    // call, and local handles keep the split alive regardless.
    const std::vector<bdd::Bdd> pieces =
        intra_->split_relation(rel, 2 * intra_->contexts());
    if (pieces.size() > 1) return intra_->image(pieces, from);
  }
  return unprime(mgr_.and_exists(rel, from, cube_cur_));
}

bdd::Bdd Space::preimage(const bdd::Bdd& rel, const bdd::Bdd& to) {
  freeze();
  if (intra_ != nullptr) {
    const std::vector<bdd::Bdd> pieces =
        intra_->split_relation(rel, 2 * intra_->contexts());
    if (pieces.size() > 1) return intra_->preimage(pieces, prime(to));
  }
  return mgr_.and_exists(rel, prime(to), cube_next_);
}

namespace {

/// Expands one scheduled part into engine pieces. Single-factor parts are
/// Shannon-sharded (a cofactor's support never grows, so the shards
/// inherit the part's quantification cubes soundly); multi-factor parts
/// stay one piece so the worker's combined and-exists never materializes
/// their product.
void append_scheduled_pieces(
    IntraEngine& intra, const RelationPart& part, bool use_next,
    std::vector<IntraEngine::ScheduledPiece>& out) {
  const bdd::Bdd& local = use_next ? part.local_next_cube
                                   : part.local_cur_cube;
  const bdd::Bdd& absent = use_next ? part.absent_next_cube
                                    : part.absent_cur_cube;
  if (part.conjuncts.size() == 1) {
    const std::vector<bdd::Bdd> shards =
        intra.split_relation(part.conjuncts[0], 2 * intra.contexts());
    for (const bdd::Bdd& shard : shards) {
      out.push_back({shard, bdd::Bdd(), local, absent});
    }
    return;
  }
  bdd::Bdd rest = part.conjuncts[1];
  for (std::size_t i = 2; i < part.conjuncts.size(); ++i) {
    rest &= part.conjuncts[i];
  }
  out.push_back({part.conjuncts[0], std::move(rest), local, absent});
}

}  // namespace

bdd::Bdd Space::image_part(const RelationPart& part, const bdd::Bdd& from) {
  freeze();
  if (intra_ != nullptr) {
    std::vector<IntraEngine::ScheduledPiece> pieces;
    append_scheduled_pieces(*intra_, part, /*use_next=*/false, pieces);
    if (pieces.size() > 1) return intra_->image(pieces, from);
  }
  // Early quantification: the part cannot see the bits outside its
  // support, so they leave the operand before the product.
  const bdd::Bdd operand = part.absent_cur_cube.is_true()
                               ? from
                               : mgr_.exists(from, part.absent_cur_cube);
  if (part.conjuncts.size() >= 2) {
    bdd::Bdd rest = part.conjuncts[1];
    for (std::size_t i = 2; i < part.conjuncts.size(); ++i) {
      rest &= part.conjuncts[i];
    }
    return unprime(mgr_.and_exists(part.conjuncts[0], rest, operand,
                                   part.local_cur_cube));
  }
  return unprime(
      mgr_.and_exists(part.conjuncts[0], operand, part.local_cur_cube));
}

bdd::Bdd Space::preimage_part(const RelationPart& part,
                              const bdd::Bdd& to_primed) {
  freeze();
  if (intra_ != nullptr) {
    std::vector<IntraEngine::ScheduledPiece> pieces;
    append_scheduled_pieces(*intra_, part, /*use_next=*/true, pieces);
    if (pieces.size() > 1) return intra_->preimage(pieces, to_primed);
  }
  const bdd::Bdd operand = part.absent_next_cube.is_true()
                               ? to_primed
                               : mgr_.exists(to_primed, part.absent_next_cube);
  if (part.conjuncts.size() >= 2) {
    bdd::Bdd rest = part.conjuncts[1];
    for (std::size_t i = 2; i < part.conjuncts.size(); ++i) {
      rest &= part.conjuncts[i];
    }
    return mgr_.and_exists(part.conjuncts[0], rest, operand,
                           part.local_next_cube);
  }
  return mgr_.and_exists(part.conjuncts[0], operand, part.local_next_cube);
}

bdd::Bdd Space::image(const TransitionRelation& rel, const bdd::Bdd& from) {
  freeze();
  if (!rel.scheduled()) {
    // Flat parts, reduced in partition order: the reference the sharded
    // path must match bit-for-bit (it does: BDDs are canonical).
    const std::span<const bdd::Bdd> parts = rel.flat_parts();
    if (intra_ != nullptr && parts.size() > 1) {
      return intra_->image(parts, from);
    }
    bdd::Bdd result = mgr_.bdd_false();
    for (const bdd::Bdd& part : parts) result |= image(part, from);
    return result;
  }
  if (intra_ != nullptr && rel.part_count() > 1) {
    std::vector<IntraEngine::ScheduledPiece> pieces;
    for (const RelationPart& part : rel.parts()) {
      append_scheduled_pieces(*intra_, part, /*use_next=*/false, pieces);
    }
    return intra_->image(pieces, from);
  }
  bdd::Bdd result = mgr_.bdd_false();
  for (const RelationPart& part : rel.parts()) {
    result |= image_part(part, from);
  }
  return result;
}

bdd::Bdd Space::preimage(const TransitionRelation& rel, const bdd::Bdd& to) {
  freeze();
  if (!rel.scheduled()) {
    const std::span<const bdd::Bdd> parts = rel.flat_parts();
    if (intra_ != nullptr && parts.size() > 1) {
      return intra_->preimage(parts, prime(to));
    }
    bdd::Bdd result = mgr_.bdd_false();
    for (const bdd::Bdd& part : parts) result |= preimage(part, to);
    return result;
  }
  const bdd::Bdd to_primed = prime(to);
  if (intra_ != nullptr && rel.part_count() > 1) {
    std::vector<IntraEngine::ScheduledPiece> pieces;
    for (const RelationPart& part : rel.parts()) {
      append_scheduled_pieces(*intra_, part, /*use_next=*/true, pieces);
    }
    return intra_->preimage(pieces, to_primed);
  }
  bdd::Bdd result = mgr_.bdd_false();
  for (const RelationPart& part : rel.parts()) {
    result |= preimage_part(part, to_primed);
  }
  return result;
}

bdd::Bdd Space::forward_reachable(const bdd::Bdd& rel, const bdd::Bdd& from) {
  LR_TRACE_SPAN_NAMED(span, "space.forward_reachable");
  std::uint64_t iterations = 0;
  bdd::Bdd reached = from;
  bdd::Bdd frontier = from;
  while (!frontier.is_false()) {
    frontier = image(rel, frontier).minus(reached);
    reached |= frontier;
    ++iterations;
  }
  if (support::trace::enabled()) {
    span.attr("iterations", iterations);
    span.attr("result_nodes",
              static_cast<std::uint64_t>(reached.node_count()));
  }
  return reached;
}

bdd::Bdd Space::forward_reachable(const TransitionRelation& rel,
                                  const bdd::Bdd& from) {
  if (!rel.scheduled() && rel.part_count() == 1) {
    return forward_reachable(rel.flat_parts()[0], from);
  }
  LR_TRACE_SPAN_NAMED(span, "space.forward_reachable_partitioned");
  freeze();
  std::uint64_t images = 0;
  bdd::Bdd reached = from;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < rel.part_count(); ++i) {
      // Chaotic iteration: saturate this part before moving to the next.
      while (true) {
        // One expression: the image is released before `reached |=` runs
        // (handle lifetimes steer GC timing, and so the op counts).
        const bdd::Bdd fresh =
            (rel.scheduled() ? image_part(rel.parts()[i], reached)
                             : image(rel.flat_parts()[i], reached))
                .minus(reached);
        ++images;
        if (fresh.is_false()) break;
        reached |= fresh;
        changed = true;
      }
    }
  }
  if (support::trace::enabled()) {
    span.attr("partitions", static_cast<std::uint64_t>(rel.part_count()));
    span.attr("image_steps", images);
    span.attr("result_nodes",
              static_cast<std::uint64_t>(reached.node_count()));
  }
  return reached;
}

bdd::Bdd Space::backward_reachable(const bdd::Bdd& rel, const bdd::Bdd& to) {
  LR_TRACE_SPAN_NAMED(span, "space.backward_reachable");
  std::uint64_t iterations = 0;
  bdd::Bdd reached = to;
  bdd::Bdd frontier = to;
  while (!frontier.is_false()) {
    frontier = preimage(rel, frontier).minus(reached);
    reached |= frontier;
    ++iterations;
  }
  if (support::trace::enabled()) {
    span.attr("iterations", iterations);
    span.attr("result_nodes",
              static_cast<std::uint64_t>(reached.node_count()));
  }
  return reached;
}

bdd::Bdd Space::has_successor_in(const bdd::Bdd& rel, const bdd::Bdd& set) {
  freeze();
  // Two statements, not one expression: prime(set) must be released before
  // the conjunction runs. Handle lifetimes decide what a GC inside `&` can
  // reclaim, and so when the op cache is next cleared — this keeps the op
  // and GC sequence of preimage(rel, set) exactly.
  const bdd::Bdd predecessors = mgr_.and_exists(rel, prime(set), cube_next_);
  return set & predecessors;
}

bdd::Bdd Space::has_successor_in(const TransitionRelation& rel,
                                 const bdd::Bdd& set) {
  return set & preimage(rel, set);
}

void Space::enable_intra(std::size_t jobs) {
  freeze();
  if (intra_ != nullptr && jobs > 1 && intra_->jobs() == jobs) return;
  if (intra_ != nullptr) {
    intra_->add_worker_counters(retired_worker_counters_);
    intra_.reset();
  }
  if (jobs <= 1) return;
  intra_ = std::make_unique<IntraEngine>(mgr_, jobs, cur_bit_list_,
                                         next_bit_list_, swap_perm_vec_);
}

bdd::ManagerStats Space::engine_stats() const {
  bdd::ManagerStats stats = mgr_.stats();
  bdd::add_counters(stats, retired_worker_counters_);
  if (intra_ != nullptr) intra_->add_worker_counters(stats);
  return stats;
}

double Space::count_states(const bdd::Bdd& set) {
  freeze();
  // Conjoining validity keeps invalid encodings of non-power-of-two domains
  // out of the count and guarantees the support is within current bits.
  bdd::Bdd counted = set & valid_cur_;
  return mgr_.sat_count(counted, bits_per_state_);
}

double Space::count_transitions(const bdd::Bdd& rel) {
  freeze();
  bdd::Bdd counted = rel & valid_cur_ & valid_next_;
  return mgr_.sat_count(counted, 2 * bits_per_state_);
}

void Space::foreach_state(
    const bdd::Bdd& set,
    const std::function<void(std::span<const std::uint32_t>)>& fn) {
  freeze();
  const bdd::Bdd constrained = set & valid_cur_;
  std::vector<std::uint32_t> values(vars_.size());
  // foreach_minterm presents the cube's variables in order, which is
  // declaration order: variable by variable, bit 0 first.
  mgr_.foreach_minterm(constrained, cube_cur_,
                       [&](std::span<const bool> bits) {
                         std::size_t i = 0;
                         for (std::uint32_t v = 0; v < vars_.size(); ++v) {
                           values[v] = 0;
                           for (std::uint32_t b = 0; b < vars_[v].bits; ++b) {
                             if (bits[i++]) values[v] |= 1u << b;
                           }
                         }
                         fn(values);
                       });
}

void Space::foreach_transition(
    const bdd::Bdd& rel,
    const std::function<void(std::span<const std::uint32_t>,
                             std::span<const std::uint32_t>)>& fn) {
  freeze();
  const bdd::Bdd constrained = rel & valid_cur_ & valid_next_;
  const bdd::Bdd both = cube_cur_ & cube_next_;
  std::vector<std::uint32_t> from(vars_.size());
  std::vector<std::uint32_t> to(vars_.size());
  // Declaration order interleaves each bit's current and next copies
  // (see foreach_state).
  mgr_.foreach_minterm(
      constrained, both, [&](std::span<const bool> bits) {
        std::size_t i = 0;
        for (std::uint32_t v = 0; v < vars_.size(); ++v) {
          from[v] = 0;
          to[v] = 0;
          for (std::uint32_t b = 0; b < vars_[v].bits; ++b) {
            if (bits[i++]) from[v] |= 1u << b;
            if (bits[i++]) to[v] |= 1u << b;
          }
        }
        fn(from, to);
      });
}

bdd::Bdd Space::state(std::span<const std::uint32_t> values, Version ver) {
  if (values.size() != vars_.size()) {
    throw std::invalid_argument("Space::state: one value per variable");
  }
  bdd::Bdd result = mgr_.bdd_true();
  for (VarId v = 0; v < vars_.size(); ++v) {
    result &= value_eq(v, values[v], ver);
  }
  return result;
}

bdd::Bdd Space::transition(std::span<const std::uint32_t> from,
                           std::span<const std::uint32_t> to) {
  return state(from, Version::kCurrent) & state(to, Version::kNext);
}

std::string Space::state_to_string(
    std::span<const std::uint32_t> values) const {
  std::string out;
  for (VarId v = 0; v < vars_.size() && v < values.size(); ++v) {
    if (v > 0) out += ", ";
    out += vars_[v].name + "=" + std::to_string(values[v]);
  }
  return out;
}

std::optional<std::vector<std::uint32_t>> Space::witness_state(
    const bdd::Bdd& set) {
  freeze();
  const std::vector<signed char> bits =
      bdd::sat_one(mgr_, set & valid_cur_);
  if (bits.empty()) return std::nullopt;
  std::vector<std::uint32_t> values(vars_.size(), 0u);
  for (VarId v = 0; v < vars_.size(); ++v) {
    for (std::uint32_t b = 0; b < vars_[v].bits; ++b) {
      // Don't-care bits stay 0: any value on the chosen path satisfies the
      // predicate, and 0 keeps the value inside every domain.
      if (bits[vars_[v].cur_bits[b]] == 1) values[v] |= 1u << b;
    }
  }
  return values;
}

std::optional<std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>>>
Space::witness_transition(const bdd::Bdd& rel) {
  freeze();
  const std::vector<signed char> bits =
      bdd::sat_one(mgr_, rel & valid_cur_ & valid_next_);
  if (bits.empty()) return std::nullopt;
  std::vector<std::uint32_t> from(vars_.size(), 0u);
  std::vector<std::uint32_t> to(vars_.size(), 0u);
  for (VarId v = 0; v < vars_.size(); ++v) {
    for (std::uint32_t b = 0; b < vars_[v].bits; ++b) {
      if (bits[vars_[v].cur_bits[b]] == 1) from[v] |= 1u << b;
      if (bits[vars_[v].next_bits[b]] == 1) to[v] |= 1u << b;
    }
  }
  return std::make_pair(std::move(from), std::move(to));
}

}  // namespace lr::sym
