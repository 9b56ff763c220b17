#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace lr::bdd {

namespace profile {
class Profiler;
}  // namespace profile

/// Index of a node in the manager's node pool. Terminals are 0 (false) and
/// 1 (true); all other ids denote internal nodes.
using NodeId = std::uint32_t;

/// A boolean variable, identified by its creation index. The variable
/// order is fixed: a variable's level *is* its index, so variables created
/// earlier sit nearer the root. The symbolic layer creates the bits of each
/// program variable with current and next copies interleaved (see
/// sym::Space::add_variable).
using VarIndex = std::uint32_t;

/// Identifier of a registered variable permutation (see
/// Manager::register_permutation); permutations are registered once and
/// reused so that their results can be memoized in the operation cache.
using PermId = std::uint32_t;

inline constexpr NodeId kFalseId = 0;
inline constexpr NodeId kTrueId = 1;
inline constexpr VarIndex kTerminalVar = 0xffffffffu;

class Manager;

/// Reference-counted handle to a BDD node.
///
/// `Bdd` is the only way user code holds on to BDD nodes; the manager's
/// garbage collector treats externally referenced nodes as roots. Handles
/// are cheap to copy (one refcount increment) and support the usual boolean
/// operator sugar. All operands of a binary operation must belong to the
/// same manager.
class Bdd {
 public:
  /// Empty handle (no manager). Only valid operations are assignment,
  /// destruction and valid().
  Bdd() noexcept = default;

  Bdd(const Bdd& other) noexcept;
  Bdd(Bdd&& other) noexcept;
  Bdd& operator=(const Bdd& other) noexcept;
  Bdd& operator=(Bdd&& other) noexcept;
  ~Bdd();

  /// True when the handle refers to a node in some manager.
  [[nodiscard]] bool valid() const noexcept { return mgr_ != nullptr; }

  [[nodiscard]] bool is_false() const noexcept { return id_ == kFalseId && valid(); }
  [[nodiscard]] bool is_true() const noexcept { return id_ == kTrueId && valid(); }
  [[nodiscard]] bool is_terminal() const noexcept { return id_ <= kTrueId; }

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] Manager* manager() const noexcept { return mgr_; }

  /// Structural equality: same manager, same node. Because BDDs are
  /// canonical this is semantic equivalence.
  [[nodiscard]] bool operator==(const Bdd& other) const noexcept {
    return mgr_ == other.mgr_ && id_ == other.id_;
  }
  [[nodiscard]] bool operator!=(const Bdd& other) const noexcept {
    return !(*this == other);
  }

  // Boolean algebra (forwarded to the manager; see Manager for semantics).
  [[nodiscard]] Bdd operator&(const Bdd& other) const;
  [[nodiscard]] Bdd operator|(const Bdd& other) const;
  [[nodiscard]] Bdd operator^(const Bdd& other) const;
  /// Complement. `~` is the canonical spelling (set complement); `!` is an
  /// alias kept for boolean-flavored call sites.
  [[nodiscard]] Bdd operator~() const;
  [[nodiscard]] Bdd operator!() const;
  Bdd& operator&=(const Bdd& other);
  Bdd& operator|=(const Bdd& other);
  Bdd& operator^=(const Bdd& other);

  /// Set difference `this ∧ ¬other` (transition/state-set subtraction).
  [[nodiscard]] Bdd minus(const Bdd& other) const;

  /// If-then-else with this as the condition.
  [[nodiscard]] Bdd ite(const Bdd& then_f, const Bdd& else_f) const;

  /// Implication as a BDD: `¬this ∨ other`.
  [[nodiscard]] Bdd implies(const Bdd& other) const;

  /// Biconditional `this ↔ other`.
  [[nodiscard]] Bdd iff(const Bdd& other) const;

  /// Decision test `this ⇒ other` evaluated without building the
  /// implication BDD (used heavily by Algorithm 2's group-containment
  /// checks).
  [[nodiscard]] bool leq(const Bdd& other) const;

  /// True iff the conjunction `this ∧ other` is unsatisfiable, computed
  /// without materializing the conjunction.
  [[nodiscard]] bool disjoint(const Bdd& other) const;

  /// Number of BDD nodes reachable from this root (including terminals).
  [[nodiscard]] std::size_t node_count() const;

 private:
  friend class Manager;
  Bdd(Manager* mgr, NodeId id) noexcept;  // takes a fresh reference

  Manager* mgr_ = nullptr;
  NodeId id_ = kFalseId;
};

/// Counters exposed for benchmarks and tests.
struct ManagerStats {
  std::size_t live_nodes = 0;        ///< currently allocated internal nodes
  std::size_t peak_nodes = 0;        ///< high-water mark of live nodes
  std::uint64_t created_nodes = 0;   ///< total make_node allocations
  std::uint64_t gc_runs = 0;         ///< garbage collections performed
  std::uint64_t gc_reclaimed = 0;    ///< nodes reclaimed across all GCs
  std::uint64_t unique_hits = 0;     ///< make_node found existing node
  std::uint64_t cache_lookups = 0;   ///< operation cache probes
  std::uint64_t cache_hits = 0;      ///< operation cache hits
  std::uint64_t cache_evictions = 0; ///< live cache entries overwritten
  std::uint64_t cache_resizes = 0;   ///< op-cache doublings (adaptive growth)
  std::size_t cache_entries = 0;     ///< current op-cache entry count
  std::size_t peak_bytes = 0;        ///< high-water mark of pool+table+cache bytes
};

/// Adds `from`'s summable counters (creations, GCs, unique-table and
/// op-cache traffic) to `into`. The gauges and high-water marks (live,
/// peak, cache entries, bytes) describe one manager and are left alone.
inline void add_counters(ManagerStats& into, const ManagerStats& from) {
  into.created_nodes += from.created_nodes;
  into.gc_runs += from.gc_runs;
  into.gc_reclaimed += from.gc_reclaimed;
  into.unique_hits += from.unique_hits;
  into.cache_lookups += from.cache_lookups;
  into.cache_hits += from.cache_hits;
  into.cache_evictions += from.cache_evictions;
  into.cache_resizes += from.cache_resizes;
}

/// What caused a garbage collection.
enum class GcTrigger {
  kThreshold,  ///< live nodes crossed the adaptive gc_threshold
  kExplicit,   ///< collect_garbage() called by user code
};

[[nodiscard]] const char* gc_trigger_name(GcTrigger trigger) noexcept;

/// Structured record of one garbage collection (kept in Manager::gc_log()).
struct GcRecord {
  GcTrigger trigger = GcTrigger::kThreshold;
  std::size_t live_before = 0;
  std::size_t live_after = 0;
  std::size_t reclaimed = 0;
  double seconds = 0.0;
};

/// A shared-node, reduced, ordered BDD manager (the CUDD substitute).
///
/// Design notes:
///  * No complement edges. This costs a constant factor on negation-heavy
///    workloads but keeps canonicity trivially simple; negation results are
///    memoized so repeated NOT is cheap.
///  * Nodes are pool indices, the unique table is a chained hash over the
///    pool, and the operation cache is one direct-mapped array keyed by
///    (op, a, b, c).
///  * The cache adapts to the working set, in the style of CUDD's cache
///    resizing: it starts at 2^cache_log2 entries, and each time the
///    lookups since the last check reach its entry count it doubles if
///    that window hit at least 30% of lookups *and* evicted at least 1/8
///    of them (up to kMaxCacheEntries). Both tests read the manager's own
///    counters, so growth is deterministic for a given op sequence. A
///    cold workload (every op new) evicts heavily but never hits, and
///    stays small.
///  * GC clears a cache that never grew. Once it has grown, GC keeps every
///    entry whose operands and result survive the mark phase and drops the
///    rest, so a recycled node slot can never alias a stale entry (slots
///    are only recycled by the GC itself).
///  * Garbage collection is mark-and-sweep from externally referenced
///    nodes. It runs only at public operation entry points, never inside a
///    recursion, so intermediate results need no protection.
///  * Single-threaded by design: one synthesis run is one engine instance,
///    matching the paper's tool. Use one Manager per thread for coarse
///    parallelism.
class Manager {
 public:
  struct Options {
    /// Initial node pool capacity (grows on demand).
    std::size_t initial_capacity = 1u << 16;
    /// log2 of the *initial* operation-cache entry count; the cache then
    /// doubles under pressure up to kMaxCacheEntries (see class notes).
    unsigned cache_log2 = 20;
    /// GC triggers when live nodes exceed this (adapts upward when GC
    /// reclaims too little).
    std::size_t gc_threshold = 1u << 18;
  };

  /// Growth cap of the adaptive op cache: 2^22 entries, 80 MiB at 20 bytes
  /// each. Measured on Sc^35 d8, 2^23 saves 0.4% of lookups for +80 MB.
  static constexpr std::size_t kMaxCacheEntries = std::size_t{1} << 22;

  Manager();
  explicit Manager(const Options& options);
  ~Manager();

  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  /// Creates a new boolean variable at the bottom of the order.
  VarIndex new_var();

  /// Number of variables created so far.
  [[nodiscard]] std::uint32_t var_count() const noexcept {
    return num_vars_;
  }

  [[nodiscard]] Bdd bdd_false();
  [[nodiscard]] Bdd bdd_true();

  /// The function "variable v" (positive literal).
  [[nodiscard]] Bdd bdd_var(VarIndex v);

  /// The function "¬v" (negative literal).
  [[nodiscard]] Bdd bdd_nvar(VarIndex v);

  /// Conjunction of the positive literals of `vars` (a quantification cube).
  /// The variables may be listed in any order.
  [[nodiscard]] Bdd make_cube(std::span<const VarIndex> vars);

  // --- Boolean operations -------------------------------------------------
  [[nodiscard]] Bdd apply_and(const Bdd& f, const Bdd& g);
  [[nodiscard]] Bdd apply_or(const Bdd& f, const Bdd& g);
  [[nodiscard]] Bdd apply_xor(const Bdd& f, const Bdd& g);
  [[nodiscard]] Bdd apply_diff(const Bdd& f, const Bdd& g);  ///< f ∧ ¬g
  [[nodiscard]] Bdd apply_not(const Bdd& f);
  [[nodiscard]] Bdd apply_ite(const Bdd& f, const Bdd& g, const Bdd& h);

  /// f ⇒ g decided without constructing f ∧ ¬g.
  [[nodiscard]] bool leq(const Bdd& f, const Bdd& g);

  /// f ∧ g == false decided without constructing the conjunction.
  [[nodiscard]] bool disjoint(const Bdd& f, const Bdd& g);

  // --- Quantification ------------------------------------------------------
  /// ∃ cube. f  (cube must be a conjunction of positive literals).
  [[nodiscard]] Bdd exists(const Bdd& f, const Bdd& cube);

  /// ∀ cube. f.
  [[nodiscard]] Bdd forall(const Bdd& f, const Bdd& cube);

  /// ∃ cube. (f ∧ g) computed as one pass (the relational product at the
  /// heart of image/preimage computation).
  [[nodiscard]] Bdd and_exists(const Bdd& f, const Bdd& g, const Bdd& cube);

  /// ∃ cube. (f ∧ g ∧ h) in one pass — the three-conjunct relational
  /// product used by partitioned transition relations, whose parts keep
  /// their factors (e.g. a process delta and a primed invariant) separate
  /// so the intermediate product is never materialized.
  [[nodiscard]] Bdd and_exists(const Bdd& f, const Bdd& g, const Bdd& h,
                               const Bdd& cube);

  // --- Variable permutation -------------------------------------------------
  /// Registers the permutation mapping variable v to perm[v]. `perm` must
  /// have one entry per existing variable and be a bijection. Returns an id
  /// usable with permute(); register each permutation once and reuse it.
  PermId register_permutation(std::span<const VarIndex> perm);

  /// Applies a registered permutation to f.
  [[nodiscard]] Bdd permute(const Bdd& f, PermId perm);

  // --- Cofactors ------------------------------------------------------------
  /// f with variable v fixed to `value`.
  [[nodiscard]] Bdd cofactor(const Bdd& f, VarIndex v, bool value);

  // --- Solutions -------------------------------------------------------------
  /// Number of satisfying assignments of f over `nvars` variables
  /// (as a double; exact while representable).
  [[nodiscard]] double sat_count(const Bdd& f, std::uint32_t nvars);

  /// A single satisfying minterm of f over exactly the variables of `cube`
  /// (which must contain support(f)). Don't-care variables are fixed to 0,
  /// so the result is deterministic. f must be satisfiable.
  [[nodiscard]] Bdd pick_minterm(const Bdd& f, const Bdd& cube);

  /// Invokes `fn` for every satisfying assignment of f over the variables
  /// of `cube` (which must contain support(f)), passing values aligned with
  /// the cube's variables in variable order. Exponential; for small spaces
  /// (tests, explicit cross-validation, example output).
  void foreach_minterm(const Bdd& f, const Bdd& cube,
                       const std::function<void(std::span<const bool>)>& fn);

  /// Invokes `fn` for every path to the 1-terminal: values are per manager
  /// variable, -1 = don't care, 0/1 = literal value. Used for printing
  /// synthesized programs compactly.
  void foreach_cube(const Bdd& f,
                    const std::function<void(std::span<const signed char>)>& fn);

  /// Evaluates f under a total assignment (indexed by variable; missing
  /// trailing variables default to false). Linear in the depth of f.
  [[nodiscard]] bool eval(const Bdd& f, std::span<const bool> assignment) const;

  /// Conjunction of the variables f depends on.
  [[nodiscard]] Bdd support_cube(const Bdd& f);

  /// Variables f depends on, ascending.
  [[nodiscard]] std::vector<VarIndex> support(const Bdd& f);

  // --- Introspection ---------------------------------------------------------
  [[nodiscard]] std::size_t node_count(const Bdd& f);
  [[nodiscard]] std::size_t live_nodes() const noexcept;
  [[nodiscard]] const ManagerStats& stats() const noexcept {
    // live_nodes changes on every apply; refresh it at observation time so
    // snapshots are accurate even when no GC has run.
    stats_.live_nodes = live_nodes();
    return stats_;
  }

  /// Forces a garbage collection (also runs automatically under pressure).
  void collect_garbage();

  // --- Memory & structure telemetry ------------------------------------------
  /// Live internal nodes per level (index = variable, which is its order
  /// position). One pool walk, no allocation beyond the result vector.
  [[nodiscard]] std::vector<std::size_t> level_histogram() const;

  /// Unique-table shape: total buckets and buckets with at least one node.
  [[nodiscard]] std::size_t unique_bucket_count() const noexcept {
    return buckets_.size();
  }
  [[nodiscard]] std::size_t unique_buckets_used() const;

  /// Unique-table load factor (live nodes per bucket) — cheap enough for a
  /// trace counter lane.
  [[nodiscard]] double unique_load() const noexcept {
    return buckets_.empty() ? 0.0
                            : static_cast<double>(live_nodes()) /
                                  static_cast<double>(buckets_.size());
  }

  /// Operation-cache shape: total entries and occupied entries (one walk).
  [[nodiscard]] std::size_t cache_entry_count() const noexcept {
    return cache_.size();
  }
  [[nodiscard]] std::size_t cache_entries_used() const;

  /// Bytes currently held by the node pool, unique table and op cache
  /// (container sizes, not capacities, so the figure is deterministic).
  [[nodiscard]] std::size_t allocated_bytes() const noexcept {
    return nodes_.size() * sizeof(Node) + buckets_.size() * sizeof(NodeId) +
           cache_.size() * sizeof(CacheEntry);
  }

  /// Structured log of every GC this manager ran (capped; see
  /// gc_log_dropped()).
  [[nodiscard]] const std::vector<GcRecord>& gc_log() const noexcept {
    return gc_log_;
  }
  [[nodiscard]] std::uint64_t gc_log_dropped() const noexcept {
    return gc_log_dropped_;
  }

  // --- Concurrent read access -----------------------------------------------
  /// A decomposed view of one internal node: its variable and cofactor ids.
  /// Terminals have var == kTerminalVar.
  struct NodeView {
    VarIndex var;
    NodeId lo;
    NodeId hi;
  };

  /// Read-only view of node `id` for structural traversals from other
  /// threads (see bdd/transfer.hpp). Contract: while any such traversal is
  /// in flight, no thread may call a mutating operation on this manager —
  /// no apply/quantify/permute (they allocate), no GC, no
  /// Bdd handle copies or drops (refcounts are non-atomic). The intra
  /// engine keeps the owning thread quiescent between dispatch and join,
  /// and pins every root it hands out so `id` cannot be swept or recycled.
  [[nodiscard]] NodeView node_view(NodeId id) const noexcept {
    const Node& n = nodes_[id];
    return NodeView{n.var, n.lo, n.hi};
  }

  /// This manager's span-attribution profile (created on first use). Hooks
  /// in the public operations only feed it while profile::enabled(); like
  /// the manager itself it is single-threaded.
  [[nodiscard]] profile::Profiler& profiler();

  /// Graphviz dot rendering of one function (documentation / debugging).
  [[nodiscard]] std::string to_dot(const Bdd& f, const std::string& name);

 private:
  friend class Bdd;

  struct Node {
    VarIndex var;       // kTerminalVar for terminals, kFreeVar for free slots
    NodeId lo;
    NodeId hi;
    NodeId next;        // unique-table chain / free-list link
    std::uint32_t refs; // external references only
  };

  struct CacheEntry {
    std::uint32_t op = 0;  // 0 = empty
    NodeId a = 0, b = 0, c = 0;
    NodeId result = 0;
  };

  static constexpr VarIndex kFreeVar = 0xfffffffeu;

  // Operation codes for the cache.
  enum Op : std::uint32_t {
    kOpNone = 0,
    kOpAnd,
    kOpOr,
    kOpXor,
    kOpDiff,
    kOpNot,
    kOpIte,
    kOpExists,
    kOpForall,
    kOpAndExists,
    kOpLeq,
    kOpDisjoint,
    kOpPermBase  // kOpPermBase + perm id
  };

  /// Cache-key op for the three-conjunct and_exists: four operands must fit
  /// a (op, a, b, c) entry, so the cube's node id is packed into the op
  /// field under this flag. Sound because neither kOpPermBase + perm ids
  /// nor node ids ever reach 2^31.
  static constexpr std::uint32_t kOpAndExists3Flag = 0x80000000u;

  void init_pool(std::size_t capacity);
  NodeId make_node(VarIndex var, NodeId lo, NodeId hi);
  NodeId alloc_node();
  void grow_buckets();
  void maybe_gc();
  void maybe_grow_cache();
  void retain_live_cache_entries();
  void collect_garbage_impl(GcTrigger trigger);
  void mark(NodeId root, std::vector<NodeId>& stack);

  /// Updates the peak-byte watermark after a container grew.
  void note_peak_bytes() noexcept {
    const std::size_t bytes = allocated_bytes();
    if (bytes > stats_.peak_bytes) stats_.peak_bytes = bytes;
  }

  void inc_ref(NodeId id) noexcept;
  void dec_ref(NodeId id) noexcept;
  [[nodiscard]] Bdd wrap(NodeId id) noexcept { return Bdd(this, id); }

  [[nodiscard]] bool cache_get(std::uint32_t op, NodeId a, NodeId b, NodeId c,
                               NodeId& out);
  void cache_put(std::uint32_t op, NodeId a, NodeId b, NodeId c, NodeId result);

  NodeId and_rec(NodeId f, NodeId g);
  NodeId or_rec(NodeId f, NodeId g);
  NodeId xor_rec(NodeId f, NodeId g);
  NodeId diff_rec(NodeId f, NodeId g);
  NodeId not_rec(NodeId f);
  NodeId ite_rec(NodeId f, NodeId g, NodeId h);
  NodeId exists_rec(NodeId f, NodeId cube);
  NodeId forall_rec(NodeId f, NodeId cube);
  NodeId and_exists_rec(NodeId f, NodeId g, NodeId cube);
  NodeId and_exists3_rec(NodeId f, NodeId g, NodeId h, NodeId cube);
  bool leq_rec(NodeId f, NodeId g);
  bool disjoint_rec(NodeId f, NodeId g);
  NodeId permute_rec(NodeId f, PermId perm);
  NodeId pick_rec(NodeId f, NodeId cube);

  [[nodiscard]] VarIndex var_of(NodeId id) const noexcept {
    return nodes_[id].var;
  }

  std::vector<Node> nodes_;
  std::vector<NodeId> buckets_;   // unique table heads; size is a power of 2
  std::size_t bucket_mask_ = 0;
  NodeId free_head_ = 0;
  std::size_t free_count_ = 0;
  bool has_free_ = false;

  std::vector<CacheEntry> cache_;
  std::size_t cache_mask_ = 0;
  /// Counter values at the start of the current growth window.
  std::uint64_t window_lookups_ = 0;
  std::uint64_t window_hits_ = 0;
  std::uint64_t window_evictions_ = 0;

  std::uint32_t num_vars_ = 0;
  std::vector<std::vector<VarIndex>> permutations_;

  std::size_t gc_threshold_;

  /// Capped structured logs (observability, not correctness): once full,
  /// further GC records only bump the dropped counter.
  static constexpr std::size_t kMaxGcRecords = 1024;
  std::vector<GcRecord> gc_log_;
  std::uint64_t gc_log_dropped_ = 0;

  std::unique_ptr<profile::Profiler> profiler_;

  mutable ManagerStats stats_;
};

}  // namespace lr::bdd

template <>
struct std::hash<lr::bdd::Bdd> {
  std::size_t operator()(const lr::bdd::Bdd& b) const noexcept {
    return std::hash<const void*>()(static_cast<const void*>(b.manager())) ^
           (static_cast<std::size_t>(b.id()) * 0x9e3779b97f4a7c15ull);
  }
};
