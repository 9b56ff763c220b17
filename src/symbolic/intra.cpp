#include "symbolic/intra.hpp"

#include <cassert>
#include <utility>
#include <vector>

#include "bdd/profile.hpp"
#include "support/log.hpp"
#include "support/trace.hpp"

namespace lr::sym {

namespace {

/// Worker managers start from the main manager's initial cache size and
/// grow it under their own pressure, like any manager (bdd.hpp): fixpoint
/// iterations only stay cheap when the operation cache holds their working
/// set from one iteration to the next. Each worker owns its cache, so a
/// grown engine costs up to kContexts × kMaxCacheEntries entries.
bdd::Manager::Options worker_manager_options() {
  bdd::Manager::Options options;
  options.initial_capacity = 1u << 16;
  return options;
}

/// Pin-set bound: past this many pinned roots the engine releases every
/// pin together with the worker import memos keyed on them.
constexpr std::size_t kMaxPins = 4096;

}  // namespace

IntraEngine::IntraEngine(bdd::Manager& main, std::size_t jobs,
                         std::vector<bdd::VarIndex> cur_bits,
                         std::vector<bdd::VarIndex> next_bits,
                         std::vector<bdd::VarIndex> swap_perm)
    : main_(main),
      jobs_(jobs),
      pool_(jobs),
      cur_bits_(std::move(cur_bits)),
      next_bits_(std::move(next_bits)),
      swap_perm_(std::move(swap_perm)) {
  assert(jobs >= 1 && "IntraEngine: at least one pool thread");
  const std::uint32_t nvars = main_.var_count();
  workers_.reserve(kContexts);
  for (std::size_t w = 0; w < kContexts; ++w) {
    auto worker = std::make_unique<Worker>(worker_manager_options());
    for (std::uint32_t v = 0; v < nvars; ++v) worker->mgr.new_var();
    worker->cube_cur = worker->mgr.make_cube(cur_bits_);
    worker->cube_next = worker->mgr.make_cube(next_bits_);
    worker->swap = worker->mgr.register_permutation(swap_perm_);
    workers_.push_back(std::move(worker));
  }
}

IntraEngine::~IntraEngine() {
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    const bdd::ManagerStats& st = workers_[w]->mgr.stats();
    LR_LOG(debug) << "[intra] worker " << w << ": gc_runs=" << st.gc_runs
                  << " live=" << st.live_nodes << " peak=" << st.peak_nodes
                  << " created=" << st.created_nodes
                  << " lookups=" << st.cache_lookups
                  << " hits=" << st.cache_hits
                  << " memo=" << workers_[w]->memo.size()
                  << " exp_memo=" << workers_[w]->export_memo.size();
  }
}

void IntraEngine::add_worker_counters(bdd::ManagerStats& stats) const {
  for (const auto& worker : workers_) {
    bdd::add_counters(stats, worker->mgr.stats());
  }
}

void IntraEngine::drop_pins() {
  pinned_.clear();
  split_cache_.clear();
  for (auto& worker : workers_) {
    worker->memo.clear();
    worker->export_memo.clear();
    worker->export_roots.clear();
  }
}

bdd::NodeId IntraEngine::pin(const bdd::Bdd& f) {
  pinned_.emplace(f.id(), f);
  return f.id();
}

void IntraEngine::run(const std::function<void(std::size_t, Worker&)>& fn) {
  // Workers charge their BDD work to the *full* span path that dispatched
  // them, so the profiler's call-path tree reads the same as in a
  // sequential run. Span names are string literals — safe to hand across
  // threads.
  const char* frames[bdd::profile::kMaxPathDepth];
  std::size_t depth = support::trace::current_span_path(
      frames, bdd::profile::kMaxPathDepth);
  if (depth > bdd::profile::kMaxPathDepth) {
    depth = bdd::profile::kMaxPathDepth;
  }
  const std::vector<const char*> parent_path(frames, frames + depth);
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    Worker* worker = workers_[w].get();
    pool_.submit([fn, w, worker, &parent_path] {
      try {
        support::trace::SpanPathScope path(parent_path);
        fn(w, *worker);
      } catch (...) {
        worker->error = std::current_exception();
      }
    });
  }
  pool_.wait_idle();
  if (bdd::profile::enabled()) {
    for (auto& worker : workers_) {
      main_.profiler().merge(worker->mgr.profiler());
      worker->mgr.profiler().clear();
    }
  }
  for (auto& worker : workers_) {
    if (worker->error != nullptr) {
      const std::exception_ptr error = std::exchange(worker->error, nullptr);
      for (auto& rest : workers_) rest->error = nullptr;
      std::rethrow_exception(error);
    }
  }
}

bdd::Bdd IntraEngine::import(std::size_t w, bdd::NodeId id) {
  Worker& worker = *workers_[w];
  return bdd::import_bdd(main_, id, worker.mgr, worker.memo);
}

bdd::Bdd IntraEngine::export_to_main(std::size_t w, const bdd::Bdd& f) {
  // The export memo persists across calls: successive fixpoint iterates
  // share most of their nodes, so re-exporting the whole function every
  // iteration would cost O(|f|) per call where O(|changed|) suffices.
  // Rooting `f` keeps every memoized worker id valid (see Worker).
  Worker& worker = *workers_[w];
  worker.export_roots.push_back(f);
  return bdd::import_bdd(worker.mgr, f.id(), main_, worker.export_memo);
}

bdd::Bdd IntraEngine::image(std::span<const bdd::Bdd> pieces,
                            const bdd::Bdd& from) {
  if (pinned_.size() > kMaxPins) drop_pins();
  std::vector<bdd::NodeId> piece_ids;
  piece_ids.reserve(pieces.size());
  for (const bdd::Bdd& piece : pieces) piece_ids.push_back(pin(piece));
  const bdd::NodeId from_id = pin(from);
  std::vector<bdd::Bdd> partials(contexts());
  run([&](std::size_t w, Worker& worker) {
    const bdd::Bdd operand = import(w, from_id);
    bdd::Bdd acc = worker.mgr.bdd_false();
    for (std::size_t i = w; i < piece_ids.size(); i += contexts()) {
      const bdd::Bdd piece = import(w, piece_ids[i]);
      acc |= worker.mgr.permute(
          worker.mgr.and_exists(piece, operand, worker.cube_cur),
          worker.swap);
    }
    partials[w] = std::move(acc);
  });
  // Deterministic reduction: worker order 0..J-1 (canonicity makes any
  // order yield the same BDD, but a fixed order keeps intermediate sizes
  // and profiler counters reproducible too).
  bdd::Bdd result = main_.bdd_false();
  for (std::size_t w = 0; w < partials.size(); ++w) {
    if (partials[w].valid() && !partials[w].is_false()) {
      result |= export_to_main(w, partials[w]);
    }
  }
  return result;
}

bdd::Bdd IntraEngine::preimage(std::span<const bdd::Bdd> pieces,
                               const bdd::Bdd& to_primed) {
  if (pinned_.size() > kMaxPins) drop_pins();
  std::vector<bdd::NodeId> piece_ids;
  piece_ids.reserve(pieces.size());
  for (const bdd::Bdd& piece : pieces) piece_ids.push_back(pin(piece));
  const bdd::NodeId to_id = pin(to_primed);
  std::vector<bdd::Bdd> partials(contexts());
  run([&](std::size_t w, Worker& worker) {
    const bdd::Bdd operand = import(w, to_id);
    bdd::Bdd acc = worker.mgr.bdd_false();
    for (std::size_t i = w; i < piece_ids.size(); i += contexts()) {
      const bdd::Bdd piece = import(w, piece_ids[i]);
      acc |= worker.mgr.and_exists(piece, operand, worker.cube_next);
    }
    partials[w] = std::move(acc);
  });
  bdd::Bdd result = main_.bdd_false();
  for (std::size_t w = 0; w < partials.size(); ++w) {
    if (partials[w].valid() && !partials[w].is_false()) {
      result |= export_to_main(w, partials[w]);
    }
  }
  return result;
}

namespace {

/// Pinned main-manager node ids of one scheduled piece (see ScheduledPiece).
struct PieceIds {
  bdd::NodeId a = bdd::kTrueId;
  bdd::NodeId b = bdd::kTrueId;
  bdd::NodeId local = bdd::kTrueId;
  bdd::NodeId absent = bdd::kTrueId;
  bool has_b = false;
};

}  // namespace

bdd::Bdd IntraEngine::image(std::span<const ScheduledPiece> pieces,
                            const bdd::Bdd& from) {
  if (pinned_.size() > kMaxPins) drop_pins();
  std::vector<PieceIds> ids;
  ids.reserve(pieces.size());
  for (const ScheduledPiece& piece : pieces) {
    PieceIds p;
    p.a = pin(piece.a);
    p.has_b = piece.b.valid();
    if (p.has_b) p.b = pin(piece.b);
    p.local = pin(piece.local_cube);
    p.absent = pin(piece.absent_cube);
    ids.push_back(p);
  }
  const bdd::NodeId from_id = pin(from);
  std::vector<bdd::Bdd> partials(contexts());
  run([&](std::size_t w, Worker& worker) {
    const bdd::Bdd operand = import(w, from_id);
    bdd::Bdd acc = worker.mgr.bdd_false();
    for (std::size_t i = w; i < ids.size(); i += contexts()) {
      const bdd::Bdd a = import(w, ids[i].a);
      const bdd::Bdd local = import(w, ids[i].local);
      bdd::Bdd piece_operand = operand;
      if (ids[i].absent != bdd::kTrueId) {
        piece_operand = worker.mgr.exists(operand, import(w, ids[i].absent));
      }
      const bdd::Bdd quantified =
          ids[i].has_b ? worker.mgr.and_exists(a, import(w, ids[i].b),
                                               piece_operand, local)
                       : worker.mgr.and_exists(a, piece_operand, local);
      acc |= worker.mgr.permute(quantified, worker.swap);
    }
    partials[w] = std::move(acc);
  });
  bdd::Bdd result = main_.bdd_false();
  for (std::size_t w = 0; w < partials.size(); ++w) {
    if (partials[w].valid() && !partials[w].is_false()) {
      result |= export_to_main(w, partials[w]);
    }
  }
  return result;
}

bdd::Bdd IntraEngine::preimage(std::span<const ScheduledPiece> pieces,
                               const bdd::Bdd& to_primed) {
  if (pinned_.size() > kMaxPins) drop_pins();
  std::vector<PieceIds> ids;
  ids.reserve(pieces.size());
  for (const ScheduledPiece& piece : pieces) {
    PieceIds p;
    p.a = pin(piece.a);
    p.has_b = piece.b.valid();
    if (p.has_b) p.b = pin(piece.b);
    p.local = pin(piece.local_cube);
    p.absent = pin(piece.absent_cube);
    ids.push_back(p);
  }
  const bdd::NodeId to_id = pin(to_primed);
  std::vector<bdd::Bdd> partials(contexts());
  run([&](std::size_t w, Worker& worker) {
    const bdd::Bdd operand = import(w, to_id);
    bdd::Bdd acc = worker.mgr.bdd_false();
    for (std::size_t i = w; i < ids.size(); i += contexts()) {
      const bdd::Bdd a = import(w, ids[i].a);
      const bdd::Bdd local = import(w, ids[i].local);
      bdd::Bdd piece_operand = operand;
      if (ids[i].absent != bdd::kTrueId) {
        piece_operand = worker.mgr.exists(operand, import(w, ids[i].absent));
      }
      acc |= ids[i].has_b ? worker.mgr.and_exists(a, import(w, ids[i].b),
                                                  piece_operand, local)
                          : worker.mgr.and_exists(a, piece_operand, local);
    }
    partials[w] = std::move(acc);
  });
  bdd::Bdd result = main_.bdd_false();
  for (std::size_t w = 0; w < partials.size(); ++w) {
    if (partials[w].valid() && !partials[w].is_false()) {
      result |= export_to_main(w, partials[w]);
    }
  }
  return result;
}

const std::vector<bdd::Bdd>& IntraEngine::split_relation(const bdd::Bdd& rel,
                                                         std::size_t k) {
  if (pinned_.size() > kMaxPins) drop_pins();
  pin(rel);
  auto it = split_cache_.find(rel.id());
  if (it != split_cache_.end()) return it->second;

  std::vector<bdd::Bdd> pieces{rel};
  if (k >= 2) {
    std::vector<std::size_t> sizes{rel.node_count()};
    while (pieces.size() < k) {
      // Largest piece first; ties break to the lowest index so the split
      // sequence (and the resulting partition) is deterministic.
      std::size_t best = pieces.size();
      for (std::size_t i = 0; i < pieces.size(); ++i) {
        if (sizes[i] >= kSplitThreshold &&
            (best == pieces.size() || sizes[i] > sizes[best])) {
          best = i;
        }
      }
      if (best == pieces.size()) break;  // everything is small already
      const bdd::Bdd piece = pieces[best];
      const bdd::VarIndex v = main_.node_view(piece.id()).var;
      const bdd::Bdd lo = main_.bdd_nvar(v) & main_.cofactor(piece, v, false);
      const bdd::Bdd hi = main_.bdd_var(v) & main_.cofactor(piece, v, true);
      // Shannon split: piece = (¬v ∧ piece|v=0) ∨ (v ∧ piece|v=1), disjoint.
      pieces[best] = lo;
      sizes[best] = lo.node_count();
      pieces.insert(pieces.begin() + static_cast<std::ptrdiff_t>(best) + 1,
                    hi);
      sizes.insert(sizes.begin() + static_cast<std::ptrdiff_t>(best) + 1,
                   hi.node_count());
    }
    // Empty cofactors contribute nothing; drop them (deterministically).
    std::vector<bdd::Bdd> kept;
    kept.reserve(pieces.size());
    for (const bdd::Bdd& piece : pieces) {
      if (!piece.is_false()) kept.push_back(piece);
    }
    if (kept.empty()) kept.push_back(main_.bdd_false());
    pieces = std::move(kept);
  }
  return split_cache_.emplace(rel.id(), std::move(pieces)).first->second;
}

}  // namespace lr::sym
