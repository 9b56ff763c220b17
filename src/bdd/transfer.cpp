#include "bdd/transfer.hpp"

#include <cassert>

namespace lr::bdd {

namespace {

Bdd import_rec(const Manager& src, NodeId id, Manager& dst,
               ImportMemo& memo) {
  if (id == kFalseId) return dst.bdd_false();
  if (id == kTrueId) return dst.bdd_true();
  const auto it = memo.find(id);
  if (it != memo.end()) return it->second;
  const Manager::NodeView n = src.node_view(id);
  assert(n.var != kTerminalVar && "import_bdd: dangling source id");
  const Bdd lo = import_rec(src, n.lo, dst, memo);
  const Bdd hi = import_rec(src, n.hi, dst, memo);
  // ite(v, hi, lo) recurses exactly once, since v sits above both
  // cofactors' supports in every manager, landing on make_node(v, lo, hi) —
  // an O(1) amortized rebuild.
  const Bdd out = dst.apply_ite(dst.bdd_var(n.var), hi, lo);
  memo.emplace(id, out);
  return out;
}

}  // namespace

Bdd import_bdd(const Manager& src, NodeId root, Manager& dst,
               ImportMemo& memo) {
  return import_rec(src, root, dst, memo);
}

}  // namespace lr::bdd
