#pragma once

// Structural transfer of a BDD between managers.
//
// The intra-problem engine (symbolic/intra.*) gives each worker thread its
// own Manager with the main manager's variables (the order is fixed by
// variable index), so a function has the *same* node structure in both
// (BDDs are canonical). import_bdd copies that structure across: it walks the
// source manager read-only through Manager::node_view and rebuilds each
// node in the destination with one ITE on the node's variable, which
// reduces in a single recursion step to the corresponding make_node. Cost
// is O(nodes in the source function), one memo entry per node.
//
// Thread-safety contract: the source manager must be quiescent (no
// mutating operation, no handle copies/drops on it) for the whole call;
// several threads may then import from the same source concurrently, each
// into its own destination manager. The caller must keep the source root
// externally referenced (pinned) so GC cannot recycle its slot.

#include <unordered_map>

#include "bdd/bdd.hpp"

namespace lr::bdd {

/// Memo for repeated imports from one source manager into one destination:
/// maps source NodeId -> imported destination handle. The stored handles
/// keep the destination nodes alive, so entries stay valid across GCs on
/// the destination side. Invalidate (clear) whenever the *source* manager
/// may have garbage-collected, since source ids can then be recycled.
using ImportMemo = std::unordered_map<NodeId, Bdd>;

/// Copies the function rooted at `root` (a node of `src`) into `dst`,
/// returning the equivalent function there. Both managers must have the
/// same variable count. Because the order is fixed by variable index, the
/// imported function has identical node structure, which the intra engine
/// relies on for deterministic worker-side decisions.
Bdd import_bdd(const Manager& src, NodeId root, Manager& dst,
               ImportMemo& memo);

}  // namespace lr::bdd
