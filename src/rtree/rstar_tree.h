// R*-tree over 2-D point objects (Beckmann, Kriegel, Schneider, Seeger,
// SIGMOD 1990) — the index the paper's spatial database server uses for the
// POI data set ("Spatial data indexing is provided with the well known
// R*-tree algorithm", branching factor 30 for index and leaf nodes).
//
// The implementation is complete: ChooseSubtree with overlap minimization at
// the leaf level, forced reinsertion (30%) on first overflow per level, and
// the R* topological split (margin-driven axis choice, overlap-minimal
// distribution), plus deletion with tree condensation. Node accesses are
// observable through AccessCounter so the kNN algorithms can report the
// page-access metric the paper evaluates (Figure 17).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/geom/circle.h"
#include "src/geom/mbr.h"
#include "src/geom/vec2.h"

namespace senn::rtree {

/// A stored point object: position plus caller-supplied identifier.
struct ObjectEntry {
  geom::Vec2 position;
  int64_t id = -1;
};

/// Node (page) access counts, split by node kind. The paper's PAR metric
/// counts R*-tree node accesses as the predictor of I/O cost.
///
/// `index_nodes`/`leaf_nodes` are LOGICAL accesses (every charged node
/// visit); `index_misses`/`leaf_misses` are the PHYSICAL subset — buffer-
/// pool misses — which stays zero unless the traversal ran through a paged
/// storage engine (src/storage/node_pager.h). Logical counts never depend
/// on the pool, so pre-storage goldens pin them byte-for-byte.
struct AccessCounter {
  uint64_t index_nodes = 0;
  uint64_t leaf_nodes = 0;
  uint64_t index_misses = 0;
  uint64_t leaf_misses = 0;
  /// Shared-traversal attribution split (rtree::SharedKnnTraversal): of
  /// the physical misses, how many pages were read by two or more queries
  /// of the answering group (`shared_misses`) versus exactly one
  /// (`private_misses`). Charged only into a group counter by
  /// ChargeBatchNodeAccess, so both stay zero on every per-query counter and
  /// shared_misses + private_misses == misses() on a group counter.
  uint64_t shared_misses = 0;
  uint64_t private_misses = 0;

  bool operator==(const AccessCounter&) const = default;

  uint64_t total() const { return index_nodes + leaf_nodes; }
  uint64_t misses() const { return index_misses + leaf_misses; }
  uint64_t hits() const { return total() - misses(); }
  void Reset() { *this = AccessCounter{}; }
  AccessCounter& operator+=(const AccessCounter& o) {
    index_nodes += o.index_nodes;
    leaf_nodes += o.leaf_nodes;
    index_misses += o.index_misses;
    leaf_misses += o.leaf_misses;
    shared_misses += o.shared_misses;
    private_misses += o.private_misses;
    return *this;
  }
};

class NodePageHook;  // defined below (needs RStarTree::Node)

/// An R*-tree storing point objects.
class RStarTree {
 public:
  struct Options {
    /// Maximum entries per node (branching factor M). The paper sets 30.
    int max_entries = 30;
    /// Minimum entries per node (m). R* recommends 40% of M.
    int min_entries = 12;
    /// Fraction of entries removed by forced reinsertion (R* recommends 30%).
    double reinsert_fraction = 0.3;
  };

  /// A tree node. Exposed (read-only) so the kNN algorithms in knn.h can
  /// traverse without friend access; mutation is private to RStarTree.
  struct Node;
  /// One slot of a node: an MBR plus either a child node (index levels) or a
  /// stored object (leaf level).
  struct Slot {
    geom::Mbr mbr;
    std::unique_ptr<Node> child;  // null at leaf level
    ObjectEntry object;           // valid at leaf level only
  };
  struct Node {
    int level = 0;  // 0 = leaf
    Node* parent = nullptr;
    std::vector<Slot> slots;

    bool IsLeaf() const { return level == 0; }
  };

  /// Constructs a tree with default options (branching factor 30).
  RStarTree();
  explicit RStarTree(Options options);
  ~RStarTree();
  RStarTree(RStarTree&&) noexcept;
  RStarTree& operator=(RStarTree&&) noexcept;
  RStarTree(const RStarTree&) = delete;
  RStarTree& operator=(const RStarTree&) = delete;

  /// Inserts one point object. Duplicate positions/ids are allowed (the tree
  /// does not enforce uniqueness).
  void Insert(geom::Vec2 position, int64_t id);

  /// Removes the object with the given position and id.
  /// Returns NotFound if no exact match exists.
  Status Remove(geom::Vec2 position, int64_t id);

  /// Number of stored objects.
  size_t size() const { return size_; }
  /// Height of the tree (root level + 1). A fresh tree has one empty leaf,
  /// so height is at least 1.
  int height() const { return root_->level + 1; }
  /// MBR of all stored objects (empty rect when the tree is empty).
  geom::Mbr bounds() const { return NodeMbr(*root_); }
  const Options& options() const { return options_; }

  /// Root node for read-only traversal by search algorithms.
  const Node* root() const { return root_.get(); }

  /// Appends all objects whose position lies in `box` to `out`. Counts node
  /// accesses into `counter` when provided; routes them through `hook` (the
  /// storage engine) when attached.
  void RangeQuery(const geom::Mbr& box, std::vector<ObjectEntry>* out,
                  AccessCounter* counter = nullptr, NodePageHook* hook = nullptr) const;

  /// Appends all objects within the closed disk to `out`.
  void CircleQuery(const geom::Circle& circle, std::vector<ObjectEntry>* out,
                   AccessCounter* counter = nullptr, NodePageHook* hook = nullptr) const;

  /// Structural validation for tests: MBR containment, fan-out limits, leaf
  /// depth uniformity, object count. Returns the first violation found.
  Status CheckInvariants() const;

  /// Recomputes a node's MBR from its slots (exposed for tests/algorithms).
  static geom::Mbr NodeMbr(const Node& node);

 private:
  // STR bulk loading constructs node structures directly (rtree/bulk_load.h).
  friend RStarTree BulkLoad(std::vector<ObjectEntry> objects, Options options);

  Node* ChooseSubtree(const geom::Mbr& mbr, int target_level);
  void InsertSlot(Slot slot, int level, std::vector<bool>* reinserted_by_level);
  void OverflowTreatment(Node* node, std::vector<bool>* reinserted_by_level);
  void ForcedReinsert(Node* node, std::vector<bool>* reinserted_by_level);
  void SplitNode(Node* node, std::vector<bool>* reinserted_by_level);
  void RefreshMbrsUpward(Node* node);
  Slot* FindSlotInParent(Node* child);
  void CondenseAfterRemove(Node* leaf);
  void ReinsertSubtree(Slot slot, int level);

  Options options_;
  std::unique_ptr<Node> root_;
  size_t size_ = 0;
};

/// Storage-engine hook for tree traversals. When attached, every charged
/// node access additionally fetches the node's backing page, so a buffer
/// pool (src/storage/) can model residency, eviction, and physical I/O
/// under the logical access stream. Implementations must be deterministic
/// functions of the fetch/unpin sequence.
class NodePageHook {
 public:
  virtual ~NodePageHook() = default;
  /// Fetches and pins the page backing `node`; returns true when the fetch
  /// was a physical miss (the page was not resident). Every Fetch is paired
  /// with exactly one Unpin after the node's slots have been read.
  virtual bool Fetch(const RStarTree::Node* node) = 0;
  virtual void Unpin(const RStarTree::Node* node) = 0;
};

/// Charges one logical access for `node` into `counter` (split by node
/// kind) and, when `hook` is attached, fetches the backing page and records
/// the physical miss alongside. Returns true when the hook pinned a page —
/// the caller must call `hook->Unpin(node)` once it is done reading the
/// node's slots. Either pointer may be null.
inline bool ChargeNodeAccess(const RStarTree::Node* node, AccessCounter* counter,
                             NodePageHook* hook) {
  const bool miss = hook != nullptr && hook->Fetch(node);
  if (counter != nullptr) {
    if (node->IsLeaf()) {
      counter->leaf_nodes += 1;
      if (miss) counter->leaf_misses += 1;
    } else {
      counter->index_nodes += 1;
      if (miss) counter->index_misses += 1;
    }
  }
  return hook != nullptr;
}

/// Multi-query companion of ChargeNodeAccess for shared traversals
/// (rtree::SharedKnnTraversal): the node is fetched ONCE for the whole
/// group — one logical access, at most one physical miss — no matter how
/// many queries read its slots, which is what closes the double-charge
/// hazard of running N per-query traversals over the same pages. The access
/// is billed to `owner` (the per-query counter) and mirrored into `group`
/// (the shared-traversal total); only the group counter classifies a miss
/// as shared (`shared` true: two or more queries read the node) or private,
/// so a per-query counter looks exactly like a single-query traversal's.
/// Returns true when the hook pinned a page — the caller owes one
/// hook->Unpin(node) after reading the slots. Any pointer may be null.
inline bool ChargeBatchNodeAccess(const RStarTree::Node* node, AccessCounter* owner,
                                  AccessCounter* group, bool shared, NodePageHook* hook) {
  const bool miss = hook != nullptr && hook->Fetch(node);
  for (AccessCounter* counter : {owner, group}) {
    if (counter == nullptr) continue;
    if (node->IsLeaf()) {
      counter->leaf_nodes += 1;
      if (miss) counter->leaf_misses += 1;
    } else {
      counter->index_nodes += 1;
      if (miss) counter->index_misses += 1;
    }
  }
  if (miss && group != nullptr) {
    if (shared) {
      group->shared_misses += 1;
    } else {
      group->private_misses += 1;
    }
  }
  return hook != nullptr;
}

}  // namespace senn::rtree
