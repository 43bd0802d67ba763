// The node-to-page mapping layer: maps every R*-tree node onto one
// fixed-size storage page and routes traversal accesses through a
// BufferPool, turning the paper's "page accesses" metric (Figure 17 /
// Table 1) from a node counter into physical storage behavior — residency,
// pinning, eviction, warm vs. cold fetches.
//
// Page ids are assigned by preorder enumeration of the tree at
// construction (root = page 0), so the mapping is a pure function of the
// tree shape: two pagers over equal trees agree on every id, and a
// simulation with a bounded pool stays bit-reproducible. Nodes created by
// later tree mutations are registered lazily in first-touch order.
//
// A fetch reads nothing: the pool tracks which pages are resident, and a
// miss is the simulated disk read the paper's page count charges.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "src/rtree/rstar_tree.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/page.h"

namespace senn::storage {

class NodePager : public rtree::NodePageHook {
 public:
  /// Builds the page table for the tree's current shape. `tree` must
  /// outlive the pager, and a node of its max_entries must fit one page. A
  /// bounded capacity is clamped to >= 2: best-first enqueue accounting
  /// holds a parent pinned while transiently fetching a child, so two
  /// frames is the traversal floor.
  NodePager(const rtree::RStarTree* tree, BufferPoolOptions options);

  /// rtree::NodePageHook: fetch + pin the node's page; returns whether the
  /// fetch physically missed.
  bool Fetch(const rtree::RStarTree::Node* node) override;
  void Unpin(const rtree::RStarTree::Node* node) override;

  /// Page id of a node (assigning one first-touch if the tree grew since
  /// construction).
  PageId PageOf(const rtree::RStarTree::Node* node);
  /// Registered pages (== nodes seen so far).
  size_t page_count() const { return page_of_.size(); }

  BufferPool& pool() { return pool_; }
  const BufferPool& pool() const { return pool_; }

 private:
  void RegisterSubtree(const rtree::RStarTree::Node* node);

  BufferPool pool_;
  std::unordered_map<const rtree::RStarTree::Node*, PageId> page_of_;
};

}  // namespace senn::storage
