// NodePager: the node-to-page mapping layer.
#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/rng.h"
#include "src/rtree/bulk_load.h"
#include "src/rtree/knn.h"
#include "src/rtree/rstar_tree.h"
#include "src/storage/node_pager.h"

namespace senn::storage {
namespace {

rtree::RStarTree MakeTree(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<rtree::ObjectEntry> entries;
  entries.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    entries.push_back({{rng.Uniform(0, 1000), rng.Uniform(0, 1000)}, i});
  }
  rtree::RStarTree::Options options;
  options.max_entries = 8;
  options.min_entries = 3;
  return rtree::BulkLoad(std::move(entries), options);
}

void CollectPreorder(const rtree::RStarTree::Node* node,
                     std::vector<const rtree::RStarTree::Node*>* out) {
  out->push_back(node);
  if (node->IsLeaf()) return;
  for (const rtree::RStarTree::Slot& s : node->slots) CollectPreorder(s.child.get(), out);
}

TEST(NodePagerTest, PageIdsAreAPureFunctionOfTheTreeShape) {
  rtree::RStarTree tree = MakeTree(300, 1);
  NodePager a(&tree, BufferPoolOptions{});
  NodePager b(&tree, BufferPoolOptions{});

  std::vector<const rtree::RStarTree::Node*> nodes;
  CollectPreorder(tree.root(), &nodes);
  ASSERT_EQ(a.page_count(), nodes.size());
  ASSERT_EQ(b.page_count(), nodes.size());
  EXPECT_EQ(a.PageOf(tree.root()), PageId{0});
  for (const rtree::RStarTree::Node* node : nodes) {
    EXPECT_EQ(a.PageOf(node), b.PageOf(node));
    EXPECT_LT(a.PageOf(node), nodes.size());
  }
}

TEST(NodePagerTest, UnboundedPoolHitsOnSecondPass) {
  rtree::RStarTree tree = MakeTree(250, 3);
  NodePager pager(&tree, BufferPoolOptions{});
  std::vector<const rtree::RStarTree::Node*> nodes;
  CollectPreorder(tree.root(), &nodes);
  for (const rtree::RStarTree::Node* node : nodes) {
    EXPECT_TRUE(pager.Fetch(node));
    pager.Unpin(node);
  }
  for (const rtree::RStarTree::Node* node : nodes) {
    EXPECT_FALSE(pager.Fetch(node));
    pager.Unpin(node);
  }
  EXPECT_EQ(pager.pool().stats().misses, nodes.size());
  EXPECT_EQ(pager.pool().stats().hits, nodes.size());
  EXPECT_EQ(pager.pool().stats().evictions, 0u);
}

TEST(NodePagerTest, BoundedCapacityIsClampedToTwoFrames) {
  rtree::RStarTree tree = MakeTree(100, 4);
  BufferPoolOptions options;
  options.capacity_pages = 1;  // below the traversal floor
  NodePager pager(&tree, options);
  EXPECT_EQ(pager.pool().options().capacity_pages, 2u);
  // Unbounded stays unbounded.
  NodePager unbounded(&tree, BufferPoolOptions{});
  EXPECT_EQ(unbounded.pool().options().capacity_pages, 0u);
}

// Nodes a later Insert creates (splits, a new root) are paged first-touch:
// they take the next free ids, the construction-time ids stay put, and with
// an unbounded pool a fetch misses exactly on the pages not yet resident.
TEST(NodePagerTest, NodesAddedAfterConstructionGetFreshPageIds) {
  rtree::RStarTree tree = MakeTree(60, 6);
  NodePager pager(&tree, BufferPoolOptions{});
  std::vector<const rtree::RStarTree::Node*> before;
  CollectPreorder(tree.root(), &before);
  const size_t initial = pager.page_count();
  ASSERT_EQ(initial, before.size());
  std::unordered_map<const rtree::RStarTree::Node*, PageId> old_ids;
  for (const rtree::RStarTree::Node* node : before) {
    old_ids[node] = pager.PageOf(node);
    EXPECT_TRUE(pager.Fetch(node));
    pager.Unpin(node);
  }

  Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    tree.Insert({rng.Uniform(0, 1000), rng.Uniform(0, 1000)}, 1000 + i);
  }
  std::vector<const rtree::RStarTree::Node*> after;
  CollectPreorder(tree.root(), &after);
  ASSERT_GT(after.size(), before.size());

  std::unordered_set<PageId> seen;
  for (const rtree::RStarTree::Node* node : after) {
    const PageId id = pager.PageOf(node);
    EXPECT_TRUE(seen.insert(id).second) << "page " << id << " mapped twice";
    auto old = old_ids.find(node);
    if (old != old_ids.end()) {
      EXPECT_EQ(id, old->second);
    } else {
      EXPECT_GE(id, initial);
    }
    EXPECT_EQ(pager.Fetch(node), id >= initial) << "page " << id;
    pager.Unpin(node);
  }
  // Insert frees no node, so every new node got exactly one fresh id.
  EXPECT_EQ(pager.page_count(), initial + (after.size() - old_ids.size()));
  EXPECT_EQ(pager.pool().stats().evictions, 0u);
  EXPECT_EQ(pager.pool().pinned_pages(), 0u);
}

TEST(NodePagerTest, HookedKnnMatchesUnhookedAndOnlyMissesDiffer) {
  rtree::RStarTree tree = MakeTree(400, 5);
  NodePager pager(&tree, BufferPoolOptions{});
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    geom::Vec2 q{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    const int k = 1 + static_cast<int>(rng.NextIndex(10));
    rtree::AccessCounter plain, paged;
    std::vector<rtree::Neighbor> expected = rtree::BestFirstKnn(tree, q, k, {}, &plain);
    std::vector<rtree::Neighbor> got = rtree::BestFirstKnn(tree, q, k, {}, &paged, &pager);
    ASSERT_EQ(expected.size(), got.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i].object.id, got[i].object.id);
      EXPECT_EQ(expected[i].distance, got[i].distance);
    }
    // Identical logical counts; physical misses bounded by the logical.
    EXPECT_EQ(plain.total(), paged.total());
    EXPECT_EQ(plain.misses(), 0u);
    EXPECT_LE(paged.misses(), paged.total());
  }
  // The pool is unbounded: repeating a query touches only pages its first
  // execution faulted in, so the replay misses nothing.
  rtree::AccessCounter cold, warm;
  rtree::BestFirstKnn(tree, {500, 500}, 8, {}, &cold, &pager);
  rtree::BestFirstKnn(tree, {500, 500}, 8, {}, &warm, &pager);
  EXPECT_EQ(warm.total(), cold.total());
  EXPECT_EQ(warm.misses(), 0u);
  EXPECT_EQ(pager.pool().pinned_pages(), 0u);  // all traversal pins released
}

}  // namespace
}  // namespace senn::storage
