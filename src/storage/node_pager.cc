#include "src/storage/node_pager.h"

#include <cassert>

namespace senn::storage {

namespace {

// On-disk size of one node: a header (level, slot count) plus per-slot
// records of MBR (4 doubles) + the larger slot body (leaf object: int64 id
// + 2 doubles).
constexpr size_t kHeaderBytes = sizeof(uint32_t) * 2;
constexpr size_t kSlotBytes = sizeof(double) * 4 + sizeof(int64_t) + sizeof(double) * 2;

}  // namespace

NodePager::NodePager(const rtree::RStarTree* tree, BufferPoolOptions options)
    : pool_([&] {
        if (options.capacity_pages > 0 && options.capacity_pages < 2) {
          options.capacity_pages = 2;
        }
        return options;
      }()) {
  assert(kHeaderBytes + static_cast<size_t>(tree->options().max_entries) * kSlotBytes <=
             kPageSizeBytes &&
         "node fan-out exceeds the fixed page size");
  RegisterSubtree(tree->root());
}

void NodePager::RegisterSubtree(const rtree::RStarTree::Node* node) {
  page_of_.emplace(node, static_cast<PageId>(page_of_.size()));
  if (node->IsLeaf()) return;
  for (const rtree::RStarTree::Slot& slot : node->slots) {
    RegisterSubtree(slot.child.get());
  }
}

PageId NodePager::PageOf(const rtree::RStarTree::Node* node) {
  // try_emplace, not emplace: emplace builds (allocates) a map node before
  // it finds the key, and this lookup runs on every fetch and unpin.
  auto [it, inserted] = page_of_.try_emplace(node, static_cast<PageId>(page_of_.size()));
  return it->second;
}

bool NodePager::Fetch(const rtree::RStarTree::Node* node) {
  const PageId id = PageOf(node);
  const BufferPool::FetchResult result = pool_.Fetch(id);
  if (result.exhausted) {
    // Every frame pinned — unreachable through the tree traversals (at most
    // two concurrent pins vs. the clamped minimum capacity of two), but a
    // hostile caller gets a degraded answer, not UB: treat the access as an
    // unbuffered physical read. Unpin() below tolerates the missing pin.
    assert(false && "buffer pool exhausted by pins");
    return true;
  }
  return result.miss;
}

void NodePager::Unpin(const rtree::RStarTree::Node* node) {
  const PageId id = PageOf(node);
  if (pool_.PinCount(id) > 0) pool_.Unpin(id);
}

}  // namespace senn::storage
