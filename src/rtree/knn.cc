#include "src/rtree/knn.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/rank.h"

namespace senn::rtree {

using geom::Vec2;

namespace {

/// The system (distance, id) rank order over search hits.
bool ByRank(const Neighbor& a, const Neighbor& b) {
  return senn::RanksBefore(a.distance, a.object.id, b.distance, b.object.id);
}

// Recursive depth-first branch-and-bound. `heap` holds the current best k
// distances as a max-heap; prune subtrees whose MINDIST exceeds the current
// k-th distance.
void DfVisit(const RStarTree::Node* node, Vec2 query, int k,
             std::vector<Neighbor>* best, AccessCounter* counter, NodePageHook* hook) {
  const bool pinned = ChargeNodeAccess(node, counter, hook);
  auto worst_distance = [&]() {
    return static_cast<int>(best->size()) < k
               ? std::numeric_limits<double>::infinity()
               : best->front().distance;
  };
  // `best` is a max-heap under ByRank: the front is the worst of the best k,
  // and co-distant objects keep the smaller ids.
  auto beats_worst = [&](double d, int64_t id) {
    return static_cast<int>(best->size()) < k ||
           senn::RanksBefore(d, id, best->front().distance, best->front().object.id);
  };
  if (node->IsLeaf()) {
    for (const RStarTree::Slot& s : node->slots) {
      double d = geom::Dist(query, s.object.position);
      if (!beats_worst(d, s.object.id)) continue;
      if (static_cast<int>(best->size()) == k) {
        std::pop_heap(best->begin(), best->end(), ByRank);
        best->pop_back();
      }
      best->push_back({s.object, d});
      std::push_heap(best->begin(), best->end(), ByRank);
    }
    if (pinned) hook->Unpin(node);
    return;
  }
  // Visit children in MINDIST order (the classic heuristic) and prune with
  // the running k-th distance.
  std::vector<std::pair<double, const RStarTree::Node*>> children;
  children.reserve(node->slots.size());
  for (const RStarTree::Slot& s : node->slots) {
    children.emplace_back(s.mbr.MinDist(query), s.child.get());
  }
  // The node's slots are fully read into `children`; unpin before recursing
  // so the depth-first path never holds more than one page pinned.
  if (pinned) hook->Unpin(node);
  std::sort(children.begin(), children.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [mindist, child] : children) {
    // Strict >: a child whose MINDIST ties the current k-th distance can
    // still hold a co-distant object with a smaller id that outranks it.
    if (mindist > worst_distance()) break;  // sorted: the rest are no better
    DfVisit(child, query, k, best, counter, hook);
  }
}

/// True when the object at distance `d` lies in the client's certain disk
/// and is therefore already known to it. On the disk's boundary the client
/// holds only the ids up to its rank cut — a co-distant object past the cut
/// was tie-broken out of the client's certain prefix and must be reported
/// like any other candidate.
bool KnownToClient(const PruneBounds& bounds, double d, int64_t id) {
  return bounds.lower.has_value() &&
         (d < *bounds.lower ||
          // senn-lint: allow(L5-float-eq): bit-exact boundary tie — the
          // client's lower bound is the cached radius from the same Dist()
          // chain, and the id cut keeps co-distant tie-losers reportable.
          (d == *bounds.lower && id <= bounds.lower_id_cut));
}

/// Downward pruning: an MBR fully inside the certain disk C_r holds only
/// objects the client has already verified.
bool InsideCertainDisk(const PruneBounds& bounds, const geom::Mbr& mbr, Vec2 q) {
  return bounds.lower.has_value() && mbr.MaxDist(q) < *bounds.lower;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Releases a scratch vector grown past 64Ki entries, so one request with a
/// huge k does not pin its memory for the owner's lifetime.
template <typename T>
void ReleaseIfLarge(std::vector<T>* scratch) {
  if (scratch->capacity() > (size_t{1} << 16)) std::vector<T>().swap(*scratch);
}

}  // namespace

std::vector<Neighbor> DepthFirstKnn(const RStarTree& tree, Vec2 query, int k,
                                    AccessCounter* counter, NodePageHook* hook) {
  std::vector<Neighbor> best;  // max-heap by distance
  if (k <= 0) return best;
  best.reserve(static_cast<size_t>(k));
  DfVisit(tree.root(), query, k, &best, counter, hook);
  std::sort(best.begin(), best.end(), ByRank);
  return best;
}

BestFirstNnIterator::BestFirstNnIterator(const RStarTree& tree, Vec2 query,
                                         PruneBounds bounds, AccessCountMode count_mode,
                                         std::optional<int> prune_to_k, NodePageHook* hook)
    : query_(query),
      bounds_(bounds),
      count_mode_(count_mode),
      prune_to_k_(prune_to_k),
      hook_(hook) {
  // The root page is always fetched (in both accounting modes).
  const bool pinned = ChargeNodeAccess(tree.root(), &accesses_, hook_);
  ExpandNode(tree.root());
  if (pinned) hook_->Unpin(tree.root());
}

void BestFirstNnIterator::FeedDynamicBound(double distance) {
  // prune_to_k <= 0 declares no interest in any object; the degenerate bag
  // stays empty (top() on it would be UB) and the static bounds do all
  // pruning.
  if (!prune_to_k_.has_value() || *prune_to_k_ <= 0) return;
  if (static_cast<int>(best_distances_.size()) < *prune_to_k_) {
    best_distances_.push(distance);
  } else if (distance < best_distances_.top()) {
    best_distances_.pop();
    best_distances_.push(distance);
  }
}

double BestFirstNnIterator::EffectiveUpper() const {
  double upper = bounds_.upper.value_or(std::numeric_limits<double>::infinity());
  if (prune_to_k_.has_value() && *prune_to_k_ > 0 &&
      static_cast<int>(best_distances_.size()) >= *prune_to_k_) {
    upper = std::min(upper, best_distances_.top());
  }
  return upper;
}

void BestFirstNnIterator::ExpandNode(const RStarTree::Node* node) {
  // Accesses are charged by the caller: the constructor for the root, and
  // Next() (kOnExpand) or the enqueue site below (kOnEnqueue) otherwise, so
  // the page stays pinned exactly while the slots are read here.
  for (const RStarTree::Slot& s : node->slots) {
    if (node->IsLeaf()) {
      double d = geom::Dist(query_, s.object.position);
      // Objects inside the certain disk still witness the dynamic top-k
      // bound.
      if (KnownToClient(bounds_, d, s.object.id)) {
        FeedDynamicBound(d);
        continue;
      }
      if (d > EffectiveUpper()) continue;
      FeedDynamicBound(d);
      queue_.push({d, nullptr, s.object});
    } else {
      double mindist = s.mbr.MinDist(query_);
      // Upward pruning: the true kNN all lie within the upper bound (the
      // shipped client bound and/or the running k-th-best distance).
      if (mindist > EffectiveUpper()) continue;
      if (InsideCertainDisk(bounds_, s.mbr, query_)) continue;
      if (count_mode_ == AccessCountMode::kOnEnqueue) {
        // Enqueue accounting fetches the child page as it enters the queue;
        // the pin is transient (expansion later reads the queued copy).
        if (ChargeNodeAccess(s.child.get(), &accesses_, hook_)) {
          hook_->Unpin(s.child.get());
        }
      }
      queue_.push({mindist, s.child.get(), ObjectEntry{}, node_seq_++});
    }
  }
}

std::optional<Neighbor> BestFirstNnIterator::Next() {
  while (!queue_.empty()) {
    QueueItem item = queue_.top();
    queue_.pop();
    if (item.node == nullptr) return Neighbor{item.object, item.key};
    // Only non-root nodes reach the queue, so charging every expansion here
    // matches the historical "root at init, others on expand" counting.
    bool pinned = false;
    if (count_mode_ == AccessCountMode::kOnExpand) {
      pinned = ChargeNodeAccess(item.node, &accesses_, hook_);
    }
    ExpandNode(item.node);
    if (pinned) hook_->Unpin(item.node);
  }
  return std::nullopt;
}

std::vector<Neighbor> BestFirstKnn(const RStarTree& tree, Vec2 query, int k,
                                   PruneBounds bounds, AccessCounter* counter,
                                   NodePageHook* hook) {
  std::vector<Neighbor> out;
  if (k <= 0) return out;
  BestFirstNnIterator it(tree, query, bounds, AccessCountMode::kOnExpand, std::nullopt,
                         hook);
  out.reserve(static_cast<size_t>(k));
  while (static_cast<int>(out.size()) < k) {
    std::optional<Neighbor> n = it.Next();
    if (!n.has_value()) break;
    out.push_back(*n);
  }
  if (counter != nullptr) *counter += it.accesses();
  return out;
}

void SharedKnnTraversal::Run(const RStarTree& tree, std::span<const KnnQuery> queries,
                             AccessCountMode mode, NodePageHook* hook, AccessCounter* group) {
  mode_ = mode;
  hook_ = hook;
  group_ = group;
  m_ = static_cast<uint32_t>(queries.size());
  push_seq_ = 0;
  ReleaseIfLarge(&queue_);
  ReleaseIfLarge(&wanted_);
  queue_.clear();
  wanted_.clear();
  if (state_.size() < m_) state_.resize(m_);
  for (uint32_t j = 0; j < m_; ++j) {
    QueryState& p = state_[j];
    p.in = &queries[j];
    ReleaseIfLarge(&p.best);
    ReleaseIfLarge(&p.cand);
    p.best.clear();
    p.cand.clear();
    p.accesses.Reset();
  }
  if (m_ == 0) return;

  // The root is always fetched, in both accounting modes, for every query.
  live_.resize(m_);
  for (uint32_t j = 0; j < m_; ++j) live_[j] = j;
  const bool root_pinned = Charge(tree.root(), 0, m_);
  Expand(tree.root());
  if (root_pinned) hook_->Unpin(tree.root());

  while (!queue_.empty()) {
    // Keys pop in nondecreasing order, every wanting query's MINDIST is at
    // least the key, and reach only shrinks: once the smallest key is beyond
    // every query's reach, every remaining pop would be a skip.
    double max_reach = -kInf;
    for (uint32_t j = 0; j < m_; ++j) max_reach = std::max(max_reach, Reach(state_[j]));
    if (queue_.front().key > max_reach) break;
    std::pop_heap(queue_.begin(), queue_.end(), NodeAfter);
    const NodeItem item = queue_.back();
    queue_.pop_back();
    // Pop-time re-check of the pushing queries' reach (downward pruning is
    // static, settled at push). A node no pushing query still wants is
    // skipped — without a fetch in expand accounting (enqueue accounting
    // charged it already, as the iterator charges queued nodes it never
    // expands). A lone query's key is its own MINDIST, checked just above.
    live_.clear();
    for (uint32_t w = item.wanted_begin; w < item.wanted_begin + item.wanted_len; ++w) {
      const uint32_t j = wanted_[w];
      const QueryState& p = state_[j];
      if (m_ == 1 || item.slot->mbr.MinDist(p.in->q) <= Reach(p)) live_.push_back(j);
    }
    if (live_.empty()) continue;
    const RStarTree::Node* node = item.slot->child.get();
    const bool pinned = mode_ == AccessCountMode::kOnExpand &&
                        Charge(node, live_.front(), static_cast<uint32_t>(live_.size()));
    Expand(node);
    if (pinned) hook_->Unpin(node);
  }

  for (uint32_t j = 0; j < m_; ++j) {
    std::sort(state_[j].cand.begin(), state_[j].cand.end(), ByRank);
  }
}

double SharedKnnTraversal::Upper(const QueryState& p) {
  double upper = p.in->bounds.upper.value_or(kInf);
  if (p.in->k > 0 && static_cast<int>(p.best.size()) >= p.in->k) {
    upper = std::min(upper, p.best.front());
  }
  return upper;
}

double SharedKnnTraversal::Reach(const QueryState& p) {
  if (p.in->needed <= 0) return -kInf;
  double reach = Upper(p);
  // MINDIST == the worst candidate's distance is within reach: the node may
  // hold a co-distant object with a smaller id.
  if (static_cast<int>(p.cand.size()) >= p.in->needed) {
    reach = std::min(reach, p.cand.front().distance);
  }
  return reach;
}

bool SharedKnnTraversal::Charge(const RStarTree::Node* node, uint32_t owner,
                                uint32_t fetching) {
  return ChargeBatchNodeAccess(node, &state_[owner].accesses, group_, fetching >= 2, hook_);
}

void SharedKnnTraversal::Expand(const RStarTree::Node* node) {
  if (node->IsLeaf()) {
    ScanLeaf(node);
    return;
  }
  // No object is read while an index node expands: bounds stay put.
  for (uint32_t j : live_) {
    QueryState& p = state_[j];
    p.upper = Upper(p);
    p.reach = Reach(p);
  }
  for (const RStarTree::Slot& s : node->slots) {
    NodeItem item;
    item.slot = &s;
    item.wanted_begin = static_cast<uint32_t>(wanted_.size());
    item.key = kInf;
    uint32_t fetching = 0;
    uint32_t first_fetching = 0;
    for (uint32_t j : live_) {
      const QueryState& p = state_[j];
      const double mindist = s.mbr.MinDist(p.in->q);
      if (mindist > p.upper || InsideCertainDisk(p.in->bounds, s.mbr, p.in->q)) continue;
      if (fetching++ == 0) first_fetching = j;
      if (mindist > p.reach) continue;
      wanted_.push_back(j);
      item.key = std::min(item.key, mindist);
    }
    if (mode_ == AccessCountMode::kOnEnqueue && fetching > 0) {
      // Enqueue accounting fetches the child as it enters the queue; the pin
      // is transient (expansion reads the queued copy).
      if (Charge(s.child.get(), first_fetching, fetching)) hook_->Unpin(s.child.get());
    }
    item.wanted_len = static_cast<uint32_t>(wanted_.size()) - item.wanted_begin;
    if (item.wanted_len == 0) continue;
    item.seq = push_seq_++;
    queue_.push_back(item);
    std::push_heap(queue_.begin(), queue_.end(), NodeAfter);
  }
}

void SharedKnnTraversal::ScanLeaf(const RStarTree::Node* leaf) {
  for (uint32_t j : live_) {
    QueryState& p = state_[j];
    const KnnQuery& in = *p.in;
    for (const RStarTree::Slot& s : leaf->slots) {
      const double d = geom::Dist(in.q, s.object.position);
      // Objects the client already knows feed the dynamic bound but are
      // never reported.
      if (KnownToClient(in.bounds, d, s.object.id)) {
        Feed(&p, d);
        continue;
      }
      if (d > Upper(p)) continue;
      Feed(&p, d);
      if (in.needed <= 0) continue;
      if (static_cast<int>(p.cand.size()) < in.needed) {
        p.cand.push_back({s.object, d});
        std::push_heap(p.cand.begin(), p.cand.end(), ByRank);
      } else if (senn::RanksBefore(d, s.object.id, p.cand.front().distance,
                                   p.cand.front().object.id)) {
        std::pop_heap(p.cand.begin(), p.cand.end(), ByRank);
        p.cand.back() = {s.object, d};
        std::push_heap(p.cand.begin(), p.cand.end(), ByRank);
      }
    }
  }
}

void SharedKnnTraversal::Feed(QueryState* p, double d) {
  // k <= 0 declares no interest in any object: no bound to maintain.
  if (p->in->k <= 0) return;
  if (static_cast<int>(p->best.size()) < p->in->k) {
    p->best.push_back(d);
    std::push_heap(p->best.begin(), p->best.end());
  } else if (d < p->best.front()) {
    std::pop_heap(p->best.begin(), p->best.end());
    p->best.back() = d;
    std::push_heap(p->best.begin(), p->best.end());
  }
}

bool SharedKnnTraversal::NodeAfter(const NodeItem& a, const NodeItem& b) {
  // senn-lint: allow(L5-float-eq): strict-weak-order tie detection — both
  // keys come from the same MinDist code path, so equal means bit-identical,
  // and exact ties must fall through to the FIFO rule.
  if (a.key != b.key) return a.key > b.key;
  return a.seq > b.seq;
}

}  // namespace senn::rtree
