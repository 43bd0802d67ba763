// Nearest-neighbor search algorithms over the R*-tree.
//
//  * DepthFirstKnn    — branch-and-bound kNN (Roussopoulos, Kelley, Vincent,
//                       SIGMOD 1995); the single-step baseline.
//  * BestFirstNnIterator — the optimal incremental NN algorithm (INN) of
//                       Hjaltason & Samet (TODS 1999): a priority queue of
//                       nodes/objects ordered by MINDIST, reporting neighbors
//                       in ascending distance without a-priori k.
//  * EINN             — the paper's extension (Section 3.3): the best-first
//                       search additionally computes MAXDIST and applies two
//                       pruning rules derived from the client's candidate
//                       heap H:
//                         downward pruning: drop any MBR with
//                           MAXDIST(Q, M) < lower_bound  (M lies fully inside
//                           the already-certain disk C_r, so every object in
//                           it is already known to the client);
//                         upward pruning: drop any MBR with
//                           MINDIST(Q, M) > upper_bound  (the client already
//                           holds k candidates within upper_bound).
//                       Objects at distance <= lower_bound are also skipped:
//                       the client certified them locally.
//  * SharedKnnTraversal — the answering kernel: best-first EINN for a group
//                       of m >= 1 queries in ONE traversal (BRkNN-light's
//                       shared batch traversal), each node fetched and
//                       charged once for the group. At m = 1 it reproduces
//                       the iterator driven to k results, page charges
//                       included; the server answers every kNN query with it.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <queue>
#include <span>
#include <vector>

#include "src/geom/vec2.h"
#include "src/rtree/rstar_tree.h"

namespace senn::rtree {

/// A search hit: object plus its Euclidean distance to the query point.
struct Neighbor {
  ObjectEntry object;
  double distance = 0.0;
};

/// When a node access is charged during best-first search.
///
///  * kOnExpand  — a node is charged when it is popped and its slots are
///    read (the I/O-minimal accounting; best-first reads exactly the nodes
///    it must).
///  * kOnEnqueue — a node is charged when it is placed on the priority
///    queue (the accounting style whose magnitudes and EINN-vs-INN savings
///    match the paper's Figure 17: nodes that are fetched into the queue
///    but never expanded still count, so the upper bound's enqueue-time
///    pruning shows up as saved pages).
enum class AccessCountMode {
  kOnExpand = 0,
  kOnEnqueue = 1,
};

/// Bounds shipped from a mobile host's candidate heap H to the server
/// (Section 3.3 of the paper). Either bound may be absent, depending on the
/// heap state (States 1-6).
struct PruneBounds {
  /// Branch-expanding lower bound: distance of the last *certain* entry in
  /// H. Everything within this disk is already known to the client.
  std::optional<double> lower;
  /// Branch-expanding upper bound: distance of the k-th (last) entry in H.
  /// No true nearest neighbor can lie beyond it.
  std::optional<double> upper;
  /// Id of the client's worst-ranked certified object — the (distance, id)
  /// rank cut that `lower` abbreviates. The client's certain set is a rank
  /// prefix, so an object at distance exactly `lower` is known to the
  /// client only if its id is <= this cut: co-distant objects that lost the
  /// id tie-break at the prefix boundary must still be reported. The
  /// default (max) skips every object at the lower bound, which is the
  /// correct reading when the cut id is unknown-but-maximal and matches the
  /// historical behavior for callers that set `lower` alone.
  int64_t lower_id_cut = std::numeric_limits<int64_t>::max();
};

/// Returns the k nearest objects to `query` in ascending distance order
/// using depth-first branch-and-bound. Counts node accesses into `counter`
/// when provided; `hook` routes each access through the storage engine
/// (pages are pinned only while a node's slots are read, so the traversal
/// needs a single free frame). Returns fewer than k when the tree is
/// smaller than k.
std::vector<Neighbor> DepthFirstKnn(const RStarTree& tree, geom::Vec2 query, int k,
                                    AccessCounter* counter = nullptr,
                                    NodePageHook* hook = nullptr);

/// Incremental best-first nearest-neighbor iterator (INN), optionally with
/// EINN pruning bounds. Next() reports objects in non-decreasing distance.
class BestFirstNnIterator {
 public:
  /// Creates an iterator over `tree` (which must outlive the iterator).
  /// `bounds` enables the EINN pruning rules; pass {} for plain INN.
  ///
  /// `prune_to_k`, when set, declares that only the k nearest objects
  /// OVERALL are of interest: the iterator then additionally prunes against
  /// the distance of the k-th nearest object discovered so far (the standard
  /// best-first kNN optimization — safe because no node or object beyond
  /// that distance can contribute to the top k). Objects skipped because
  /// they lie inside the client's certain disk (bounds.lower) still count
  /// toward the k. Only the first k (minus any lower-bound-known) results
  /// are guaranteed complete; entries already enqueued before the bound
  /// tightened may still be reported afterwards.
  /// `hook`, when attached, routes every charged access through the paged
  /// storage engine. In kOnExpand mode the node's page is pinned while its
  /// slots are read; in kOnEnqueue mode the pin is transient at enqueue
  /// time (the accounting style fetches a node when it enters the queue,
  /// and expansion reads the queued copy).
  BestFirstNnIterator(const RStarTree& tree, geom::Vec2 query, PruneBounds bounds = {},
                      AccessCountMode count_mode = AccessCountMode::kOnExpand,
                      std::optional<int> prune_to_k = std::nullopt,
                      NodePageHook* hook = nullptr);

  /// Returns the next nearest object, or nullopt when the search space is
  /// exhausted (including exhausted-by-upper-bound).
  std::optional<Neighbor> Next();

  /// Node accesses performed so far.
  const AccessCounter& accesses() const { return accesses_; }

 private:
  struct QueueItem {
    double key;                   // MINDIST for nodes, distance for objects
    const RStarTree::Node* node;  // null for object items
    ObjectEntry object;
    uint64_t seq = 0;             // push order of nodes
  };
  struct Greater {
    bool operator()(const QueueItem& a, const QueueItem& b) const {
      // senn-lint: allow(L5-float-eq): strict-weak-order tie detection —
      // keys from the same MinDist/Dist path tie only when bit-identical,
      // and exact ties must reach the node/object and id rules below.
      if (a.key != b.key) return a.key > b.key;
      // At equal key a node must pop before an object: its MINDIST equals
      // the object's distance, so it may still contain a co-distant object
      // of smaller id. Co-distant objects pop in ascending id, making the
      // reported neighbor sequence follow the system (distance, id) rank
      // order. Co-keyed nodes pop in push order (never compare pointers:
      // heap addresses vary per run) — the shared kernel's FIFO rule, so
      // both expand co-keyed nodes, and fetch their pages, in one order.
      const bool a_object = a.node == nullptr;
      const bool b_object = b.node == nullptr;
      if (a_object != b_object) return a_object;
      if (a_object) return a.object.id > b.object.id;
      return a.seq > b.seq;
    }
  };

  void ExpandNode(const RStarTree::Node* node);
  /// Records an object distance into the dynamic top-k bound.
  void FeedDynamicBound(double distance);
  /// The tightest known upper limit on distances worth exploring.
  double EffectiveUpper() const;

  geom::Vec2 query_;
  PruneBounds bounds_;
  AccessCountMode count_mode_;
  std::optional<int> prune_to_k_;
  NodePageHook* hook_ = nullptr;
  uint64_t node_seq_ = 0;
  // Max-heap of the best prune_to_k_ object distances discovered so far.
  std::priority_queue<double> best_distances_;
  std::priority_queue<QueueItem, std::vector<QueueItem>, Greater> queue_;
  AccessCounter accesses_;
};

/// Convenience wrapper: the first k results of the (E)INN iterator.
std::vector<Neighbor> BestFirstKnn(const RStarTree& tree, geom::Vec2 query, int k,
                                   PruneBounds bounds = {}, AccessCounter* counter = nullptr,
                                   NodePageHook* hook = nullptr);

/// One query of a SharedKnnTraversal.
struct KnnQuery {
  geom::Vec2 q;
  /// Size of the dynamic top-k bound (the iterator's `prune_to_k`): the k-th
  /// nearest object read so far, lower-bound-known ones included, caps the
  /// search. <= 0 disables it.
  int k = 0;
  /// EINN prune bounds; {} for plain INN.
  PruneBounds bounds;
  /// How many objects to report: the best `needed` objects outside the
  /// lower-bound-known set, by (distance, id) rank. <= 0 reports none.
  int needed = 0;
};

/// The best-first kNN kernel: answers a group of queries with ONE traversal.
///
///  * One node queue ordered by the minimum MINDIST over the queries that
///    want the node; equal keys pop in push order (node identity never
///    enters the order). Objects never enter it: each query keeps its
///    `needed` best reportable objects in a bounded max-heap under the
///    system (distance, id) rank, plus the iterator's prune state (static
///    bounds with the lower-bound id cut, the dynamic top-k bag).
///  * A query's reach is the largest MINDIST at which it still wants a node:
///    its upper bound (static or dynamic top-k), capped by its worst
///    candidate once it holds `needed`. A node is wanted by the queries that
///    reach it and do not prune it downward (MAXDIST < lower); it is pushed
///    if some query wants it, expanded for the queries that still want it
///    when it pops, and the traversal stops once the smallest queued key is
///    beyond every query's reach.
///  * Charges: the root always; then in kOnExpand a node when it is expanded,
///    in kOnEnqueue a child when some query has MINDIST <= its upper bound
///    and does not prune it downward — the iterator's enqueue rule, so a
///    child can be charged without being pushed. A node is fetched once for
///    the group: billed to the first query that wants (kOnExpand) or fetches
///    (kOnEnqueue) it, and mirrored into the group counter, where a miss is
///    classified shared (two or more such queries) or private.
///
/// Contract: for system-consistent inputs (bounds from a certified rank
/// prefix of k - needed objects), a one-query traversal equals
/// BestFirstNnIterator(tree, q, bounds, mode, k, hook) driven to `needed`
/// results: same neighbors, same AccessCounter, same fetch/unpin sequence.
/// In a group, each query's neighbors are the same; only the charges move.
///
/// The object owns its scratch; reusing one across calls makes a warm
/// traversal allocation-free. Not thread-safe.
class SharedKnnTraversal {
 public:
  /// Answers `queries` over `tree`. `hook` routes every charge through the
  /// storage engine; `group`, when given, accumulates every charged node
  /// once with the shared/private miss split. Results stay readable until
  /// the next Run.
  void Run(const RStarTree& tree, std::span<const KnnQuery> queries, AccessCountMode mode,
           NodePageHook* hook = nullptr, AccessCounter* group = nullptr);

  /// The answer to queries[j] of the last Run, ascending by (distance, id).
  std::span<const Neighbor> neighbors(size_t j) const { return state_[j].cand; }
  /// The accesses billed to queries[j] of the last Run (no miss split).
  const AccessCounter& accesses(size_t j) const { return state_[j].accesses; }

 private:
  struct QueryState {
    const KnnQuery* in = nullptr;
    /// Dynamic top-k bag: max-heap of the best k object distances read.
    std::vector<double> best;
    /// Best `needed` reportable objects: max-heap by rank, front = worst.
    std::vector<Neighbor> cand;
    AccessCounter accesses;
    /// Upper bound and reach, cached while an index node is expanded (no
    /// object is read meanwhile, so neither moves).
    double upper = 0.0;
    double reach = 0.0;
  };
  /// A queued node: the queries that wanted it at push time are the slice
  /// [wanted_begin, wanted_begin + wanted_len) of wanted_.
  struct NodeItem {
    double key = 0.0;
    uint64_t seq = 0;
    const RStarTree::Slot* slot = nullptr;
    uint32_t wanted_begin = 0;
    uint32_t wanted_len = 0;
  };

  /// Min-heap order of the node queue: (key, seq).
  static bool NodeAfter(const NodeItem& a, const NodeItem& b);
  /// Records an object distance into the query's dynamic top-k bag.
  static void Feed(QueryState* p, double d);
  /// The tightest limit on distances worth exploring for the query.
  static double Upper(const QueryState& p);
  /// The largest MINDIST at which the query still wants a node (-inf once
  /// it needs nothing).
  static double Reach(const QueryState& p);

  /// Expands `node` for the queries in live_.
  void Expand(const RStarTree::Node* node);
  void ScanLeaf(const RStarTree::Node* leaf);
  /// Fetches `node` once for the group, billed to query `owner`; the miss
  /// is shared when `fetching` >= 2 queries read it. Returns whether the
  /// hook pinned the page.
  bool Charge(const RStarTree::Node* node, uint32_t owner, uint32_t fetching);

  AccessCountMode mode_ = AccessCountMode::kOnExpand;
  NodePageHook* hook_ = nullptr;
  AccessCounter* group_ = nullptr;
  uint32_t m_ = 0;
  uint64_t push_seq_ = 0;
  std::vector<QueryState> state_;
  std::vector<NodeItem> queue_;  // binary heap, min (key, seq) on top
  std::vector<uint32_t> wanted_;
  std::vector<uint32_t> live_;  // the queries the node being expanded serves
};

}  // namespace senn::rtree
