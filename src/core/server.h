// The remote spatial database server.
//
// Indexes the POI data set with an R*-tree (branching factor 30, as in the
// paper) and answers kNN queries with the best-first incremental NN
// algorithm, run by the one shared kernel of rtree/knn.h. The paper's server module runs BOTH
//   * EINN — the extended algorithm with the client's pruning bounds
//     (Section 3.3), which produces the answer, and
//   * INN  — the original algorithm without bounds,
// recording the node (page) accesses of each ("the server module executes
// both the original INN algorithm and our extended INN algorithm ... to
// compare the performance improvement with respect to page accesses",
// Section 4.4). QueryKnn reproduces that module. The INN run is measurement
// only — it never changes an answer — so it is split out: AnswerKnn is the
// answering EINN run alone and MeasureInn the comparison run, which a
// serving path that does not report Fig. 17's page counts can skip.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/core/types.h"
#include "src/geom/vec2.h"
#include "src/rtree/knn.h"
#include "src/rtree/rstar_tree.h"
#include "src/storage/node_pager.h"

namespace senn::obs {
class QueryTracer;
}

namespace senn::core {

/// Cumulative server-side counters (the PAR metric inputs).
struct ServerStats {
  uint64_t queries = 0;
  rtree::AccessCounter einn;
  rtree::AccessCounter inn;
};

/// One server reply.
struct ServerReply {
  /// Neighbors found by EINN, ascending by distance. When a lower bound was
  /// supplied, POIs at distance <= lower are omitted (the client certified
  /// them locally and merges them back).
  std::vector<RankedPoi> neighbors;
  /// Page accesses of the answering (EINN) run.
  rtree::AccessCounter einn_accesses;
  /// Page accesses the plain INN run needed for the same query.
  rtree::AccessCounter inn_accesses;

  /// Memberwise (bitwise for distances) equality; the rpc layer's
  /// loopback-determinism tests compare transported replies against the
  /// direct QueryKnn result with it.
  bool operator==(const ServerReply&) const = default;
};

/// The spatial database server.
class SpatialServer {
 public:
  /// Builds the R*-tree over the POI set. `tree_options` defaults to the
  /// paper's branching factor of 30.
  ///
  /// `storage`, when given, puts a paged storage engine (src/storage/)
  /// under the tree: every ANSWERING traversal (EINN, the pruned range
  /// scan) fetches nodes through a buffer pool, so the reply's access
  /// counters additionally report physical misses. The counterfactual
  /// comparison runs (plain INN / unpruned range) never touch the pool —
  /// they are hypothetical work and must neither warm nor thrash the real
  /// frames — so their miss counters stay zero. Logical access counts are
  /// identical with and without a pool.
  explicit SpatialServer(std::vector<Poi> pois,
                         rtree::RStarTree::Options tree_options = DefaultTreeOptions(),
                         rtree::AccessCountMode count_mode = rtree::AccessCountMode::kOnExpand,
                         std::optional<storage::BufferPoolOptions> storage = std::nullopt);

  static rtree::RStarTree::Options DefaultTreeOptions() {
    rtree::RStarTree::Options o;
    o.max_entries = 30;
    o.min_entries = 12;
    return o;
  }

  /// Answers a kNN query. `k` counts the client's locally-certified POIs:
  /// when `bounds.lower` is set and `certified` of the client's POIs lie at
  /// distance <= lower, the server needs to return only k - certified new
  /// neighbors; pass the number through `already_certified`.
  /// `tracer`, when given and a storage engine is configured, receives one
  /// buffer_fetch span bracketing the answering traversal's pool activity
  /// (hit/miss/eviction deltas); the comparison run is never traced.
  /// Equals AnswerKnn followed by MeasureInn.
  ServerReply QueryKnn(geom::Vec2 q, int k, rtree::PruneBounds bounds = {},
                       int already_certified = 0, obs::QueryTracer* tracer = nullptr);

  /// The answering half of QueryKnn: the EINN run (a group of one through
  /// AnswerGroup, with its buffer_fetch span). The reply's `inn_accesses`
  /// stay zero.
  ServerReply AnswerKnn(geom::Vec2 q, int k, rtree::PruneBounds bounds = {},
                        int already_certified = 0, obs::QueryTracer* tracer = nullptr);

  /// Answers a group of kNN queries with ONE best-first traversal — the
  /// kernel every answer runs (rtree::SharedKnnTraversal) — through the
  /// storage engine: each node is fetched and charged once for the group.
  /// `replies[j]` is overwritten with the answer to `group[j]`: its
  /// neighbors, the accesses billed to it (no shared/private miss split),
  /// zero `inn_accesses`. Every query is folded into ServerStats.
  /// `group_accesses`, when given, accumulates the group-level counter:
  /// every charged node once, misses split shared/private.
  void AnswerGroup(std::span<const rtree::KnnQuery> group, std::span<ServerReply> replies,
                   rtree::AccessCounter* group_accesses = nullptr);

  /// The paper's comparison run: plain INN answering the full kNN query
  /// without the client's help, never through the buffer pool (hypothetical
  /// work must neither warm nor thrash the real frames). Returns its page
  /// accesses and folds them into ServerStats::inn.
  rtree::AccessCounter MeasureInn(geom::Vec2 q, int k);

  /// Answers a range query: every POI with inner < distance <= radius,
  /// ascending. `inner` is the client's certain radius (POIs inside it are
  /// already known to the client); subtrees fully inside the inner disk are
  /// pruned. As with QueryKnn, a comparison run without the inner disk is
  /// executed and both access counts are recorded.
  ServerReply QueryRange(geom::Vec2 q, double radius, double inner = 0.0);

  size_t poi_count() const { return pois_.size(); }
  const std::vector<Poi>& pois() const { return pois_; }
  const rtree::RStarTree& tree() const { return tree_; }
  const ServerStats& stats() const { return stats_; }
  rtree::AccessCountMode count_mode() const { return count_mode_; }
  /// The paged storage engine, or null when the server runs in-memory.
  /// Note ResetStats() clears the query counters but not the pool's
  /// residency: a warmed pool is the steady state being measured.
  const storage::NodePager* pager() const { return pager_.get(); }
  void ResetStats() { stats_ = ServerStats{}; }

 private:
  /// Runs `traverse` — an answering traversal — inside one buffer_fetch
  /// span carrying the pool's hit/miss/eviction deltas over it. No span
  /// without a tracer or without a storage engine.
  template <typename Traversal>
  void TraceBufferFetch(obs::QueryTracer* tracer, Traversal&& traverse);

  std::vector<Poi> pois_;
  rtree::RStarTree tree_;
  rtree::AccessCountMode count_mode_;
  std::unique_ptr<storage::NodePager> pager_;
  ServerStats stats_;
  // Traversal scratch shared by every answer and measurement run.
  rtree::SharedKnnTraversal knn_;
};

}  // namespace senn::core
