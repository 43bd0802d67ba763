// Server-side batch answering: one shared EINN traversal per cluster of
// co-located queries.
//
// Under heavy traffic many concurrent mobile hosts issue kNN queries whose
// search regions overlap the same R*-tree pages, yet SpatialServer::QueryKnn
// answers each with an independent traversal over the buffer pool (ROADMAP
// item 4; the paper's Figs. 13-16 are exactly this regime). BRkNN-light's
// trick applies: group queries by query-point proximity and answer a whole
// group with ONE best-first traversal that keeps per-query bounds, so a page
// wanted by several queries is fetched (and charged) once.
//
// The traversal itself is the server's one kNN kernel
// (rtree::SharedKnnTraversal, reached through SpatialServer::AnswerGroup):
// one node queue ordered by the minimum MINDIST over the queries that want a
// node, per-query EINN prune state and bounded candidate heaps, and each
// visited node fetched ONCE through the storage engine — billed to the
// first query that reads it, and classified shared/private in the cluster
// counter (BatchStats::shared_traversal). Per-query replies carry no miss
// split; per-query misses sum exactly to the cluster's unique-page misses.
// This class forms the clusters and keeps the batch span, metrics and stats.
//
// Equivalence contract (enforced by tests/core/batch_diff_test.cpp, not by
// inspection): for system-consistent inputs — bounds computed by
// CandidateHeap::ComputeBounds from a certified rank prefix of
// `already_certified` POIs, as every SennProcessor server contact ships —
// the per-query neighbors are BITWISE identical to sequential
// SpatialServer::QueryKnn answers: the k - already_certified best POIs
// outside the client's certain set, ascending by (distance, id), with
// distances from the same geom::Dist evaluations. Singleton clusters (and
// max_group == 1) delegate to SpatialServer::QueryKnn verbatim, so a batch
// size of 1 is byte-identical to today's sequential path, accounting
// included.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/core/server.h"
#include "src/core/types.h"
#include "src/geom/vec2.h"
#include "src/rtree/knn.h"

namespace senn::obs {
class MetricsRegistry;
class QueryTracer;
}  // namespace senn::obs

namespace senn::core {

/// One request of a batch: exactly the arguments of SpatialServer::QueryKnn.
struct BatchQuery {
  geom::Vec2 q;
  /// Total result size including the client's certified POIs (k <= 0 is a
  /// degenerate request answered with an empty reply).
  int k = 1;
  /// EINN prune bounds shipped by the client (Section 3.3).
  rtree::PruneBounds bounds;
  /// Client-certified POIs inside bounds.lower; the reply returns only
  /// k - already_certified new neighbors.
  int already_certified = 0;
};

/// Batch-answering knobs.
struct BatchOptions {
  /// Side of the square clustering tiles (the neighbor_grid idiom: queries
  /// whose points fall in the same tile share one traversal). Values <= 0
  /// clamp to 1 m.
  double cluster_cell_m = 500.0;
  /// Maximum queries per shared traversal; a tile with more splits into
  /// chunks of this size. 1 disables sharing (every query delegates to the
  /// sequential path).
  int max_group = 8;
  /// Also run the paper's comparison INN pass per query
  /// (SpatialServer::MeasureInn) and report it in `inn_accesses`. Off, the
  /// batch does answering work only: singletons take
  /// SpatialServer::AnswerKnn, shared clusters skip the INN pass, and every
  /// reply's `inn_accesses` is zero. The simulator turns it on (its reports
  /// carry Fig. 17's INN page counts); serving tiers leave it off.
  bool measure_inn = false;
};

/// Cumulative batch-path counters.
struct BatchStats {
  /// Queries answered through AnswerBatch (batched + singleton).
  uint64_t queries = 0;
  /// Shared traversals run (clusters of size >= 2).
  uint64_t clusters = 0;
  /// Queries answered by a shared traversal.
  uint64_t batched_queries = 0;
  /// Queries delegated to SpatialServer::QueryKnn (singleton clusters).
  uint64_t singleton_queries = 0;
  /// Cluster-level accesses of the shared traversals: each visited node
  /// counts once per cluster, misses split shared/private by how many
  /// queries wanted the page.
  rtree::AccessCounter shared_traversal;
};

/// Answers groups of kNN requests with shared traversals over a
/// SpatialServer's tree and storage engine. The server must outlive the
/// BatchServer. Not thread-safe (one batch at a time, like the server).
class BatchServer {
 public:
  explicit BatchServer(SpatialServer* server, BatchOptions options = {});

  /// Clusters `queries` (FormClusters) and answers every cluster with one
  /// shared traversal; `replies[i]` answers `queries[i]`. Singleton clusters
  /// delegate to SpatialServer::QueryKnn (AnswerKnn without measure_inn).
  /// Every answered query is folded into the server's ServerStats; with
  /// measure_inn, shared traversals also run the per-query comparison INN
  /// pass (never through the buffer pool), exactly like the sequential
  /// server. `tracer`, when given, receives one server_batch_einn
  /// span per shared traversal (pages, misses, shared split); `metrics`
  /// collects per-cluster counters/histograms under "batch/". Pass
  /// `cluster_sizes` to observe the formed cluster sizes (appended in
  /// cluster order).
  std::vector<ServerReply> AnswerBatch(const std::vector<BatchQuery>& queries,
                                       obs::QueryTracer* tracer = nullptr,
                                       obs::MetricsRegistry* metrics = nullptr,
                                       std::vector<size_t>* cluster_sizes = nullptr);

  /// Deterministic cluster formation (exposed for the formation tests; the
  /// answering path walks the same order without building the vectors):
  /// queries map to square tiles of cluster_cell_m (floor division, so a
  /// point exactly on a tile boundary belongs to the higher tile), tiles are
  /// processed in (x-tile, y-tile) order, members within a tile are put in
  /// canonical content order (query point, k, bounds, certified count; ties
  /// by input index), and tiles larger than max_group split into chunks in
  /// that order. The assignment is a pure function of the query MULTISET:
  /// shuffling the input permutes only content-identical queries, which are
  /// interchangeable by construction.
  std::vector<std::vector<size_t>> FormClusters(const std::vector<BatchQuery>& queries);

  const BatchStats& stats() const { return stats_; }
  const BatchOptions& options() const { return options_; }
  void ResetStats() { stats_ = BatchStats{}; }

 private:
  /// Sorts the query indices into member_order_ by (tile x, tile y,
  /// content, index) and calls `visit` with each cluster: a run of one tile,
  /// cut into chunks of max_group.
  template <typename Visit>
  void ForEachCluster(const std::vector<BatchQuery>& queries, Visit&& visit);

  void AnswerCluster(const std::vector<BatchQuery>& queries,
                     std::span<const size_t> members, std::vector<ServerReply>* replies,
                     obs::QueryTracer* tracer, obs::MetricsRegistry* metrics);

  SpatialServer* server_;
  BatchOptions options_;
  BatchStats stats_;

  // Scratch kept across batches, so a warm batch allocates only its replies.
  std::vector<std::pair<int64_t, int64_t>> tile_of_;  // by query index
  std::vector<size_t> member_order_;
  std::vector<rtree::KnnQuery> group_;
  std::vector<ServerReply> group_replies_;
};

}  // namespace senn::core
