// Shared world/request generators of the batch-answering test battery
// (batch_diff_test, batch_metamorphic_test, batch_cluster_test).
//
// Worlds follow the oracle_diff_test recipe — everything derives from
// (fixed master seed, trial index) through named counter-based streams —
// extended with the two ingredients batching cares about:
//   * query-point SKEW: a "hotspot" mode clusters most query points inside a
//     few small disks, so tiles actually collect multi-query clusters;
//   * SYSTEM-CONSISTENT prune bounds: built exactly the way SennProcessor
//     ships them — a CandidateHeap filled by kNN_single verification of a
//     peer cache that is itself an exact server answer, then
//     ComputeBounds() + the certified prefix size. Consistency matters:
//     for arbitrary (inconsistent) bounds the sequential EINN answer is
//     traversal-order-DEPENDENT, so only system-consistent inputs carry the
//     bitwise-equality contract the differential tests check.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/core/batch_server.h"
#include "src/core/candidate_heap.h"
#include "src/core/server.h"
#include "src/core/single_peer.h"
#include "src/storage/page.h"

namespace senn::core::batch_testing {

constexpr double kSide = 1000.0;

struct BatchWorld {
  std::vector<Poi> pois;
  std::unique_ptr<SpatialServer> server;
  std::vector<BatchQuery> queries;
};

struct WorldOptions {
  /// Cluster most query points inside a few small disks.
  bool hotspot = false;
  /// Run the server over the paged storage engine (small bounded pool, so
  /// miss accounting and pinning are exercised, not just counted).
  bool paged = false;
  rtree::AccessCountMode count_mode = rtree::AccessCountMode::kOnExpand;
  int max_queries = 14;
  /// Upper end of the random POI count (uniform and hotspot worlds).
  int max_pois = 120;
  /// Upper end of the random lattice side, in POIs (lattice worlds).
  int max_lattice_side = 8;
};

/// System-consistent prune bounds for (q, k): a peer cache (exact server
/// answer at `peer_loc`) verified through kNN_single into a heap of
/// capacity k. Returns the bounds plus the certified prefix size.
inline void ConsistentBounds(SpatialServer* server, geom::Vec2 q, int k,
                             geom::Vec2 peer_loc, int peer_size, BatchQuery* out) {
  CachedResult cached;
  cached.query_location = peer_loc;
  cached.neighbors = server->QueryKnn(peer_loc, peer_size).neighbors;
  CandidateHeap heap(k);
  if (!cached.Empty()) VerifySinglePeer(q, cached, &heap);
  out->bounds = heap.ComputeBounds();
  out->already_certified = static_cast<int>(heap.certain().size());
}

/// One randomized world: POIs, server, and a co-locatable request group.
inline BatchWorld BuildBatchWorld(int trial, const WorldOptions& options) {
  BatchWorld w;
  Rng rng = Rng(0xBA7C4u).Stream(options.hotspot ? "batch-hot" : "batch-uni",
                                 static_cast<uint64_t>(trial));
  const int n = static_cast<int>(rng.UniformInt(1, static_cast<uint64_t>(options.max_pois)));
  geom::Vec2 hot[2] = {{rng.Uniform(0, kSide), rng.Uniform(0, kSide)},
                       {rng.Uniform(0, kSide), rng.Uniform(0, kSide)}};
  w.pois.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    geom::Vec2 p{rng.Uniform(0, kSide), rng.Uniform(0, kSide)};
    if (options.hotspot && rng.Bernoulli(0.6)) {
      const geom::Vec2& c = hot[rng.Bernoulli(0.5) ? 1 : 0];
      p = {c.x + rng.Uniform(-60.0, 60.0), c.y + rng.Uniform(-60.0, 60.0)};
    }
    w.pois.push_back({i, p});
  }
  storage::BufferPoolOptions pool;
  pool.capacity_pages = 8;  // small on purpose: evictions under traversal
  w.server = std::make_unique<SpatialServer>(
      w.pois, SpatialServer::DefaultTreeOptions(), options.count_mode,
      options.paged ? std::optional<storage::BufferPoolOptions>(pool) : std::nullopt);

  const int m = static_cast<int>(rng.UniformInt(1, static_cast<uint64_t>(options.max_queries)));
  for (int i = 0; i < m; ++i) {
    BatchQuery bq;
    if (options.hotspot && rng.Bernoulli(0.75)) {
      const geom::Vec2& c = hot[rng.Bernoulli(0.5) ? 1 : 0];
      bq.q = {c.x + rng.Uniform(-40.0, 40.0), c.y + rng.Uniform(-40.0, 40.0)};
    } else {
      bq.q = {rng.Uniform(0, kSide), rng.Uniform(0, kSide)};
    }
    // k = 0 is the degenerate request (empty reply on both paths).
    bq.k = static_cast<int>(rng.UniformInt(0, 10));
    if (bq.k > 0 && rng.Bernoulli(0.66)) {
      geom::Vec2 peer_loc{bq.q.x + rng.Uniform(-80.0, 80.0),
                          bq.q.y + rng.Uniform(-80.0, 80.0)};
      ConsistentBounds(w.server.get(), bq.q, bq.k, peer_loc,
                       static_cast<int>(rng.UniformInt(1, 12)), &bq);
    }
    w.queries.push_back(bq);
  }
  return w;
}

/// Lattice worlds (the PR-4 tie generator, batched): POIs on a regular grid
/// and every query point snapped to a lattice point or cell center, so
/// whole POI families are EXACTLY co-distant from each query and equal-key
/// pops actually happen inside the shared queue.
inline BatchWorld BuildLatticeBatchWorld(int trial, const WorldOptions& options) {
  BatchWorld w;
  Rng rng = Rng(0xBA1A77u).Stream("batch-lattice", static_cast<uint64_t>(trial));
  const double spacing = 60.0;
  const uint64_t side = static_cast<uint64_t>(options.max_lattice_side);
  const int cols = static_cast<int>(rng.UniformInt(3, side));
  const int rows = static_cast<int>(rng.UniformInt(3, side));
  int id = 0;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      w.pois.push_back({id++, {c * spacing, r * spacing}});
    }
  }
  storage::BufferPoolOptions pool;
  pool.capacity_pages = 8;
  w.server = std::make_unique<SpatialServer>(
      w.pois, SpatialServer::DefaultTreeOptions(), options.count_mode,
      options.paged ? std::optional<storage::BufferPoolOptions>(pool) : std::nullopt);

  const int m = static_cast<int>(rng.UniformInt(1, static_cast<uint64_t>(options.max_queries)));
  for (int i = 0; i < m; ++i) {
    BatchQuery bq;
    const int qc = static_cast<int>(rng.UniformInt(0, static_cast<uint64_t>(cols - 1)));
    const int qr = static_cast<int>(rng.UniformInt(0, static_cast<uint64_t>(rows - 1)));
    bq.q = {qc * spacing, qr * spacing};
    if (rng.Bernoulli(0.5)) {
      bq.q.x += spacing / 2.0;  // cell center: 4 corners exactly co-distant
      bq.q.y += spacing / 2.0;
    }
    bq.k = static_cast<int>(rng.UniformInt(0, 10));
    if (bq.k > 0 && rng.Bernoulli(0.66)) {
      int pc = std::max(0, std::min(cols - 1, qc + static_cast<int>(rng.UniformInt(0, 4)) - 2));
      int pr = std::max(0, std::min(rows - 1, qr + static_cast<int>(rng.UniformInt(0, 4)) - 2));
      ConsistentBounds(w.server.get(), bq.q, bq.k, {pc * spacing, pr * spacing},
                       static_cast<int>(rng.UniformInt(1, 12)), &bq);
    }
    w.queries.push_back(bq);
  }
  return w;
}

/// Bitwise reply comparison: same POIs in the same order, bit-identical
/// distances and positions (both sides must run the same geom::Dist code
/// path — "close enough" would hide a divergent computation).
inline void ExpectSameNeighbors(const std::vector<RankedPoi>& got,
                                const std::vector<RankedPoi>& want, int trial,
                                size_t query_index, const char* what) {
  ASSERT_EQ(got.size(), want.size())
      << what << ", trial " << trial << ", query " << query_index;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].id, want[i].id)
        << what << ", trial " << trial << ", query " << query_index << ", rank " << i;
    EXPECT_EQ(got[i].distance, want[i].distance)
        << what << ", trial " << trial << ", query " << query_index << ", rank " << i;
    EXPECT_EQ(got[i].position.x, want[i].position.x)
        << what << ", trial " << trial << ", query " << query_index << ", rank " << i;
    EXPECT_EQ(got[i].position.y, want[i].position.y)
        << what << ", trial " << trial << ", query " << query_index << ", rank " << i;
  }
}

}  // namespace senn::core::batch_testing
