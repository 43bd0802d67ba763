// Differential battery for the batched answering path: over hundreds of
// generated worlds — uniform and hotspot-skewed, random and lattice-tied,
// in-memory and paged, both access-accounting modes — every per-query reply
// of BatchServer::AnswerBatch must be BITWISE identical to the sequential
// SpatialServer::QueryKnn answer, at every batch size, with the comparison
// INN pass on and off.
//
// This is the enforcement of the equivalence contract in batch_server.h: the
// shared traversal may visit nodes in a completely different order (and
// fewer of them), but for system-consistent inputs the per-query answer is a
// pure function of (query, world, bounds), so any divergence — a tie broken
// by traversal order, a prune that is too eager for one member, a candidate
// heap displaced by another query's objects — shows up as a wrong id or a
// non-identical double.
//
// The trial count is a compile definition: the same source builds the quick
// tier-1 binary (SENN_BATCH_TRIALS small) and the full sweep (slow label).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/batch_server.h"
#include "src/core/senn.h"
#include "src/rtree/bulk_load.h"
#include "src/rtree/knn.h"
#include "src/storage/node_pager.h"
#include "tests/core/batch_test_util.h"

#ifndef SENN_BATCH_TRIALS
#define SENN_BATCH_TRIALS 200
#endif

namespace senn::core {
namespace {

using batch_testing::BatchWorld;
using batch_testing::BuildBatchWorld;
using batch_testing::BuildLatticeBatchWorld;
using batch_testing::ExpectSameNeighbors;
using batch_testing::WorldOptions;

constexpr int kTrials = SENN_BATCH_TRIALS;
constexpr int kBatchSizes[] = {1, 2, 8, 32};

/// Variant matrix per trial: storage engine and accounting mode rotate so
/// every combination appears many times across the sweep.
WorldOptions VariantFor(int trial, bool hotspot) {
  WorldOptions options;
  options.hotspot = hotspot;
  options.paged = trial % 2 == 1;
  options.count_mode =
      trial % 4 < 2 ? rtree::AccessCountMode::kOnExpand : rtree::AccessCountMode::kOnEnqueue;
  return options;
}

/// `w` and `twin` are two builds of the same world. `w` answers with the
/// comparison INN pass on and is held to the sequential QueryKnn replies;
/// `twin` replays the same calls with it off. INN never touches the buffer
/// pool, so both pools see the same fetch history and the INN-off replies
/// must keep every neighbor and the whole EINN access counter bitwise, with
/// all-zero INN counters.
void RunDiff(const BatchWorld& w, const BatchWorld& twin, int trial, const char* family) {
  // World construction queried both servers identically (peer caches).
  const rtree::AccessCounter twin_inn_before = twin.server->stats().inn;
  // Sequential baseline. Answers do not depend on server state (stats and
  // pool residency never reach the result), so one server serves both paths.
  std::vector<ServerReply> sequential;
  sequential.reserve(w.queries.size());
  for (const BatchQuery& bq : w.queries) {
    sequential.push_back(
        w.server->QueryKnn(bq.q, bq.k, bq.bounds, bq.already_certified));
    const ServerReply answer_only =
        twin.server->AnswerKnn(bq.q, bq.k, bq.bounds, bq.already_certified);
    EXPECT_EQ(answer_only.neighbors, sequential.back().neighbors)
        << family << ", trial " << trial;
    EXPECT_EQ(answer_only.einn_accesses, sequential.back().einn_accesses)
        << family << ", trial " << trial;
    EXPECT_EQ(answer_only.inn_accesses, rtree::AccessCounter{})
        << family << ", trial " << trial;
  }
  for (int max_group : kBatchSizes) {
    BatchOptions options;
    options.cluster_cell_m = 250.0;
    options.max_group = max_group;
    options.measure_inn = true;
    BatchServer batch(w.server.get(), options);
    std::vector<ServerReply> replies = batch.AnswerBatch(w.queries);
    ASSERT_EQ(replies.size(), w.queries.size());
    for (size_t i = 0; i < replies.size(); ++i) {
      ExpectSameNeighbors(replies[i].neighbors, sequential[i].neighbors, trial, i,
                          family);
      // The comparison INN run is per query in both paths and never touches
      // the pool: its logical counters must agree exactly.
      EXPECT_EQ(replies[i].inn_accesses.total(), sequential[i].inn_accesses.total())
          << family << ", trial " << trial << ", query " << i
          << ", max_group " << max_group;
    }
    EXPECT_EQ(batch.stats().queries, w.queries.size());
    EXPECT_EQ(batch.stats().batched_queries + batch.stats().singleton_queries,
              batch.stats().queries);
    if (max_group == 1) {
      EXPECT_EQ(batch.stats().batched_queries, 0u);
    }

    options.measure_inn = false;
    BatchServer answer_only(twin.server.get(), options);
    std::vector<ServerReply> off = answer_only.AnswerBatch(w.queries);
    ASSERT_EQ(off.size(), w.queries.size());
    for (size_t i = 0; i < off.size(); ++i) {
      ExpectSameNeighbors(off[i].neighbors, sequential[i].neighbors, trial, i, family);
      EXPECT_EQ(off[i].einn_accesses, replies[i].einn_accesses)
          << family << ", trial " << trial << ", query " << i
          << ", max_group " << max_group;
      EXPECT_EQ(off[i].inn_accesses, rtree::AccessCounter{})
          << family << ", trial " << trial << ", query " << i
          << ", max_group " << max_group;
    }
    EXPECT_EQ(answer_only.stats().batched_queries, batch.stats().batched_queries);
  }
  // The ServerStats fold: the same EINN side, nothing added on the INN side.
  EXPECT_EQ(twin.server->stats().queries, w.server->stats().queries);
  EXPECT_EQ(twin.server->stats().einn, w.server->stats().einn);
  EXPECT_EQ(twin.server->stats().inn, twin_inn_before);
}

TEST(BatchDiffTest, UniformWorldsMatchSequentialAtEveryBatchSize) {
  for (int trial = 0; trial < kTrials; ++trial) {
    const WorldOptions variant = VariantFor(trial, false);
    RunDiff(BuildBatchWorld(trial, variant), BuildBatchWorld(trial, variant), trial,
            "uniform");
  }
}

TEST(BatchDiffTest, HotspotWorldsMatchSequentialAtEveryBatchSize) {
  int clustered = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const WorldOptions variant = VariantFor(trial, true);
    BatchWorld w = BuildBatchWorld(trial, variant);
    RunDiff(w, BuildBatchWorld(trial, variant), trial, "hotspot");
    BatchOptions options;
    options.cluster_cell_m = 250.0;
    options.max_group = 32;
    BatchServer batch(w.server.get(), options);
    for (const std::vector<size_t>& cluster : batch.FormClusters(w.queries)) {
      if (cluster.size() >= 2) ++clustered;
    }
  }
  // The skew generator must actually produce shared traversals, or every
  // "batched" reply above went through the sequential delegation and the
  // test lost its teeth.
  EXPECT_GT(clustered, kTrials / 2);
}

TEST(BatchDiffTest, LatticeTieWorldsMatchSequentialAtEveryBatchSize) {
  for (int trial = 0; trial < kTrials; ++trial) {
    const WorldOptions variant = VariantFor(trial, false);
    RunDiff(BuildLatticeBatchWorld(trial, variant), BuildLatticeBatchWorld(trial, variant),
            trial, "lattice");
  }
}

/// The sequential server spelled with the incremental iterator: the answer
/// is BestFirstNnIterator(q, bounds, mode, k) driven through the pool to
/// k - already_certified results, the INN measurement a bound-free iterator
/// driven to k results without the pool. It is built over its own copy of
/// the tree, with its own pager, so the two sides' pools must see the same
/// fetch/unpin sequence to agree.
class IteratorReference {
 public:
  IteratorReference(const std::vector<Poi>& pois, const WorldOptions& options)
      : mode_(options.count_mode) {
    std::vector<rtree::ObjectEntry> entries;
    for (const Poi& poi : pois) entries.push_back({poi.position, poi.id});
    tree_ = rtree::BulkLoad(std::move(entries), SpatialServer::DefaultTreeOptions());
    if (options.paged) {
      storage::BufferPoolOptions pool;
      pool.capacity_pages = 8;
      pager_ = std::make_unique<storage::NodePager>(&tree_, pool);
    }
  }

  ServerReply Answer(const BatchQuery& bq) {
    ServerReply reply;
    rtree::BestFirstNnIterator einn(tree_, bq.q, bq.bounds, mode_, bq.k, pager_.get());
    while (static_cast<int>(reply.neighbors.size()) < bq.k - bq.already_certified) {
      std::optional<rtree::Neighbor> n = einn.Next();
      if (!n.has_value()) break;
      reply.neighbors.push_back({n->object.id, n->object.position, n->distance});
    }
    reply.einn_accesses = einn.accesses();
    return reply;
  }

  rtree::AccessCounter Inn(geom::Vec2 q, int k) const {
    rtree::BestFirstNnIterator inn(tree_, q, rtree::PruneBounds{}, mode_, k);
    for (int i = 0; i < k; ++i) {
      if (!inn.Next().has_value()) break;
    }
    return inn.accesses();
  }

  const storage::NodePager* pager() const { return pager_.get(); }

 private:
  rtree::AccessCountMode mode_;
  rtree::RStarTree tree_;
  std::unique_ptr<storage::NodePager> pager_;
};

void ExpectSamePool(const SpatialServer& server, const IteratorReference& reference,
                    const std::string& where) {
  ASSERT_EQ(server.pager() != nullptr, reference.pager() != nullptr) << where;
  if (server.pager() == nullptr) return;
  const storage::BufferPoolStats& got = server.pager()->pool().stats();
  const storage::BufferPoolStats& want = reference.pager()->pool().stats();
  EXPECT_EQ(got.logical, want.logical) << where;
  EXPECT_EQ(got.hits, want.hits) << where;
  EXPECT_EQ(got.misses, want.misses) << where;
  EXPECT_EQ(got.evictions, want.evictions) << where;
}

/// Replays a world's requests — plus, per request, the degenerate k = 0 and
/// already_certified >= k forms — on a fresh server and on the iterator
/// reference: every neighbor, the whole AccessCounter of both runs, and the
/// pool's counters after every call must agree.
void RunKernelVsIterator(const BatchWorld& w, const WorldOptions& options, int trial,
                         const char* family) {
  SpatialServer server(
      w.pois, SpatialServer::DefaultTreeOptions(), options.count_mode,
      options.paged ? std::optional<storage::BufferPoolOptions>([] {
        storage::BufferPoolOptions pool;
        pool.capacity_pages = 8;
        return pool;
      }())
                    : std::nullopt);
  IteratorReference reference(w.pois, options);
  std::vector<BatchQuery> requests;
  for (const BatchQuery& bq : w.queries) {
    requests.push_back(bq);
    BatchQuery none = bq;
    none.k = 0;
    none.already_certified = 0;
    requests.push_back(none);
    BatchQuery covered = bq;
    covered.already_certified = bq.k + static_cast<int>(requests.size() % 2);
    requests.push_back(covered);
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    const BatchQuery& bq = requests[i];
    const std::string where = std::string(family) + ", trial " + std::to_string(trial) +
                              ", request " + std::to_string(i);
    const ServerReply got = server.AnswerKnn(bq.q, bq.k, bq.bounds, bq.already_certified);
    const ServerReply want = reference.Answer(bq);
    ExpectSameNeighbors(got.neighbors, want.neighbors, trial, i, family);
    EXPECT_EQ(got.einn_accesses, want.einn_accesses) << where;
    EXPECT_EQ(got.inn_accesses, rtree::AccessCounter{}) << where;
    ExpectSamePool(server, reference, where);
    EXPECT_EQ(server.MeasureInn(bq.q, bq.k), reference.Inn(bq.q, bq.k)) << where;
    ExpectSamePool(server, reference, where);
  }
}

// The one answering kernel at m = 1 is the iterator it replaced: AnswerKnn
// and MeasureInn against BestFirstNnIterator driven the old way, over
// uniform, hotspot and lattice worlds deep enough for three-level trees,
// in-memory and paged, in both accounting modes.
TEST(BatchDiffTest, SingleQueryKernelMatchesIteratorChargesAndPool) {
  for (int trial = 0; trial < kTrials; ++trial) {
    for (const char* family : {"uniform", "hotspot", "lattice"}) {
      WorldOptions options = VariantFor(trial, std::string(family) == "hotspot");
      options.max_pois = 2500;
      options.max_lattice_side = 45;
      const BatchWorld w = std::string(family) == "lattice"
                               ? BuildLatticeBatchWorld(trial, options)
                               : BuildBatchWorld(trial, options);
      RunKernelVsIterator(w, options, trial, family);
    }
  }
}

// The full pipeline seam: SennProcessor::Execute must equal Prepare + a
// BatchServer drain + Finish — including the case where the same pending
// query is answered inside a genuine shared traversal (duplicated request,
// max_group 2).
TEST(BatchDiffTest, PreparePlusBatchDrainMatchesExecute) {
  int server_bound = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    WorldOptions wopt = VariantFor(trial, trial % 2 == 0);
    BatchWorld w = BuildBatchWorld(trial, wopt);
    // Peer caches: exact server answers near the first query point, the way
    // the simulator's hosts hold them.
    Rng rng = Rng(0x5EA2u).Stream("drain-trial", static_cast<uint64_t>(trial));
    geom::Vec2 q{rng.Uniform(0, batch_testing::kSide),
                 rng.Uniform(0, batch_testing::kSide)};
    const int k = static_cast<int>(rng.UniformInt(1, 10));
    std::vector<CachedResult> caches;
    const int peers = static_cast<int>(rng.UniformInt(0, 5));
    for (int p = 0; p < peers; ++p) {
      CachedResult cached;
      cached.query_location = {q.x + rng.Uniform(-80.0, 80.0),
                               q.y + rng.Uniform(-80.0, 80.0)};
      cached.neighbors =
          w.server->QueryKnn(cached.query_location,
                             static_cast<int>(rng.UniformInt(1, 12)))
              .neighbors;
      if (!cached.Empty()) caches.push_back(std::move(cached));
    }
    std::vector<const CachedResult*> cache_ptrs;
    for (const CachedResult& c : caches) cache_ptrs.push_back(&c);

    SennOptions sopt;
    sopt.server_request_k = std::max(k, 10);
    SennProcessor processor(w.server.get(), sopt);
    SennOutcome sequential = processor.Execute(q, k, cache_ptrs);

    PendingSenn pending = processor.Prepare(q, k, cache_ptrs);
    ASSERT_EQ(pending.needs_server, sequential.resolution == Resolution::kServer)
        << "trial " << trial;
    if (pending.needs_server) {
      ++server_bound;
      BatchQuery bq{pending.q, pending.heap_capacity, pending.outcome.bounds,
                    static_cast<int>(pending.certain.size())};
      BatchOptions options;
      options.max_group = 2;
      BatchServer batch(w.server.get(), options);
      // Duplicate the request: a cluster of two identical queries forces the
      // shared-traversal path (a singleton would delegate to QueryKnn and
      // prove nothing).
      std::vector<ServerReply> replies = batch.AnswerBatch({bq, bq});
      ASSERT_EQ(batch.stats().batched_queries, 2u) << "trial " << trial;
      ExpectSameNeighbors(replies[0].neighbors, replies[1].neighbors, trial, 0,
                          "duplicated request");
      processor.Finish(&pending, replies[0], nullptr);
    }
    ASSERT_EQ(pending.outcome.resolution, sequential.resolution) << "trial " << trial;
    ExpectSameNeighbors(pending.outcome.neighbors, sequential.neighbors, trial, 0,
                        "drained outcome");
    ExpectSameNeighbors(pending.outcome.certain_prefix, sequential.certain_prefix,
                        trial, 0, "drained certified prefix");
  }
  EXPECT_GT(server_bound, kTrials / 8);
}

}  // namespace
}  // namespace senn::core
