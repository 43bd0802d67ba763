#include "src/core/server.h"

#include <algorithm>

#include "src/core/range.h"
#include "src/obs/trace.h"
#include "src/rtree/bulk_load.h"

namespace senn::core {

SpatialServer::SpatialServer(std::vector<Poi> pois, rtree::RStarTree::Options tree_options,
                             rtree::AccessCountMode count_mode,
                             std::optional<storage::BufferPoolOptions> storage)
    : pois_(std::move(pois)), tree_(tree_options), count_mode_(count_mode) {
  // Static POI sets are packed with STR: tighter leaves and much faster
  // construction than one-at-a-time insertion for county-scale data.
  std::vector<rtree::ObjectEntry> entries;
  entries.reserve(pois_.size());
  for (const Poi& poi : pois_) entries.push_back({poi.position, poi.id});
  tree_ = rtree::BulkLoad(std::move(entries), tree_options);
  if (storage.has_value()) {
    pager_ = std::make_unique<storage::NodePager>(&tree_, *storage);
  }
}

template <typename Traversal>
void SpatialServer::TraceBufferFetch(obs::QueryTracer* tracer, Traversal&& traverse) {
  obs::ScopedSpan fetch(pager_ != nullptr ? tracer : nullptr, obs::Phase::kBufferFetch);
  const storage::BufferPoolStats before =
      fetch.active() ? pager_->pool().stats() : storage::BufferPoolStats{};
  traverse();
  if (fetch.active()) {
    const storage::BufferPoolStats& after = pager_->pool().stats();
    fetch.AddArg("hits", after.hits - before.hits);
    fetch.AddArg("misses", after.misses - before.misses);
    fetch.AddArg("evictions", after.evictions - before.evictions);
  }
}

ServerReply SpatialServer::QueryKnn(geom::Vec2 q, int k, rtree::PruneBounds bounds,
                                    int already_certified, obs::QueryTracer* tracer) {
  ServerReply reply = AnswerKnn(q, k, bounds, already_certified, tracer);
  reply.inn_accesses = MeasureInn(q, k);
  return reply;
}

ServerReply SpatialServer::AnswerKnn(geom::Vec2 q, int k, rtree::PruneBounds bounds,
                                     int already_certified, obs::QueryTracer* tracer) {
  ServerReply reply;
  const rtree::KnnQuery query{q, k, bounds, std::max(0, k - already_certified)};
  TraceBufferFetch(tracer, [&] { AnswerGroup({&query, 1}, {&reply, 1}); });
  return reply;
}

void SpatialServer::AnswerGroup(std::span<const rtree::KnnQuery> group,
                                std::span<ServerReply> replies,
                                rtree::AccessCounter* group_accesses) {
  knn_.Run(tree_, group, count_mode_, pager_.get(), group_accesses);
  for (size_t j = 0; j < group.size(); ++j) {
    ServerReply& reply = replies[j];
    const std::span<const rtree::Neighbor> found = knn_.neighbors(j);
    reply.neighbors.clear();
    reply.neighbors.reserve(found.size());
    for (const rtree::Neighbor& n : found) {
      reply.neighbors.push_back({n.object.id, n.object.position, n.distance});
    }
    reply.einn_accesses = knn_.accesses(j);
    reply.inn_accesses = rtree::AccessCounter{};
    ++stats_.queries;
    stats_.einn += reply.einn_accesses;
  }
}

rtree::AccessCounter SpatialServer::MeasureInn(geom::Vec2 q, int k) {
  const rtree::KnnQuery query{q, k, rtree::PruneBounds{}, k};
  knn_.Run(tree_, {&query, 1}, count_mode_);
  stats_.inn += knn_.accesses(0);
  return knn_.accesses(0);
}

ServerReply SpatialServer::QueryRange(geom::Vec2 q, double radius, double inner) {
  ServerReply reply;
  reply.neighbors =
      PrunedCircleQuery(tree_, q, radius, inner, &reply.einn_accesses, pager_.get());
  // Comparison run: the same range scan without the client's certain disk.
  PrunedCircleQuery(tree_, q, radius, 0.0, &reply.inn_accesses);
  ++stats_.queries;
  stats_.einn += reply.einn_accesses;
  stats_.inn += reply.inn_accesses;
  return reply;
}

}  // namespace senn::core
