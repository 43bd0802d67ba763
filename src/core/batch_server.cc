#include "src/core/batch_server.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace senn::core {

namespace {

/// Canonical content order within a tile: co-located requests with equal
/// parameters are interchangeable, so sorting by content (input index as the
/// final tie) makes the cluster assignment invariant under input shuffles.
/// Not a distance rank — a total order over request tuples.
bool ContentBefore(const BatchQuery& a, const BatchQuery& b) {
  if (a.q.x != b.q.x) return a.q.x < b.q.x;
  if (a.q.y != b.q.y) return a.q.y < b.q.y;
  if (a.k != b.k) return a.k < b.k;
  if (a.already_certified != b.already_certified) {
    return a.already_certified < b.already_certified;
  }
  if (a.bounds.lower.has_value() != b.bounds.lower.has_value()) {
    return b.bounds.lower.has_value();
  }
  if (a.bounds.lower.has_value() && *a.bounds.lower != *b.bounds.lower) {
    return *a.bounds.lower < *b.bounds.lower;
  }
  if (a.bounds.lower_id_cut != b.bounds.lower_id_cut) {
    return a.bounds.lower_id_cut < b.bounds.lower_id_cut;
  }
  if (a.bounds.upper.has_value() != b.bounds.upper.has_value()) {
    return b.bounds.upper.has_value();
  }
  if (a.bounds.upper.has_value() && *a.bounds.upper != *b.bounds.upper) {
    return *a.bounds.upper < *b.bounds.upper;
  }
  return false;
}

}  // namespace

BatchServer::BatchServer(SpatialServer* server, BatchOptions options)
    : server_(server), options_(options) {
  if (options_.cluster_cell_m <= 0.0) options_.cluster_cell_m = 1.0;
  if (options_.max_group < 1) options_.max_group = 1;
}

template <typename Visit>
void BatchServer::ForEachCluster(const std::vector<BatchQuery>& queries, Visit&& visit) {
  // The neighbor_grid tiling idiom: queries land in square tiles by floor
  // division, so co-located points share a tile and a point exactly on a
  // boundary belongs to the higher tile. One sort orders the tiles by
  // (x-tile, y-tile) and the members within a tile canonically.
  const double cell = options_.cluster_cell_m;
  tile_of_.resize(queries.size());
  member_order_.resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const geom::Vec2 p = queries[i].q;
    tile_of_[i] = {static_cast<int64_t>(std::floor(p.x / cell)),
                   static_cast<int64_t>(std::floor(p.y / cell))};
    member_order_[i] = i;
  }
  std::sort(member_order_.begin(), member_order_.end(), [&](size_t a, size_t b) {
    if (tile_of_[a] != tile_of_[b]) return tile_of_[a] < tile_of_[b];
    if (ContentBefore(queries[a], queries[b])) return true;
    if (ContentBefore(queries[b], queries[a])) return false;
    return a < b;  // content-identical: interchangeable, keep input order
  });
  const size_t cap = static_cast<size_t>(options_.max_group);
  for (size_t begin = 0; begin < member_order_.size();) {
    size_t tile_end = begin + 1;
    while (tile_end < member_order_.size() &&
           tile_of_[member_order_[tile_end]] == tile_of_[member_order_[begin]]) {
      ++tile_end;
    }
    for (; begin < tile_end; begin += std::min(cap, tile_end - begin)) {
      visit(std::span<const size_t>(member_order_).subspan(
          begin, std::min(cap, tile_end - begin)));
    }
  }
}

std::vector<std::vector<size_t>> BatchServer::FormClusters(
    const std::vector<BatchQuery>& queries) {
  std::vector<std::vector<size_t>> clusters;
  ForEachCluster(queries, [&](std::span<const size_t> members) {
    clusters.emplace_back(members.begin(), members.end());
  });
  return clusters;
}

std::vector<ServerReply> BatchServer::AnswerBatch(const std::vector<BatchQuery>& queries,
                                                  obs::QueryTracer* tracer,
                                                  obs::MetricsRegistry* metrics,
                                                  std::vector<size_t>* cluster_sizes) {
  std::vector<ServerReply> replies(queries.size());
  ForEachCluster(queries, [&](std::span<const size_t> members) {
    if (cluster_sizes != nullptr) cluster_sizes->push_back(members.size());
    if (members.size() == 1) {
      // Sequential delegation: a cluster of one is exactly a QueryKnn call
      // (ServerStats bookkeeping included), which is what makes batch size 1
      // byte-identical to the sequential server path — or its answering
      // half alone when the comparison INN pass is off.
      const BatchQuery& bq = queries[members.front()];
      replies[members.front()] =
          options_.measure_inn
              ? server_->QueryKnn(bq.q, bq.k, bq.bounds, bq.already_certified, tracer)
              : server_->AnswerKnn(bq.q, bq.k, bq.bounds, bq.already_certified, tracer);
      ++stats_.queries;
      ++stats_.singleton_queries;
      return;
    }
    AnswerCluster(queries, members, &replies, tracer, metrics);
  });
  return replies;
}

void BatchServer::AnswerCluster(const std::vector<BatchQuery>& queries,
                                std::span<const size_t> members,
                                std::vector<ServerReply>* replies,
                                obs::QueryTracer* tracer, obs::MetricsRegistry* metrics) {
  const size_t m = members.size();
  obs::ScopedSpan span(tracer, obs::Phase::kServerBatchEinn);

  group_.clear();
  for (size_t i : members) {
    const BatchQuery& bq = queries[i];
    group_.push_back({bq.q, bq.k, bq.bounds, std::max(0, bq.k - bq.already_certified)});
  }
  if (group_replies_.size() < m) group_replies_.resize(m);
  rtree::AccessCounter cluster_counter;
  server_->AnswerGroup(group_, std::span<ServerReply>(group_replies_).first(m),
                       &cluster_counter);
  for (size_t j = 0; j < m; ++j) {
    ServerReply& reply = (*replies)[members[j]];
    reply = std::move(group_replies_[j]);
    // The comparison INN run, per query and never through the pool, exactly
    // like the sequential QueryKnn.
    if (options_.measure_inn) reply.inn_accesses = server_->MeasureInn(group_[j].q, group_[j].k);
  }

  stats_.queries += m;
  stats_.batched_queries += m;
  stats_.clusters += 1;
  stats_.shared_traversal += cluster_counter;

  span.AddArg("queries", m);
  span.AddArg("pages", cluster_counter.total());
  span.AddArg("misses", cluster_counter.misses());
  span.AddArg("shared_misses", cluster_counter.shared_misses);
  if (metrics != nullptr) {
    metrics->Inc("batch/clusters");
    metrics->Inc("batch/batched_queries", m);
    metrics->Observe("batch/cluster_size", static_cast<double>(m));
    metrics->Observe("batch/cluster_pages", static_cast<double>(cluster_counter.total()));
    metrics->Observe("batch/cluster_misses",
                     static_cast<double>(cluster_counter.misses()));
    metrics->Observe("batch/cluster_shared_misses",
                     static_cast<double>(cluster_counter.shared_misses));
  }
}

}  // namespace senn::core
