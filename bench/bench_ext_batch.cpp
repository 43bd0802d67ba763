// Extension bench: server-side batch answering (src/core/batch_server.h).
//
// The paper's heavy-traffic regime (Figs. 13-16) has many hosts querying
// the same hot areas at once, yet the baseline server pays a full R*-tree
// traversal per query. This bench measures what one shared EINN traversal
// per cluster of co-located queries saves, directly against the server (no
// simulator): a fixed POI world, a fixed query stream, and a sweep of the
// batch-size cap over two workloads —
//   * uniform:  query points uniform over the area (few co-located pairs;
//     batching finds little to share and must not cost anything);
//   * hotspot:  query points concentrated in a few tight disks (the
//     co-location regime batching exists for).
//
// Every sweep point answers the SAME queries (the batch path is bitwise
// answer-identical to sequential — tests/core/batch_diff_test.cpp — so only
// the accounting moves) on a freshly built server with a cold bounded pool,
// making logical and physical page counts directly comparable down the
// column. On the hotspot workload, pages/query must fall strictly as the
// cap grows. Emitted machine-readable as BENCH_batch.json.
//
// Pages are not time, so every sweep point also reports wall-clock
// µs/query (steady_clock, taken here at the bench boundary): the batched
// AnswerBatch call and, next to it, the same queries answered one by one
// with SpatialServer::AnswerKnn — each the median of kTimedReps passes, each
// pass on a freshly built server with a cold pool (construction untimed).
// Both paths do answering work only (measure_inn off), both keep every
// reply until the pass ends, and both answer in the same order: the
// sequential loop walks FormClusters flattened, the order AnswerBatch
// answers in, so at cap 1 the two columns time the same AnswerKnn calls and
// any gap at larger caps is sharing, not the locality of the tile sort.
// That order does not depend on the cap, so the sequential column repeats
// at every cap, which shows the run's timing noise.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/core/batch_server.h"
#include "src/core/server.h"
#include "src/storage/page.h"

namespace {

using namespace senn;

struct Workload {
  const char* name;
  bool hotspot;
};

struct PointResult {
  int max_group;
  uint64_t queries = 0;
  uint64_t shared_clusters = 0;
  double avg_cluster = 0.0;
  double logical_per_query = 0.0;
  double misses_per_query = 0.0;
  uint64_t shared_misses = 0;
  uint64_t private_misses = 0;
  double seq_us_per_query = 0.0;
  double batch_us_per_query = 0.0;
};

constexpr int kTimedReps = 3;

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Fresh server per point: same tree (same build), cold pool, so the
/// physical miss column is comparable across caps.
std::unique_ptr<core::SpatialServer> ColdServer(const std::vector<core::Poi>& pois) {
  storage::BufferPoolOptions pool;
  pool.capacity_pages = 64;
  return std::make_unique<core::SpatialServer>(
      pois, core::SpatialServer::DefaultTreeOptions(), rtree::AccessCountMode::kOnExpand,
      pool);
}

std::vector<core::Poi> BuildPois(uint64_t seed, int n, double side) {
  Rng rng = Rng(seed).Stream("bench-batch-pois");
  std::vector<core::Poi> pois;
  pois.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    pois.push_back({i, {rng.Uniform(0, side), rng.Uniform(0, side)}});
  }
  return pois;
}

std::vector<core::BatchQuery> BuildQueries(uint64_t seed, int n, double side,
                                           bool hotspot, int k) {
  Rng rng = Rng(seed).Stream(hotspot ? "bench-batch-hot" : "bench-batch-uni");
  std::vector<geom::Vec2> centers;
  for (int c = 0; c < 8; ++c) {
    centers.push_back({rng.Uniform(0, side), rng.Uniform(0, side)});
  }
  std::vector<core::BatchQuery> queries;
  queries.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    core::BatchQuery bq;
    if (hotspot && rng.Bernoulli(0.9)) {
      const geom::Vec2& c = centers[rng.NextIndex(centers.size())];
      bq.q = {c.x + rng.Uniform(-25.0, 25.0), c.y + rng.Uniform(-25.0, 25.0)};
    } else {
      bq.q = {rng.Uniform(0, side), rng.Uniform(0, side)};
    }
    bq.k = k;
    queries.push_back(bq);
  }
  return queries;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintRunBanner("Extension: server-side batch answering", args);

  const double side = 30000.0;  // meters
  const int poi_count = args.full ? 100000 : 20000;
  const int query_count = args.full ? 20000 : 2000;
  const int k = 10;
  const std::vector<int> batch_sizes{1, 2, 4, 8, 16, 32};
  const Workload workloads[] = {{"uniform", false}, {"hotspot", true}};

  std::vector<core::Poi> pois = BuildPois(args.seed, poi_count, side);

  std::printf("%d POIs, %d queries, k=%d, 64-frame LRU pool, cold per point\n\n",
              poi_count, query_count, k);
  std::printf("%8s %6s %9s %9s %12s %12s %12s %12s %10s %10s\n", "workload", "cap",
              "clusters", "avg size", "pages/q", "misses/q", "shared", "private",
              "seq us/q", "batch us/q");
  std::printf("csv,workload,max_group,shared_clusters,avg_cluster_size,"
              "logical_pages_per_query,misses_per_query,shared_misses,private_misses,"
              "seq_us_per_query,batch_us_per_query\n");

  std::vector<std::vector<PointResult>> all;
  for (const Workload& wl : workloads) {
    std::vector<core::BatchQuery> queries =
        BuildQueries(args.seed, query_count, side, wl.hotspot, k);
    std::vector<PointResult> column;
    for (int max_group : batch_sizes) {
      core::BatchOptions options;
      options.cluster_cell_m = 200.0;
      options.max_group = max_group;
      std::unique_ptr<core::SpatialServer> server = ColdServer(pois);
      core::BatchServer batch(server.get(), options);
      std::vector<size_t> cluster_sizes;
      Clock::time_point t0 = Clock::now();
      std::vector<core::ServerReply> replies =
          batch.AnswerBatch(queries, nullptr, nullptr, &cluster_sizes);
      std::vector<double> batch_us{MicrosSince(t0)};
      std::vector<size_t> answer_order;
      answer_order.reserve(queries.size());
      for (const std::vector<size_t>& cluster : batch.FormClusters(queries)) {
        answer_order.insert(answer_order.end(), cluster.begin(), cluster.end());
      }
      std::vector<double> seq_us;
      // Batched and sequential passes alternate (the batched pass above is
      // the first), so host drift moves both columns alike.
      for (int rep = 0; rep < kTimedReps; ++rep) {
        std::unique_ptr<core::SpatialServer> seq_server = ColdServer(pois);
        t0 = Clock::now();
        {
          std::vector<core::ServerReply> seq_replies(queries.size());
          for (size_t i : answer_order) {
            const core::BatchQuery& q = queries[i];
            seq_replies[i] = seq_server->AnswerKnn(q.q, q.k, q.bounds, q.already_certified);
          }
        }
        seq_us.push_back(MicrosSince(t0));
        if (rep + 1 == kTimedReps) break;
        std::unique_ptr<core::SpatialServer> batch_server = ColdServer(pois);
        core::BatchServer timed(batch_server.get(), options);
        t0 = Clock::now();
        timed.AnswerBatch(queries);
        batch_us.push_back(MicrosSince(t0));
      }

      PointResult p;
      p.max_group = max_group;
      p.queries = batch.stats().queries;
      p.shared_clusters = batch.stats().clusters;
      p.avg_cluster =
          cluster_sizes.empty()
              ? 0.0
              : static_cast<double>(p.queries) / static_cast<double>(cluster_sizes.size());
      uint64_t logical = 0;
      uint64_t misses = 0;
      for (const core::ServerReply& r : replies) {
        logical += r.einn_accesses.total();
        misses += r.einn_accesses.misses();
      }
      p.logical_per_query = static_cast<double>(logical) / static_cast<double>(p.queries);
      p.misses_per_query = static_cast<double>(misses) / static_cast<double>(p.queries);
      p.shared_misses = batch.stats().shared_traversal.shared_misses;
      p.private_misses = batch.stats().shared_traversal.private_misses;
      p.seq_us_per_query = Median(seq_us) / static_cast<double>(p.queries);
      p.batch_us_per_query = Median(batch_us) / static_cast<double>(p.queries);
      column.push_back(p);

      std::printf("%8s %6d %9llu %9.2f %12.3f %12.3f %12llu %12llu %10.3f %10.3f\n",
                  wl.name, max_group, static_cast<unsigned long long>(p.shared_clusters),
                  p.avg_cluster, p.logical_per_query, p.misses_per_query,
                  static_cast<unsigned long long>(p.shared_misses),
                  static_cast<unsigned long long>(p.private_misses), p.seq_us_per_query,
                  p.batch_us_per_query);
      std::printf("csv,%s,%d,%llu,%.4f,%.4f,%.4f,%llu,%llu,%.4f,%.4f\n", wl.name,
                  max_group, static_cast<unsigned long long>(p.shared_clusters),
                  p.avg_cluster, p.logical_per_query, p.misses_per_query,
                  static_cast<unsigned long long>(p.shared_misses),
                  static_cast<unsigned long long>(p.private_misses), p.seq_us_per_query,
                  p.batch_us_per_query);
    }
    all.push_back(std::move(column));
  }

  // The claim the sweep exists to demonstrate: on the hotspot workload the
  // per-query page cost falls STRICTLY with the batch-size cap.
  bool strict = true;
  const std::vector<PointResult>& hot = all[1];
  for (size_t i = 1; i < hot.size(); ++i) {
    if (!(hot[i].logical_per_query < hot[i - 1].logical_per_query)) strict = false;
  }
  std::printf("\nhotspot pages/query strictly decreasing with the cap: %s\n",
              strict ? "yes" : "NO — sharing regressed");

  const char* json_path = "BENCH_batch.json";
  std::FILE* f = std::fopen(json_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(f,
               "{\"seed\":%llu,\"mode\":\"%s\",\"pois\":%d,\"queries\":%d,\"k\":%d,"
               "\"hotspot_strictly_decreasing\":%s,\"workloads\":[",
               static_cast<unsigned long long>(args.seed), args.full ? "full" : "quick",
               poi_count, query_count, k, strict ? "true" : "false");
  for (size_t w = 0; w < 2; ++w) {
    std::fprintf(f, "%s{\"workload\":\"%s\",\"sweep\":[", w > 0 ? "," : "",
                 workloads[w].name);
    for (size_t i = 0; i < all[w].size(); ++i) {
      const PointResult& p = all[w][i];
      std::fprintf(f,
                   "%s{\"max_group\":%d,\"shared_clusters\":%llu,"
                   "\"avg_cluster_size\":%.4f,\"logical_pages_per_query\":%.4f,"
                   "\"misses_per_query\":%.4f,\"shared_misses\":%llu,"
                   "\"private_misses\":%llu,\"seq_us_per_query\":%.4f,"
                   "\"batch_us_per_query\":%.4f}",
                   i > 0 ? "," : "", p.max_group,
                   static_cast<unsigned long long>(p.shared_clusters), p.avg_cluster,
                   p.logical_per_query, p.misses_per_query,
                   static_cast<unsigned long long>(p.shared_misses),
                   static_cast<unsigned long long>(p.private_misses), p.seq_us_per_query,
                   p.batch_us_per_query);
    }
    std::fprintf(f, "]}");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("json: %s\n", json_path);
  return strict ? 0 : 1;
}
