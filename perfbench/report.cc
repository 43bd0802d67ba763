#include "report.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"qps", "1/s"},
      {"latency_p50_us", "us"},
      {"latency_p90_us", "us"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"rpc.server.avg_group_size", "count"},
      {"rpc.server.shed", "count"},
      {"rpc.server.framing_errors", "count"},
      {"rpc.client.latency_p99_us", "us"},
      {"rpc.client.latency_max_us", "us"},
      {"rpc.wire.req_encode_ns", "ns"},
      {"rpc.wire.req_decode_ns", "ns"},
      {"rpc.wire.reply_encode_ns", "ns"},
      {"rpc.wire.reply_decode_ns", "ns"},
      {"rpc.wire.reply_bytes", "B"},
      {"rpc.service.answer_us_per_req", "us"},
      {"rpc.service.busy_frac", "frac"},
      {"core.server.query_knn_us", "us"},
      {"rtree.inn_us", "us"},
      {"rtree.einn_pages_per_query", "count"},
      {"rtree.inn_pages_per_query", "count"},
      {"core.batch.answer_us_per_query", "us"},
      {"core.batch.sequential_us_per_query", "us"},
      {"core.batch.speedup", "x"},
      {"core.batch.avg_cluster_size", "count"},
      {"core.batch.shared_frac", "frac"},
      {"storage.pool.hit_rate", "frac"},
      {"storage.pool.misses_per_query", "count"},
      {"storage.pool.evictions_per_query", "count"},
      {"process.cpu_us_per_query", "us"},
      {"process.cpu_util", "cores"},
      {"rtree.build_s", "s"},
      {"sim.by_single_peer_frac", "frac"},
      {"sim.by_multi_peer_frac", "frac"},
      {"sim.by_server_frac", "frac"},
      {"sim.peers_per_query", "count"},
      {"obs.spans_per_query.peer_harvest", "count"},
      {"obs.spans_per_query.net_exchange", "count"},
      {"obs.spans_per_query.verify_single", "count"},
      {"obs.spans_per_query.verify_multi", "count"},
      {"obs.spans_per_query.heap_classify", "count"},
      {"obs.spans_per_query.server_einn", "count"},
      {"sim.grid.query_radius_us", "us"},
      {"core.single_peer.verify_us", "us"},
      {"core.multi_peer.verify_us", "us"},
      {"core.senn.prepare_us", "us"},
      {"mobility.advance_us", "us"},
      {"roadnet.generate_s", "s"},
      {"sim.unattributed_frac", "frac"},
      {"sim.trace_overhead_frac", "frac"},
  };
  return specs;
}

void CompletePerLayer(Report* report) {
  std::map<std::string, Metric> have;
  for (Metric& m : report->metrics) have[m.name] = std::move(m);
  report->metrics.clear();
  for (const MetricSpec& spec : PerLayerMetrics()) {
    auto it = have.find(spec.name);
    if (it != have.end()) {
      report->metrics.push_back(std::move(it->second));
      have.erase(it);
    } else {
      report->metrics.push_back({spec.name, spec.unit, 0.0, "", false});
    }
  }
  // Anything left is not a declared per-layer metric: keep it visible so the
  // self-test catches the stray name.
  for (auto& [name, m] : have) report->metrics.push_back(std::move(m));
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::optional<std::vector<double>> InChild(size_t count,
                                           const std::function<std::vector<double>()>& fn) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    close(fds[0]);
    const std::vector<double> values = fn();
    const size_t bytes = values.size() * sizeof(double);
    const bool ok = values.size() == count &&
                    write(fds[1], values.data(), bytes) == static_cast<ssize_t>(bytes);
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  std::vector<double> values(count);
  size_t got = 0;
  while (got < count * sizeof(double)) {
    const ssize_t n = read(fds[0], reinterpret_cast<char*>(values.data()) + got,
                           count * sizeof(double) - got);
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != count * sizeof(double) || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return std::nullopt;
  }
  return values;
}

bool SameBits(const std::vector<senn::core::RankedPoi>& a,
              const std::vector<senn::core::RankedPoi>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id) return false;
    const double av[3] = {a[i].position.x, a[i].position.y, a[i].distance};
    const double bv[3] = {b[i].position.x, b[i].position.y, b[i].distance};
    for (int j = 0; j < 3; ++j) {
      if (std::bit_cast<uint64_t>(av[j]) != std::bit_cast<uint64_t>(bv[j])) return false;
    }
  }
  return true;
}

void Print(const Report& report, const RunArgs& args) {
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  for (const std::string& line : report.notes) std::printf("# %s\n", line.c_str());
  std::printf("# %-40s %16s %-6s %s\n", "metric", "value", "unit", "base / note");
  for (const Metric& m : report.metrics) {
    std::string note = m.applies ? m.base : "n/a: layer not run by this workload";
    std::printf("# %-40s %16.6g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                note.c_str());
  }
  std::printf("# correct=%s attempted=%llu failed=%llu\n", report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
