// Shared pieces of the wall-clock benchmark: the per-run report every
// workload fills, timing helpers, and the bitwise reply oracle.
//
// A run prints two things: a human-readable table (every metric with its
// unit and the base of each ratio) and, as the last line of stdout, one
// JSON object {correct, attempted, failed, metrics}. With --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set; both
// sets are listed in BENCHMARK.json and in EndToEndMetrics() and
// PerLayerMetrics() below.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/core/types.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One reported number. `base` names the denominator of a ratio ("" for
/// plain times and counts); `applies` is false when the workload does not
/// exercise the layer, in which case the value is 0 and the table says so.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string base;
  bool applies = true;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the table (parameters, oracle).
  std::vector<std::string> notes;

  void Add(std::string name, std::string unit, double value, std::string base = "") {
    metrics.push_back({std::move(name), std::move(unit), value, std::move(base), true});
  }
  void Note(std::string line) { notes.push_back(std::move(line)); }
};

/// Input sizes. `Full` is the benchmark; `Tiny` keeps the self-test fast.
enum class Size { kFull, kTiny };

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
};

/// The per-layer metric names and units, in print order. Every workload
/// reports every one of them; a layer the workload does not run reports 0
/// with applies = false.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

/// Fills in every per-layer metric the workload did not report (value 0,
/// applies = false) and orders the list like PerLayerMetrics().
void CompletePerLayer(Report* report);

/// Exact quantile of `values` (nearest rank on a sorted copy); 0 if empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Median over `passes` runs of `pass` of the time per item, in units of
/// `scale` per second (1e6 for µs); `pass` returns how many items it did.
template <typename Pass>
double MedianPerItem(int passes, double scale, Pass pass) {
  std::vector<double> per_item;
  for (int p = 0; p < passes; ++p) {
    const Clock::time_point t0 = Clock::now();
    const size_t items = pass();
    if (items > 0) per_item.push_back(SecondsSince(t0) * scale / static_cast<double>(items));
  }
  return Median(per_item);
}

/// Peak resident set size of this process, MiB.
double PeakRssMb();
/// User + system CPU seconds of this process so far.
double ProcessCpuSeconds();

/// Runs `fn` in a forked child process and returns the `count` numbers it
/// produced; nullopt if the child failed or produced a different count.
/// Call only while this process runs a single thread.
std::optional<std::vector<double>> InChild(size_t count,
                                           const std::function<std::vector<double>()>& fn);

/// Bitwise equality of two neighbour lists: same length, same ids, and the
/// same IEEE-754 bit patterns for every position and distance.
bool SameBits(const std::vector<senn::core::RankedPoi>& a,
              const std::vector<senn::core::RankedPoi>& b);

/// Prints the notes, the metric table and the final JSON line to stdout.
void Print(const Report& report, const RunArgs& args);

}  // namespace perfbench
