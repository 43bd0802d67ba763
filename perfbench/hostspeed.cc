#include "hostspeed.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <queue>

namespace perfbench {
namespace {

constexpr size_t kTableSize = size_t{1} << 17;  // 1 MiB of doubles
constexpr int kSearches = 30000;                // about 10 ms on the tuning host
constexpr size_t kScan = 8;

uint64_t XorShift(uint64_t* x) {
  *x ^= *x << 13;
  *x ^= *x >> 7;
  *x ^= *x << 17;
  return *x;
}

double Unit(uint64_t bits) { return static_cast<double>(bits >> 11) * 0x1.0p-53; }

}  // namespace

HostSpeed::HostSpeed() : table_(kTableSize) {
  uint64_t x = 88172645463325252ull;
  for (double& v : table_) v = Unit(XorShift(&x));
  std::sort(table_.begin(), table_.end());
  (void)Probe();  // fault the table in and warm the caches
}

double HostSpeed::Probe() const {
  const auto t0 = std::chrono::steady_clock::now();
  uint64_t x = 0x9E3779B97F4A7C15ull;
  std::priority_queue<double> nearest;
  double checksum = 0.0;
  for (int i = 0; i < kSearches; ++i) {
    const double q = Unit(XorShift(&x));
    const size_t j = static_cast<size_t>(std::lower_bound(table_.begin(), table_.end(), q) - table_.begin());
    for (size_t t = j; t < std::min(table_.size(), j + kScan); ++t) {
      const double d = std::abs(table_[t] - q);
      if (nearest.size() < kScan) {
        nearest.push(d);
      } else if (d < nearest.top()) {
        nearest.pop();
        nearest.push(d);
      }
    }
    if (!nearest.empty()) checksum += nearest.top();
    while (!nearest.empty()) nearest.pop();
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  // The checksum is never negative; testing it keeps the loop live.
  return checksum < 0.0 ? 0.0 : seconds;
}

int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

}  // namespace perfbench
