// perfbench --workload NAME --seed N --seconds S --trace 0|1 [--size tiny]
//
// Runs one workload and prints its report; the last stdout line is the JSON
// result. Exit status 0 means the run completed (its `correct` field says
// whether the oracle passed); 2 means bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "hostspeed.h"
#include "report.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--size full|tiny]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("--seed must be a non-negative integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0)) return Usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace must be 0 or 1");
      }
      args.trace = value[0] == '1';
    } else if (flag == "--size") {
      if (std::strcmp(value, "tiny") == 0) {
        args.size = perfbench::Size::kTiny;
      } else if (std::strcmp(value, "full") != 0) {
        return Usage("--size must be full or tiny");
      }
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  // Before any thread starts: every thread of the run shares the CPU.
  const int cpu = perfbench::PinToOneCpu();
  perfbench::Report report;
  if (args.workload == "serve_hotspot_batch") {
    report = perfbench::RunServe(args);
  } else if (args.workload == "sim_la_road") {
    report = perfbench::RunSim(args);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  report.Note(cpu >= 0 ? "all threads pinned to cpu " + std::to_string(cpu)
                       : std::string("not pinned: sched_setaffinity failed"));
  perfbench::Print(report, args);
  return 0;
}
