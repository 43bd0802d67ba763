// How fast the host runs this process right now, measured with a fixed
// reference kernel that shares no code with the program under test.
//
// The machines this benchmark runs on are virtual CPUs of a shared host,
// and their speed swings by up to a third in phases of seconds to minutes
// as other tenants load the same cores; a whole run can fall into a slow
// phase. So every timed unit of a run (a slice of a serve window, a sim
// repetition) is bracketed by probes, and the end-to-end times are scaled
// by kNominalProbeS / (mean probe seconds around the unit): they read as
// the times the program would take on a host that runs the probe in
// exactly kNominalProbeS. The kernel (binary searches into a 1 MiB sorted
// table, each followed by a bounded max-heap over the next entries) is
// load- and branch-bound like the index searches it stands beside, so the
// host's phases move both alike; a change to the program moves only the
// program. Raw times are printed beside the scaled ones.
#pragma once

#include <vector>

namespace perfbench {

/// The probe time that defines scale 1.
inline constexpr double kNominalProbeS = 0.010;

class HostSpeed {
 public:
  HostSpeed();

  /// Runs the kernel once on the calling thread; returns its seconds.
  double Probe() const;

  /// kNominalProbeS / the mean of two probes: the factor that takes a time
  /// measured between them to the nominal host speed.
  static double Scale(double probe_before_s, double probe_after_s) {
    return kNominalProbeS / (0.5 * (probe_before_s + probe_after_s));
  }

 private:
  std::vector<double> table_;
};

/// Pins the calling thread, and so every thread it starts later, to one
/// virtual CPU: the highest-numbered one this process may use. A probe
/// tracks the speed of the CPU it runs on, and the host slows its virtual
/// CPUs unevenly, so the timed work and the probes share one CPU. Returns
/// the CPU, or -1 if pinning failed (the run then goes on unpinned).
int PinToOneCpu();

}  // namespace perfbench
