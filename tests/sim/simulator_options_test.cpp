// Tests of the simulator's modeling options: M_Percentage interpretation,
// page-accounting mode, SENN ablation switches, and the qualitative sweep
// shapes the paper's figures rest on.
#include <gtest/gtest.h>

#include "src/sim/simulator.h"

namespace senn::sim {
namespace {

SimulationConfig Base(Region region, uint64_t seed) {
  SimulationConfig cfg;
  cfg.params = Table3(region);
  cfg.mode = MovementMode::kFreeMovement;  // cheapest
  cfg.seed = seed;
  cfg.duration_s = 600.0;
  cfg.warmup_fraction = 0.25;
  return cfg;
}

TEST(SimulatorOptionsTest, StationaryFractionLowersServerLoad) {
  SimulationConfig duty = Base(Region::kLosAngeles, 3);
  SimulationConfig frac = Base(Region::kLosAngeles, 3);
  frac.m_percentage_mode = MPercentageMode::kStationaryFraction;
  double duty_server = Simulator(duty).Run().pct_server;
  double frac_server = Simulator(frac).Run().pct_server;
  // Permanently-stationary hosts are immortal cache providers.
  EXPECT_LT(frac_server, duty_server);
}

TEST(SimulatorOptionsTest, StationaryFractionKeepsSomeHostsStill) {
  SimulationConfig cfg = Base(Region::kLosAngeles, 4);
  cfg.m_percentage_mode = MPercentageMode::kStationaryFraction;
  Simulator sim(cfg);
  int moving = 0;
  for (const auto& host : sim.hosts()) moving += host->moving();
  double fraction = static_cast<double>(moving) / static_cast<double>(sim.hosts().size());
  EXPECT_NEAR(fraction, 0.8, 0.08);
}

TEST(SimulatorOptionsTest, DutyCycleMovesEveryone) {
  SimulationConfig cfg = Base(Region::kLosAngeles, 5);
  Simulator sim(cfg);
  for (const auto& host : sim.hosts()) EXPECT_TRUE(host->moving());
}

TEST(SimulatorOptionsTest, EnqueueAccountingCountsMorePages) {
  SimulationConfig expand = Base(Region::kRiverside, 6);
  SimulationConfig enqueue = Base(Region::kRiverside, 6);
  enqueue.page_count_mode = rtree::AccessCountMode::kOnEnqueue;
  SimulationResult expand_r = Simulator(expand).Run();
  SimulationResult enqueue_r = Simulator(enqueue).Run();
  ASSERT_GT(expand_r.by_server, 0u);
  EXPECT_GE(enqueue_r.inn_pages.mean(), expand_r.inn_pages.mean());
}

TEST(SimulatorOptionsTest, DisablingMultiPeerShiftsLoadToServer) {
  SimulationConfig with = Base(Region::kLosAngeles, 7);
  SimulationConfig without = Base(Region::kLosAngeles, 7);
  without.senn.enable_multi_peer = false;
  SimulationResult with_r = Simulator(with).Run();
  SimulationResult without_r = Simulator(without).Run();
  EXPECT_EQ(without_r.by_multi_peer, 0u);
  EXPECT_GE(without_r.pct_server, with_r.pct_server);
}

TEST(SimulatorOptionsTest, PolygonizedBackendStaysExactButShiftsCounts) {
  SimulationConfig poly = Base(Region::kLosAngeles, 8);
  poly.senn.multi_peer.backend = core::CoverageBackend::kPolygonized;
  poly.senn.multi_peer.polygonize.sides = 16;
  SimulationResult r = Simulator(poly).Run();
  // Conservative coverage can only push queries toward the server, never
  // corrupt them; the run must simply complete with consistent accounting.
  EXPECT_EQ(r.by_single_peer + r.by_multi_peer + r.by_server, r.measured_queries);
}

TEST(SimulatorOptionsTest, TxRangeSweepIsBroadlyMonotone) {
  // The Figure 9 shape: server load at 200 m is clearly below 20 m.
  SimulationConfig narrow = Base(Region::kLosAngeles, 9);
  narrow.params.tx_range_m = 20.0;
  narrow.duration_s = 1200.0;
  SimulationConfig wide = Base(Region::kLosAngeles, 9);
  wide.params.tx_range_m = 200.0;
  wide.duration_s = 1200.0;
  EXPECT_GT(Simulator(narrow).Run().pct_server, Simulator(wide).Run().pct_server + 10.0);
}

TEST(SimulatorOptionsTest, KSweepRaisesServerLoad) {
  // The Figure 15 shape: larger k is harder to certify.
  SimulationConfig small_k = Base(Region::kLosAngeles, 10);
  small_k.params.k_nn = 1;
  small_k.duration_s = 1200.0;
  SimulationConfig big_k = Base(Region::kLosAngeles, 10);
  big_k.params.k_nn = 9;
  big_k.duration_s = 1200.0;
  EXPECT_LT(Simulator(small_k).Run().pct_server, Simulator(big_k).Run().pct_server);
}

TEST(SimulatorOptionsTest, ExplicitPauseOverridesDerived) {
  SimulationConfig cfg = Base(Region::kRiverside, 11);
  cfg.mean_pause_s = 1e6;  // hosts effectively never move after first pause
  SimulationResult r = Simulator(cfg).Run();
  EXPECT_GT(r.measured_queries, 0u);
}

TEST(SimulatorOptionsTest, FullTExecutionUsedWhenDurationUnset) {
  SimulationConfig cfg = Base(Region::kRiverside, 12);
  cfg.duration_s = -1.0;  // use the paper's T_execution (1 hour)
  SimulationResult r = Simulator(cfg).Run();
  EXPECT_DOUBLE_EQ(r.simulated_seconds, 3600.0);
}

}  // namespace
}  // namespace senn::sim
