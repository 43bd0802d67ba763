// sim_la_road: the in-process Simulator on the LA road network.
//
// Parameters: Table 4's Los Angeles column scaled 1/3 linear (13,500 hosts,
// 450 POIs, 900 queries/min, k = 5, C_Size 20, Tx_Range 200 m, 30 mph) on
// the synthesized road network, ideal channel, sequential in-process
// server, one thread. Each repetition constructs a Simulator (set-up: world,
// road network, warm start) and runs 600 simulated seconds; repetitions
// continue until set-ups and runs together have spent the run's seconds.
// Every repetition uses the same seed, so each one repeats the same work and
// must print the same report JSON. The first repetition runs with no span
// sink; its report is the oracle's reference and its Run() wall the base of
// the tracing-overhead ratio. The others carry the step clock below, which
// the end-to-end times come from.
//
// The warm-up fraction is 0 — the warm start already primes the caches — so
// every executed query is measured and wall seconds per simulated hour are
// exactly (queries per simulated hour) / qps.
//
// End-to-end latency: the simulator exposes no per-query timing outside
// Simulator::Run. What a simulator user waits for is simulated time, so the
// latency metrics here are wall microseconds per simulated second (one
// step: mobility plus that second's queries), percentiles over the steps of
// every sampled repetition. A span sink on every 16th query observes the
// step boundaries and, every 250 ms of wall, pauses the run for a host-speed
// probe (see hostspeed.h); times are scaled stretch by stretch between
// probes, with the probes left out. Sinks are invisible to the results (the
// oracle checks this).
//
// Oracle: measured_queries == by_single_peer + by_multi_peer + by_server in
// every repetition, and every repetition's report JSON — sampled-sink ones
// and, with --trace 1, the fully traced run — is byte-identical to the first
// repetition's, which runs with no span sink at all.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/batch_server.h"
#include "src/core/candidate_heap.h"
#include "src/core/multi_peer.h"
#include "src/core/senn.h"
#include "src/core/single_peer.h"
#include "src/obs/trace.h"
#include "src/roadnet/generator.h"
#include "src/rtree/knn.h"
#include "src/sim/neighbor_grid.h"
#include "src/sim/params.h"
#include "src/sim/report.h"
#include "src/sim/simulator.h"
#include "hostspeed.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace senn;

constexpr uint64_t kLatencySampleEvery = 16;

struct SimPlan {
  sim::SimulationConfig config;
  /// Minimum repetitions, whatever the time budget.
  int min_reps = 4;
  /// Hosts in the per-layer replay sample.
  int replay_hosts = 512;
  int replay_passes = 5;
};

sim::ParameterSet ScaledLa(double linear) {
  sim::ParameterSet p = sim::Table4(sim::Region::kLosAngeles);
  const double area = linear * linear;
  p.area_side_miles /= linear;
  p.poi_number = std::max(1, static_cast<int>(p.poi_number / area + 0.5));
  p.mh_number = std::max(1, static_cast<int>(p.mh_number / area + 0.5));
  p.queries_per_minute /= area;
  return p;
}

SimPlan PlanFor(const RunArgs& args) {
  SimPlan plan;
  sim::SimulationConfig& cfg = plan.config;
  const bool tiny = args.size == Size::kTiny;
  cfg.params = ScaledLa(tiny ? 10.0 : 3.0);
  cfg.mode = sim::MovementMode::kRoadNetwork;
  cfg.seed = args.seed;
  cfg.duration_s = tiny ? 60.0 : 600.0;
  cfg.warmup_fraction = 0.0;
  if (tiny) {
    plan.min_reps = 2;
    plan.replay_hosts = 32;
    plan.replay_passes = 2;
  }
  return plan;
}

/// Records the wall time at which each sampled query emits its first span,
/// with the query's simulated second, and pauses the run for a host-speed
/// probe at the first such span after every kProbeEvery of wall time. The
/// run's wall then splits into stretches between two probes; each stretch is
/// scaled by the HostSpeed::Scale of its two probes, and the probes' own time
/// is left out.
class StepClockSink : public obs::TraceSink {
 public:
  static constexpr auto kProbeEvery = std::chrono::milliseconds(250);

  explicit StepClockSink(const HostSpeed* host) : host_(host) {}

  /// Call right before Run() with the probe taken just before it.
  void Start(double probe_s) {
    last_probe_s_ = probe_s;
    stretch_start_ = Clock::now();
  }
  /// Call right after Run(); takes the closing probe.
  void Finish() { Cut(Clock::now()); }

  void OnSpan(const obs::SpanEvent& span) override {
    if (have_ && span.query_id == last_query_) return;
    have_ = true;
    last_query_ = span.query_id;
    const Clock::time_point now = Clock::now();
    marks_.push_back({span.ts_us / 1000000, now});
    if (now - stretch_start_ >= kProbeEvery) Cut(now);
  }

  /// Run() wall without the probes, raw and at nominal host speed.
  double RawSeconds() const {
    double s = 0.0;
    for (const Stretch& st : stretches_) s += Seconds(st.end - st.start);
    return s;
  }
  double ScaledSeconds() const {
    double s = 0.0;
    for (const Stretch& st : stretches_) s += Seconds(st.end - st.start) * st.scale;
    return s;
  }

  /// Wall microseconds per simulated second between consecutive marks in
  /// different simulated seconds, at nominal host speed.
  void AppendStepLatencies(std::vector<double>* out) const {
    std::vector<double> at;  // each mark on the scaled clock, seconds
    size_t k = 0;
    double before = 0.0;  // scaled seconds of the stretches before stretch k
    for (const Mark& m : marks_) {
      while (k + 1 < stretches_.size() && m.wall > stretches_[k].end) {
        before += Seconds(stretches_[k].end - stretches_[k].start) * stretches_[k].scale;
        ++k;
      }
      at.push_back(before + Seconds(m.wall - stretches_[k].start) * stretches_[k].scale);
    }
    for (size_t i = 1; i < marks_.size(); ++i) {
      const uint64_t steps = marks_[i].step - marks_[i - 1].step;
      if (steps == 0) continue;
      out->push_back((at[i] - at[i - 1]) * 1e6 / static_cast<double>(steps));
    }
  }

 private:
  struct Mark {
    uint64_t step;
    Clock::time_point wall;
  };
  struct Stretch {
    Clock::time_point start, end;
    double scale;
  };
  static double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

  void Cut(Clock::time_point end) {
    const double probe_s = host_->Probe();
    stretches_.push_back({stretch_start_, end, HostSpeed::Scale(last_probe_s_, probe_s)});
    last_probe_s_ = probe_s;
    stretch_start_ = Clock::now();
  }

  const HostSpeed* host_;
  double last_probe_s_ = kNominalProbeS;
  Clock::time_point stretch_start_;
  bool have_ = false;
  uint64_t last_query_ = 0;
  std::vector<Mark> marks_;
  std::vector<Stretch> stretches_;
};

/// Counts spans per phase (the traced run).
class PhaseCountSink : public obs::TraceSink {
 public:
  void OnSpan(const obs::SpanEvent& span) override {
    ++counts_[static_cast<size_t>(span.phase)];
  }
  uint64_t count(obs::Phase phase) const { return counts_[static_cast<size_t>(phase)]; }

 private:
  std::array<uint64_t, obs::kPhaseCount> counts_{};
};

struct RepResult {
  double setup_s = 0.0;
  /// HostSpeed::Scale of the probes around the set-up.
  double setup_scale = 1.0;
  /// Run() wall (without any probes it made), raw and at nominal host speed.
  double run_s = 0.0;
  double run_scaled_s = 0.0;
  sim::SimulationResult result;
  std::string json;
};

/// Constructs a simulator and runs it once, with host-speed probes before
/// the set-up, between set-up and Run(), and after. `sink` (may be null) is
/// attached with `sample_every`; a step clock also probes inside the run.
/// The simulator is handed back for the replay.
RepResult RunOnce(const sim::SimulationConfig& cfg, const HostSpeed& host, obs::TraceSink* sink,
                  uint64_t sample_every, StepClockSink* clock = nullptr,
                  std::unique_ptr<sim::Simulator>* keep = nullptr) {
  RepResult rep;
  const double probe0 = host.Probe();
  const Clock::time_point t0 = Clock::now();
  auto simulator = std::make_unique<sim::Simulator>(cfg);
  rep.setup_s = SecondsSince(t0);
  if (clock != nullptr) sink = clock;
  if (sink != nullptr) simulator->AttachSpanSink(sink, sample_every);
  const double probe1 = host.Probe();
  rep.setup_scale = HostSpeed::Scale(probe0, probe1);
  if (clock != nullptr) clock->Start(probe1);
  const Clock::time_point t1 = Clock::now();
  rep.result = simulator->Run();
  rep.run_s = SecondsSince(t1);
  if (clock != nullptr) {
    clock->Finish();
    rep.run_s = clock->RawSeconds();
    rep.run_scaled_s = clock->ScaledSeconds();
  } else {
    rep.run_scaled_s = rep.run_s * HostSpeed::Scale(probe1, host.Probe());
  }
  rep.json = sim::SimulationResultJson(rep.result);
  if (keep != nullptr) *keep = std::move(simulator);
  return rep;
}

bool PartitionHolds(const sim::SimulationResult& r) {
  return r.measured_queries > 0 &&
         r.measured_queries == r.by_single_peer + r.by_multi_peer + r.by_server;
}

// Replays a deterministic sample of hosts against the traced run's final
// world through each layer's public function.
void Replay(const SimPlan& plan, const RepResult& traced, double sink_free_run_s,
            sim::Simulator* simulator, Report* report) {
  const sim::SimulationConfig& cfg = plan.config;
  const sim::ParameterSet& p = cfg.params;
  const double side = p.AreaSideMeters();
  const auto& hosts = simulator->hosts();
  const int passes = plan.replay_passes;
  volatile size_t sink = 0;

  // A private engine over the same POIs (the simulator's is read-only from
  // outside), with the simulator's tree options and accounting.
  core::SpatialServer server(simulator->pois(), core::SpatialServer::DefaultTreeOptions(),
                             cfg.page_count_mode);
  core::SennOptions senn_options = cfg.senn;
  senn_options.server_request_k = p.cache_size;
  core::SennProcessor senn(&server, senn_options);

  sim::NeighborGrid grid(side, std::max(p.tx_range_m, 50.0));
  for (const auto& host : hosts) grid.Insert(host->id(), host->position());

  Rng pick = Rng(cfg.seed).Stream("perfbench/replay-hosts");
  std::vector<size_t> sample;
  for (int i = 0; i < plan.replay_hosts; ++i) sample.push_back(pick.NextIndex(hosts.size()));

  std::vector<std::vector<const core::CachedResult*>> peers(sample.size());
  std::vector<int32_t> ids;
  for (size_t s = 0; s < sample.size(); ++s) {
    ids.clear();
    grid.QueryRadius(hosts[sample[s]]->position(), p.tx_range_m, &ids);
    for (int32_t id : ids) {
      const core::CachedResult* cached = hosts[static_cast<size_t>(id)]->cache().Get();
      if (cached != nullptr && !cached->Empty()) peers[s].push_back(cached);
    }
  }

  const double radius_us = MedianPerItem(passes, 1e6, [&] {
    for (size_t s : sample) {
      ids.clear();
      grid.QueryRadius(hosts[s]->position(), p.tx_range_m, &ids);
      sink = sink + ids.size();
    }
    return sample.size();
  });
  report->Add("sim.grid.query_radius_us", "us", radius_us, "per call at Tx_Range");

  const int heap_k = std::max(p.k_nn, p.cache_size);
  report->Add("core.single_peer.verify_us", "us", MedianPerItem(passes, 1e6, [&] {
                size_t calls = 0;
                for (size_t s = 0; s < sample.size(); ++s) {
                  core::CandidateHeap heap(heap_k);
                  for (const core::CachedResult* peer : peers[s]) {
                    sink = sink + static_cast<size_t>(
                                      core::VerifySinglePeer(hosts[sample[s]]->position(), *peer, &heap).certified);
                    ++calls;
                  }
                }
                return calls;
              }),
              "per peer verified");
  report->Add("core.multi_peer.verify_us", "us", MedianPerItem(passes, 1e6, [&] {
                size_t calls = 0;
                for (size_t s = 0; s < sample.size(); ++s) {
                  if (peers[s].empty()) continue;
                  core::CandidateHeap heap(heap_k);
                  sink = sink + static_cast<size_t>(
                                    core::VerifyMultiPeer(hosts[sample[s]]->position(), peers[s], &heap,
                                                          cfg.senn.multi_peer)
                                        .certified);
                  ++calls;
                }
                return calls;
              }),
              "per call over the reachable peer set");

  std::vector<core::PendingSenn> pending(sample.size());
  const double prepare_us = MedianPerItem(passes, 1e6, [&] {
    for (size_t s = 0; s < sample.size(); ++s) {
      pending[s] = senn.Prepare(hosts[sample[s]]->position(), p.k_nn, peers[s]);
    }
    return sample.size();
  });
  report->Add("core.senn.prepare_us", "us", prepare_us, "per query, client stages");

  // The server contacts the sampled queries make, with their shipped bounds;
  // unbounded queries at the sampled positions if none needs the server.
  std::vector<core::BatchQuery> contacts;
  for (const core::PendingSenn& ps : pending) {
    if (ps.needs_server) {
      contacts.push_back({ps.q, ps.heap_capacity, ps.outcome.bounds, static_cast<int>(ps.certain.size())});
    }
  }
  if (contacts.empty()) {
    for (size_t s : sample) contacts.push_back({hosts[s]->position(), heap_k, {}, 0});
  }
  const double knn_us = MedianPerItem(passes, 1e6, [&] {
    for (const core::BatchQuery& c : contacts) {
      sink = sink + server.QueryKnn(c.q, c.k, c.bounds, c.already_certified).neighbors.size();
    }
    return contacts.size();
  });
  report->Add("core.server.query_knn_us", "us", knn_us, "per server contact, shipped bounds");
  report->Add("rtree.inn_us", "us", MedianPerItem(passes, 1e6, [&] {
                for (size_t s : sample) {
                  rtree::BestFirstNnIterator inn(server.tree(), hosts[s]->position(), rtree::PruneBounds{},
                                                 server.count_mode(), heap_k);
                  for (int j = 0; j < heap_k; ++j) {
                    if (!inn.Next().has_value()) break;
                  }
                  sink = sink + inn.accesses().total();
                }
                return sample.size();
              }),
              "k = C_Size pulls, no bounds, no pager");

  // Mobility last: it moves the sampled hosts.
  const int steps = 16;
  const double advance_us = MedianPerItem(passes, 1e6, [&] {
    for (int st = 0; st < steps; ++st) {
      for (size_t s : sample) hosts[s]->Advance(cfg.time_step_s);
    }
    return sample.size() * static_cast<size_t>(steps);
  });
  report->Add("mobility.advance_us", "us", advance_us, "per host-step");

  roadnet::RoadNetworkConfig road;
  road.area_side_m = side;
  road.block_spacing_m = side <= 10000.0 ? 200.0 : 400.0;
  road.diagonal_highways = side <= 10000.0 ? 1 : 4;
  std::vector<double> gen_s;
  for (int i = 0; i < 3; ++i) {
    Rng road_rng = Rng(cfg.seed).Stream("world/road");
    const Clock::time_point t0 = Clock::now();
    roadnet::Graph graph = roadnet::GenerateRoadNetwork(road, &road_rng);
    gen_s.push_back(SecondsSince(t0));
    sink = sink + graph.node_count();
  }
  report->Add("roadnet.generate_s", "s", Median(gen_s), "median of 3");

  const sim::SimulationResult& r = traced.result;
  const double queries = static_cast<double>(r.measured_queries);
  const double host_steps = static_cast<double>(hosts.size()) * (cfg.duration_s / cfg.time_step_s);
  const double explained_us = advance_us * host_steps + (radius_us + prepare_us) * queries +
                              knn_us * static_cast<double>(r.by_server);
  report->Add("sim.unattributed_frac", "frac", 1.0 - explained_us / (sink_free_run_s * 1e6),
              "1 - sum(layer us x calls) / sink-free Run wall");
  report->Add("sim.trace_overhead_frac", "frac", traced.run_s / sink_free_run_s - 1.0,
              "fully traced Run wall / sink-free Run wall - 1");
}

}  // namespace

Report RunSim(const RunArgs& args) {
  const SimPlan plan = PlanFor(args);
  const sim::SimulationConfig& cfg = plan.config;
  const sim::ParameterSet& p = cfg.params;
  Report report;
  report.Note("Table 4 LA scaled 1/" + std::string(args.size == Size::kTiny ? "10" : "3") +
              " linear: hosts=" + std::to_string(p.mh_number) + " pois=" +
              std::to_string(p.poi_number) + " queries/min=" + std::to_string(p.queries_per_minute) +
              " k=" + std::to_string(p.k_nn) + " area_miles=" + std::to_string(p.area_side_miles) +
              " simulated_s=" + std::to_string(cfg.duration_s) +
              " road network, ideal channel, in-process sequential server, 1 thread");

  // The first repetition runs with no span sink, the others with the
  // sampled step clock. Repetitions continue until set-ups and runs together
  // have spent the run's seconds.
  const HostSpeed host;
  std::vector<RepResult> reps;
  std::vector<double> step_us;  // sampled repetitions, at nominal host speed
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(reps.size()) < plan.min_reps || SecondsSince(start) < args.seconds) {
    if (reps.empty()) {
      reps.push_back(RunOnce(cfg, host, nullptr, 0));
    } else {
      StepClockSink clock(&host);
      reps.push_back(RunOnce(cfg, host, nullptr, kLatencySampleEvery, &clock));
      clock.AppendStepLatencies(&step_us);
    }
  }

  // qps comes from the sampled repetitions, whose step clock also probes
  // inside Run().
  uint64_t failed = 0;
  double queries = 0.0, raw_run_s = 0.0, scaled_run_s = 0.0;
  std::vector<double> setup_s;
  std::string per_rep = "per-repetition qps raw / at nominal host speed (the first without a sink):";
  for (const RepResult& rep : reps) {
    if (!PartitionHolds(rep.result) || rep.json != reps.front().json) {
      failed += std::max<uint64_t>(rep.result.measured_queries, 1);
    }
    const double n = static_cast<double>(rep.result.measured_queries);
    if (&rep != &reps.front()) {
      queries += n;
      raw_run_s += rep.run_s;
      scaled_run_s += rep.run_scaled_s;
    }
    setup_s.push_back(rep.setup_s * rep.setup_scale);
    char entry[48];
    std::snprintf(entry, sizeof(entry), " %.0f/%.0f", n / rep.run_s, n / rep.run_scaled_s);
    per_rep += entry;
  }
  report.Note(per_rep);
  report.Note("raw qps " + std::to_string(queries / raw_run_s) + " over " +
              std::to_string(raw_run_s) + " s of Run() wall");
  for (const RepResult& rep : reps) report.attempted += rep.result.measured_queries;
  report.Note("oracle: " + std::to_string(reps.size()) +
              " repetitions; source partition and identical report JSON checked");

  if (!args.trace) {
    report.failed = failed;
    report.correct = failed == 0;
    report.Add("qps", "1/s", queries / scaled_run_s,
               "measured queries / Run() wall, " + std::to_string(reps.size() - 1) +
                   " sampled reps, at nominal host speed");
    report.Add("latency_p50_us", "us", Quantile(step_us, 0.50),
               "wall per simulated second, " + std::to_string(step_us.size()) +
                   " steps of the sampled reps, at nominal host speed");
    report.Add("latency_p90_us", "us", Quantile(step_us, 0.90), "same steps");
    report.Add("setup_s", "s", Median(setup_s),
               "Simulator ctor, median of " + std::to_string(reps.size()) + ", at nominal host speed");
    report.Add("peak_rss_mb", "MiB", PeakRssMb());
    return report;
  }

  PhaseCountSink counter;
  std::unique_ptr<sim::Simulator> simulator;
  const RepResult traced = RunOnce(cfg, host, &counter, 1, nullptr, &simulator);
  report.attempted += traced.result.measured_queries;
  if (traced.json != reps.front().json || !PartitionHolds(traced.result)) {
    failed += std::max<uint64_t>(traced.result.measured_queries, 1);
    report.Note("oracle: traced report JSON differs from the sink-free one");
  }
  report.failed = failed;
  report.correct = failed == 0;

  const double n = static_cast<double>(traced.result.measured_queries);
  const sim::SimulationResult& r = traced.result;
  report.Add("sim.by_single_peer_frac", "frac", static_cast<double>(r.by_single_peer) / n, "base: queries");
  report.Add("sim.by_multi_peer_frac", "frac", static_cast<double>(r.by_multi_peer) / n, "base: queries");
  report.Add("sim.by_server_frac", "frac", static_cast<double>(r.by_server) / n, "base: queries");
  report.Add("sim.peers_per_query", "count", r.peers_in_range.mean(), "base: queries");
  const std::pair<const char*, obs::Phase> phases[] = {
      {"obs.spans_per_query.peer_harvest", obs::Phase::kPeerHarvest},
      {"obs.spans_per_query.net_exchange", obs::Phase::kNetExchange},
      {"obs.spans_per_query.verify_single", obs::Phase::kVerifySingle},
      {"obs.spans_per_query.verify_multi", obs::Phase::kVerifyMulti},
      {"obs.spans_per_query.heap_classify", obs::Phase::kHeapClassify},
      {"obs.spans_per_query.server_einn", obs::Phase::kServerEinn},
  };
  for (const auto& [name, phase] : phases) {
    report.Add(name, "count", static_cast<double>(counter.count(phase)) / n, "base: queries");
  }
  report.Add("rtree.einn_pages_per_query", "count", r.einn_pages.mean(), "base: server queries");
  report.Add("rtree.inn_pages_per_query", "count", r.inn_pages.mean(), "base: server queries");
  Replay(plan, traced, reps.front().run_s, simulator.get(), &report);
  CompletePerLayer(&report);
  return report;
}

}  // namespace perfbench
