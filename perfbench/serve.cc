// serve_hotspot_batch.
//
// Set-up (timed as setup_s, repeated and reported as the median): the
// SpatialServer constructor over 1M POIs with a paged tree, Server::Start,
// and the client's 4 connects. Input generation is not set-up and is not
// timed.
//
// Load: closed loop. One client thread multiplexes the 4 connections with
// poll(); each connection sends a burst of `depth` requests in one write,
// waits for all of its replies, then sends the next burst. A request's
// latency runs from the flush of its burst to the decode of its reply. Each
// connection cycles through a fixed stream of distinct requests; a warm-up
// pass over the whole stream precedes the timed window, so the buffer pool
// and the CPU caches are in steady state when timing starts. The window is
// cut into slices of about a second with a host-speed probe between two
// slices (see hostspeed.h); the end-to-end times are scaled slice by slice.
//
// Threads: 1 client + 1 network + 2 workers, all on the one CPU the run is
// pinned to.
//
// Oracle (after Server::Stop, outside the timed window): the first reply of
// every distinct request must equal SpatialServer::QueryKnn on the same
// engine bit for bit, and every later reply must equal the first. A kError
// reply, a load-shed, a transport error or a mismatch is a failed request.
#include <poll.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/batch_server.h"
#include "src/rpc/server.h"
#include "src/rpc/service.h"
#include "src/rpc/tcp.h"
#include "src/rtree/knn.h"
#include "hostspeed.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace senn;

struct ServeConfig {
  int pois = 1000000;
  int k = 10;
  int max_group = 16;
  double cluster_cell_m = 200.0;
  size_t pool_pages = 1024;
  int connections = 4;
  /// Requests per burst: max_group, so the server dispatches a connection's
  /// burst as one group (see README, "Burst depth").
  int depth = 16;
  int workers = 2;
  /// Distinct requests per connection; the load cycles through them.
  int stream_per_conn = 8192;
  /// Requests per connection between two changes of the hot centres.
  int epoch_requests = 512;
  int setup_reps = 5;
  /// Requests per connection in the per-layer replay sample.
  int replay_per_conn = 2048;
  int replay_passes = 5;

  /// bench_ext_server's POI density: 20,000 POIs on a 30 km square.
  double SideM() const { return 30000.0 * std::sqrt(static_cast<double>(pois) / 20000.0); }
};

ServeConfig ConfigFor(const RunArgs& args) {
  ServeConfig c;
  if (args.size == Size::kTiny) {
    c.pois = 20000;
    c.pool_pages = 64;
    c.stream_per_conn = 256;
    c.setup_reps = 2;
    c.replay_per_conn = 64;
    c.replay_passes = 2;
  }
  return c;
}

std::vector<core::Poi> MakePois(uint64_t seed, const ServeConfig& c) {
  Rng rng = Rng(seed).Stream("perfbench/pois");
  const double side = c.SideM();
  std::vector<core::Poi> pois;
  pois.reserve(static_cast<size_t>(c.pois));
  for (int i = 0; i < c.pois; ++i) {
    pois.push_back({i, {rng.Uniform(0, side), rng.Uniform(0, side)}});
  }
  return pois;
}

// bench_ext_server's hotspot recipe: 90 % within +-25 m of 8 centres, the
// rest uniform. The 8 centres change every `epoch_requests` requests, the
// same for every connection: what one hot centre costs depends on the POIs
// that happen to lie around it, and a stream over a single set of 8 made
// whole runs 20-30 % faster or slower by seed alone.
std::vector<rpc::KnnRequest> MakeStream(uint64_t seed, const ServeConfig& c, int conn) {
  const double side = c.SideM();
  Rng rng = Rng(seed).Stream("perfbench/queries", static_cast<uint64_t>(conn));
  std::vector<rpc::KnnRequest> stream(static_cast<size_t>(c.stream_per_conn));
  std::vector<geom::Vec2> centers;
  for (size_t i = 0; i < stream.size(); ++i) {
    rpc::KnnRequest& r = stream[i];
    if (i % static_cast<size_t>(c.epoch_requests) == 0) {
      const uint64_t epoch = i / static_cast<size_t>(c.epoch_requests);
      Rng centers_rng = Rng(seed).Stream("perfbench/hot-centers", epoch);
      centers.clear();
      for (int j = 0; j < 8; ++j) {
        centers.push_back({centers_rng.Uniform(0, side), centers_rng.Uniform(0, side)});
      }
    }
    if (rng.Bernoulli(0.9)) {
      const geom::Vec2& center = centers[rng.NextIndex(centers.size())];
      r.q = {center.x + rng.Uniform(-25.0, 25.0), center.y + rng.Uniform(-25.0, 25.0)};
    } else {
      r.q = {rng.Uniform(0, side), rng.Uniform(0, side)};
    }
    r.k = c.k;
  }
  return stream;
}

/// What the client saw for one distinct request of a connection's stream.
struct Slot {
  std::vector<core::RankedPoi> first;
  uint32_t replies = 0;
  /// Later replies whose neighbours differ from the first.
  uint32_t inconsistent = 0;
};

struct Conn {
  std::unique_ptr<rpc::TcpClientTransport> transport;
  rpc::FrameDecoder decoder;
  std::vector<rpc::KnnRequest> stream;
  std::vector<Slot> slots;
  size_t cursor = 0;
  uint64_t next_id = 1;
  uint64_t burst_first_id = 0;
  std::vector<uint32_t> burst_slots;
  size_t outstanding = 0;
  bool burst_timed = false;
  bool dead = false;
  Clock::time_point flushed;
};

/// One slice of the timed window.
struct Slice {
  /// Its latency samples: LoadTally::us[first, end).
  size_t first = 0, end = 0;
  uint64_t replies = 0;
  /// First send to last reply, and the process CPU seconds in between.
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// HostSpeed::Scale of the probes before and after the slice.
  double scale = 1.0;
};

struct LoadTally {
  /// Latency sample capacity per second of the window: past it, replies
  /// are counted but not sampled.
  static constexpr size_t kSamplesPerSecond = 100000;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t timed_ok = 0;
  /// Request latencies of the timed window in reply order, and a scratch
  /// buffer of the same size for the quantiles. Both are allocated and
  /// written before the window starts, so the client's memory does not
  /// grow with the reply rate.
  std::vector<float> us, scratch;
  size_t sampled = 0;
  std::vector<Slice> slices;

  void Add(double v) {
    if (sampled < us.size()) us[sampled++] = static_cast<float>(v);
  }
};

/// Nearest-rank quantiles (as Quantile) of v[0, n); sorts that range.
class SortedSamples {
 public:
  SortedSamples(std::vector<float>* v, size_t n) : v_(v), n_(n) {
    std::sort(v->begin(), v->begin() + static_cast<std::ptrdiff_t>(n));
  }
  double At(double q) const {
    if (n_ == 0) return 0.0;
    const double rank = std::ceil(q * static_cast<double>(n_));
    const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return (*v_)[std::min(idx, n_ - 1)];
  }

 private:
  const std::vector<float>* v_;
  size_t n_;
};

class LoadClient {
 public:
  LoadClient(std::vector<Conn>* conns, int depth, LoadTally* tally)
      : conns_(conns), depth_(depth), tally_(tally) {}

  /// One pass over every connection's stream (untimed).
  void WarmUp() {
    Drive(false, [](const Conn& c) { return c.cursor < c.stream.size(); });
  }

  /// The timed window: `seconds` of closed-loop bursts in slices of about
  /// one second. Each slice ends by draining every connection; `host` then
  /// probes while the server is idle, so every slice lies between two probes.
  void Timed(double seconds, const HostSpeed& host) {
    const size_t n = static_cast<size_t>(std::max(1.0, std::round(seconds)));
    const auto slice_length = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds / static_cast<double>(n)));
    const size_t capacity = static_cast<size_t>(std::ceil(seconds)) * LoadTally::kSamplesPerSecond;
    tally_->us.assign(capacity, -1.0f);
    tally_->scratch.assign(capacity, -1.0f);
    tally_->slices.assign(n, Slice{});
    double probe_before = host.Probe();
    for (size_t i = 0; i < n; ++i) {
      slice_ = &tally_->slices[i];
      slice_->first = tally_->sampled;
      const double cpu0 = ProcessCpuSeconds();
      const Clock::time_point start = Clock::now();
      last_reply_ = start;
      const Clock::time_point deadline = start + slice_length;
      Drive(true, [deadline](const Conn&) { return Clock::now() < deadline; });
      slice_->end = tally_->sampled;
      slice_->wall_s = std::chrono::duration<double>(last_reply_ - start).count();
      slice_->cpu_s = ProcessCpuSeconds() - cpu0;
      const double probe_after = host.Probe();
      slice_->scale = HostSpeed::Scale(probe_before, probe_after);
      probe_before = probe_after;
    }
  }

 private:
  template <typename More>
  void Drive(bool timed, More more) {
    for (Conn& c : *conns_) {
      if (!c.dead && more(c)) SendBurst(&c, timed);
    }
    std::vector<pollfd> fds(conns_->size());
    std::vector<uint8_t> bytes;
    for (;;) {
      size_t waiting = 0;
      for (size_t i = 0; i < conns_->size(); ++i) {
        Conn& c = (*conns_)[i];
        fds[i] = {c.transport->fd(), static_cast<short>(c.outstanding > 0 ? POLLIN : 0), 0};
        waiting += c.outstanding;
      }
      if (waiting == 0) return;
      const int ready = poll(fds.data(), fds.size(), 10000);
      if (ready <= 0) {
        // A silent server for 10 s: every outstanding request fails.
        for (Conn& c : *conns_) Kill(&c);
        return;
      }
      for (size_t i = 0; i < conns_->size(); ++i) {
        Conn& c = (*conns_)[i];
        if (fds[i].revents == 0 || c.outstanding == 0) continue;
        bytes.clear();
        if (!c.transport->Receive(&bytes).ok() ||
            !c.decoder.Feed(bytes.data(), bytes.size()).ok()) {
          Kill(&c);
          continue;
        }
        rpc::Frame frame;
        while (c.outstanding > 0 && c.decoder.Next(&frame)) OnReply(&c, frame);
        if (c.outstanding == 0 && !c.dead && more(c)) SendBurst(&c, timed);
      }
    }
  }

  void SendBurst(Conn* c, bool timed) {
    out_.clear();
    c->burst_slots.clear();
    c->burst_first_id = c->next_id;
    for (int i = 0; i < depth_; ++i) {
      const uint32_t slot = static_cast<uint32_t>(c->cursor % c->stream.size());
      rpc::EncodeKnnRequest(c->next_id++, c->stream[slot], &out_);
      c->burst_slots.push_back(slot);
      ++c->cursor;
    }
    c->outstanding = static_cast<size_t>(depth_);
    c->burst_timed = timed;
    tally_->attempted += static_cast<uint64_t>(depth_);
    c->flushed = Clock::now();
    if (!c->transport->Send(out_.data(), out_.size()).ok()) Kill(c);
  }

  void OnReply(Conn* c, const rpc::Frame& frame) {
    const Clock::time_point now = Clock::now();
    --c->outstanding;
    const uint64_t pos = frame.header.request_id - c->burst_first_id;
    if (pos >= c->burst_slots.size()) {
      ++tally_->failed;
      return;
    }
    if (frame.opcode() != rpc::Opcode::kKnnReply) {
      ++tally_->failed;  // kError: invalid, malformed, or shed (kOverloaded)
      return;
    }
    Result<core::ServerReply> reply = rpc::DecodeKnnReply(frame.payload);
    if (!reply.ok()) {
      ++tally_->failed;
      return;
    }
    Slot& slot = c->slots[c->burst_slots[pos]];
    if (slot.replies++ == 0) {
      slot.first = std::move(reply->neighbors);
    } else if (!SameBits(slot.first, reply->neighbors)) {
      ++slot.inconsistent;
    }
    if (c->burst_timed) {
      ++tally_->timed_ok;
      ++slice_->replies;
      tally_->Add(std::chrono::duration<double, std::micro>(now - c->flushed).count());
      last_reply_ = now;
    }
  }

  void Kill(Conn* c) {
    tally_->failed += c->outstanding;
    c->outstanding = 0;
    c->dead = true;
  }

  std::vector<Conn>* conns_;
  int depth_;
  LoadTally* tally_;
  Slice* slice_ = nullptr;
  Clock::time_point last_reply_;
  std::vector<uint8_t> out_;
};

/// A live serving stack: engine, server, client connections.
struct Stack {
  std::unique_ptr<core::SpatialServer> engine;
  std::unique_ptr<rpc::Server> server;
  std::vector<Conn> conns;
  double setup_s = 0.0;
  double build_s = 0.0;
};

rpc::ServerOptions ServerOptionsFor(const ServeConfig& c) {
  rpc::ServerOptions options;
  options.worker_threads = c.workers;
  options.service.batch.max_group = c.max_group;
  options.service.batch.cluster_cell_m = c.cluster_cell_m;
  // The offered load never exceeds connections x depth requests in flight,
  // so nothing sheds by design; a shed would show as failed requests.
  options.max_inflight_requests = static_cast<size_t>(c.connections * c.depth);
  return options;
}

/// Builds the stack from a copy of `pois`; the copy is made before the clock
/// starts. Returns false (with a note) if the server or a connect fails.
bool SetUp(const ServeConfig& c, const std::vector<core::Poi>& pois, Stack* stack,
           Report* report) {
  std::vector<core::Poi> copy = pois;
  const storage::BufferPoolOptions pool{c.pool_pages, storage::ReplacementPolicy::kLru};
  const Clock::time_point t0 = Clock::now();
  stack->engine = std::make_unique<core::SpatialServer>(
      std::move(copy), core::SpatialServer::DefaultTreeOptions(),
      rtree::AccessCountMode::kOnExpand, pool);
  stack->build_s = SecondsSince(t0);
  stack->server = std::make_unique<rpc::Server>(stack->engine.get(), ServerOptionsFor(c));
  Status started = stack->server->Start();
  if (!started.ok()) {
    report->Note("server start failed: " + std::string(started.message()));
    return false;
  }
  stack->conns = std::vector<Conn>(static_cast<size_t>(c.connections));
  for (Conn& conn : stack->conns) {
    auto transport = rpc::TcpClientTransport::Connect("127.0.0.1", stack->server->port());
    if (!transport.ok()) {
      report->Note("connect failed: " + std::string(transport.status().message()));
      return false;
    }
    conn.transport = std::move(transport).value();
  }
  stack->setup_s = SecondsSince(t0);
  return true;
}

void TearDown(Stack* stack) {
  stack->conns.clear();
  if (stack->server) stack->server->Stop();
  stack->server.reset();
  stack->engine.reset();
}

// The per-layer replay: the sample of the generated stream goes through each
// layer's public function, in process, on the engine the TCP run used.
void Replay(const ServeConfig& c, Stack* stack, double tcp_qps, Report* report) {
  core::SpatialServer& engine = *stack->engine;
  std::vector<rpc::KnnRequest> sample;
  for (const Conn& conn : stack->conns) {
    for (int i = 0; i < c.replay_per_conn; ++i) sample.push_back(conn.stream[static_cast<size_t>(i)]);
  }
  const size_t n = sample.size();
  const size_t depth = static_cast<size_t>(c.depth);
  const int passes = c.replay_passes;
  volatile size_t sink = 0;  // keeps results observable

  // Wire codec.
  std::vector<uint8_t> buf;
  report->Add("rpc.wire.req_encode_ns", "ns", MedianPerItem(passes, 1e9, [&] {
                for (size_t i = 0; i < n; ++i) {
                  if (i % depth == 0) buf.clear();
                  rpc::EncodeKnnRequest(i + 1, sample[i], &buf);
                }
                sink = sink + buf.size();
                return n;
              }));
  std::vector<std::vector<uint8_t>> request_bursts;
  for (size_t i = 0; i < n; i += depth) {
    std::vector<uint8_t> b;
    for (size_t j = i; j < std::min(n, i + depth); ++j) rpc::EncodeKnnRequest(j + 1, sample[j], &b);
    request_bursts.push_back(std::move(b));
  }
  report->Add("rpc.wire.req_decode_ns", "ns", MedianPerItem(passes, 1e9, [&] {
                for (const std::vector<uint8_t>& b : request_bursts) {
                  rpc::FrameDecoder decoder;
                  (void)decoder.Feed(b.data(), b.size());
                  rpc::Frame frame;
                  while (decoder.Next(&frame)) {
                    Result<rpc::KnnRequest> r = rpc::DecodeKnnRequest(frame.payload);
                    sink = sink + static_cast<size_t>(r.ok());
                  }
                }
                return n;
              }));

  // Sequential engine answers: the oracle's reference path, timed.
  std::vector<core::ServerReply> replies(n);
  report->Add("core.server.query_knn_us", "us", MedianPerItem(passes, 1e6, [&] {
                for (size_t i = 0; i < n; ++i) replies[i] = engine.QueryKnn(sample[i].q, sample[i].k);
                return n;
              }));
  report->Add("rtree.inn_us", "us", MedianPerItem(passes, 1e6, [&] {
                for (size_t i = 0; i < n; ++i) {
                  rtree::BestFirstNnIterator inn(engine.tree(), sample[i].q, rtree::PruneBounds{},
                                                 engine.count_mode(), sample[i].k);
                  for (int j = 0; j < sample[i].k; ++j) {
                    if (!inn.Next().has_value()) break;
                  }
                  sink = sink + inn.accesses().total();
                }
                return n;
              }));

  std::vector<std::vector<uint8_t>> reply_bursts;
  size_t reply_bytes = 0;
  report->Add("rpc.wire.reply_encode_ns", "ns", MedianPerItem(passes, 1e9, [&] {
                reply_bursts.clear();
                for (size_t i = 0; i < n; i += depth) {
                  std::vector<uint8_t> b;
                  for (size_t j = i; j < std::min(n, i + depth); ++j) rpc::EncodeKnnReply(j + 1, replies[j], &b);
                  reply_bursts.push_back(std::move(b));
                }
                return n;
              }));
  for (const std::vector<uint8_t>& b : reply_bursts) reply_bytes += b.size();
  report->Add("rpc.wire.reply_decode_ns", "ns", MedianPerItem(passes, 1e9, [&] {
                for (const std::vector<uint8_t>& b : reply_bursts) {
                  rpc::FrameDecoder decoder;
                  (void)decoder.Feed(b.data(), b.size());
                  rpc::Frame frame;
                  while (decoder.Next(&frame)) {
                    Result<core::ServerReply> r = rpc::DecodeKnnReply(frame.payload);
                    sink = sink + static_cast<size_t>(r.ok());
                  }
                }
                return n;
              }));
  report->Add("rpc.wire.reply_bytes", "B",
              static_cast<double>(reply_bytes) / static_cast<double>(n), "per reply frame");

  // Service: AnswerGroup on bursts of the workload's depth, decoded frames in.
  rpc::QueryService service(&engine, ServerOptionsFor(c).service);
  std::vector<std::vector<rpc::Frame>> groups;
  for (const std::vector<uint8_t>& b : request_bursts) {
    rpc::FrameDecoder decoder;
    (void)decoder.Feed(b.data(), b.size());
    std::vector<rpc::Frame> group;
    rpc::Frame frame;
    while (decoder.Next(&frame)) group.push_back(frame);
    groups.push_back(std::move(group));
  }
  const double answer_us = MedianPerItem(passes, 1e6, [&] {
    std::vector<uint8_t> out;
    for (const std::vector<rpc::Frame>& g : groups) {
      out.clear();
      service.AnswerGroup(g, &out);
    }
    sink = sink + out.size();
    return n;
  });
  report->Add("rpc.service.answer_us_per_req", "us", answer_us);
  report->Add("rpc.service.busy_frac", "frac", tcp_qps * answer_us * 1e-6,
              "TCP qps x answer_us_per_req (1 = service lock always held)");

  // Batch vs sequential on the same bursts, alternating pass by pass so the
  // buffer pool sees the same history for both.
  core::BatchServer batch(&engine, ServerOptionsFor(c).service.batch);
  std::vector<std::vector<core::BatchQuery>> batches;
  for (size_t i = 0; i < n; i += depth) {
    std::vector<core::BatchQuery> b;
    for (size_t j = i; j < std::min(n, i + depth); ++j) b.push_back({sample[j].q, sample[j].k, {}, 0});
    batches.push_back(std::move(b));
  }
  std::vector<double> batch_us, seq_us;
  for (int p = 0; p < passes; ++p) {
    Clock::time_point t0 = Clock::now();
    for (const auto& b : batches) sink = sink + batch.AnswerBatch(b).size();
    batch_us.push_back(SecondsSince(t0) * 1e6 / static_cast<double>(n));
    t0 = Clock::now();
    for (const auto& b : batches) {
      for (const core::BatchQuery& q : b) sink = sink + engine.QueryKnn(q.q, q.k).neighbors.size();
    }
    seq_us.push_back(SecondsSince(t0) * 1e6 / static_cast<double>(n));
  }
  const double batch_med = Median(batch_us), seq_med = Median(seq_us);
  report->Add("core.batch.answer_us_per_query", "us", batch_med);
  report->Add("core.batch.sequential_us_per_query", "us", seq_med);
  report->Add("core.batch.speedup", "x", batch_med > 0 ? seq_med / batch_med : 0.0,
              "base: sequential_us_per_query");
}

}  // namespace

bool ReplyMatchesOracle(const core::ServerReply& expected,
                        const std::vector<core::RankedPoi>& received) {
  return SameBits(expected.neighbors, received);
}

Report RunServe(const RunArgs& args) {
  const ServeConfig c = ConfigFor(args);
  Report report;
  report.Note(std::string("pois=") + std::to_string(c.pois) + " side_m=" +
              std::to_string(c.SideM()) + " stream=hotspot" +
              " k=" + std::to_string(c.k) + " max_group=" + std::to_string(c.max_group) +
              " cluster_cell_m=" + std::to_string(c.cluster_cell_m) + " pool=" +
              std::to_string(c.pool_pages) + " LRU frames" +
              " connections=" + std::to_string(c.connections) + " depth=" +
              std::to_string(c.depth) + " workers=" + std::to_string(c.workers));

  std::vector<core::Poi> pois = MakePois(args.seed, c);
  const HostSpeed host;
  // Set-up times between two single-thread probes, at nominal host speed.
  std::vector<double> setup_s, build_s;
  auto timed_setup = [&](Stack* stack, Report* notes) {
    const double probe0 = host.Probe();
    const bool ok = SetUp(c, pois, stack, notes);
    stack->setup_s *= HostSpeed::Scale(probe0, host.Probe());
    return ok;
  };
  // All but the last set-up repetition run in forked children: each is the
  // same cold build, and the parent's peak RSS then covers exactly one
  // stack — repeated builds in one heap leave peak RSS to fragmentation.
  for (int rep = 1; rep < c.setup_reps; ++rep) {
    std::optional<std::vector<double>> times = InChild(2, [&] {
      Stack child;
      Report ignored;
      const bool ok = timed_setup(&child, &ignored);
      std::vector<double> t = {child.setup_s, child.build_s};
      TearDown(&child);
      return ok ? t : std::vector<double>{};
    });
    if (!times.has_value()) {
      report.Note("set-up repetition failed in its child process");
      report.correct = false;
      report.attempted = report.failed = 1;
      return report;
    }
    setup_s.push_back((*times)[0]);
    build_s.push_back((*times)[1]);
  }
  Stack stack;
  if (!timed_setup(&stack, &report)) {
    TearDown(&stack);
    report.correct = false;
    report.attempted = report.failed = 1;
    return report;
  }
  setup_s.push_back(stack.setup_s);
  build_s.push_back(stack.build_s);
  pois = {};
  for (size_t i = 0; i < stack.conns.size(); ++i) {
    stack.conns[i].stream = MakeStream(args.seed, c, static_cast<int>(i));
    stack.conns[i].slots.resize(stack.conns[i].stream.size());
  }

  LoadTally tally;
  LoadClient client(&stack.conns, c.depth, &tally);
  const storage::BufferPoolStats pool0 = stack.engine->pager()->pool().stats();
  client.WarmUp();
  client.Timed(args.seconds, host);
  stack.server->Stop();

  const rpc::ServerCounters counters = stack.server->counters();
  const core::BatchStats batch_stats = stack.server->service().batch_stats();
  const rpc::ServiceStats service_stats = stack.server->service().stats();
  const storage::BufferPoolStats pool1 = stack.engine->pager()->pool().stats();

  // Oracle, outside the timed window.
  uint64_t mismatched = 0;
  double einn_pages = 0.0, inn_pages = 0.0;
  uint64_t oracle_queries = 0;
  for (const Conn& conn : stack.conns) {
    for (size_t i = 0; i < conn.slots.size(); ++i) {
      const Slot& slot = conn.slots[i];
      if (slot.replies == 0) continue;
      const core::ServerReply expected = stack.engine->QueryKnn(conn.stream[i].q, conn.stream[i].k);
      einn_pages += static_cast<double>(expected.einn_accesses.total());
      inn_pages += static_cast<double>(expected.inn_accesses.total());
      ++oracle_queries;
      // Batched replies carry shared-traversal page charges, so the page
      // count is not compared.
      if (!ReplyMatchesOracle(expected, slot.first)) {
        ++mismatched;
        tally.failed += slot.replies;
      } else {
        tally.failed += slot.inconsistent;
      }
    }
  }
  report.attempted = tally.attempted;
  report.failed = tally.failed;
  report.correct = tally.failed == 0 && counters.requests_shed == 0 && tally.timed_ok > 0;
  // End-to-end times: every slice's time and request latencies scaled by the
  // slice's host-speed factor. The whole window's raw p99 and maximum, where
  // the service lock's unfair hand-off between the workers shows, are
  // per-layer metrics.
  double window_s = 0.0, scaled_s = 0.0, cpu_s = 0.0;
  std::string per_slice = "replies / host-speed scale per slice:";
  for (const Slice& slice : tally.slices) {
    window_s += slice.wall_s;
    scaled_s += slice.wall_s * slice.scale;
    cpu_s += slice.cpu_s;
    char entry[48];
    std::snprintf(entry, sizeof(entry), " %llu/%.3f",
                  static_cast<unsigned long long>(slice.replies), slice.scale);
    per_slice += entry;
  }
  std::copy(tally.us.begin(), tally.us.begin() + static_cast<std::ptrdiff_t>(tally.sampled),
            tally.scratch.begin());
  const SortedSamples raw(&tally.scratch, tally.sampled);
  for (const Slice& slice : tally.slices) {
    for (size_t i = slice.first; i < slice.end; ++i) {
      tally.us[i] = static_cast<float>(tally.us[i] * slice.scale);
    }
  }
  const SortedSamples scaled(&tally.us, tally.sampled);
  report.Note(per_slice);
  const double qps = window_s > 0 ? static_cast<double>(tally.timed_ok) / window_s : 0.0;
  report.Note("raw: qps " + std::to_string(qps) + ", latency p50 " +
              std::to_string(raw.At(0.50)) + " us, p90 " + std::to_string(raw.At(0.90)) + " us");
  report.Note("oracle: " + std::to_string(oracle_queries) + " distinct requests checked, " +
              std::to_string(mismatched) + " mismatched; " + std::to_string(tally.timed_ok) +
              " timed replies in " + std::to_string(window_s) + " s");

  if (!args.trace) {
    const std::string nominal = ", at nominal host speed";
    report.Add("qps", "1/s", scaled_s > 0 ? static_cast<double>(tally.timed_ok) / scaled_s : 0.0,
               "oracle-correct replies / timed window" + nominal);
    report.Add("latency_p50_us", "us", scaled.At(0.50),
               "flush of burst to reply decode, " + std::to_string(tally.sampled) +
                   " requests" + nominal);
    report.Add("latency_p90_us", "us", scaled.At(0.90), "same requests" + nominal);
    report.Add("setup_s", "s", Median(setup_s),
               "median of " + std::to_string(setup_s.size()) + ", at nominal host speed");
    report.Add("peak_rss_mb", "MiB", PeakRssMb());
    TearDown(&stack);
    return report;
  }

  const double groups = static_cast<double>(counters.groups_dispatched);
  report.Add("rpc.server.avg_group_size", "count",
             groups > 0 ? static_cast<double>(service_stats.requests) / groups : 0.0,
             "base: dispatch groups");
  report.Add("rpc.server.shed", "count", static_cast<double>(counters.requests_shed));
  report.Add("rpc.server.framing_errors", "count", static_cast<double>(counters.framing_errors));
  report.Add("rpc.client.latency_p99_us", "us", raw.At(0.99),
             "raw, whole timed window, " + std::to_string(tally.sampled) + " samples");
  report.Add("rpc.client.latency_max_us", "us", raw.At(1.0),
             "raw, whole timed window");
  report.Add("rtree.einn_pages_per_query", "count", einn_pages / static_cast<double>(oracle_queries),
             "logical, sequential QueryKnn");
  report.Add("rtree.inn_pages_per_query", "count", inn_pages / static_cast<double>(oracle_queries),
             "logical, sequential QueryKnn");
  const double answered = static_cast<double>(batch_stats.queries);
  const double traversals = static_cast<double>(batch_stats.clusters + batch_stats.singleton_queries);
  report.Add("core.batch.avg_cluster_size", "count", traversals > 0 ? answered / traversals : 0.0,
             "base: traversals (shared + singleton)");
  report.Add("core.batch.shared_frac", "frac",
             answered > 0 ? static_cast<double>(batch_stats.batched_queries) / answered : 0.0,
             "base: queries");
  const double logical = static_cast<double>(pool1.logical - pool0.logical);
  report.Add("storage.pool.hit_rate", "frac",
             logical > 0 ? static_cast<double>(pool1.hits - pool0.hits) / logical : 0.0,
             "base: logical fetches");
  report.Add("storage.pool.misses_per_query", "count",
             static_cast<double>(pool1.misses - pool0.misses) / answered, "base: queries");
  report.Add("storage.pool.evictions_per_query", "count",
             static_cast<double>(pool1.evictions - pool0.evictions) / answered, "base: queries");
  report.Add("process.cpu_us_per_query", "us",
             tally.timed_ok > 0 ? cpu_s * 1e6 / static_cast<double>(tally.timed_ok) : 0.0,
             "base: timed replies");
  report.Add("process.cpu_util", "cores", window_s > 0 ? cpu_s / window_s : 0.0,
             "base: timed window wall");
  report.Add("rtree.build_s", "s", Median(build_s), "median of " + std::to_string(build_s.size()));
  Replay(c, &stack, qps, &report);
  TearDown(&stack);
  CompletePerLayer(&report);
  return report;
}

}  // namespace perfbench
