// End-to-end tests of Algorithm 1 (SENN): correctness of the final answer
// regardless of resolution path, resolution classification, bound shipping,
// and the ablation switches.
#include "src/core/senn.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"

namespace senn::core {
namespace {

using geom::Vec2;

std::vector<Poi> RandomPois(int n, Rng* rng, double extent) {
  std::vector<Poi> pois;
  for (int i = 0; i < n; ++i) {
    pois.push_back({i, {rng->Uniform(0, extent), rng->Uniform(0, extent)}});
  }
  return pois;
}

std::vector<RankedPoi> TrueKnn(const std::vector<Poi>& pois, Vec2 q, int k) {
  std::vector<RankedPoi> all;
  for (const Poi& p : pois) all.push_back({p.id, p.position, geom::Dist(q, p.position)});
  std::sort(all.begin(), all.end(),
            [](const RankedPoi& a, const RankedPoi& b) { return a.distance < b.distance; });
  if (static_cast<int>(all.size()) > k) all.resize(static_cast<size_t>(k));
  return all;
}

CachedResult MakePeerCache(const std::vector<Poi>& pois, Vec2 at, int cache_size) {
  CachedResult r;
  r.query_location = at;
  r.neighbors = TrueKnn(pois, at, cache_size);
  return r;
}

void ExpectSameIds(const std::vector<RankedPoi>& got, const std::vector<RankedPoi>& want,
                   const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << label << " rank " << i;
  }
}

TEST(SennTest, NoPeersGoesToServerAndIsExact) {
  Rng rng(1);
  std::vector<Poi> pois = RandomPois(200, &rng, 1000);
  SpatialServer server(pois);
  SennOptions options;
  options.server_request_k = 10;
  SennProcessor senn(&server, options);
  Vec2 q{321, 456};
  SennOutcome outcome = senn.Execute(q, 3, {});
  EXPECT_EQ(outcome.resolution, Resolution::kServer);
  EXPECT_EQ(outcome.heap_state, HeapState::kEmpty);
  ExpectSameIds(outcome.neighbors, TrueKnn(pois, q, 3), "server path");
  // Cache policy 2: the certain prefix covers the full server request.
  EXPECT_EQ(outcome.certain_prefix.size(), 10u);
  EXPECT_FALSE(outcome.bounds.lower.has_value());
  EXPECT_FALSE(outcome.bounds.upper.has_value());
}

TEST(SennTest, ColocatedPeerSolvesLocally) {
  Rng rng(2);
  std::vector<Poi> pois = RandomPois(200, &rng, 1000);
  SpatialServer server(pois);
  SennProcessor senn(&server, SennOptions{});
  Vec2 q{500, 500};
  CachedResult peer = MakePeerCache(pois, q, 10);
  SennOutcome outcome = senn.Execute(q, 3, {&peer});
  EXPECT_EQ(outcome.resolution, Resolution::kSinglePeer);
  ExpectSameIds(outcome.neighbors, TrueKnn(pois, q, 3), "single-peer path");
  EXPECT_EQ(server.stats().queries, 0u);  // the server was never contacted
}

TEST(SennTest, AnswerAlwaysExactAcrossRandomWorlds) {
  Rng rng(3);
  int by_single = 0, by_multi = 0, by_server = 0;
  for (int trial = 0; trial < 150; ++trial) {
    std::vector<Poi> pois = RandomPois(static_cast<int>(rng.UniformInt(5, 60)), &rng, 600);
    SpatialServer server(pois);
    SennOptions options;
    options.server_request_k = 8;
    SennProcessor senn(&server, options);
    Vec2 q{rng.Uniform(100, 500), rng.Uniform(100, 500)};
    std::vector<CachedResult> caches;
    int peer_count = static_cast<int>(rng.UniformInt(0, 6));
    for (int i = 0; i < peer_count; ++i) {
      caches.push_back(MakePeerCache(
          pois, {q.x + rng.Uniform(-150, 150), q.y + rng.Uniform(-150, 150)}, 8));
    }
    std::vector<const CachedResult*> peers;
    for (const CachedResult& c : caches) peers.push_back(&c);
    int k = static_cast<int>(rng.UniformInt(1, 5));
    SennOutcome outcome = senn.Execute(q, k, peers);
    ExpectSameIds(outcome.neighbors, TrueKnn(pois, q, k), "random world");
    switch (outcome.resolution) {
      case Resolution::kSinglePeer:
        ++by_single;
        break;
      case Resolution::kMultiPeer:
        ++by_multi;
        break;
      case Resolution::kServer:
        ++by_server;
        break;
      case Resolution::kUncertain:
        FAIL() << "uncertain disabled";
    }
    // The cached prefix must itself be an exact rank prefix.
    std::vector<RankedPoi> truth =
        TrueKnn(pois, q, static_cast<int>(outcome.certain_prefix.size()));
    for (size_t i = 0; i < outcome.certain_prefix.size(); ++i) {
      EXPECT_EQ(outcome.certain_prefix[i].id, truth[i].id) << "prefix rank " << i;
    }
  }
  // All three resolution paths must be exercised by the mix.
  EXPECT_GT(by_single, 0);
  EXPECT_GT(by_multi, 0);
  EXPECT_GT(by_server, 0);
}

// ResolvesLocally is Prepare without a server contact: over random worlds
// and peer sets, under each option set that changes the peer stages, it
// must agree with whether Execute ends up at the server.
TEST(SennTest, ResolvesLocallyAgreesWithExecute) {
  struct Config {
    const char* name;
    SennOptions options;
  };
  std::vector<Config> configs(4);
  configs[0].name = "default";
  configs[1].name = "early_exit";
  configs[1].options.early_exit = true;
  configs[2].name = "accept_uncertain";
  configs[2].options.accept_uncertain = true;
  configs[3].name = "no multi-peer";
  configs[3].options.enable_multi_peer = false;
  Rng rng(9);
  for (Config& config : configs) {
    config.options.server_request_k = 8;
    int local = 0, server_bound = 0, uncertain = 0;
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<Poi> pois = RandomPois(static_cast<int>(rng.UniformInt(5, 60)), &rng, 600);
      SpatialServer server(pois);
      SennProcessor senn(&server, config.options);
      Vec2 q{rng.Uniform(100, 500), rng.Uniform(100, 500)};
      // Near peers certify; far ones mostly leave uncertain candidates.
      const double spread = rng.Bernoulli(0.5) ? 100 : 400;
      std::vector<CachedResult> caches;
      const int peer_count = static_cast<int>(rng.UniformInt(0, 6));
      for (int i = 0; i < peer_count; ++i) {
        caches.push_back(MakePeerCache(
            pois, {q.x + rng.Uniform(-spread, spread), q.y + rng.Uniform(-spread, spread)},
            static_cast<int>(rng.UniformInt(1, 8))));
      }
      std::vector<const CachedResult*> peers;
      for (const CachedResult& c : caches) peers.push_back(&c);
      const int k = static_cast<int>(rng.UniformInt(1, 5));
      const bool resolves = senn.ResolvesLocally(q, k, peers);
      const SennOutcome outcome = senn.Execute(q, k, peers);
      EXPECT_EQ(resolves, outcome.resolution != Resolution::kServer)
          << config.name << " trial " << trial;
      ++(resolves ? local : server_bound);
      uncertain += outcome.resolution == Resolution::kUncertain;
    }
    // Both answers must be exercised, and the uncertain branch where enabled.
    EXPECT_GT(local, 0) << config.name;
    EXPECT_GT(server_bound, 0) << config.name;
    if (config.options.accept_uncertain) {
      EXPECT_GT(uncertain, 0);
    }
  }
}

TEST(SennTest, BoundsShippedMatchHeapState) {
  Rng rng(4);
  std::vector<Poi> pois = RandomPois(300, &rng, 1000);
  SpatialServer server(pois);
  SennOptions options;
  options.server_request_k = 6;
  SennProcessor senn(&server, options);
  Vec2 q{500, 500};
  // A peer somewhat away: typically certifies some but not all.
  CachedResult peer = MakePeerCache(pois, {540, 500}, 6);
  SennOutcome outcome = senn.Execute(q, 6, {&peer});
  if (outcome.resolution == Resolution::kServer) {
    if (!outcome.certain_prefix.empty() &&
        (outcome.heap_state == HeapState::kFullMixed ||
         outcome.heap_state == HeapState::kPartialMixed ||
         outcome.heap_state == HeapState::kPartialCertainOnly)) {
      EXPECT_TRUE(outcome.bounds.lower.has_value());
    }
    EXPECT_LE(outcome.einn_accesses.total(), outcome.inn_accesses.total());
  }
}

TEST(SennTest, AcceptUncertainReturnsFullHeap) {
  Rng rng(5);
  std::vector<Poi> pois = RandomPois(100, &rng, 1000);
  SpatialServer server(pois);
  SennOptions options;
  options.server_request_k = 4;
  options.accept_uncertain = true;
  SennProcessor senn(&server, options);
  Vec2 q{0, 0};
  // Far peer: uncertain candidates only; heap (capacity 4) fills with them.
  CachedResult peer = MakePeerCache(pois, {900, 900}, 6);
  SennOutcome outcome = senn.Execute(q, 4, {&peer});
  EXPECT_EQ(outcome.resolution, Resolution::kUncertain);
  EXPECT_EQ(outcome.neighbors.size(), 4u);
  EXPECT_EQ(server.stats().queries, 0u);
}

TEST(SennTest, DisablingMultiPeerFallsBackToServer) {
  Rng rng(6);
  int multi_with = 0, multi_without = 0;
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<Poi> pois = RandomPois(40, &rng, 500);
    SpatialServer server(pois);
    Vec2 q{rng.Uniform(150, 350), rng.Uniform(150, 350)};
    std::vector<CachedResult> caches;
    for (int i = 0; i < 4; ++i) {
      caches.push_back(MakePeerCache(
          pois, {q.x + rng.Uniform(-60, 60), q.y + rng.Uniform(-60, 60)}, 6));
    }
    std::vector<const CachedResult*> peers;
    for (const CachedResult& c : caches) peers.push_back(&c);
    SennOptions with;
    with.server_request_k = 6;
    SennOptions without = with;
    without.enable_multi_peer = false;
    SennOutcome a = SennProcessor(&server, with).Execute(q, 4, peers);
    SennOutcome b = SennProcessor(&server, without).Execute(q, 4, peers);
    multi_with += a.resolution == Resolution::kMultiPeer;
    multi_without += b.resolution == Resolution::kMultiPeer;
    // Both must still be exact.
    ExpectSameIds(a.neighbors, TrueKnn(pois, q, 4), "with multi");
    ExpectSameIds(b.neighbors, TrueKnn(pois, q, 4), "without multi");
  }
  EXPECT_GT(multi_with, 0);
  EXPECT_EQ(multi_without, 0);
}

TEST(SennTest, KBelowServerRequestGetsFatCachePrefix) {
  Rng rng(7);
  std::vector<Poi> pois = RandomPois(100, &rng, 1000);
  SpatialServer server(pois);
  SennOptions options;
  options.server_request_k = 10;
  SennProcessor senn(&server, options);
  SennOutcome outcome = senn.Execute({500, 500}, 2, {});
  EXPECT_EQ(outcome.neighbors.size(), 2u);
  EXPECT_EQ(outcome.certain_prefix.size(), 10u);  // policy 2
}

TEST(SennTest, EmptyDatabase) {
  SpatialServer server({});
  SennProcessor senn(&server, SennOptions{});
  SennOutcome outcome = senn.Execute({0, 0}, 3, {});
  EXPECT_EQ(outcome.resolution, Resolution::kServer);
  EXPECT_TRUE(outcome.neighbors.empty());
}

TEST(SennTest, PeerOrderingAblationStillExact) {
  Rng rng(8);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Poi> pois = RandomPois(40, &rng, 500);
    SpatialServer server(pois);
    Vec2 q{rng.Uniform(100, 400), rng.Uniform(100, 400)};
    std::vector<CachedResult> caches;
    for (int i = 0; i < 4; ++i) {
      caches.push_back(MakePeerCache(
          pois, {rng.Uniform(0, 500), rng.Uniform(0, 500)}, 6));
    }
    std::vector<const CachedResult*> peers;
    for (const CachedResult& c : caches) peers.push_back(&c);
    SennOptions unsorted;
    unsorted.sort_peers = false;
    unsorted.server_request_k = 6;
    SennOutcome outcome = SennProcessor(&server, unsorted).Execute(q, 3, peers);
    ExpectSameIds(outcome.neighbors, TrueKnn(pois, q, 3), "unsorted peers");
  }
}

}  // namespace
}  // namespace senn::core
