// Unit tests of rtree::SharedKnnTraversal, the best-first kNN kernel the
// server answers every query with: its one-query contract against
// BestFirstNnIterator (neighbors and whole access counters, with and without
// EINN bounds), the group semantics (each member answered as if alone, each
// node fetched once, the miss split only on the group counter), degenerate
// inputs, and reuse of one traversal's scratch across runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/rank.h"
#include "src/common/rng.h"
#include "src/rtree/knn.h"

namespace senn::rtree {
namespace {

using geom::Vec2;

constexpr AccessCountMode kModes[] = {AccessCountMode::kOnExpand, AccessCountMode::kOnEnqueue};

std::vector<ObjectEntry> RandomObjects(int n, Rng* rng) {
  std::vector<ObjectEntry> objs;
  objs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    objs.push_back({{rng->Uniform(0, 1000), rng->Uniform(0, 1000)}, i});
  }
  return objs;
}

RStarTree TreeOf(const std::vector<ObjectEntry>& objs) {
  RStarTree tree;
  for (const ObjectEntry& o : objs) tree.Insert(o.position, o.id);
  return tree;
}

/// Every object ranked by the system (distance, id) order from `q`.
std::vector<Neighbor> Ranked(const std::vector<ObjectEntry>& objs, Vec2 q) {
  std::vector<Neighbor> all;
  all.reserve(objs.size());
  for (const ObjectEntry& o : objs) all.push_back({o, geom::Dist(q, o.position)});
  std::sort(all.begin(), all.end(), [](const Neighbor& a, const Neighbor& b) {
    return senn::RanksBefore(a.distance, a.object.id, b.distance, b.object.id);
  });
  return all;
}

std::vector<int64_t> Ids(std::span<const Neighbor> ns) {
  std::vector<int64_t> ids;
  ids.reserve(ns.size());
  for (const Neighbor& n : ns) ids.push_back(n.object.id);
  return ids;
}

/// The iterator driven to `needed` results — the reference a one-query
/// traversal must reproduce.
struct IteratorRun {
  std::vector<Neighbor> neighbors;
  AccessCounter accesses;
};
IteratorRun DriveIterator(const RStarTree& tree, const KnnQuery& in, AccessCountMode mode,
                          NodePageHook* hook = nullptr) {
  BestFirstNnIterator it(tree, in.q, in.bounds, mode, in.k, hook);
  IteratorRun run;
  while (static_cast<int>(run.neighbors.size()) < in.needed) {
    std::optional<Neighbor> n = it.Next();
    if (!n.has_value()) break;
    run.neighbors.push_back(*n);
  }
  run.accesses = it.accesses();
  return run;
}

/// A page hook that keeps every fetched node resident (the first fetch of a
/// node is the only miss) and records the fetch/unpin sequence.
class RecordingHook : public NodePageHook {
 public:
  struct Event {
    const RStarTree::Node* node;
    bool fetch;
    bool operator==(const Event&) const = default;
  };

  bool Fetch(const RStarTree::Node* node) override {
    events_.push_back({node, true});
    ++pinned_;
    ++fetch_count_[node];
    return resident_.insert(node).second;
  }
  void Unpin(const RStarTree::Node* node) override {
    EXPECT_TRUE(resident_.contains(node));
    events_.push_back({node, false});
    --pinned_;
  }
  const std::vector<Event>& events() const { return events_; }
  int fetches() const {
    return static_cast<int>(std::count_if(events_.begin(), events_.end(),
                                          [](const Event& e) { return e.fetch; }));
  }
  int pinned() const { return pinned_; }
  int MostFetchesOfOneNode() const {
    int most = 0;
    for (const auto& entry : fetch_count_) most = std::max(most, entry.second);
    return most;
  }

 private:
  std::vector<Event> events_;
  int pinned_ = 0;
  std::unordered_set<const RStarTree::Node*> resident_;
  std::unordered_map<const RStarTree::Node*, int> fetch_count_;
};

TEST(SharedKnnTest, SingleQueryMatchesIteratorUnbounded) {
  Rng rng(11);
  const std::vector<ObjectEntry> objs = RandomObjects(1500, &rng);
  const RStarTree tree = TreeOf(objs);
  SharedKnnTraversal kernel;
  for (AccessCountMode mode : kModes) {
    for (int trial = 0; trial < 40; ++trial) {
      const int k = 1 + trial % 12;
      const KnnQuery in{{rng.Uniform(-50, 1050), rng.Uniform(-50, 1050)}, k, {}, k};
      kernel.Run(tree, std::span<const KnnQuery>(&in, 1), mode);
      const IteratorRun want = DriveIterator(tree, in, mode);
      EXPECT_EQ(Ids(kernel.neighbors(0)), Ids(want.neighbors)) << "trial " << trial;
      EXPECT_EQ(kernel.accesses(0), want.accesses) << "trial " << trial;
      std::vector<Neighbor> ranked = Ranked(objs, in.q);
      ranked.resize(static_cast<size_t>(k));
      EXPECT_EQ(Ids(kernel.neighbors(0)), Ids(ranked)) << "trial " << trial;
    }
  }
}

TEST(SharedKnnTest, SingleQueryMatchesIteratorWithPrefixBounds) {
  Rng rng(12);
  const std::vector<ObjectEntry> objs = RandomObjects(1200, &rng);
  const RStarTree tree = TreeOf(objs);
  SharedKnnTraversal kernel;
  for (AccessCountMode mode : kModes) {
    for (int trial = 0; trial < 40; ++trial) {
      const Vec2 q{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
      // Small k with short prefixes, and large k with long ones, whose
      // certain disk holds whole nodes: downward pruning then keeps known
      // objects out of the dynamic top-k bag.
      const bool long_prefix = trial % 2 == 1;
      const int k = long_prefix ? 30 + trial : 3 + trial % 8;
      // A certified rank prefix, possibly empty.
      const int certified = long_prefix ? k - 1 - trial % 6 : trial % k;
      const std::vector<Neighbor> ranked = Ranked(objs, q);
      KnnQuery in{q, k, {}, k - certified};
      if (certified > 0) {
        in.bounds.lower = ranked[static_cast<size_t>(certified - 1)].distance;
        in.bounds.lower_id_cut = ranked[static_cast<size_t>(certified - 1)].object.id;
      }
      // A client heap of k candidates bounds the k-th distance from above.
      if (trial % 3 != 0) in.bounds.upper = ranked[static_cast<size_t>(k - 1)].distance * 1.25;
      kernel.Run(tree, std::span<const KnnQuery>(&in, 1), mode);
      const IteratorRun want = DriveIterator(tree, in, mode);
      EXPECT_EQ(Ids(kernel.neighbors(0)), Ids(want.neighbors)) << "trial " << trial;
      EXPECT_EQ(kernel.accesses(0), want.accesses) << "trial " << trial;
      const std::vector<Neighbor> rest(ranked.begin() + certified, ranked.begin() + k);
      EXPECT_EQ(Ids(kernel.neighbors(0)), Ids(rest)) << "trial " << trial;
    }
  }
}

TEST(SharedKnnTest, SingleQueryReproducesIteratorPageFetches) {
  Rng rng(13);
  const std::vector<ObjectEntry> objs = RandomObjects(2000, &rng);
  const RStarTree tree = TreeOf(objs);
  SharedKnnTraversal kernel;
  for (AccessCountMode mode : kModes) {
    RecordingHook kernel_hook;
    RecordingHook iterator_hook;
    for (int trial = 0; trial < 30; ++trial) {
      const int k = 1 + trial % 9;
      const KnnQuery in{{rng.Uniform(0, 1000), rng.Uniform(0, 1000)}, k, {}, k};
      kernel.Run(tree, std::span<const KnnQuery>(&in, 1), mode, &kernel_hook);
      const IteratorRun want = DriveIterator(tree, in, mode, &iterator_hook);
      // Both hooks have seen the same fetch history, so misses agree too.
      EXPECT_EQ(kernel.accesses(0), want.accesses) << "trial " << trial;
      EXPECT_EQ(kernel_hook.pinned(), 0);
    }
    // The same pages fetched and unpinned in the same order.
    EXPECT_EQ(kernel_hook.events(), iterator_hook.events());
  }
}

TEST(SharedKnnTest, GroupMembersGetTheirSingleQueryAnswers) {
  Rng rng(14);
  const std::vector<ObjectEntry> objs = RandomObjects(1500, &rng);
  const RStarTree tree = TreeOf(objs);
  SharedKnnTraversal group_kernel;
  SharedKnnTraversal single_kernel;
  for (AccessCountMode mode : kModes) {
    for (int trial = 0; trial < 20; ++trial) {
      const Vec2 centre{rng.Uniform(100, 900), rng.Uniform(100, 900)};
      std::vector<KnnQuery> group;
      for (int j = 0; j < 6; ++j) {
        const int k = 1 + (trial + j) % 7;
        group.push_back({{centre.x + rng.Uniform(-40, 40), centre.y + rng.Uniform(-40, 40)},
                         k,
                         {},
                         k});
      }
      group_kernel.Run(tree, group, mode);
      for (size_t j = 0; j < group.size(); ++j) {
        single_kernel.Run(tree, std::span<const KnnQuery>(&group[j], 1), mode);
        const std::span<const Neighbor> got = group_kernel.neighbors(j);
        const std::span<const Neighbor> want = single_kernel.neighbors(0);
        ASSERT_EQ(got.size(), want.size()) << "trial " << trial << " member " << j;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].object.id, want[i].object.id);
          EXPECT_EQ(got[i].distance, want[i].distance);
        }
      }
    }
  }
}

TEST(SharedKnnTest, GroupFetchesEachNodeOnceAndSplitsMissesOnlyOnGroupCounter) {
  Rng rng(15);
  const RStarTree tree = TreeOf(RandomObjects(2500, &rng));
  SharedKnnTraversal kernel;
  for (AccessCountMode mode : kModes) {
    for (int trial = 0; trial < 15; ++trial) {
      const Vec2 centre{rng.Uniform(100, 900), rng.Uniform(100, 900)};
      std::vector<KnnQuery> group;
      for (int j = 0; j < 5; ++j) {
        group.push_back(
            {{centre.x + rng.Uniform(-60, 60), centre.y + rng.Uniform(-60, 60)}, 8, {}, 8});
      }
      RecordingHook hook;  // cold per trial: every fetch of the run is a miss
      AccessCounter group_counter;
      kernel.Run(tree, group, mode, &hook, &group_counter);
      EXPECT_EQ(hook.MostFetchesOfOneNode(), 1) << "trial " << trial;
      EXPECT_EQ(hook.pinned(), 0);
      EXPECT_EQ(group_counter.total(), static_cast<uint64_t>(hook.fetches()));
      EXPECT_EQ(group_counter.misses(), group_counter.total());
      EXPECT_EQ(group_counter.shared_misses + group_counter.private_misses,
                group_counter.misses());
      // The root is read by every member.
      EXPECT_GE(group_counter.shared_misses, 1u);
      AccessCounter billed;
      for (size_t j = 0; j < group.size(); ++j) {
        EXPECT_EQ(kernel.accesses(j).shared_misses, 0u);
        EXPECT_EQ(kernel.accesses(j).private_misses, 0u);
        billed += kernel.accesses(j);
      }
      EXPECT_EQ(billed.total(), group_counter.total());
      EXPECT_EQ(billed.misses(), group_counter.misses());
    }
  }
}

TEST(SharedKnnTest, NothingNeededMatchesIteratorConstruction) {
  Rng rng(16);
  const RStarTree tree = TreeOf(RandomObjects(800, &rng));
  SharedKnnTraversal kernel;
  for (AccessCountMode mode : kModes) {
    for (int k : {0, 4}) {
      const KnnQuery in{{rng.Uniform(0, 1000), rng.Uniform(0, 1000)}, k, {}, 0};
      kernel.Run(tree, std::span<const KnnQuery>(&in, 1), mode);
      EXPECT_TRUE(kernel.neighbors(0).empty());
      EXPECT_EQ(kernel.accesses(0), DriveIterator(tree, in, mode).accesses);
      if (mode == AccessCountMode::kOnExpand) {
        // Only the root is read when no object is wanted.
        EXPECT_EQ(kernel.accesses(0).total(), 1u);
      }
    }
  }
}

TEST(SharedKnnTest, EmptyGroupAndEmptyTree) {
  const RStarTree empty;
  SharedKnnTraversal kernel;
  AccessCounter group_counter;
  kernel.Run(empty, std::span<const KnnQuery>(), AccessCountMode::kOnExpand, nullptr,
             &group_counter);
  EXPECT_EQ(group_counter.total(), 0u);

  const KnnQuery in{{5, 5}, 3, {}, 3};
  for (AccessCountMode mode : kModes) {
    kernel.Run(empty, std::span<const KnnQuery>(&in, 1), mode, nullptr, &group_counter);
    EXPECT_TRUE(kernel.neighbors(0).empty());
    EXPECT_EQ(kernel.accesses(0).total(), 1u);  // the (leaf) root
  }
}

TEST(SharedKnnTest, NeededBeyondTreeSizeReportsEveryObjectInRankOrder) {
  Rng rng(17);
  const std::vector<ObjectEntry> objs = RandomObjects(7, &rng);
  const RStarTree tree = TreeOf(objs);
  SharedKnnTraversal kernel;
  const KnnQuery in{{500, 500}, 20, {}, 20};
  for (AccessCountMode mode : kModes) {
    kernel.Run(tree, std::span<const KnnQuery>(&in, 1), mode);
    EXPECT_EQ(Ids(kernel.neighbors(0)), Ids(Ranked(objs, in.q)));
  }
}

TEST(SharedKnnTest, CoDistantObjectsFollowIdOrderAtTheCut) {
  // A lattice: from a lattice point, rings of co-distant objects.
  std::vector<ObjectEntry> objs;
  int64_t id = 0;
  for (int x = 0; x < 40; ++x) {
    for (int y = 0; y < 40; ++y) objs.push_back({{x * 10.0, y * 10.0}, id++});
  }
  // Reverse insertion so tree order does not follow id order.
  std::vector<ObjectEntry> shuffled(objs.rbegin(), objs.rend());
  const RStarTree tree = TreeOf(shuffled);
  SharedKnnTraversal kernel;
  for (AccessCountMode mode : kModes) {
    for (int k : {1, 2, 3, 5, 7, 9, 13}) {
      const KnnQuery in{{200, 200}, k, {}, k};
      kernel.Run(tree, std::span<const KnnQuery>(&in, 1), mode);
      std::vector<Neighbor> ranked = Ranked(objs, in.q);
      ranked.resize(static_cast<size_t>(k));
      EXPECT_EQ(Ids(kernel.neighbors(0)), Ids(ranked)) << "k=" << k;
      EXPECT_EQ(kernel.accesses(0), DriveIterator(tree, in, mode).accesses) << "k=" << k;
    }
  }
}

TEST(SharedKnnTest, ReusedScratchAnswersLikeAFreshTraversal) {
  Rng rng(18);
  const RStarTree tree = TreeOf(RandomObjects(1500, &rng));
  std::vector<KnnQuery> small;
  std::vector<KnnQuery> large;
  for (int j = 0; j < 3; ++j) {
    small.push_back({{rng.Uniform(0, 1000), rng.Uniform(0, 1000)}, 4, {}, 4});
  }
  for (int j = 0; j < 12; ++j) {
    large.push_back({{rng.Uniform(0, 1000), rng.Uniform(0, 1000)}, 30, {}, 30});
  }
  for (AccessCountMode mode : kModes) {
    SharedKnnTraversal reused;
    reused.Run(tree, large, mode);
    reused.Run(tree, small, mode);
    SharedKnnTraversal fresh;
    fresh.Run(tree, small, mode);
    for (size_t j = 0; j < small.size(); ++j) {
      EXPECT_EQ(Ids(reused.neighbors(j)), Ids(fresh.neighbors(j))) << "member " << j;
      EXPECT_EQ(reused.accesses(j), fresh.accesses(j)) << "member " << j;
    }
  }
}

TEST(SharedKnnTest, DuplicateMembersShareOneAnswer) {
  Rng rng(19);
  const RStarTree tree = TreeOf(RandomObjects(1000, &rng));
  SharedKnnTraversal kernel;
  const Vec2 q{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
  const std::vector<KnnQuery> group(4, KnnQuery{q, 6, {}, 6});
  for (AccessCountMode mode : kModes) {
    AccessCounter group_counter;
    kernel.Run(tree, group, mode, nullptr, &group_counter);
    for (size_t j = 1; j < group.size(); ++j) {
      EXPECT_EQ(Ids(kernel.neighbors(j)), Ids(kernel.neighbors(0)));
    }
    // Identical members want the same nodes, so the first is billed for all.
    SharedKnnTraversal single;
    single.Run(tree, std::span<const KnnQuery>(&group[0], 1), mode);
    EXPECT_EQ(kernel.accesses(0), single.accesses(0));
    for (size_t j = 1; j < group.size(); ++j) EXPECT_EQ(kernel.accesses(j).total(), 0u);
    EXPECT_EQ(group_counter.total(), single.accesses(0).total());
  }
}

}  // namespace
}  // namespace senn::rtree
