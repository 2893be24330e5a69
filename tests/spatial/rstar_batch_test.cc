#include <algorithm>
#include <cstdio>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/simd.h"
#include "spatial/rstar_tree.h"
#include "storage/disk_rstar.h"

namespace walrus {
namespace {

// RangeQueryBatch contract: the delivered (probe, payload) multiset is
// identical to running RangeSearchVisit once per probe; only the grouping
// (by node instead of by probe) differs. Verified here for the in-memory
// and the disk tree, across ISA levels, plus the early-abort and the
// concurrent-reader behavior (the latter is the TSan target BatchedProbe).

using ProbeHit = std::pair<int, uint64_t>;  // (probe index, payload)

std::vector<std::pair<Rect, uint64_t>> RandomEntries(int n, int dim,
                                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<Rect, uint64_t>> entries;
  for (int i = 0; i < n; ++i) {
    std::vector<float> lo(dim), hi(dim);
    for (int d = 0; d < dim; ++d) {
      lo[d] = rng.NextFloat();
      hi[d] = lo[d] + 0.05f * rng.NextFloat();
    }
    entries.emplace_back(Rect::Bounds(lo, hi), static_cast<uint64_t>(i));
  }
  return entries;
}

std::vector<Rect> RandomProbes(int n, int dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<Rect> probes;
  for (int i = 0; i < n; ++i) {
    std::vector<float> lo(dim), hi(dim);
    for (int d = 0; d < dim; ++d) {
      lo[d] = rng.NextFloat() * 0.6f;
      hi[d] = lo[d] + 0.2f + 0.3f * rng.NextFloat();
    }
    probes.push_back(Rect::Bounds(lo, hi));
  }
  return probes;
}

std::multiset<ProbeHit> SingleProbeHits(const RStarTree& tree,
                                        const std::vector<Rect>& probes) {
  std::multiset<ProbeHit> hits;
  for (size_t p = 0; p < probes.size(); ++p) {
    tree.RangeSearchVisit(probes[p], [&](const Rect&, uint64_t payload) {
      hits.insert({static_cast<int>(p), payload});
      return true;
    });
  }
  return hits;
}

std::multiset<ProbeHit> BatchHits(const RStarTree& tree,
                                  const std::vector<Rect>& probes) {
  std::multiset<ProbeHit> hits;
  tree.RangeQueryBatch(probes, [&](int p, const Rect&, uint64_t payload) {
    hits.insert({p, payload});
    return true;
  });
  return hits;
}

class RStarBatchSweep : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(RStarBatchSweep, BatchMatchesSingleProbes) {
  auto [n, num_probes] = GetParam();
  const int dim = 4;
  RStarTree tree(dim);
  for (const auto& [rect, payload] : RandomEntries(n, dim, 7000 + n)) {
    tree.Insert(rect, payload);
  }
  std::vector<Rect> probes = RandomProbes(num_probes, dim, 8000 + num_probes);
  const std::multiset<ProbeHit> want = SingleProbeHits(tree, probes);
  EXPECT_FALSE(want.empty());

  for (int l = 0; l <= static_cast<int>(simd::MaxSupportedIsa()); ++l) {
    simd::TestOnlySetIsa(static_cast<simd::IsaLevel>(l));
    EXPECT_EQ(want, BatchHits(tree, probes))
        << "isa=" << simd::IsaName(static_cast<simd::IsaLevel>(l));
  }
  simd::TestOnlyResetIsa();
}

INSTANTIATE_TEST_SUITE_P(Sweep, RStarBatchSweep,
                         ::testing::Values(std::make_tuple(50, 1),
                                           std::make_tuple(300, 8),
                                           std::make_tuple(1000, 16),
                                           std::make_tuple(1000, 70)));

TEST(RStarBatch, EmptyAndDegenerateProbes) {
  const int dim = 3;
  RStarTree tree(dim);
  for (const auto& [rect, payload] : RandomEntries(200, dim, 42)) {
    tree.Insert(rect, payload);
  }
  // No probes: no callbacks, no crash.
  int calls = 0;
  tree.RangeQueryBatch({}, [&](int, const Rect&, uint64_t) {
    ++calls;
    return true;
  });
  EXPECT_EQ(calls, 0);
  // Empty probes are skipped; the non-empty one still answers.
  std::vector<Rect> probes = {Rect(), RandomProbes(1, dim, 43)[0], Rect()};
  std::multiset<ProbeHit> batch;
  tree.RangeQueryBatch(probes, [&](int p, const Rect&, uint64_t payload) {
    batch.insert({p, payload});
    return true;
  });
  std::multiset<ProbeHit> want;
  tree.RangeSearchVisit(probes[1], [&](const Rect&, uint64_t payload) {
    want.insert({1, payload});
    return true;
  });
  EXPECT_EQ(want, batch);
}

TEST(RStarBatch, VisitorAbortStopsTraversal) {
  const int dim = 2;
  RStarTree tree(dim);
  for (const auto& [rect, payload] : RandomEntries(500, dim, 77)) {
    tree.Insert(rect, payload);
  }
  std::vector<Rect> probes(
      4, Rect::Bounds(std::vector<float>(dim, 0.0f),
                      std::vector<float>(dim, 1.0f)));
  int calls = 0;
  tree.RangeQueryBatch(probes, [&](int, const Rect&, uint64_t) {
    return ++calls < 10;
  });
  EXPECT_EQ(calls, 10);
}

TEST(RStarBatch, NodesVisitedIsDeduplicated) {
  const int dim = 4;
  RStarTree tree(dim);
  for (const auto& [rect, payload] : RandomEntries(2000, dim, 99)) {
    tree.Insert(rect, payload);
  }
  std::vector<Rect> probes = RandomProbes(12, dim, 100);
  int64_t sum_single = 0;
  for (const Rect& probe : probes) {
    const int64_t visited = tree.RangeSearchVisit(
        probe, [](const Rect&, uint64_t) { return true; });
    EXPECT_EQ(visited, tree.last_nodes_visited());
    sum_single += visited;
  }
  const int64_t batch_visited = tree.RangeQueryBatch(
      probes, [](int, const Rect&, uint64_t) { return true; });
  EXPECT_EQ(batch_visited, tree.last_nodes_visited());
  EXPECT_GT(batch_visited, 0);
  // Shared traversal: a node serving k probes is visited once, not k times.
  EXPECT_LE(batch_visited, sum_single);
}

TEST(DiskRStarBatch, BatchMatchesSingleProbes) {
  const int dim = 4;
  std::vector<std::pair<Rect, uint64_t>> entries =
      RandomEntries(1200, dim, 1234);
  auto tree = DiskRStarTree::Build(dim, entries);
  ASSERT_TRUE(tree.ok()) << tree.status();

  std::vector<Rect> probes = RandomProbes(20, dim, 1235);
  std::multiset<ProbeHit> want;
  for (size_t p = 0; p < probes.size(); ++p) {
    tree->RangeSearchVisit(probes[p], [&](const Rect&, uint64_t payload) {
      want.insert({static_cast<int>(p), payload});
      return true;
    });
  }
  EXPECT_FALSE(want.empty());

  for (int l = 0; l <= static_cast<int>(simd::MaxSupportedIsa()); ++l) {
    simd::TestOnlySetIsa(static_cast<simd::IsaLevel>(l));
    std::multiset<ProbeHit> batch;
    tree->RangeQueryBatch(probes, [&](int p, const Rect&, uint64_t payload) {
      batch.insert({p, payload});
      return true;
    });
    EXPECT_EQ(want, batch)
        << "isa=" << simd::IsaName(static_cast<simd::IsaLevel>(l));
  }
  simd::TestOnlyResetIsa();
}

// TSan target: concurrent batched probes share the tree but no traversal
// state (all batch scratch is call-local).
TEST(BatchedProbeConcurrency, ConcurrentBatchesAreRaceFree) {
  const int dim = 4;
  RStarTree tree(dim);
  for (const auto& [rect, payload] : RandomEntries(1500, dim, 555)) {
    tree.Insert(rect, payload);
  }
  std::vector<Rect> probes = RandomProbes(10, dim, 556);
  const std::multiset<ProbeHit> want = SingleProbeHits(tree, probes);

  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  std::vector<std::multiset<ProbeHit>> got(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        got[t] = BatchHits(tree, probes);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(want, got[t]) << "thread " << t;
  }
}

}  // namespace
}  // namespace walrus
