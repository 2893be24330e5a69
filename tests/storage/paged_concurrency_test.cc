// Per-query probe accounting under concurrency. Each query's QueryStats
// must count only the tree work of that query's own traversals, so N
// queries running at once against one index (in-memory or paged) report
// exactly what the same queries report when run alone. A poller reads the
// tree-wide diagnostics counters meanwhile. This test exists to run under
// TSan (scripts/check.sh stage 3).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/index.h"
#include "core/query.h"
#include "image/dataset.h"

namespace walrus {
namespace {

struct ProbeCounts {
  int64_t nodes_visited = 0;
  int64_t pages_read = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  bool operator==(const ProbeCounts&) const = default;
};

/// Query q: image q % images, range probes for even q and k-NN probes
/// (knn_per_region) for odd q, so both traversals are covered.
Result<ProbeCounts> RunQuery(const WalrusIndex& index,
                             const std::vector<LabeledImage>& dataset, int q) {
  QueryOptions options;
  options.epsilon = 0.085f;
  if (q % 2 == 1) options.knn_per_region = 4;
  QueryStats stats;
  Result<std::vector<QueryMatch>> matches = ExecuteQuery(
      index, dataset[q % dataset.size()].image, options, &stats);
  if (!matches.ok()) return matches.status();
  return ProbeCounts{stats.nodes_visited, stats.pages_read, stats.cache_hits,
                     stats.cache_misses};
}

TEST(PagedConcurrencyTest, ConcurrentQueriesReportTheirOwnProbeCounts) {
  DatasetParams dp;
  dp.num_images = 10;
  dp.width = 64;
  dp.height = 64;
  dp.seed = 7;
  std::vector<LabeledImage> dataset = GenerateDataset(dp);

  WalrusParams params;
  params.min_window = 16;
  params.max_window = 32;
  params.slide_step = 8;
  WalrusIndex memory(params);
  for (const LabeledImage& scene : dataset) {
    ASSERT_TRUE(
        memory.AddImage(static_cast<uint64_t>(scene.id), "img", scene.image)
            .ok());
  }
  std::string prefix = ::testing::TempDir() + "/walrus_paged_concurrency";
  ASSERT_TRUE(memory.SavePaged(prefix).ok());
  auto paged = WalrusIndex::OpenPaged(prefix);
  ASSERT_TRUE(paged.ok()) << paged.status();
  ASSERT_TRUE(paged->is_paged());

  constexpr int kQueries = 12;
  constexpr int kThreads = 6;
  const WalrusIndex* indexes[] = {&memory, &*paged};
  for (const WalrusIndex* index : indexes) {
    SCOPED_TRACE(index->is_paged() ? "paged" : "in-memory");
    // Each query's counts when run alone.
    std::vector<ProbeCounts> alone(kQueries);
    for (int q = 0; q < kQueries; ++q) {
      Result<ProbeCounts> counts = RunQuery(*index, dataset, q);
      ASSERT_TRUE(counts.ok()) << counts.status();
      alone[q] = *counts;
      if (index->is_paged()) {
        EXPECT_EQ(counts->nodes_visited, 0);
        EXPECT_GT(counts->pages_read, 0);
        EXPECT_EQ(counts->cache_hits, counts->pages_read);
        EXPECT_EQ(counts->cache_misses, 0);
      } else {
        EXPECT_GT(counts->nodes_visited, 0);
        EXPECT_EQ(counts->pages_read, 0);
      }
    }

    // The same queries, all threads at once, each thread cycling through
    // every query from its own offset.
    std::vector<std::vector<ProbeCounts>> seen(
        kThreads, std::vector<ProbeCounts>(kQueries));
    std::atomic<int> failures{0};
    std::atomic<bool> done{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kQueries; ++i) {
          const int q = (t + i) % kQueries;
          Result<ProbeCounts> counts = RunQuery(*index, dataset, q);
          if (!counts.ok()) {
            ++failures;
            continue;
          }
          seen[t][q] = *counts;
        }
      });
    }
    // Poller reads the tree-wide diagnostics while queries run.
    std::thread poller([&] {
      int64_t last_pages = 0;
      while (!done.load(std::memory_order_acquire)) {
        if (const DiskRStarTree* tree = index->disk_tree()) {
          const int64_t pages = tree->pages_read();
          EXPECT_GE(pages, last_pages);  // monotone
          EXPECT_EQ(tree->cache_misses(), 0);
          last_pages = pages;
        } else {
          EXPECT_GE(index->tree().last_nodes_visited(), 0);
        }
        std::this_thread::yield();
      }
    });
    for (std::thread& thread : threads) thread.join();
    done.store(true, std::memory_order_release);
    poller.join();

    EXPECT_EQ(failures.load(), 0);
    for (int t = 0; t < kThreads; ++t) {
      for (int q = 0; q < kQueries; ++q) {
        EXPECT_EQ(seen[t][q], alone[q]) << "thread " << t << " query " << q;
      }
    }
  }

  for (const char* suffix : {".catalog", ".pmeta", ".ptree"}) {
    std::remove((prefix + suffix).c_str());
  }
}

}  // namespace
}  // namespace walrus
