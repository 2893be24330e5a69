#include "storage/disk_rstar.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/serialize.h"
#include "spatial/rstar_tree.h"

namespace walrus {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<std::pair<Rect, uint64_t>> RandomEntries(int n, int dim,
                                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<Rect, uint64_t>> entries;
  for (int i = 0; i < n; ++i) {
    std::vector<float> p(dim);
    for (float& v : p) v = rng.NextFloat();
    entries.emplace_back(Rect::Point(p), static_cast<uint64_t>(i));
  }
  return entries;
}

TEST(DiskRStar, EmptyTree) {
  std::string path = TempPath("disk_rstar_empty.db");
  auto built = DiskRStarTree::Build(4, {});
  ASSERT_TRUE(built.ok()) << built.status();
  ASSERT_TRUE(built->Save(path).ok());
  auto tree = DiskRStarTree::Open(path);
  ASSERT_TRUE(tree.ok()) << tree.status();
  EXPECT_TRUE(tree->SameArena(*built));
  EXPECT_EQ(tree->size(), 0);
  EXPECT_TRUE(
      tree->RangeSearch(Rect::Bounds({0, 0, 0, 0}, {1, 1, 1, 1})).empty());
  EXPECT_TRUE(tree->NearestNeighbors({0.5f, 0.5f, 0.5f, 0.5f}, 3).empty());
  std::remove(path.c_str());
}

TEST(DiskRStar, BuildRejectsBadInput) {
  EXPECT_EQ(DiskRStarTree::Build(0, {}).status().code(),
            StatusCode::kInvalidArgument);
  // 64-byte pages fit one 12-d entry, not two.
  EXPECT_EQ(DiskRStarTree::Build(12, {}, 64).status().code(),
            StatusCode::kInvalidArgument);
  std::vector<std::pair<Rect, uint64_t>> wrong_dim = {
      {Rect::Point({1.0f, 2.0f, 3.0f}), 1}};
  EXPECT_EQ(DiskRStarTree::Build(2, wrong_dim).status().code(),
            StatusCode::kInvalidArgument);
  for (const Rect& bad :
       {Rect::Empty(2), Rect::Point({0.5f, std::nanf("")})}) {
    std::vector<std::pair<Rect, uint64_t>> entries = {
        {Rect::Point({0.1f, 0.2f}), 1}, {bad, 2}};
    EXPECT_EQ(DiskRStarTree::Build(2, entries).status().code(),
              StatusCode::kInvalidArgument);
  }
}

// The arena STR-built in memory and the arena decoded from its own pages
// are the same arena: node table, lo/hi planes and values, bit for bit.
TEST(DiskRStar, ArenaBuiltInMemoryEqualsDecodedPages) {
  std::string path = TempPath("disk_rstar_codec.db");
  struct Case {
    int n;
    int dim;
    uint32_t page_size;
    bool boxes;
  };
  for (const Case& c : {Case{1, 2, 4096, false}, Case{10, 2, 256, false},
                        Case{11, 2, 256, false}, Case{500, 2, 256, true},
                        Case{3000, 3, 256, false}, Case{5000, 12, 4096, false},
                        Case{2000, 12, 1024, true}}) {
    SCOPED_TRACE(::testing::Message() << c.n << " entries, dim " << c.dim
                                      << ", page " << c.page_size);
    std::vector<std::pair<Rect, uint64_t>> entries =
        RandomEntries(c.n, c.dim, 300 + c.n);
    if (c.boxes) {
      for (auto& [rect, payload] : entries) {
        std::vector<float> hi = rect.hi();
        for (float& v : hi) v += 0.05f;
        rect = Rect::Bounds(rect.lo(), hi);
      }
    }
    auto built = DiskRStarTree::Build(c.dim, entries, c.page_size);
    ASSERT_TRUE(built.ok()) << built.status();
    EXPECT_TRUE(built->Validate().ok());
    ASSERT_TRUE(built->Save(path).ok());
    auto decoded = DiskRStarTree::Open(path);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_TRUE(decoded->SameArena(*built));
    EXPECT_EQ(decoded->height(), built->height());
    EXPECT_EQ(decoded->ResidentBytes(), built->ResidentBytes());
    // Encoding the decoded arena gives back the same file.
    const std::vector<uint8_t> first = ReadFileBytes(path).value();
    ASSERT_TRUE(decoded->Save(path).ok());
    EXPECT_EQ(ReadFileBytes(path).value(), first);
  }
  // A different entry set is a different arena.
  auto a = DiskRStarTree::Build(2, RandomEntries(100, 2, 1), 256);
  auto b = DiskRStarTree::Build(2, RandomEntries(100, 2, 2), 256);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_FALSE(a->SameArena(*b));
  std::remove(path.c_str());
}

// Distance ties: 40 copies of one point among 400 others. The arena must
// return the neighbours RStarTree does (ties broken by payload), whatever
// layout made it, so an index answers knn the same on either tree.
TEST(DiskRStar, NearestNeighborsBreakTiesLikeRStarTree) {
  Rng rng(5);
  std::vector<std::pair<Rect, uint64_t>> entries;
  for (int i = 0; i < 400; ++i) {
    entries.emplace_back(
        Rect::Point({10.0f * rng.NextFloat(), 10.0f * rng.NextFloat()}),
        static_cast<uint64_t>(7000 + i));
  }
  std::vector<uint64_t> tied;
  for (int i = 0; i < 40; ++i) {
    // Scattered, unordered payloads for the tied copies.
    tied.push_back(static_cast<uint64_t>(5000 + (i * 37) % 400));
    entries.emplace_back(Rect::Point({5.0f, 5.0f}), tied.back());
  }
  std::shuffle(entries.begin(), entries.end(), std::mt19937(11));

  RStarTree bulk = RStarTree::BulkLoad(2, entries);
  RStarTree inserted(2);
  for (const auto& [rect, payload] : entries) inserted.Insert(rect, payload);
  auto arena = DiskRStarTree::Build(2, entries, /*page_size=*/256);
  ASSERT_TRUE(arena.ok()) << arena.status();
  const std::string path = TempPath("disk_rstar_ties.db");
  ASSERT_TRUE(arena->Save(path).ok());
  auto decoded = DiskRStarTree::Open(path);
  ASSERT_TRUE(decoded.ok()) << decoded.status();

  for (const std::vector<float>& q :
       {std::vector<float>{5.0f, 5.0f}, std::vector<float>{5.25f, 5.0f}}) {
    for (int k : {1, 5, 40, 45}) {
      const auto want = bulk.NearestNeighbors(q, k);
      ASSERT_EQ(static_cast<int>(want.size()), k);
      EXPECT_EQ(inserted.NearestNeighbors(q, k), want) << k;
      EXPECT_EQ(arena->NearestNeighbors(q, k), want) << k;
      EXPECT_EQ(decoded->NearestNeighbors(q, k), want) << k;
    }
  }
  // At k = 5 from the tied point: the five smallest tied payloads.
  std::vector<uint64_t> got;
  for (const auto& [payload, dist] : arena->NearestNeighbors({5, 5}, 5)) {
    EXPECT_EQ(dist, 0.0);
    got.push_back(payload);
  }
  std::sort(tied.begin(), tied.end());
  EXPECT_EQ(got, std::vector<uint64_t>(tied.begin(), tied.begin() + 5));
  std::remove(path.c_str());
}

class DiskRStarSweep : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(DiskRStarSweep, RangeSearchMatchesBruteForce) {
  auto [n, dim] = GetParam();
  std::string path = TempPath("disk_rstar_sweep_" + std::to_string(n) + "_" +
                              std::to_string(dim) + ".db");
  std::vector<std::pair<Rect, uint64_t>> entries =
      RandomEntries(n, dim, 100 + n);
  auto built = DiskRStarTree::Build(dim, entries);
  ASSERT_TRUE(built.ok()) << built.status();
  EXPECT_EQ(built->size(), n);
  ASSERT_TRUE(built->Save(path).ok());

  // Reopen from disk (exercises metadata + page parsing).
  auto tree = DiskRStarTree::Open(path);
  ASSERT_TRUE(tree.ok()) << tree.status();
  EXPECT_EQ(tree->size(), n);
  EXPECT_EQ(tree->dim(), dim);

  Rng rng(999);
  for (int trial = 0; trial < 15; ++trial) {
    std::vector<float> lo(dim), hi(dim);
    for (int d = 0; d < dim; ++d) {
      lo[d] = rng.NextFloat() * 0.7f;
      hi[d] = lo[d] + 0.3f;
    }
    Rect query = Rect::Bounds(lo, hi);
    std::vector<uint64_t> got = tree->RangeSearch(query);
    std::sort(got.begin(), got.end());
    std::vector<uint64_t> want;
    for (const auto& [rect, payload] : entries) {
      if (rect.Intersects(query)) want.push_back(payload);
    }
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << trial;
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DiskRStarSweep,
    ::testing::Values(std::make_tuple(1, 2), std::make_tuple(50, 2),
                      std::make_tuple(2000, 2), std::make_tuple(500, 12),
                      std::make_tuple(5000, 12)));

TEST(DiskRStar, NearestNeighborsMatchBruteForce) {
  const int dim = 12;
  const int n = 1500;
  std::vector<std::pair<Rect, uint64_t>> entries = RandomEntries(n, dim, 7);
  auto tree = DiskRStarTree::Build(dim, entries);
  ASSERT_TRUE(tree.ok());

  Rng rng(8);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<float> q(dim);
    for (float& v : q) v = rng.NextFloat();
    auto got = tree->NearestNeighbors(q, 7);
    ASSERT_EQ(got.size(), 7u);

    std::vector<std::pair<double, uint64_t>> brute;
    for (const auto& [rect, payload] : entries) {
      brute.emplace_back(std::sqrt(rect.MinSquaredDistance(q)), payload);
    }
    std::sort(brute.begin(), brute.end());
    for (int k = 0; k < 7; ++k) {
      EXPECT_NEAR(got[k].second, brute[k].first, 1e-6) << trial << " " << k;
    }
  }
}

TEST(DiskRStar, BoxEntriesSupported) {
  Rng rng(9);
  std::vector<std::pair<Rect, uint64_t>> entries;
  for (int i = 0; i < 400; ++i) {
    std::vector<float> lo = {rng.NextFloat(), rng.NextFloat()};
    std::vector<float> hi = {lo[0] + 0.1f * rng.NextFloat(),
                             lo[1] + 0.1f * rng.NextFloat()};
    entries.emplace_back(Rect::Bounds(lo, hi), static_cast<uint64_t>(i));
  }
  auto tree = DiskRStarTree::Build(2, entries);
  ASSERT_TRUE(tree.ok());
  Rect query = Rect::Bounds({0.4f, 0.4f}, {0.6f, 0.6f});
  std::vector<uint64_t> got = tree->RangeSearch(query);
  std::sort(got.begin(), got.end());
  std::vector<uint64_t> want;
  for (const auto& [rect, payload] : entries) {
    if (rect.Intersects(query)) want.push_back(payload);
  }
  EXPECT_EQ(got, want);
  // The visitor sees each entry's stored rect (one scratch Rect is reused
  // across hits, so every delivery must overwrite all of it).
  int hits = 0;
  tree->RangeSearchVisit(query, [&](const Rect& rect, uint64_t payload) {
    EXPECT_TRUE(rect == entries[payload].first) << payload;
    ++hits;
    return true;
  });
  EXPECT_EQ(hits, static_cast<int>(want.size()));
}

// The tree is resident after Open: repeat probes are all cache hits, and
// they are answered even after the file is overwritten with garbage.
TEST(DiskRStar, CacheServesRepeatProbes) {
  std::string path = TempPath("disk_rstar_cache.db");
  std::vector<std::pair<Rect, uint64_t>> entries = RandomEntries(3000, 2, 10);
  auto built = DiskRStarTree::Build(2, entries);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built->Save(path).ok());
  auto tree = DiskRStarTree::Open(path);
  ASSERT_TRUE(tree.ok()) << tree.status();
  Rect probe = Rect::Bounds({0.4f, 0.4f}, {0.45f, 0.45f});
  const std::vector<uint64_t> first = tree->RangeSearch(probe);
  ASSERT_FALSE(first.empty());
  const auto nearest = tree->NearestNeighbors({0.3f, 0.7f}, 5);

  const long file_bytes = [&] {
    FILE* f = fopen(path.c_str(), "rb");
    fseek(f, 0, SEEK_END);
    const long bytes = ftell(f);
    fclose(f);
    return bytes;
  }();
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  for (long i = 0; i < file_bytes; ++i) fputc(0xA5, f);
  fclose(f);
  ASSERT_FALSE(DiskRStarTree::Open(path).ok());

  EXPECT_EQ(tree->RangeSearch(probe), first);
  EXPECT_EQ(tree->NearestNeighbors({0.3f, 0.7f}, 5), nearest);
  EXPECT_TRUE(tree->Validate().ok());
  EXPECT_GT(tree->cache_hits(), 0);
  EXPECT_EQ(tree->cache_hits(), tree->pages_read());
  EXPECT_EQ(tree->cache_misses(), 0);
  std::remove(path.c_str());
}

TEST(DiskRStar, OpenRejectsGarbage) {
  std::string path = TempPath("disk_rstar_garbage.db");
  FILE* f = fopen(path.c_str(), "wb");
  fputs("not a page file", f);
  fclose(f);
  EXPECT_FALSE(DiskRStarTree::Open(path).ok());
  std::remove(path.c_str());
}

TEST(DiskRStar, PagesReadScalesWithSelectivity) {
  auto tree = DiskRStarTree::Build(2, RandomEntries(20000, 2, 11));
  ASSERT_TRUE(tree.ok());
  // Small probe touches far fewer pages than a full scan, and each call
  // returns exactly the pages it added to the tree-wide counter.
  const auto noop = [](const Rect&, uint64_t) { return true; };
  int64_t small_pages = tree->RangeSearchVisit(
      Rect::Bounds({0.5f, 0.5f}, {0.52f, 0.52f}), noop);
  EXPECT_EQ(tree->pages_read(), small_pages);
  int64_t full_pages =
      tree->RangeSearchVisit(Rect::Bounds({0, 0}, {1, 1}), noop);
  EXPECT_EQ(tree->pages_read(), small_pages + full_pages);
  EXPECT_LT(small_pages, full_pages / 5);
  int64_t knn_pages = 0;
  tree->NearestNeighbors({0.5f, 0.5f}, 3, &knn_pages);
  EXPECT_GT(knn_pages, 0);
  EXPECT_EQ(tree->pages_read(), small_pages + full_pages + knn_pages);
}

}  // namespace
}  // namespace walrus
