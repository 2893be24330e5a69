// The quadratic-split / no-reinsert (classic Guttman R-tree) configuration
// must satisfy the same correctness contract as the default R* policy.

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "spatial/rstar_tree.h"

namespace walrus {
namespace {

Rect RandomPointRect(Rng* rng, int dim) {
  std::vector<float> p(dim);
  for (float& v : p) v = rng->NextFloat();
  return Rect::Point(p);
}

RStarParams QuadraticParams() {
  RStarParams params;
  params.split_policy = SplitPolicy::kQuadratic;
  params.use_forced_reinsert = false;  // plain Guttman R-tree behaviour
  return params;
}

TEST(RStarPolicy, QuadraticRangeSearchMatchesBruteForce) {
  Rng rng(21);
  const int dim = 3;
  RStarTree tree(dim, QuadraticParams());
  std::vector<Rect> rects;
  for (int i = 0; i < 800; ++i) {
    rects.push_back(RandomPointRect(&rng, dim));
    tree.Insert(rects.back(), static_cast<uint64_t>(i));
  }
  ASSERT_TRUE(tree.Validate().ok()) << tree.Validate();
  for (int trial = 0; trial < 15; ++trial) {
    std::vector<float> lo(dim), hi(dim);
    for (int d = 0; d < dim; ++d) {
      lo[d] = rng.NextFloat() * 0.7f;
      hi[d] = lo[d] + 0.3f;
    }
    Rect query = Rect::Bounds(lo, hi);
    std::vector<uint64_t> got = tree.RangeSearch(query);
    std::sort(got.begin(), got.end());
    std::vector<uint64_t> want;
    for (int i = 0; i < 800; ++i) {
      if (rects[i].Intersects(query)) want.push_back(i);
    }
    EXPECT_EQ(got, want) << trial;
  }
}

TEST(RStarPolicy, QuadraticSupportsDeletes) {
  Rng rng(22);
  RStarTree tree(2, QuadraticParams());
  std::vector<Rect> rects;
  for (int i = 0; i < 300; ++i) {
    rects.push_back(RandomPointRect(&rng, 2));
    tree.Insert(rects.back(), static_cast<uint64_t>(i));
  }
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(tree.Delete(rects[i], static_cast<uint64_t>(i)).ok()) << i;
  }
  EXPECT_EQ(tree.size(), 100);
  ASSERT_TRUE(tree.Validate().ok()) << tree.Validate();
}

TEST(RStarPolicy, RStarProbesNoMoreNodesThanQuadratic) {
  // The R* split + forced reinsert should yield equal-or-tighter trees:
  // compare nodes visited on identical range probes (clustered data where
  // split quality matters).
  Rng rng(24);
  const int dim = 2;
  RStarParams rstar_params;
  RStarTree rstar(dim, rstar_params);
  RStarTree quadratic(dim, QuadraticParams());
  for (int i = 0; i < 3000; ++i) {
    // Clustered points: 30 blobs.
    int blob = rng.NextInt(0, 29);
    float cx = (blob % 6) / 6.0f;
    float cy = (blob / 6) / 5.0f;
    std::vector<float> p = {cx + 0.05f * rng.NextFloat(),
                            cy + 0.05f * rng.NextFloat()};
    Rect r = Rect::Point(p);
    rstar.Insert(r, static_cast<uint64_t>(i));
    quadratic.Insert(r, static_cast<uint64_t>(i));
  }
  int64_t rstar_nodes = 0;
  int64_t quadratic_nodes = 0;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<float> lo = {rng.NextFloat() * 0.9f, rng.NextFloat() * 0.9f};
    Rect query = Rect::Bounds(lo, {lo[0] + 0.08f, lo[1] + 0.08f});
    std::vector<uint64_t> a = rstar.RangeSearch(query);
    rstar_nodes += rstar.last_nodes_visited();
    std::vector<uint64_t> b = quadratic.RangeSearch(query);
    quadratic_nodes += quadratic.last_nodes_visited();
    // Same answers regardless of structure.
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_EQ(a, b) << trial;
  }
  // Allow a little slack; over 50 probes R* should not be meaningfully
  // worse than the quadratic/no-reinsert build.
  EXPECT_LE(rstar_nodes, quadratic_nodes * 1.15 + 50);
}

}  // namespace
}  // namespace walrus
