#include <gtest/gtest.h>

#include "common/random.h"
#include "spatial/rstar_tree.h"

namespace walrus {
namespace {

/// A multi-level tree (default max_entries = 16, so 200 entries force
/// splits) with deterministic pseudo-random points.
RStarTree BuildTree(int num_entries) {
  RStarTree tree(2);
  Rng rng(7);
  for (int i = 0; i < num_entries; ++i) {
    std::vector<float> p = {rng.NextFloat(), rng.NextFloat()};
    tree.Insert(Rect::Point(p), static_cast<uint64_t>(i));
  }
  return tree;
}

TEST(RStarCorruption, HealthyTreeValidates) {
  RStarTree tree = BuildTree(200);
  EXPECT_GT(tree.height(), 1);
  EXPECT_TRUE(tree.Validate().ok());
}

}  // namespace
}  // namespace walrus
