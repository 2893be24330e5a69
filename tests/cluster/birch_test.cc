#include "cluster/birch.h"

#include <cmath>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/simd.h"
#include "core/params.h"
#include "core/signature.h"
#include "image/dataset.h"

namespace walrus {
namespace {

std::vector<float> MakeBlobs(int per_blob, const std::vector<std::pair<float, float>>& centers,
                             float spread, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> points;
  for (int i = 0; i < per_blob; ++i) {
    for (const auto& [cx, cy] : centers) {
      points.push_back(cx + spread * (rng.NextFloat() - 0.5f));
      points.push_back(cy + spread * (rng.NextFloat() - 0.5f));
    }
  }
  return points;
}

TEST(Birch, RecoversWellSeparatedBlobs) {
  std::vector<float> points =
      MakeBlobs(60, {{0, 0}, {10, 0}, {0, 10}, {10, 10}}, 0.1f, 1);
  BirchParams params;
  params.threshold = 0.5;
  BirchResult result = BirchPreCluster(points.data(), 240, 2, params);
  EXPECT_EQ(result.clusters.size(), 4u);
  // Every point assigned; each blob's points share an assignment.
  ASSERT_EQ(result.assignments.size(), 240u);
  for (int blob = 0; blob < 4; ++blob) {
    std::set<int> ids;
    for (int i = blob; i < 240; i += 4) ids.insert(result.assignments[i]);
    EXPECT_EQ(ids.size(), 1u) << "blob " << blob;
  }
}

TEST(Birch, CentroidsNearBlobCenters) {
  std::vector<float> points = MakeBlobs(100, {{0, 0}, {5, 5}}, 0.2f, 2);
  BirchParams params;
  params.threshold = 0.5;
  BirchResult result = BirchPreCluster(points.data(), 200, 2, params);
  ASSERT_EQ(result.centroids.size(), 2u);
  for (const auto& c : result.centroids) {
    bool near_a = std::abs(c[0] - 0.0f) < 0.3f && std::abs(c[1] - 0.0f) < 0.3f;
    bool near_b = std::abs(c[0] - 5.0f) < 0.3f && std::abs(c[1] - 5.0f) < 0.3f;
    EXPECT_TRUE(near_a || near_b);
  }
}

TEST(Birch, ClusterCountDecreasesWithThreshold) {
  // Section 6.6 behaviour: larger epsilon_c -> fewer clusters.
  Rng rng(3);
  std::vector<float> points;
  for (int i = 0; i < 500; ++i) {
    points.push_back(rng.NextFloat());
    points.push_back(rng.NextFloat());
  }
  size_t prev = SIZE_MAX;
  for (double threshold : {0.02, 0.05, 0.1, 0.2, 0.4}) {
    BirchParams params;
    params.threshold = threshold;
    BirchResult result = BirchPreCluster(points.data(), 500, 2, params);
    EXPECT_LE(result.clusters.size(), prev) << threshold;
    prev = result.clusters.size();
  }
}

TEST(Birch, NodeBudgetForcesRebuilds) {
  Rng rng(4);
  std::vector<float> points;
  for (int i = 0; i < 2000; ++i) {
    points.push_back(rng.NextFloat());
    points.push_back(rng.NextFloat());
  }
  BirchParams params;
  params.threshold = 0.001;  // tiny: would explode without rebuilds
  params.max_nodes = 32;
  params.branching = 4;
  params.leaf_entries = 4;
  BirchResult result = BirchPreCluster(points.data(), 2000, 2, params);
  EXPECT_GT(result.rebuilds, 0);
  EXPECT_GT(result.final_threshold, params.threshold);
  EXPECT_FALSE(result.clusters.empty());
  int64_t total = 0;
  for (const CfVector& cf : result.clusters) total += cf.count();
  EXPECT_EQ(total, 2000);
}

TEST(Birch, SinglePointDataset) {
  float p[] = {0.3f, 0.7f};
  BirchParams params;
  BirchResult result = BirchPreCluster(p, 1, 2, params);
  ASSERT_EQ(result.clusters.size(), 1u);
  EXPECT_EQ(result.assignments[0], 0);
  EXPECT_FLOAT_EQ(result.centroids[0][0], 0.3f);
}

TEST(Birch, VectorOfPointsOverload) {
  std::vector<std::vector<float>> points = {
      {0.0f, 0.0f}, {0.01f, 0.01f}, {5.0f, 5.0f}};
  BirchParams params;
  params.threshold = 0.1;
  BirchResult result = BirchPreCluster(points, params);
  EXPECT_EQ(result.clusters.size(), 2u);
  EXPECT_EQ(result.assignments[0], result.assignments[1]);
  EXPECT_NE(result.assignments[0], result.assignments[2]);
}

TEST(Birch, DeterministicResult) {
  std::vector<float> points = MakeBlobs(50, {{0, 0}, {3, 3}}, 0.3f, 5);
  BirchParams params;
  params.threshold = 0.2;
  BirchResult a = BirchPreCluster(points.data(), 100, 2, params);
  BirchResult b = BirchPreCluster(points.data(), 100, 2, params);
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_EQ(a.clusters.size(), b.clusters.size());
}

/// The reference assignment rule: a brute-force scan over every centroid in
/// index order, squared L2 in double over ascending dimensions, first strict
/// minimum wins. AssignNearestCentroids must reproduce it bit for bit.
std::vector<int> BruteForceAssignments(
    const float* points, int n, int dim,
    const std::vector<std::vector<float>>& centroids) {
  std::vector<int> assignments(n);
  for (int i = 0; i < n; ++i) {
    const float* p = points + static_cast<size_t>(i) * dim;
    int best = 0;
    double best_dist = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < centroids.size(); ++c) {
      double dist = 0.0;
      for (int k = 0; k < dim; ++k) {
        double d = static_cast<double>(p[k]) - centroids[c][k];
        dist += d * d;
      }
      if (dist < best_dist) {
        best_dist = dist;
        best = static_cast<int>(c);
      }
    }
    assignments[i] = best;
  }
  return assignments;
}

/// Runs BIRCH and checks its assignments against the brute-force rule at
/// every ISA level the CPU supports (the CF-tree pass dispatches kernels,
/// so each level must also build the same centroids).
void ExpectOracleAssignments(const std::vector<float>& points, int dim,
                             const BirchParams& params) {
  const int n = static_cast<int>(points.size()) / dim;
  std::vector<int> first_level;
  for (int l = 0; l <= static_cast<int>(simd::MaxSupportedIsa()); ++l) {
    simd::TestOnlySetIsa(static_cast<simd::IsaLevel>(l));
    BirchResult result = BirchPreCluster(points.data(), n, dim, params);
    const std::string isa = simd::IsaName(static_cast<simd::IsaLevel>(l));
    EXPECT_EQ(result.assignments,
              BruteForceAssignments(points.data(), n, dim, result.centroids))
        << "isa=" << isa;
    if (l == 0) {
      first_level = result.assignments;
    } else {
      EXPECT_EQ(result.assignments, first_level) << "isa=" << isa;
    }
  }
  simd::TestOnlyResetIsa();
}

/// AssignNearestCentroids against the brute-force rule at every ISA level
/// (it scores centroids with a dispatched batch kernel).
void ExpectAssignMatchesOracle(
    const std::vector<float>& points, int dim,
    const std::vector<std::vector<float>>& centroids) {
  const int n = static_cast<int>(points.size()) / dim;
  const std::vector<int> want =
      BruteForceAssignments(points.data(), n, dim, centroids);
  for (int l = 0; l <= static_cast<int>(simd::MaxSupportedIsa()); ++l) {
    simd::TestOnlySetIsa(static_cast<simd::IsaLevel>(l));
    EXPECT_EQ(AssignNearestCentroids(points.data(), n, dim, centroids), want)
        << "isa=" << simd::IsaName(static_cast<simd::IsaLevel>(l));
  }
  simd::TestOnlyResetIsa();
}

TEST(BirchAssignment, MatchesBruteForceOnRandomBlobs) {
  for (uint64_t seed = 10; seed < 16; ++seed) {
    Rng rng(seed);
    const int dim = 2 + static_cast<int>(seed % 11);
    std::vector<std::vector<float>> centers(20, std::vector<float>(dim));
    for (auto& c : centers) {
      for (float& v : c) v = rng.NextFloat();
    }
    std::vector<float> points;
    for (int i = 0; i < 1500; ++i) {
      for (float v : centers[i % centers.size()]) {
        points.push_back(v + 0.2f * (rng.NextFloat() - 0.5f));
      }
    }
    BirchParams params;
    params.threshold = 0.04;
    ExpectOracleAssignments(points, dim, params);
  }
}

TEST(BirchAssignment, MatchesBruteForceUnderNodeBudgetRebuilds) {
  Rng rng(17);
  std::vector<float> points;
  for (int i = 0; i < 3000 * 12; ++i) points.push_back(rng.NextFloat());
  BirchParams params;
  params.threshold = 0.01;
  params.max_nodes = 24;
  ExpectOracleAssignments(points, 12, params);
}

TEST(BirchAssignment, MatchesBruteForceOnSceneWindowSignatures) {
  // The query-time workload: every sliding window of a 384x384 scene at
  // slide step 4 (6561 windows, d = 12) against its 100-200 subclusters.
  DatasetParams dataset;
  dataset.width = 384;
  dataset.height = 384;
  Rng rng(2026);
  LabeledImage scene =
      GenerateScene(2, static_cast<ObjectClass>(2), dataset, &rng);
  WalrusParams params;
  params.slide_step = 4;
  auto set = ComputeWindowSignatures(scene.image, params);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ASSERT_EQ(set->Count(), 6561);
  BirchParams birch;
  birch.threshold = params.cluster_epsilon;
  birch.branching = params.birch_branching;
  birch.leaf_entries = params.birch_leaf_entries;
  BirchResult result =
      BirchPreCluster(set->signatures.data(), set->Count(), set->dim, birch);
  EXPECT_GT(result.centroids.size(), 100u);
  ExpectOracleAssignments(set->signatures, set->dim, birch);
}

TEST(BirchAssignment, TiesGoToTheLowestCentroidIndex) {
  // Duplicated centroids (0 == 2, 1 == 3) and points equidistant from
  // centroids on either side of them in coordinate 0 and in other
  // coordinates.
  const std::vector<std::vector<float>> centroids = {
      {1.0f, 0.0f}, {0.0f, 0.0f}, {1.0f, 0.0f}, {0.0f, 0.0f},
      {0.5f, 0.5f}, {0.5f, -0.5f}, {2.0f, 0.0f}};
  const std::vector<float> points = {
      0.5f, 0.0f,   // equidistant from 0..5
      1.0f, 0.0f,   // on the duplicates 0 and 2
      0.0f, 0.0f,   // on the duplicates 1 and 3
      1.5f, 0.0f,   // between 0/2 and 6
      0.5f, 0.25f,  // nearest 4
      -3.0f, 0.0f,  // far left of every centroid
      9.0f, 0.0f};  // far right of every centroid
  const int n = static_cast<int>(points.size()) / 2;
  EXPECT_EQ(BruteForceAssignments(points.data(), n, 2, centroids),
            (std::vector<int>{0, 0, 1, 0, 4, 1, 6}));
  ExpectAssignMatchesOracle(points, 2, centroids);
}

TEST(BirchAssignment, MatchesBruteForceOnDuplicateHeavyGrid) {
  // Coarse integer grids make exact distance ties the common case.
  Rng rng(31);
  const int dim = 3;
  std::vector<std::vector<float>> centroids(60, std::vector<float>(dim));
  for (auto& c : centroids) {
    for (float& v : c) v = static_cast<float>(rng.NextFloat() < 0.5f ? 0 : 2);
  }
  std::vector<float> points;
  for (int i = 0; i < 400 * dim; ++i) {
    points.push_back(static_cast<float>(static_cast<int>(rng.NextFloat() * 3)));
  }
  ExpectAssignMatchesOracle(points, dim, centroids);
}

TEST(BirchAssignment, MatchesBruteForceOnNonFiniteInputs) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<std::vector<float>> centroids = {
      {nan, 0.0f}, {0.0f, nan}, {inf, 0.0f}, {1.0f, 1.0f}, {-inf, 0.0f},
      {2.0f, 2.0f}};
  const std::vector<float> points = {0.0f, 0.0f, nan, 0.0f, 0.0f, nan,
                                     inf,  0.0f, -inf, 0.0f, 3.0f, 3.0f,
                                     inf,  inf};
  ExpectAssignMatchesOracle(points, 2, centroids);
  // Only NaN centroids: nothing beats infinity, so index 0 as before.
  const int n = static_cast<int>(points.size()) / 2;
  EXPECT_EQ(AssignNearestCentroids(points.data(), n, 2, {{nan, nan}}),
            std::vector<int>(n, 0));
}

}  // namespace
}  // namespace walrus
