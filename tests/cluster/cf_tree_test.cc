#include "cluster/cf_tree.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/simd.h"
#include "core/params.h"
#include "core/signature.h"
#include "image/dataset.h"

namespace walrus {
namespace {

TEST(CfTree, SinglePoint) {
  CfTree tree(2, 0.1);
  float p[] = {0.5f, 0.5f};
  tree.InsertPoint(p);
  EXPECT_EQ(tree.point_count(), 1);
  std::vector<CfVector> clusters = tree.LeafClusters();
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].count(), 1);
}

TEST(CfTree, TightPointsAbsorbIntoOneCluster) {
  CfTree tree(2, 0.5);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    float p[] = {0.5f + 0.01f * rng.NextFloat(),
                 0.5f + 0.01f * rng.NextFloat()};
    tree.InsertPoint(p);
  }
  EXPECT_EQ(tree.leaf_cluster_count(), 1);
  std::vector<CfVector> clusters = tree.LeafClusters();
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].count(), 100);
  EXPECT_LE(clusters[0].Radius(), 0.5);
}

TEST(CfTree, WellSeparatedBlobsGetSeparateClusters) {
  CfTree tree(2, 0.1);
  Rng rng(2);
  // Three blobs far apart.
  const float centers[3][2] = {{0.0f, 0.0f}, {5.0f, 5.0f}, {-5.0f, 5.0f}};
  for (int i = 0; i < 300; ++i) {
    const float* c = centers[i % 3];
    float p[] = {c[0] + 0.02f * rng.NextFloat(),
                 c[1] + 0.02f * rng.NextFloat()};
    tree.InsertPoint(p);
  }
  EXPECT_EQ(tree.leaf_cluster_count(), 3);
  for (const CfVector& cf : tree.LeafClusters()) {
    EXPECT_EQ(cf.count(), 100);
  }
}

TEST(CfTree, ZeroThresholdSeparatesDistinctPoints) {
  CfTree tree(1, 0.0);
  for (int i = 0; i < 20; ++i) {
    float p[] = {static_cast<float>(i)};
    tree.InsertPoint(p);
  }
  EXPECT_EQ(tree.leaf_cluster_count(), 20);
  EXPECT_GT(tree.node_count(), 1);  // splits happened
}

TEST(CfTree, PointCountConservedThroughSplits) {
  CfTree tree(3, 0.01, /*branching=*/4, /*leaf_entries=*/4);
  Rng rng(3);
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    float p[] = {rng.NextFloat(), rng.NextFloat(), rng.NextFloat()};
    tree.InsertPoint(p);
  }
  EXPECT_EQ(tree.point_count(), n);
  int64_t total = 0;
  for (const CfVector& cf : tree.LeafClusters()) total += cf.count();
  EXPECT_EQ(total, n);
}

TEST(CfTree, LeafClusterRadiiRespectThreshold) {
  const double threshold = 0.05;
  CfTree tree(2, threshold);
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    float p[] = {rng.NextFloat(), rng.NextFloat()};
    tree.InsertPoint(p);
  }
  for (const CfVector& cf : tree.LeafClusters()) {
    EXPECT_LE(cf.Radius(), threshold + 1e-9);
  }
}

TEST(CfTree, InsertCfMergesWholeSubclusters) {
  CfTree tree(2, 1.0);
  CfVector cf(2);
  float a[] = {0.1f, 0.1f};
  float b[] = {0.2f, 0.2f};
  cf.AddPoint(a, 2);
  cf.AddPoint(b, 2);
  tree.InsertCf(cf);
  tree.InsertCf(cf);
  EXPECT_EQ(tree.point_count(), 4);
  std::vector<CfVector> clusters = tree.LeafClusters();
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].count(), 4);
}

TEST(CfTree, ClusterCountGrowsAsThresholdShrinks) {
  Rng rng(5);
  std::vector<float> points;
  for (int i = 0; i < 400; ++i) {
    points.push_back(rng.NextFloat());
    points.push_back(rng.NextFloat());
  }
  int prev = 0;
  for (double threshold : {0.4, 0.2, 0.1, 0.05}) {
    CfTree tree(2, threshold);
    for (int i = 0; i < 400; ++i) tree.InsertPoint(&points[2 * i]);
    EXPECT_GE(tree.leaf_cluster_count(), prev);
    prev = tree.leaf_cluster_count();
  }
}

/// The CF-tree as a tree of heap nodes holding std::vector<CfVector>
/// entries: the arena tree must reproduce it bit for bit.
class ReferenceCfTree {
 public:
  ReferenceCfTree(int dim, double threshold, int branching, int leaf_entries)
      : dim_(dim),
        threshold_(threshold),
        branching_(branching),
        leaf_entries_(leaf_entries),
        root_(std::make_unique<Node>()) {}

  void InsertPoint(const float* point) {
    InsertCf(CfVector::FromPoint(point, dim_));
  }

  void InsertCf(const CfVector& cf) {
    std::unique_ptr<Node> sibling = InsertIntoSubtree(root_.get(), cf);
    if (sibling == nullptr) return;
    auto new_root = std::make_unique<Node>();
    new_root->is_leaf = false;
    new_root->entries.push_back(SumOf(*root_));
    new_root->entries.push_back(SumOf(*sibling));
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(sibling));
    root_ = std::move(new_root);
    ++node_count_;
  }

  std::vector<CfVector> LeafClusters() const {
    std::vector<CfVector> out;
    Collect(*root_, &out);
    return out;
  }
  int node_count() const { return node_count_; }
  double threshold() const { return threshold_; }

 private:
  struct Node {
    bool is_leaf = true;
    std::vector<CfVector> entries;
    std::vector<std::unique_ptr<Node>> children;
  };

  CfVector SumOf(const Node& node) const {
    CfVector sum(dim_);
    for (const CfVector& e : node.entries) sum.Merge(e);
    return sum;
  }

  static int Closest(const std::vector<CfVector>& entries,
                     const CfVector& cf) {
    int best = 0;
    double best_dist = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < entries.size(); ++i) {
      double d = CfVector::CentroidDistance(entries[i], cf);
      if (d < best_dist) {
        best_dist = d;
        best = static_cast<int>(i);
      }
    }
    return best;
  }

  std::unique_ptr<Node> InsertIntoSubtree(Node* node, const CfVector& cf) {
    if (node->is_leaf) {
      if (!node->entries.empty()) {
        int idx = Closest(node->entries, cf);
        if (node->entries[idx].MergedRadius(cf) <= threshold_) {
          node->entries[idx].Merge(cf);
          return nullptr;
        }
      }
      node->entries.push_back(cf);
      if (static_cast<int>(node->entries.size()) > leaf_entries_) {
        return Split(node);
      }
      return nullptr;
    }
    int idx = Closest(node->entries, cf);
    std::unique_ptr<Node> sibling =
        InsertIntoSubtree(node->children[idx].get(), cf);
    node->entries[idx].Merge(cf);
    if (sibling != nullptr) {
      node->entries[idx] = SumOf(*node->children[idx]);
      node->entries.push_back(SumOf(*sibling));
      node->children.push_back(std::move(sibling));
      if (static_cast<int>(node->entries.size()) > branching_) {
        return Split(node);
      }
    }
    return nullptr;
  }

  std::unique_ptr<Node> Split(Node* node) {
    size_t n = node->entries.size();
    size_t seed_a = 0;
    size_t seed_b = 1;
    double worst = -1.0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        double d =
            CfVector::CentroidDistance(node->entries[i], node->entries[j]);
        if (d > worst) {
          worst = d;
          seed_a = i;
          seed_b = j;
        }
      }
    }
    auto sibling = std::make_unique<Node>();
    sibling->is_leaf = node->is_leaf;
    ++node_count_;
    std::vector<CfVector> old_entries = std::move(node->entries);
    std::vector<std::unique_ptr<Node>> old_children =
        std::move(node->children);
    node->entries.clear();
    node->children.clear();
    const CfVector seed_cf_a = old_entries[seed_a];
    const CfVector seed_cf_b = old_entries[seed_b];
    for (size_t i = 0; i < n; ++i) {
      double da = CfVector::CentroidDistance(old_entries[i], seed_cf_a);
      double db = CfVector::CentroidDistance(old_entries[i], seed_cf_b);
      bool to_sibling = i == seed_b || (i != seed_a && db < da);
      Node* target = to_sibling ? sibling.get() : node;
      target->entries.push_back(std::move(old_entries[i]));
      if (!old_children.empty()) {
        target->children.push_back(std::move(old_children[i]));
      }
    }
    return sibling;
  }

  void Collect(const Node& node, std::vector<CfVector>* out) const {
    if (node.is_leaf) {
      out->insert(out->end(), node.entries.begin(), node.entries.end());
      return;
    }
    for (const auto& child : node.children) Collect(*child, out);
  }

  int dim_;
  double threshold_;
  int branching_;
  int leaf_entries_;
  int node_count_ = 1;
  std::unique_ptr<Node> root_;
};

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectSameLeafCfs(const std::vector<CfVector>& got,
                       const std::vector<CfVector>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].count(), want[i].count()) << "cluster " << i;
    ASSERT_EQ(Bits(got[i].square_sum()), Bits(want[i].square_sum()))
        << "cluster " << i;
    ASSERT_EQ(got[i].dim(), want[i].dim());
    for (int d = 0; d < got[i].dim(); ++d) {
      ASSERT_EQ(Bits(got[i].linear_sum()[d]), Bits(want[i].linear_sum()[d]))
          << "cluster " << i << " dim " << d;
    }
  }
}

/// Streams `points` into both trees and, like BirchPreCluster, rebuilds
/// both at a 1.5x threshold from their leaf CFs whenever the tree outgrows
/// `max_nodes` (0: never). Compares leaf CFs and node counts at the end.
void ExpectTreesAgree(const std::vector<float>& points, int dim,
                      double threshold, int branching, int leaf_entries,
                      int max_nodes = 0) {
  for (int l = 0; l <= static_cast<int>(simd::MaxSupportedIsa()); ++l) {
    simd::TestOnlySetIsa(static_cast<simd::IsaLevel>(l));
    SCOPED_TRACE(std::string("isa=") +
                 simd::IsaName(static_cast<simd::IsaLevel>(l)));
    CfTree tree(dim, threshold, branching, leaf_entries);
    ReferenceCfTree reference(dim, threshold, branching, leaf_entries);
    int rebuilds = 0;
    const int n = static_cast<int>(points.size()) / dim;
    for (int i = 0; i < n; ++i) {
      tree.InsertPoint(points.data() + static_cast<size_t>(i) * dim);
      reference.InsertPoint(points.data() + static_cast<size_t>(i) * dim);
      ASSERT_EQ(tree.node_count(), reference.node_count()) << "point " << i;
      if (max_nodes > 0 && tree.node_count() > max_nodes) {
        const double grown = tree.threshold() * 1.5;
        CfTree rebuilt(dim, grown, branching, leaf_entries);
        for (const CfVector& cf : tree.LeafClusters()) rebuilt.InsertCf(cf);
        tree = std::move(rebuilt);
        ReferenceCfTree rebuilt_reference(dim, grown, branching,
                                          leaf_entries);
        for (const CfVector& cf : reference.LeafClusters()) {
          rebuilt_reference.InsertCf(cf);
        }
        reference = std::move(rebuilt_reference);
        ++rebuilds;
      }
    }
    if (max_nodes > 0) {
      EXPECT_GT(rebuilds, 0);
    }
    EXPECT_EQ(tree.node_count(), reference.node_count());
    ExpectSameLeafCfs(tree.LeafClusters(), reference.LeafClusters());
    EXPECT_TRUE(tree.Validate().ok()) << tree.Validate();
  }
  simd::TestOnlyResetIsa();
}

std::vector<float> RandomBlobs(int n, int dim, int blobs, float spread,
                               uint64_t seed) {
  Rng rng(seed);
  std::vector<float> centers(static_cast<size_t>(blobs) * dim);
  for (float& c : centers) c = rng.NextFloat();
  std::vector<float> points;
  points.reserve(static_cast<size_t>(n) * dim);
  for (int i = 0; i < n; ++i) {
    const int b = rng.NextInt(0, blobs - 1);
    for (int d = 0; d < dim; ++d) {
      points.push_back(centers[b * dim + d] +
                       spread * (rng.NextFloat() - 0.5f));
    }
  }
  return points;
}

TEST(CfTreeArena, MatchesReferenceOnRandomBlobs) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const int dim = 2 + static_cast<int>(seed * 3 % 11);
    ExpectTreesAgree(RandomBlobs(1500, dim, 12, 0.2f, seed), dim, 0.03, 8, 8);
  }
}

TEST(CfTreeArena, MatchesReferenceWithForcedSplits) {
  ExpectTreesAgree(RandomBlobs(800, 3, 40, 0.05f, 11), 3, 0.01, 2, 2);
  ExpectTreesAgree(RandomBlobs(800, 12, 40, 0.05f, 12), 12, 0.0, 2, 3);
}

TEST(CfTreeArena, MatchesReferenceThroughThresholdRebuilds) {
  ExpectTreesAgree(RandomBlobs(1200, 4, 30, 0.1f, 13), 4, 0.002, 4, 4,
                   /*max_nodes=*/40);
}

TEST(CfTreeArena, MatchesReferenceOnSceneWindowSignatures) {
  // The extraction workload: every window of a 384x384 scene at slide 4.
  DatasetParams dataset;
  dataset.width = 384;
  dataset.height = 384;
  Rng rng(2027);
  LabeledImage scene =
      GenerateScene(3, static_cast<ObjectClass>(1), dataset, &rng);
  WalrusParams params;
  params.slide_step = 4;
  auto set = ComputeWindowSignatures(scene.image, params);
  ASSERT_TRUE(set.ok()) << set.status();
  ASSERT_EQ(set->Count(), 6561);
  ExpectTreesAgree(set->signatures, set->dim, params.cluster_epsilon,
                   params.birch_branching, params.birch_leaf_entries);
}

TEST(CfTreeArena, SqrtTiesKeepTheEarlierEntry) {
  // Squared distances 1.610527254479107 (entry 0) and 1.6105272544791067
  // (entry 1) differ, but their square roots round to the same double. The
  // strict `<` on distances keeps entry 0; comparing squared distances
  // would pick entry 1. Both entries lie within the threshold of the
  // point and farther than it from each other, so the choice decides
  // which one absorbs the point.
  const double a[3] = {0.8137166112027947, 0.9738544712285029, 0.0};
  const double b[3] = {0.0, 0.0, 1.2690655044083055};
  ASSERT_NE(a[0] * a[0] + a[1] * a[1], b[2] * b[2]);
  ASSERT_EQ(std::sqrt(a[0] * a[0] + a[1] * a[1]), std::sqrt(b[2] * b[2]));
  const float origin[3] = {0.0f, 0.0f, 0.0f};
  for (int l = 0; l <= static_cast<int>(simd::MaxSupportedIsa()); ++l) {
    simd::TestOnlySetIsa(static_cast<simd::IsaLevel>(l));
    CfTree tree(3, 0.7, 8, 8);
    ReferenceCfTree reference(3, 0.7, 8, 8);
    for (const double* p : {a, b}) {
      const CfVector cf =
          CfVector::FromSums(1, p[0] * p[0] + p[1] * p[1] + p[2] * p[2], p, 3);
      tree.InsertCf(cf);
      reference.InsertCf(cf);
    }
    tree.InsertPoint(origin);
    reference.InsertPoint(origin);
    const std::vector<CfVector> clusters = tree.LeafClusters();
    ASSERT_EQ(clusters.size(), 2u);
    EXPECT_EQ(clusters[0].count(), 2);
    EXPECT_EQ(clusters[1].count(), 1);
    ExpectSameLeafCfs(clusters, reference.LeafClusters());
  }
  simd::TestOnlyResetIsa();
}

TEST(CfTreeArena, ValidateCatchesCorruptionInDeepTree) {
  std::vector<float> points = RandomBlobs(600, 3, 30, 0.05f, 14);
  CfTree tree(3, 0.01, 2, 2);
  for (size_t i = 0; i < points.size(); i += 3) tree.InsertPoint(&points[i]);
  ASSERT_GT(tree.node_count(), 20);
  ASSERT_TRUE(tree.Validate().ok());
  tree.TestOnlyCorruptFirstLeafCf(1.0e6);
  Status status = tree.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status;
}

}  // namespace
}  // namespace walrus
