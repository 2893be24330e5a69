#include "cluster/cf_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"

namespace walrus {

struct CfTree::Node {
  bool is_leaf = true;
  /// Parallel arrays: entries[i] summarizes children[i]'s subtree (internal)
  /// or subcluster i (leaf).
  std::vector<CfVector> entries;
  std::vector<std::unique_ptr<Node>> children;
};

CfTree::CfTree(CfTree&&) noexcept = default;
CfTree& CfTree::operator=(CfTree&&) noexcept = default;
CfTree::~CfTree() = default;

CfTree::CfTree(int dim, double threshold, int branching, int leaf_entries)
    : dim_(dim),
      threshold_(threshold),
      branching_(branching),
      leaf_entries_(leaf_entries),
      root_(std::make_unique<Node>()) {
  WALRUS_CHECK_GE(dim, 1);
  WALRUS_CHECK_GE(threshold, 0.0);
  WALRUS_CHECK_GE(branching, 2);
  WALRUS_CHECK_GE(leaf_entries, 2);
  node_count_ = 1;
}

namespace {

/// Index of the entry whose centroid is closest to cf's centroid.
int ClosestEntry(const std::vector<CfVector>& entries, const CfVector& cf) {
  WALRUS_DCHECK(!entries.empty());
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

}  // namespace

void CfTree::InsertPoint(const float* point) {
  InsertCf(CfVector::FromPoint(point, dim_));
  // point_count_ is maintained by InsertCf.
}

void CfTree::InsertCf(const CfVector& cf) {
  WALRUS_CHECK_EQ(cf.dim(), dim_);
  WALRUS_CHECK(!cf.empty());
  point_count_ += cf.count();
  InsertOutcome outcome = InsertIntoSubtree(root_.get(), cf);
  if (outcome.new_sibling != nullptr) {
    // Root split: grow the tree by one level.
    auto new_root = std::make_unique<Node>();
    new_root->is_leaf = false;
    CfVector left_cf(dim_);
    for (const CfVector& e : root_->entries) left_cf.Merge(e);
    CfVector right_cf(dim_);
    for (const CfVector& e : outcome.new_sibling->entries) right_cf.Merge(e);
    new_root->entries.push_back(std::move(left_cf));
    new_root->entries.push_back(std::move(right_cf));
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(outcome.new_sibling));
    root_ = std::move(new_root);
    ++node_count_;
  }
}

CfTree::InsertOutcome CfTree::InsertIntoSubtree(Node* node,
                                                const CfVector& cf) {
  InsertOutcome outcome;
  if (node->is_leaf) {
    if (!node->entries.empty()) {
      int idx = ClosestEntry(node->entries, cf);
      if (node->entries[idx].MergedRadius(cf) <= threshold_) {
        node->entries[idx].Merge(cf);
        return outcome;
      }
    }
    node->entries.push_back(cf);
    ++leaf_cluster_count_;
    if (static_cast<int>(node->entries.size()) > leaf_entries_) {
      outcome.new_sibling = SplitNode(node);
    }
    return outcome;
  }

  int idx = ClosestEntry(node->entries, cf);
  InsertOutcome child_outcome = InsertIntoSubtree(node->children[idx].get(), cf);
  node->entries[idx].Merge(cf);
  if (child_outcome.new_sibling != nullptr) {
    // Recompute the split child's CF and append the new sibling.
    CfVector left_cf(dim_);
    for (const CfVector& e : node->children[idx]->entries) left_cf.Merge(e);
    node->entries[idx] = std::move(left_cf);
    CfVector right_cf(dim_);
    for (const CfVector& e : child_outcome.new_sibling->entries) {
      right_cf.Merge(e);
    }
    node->entries.push_back(std::move(right_cf));
    node->children.push_back(std::move(child_outcome.new_sibling));
    if (static_cast<int>(node->entries.size()) > branching_) {
      outcome.new_sibling = SplitNode(node);
    }
  }
  return outcome;
}

std::unique_ptr<CfTree::Node> CfTree::SplitNode(Node* node) {
  // Seed with the farthest pair of entry centroids, then assign each entry
  // to the closer seed (BIRCH split).
  size_t n = node->entries.size();
  WALRUS_DCHECK_LE(2u, n);
  size_t seed_a = 0;
  size_t seed_b = 1;
  double worst = -1.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      double d = CfVector::CentroidDistance(node->entries[i], node->entries[j]);
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
  std::vector<std::unique_ptr<Node>> old_children = std::move(node->children);
  node->entries.clear();
  node->children.clear();

  // Copy the seeds: the loop below moves entries out of old_entries, and a
  // moved-from seed must not be used for later distance comparisons.
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
  // Both sides are nonempty because the two seeds land on opposite sides.
  WALRUS_DCHECK(!node->entries.empty() && !sibling->entries.empty());
  return sibling;
}

void CfTree::CollectLeafClusters(const Node* node,
                                 std::vector<CfVector>* out) const {
  if (node->is_leaf) {
    out->insert(out->end(), node->entries.begin(), node->entries.end());
    return;
  }
  for (const auto& child : node->children) {
    CollectLeafClusters(child.get(), out);
  }
}

namespace {

/// |a - b| within a relative tolerance: CF sums are accumulated in
/// different merge orders on the two sides of the additivity identity, so
/// exact equality of doubles is too strict.
bool CloseEnough(double a, double b) {
  constexpr double kRelTol = 1e-9;
  constexpr double kAbsTol = 1e-9;
  double scale = std::max(std::fabs(a), std::fabs(b));
  return std::fabs(a - b) <= kAbsTol + kRelTol * scale;
}

}  // namespace

Status CfTree::Validate() const {
  struct Item {
    const Node* node;
    int depth;
  };
  std::vector<Item> stack = {{root_.get(), 0}};
  int leaf_depth = -1;
  int64_t points_seen = 0;
  int leaves_seen = 0;
  int nodes_seen = 0;
  while (!stack.empty()) {
    Item item = stack.back();
    stack.pop_back();
    const Node* node = item.node;
    ++nodes_seen;
    int count = static_cast<int>(node->entries.size());
    int limit = node->is_leaf ? leaf_entries_ : branching_;
    if (count > limit) {
      return Status::Internal("cf node overfull: " + std::to_string(count) +
                              " entries, limit " + std::to_string(limit));
    }
    if (node != root_.get() && count == 0) {
      return Status::Internal("empty non-root cf node");
    }
    for (const CfVector& cf : node->entries) {
      if (cf.empty()) return Status::Internal("empty cf entry");
      if (cf.dim() != dim_) {
        return Status::Internal("cf entry dimension " +
                                std::to_string(cf.dim()) + " != tree " +
                                std::to_string(dim_));
      }
    }
    if (node->is_leaf) {
      if (!node->children.empty()) {
        return Status::Internal("leaf cf node with children");
      }
      if (leaf_depth == -1) leaf_depth = item.depth;
      if (item.depth != leaf_depth) {
        return Status::Internal("leaves at unequal depths: " +
                                std::to_string(item.depth) + " and " +
                                std::to_string(leaf_depth));
      }
      leaves_seen += count;
      for (const CfVector& cf : node->entries) {
        points_seen += cf.count();
        // Absorption only happens when the merged radius stays within the
        // threshold, so every leaf subcluster obeys it (BIRCH 4.1).
        double radius = cf.Radius();
        if (radius > threshold_ && !CloseEnough(radius, threshold_)) {
          return Status::Internal(
              "leaf subcluster radius " + std::to_string(radius) +
              " exceeds threshold " + std::to_string(threshold_));
        }
      }
      continue;
    }
    if (node->children.size() != node->entries.size()) {
      return Status::Internal("cf entries/children arity mismatch");
    }
    for (size_t i = 0; i < node->entries.size(); ++i) {
      // CF additivity (BIRCH theorem 4.1): a nonleaf entry must equal the
      // sum of the CFs in the child it summarizes.
      const Node* child = node->children[i].get();
      CfVector sum(dim_);
      for (const CfVector& cf : child->entries) sum.Merge(cf);
      const CfVector& stored = node->entries[i];
      if (stored.count() != sum.count()) {
        return Status::Internal(
            "cf additivity violated: stored N " +
            std::to_string(stored.count()) + " != children sum " +
            std::to_string(sum.count()));
      }
      if (!CloseEnough(stored.square_sum(), sum.square_sum())) {
        return Status::Internal("cf additivity violated: SS drift");
      }
      for (int d = 0; d < dim_; ++d) {
        if (!CloseEnough(stored.linear_sum()[d], sum.linear_sum()[d])) {
          return Status::Internal("cf additivity violated: LS drift at dim " +
                                  std::to_string(d));
        }
      }
      stack.push_back({child, item.depth + 1});
    }
  }
  if (points_seen != point_count_) {
    return Status::Internal("point count mismatch: counted " +
                            std::to_string(points_seen) + " expected " +
                            std::to_string(point_count_));
  }
  if (leaves_seen != leaf_cluster_count_) {
    return Status::Internal("leaf cluster count mismatch: counted " +
                            std::to_string(leaves_seen) + " expected " +
                            std::to_string(leaf_cluster_count_));
  }
  if (nodes_seen != node_count_) {
    return Status::Internal("node count mismatch: counted " +
                            std::to_string(nodes_seen) + " expected " +
                            std::to_string(node_count_));
  }
  return Status::OK();
}

void CfTree::TestOnlyCorruptFirstLeafCf(double delta) {
  Node* node = root_.get();
  while (!node->is_leaf) {
    WALRUS_CHECK(!node->children.empty());
    node = node->children.front().get();
  }
  WALRUS_CHECK(!node->entries.empty()) << "cannot corrupt an empty tree";
  node->entries.front().TestOnlyPerturbSquareSum(delta);
}

std::vector<CfVector> CfTree::LeafClusters() const {
  std::vector<CfVector> out;
  out.reserve(leaf_cluster_count_);
  CollectLeafClusters(root_.get(), &out);
  return out;
}

}  // namespace walrus
