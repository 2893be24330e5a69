#include "cluster/cf_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/simd.h"

namespace walrus {
namespace {

// Entry row layout: N (an exact integer: counts stay far below 2^53), SS,
// LS[dim], then the centroid LS[d] * (1/N) as the CentroidDistance kernels
// compute it, cached because descent reads it far more often than merges
// change it.
constexpr int kCount = 0;
constexpr int kSquareSum = 1;
constexpr int kLinearSum = 2;

int64_t RowCount(const double* row) {
  return static_cast<int64_t>(row[kCount]);
}

double RowDistance(const double* a, const double* b, int dim) {
  return cf_math::CentroidDistance(RowCount(a), a + kLinearSum, RowCount(b),
                                   b + kLinearSum, dim);
}

/// Recomputes the cached centroid of `row` from its N and LS.
void UpdateCentroid(double* row, int dim) {
  const double inv = 1.0 / row[kCount];
  const double* ls = row + kLinearSum;
  double* centroid = row + kLinearSum + dim;
  for (int d = 0; d < dim; ++d) centroid[d] = ls[d] * inv;
}

/// CfVector::Merge on rows: `row` absorbs `cf`.
void MergeRow(double* row, const double* cf, int dim) {
  simd::Active().add_f64(row + kLinearSum, cf + kLinearSum, dim);
  row[kSquareSum] += cf[kSquareSum];
  row[kCount] += cf[kCount];
}

CfVector RowToCf(const double* row, int dim) {
  return CfVector::FromSums(RowCount(row), row[kSquareSum], row + kLinearSum,
                            dim);
}

}  // namespace

CfTree::CfTree(int dim, double threshold, int branching, int leaf_entries)
    : dim_(dim),
      threshold_(threshold),
      branching_(branching),
      leaf_entries_(leaf_entries),
      stride_(kLinearSum + 2 * dim),
      capacity_(std::max(branching, leaf_entries) + 1),
      insert_row_(stride_) {
  WALRUS_CHECK_GE(dim, 1);
  WALRUS_CHECK_GE(threshold, 0.0);
  WALRUS_CHECK_GE(branching, 2);
  WALRUS_CHECK_GE(leaf_entries, 2);
  root_ = NewNode(/*is_leaf=*/true);
}

int CfTree::NewNode(bool is_leaf) {
  const int index = static_cast<int>(nodes_.size());
  nodes_.push_back({is_leaf, 0});
  rows_.resize(rows_.size() + static_cast<size_t>(capacity_) * stride_);
  children_.resize(children_.size() + capacity_, -1);
  return index;
}

int CfTree::ClosestEntry(int node, const double* cf) {
  const int n = nodes_[node].size;
  WALRUS_DCHECK(n > 0);
  // CentroidDistance from the cached centroids: each sum runs in ascending
  // dimension order from 0.0, the scalar rule every scaled_squared_l2_f64
  // kernel reproduces bit for bit. Distances keep their sqrt: two distinct
  // squared distances can round to one distance, and the strict `<` then
  // keeps the earlier entry. A later entry therefore wins only with a sum
  // below best_sum, and partial sums never decrease (nonnegative terms,
  // monotone rounding), so an entry is dropped once its partial sum
  // reaches best_sum.
  const double* cf_centroid = cf + kLinearSum + dim_;
  int best = 0;
  double best_sum = std::numeric_limits<double>::infinity();
  double best_dist = std::numeric_limits<double>::infinity();
  for (int e = 0; e < n; ++e) {
    const double* centroid = Row(node, e) + kLinearSum + dim_;
    double sum = 0.0;
    int d = 0;
    for (; d < dim_; ++d) {
      const double t = centroid[d] - cf_centroid[d];
      sum += t * t;
      if (sum >= best_sum) break;
    }
    if (d < dim_) continue;
    const double dist = std::sqrt(sum);
    if (dist < best_dist) {
      best_dist = dist;
      best_sum = sum;
      best = e;
    }
  }
  return best;
}

void CfTree::AppendEntry(int node, const double* cf, int child) {
  const int e = nodes_[node].size++;
  WALRUS_DCHECK_LE(nodes_[node].size, capacity_);
  std::copy(cf, cf + stride_, Row(node, e));
  Child(node, e) = child;
}

void CfTree::SumEntries(int node, double* out) const {
  // Summed from zero in entry order, as CfVector(dim) + Merge does.
  std::fill(out, out + stride_, 0.0);
  for (int e = 0; e < nodes_[node].size; ++e) MergeRow(out, Row(node, e), dim_);
  UpdateCentroid(out, dim_);
}

void CfTree::InsertPoint(const float* point) {
  // The point's CF, accumulated as CfVector::FromPoint does.
  std::fill(insert_row_.begin(), insert_row_.end(), 0.0);
  insert_row_[kCount] = 1.0;
  insert_row_[kSquareSum] = simd::Active().accumulate_f32(
      insert_row_.data() + kLinearSum, point, dim_, 0.0);
  UpdateCentroid(insert_row_.data(), dim_);
  point_count_ += 1;
  InsertRow();
}

void CfTree::InsertCf(const CfVector& cf) {
  WALRUS_CHECK_EQ(cf.dim(), dim_);
  WALRUS_CHECK(!cf.empty());
  insert_row_[kCount] = static_cast<double>(cf.count());
  insert_row_[kSquareSum] = cf.square_sum();
  std::copy(cf.linear_sum().begin(), cf.linear_sum().end(),
            insert_row_.begin() + kLinearSum);
  UpdateCentroid(insert_row_.data(), dim_);
  point_count_ += cf.count();
  InsertRow();
}

void CfTree::InsertRow() {
  const int sibling = InsertIntoSubtree(root_, insert_row_.data());
  if (sibling < 0) return;
  // Root split: grow the tree by one level.
  const int new_root = NewNode(/*is_leaf=*/false);
  nodes_[new_root].size = 2;
  SumEntries(root_, Row(new_root, 0));
  Child(new_root, 0) = root_;
  SumEntries(sibling, Row(new_root, 1));
  Child(new_root, 1) = sibling;
  root_ = new_root;
}

int CfTree::InsertIntoSubtree(int node, const double* cf) {
  if (nodes_[node].is_leaf) {
    if (nodes_[node].size > 0) {
      const int idx = ClosestEntry(node, cf);
      double* row = Row(node, idx);
      if (cf_math::MergedRadius(RowCount(row), row[kSquareSum],
                                row + kLinearSum, RowCount(cf),
                                cf[kSquareSum], cf + kLinearSum,
                                dim_) <= threshold_) {
        MergeRow(row, cf, dim_);
        UpdateCentroid(row, dim_);
        return -1;
      }
    }
    AppendEntry(node, cf, /*child=*/-1);
    ++leaf_cluster_count_;
    return nodes_[node].size > leaf_entries_ ? SplitNode(node) : -1;
  }

  const int idx = ClosestEntry(node, cf);
  const int child = Child(node, idx);
  const int child_sibling = InsertIntoSubtree(child, cf);
  // Rows are re-fetched: a split below may have grown the arena.
  if (child_sibling < 0) {
    MergeRow(Row(node, idx), cf, dim_);
    UpdateCentroid(Row(node, idx), dim_);
    return -1;
  }
  // The split child's CF is recomputed, and the new sibling appended.
  SumEntries(child, Row(node, idx));
  const int e = nodes_[node].size++;
  SumEntries(child_sibling, Row(node, e));
  Child(node, e) = child_sibling;
  return nodes_[node].size > branching_ ? SplitNode(node) : -1;
}

int CfTree::SplitNode(int node) {
  // Seed with the farthest pair of entry centroids, then assign each entry
  // to the closer seed (BIRCH split).
  const int n = nodes_[node].size;
  WALRUS_DCHECK_LE(2, n);
  int seed_a = 0;
  int seed_b = 1;
  double worst = -1.0;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      double d = RowDistance(Row(node, i), Row(node, j), dim_);
      if (d > worst) {
        worst = d;
        seed_a = i;
        seed_b = j;
      }
    }
  }

  // Park the entries outside the arena: NewNode may move it.
  split_rows_.assign(Row(node, 0),
                     Row(node, 0) + static_cast<size_t>(n) * stride_);
  split_children_.assign(&Child(node, 0), &Child(node, 0) + n);
  const int sibling = NewNode(nodes_[node].is_leaf);
  nodes_[node].size = 0;

  auto parked = [&](int i) {
    return split_rows_.data() + static_cast<size_t>(i) * stride_;
  };
  for (int i = 0; i < n; ++i) {
    double da = RowDistance(parked(i), parked(seed_a), dim_);
    double db = RowDistance(parked(i), parked(seed_b), dim_);
    bool to_sibling = i == seed_b || (i != seed_a && db < da);
    AppendEntry(to_sibling ? sibling : node, parked(i), split_children_[i]);
  }
  // Both sides are nonempty because the two seeds land on opposite sides.
  WALRUS_DCHECK(nodes_[node].size > 0 && nodes_[sibling].size > 0);
  return sibling;
}

void CfTree::CollectLeafClusters(int node, std::vector<CfVector>* out) const {
  for (int e = 0; e < nodes_[node].size; ++e) {
    if (nodes_[node].is_leaf) {
      out->push_back(RowToCf(Row(node, e), dim_));
    } else {
      CollectLeafClusters(Child(node, e), out);
    }
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
    int node;
    int depth;
  };
  std::vector<Item> stack = {{root_, 0}};
  std::vector<double> sum(stride_);
  std::vector<double> expected;
  int leaf_depth = -1;
  int64_t points_seen = 0;
  int leaves_seen = 0;
  int nodes_seen = 0;
  while (!stack.empty()) {
    Item item = stack.back();
    stack.pop_back();
    const int node = item.node;
    if (++nodes_seen > node_count()) {
      return Status::Internal("cf tree has a cycle or a shared child");
    }
    const bool is_leaf = nodes_[node].is_leaf;
    int count = nodes_[node].size;
    int limit = is_leaf ? leaf_entries_ : branching_;
    if (count > limit) {
      return Status::Internal("cf node overfull: " + std::to_string(count) +
                              " entries, limit " + std::to_string(limit));
    }
    if (node != root_ && count == 0) {
      return Status::Internal("empty non-root cf node");
    }
    for (int e = 0; e < count; ++e) {
      const double* row = Row(node, e);
      if (RowCount(row) <= 0) return Status::Internal("empty cf entry");
      // The cached centroid must be exactly what a fresh one would be.
      expected.assign(row, row + stride_);
      UpdateCentroid(expected.data(), dim_);
      if (!std::equal(expected.begin(), expected.end(), row)) {
        return Status::Internal("cf entry centroid out of date");
      }
    }
    if (is_leaf) {
      if (leaf_depth == -1) leaf_depth = item.depth;
      if (item.depth != leaf_depth) {
        return Status::Internal("leaves at unequal depths: " +
                                std::to_string(item.depth) + " and " +
                                std::to_string(leaf_depth));
      }
      leaves_seen += count;
      for (int e = 0; e < count; ++e) {
        points_seen += RowCount(Row(node, e));
        // Absorption only happens when the merged radius stays within the
        // threshold, so every leaf subcluster obeys it (BIRCH 4.1).
        double radius = RowToCf(Row(node, e), dim_).Radius();
        if (radius > threshold_ && !CloseEnough(radius, threshold_)) {
          return Status::Internal(
              "leaf subcluster radius " + std::to_string(radius) +
              " exceeds threshold " + std::to_string(threshold_));
        }
      }
      continue;
    }
    for (int e = 0; e < count; ++e) {
      const int child = Child(node, e);
      if (child < 0 || child >= node_count()) {
        return Status::Internal("cf entry child index " +
                                std::to_string(child) + " out of range");
      }
      // CF additivity (BIRCH theorem 4.1): a nonleaf entry must equal the
      // sum of the CFs in the child it summarizes.
      SumEntries(child, sum.data());
      const double* stored = Row(node, e);
      if (RowCount(stored) != RowCount(sum.data())) {
        return Status::Internal(
            "cf additivity violated: stored N " +
            std::to_string(RowCount(stored)) + " != children sum " +
            std::to_string(RowCount(sum.data())));
      }
      if (!CloseEnough(stored[kSquareSum], sum[kSquareSum])) {
        return Status::Internal("cf additivity violated: SS drift");
      }
      for (int d = 0; d < dim_; ++d) {
        if (!CloseEnough(stored[kLinearSum + d], sum[kLinearSum + d])) {
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
  if (nodes_seen != node_count()) {
    return Status::Internal("node count mismatch: counted " +
                            std::to_string(nodes_seen) + " expected " +
                            std::to_string(node_count()));
  }
  return Status::OK();
}

void CfTree::TestOnlyCorruptFirstLeafCf(double delta) {
  int node = root_;
  while (!nodes_[node].is_leaf) {
    WALRUS_CHECK_GT(nodes_[node].size, 0);
    node = Child(node, 0);
  }
  WALRUS_CHECK_GT(nodes_[node].size, 0) << "cannot corrupt an empty tree";
  Row(node, 0)[kSquareSum] += delta;
}

std::vector<CfVector> CfTree::LeafClusters() const {
  std::vector<CfVector> out;
  out.reserve(leaf_cluster_count_);
  CollectLeafClusters(root_, &out);
  return out;
}

}  // namespace walrus
