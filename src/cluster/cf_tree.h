#ifndef WALRUS_CLUSTER_CF_TREE_H_
#define WALRUS_CLUSTER_CF_TREE_H_

#include <vector>

#include "cluster/cf.h"
#include "common/status.h"

namespace walrus {

/// Height-balanced CF-tree (BIRCH [ZRL96] section 4.1). Internal nodes hold
/// up to `branching` (CF, child) entries; leaves hold up to `leaf_entries`
/// subcluster CFs. A point descends along closest centroids; the closest
/// leaf subcluster absorbs it if the merged radius stays within `threshold`,
/// otherwise it starts a new subcluster. Overfull nodes split along the
/// farthest entry pair, recursively up to the root.
///
/// Nodes live in one arena and refer to each other by index. Each node's
/// entries are inline rows (N, SS, LS[dim], cached centroid[dim]) in one
/// shared slab, so inserting a point allocates nothing once the tree has
/// grown. The tree is bit-identical to one built from CfVector entries: the
/// same sums in the same order, and the same sqrt distances with strict
/// first-index ties (DESIGN.md section 18).
class CfTree {
 public:
  CfTree(int dim, double threshold, int branching = 8, int leaf_entries = 8);

  /// Inserts one point (length == dim()).
  void InsertPoint(const float* point);

  /// Inserts a whole subcluster CF (used when rebuilding with a larger
  /// threshold: leaf entries of the old tree are re-inserted wholesale).
  void InsertCf(const CfVector& cf);

  /// All leaf subcluster CFs, left to right.
  std::vector<CfVector> LeafClusters() const;

  int dim() const { return dim_; }
  double threshold() const { return threshold_; }
  int64_t point_count() const { return point_count_; }
  /// Number of leaf subclusters currently in the tree.
  int leaf_cluster_count() const { return leaf_cluster_count_; }
  /// Total nodes (diagnostics / memory-bound rebuild policy).
  int node_count() const { return static_cast<int>(nodes_.size()); }

  /// Deep structural validation: CF additivity (each internal entry's
  /// N/LS/SS equals the sum over its child's entries, within floating-point
  /// tolerance), subcluster radius <= threshold at leaves, branching-factor
  /// bounds, uniform leaf depth, and the N/leaf/node counters. Returns an
  /// error describing the first violation. O(n); invoked from tests and,
  /// when DeepChecksEnabled(), after clustering runs.
  Status Validate() const;

  /// Test-only fault injection: adds `delta` to the square-sum of the
  /// leftmost leaf subcluster CF without updating any ancestor, so
  /// Validate() must report the corruption. Fatal on an empty tree.
  void TestOnlyCorruptFirstLeafCf(double delta);

 private:
  struct Node {
    bool is_leaf = true;
    int size = 0;  // entries in use
  };

  /// Appends an empty node (its rows and child slots included); returns its
  /// index. Invalidates row pointers.
  int NewNode(bool is_leaf);
  /// Entry row e of `node`: N, SS, LS[dim], then the centroid.
  double* Row(int node, int e) {
    return rows_.data() + (static_cast<size_t>(node) * capacity_ + e) * stride_;
  }
  const double* Row(int node, int e) const {
    return rows_.data() + (static_cast<size_t>(node) * capacity_ + e) * stride_;
  }
  int& Child(int node, int e) { return children_[node * capacity_ + e]; }
  int Child(int node, int e) const { return children_[node * capacity_ + e]; }

  /// Index of the entry of `node` whose centroid is closest to cf's.
  int ClosestEntry(int node, const double* cf);
  /// Appends a copy of row `cf` (with `child`) to `node`.
  void AppendEntry(int node, const double* cf, int child);
  /// Writes the CF sum of all of `node`'s entries to `out`.
  void SumEntries(int node, double* out) const;
  /// Inserts the CF row `insert_row_` from the root down.
  void InsertRow();
  /// Inserts `cf` below `node`; returns the new sibling index when `node`
  /// split, else -1. `cf` must not point into the arena.
  int InsertIntoSubtree(int node, const double* cf);
  int SplitNode(int node);
  void CollectLeafClusters(int node, std::vector<CfVector>* out) const;

  int dim_;
  double threshold_;
  int branching_;
  int leaf_entries_;
  int stride_;    // doubles per entry row: 2 + 2 * dim
  int capacity_;  // entry slots per node: one over the larger node limit
  int64_t point_count_ = 0;
  int leaf_cluster_count_ = 0;
  int root_ = 0;
  std::vector<Node> nodes_;
  std::vector<double> rows_;
  std::vector<int> children_;
  /// Scratch: the CF being inserted, and an overfull node's entries while
  /// it splits.
  std::vector<double> insert_row_;
  std::vector<double> split_rows_;
  std::vector<int> split_children_;
};

}  // namespace walrus

#endif  // WALRUS_CLUSTER_CF_TREE_H_
