#ifndef WALRUS_CLUSTER_BIRCH_H_
#define WALRUS_CLUSTER_BIRCH_H_

#include <vector>

#include "cluster/cf.h"

namespace walrus {

/// Knobs for the BIRCH pre-clustering phase (phase 1 of [ZRL96]), the
/// clustering WALRUS runs over window signatures (paper section 5.3).
struct BirchParams {
  /// Radius threshold: a leaf subcluster absorbs a point only while its
  /// radius stays within this bound. This is the paper's epsilon_c.
  double threshold = 0.05;
  /// Max entries per internal node (B).
  int branching = 8;
  /// Max subclusters per leaf node (L).
  int leaf_entries = 8;
  /// Memory bound expressed as a node budget; when the tree outgrows it,
  /// it is rebuilt with a larger threshold (0 = unlimited, never rebuild).
  int max_nodes = 0;
  /// Threshold multiplier used on rebuild.
  double threshold_growth = 1.5;
};

/// Result of pre-clustering `n` points.
struct BirchResult {
  /// One CF per subcluster found.
  std::vector<CfVector> clusters;
  /// Subcluster centroids (clusters[i].Centroid(), precomputed).
  std::vector<std::vector<float>> centroids;
  /// For every input point, the index of the closest subcluster centroid
  /// (final assignment pass; BIRCH phase 1 itself is streaming and does not
  /// retain point membership).
  std::vector<int> assignments;
  /// Threshold actually in effect at the end (>= params.threshold if the
  /// node budget forced rebuilds).
  double final_threshold = 0.0;
  int rebuilds = 0;
};

/// Runs BIRCH pre-clustering over `n` points of dimension `dim` stored
/// contiguously in `points` (point i at points + i*dim).
BirchResult BirchPreCluster(const float* points, int n, int dim,
                            const BirchParams& params);

/// BIRCH's final assignment pass: for each of the `n` points, the index of
/// the centroid at the smallest squared L2 distance (accumulated in double,
/// ascending dimension), ties to the lowest index; 0 when no distance is
/// below infinity (the brute-force rule: first strict minimum in index
/// order). Sub-quadratic but exact: with the previous point's centroid as
/// the bound, only centroids whose coordinate-0 term alone does not exceed
/// it are scored (every term is nonnegative and rounding is monotone, so a
/// sum never falls below its first term; DESIGN.md section 17).
std::vector<int> AssignNearestCentroids(
    const float* points, int n, int dim,
    const std::vector<std::vector<float>>& centroids);

/// Convenience overload for a vector of points.
BirchResult BirchPreCluster(const std::vector<std::vector<float>>& points,
                            const BirchParams& params);

}  // namespace walrus

#endif  // WALRUS_CLUSTER_BIRCH_H_
