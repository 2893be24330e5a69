#include "cluster/birch.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/metrics.h"
#include "common/simd.h"
#include "cluster/cf_tree.h"

namespace walrus {
namespace {

/// Rebuilds `tree` with a larger threshold by re-inserting its leaf
/// subclusters (BIRCH's threshold-raising rebuild; cheaper than rescanning
/// the data because CFs are additive).
CfTree RebuildWithThreshold(const CfTree& tree, double new_threshold,
                            const BirchParams& params) {
  CfTree rebuilt(tree.dim(), new_threshold, params.branching,
                 params.leaf_entries);
  for (const CfVector& cf : tree.LeafClusters()) {
    rebuilt.InsertCf(cf);
  }
  return rebuilt;
}

}  // namespace

std::vector<int> AssignNearestCentroids(
    const float* points, int n, int dim,
    const std::vector<std::vector<float>>& centroids) {
  // Centroids in ascending order of coordinate 0 (ties by index), packed
  // dimension-major for the batch kernel, so plane 0 doubles as the sorted
  // scan keys. A centroid whose coordinate 0 is NaN is at NaN distance from
  // every point; it can never pass the reference rule's strict `<` and is
  // left out.
  std::vector<int> order;
  order.reserve(centroids.size());
  for (size_t c = 0; c < centroids.size(); ++c) {
    WALRUS_DCHECK_EQ(static_cast<int>(centroids[c].size()), dim);
    if (!std::isnan(centroids[c][0])) order.push_back(static_cast<int>(c));
  }
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return centroids[a][0] < centroids[b][0];
  });
  const int m = static_cast<int>(order.size());
  std::vector<float> planes(static_cast<size_t>(m) * dim);
  for (int s = 0; s < m; ++s) {
    for (int k = 0; k < dim; ++k) {
      planes[static_cast<size_t>(k) * m + s] = centroids[order[s]][k];
    }
  }
  const float* keys = planes.data();
  const simd::KernelTable& kernels = simd::Active();
  std::vector<double> dists(m);

  std::vector<int> assignments(n);
  int prev_slot = -1;  // sorted slot the previous point was assigned to
  for (int i = 0; i < n; ++i) {
    const float* p = points + static_cast<size_t>(i) * dim;
    // Bound: the exact distance to the previous point's centroid. Windows
    // adjacent in scan order overlap, so this is usually the minimum.
    double bound = std::numeric_limits<double>::infinity();
    if (prev_slot >= 0) {
      kernels.batch_squared_l2(planes.data() + prev_slot, m, dim, 1, p,
                               &bound);
    }
    // A centroid whose first term alone exceeds the bound is farther than
    // the bounding centroid. The first term grows monotonically away from
    // p[0] in sorted order, so the survivors form one contiguous run. (A
    // NaN term or bound fails `>` and keeps the centroid: no pruning.)
    const double p0 = p[0];
    auto first_term = [&](int s) {
      const double d = static_cast<double>(keys[s]) - p0;
      return d * d;
    };
    int hi = static_cast<int>(std::lower_bound(keys, keys + m, p[0]) - keys);
    int lo = hi;
    while (lo > 0 && !(first_term(lo - 1) > bound)) --lo;
    while (hi < m && !(first_term(hi) > bound)) ++hi;
    kernels.batch_squared_l2(planes.data() + lo, m, dim, hi - lo, p,
                             dists.data());
    int best = 0;
    int best_slot = -1;
    double best_dist = std::numeric_limits<double>::infinity();
    for (int s = lo; s < hi; ++s) {
      const double dist = dists[s - lo];
      if (dist < best_dist || (dist == best_dist && order[s] < best)) {
        best_dist = dist;
        best = order[s];
        best_slot = s;
      }
    }
    assignments[i] = best;
    prev_slot = best_slot;
  }
  return assignments;
}

BirchResult BirchPreCluster(const float* points, int n, int dim,
                            const BirchParams& params) {
  WALRUS_CHECK_GE(n, 1);
  WALRUS_CHECK_GE(dim, 1);
  WALRUS_CHECK_GT(params.threshold_growth, 1.0);

  CfTree tree(dim, params.threshold, params.branching, params.leaf_entries);
  BirchResult result;
  for (int i = 0; i < n; ++i) {
    tree.InsertPoint(points + static_cast<size_t>(i) * dim);
    if (params.max_nodes > 0 && tree.node_count() > params.max_nodes) {
      double new_threshold =
          tree.threshold() <= 0.0
              ? 1e-3
              : tree.threshold() * params.threshold_growth;
      tree = RebuildWithThreshold(tree, new_threshold, params);
      ++result.rebuilds;
    }
  }

  result.clusters = tree.LeafClusters();
  result.final_threshold = tree.threshold();
  result.centroids.reserve(result.clusters.size());
  for (const CfVector& cf : result.clusters) {
    result.centroids.push_back(cf.Centroid());
  }

  result.assignments = AssignNearestCentroids(points, n, dim, result.centroids);

  // Registry counters: clustering volume and rebuild pressure (a rising
  // rebuild rate means the node budget is too small for the workload).
  {
    static Counter* const runs =
        MetricsRegistry::Global().GetCounter("walrus.birch.runs");
    static Counter* const points_clustered =
        MetricsRegistry::Global().GetCounter("walrus.birch.points");
    static Counter* const clusters =
        MetricsRegistry::Global().GetCounter("walrus.birch.clusters");
    static Counter* const rebuilds =
        MetricsRegistry::Global().GetCounter("walrus.birch.rebuilds");
    runs->Increment();
    points_clustered->Increment(static_cast<uint64_t>(n));
    clusters->Increment(result.clusters.size());
    rebuilds->Increment(static_cast<uint64_t>(result.rebuilds));
  }
  return result;
}

BirchResult BirchPreCluster(const std::vector<std::vector<float>>& points,
                            const BirchParams& params) {
  WALRUS_CHECK(!points.empty());
  int dim = static_cast<int>(points[0].size());
  std::vector<float> flat;
  flat.reserve(points.size() * dim);
  for (const auto& p : points) {
    WALRUS_CHECK_EQ(static_cast<int>(p.size()), dim);
    flat.insert(flat.end(), p.begin(), p.end());
  }
  return BirchPreCluster(flat.data(), static_cast<int>(points.size()), dim,
                         params);
}

}  // namespace walrus
