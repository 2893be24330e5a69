#ifndef WALRUS_CLUSTER_CF_H_
#define WALRUS_CLUSTER_CF_H_

#include <cstdint>
#include <vector>

namespace walrus {

/// BIRCH Clustering Feature [ZRL96]: the sufficient statistics
/// (N, LS, SS) of a set of d-dimensional points, where LS is the linear sum
/// and SS the sum of squared norms. CFs are additive, which is what makes
/// the CF-tree incremental: absorbing a point or merging two subclusters is
/// O(d) and exact.
class CfVector {
 public:
  CfVector() = default;
  explicit CfVector(int dim) : ls_(dim, 0.0) {}

  /// CF of a single point.
  static CfVector FromPoint(const float* point, int dim);

  /// CF with the given sums (N, SS, LS[dim]).
  static CfVector FromSums(int64_t count, double square_sum,
                           const double* linear_sum, int dim);

  int dim() const { return static_cast<int>(ls_.size()); }
  int64_t count() const { return count_; }
  const std::vector<double>& linear_sum() const { return ls_; }
  double square_sum() const { return ss_; }

  bool empty() const { return count_ == 0; }

  /// Adds one point (dimension must match; empty CFs adopt it).
  void AddPoint(const float* point, int dim);

  /// Adds another CF (the additivity theorem).
  void Merge(const CfVector& other);

  /// Centroid LS/N. Undefined for empty CFs (checked).
  std::vector<float> Centroid() const;

  /// Root-mean-square distance of member points from the centroid:
  /// sqrt(SS/N - ||LS/N||^2). This is BIRCH's radius R.
  double Radius() const;

  /// Average pairwise distance diameter D =
  /// sqrt((2N*SS - 2||LS||^2) / (N(N-1))); 0 when N < 2.
  double Diameter() const;

  /// Euclidean distance between the centroids of two CFs (BIRCH metric D0).
  static double CentroidDistance(const CfVector& a, const CfVector& b);

  /// Radius of the union of this CF and `other` without materializing it.
  double MergedRadius(const CfVector& other) const;

  /// Radius of the union of this CF and a single point.
  double MergedRadiusWithPoint(const float* point, int dim) const;

  /// Test-only fault injection: perturbs the square-sum so validators can
  /// be shown to catch a corrupted CF. Never call outside tests.
  void TestOnlyPerturbSquareSum(double delta) { ss_ += delta; }

 private:
  int64_t count_ = 0;
  std::vector<double> ls_;
  double ss_ = 0.0;
};

/// CF arithmetic on raw sums. CfVector and the CF-tree's inline entry rows
/// both go through these, so they round identically.
namespace cf_math {

/// Euclidean distance between the centroids LS_a/N_a and LS_b/N_b.
double CentroidDistance(int64_t n_a, const double* ls_a, int64_t n_b,
                        const double* ls_b, int dim);

/// Radius of the union of CFs a and b (0 when the union has < 2 points).
double MergedRadius(int64_t n_a, double ss_a, const double* ls_a,
                    int64_t n_b, double ss_b, const double* ls_b, int dim);

}  // namespace cf_math

}  // namespace walrus

#endif  // WALRUS_CLUSTER_CF_H_
