#include "cluster/cf.h"

#include <cmath>

#include "common/check.h"
#include "common/simd.h"

namespace walrus {

CfVector CfVector::FromPoint(const float* point, int dim) {
  CfVector cf(dim);
  cf.AddPoint(point, dim);
  return cf;
}

CfVector CfVector::FromSums(int64_t count, double square_sum,
                            const double* linear_sum, int dim) {
  CfVector cf;
  cf.count_ = count;
  cf.ss_ = square_sum;
  cf.ls_.assign(linear_sum, linear_sum + dim);
  return cf;
}

void CfVector::AddPoint(const float* point, int dim) {
  if (ls_.empty()) ls_.assign(dim, 0.0);
  WALRUS_DCHECK_EQ(dim, this->dim());
  // The kernel threads the running ss_ through so the v*v additions land in
  // the same order as the historical scalar loop (see common/simd.h).
  ss_ = simd::Active().accumulate_f32(ls_.data(), point, dim, ss_);
  ++count_;
}

void CfVector::Merge(const CfVector& other) {
  if (other.empty()) return;
  if (ls_.empty()) ls_.assign(other.dim(), 0.0);
  WALRUS_DCHECK_EQ(dim(), other.dim());
  simd::Active().add_f64(ls_.data(), other.ls_.data(), dim());
  ss_ += other.ss_;
  count_ += other.count_;
}

std::vector<float> CfVector::Centroid() const {
  WALRUS_CHECK_GT(count_, 0);
  std::vector<float> c(ls_.size());
  double inv = 1.0 / static_cast<double>(count_);
  for (size_t i = 0; i < ls_.size(); ++i) {
    c[i] = static_cast<float>(ls_[i] * inv);
  }
  return c;
}

double CfVector::Radius() const {
  if (count_ <= 1) return 0.0;
  double inv = 1.0 / static_cast<double>(count_);
  double centroid_norm2 = 0.0;
  for (double v : ls_) centroid_norm2 += (v * inv) * (v * inv);
  double r2 = ss_ * inv - centroid_norm2;
  return r2 > 0.0 ? std::sqrt(r2) : 0.0;
}

double CfVector::Diameter() const {
  if (count_ <= 1) return 0.0;
  double n = static_cast<double>(count_);
  double ls_norm2 = 0.0;
  for (double v : ls_) ls_norm2 += v * v;
  double d2 = (2.0 * n * ss_ - 2.0 * ls_norm2) / (n * (n - 1.0));
  return d2 > 0.0 ? std::sqrt(d2) : 0.0;
}

double CfVector::CentroidDistance(const CfVector& a, const CfVector& b) {
  WALRUS_DCHECK_EQ(a.dim(), b.dim());
  return cf_math::CentroidDistance(a.count_, a.ls_.data(), b.count_,
                                   b.ls_.data(), a.dim());
}

double CfVector::MergedRadius(const CfVector& other) const {
  WALRUS_DCHECK_EQ(dim(), other.dim());
  return cf_math::MergedRadius(count_, ss_, ls_.data(), other.count_,
                               other.ss_, other.ls_.data(), dim());
}

double CfVector::MergedRadiusWithPoint(const float* point, int dim) const {
  WALRUS_DCHECK_EQ(dim, this->dim());
  int64_t n = count_ + 1;
  double inv = 1.0 / static_cast<double>(n);
  double ss = ss_;
  double centroid_norm2 = 0.0;
  for (int i = 0; i < dim; ++i) {
    double v = point[i];
    ss += v * v;
    double ls = ls_[i] + v;
    centroid_norm2 += (ls * inv) * (ls * inv);
  }
  double r2 = ss * inv - centroid_norm2;
  return r2 > 0.0 ? std::sqrt(r2) : 0.0;
}

namespace cf_math {

double CentroidDistance(int64_t n_a, const double* ls_a, int64_t n_b,
                        const double* ls_b, int dim) {
  WALRUS_DCHECK(n_a > 0 && n_b > 0);
  double inv_a = 1.0 / static_cast<double>(n_a);
  double inv_b = 1.0 / static_cast<double>(n_b);
  return std::sqrt(
      simd::Active().scaled_squared_l2_f64(ls_a, inv_a, ls_b, inv_b, dim));
}

double MergedRadius(int64_t n_a, double ss_a, const double* ls_a,
                    int64_t n_b, double ss_b, const double* ls_b, int dim) {
  int64_t n = n_a + n_b;
  if (n <= 1) return 0.0;
  double inv = 1.0 / static_cast<double>(n);
  double ss = ss_a + ss_b;
  double centroid_norm2 = 0.0;
  for (int i = 0; i < dim; ++i) {
    double ls = ls_a[i] + ls_b[i];
    centroid_norm2 += (ls * inv) * (ls * inv);
  }
  double r2 = ss * inv - centroid_norm2;
  return r2 > 0.0 ? std::sqrt(r2) : 0.0;
}

}  // namespace cf_math

}  // namespace walrus
