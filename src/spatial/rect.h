#ifndef WALRUS_SPATIAL_RECT_H_
#define WALRUS_SPATIAL_RECT_H_

#include <cstddef>
#include <vector>

#include "common/logging.h"

namespace walrus {

/// Axis-aligned hyper-rectangle with runtime dimensionality, the bounding
/// shape stored in the R*-tree. Region signatures are indexed either as
/// degenerate point rectangles (centroid signatures) or as proper bounding
/// boxes of all window signatures in a cluster (paper Definition 4.1).
class Rect {
 public:
  Rect() = default;

  /// Degenerate rectangle covering exactly `point`.
  static Rect Point(const std::vector<float>& point);

  /// Rectangle from explicit bounds; requires lo[i] <= hi[i] for all i.
  static Rect Bounds(std::vector<float> lo, std::vector<float> hi);

  /// Empty rectangle placeholder of the given dimension, ready to be
  /// extended with ExpandToInclude (lo=+inf, hi=-inf conceptually; here a
  /// flag keeps it explicit).
  static Rect Empty(int dim);

  int dim() const { return static_cast<int>(lo_.size()); }
  bool IsEmpty() const { return empty_; }
  const std::vector<float>& lo() const { return lo_; }
  const std::vector<float>& hi() const { return hi_; }
  float lo(int i) const { return lo_[i]; }
  float hi(int i) const { return hi_[i]; }

  /// Center point (undefined on empty rects; checked).
  std::vector<float> Center() const;

  /// Grows this rect minimally to contain `other` (or a point).
  void ExpandToInclude(const Rect& other);
  void ExpandToInclude(const std::vector<float>& point);

  /// Pointer overload (`point` holds `n` floats): grows in place without a
  /// temporary vector (region assembly calls this once per window).
  void ExpandToInclude(const float* point, int n);

  /// Overwrites this rect with the box whose bound d is lo[d * stride] /
  /// hi[d * stride]: one entry of an SoA block (common/simd.h). Reuses the
  /// existing storage, so a tree scan can hand every hit to its visitor
  /// through one scratch Rect without allocating.
  void AssignFromPlanes(const float* lo, const float* hi, size_t stride,
                        int dim);

  /// Returns a copy grown by `epsilon` on every side (Minkowski expansion;
  /// this is how Definition 4.1's epsilon-envelope probe is executed).
  Rect Expanded(float epsilon) const;

  /// True if the rectangles share at least one point (closed bounds).
  bool Intersects(const Rect& other) const;

  /// Equivalent to `Expanded(epsilon).Intersects(other)` without
  /// materializing the expanded copy (the hot epsilon-containment test of
  /// Definition 4.1; executed by a fused kernel, see common/simd.h).
  bool ExpandedIntersects(float epsilon, const Rect& other) const;

  /// True if `point` lies inside (closed bounds).
  bool Contains(const std::vector<float>& point) const;

  /// Pointer overload for packed/SoA callers (`point` holds `n` floats).
  bool Contains(const float* point, int n) const;

  /// True if `other` lies fully inside this rect.
  bool ContainsRect(const Rect& other) const;

  /// Product of side lengths. Degenerate sides contribute factor 0.
  double Area() const;

  /// Sum of side lengths (the R* split margin objective).
  double Margin() const;

  /// Area of the intersection with `other` (0 when disjoint).
  double OverlapArea(const Rect& other) const;

  /// Area of the minimal rect containing both minus this rect's area.
  double Enlargement(const Rect& other) const;

  /// Minimal rect containing both inputs.
  static Rect Union(const Rect& a, const Rect& b);

  /// Squared minimum distance from `point` to this rect (0 when inside).
  double MinSquaredDistance(const std::vector<float>& point) const;

  /// Pointer overload (`point` holds `n` floats): packed-store and
  /// tree-scan callers pass plane pointers directly instead of
  /// materializing a temporary vector per node visit.
  double MinSquaredDistance(const float* point, int n) const;

  bool operator==(const Rect& other) const {
    return empty_ == other.empty_ && lo_ == other.lo_ && hi_ == other.hi_;
  }

 private:
  bool empty_ = true;
  std::vector<float> lo_;
  std::vector<float> hi_;
};

}  // namespace walrus

#endif  // WALRUS_SPATIAL_RECT_H_
