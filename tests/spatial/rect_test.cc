#include "spatial/rect.h"

#include <cstring>
#include <limits>

#include <gtest/gtest.h>

namespace walrus {
namespace {

TEST(Rect, PointRectIsDegenerate) {
  Rect r = Rect::Point({1.0f, 2.0f});
  EXPECT_FALSE(r.IsEmpty());
  EXPECT_EQ(r.dim(), 2);
  EXPECT_DOUBLE_EQ(r.Area(), 0.0);
  EXPECT_DOUBLE_EQ(r.Margin(), 0.0);
  EXPECT_TRUE(r.Contains({1.0f, 2.0f}));
  EXPECT_FALSE(r.Contains({1.0f, 2.1f}));
}

TEST(Rect, BoundsBasics) {
  Rect r = Rect::Bounds({0, 0}, {2, 3});
  EXPECT_DOUBLE_EQ(r.Area(), 6.0);
  EXPECT_DOUBLE_EQ(r.Margin(), 5.0);
  std::vector<float> c = r.Center();
  EXPECT_FLOAT_EQ(c[0], 1.0f);
  EXPECT_FLOAT_EQ(c[1], 1.5f);
}

TEST(Rect, EmptyBehaviour) {
  Rect e = Rect::Empty(2);
  EXPECT_TRUE(e.IsEmpty());
  EXPECT_DOUBLE_EQ(e.Area(), 0.0);
  EXPECT_FALSE(e.Intersects(Rect::Point({0, 0})));
  e.ExpandToInclude(Rect::Point({1.0f, 1.0f}));
  EXPECT_FALSE(e.IsEmpty());
  EXPECT_TRUE(e.Contains({1.0f, 1.0f}));
}

TEST(Rect, ExpandToIncludeGrowsMinimally) {
  Rect r = Rect::Point({0.0f, 0.0f});
  r.ExpandToInclude(std::vector<float>{2.0f, -1.0f});
  EXPECT_FLOAT_EQ(r.lo(0), 0.0f);
  EXPECT_FLOAT_EQ(r.hi(0), 2.0f);
  EXPECT_FLOAT_EQ(r.lo(1), -1.0f);
  EXPECT_FLOAT_EQ(r.hi(1), 0.0f);
}

TEST(Rect, PointerExpandMatchesRectExpand) {
  // The pointer overload must grow exactly like expanding by a point rect,
  // from empty and from a box, including NaN coordinates (std::min/max
  // keep the current bound when the comparison is false).
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<std::vector<float>> points = {
      {0.5f, -1.0f, 2.0f}, {0.25f, 3.0f, 2.0f}, {nan, -2.0f, 1.0f},
      {1.0f, nan, -4.0f}};
  Rect by_rect = Rect::Empty(3);
  Rect by_pointer = Rect::Empty(3);
  for (const std::vector<float>& p : points) {
    by_rect.ExpandToInclude(Rect::Point(p));
    by_pointer.ExpandToInclude(p.data(), 3);
    EXPECT_FALSE(by_pointer.IsEmpty());
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(std::memcmp(&by_rect.lo()[i], &by_pointer.lo()[i], 4), 0);
      EXPECT_EQ(std::memcmp(&by_rect.hi()[i], &by_pointer.hi()[i], 4), 0);
    }
  }
  Rect untouched = Rect::Empty(3);
  untouched.ExpandToInclude(points[0].data(), 0);
  EXPECT_TRUE(untouched.IsEmpty());
}

TEST(Rect, ExpandedEpsilonEnvelope) {
  Rect r = Rect::Bounds({1, 1}, {2, 2}).Expanded(0.5f);
  EXPECT_FLOAT_EQ(r.lo(0), 0.5f);
  EXPECT_FLOAT_EQ(r.hi(1), 2.5f);
}

TEST(Rect, IntersectsClosedBounds) {
  Rect a = Rect::Bounds({0, 0}, {1, 1});
  Rect b = Rect::Bounds({1, 1}, {2, 2});  // touch at a corner
  EXPECT_TRUE(a.Intersects(b));
  Rect c = Rect::Bounds({1.01f, 1.01f}, {2, 2});
  EXPECT_FALSE(a.Intersects(c));
}

TEST(Rect, ContainsRect) {
  Rect outer = Rect::Bounds({0, 0}, {10, 10});
  EXPECT_TRUE(outer.ContainsRect(Rect::Bounds({1, 1}, {9, 9})));
  EXPECT_TRUE(outer.ContainsRect(outer));
  EXPECT_FALSE(outer.ContainsRect(Rect::Bounds({5, 5}, {11, 9})));
}

TEST(Rect, OverlapArea) {
  Rect a = Rect::Bounds({0, 0}, {2, 2});
  Rect b = Rect::Bounds({1, 1}, {3, 3});
  EXPECT_DOUBLE_EQ(a.OverlapArea(b), 1.0);
  EXPECT_DOUBLE_EQ(b.OverlapArea(a), 1.0);
  Rect c = Rect::Bounds({5, 5}, {6, 6});
  EXPECT_DOUBLE_EQ(a.OverlapArea(c), 0.0);
}

TEST(Rect, Enlargement) {
  Rect a = Rect::Bounds({0, 0}, {2, 2});
  EXPECT_DOUBLE_EQ(a.Enlargement(Rect::Bounds({1, 1}, {1.5f, 1.5f})), 0.0);
  EXPECT_DOUBLE_EQ(a.Enlargement(Rect::Bounds({0, 0}, {4, 2})), 4.0);
}

TEST(Rect, UnionCoversBoth) {
  Rect u = Rect::Union(Rect::Bounds({0, 0}, {1, 1}),
                       Rect::Bounds({2, -1}, {3, 0.5f}));
  EXPECT_FLOAT_EQ(u.lo(0), 0.0f);
  EXPECT_FLOAT_EQ(u.hi(0), 3.0f);
  EXPECT_FLOAT_EQ(u.lo(1), -1.0f);
  EXPECT_FLOAT_EQ(u.hi(1), 1.0f);
}

TEST(Rect, MinSquaredDistance) {
  Rect r = Rect::Bounds({0, 0}, {2, 2});
  EXPECT_DOUBLE_EQ(r.MinSquaredDistance({1.0f, 1.0f}), 0.0);    // inside
  EXPECT_DOUBLE_EQ(r.MinSquaredDistance({3.0f, 1.0f}), 1.0);    // right
  EXPECT_DOUBLE_EQ(r.MinSquaredDistance({-3.0f, -4.0f}), 25.0); // corner
}

TEST(Rect, HighDimensional) {
  std::vector<float> lo(12, 0.0f);
  std::vector<float> hi(12, 1.0f);
  Rect r = Rect::Bounds(lo, hi);
  EXPECT_EQ(r.dim(), 12);
  EXPECT_DOUBLE_EQ(r.Area(), 1.0);
  EXPECT_DOUBLE_EQ(r.Margin(), 12.0);
  std::vector<float> point(12, 0.5f);
  EXPECT_TRUE(r.Contains(point));
}

}  // namespace
}  // namespace walrus
