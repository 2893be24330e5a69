#include "core/bitmap.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace walrus {
namespace {

TEST(CoverageBitmap, StartsClear) {
  CoverageBitmap bm(16);
  EXPECT_EQ(bm.CountSet(), 0);
  EXPECT_DOUBLE_EQ(bm.CoveredFraction(), 0.0);
  EXPECT_FALSE(bm.TestCell(0, 0));
}

TEST(CoverageBitmap, SetAndTest) {
  CoverageBitmap bm(16);
  bm.SetCell(3, 5);
  bm.SetCell(15, 15);
  EXPECT_TRUE(bm.TestCell(3, 5));
  EXPECT_TRUE(bm.TestCell(15, 15));
  EXPECT_FALSE(bm.TestCell(5, 3));
  EXPECT_EQ(bm.CountSet(), 2);
}

TEST(CoverageBitmap, MarkWholeImage) {
  CoverageBitmap bm(16);
  bm.MarkWindow(0, 0, 128, 128, 128, 128);
  EXPECT_EQ(bm.CountSet(), 256);
  EXPECT_DOUBLE_EQ(bm.CoveredFraction(), 1.0);
}

TEST(CoverageBitmap, MarkQuarterWindow) {
  // A 64x64 window in a 128x128 image covers exactly a quarter of the cells
  // (cell centers fall strictly inside).
  CoverageBitmap bm(16);
  bm.MarkWindow(0, 0, 64, 64, 128, 128);
  EXPECT_EQ(bm.CountSet(), 64);
  EXPECT_TRUE(bm.TestCell(0, 0));
  EXPECT_TRUE(bm.TestCell(7, 7));
  EXPECT_FALSE(bm.TestCell(8, 8));
}

TEST(CoverageBitmap, MarkUsesCellCenters) {
  // A window covering less than half a cell's span around the center marks
  // nothing; crossing the center marks it.
  CoverageBitmap bm(4);  // cells are 32x32 in a 128x128 image
  bm.MarkWindow(0, 0, 16, 16, 128, 128);  // stops at pixel 16 < center 16.5
  EXPECT_EQ(bm.CountSet(), 0);
  bm.MarkWindow(0, 0, 17, 17, 128, 128);
  EXPECT_EQ(bm.CountSet(), 1);
}

TEST(CoverageBitmap, UnionAndCount) {
  CoverageBitmap a(8);
  CoverageBitmap b(8);
  a.SetCell(0, 0);
  a.SetCell(1, 1);
  b.SetCell(1, 1);
  b.SetCell(2, 2);
  EXPECT_EQ(CoverageBitmap::UnionCount(a, b), 3);
  a.UnionWith(b);
  EXPECT_EQ(a.CountSet(), 3);
  EXPECT_TRUE(a.TestCell(2, 2));
}

TEST(CoverageBitmap, BytesRoundTrip) {
  CoverageBitmap bm(16);
  bm.MarkWindow(10, 20, 50, 60, 128, 128);
  bm.SetCell(15, 0);
  std::vector<uint8_t> bytes = bm.ToBytes();
  EXPECT_EQ(bytes.size(), 32u);  // the paper's 32-byte bitmaps
  CoverageBitmap restored(16, bytes);
  EXPECT_TRUE(restored == bm);
}

TEST(CoverageBitmap, NonMultipleOf64Cells) {
  CoverageBitmap bm(5);  // 25 bits
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 5; ++x) bm.SetCell(x, y);
  }
  EXPECT_EQ(bm.CountSet(), 25);
  std::vector<uint8_t> bytes = bm.ToBytes();
  EXPECT_EQ(bytes.size(), 4u);  // ceil(25/8)
  CoverageBitmap restored(5, bytes);
  EXPECT_TRUE(restored == bm);
}

TEST(CoverageBitmap, ClearResets) {
  CoverageBitmap bm(8);
  bm.MarkWindow(0, 0, 64, 64, 64, 64);
  EXPECT_GT(bm.CountSet(), 0);
  bm.Clear();
  EXPECT_EQ(bm.CountSet(), 0);
}

TEST(CoverageBitmap, MarkWindowClipsToImage) {
  CoverageBitmap bm(8);
  bm.MarkWindow(96, 96, 64, 64, 128, 128);  // extends past the image
  EXPECT_EQ(bm.CountSet(), 4);              // bottom-right 2x2 cells
  EXPECT_TRUE(bm.TestCell(7, 7));
  EXPECT_TRUE(bm.TestCell(6, 6));
}

/// The all-cells MarkWindow: tests every cell center against the window.
void ReferenceMarkWindow(CoverageBitmap* bm, int x, int y, int w, int h,
                         int image_w, int image_h) {
  const int side = bm->side();
  for (int cy = 0; cy < side; ++cy) {
    double center_y = (cy + 0.5) * image_h / side;
    if (center_y < y || center_y >= y + h) continue;
    for (int cx = 0; cx < side; ++cx) {
      double center_x = (cx + 0.5) * image_w / side;
      if (center_x < x || center_x >= x + w) continue;
      bm->SetCell(cx, cy);
    }
  }
}

TEST(CoverageBitmap, MarkWindowMatchesAllCellsReference) {
  Rng rng(2024);
  // Extents that the sides do not divide, plus exact multiples.
  const int extents[][2] = {{384, 384}, {300, 384}, {97, 61}, {128, 100},
                            {1, 1},     {7, 1000},  {64, 64}};
  for (int side : {1, 7, 16, 64}) {
    for (const auto& extent : extents) {
      const int image_w = extent[0];
      const int image_h = extent[1];
      for (int trial = 0; trial < 300; ++trial) {
        // Windows may start before, end past, or miss the image.
        int x = rng.NextInt(-10, image_w + 10);
        int y = rng.NextInt(-10, image_h + 10);
        int w = rng.NextInt(0, image_w + 8);
        int h = rng.NextInt(0, image_h + 8);
        if (trial % 5 == 0) {
          // Power-of-two windows on the slide grid, as extraction marks.
          w = h = 1 << rng.NextInt(0, 6);
          x = rng.NextInt(0, image_w - 1) / 4 * 4;
          y = rng.NextInt(0, image_h - 1) / 4 * 4;
        }
        CoverageBitmap got(side);
        CoverageBitmap want(side);
        // Mark into a partly set bitmap so only the window's cells change.
        for (int k = 0; k < 3; ++k) {
          int cx = rng.NextInt(0, side - 1);
          int cy = rng.NextInt(0, side - 1);
          got.SetCell(cx, cy);
          want.SetCell(cx, cy);
        }
        got.MarkWindow(x, y, w, h, image_w, image_h);
        ReferenceMarkWindow(&want, x, y, w, h, image_w, image_h);
        ASSERT_TRUE(got == want)
            << "side " << side << " image " << image_w << "x" << image_h
            << " window " << x << "," << y << " " << w << "x" << h;
      }
    }
  }
}

}  // namespace
}  // namespace walrus
