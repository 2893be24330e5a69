#include "wavelet/sliding_window.h"

#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/simd.h"
#include "wavelet/haar2d.h"
#include "wavelet/naive_window.h"

namespace walrus {
namespace {

std::vector<float> RandomPlane(int w, int h, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> plane(static_cast<size_t>(w) * h);
  for (float& v : plane) v = rng.NextFloat();
  return plane;
}

void ExpectGridsEqual(const WindowSignatureGrid& a,
                      const WindowSignatureGrid& b, float tol = 1e-4f) {
  ASSERT_EQ(a.window_size, b.window_size);
  ASSERT_EQ(a.step, b.step);
  ASSERT_EQ(a.nx, b.nx);
  ASSERT_EQ(a.ny, b.ny);
  ASSERT_EQ(a.sig_n, b.sig_n);
  for (int iy = 0; iy < a.ny; ++iy) {
    for (int ix = 0; ix < a.nx; ++ix) {
      const float* pa = a.SigAt(ix, iy);
      const float* pb = b.SigAt(ix, iy);
      for (int k = 0; k < a.SigFloats(); ++k) {
        ASSERT_NEAR(pa[k], pb[k], tol)
            << "window (" << ix << "," << iy << ") coeff " << k
            << " size " << a.window_size;
      }
    }
  }
}

TEST(ComputeSingleWindow, CombinesFourSubwindowTransforms) {
  // Direct check of Figure 4 against a from-scratch transform.
  Rng rng(5);
  SquareMatrix image(8);
  for (float& v : image.values) v = rng.NextFloat();

  // Subwindow transforms (4x4 each).
  SquareMatrix quads[4];
  int offsets[4][2] = {{0, 0}, {4, 0}, {0, 4}, {4, 4}};
  std::vector<std::vector<float>> sub_sigs(4);
  for (int k = 0; k < 4; ++k) {
    SquareMatrix sub(4);
    for (int y = 0; y < 4; ++y) {
      for (int x = 0; x < 4; ++x) {
        sub.At(x, y) = image.At(offsets[k][0] + x, offsets[k][1] + y);
      }
    }
    quads[k] = HaarNonStandard2D(sub);
    sub_sigs[k] = quads[k].values;
  }

  std::vector<float> out(16, 0.0f);
  ComputeSingleWindow(sub_sigs[0].data(), sub_sigs[1].data(),
                      sub_sigs[2].data(), sub_sigs[3].data(),
                      /*src_stride=*/4, out.data(), /*out_stride=*/4,
                      /*p=*/4);

  SquareMatrix expected = UpperLeftBlock(HaarNonStandard2D(image), 4);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      EXPECT_NEAR(out[y * 4 + x], expected.At(x, y), 1e-5f) << x << "," << y;
    }
  }
}

struct SweepParam {
  int width;
  int height;
  int s;
  int omega;
  int step;
};

class DpVsNaiveSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(DpVsNaiveSweep, DynamicProgrammingMatchesNaive) {
  const SweepParam p = GetParam();
  std::vector<float> plane =
      RandomPlane(p.width, p.height, 1000 + p.width + p.omega + p.s + p.step);
  std::vector<WindowSignatureGrid> levels = ComputeSlidingWindowSignatures(
      plane, p.width, p.height, p.s, /*omega_min=*/2, p.omega, p.step);
  for (const WindowSignatureGrid& grid : levels) {
    WindowSignatureGrid naive = ComputeNaiveWindowSignatures(
        plane, p.width, p.height, p.s, grid.window_size, p.step);
    ExpectGridsEqual(grid, naive);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DpVsNaiveSweep,
    ::testing::Values(
        SweepParam{16, 16, 2, 8, 1},    // dense slide
        SweepParam{16, 16, 2, 16, 1},   // window == image
        SweepParam{32, 16, 2, 8, 2},    // non-square image
        SweepParam{32, 32, 4, 16, 1},   // bigger signature
        SweepParam{32, 32, 8, 16, 4},   // s == omega/2
        SweepParam{32, 32, 16, 16, 8},  // s == omega (full transform)
        SweepParam{64, 64, 2, 64, 16},  // large step
        SweepParam{40, 24, 2, 8, 1},    // non-power-of-two image dims
        SweepParam{24, 40, 1, 16, 2})); // s == 1: window averages only

TEST(SlidingWindow, SignatureMatchesDownsampledWindowTransform) {
  // A 2x2 signature of any window is exactly the Haar transform of the
  // window averaged down to 2x2 -- the scale-invariance anchor.
  int width = 32;
  int height = 32;
  std::vector<float> plane = RandomPlane(width, height, 321);
  WindowSignatureGrid grid =
      ComputeSlidingWindowSignaturesAt(plane, width, height, 2, 8, 4);
  for (int iy = 0; iy < grid.ny; ++iy) {
    for (int ix = 0; ix < grid.nx; ++ix) {
      int x0 = grid.RootX(ix);
      int y0 = grid.RootY(iy);
      // Average the four 4x4 quadrants of the 8x8 window.
      SquareMatrix down(2);
      for (int qy = 0; qy < 2; ++qy) {
        for (int qx = 0; qx < 2; ++qx) {
          double sum = 0.0;
          for (int dy = 0; dy < 4; ++dy) {
            for (int dx = 0; dx < 4; ++dx) {
              sum += plane[(y0 + qy * 4 + dy) * width + x0 + qx * 4 + dx];
            }
          }
          down.At(qx, qy) = static_cast<float>(sum / 16.0);
        }
      }
      SquareMatrix expected = HaarNonStandard2D(down);
      const float* sig = grid.SigAt(ix, iy);
      EXPECT_NEAR(sig[0], expected.At(0, 0), 1e-4f);
      EXPECT_NEAR(sig[1], expected.At(1, 0), 1e-4f);
      EXPECT_NEAR(sig[2], expected.At(0, 1), 1e-4f);
      EXPECT_NEAR(sig[3], expected.At(1, 1), 1e-4f);
    }
  }
}

TEST(SlidingWindow, ScaledObjectKeepsSignature) {
  // A window over a 2x-upscaled pattern has the same 2x2 signature as the
  // original window over the pattern: exactly the paper's scaling claim.
  const int n = 8;
  Rng rng(9);
  std::vector<float> small(n * n);
  for (float& v : small) v = rng.NextFloat();

  // 2x nearest upscale.
  const int big_n = 2 * n;
  std::vector<float> big(big_n * big_n);
  for (int y = 0; y < big_n; ++y) {
    for (int x = 0; x < big_n; ++x) {
      big[y * big_n + x] = small[(y / 2) * n + x / 2];
    }
  }

  WindowSignatureGrid small_grid =
      ComputeSlidingWindowSignaturesAt(small, n, n, 2, n, n);
  WindowSignatureGrid big_grid =
      ComputeSlidingWindowSignaturesAt(big, big_n, big_n, 2, big_n, big_n);
  ASSERT_EQ(small_grid.WindowCount(), 1);
  ASSERT_EQ(big_grid.WindowCount(), 1);
  for (int k = 0; k < 4; ++k) {
    EXPECT_NEAR(small_grid.SigAt(0, 0)[k], big_grid.SigAt(0, 0)[k], 1e-4f);
  }
}

void ExpectGridsBitEqual(const WindowSignatureGrid& a,
                         const WindowSignatureGrid& b) {
  ASSERT_EQ(a.window_size, b.window_size);
  ASSERT_EQ(a.step, b.step);
  ASSERT_EQ(a.nx, b.nx);
  ASSERT_EQ(a.ny, b.ny);
  ASSERT_EQ(a.sig_n, b.sig_n);
  ASSERT_EQ(a.data.size(), b.data.size());
  for (size_t i = 0; i < a.data.size(); ++i) {
    // Bitwise: signed zeros and every rounding must agree.
    ASSERT_EQ(std::bit_cast<uint32_t>(a.data[i]),
              std::bit_cast<uint32_t>(b.data[i]))
        << "float " << i << " of window size " << a.window_size;
  }
}

struct ReducedLevelParam {
  int width;
  int height;
  int omega_min;
  int omega_max;
};

class ReducedScaffolding
    : public ::testing::TestWithParam<ReducedLevelParam> {};

TEST_P(ReducedScaffolding, KeptLevelsBitEqualTheFullSweep) {
  // Levels below omega_min keep only the block the next level reads; every
  // level from omega_min up must come out bit for bit as in the full sweep
  // (omega_min == 2, every level at full min(omega, s) size), at every ISA
  // level.
  const ReducedLevelParam p = GetParam();
  std::vector<float> plane = RandomPlane(p.width, p.height, 77 + p.width);
  // Exact zeros and negative values exercise signed-zero and sign handling.
  for (size_t i = 0; i < plane.size(); i += 7) plane[i] = 0.0f;
  for (size_t i = 3; i < plane.size(); i += 11) plane[i] = -plane[i];
  for (int l = 0; l <= static_cast<int>(simd::MaxSupportedIsa()); ++l) {
    simd::TestOnlySetIsa(static_cast<simd::IsaLevel>(l));
    const std::string isa = simd::IsaName(static_cast<simd::IsaLevel>(l));
    for (int s : {1, 2, 4, 8}) {
      if (s > p.omega_max) continue;
      for (int t : {1, 2, 4, 8}) {
        SCOPED_TRACE("isa=" + isa + " s=" + std::to_string(s) +
                     " t=" + std::to_string(t));
        std::vector<WindowSignatureGrid> full = ComputeSlidingWindowSignatures(
            plane, p.width, p.height, s, 2, p.omega_max, t);
        std::vector<WindowSignatureGrid> kept = ComputeSlidingWindowSignatures(
            plane, p.width, p.height, s, p.omega_min, p.omega_max, t);
        const size_t skipped = full.size() - kept.size();
        ASSERT_EQ(full[skipped].window_size, p.omega_min);
        for (size_t k = 0; k < kept.size(); ++k) {
          ExpectGridsBitEqual(kept[k], full[skipped + k]);
        }
        ExpectGridsBitEqual(
            ComputeSlidingWindowSignaturesAt(plane, p.width, p.height, s,
                                             p.omega_max, t),
            full.back());
      }
    }
  }
  simd::TestOnlyResetIsa();
}

INSTANTIATE_TEST_SUITE_P(
    Levels, ReducedScaffolding,
    ::testing::Values(ReducedLevelParam{32, 32, 2, 32},   // nothing reduced
                      ReducedLevelParam{40, 24, 8, 16},   // non-square, npot
                      ReducedLevelParam{37, 45, 16, 16},  // odd sides
                      ReducedLevelParam{70, 66, 4, 64},   // omega_min < max
                      ReducedLevelParam{64, 64, 64, 64}));

TEST(SlidingWindow, ReturnsOnlyLevelsFromOmegaMin) {
  std::vector<float> plane = RandomPlane(64, 32, 56);
  std::vector<WindowSignatureGrid> levels =
      ComputeSlidingWindowSignatures(plane, 64, 32, 4, 8, 32, 4);
  ASSERT_EQ(levels.size(), 3u);
  EXPECT_EQ(levels[0].window_size, 8);
  EXPECT_EQ(levels[0].sig_n, 4);
  EXPECT_EQ(levels[2].window_size, 32);
}

TEST(SlidingWindow, LevelsCoverAllPowersOfTwo) {
  std::vector<float> plane = RandomPlane(64, 32, 55);
  std::vector<WindowSignatureGrid> levels =
      ComputeSlidingWindowSignatures(plane, 64, 32, 2, 2, 16, 4);
  ASSERT_EQ(levels.size(), 4u);
  int expected_size = 2;
  for (const WindowSignatureGrid& grid : levels) {
    EXPECT_EQ(grid.window_size, expected_size);
    EXPECT_EQ(grid.step, std::min(expected_size, 4));
    EXPECT_EQ(grid.nx, (64 - expected_size) / grid.step + 1);
    EXPECT_EQ(grid.ny, (32 - expected_size) / grid.step + 1);
    expected_size *= 2;
  }
}

}  // namespace
}  // namespace walrus
