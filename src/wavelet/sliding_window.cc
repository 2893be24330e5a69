#include "wavelet/sliding_window.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/math_util.h"

#include "common/check.h"
#include "common/metrics.h"
#include "common/simd.h"

namespace walrus {
namespace {

/// DP sliding-window metrics: how many window signatures the wavelet stage
/// produces (summed over all pyramid levels) and how many full plane
/// computations ran.
struct SlidingWindowMetrics {
  Counter* plane_computations;
  Counter* windows_computed;

  static const SlidingWindowMetrics& Get() {
    static const SlidingWindowMetrics metrics = [] {
      MetricsRegistry& registry = MetricsRegistry::Global();
      SlidingWindowMetrics m;
      m.plane_computations =
          registry.GetCounter("walrus.wavelet.plane_computations");
      m.windows_computed =
          registry.GetCounter("walrus.wavelet.windows_computed");
      return m;
    }();
    return metrics;
  }
};

/// copyBlocks (Figure 3): tiles the detail quadrants at size p/2 of the
/// target from the corresponding quadrants (at size p/4) of the four
/// subwindow transforms. q = p/4 is the tile side.
void CopyBlocks(const float* const srcs[4], int src_stride, float* out,
                int out_stride, int p) {
  int half = p / 2;
  int q = p / 4;
  // Tile offsets of subwindows 1..4 inside each target quadrant.
  const int off_x[4] = {0, q, 0, q};
  const int off_y[4] = {0, 0, q, q};
  for (int k = 0; k < 4; ++k) {
    const float* src = srcs[k];
    int ox = off_x[k];
    int oy = off_y[k];
    size_t row_bytes = static_cast<size_t>(q) * sizeof(float);
    for (int j = 0; j < q; ++j) {
      const float* src_ur = src + j * src_stride + q;        // x in [q, 2q)
      const float* src_ll = src + (q + j) * src_stride;      // y in [q, 2q)
      const float* src_lr = src + (q + j) * src_stride + q;  // both
      float* out_ur = out + (oy + j) * out_stride + half + ox;
      float* out_ll = out + (half + oy + j) * out_stride + ox;
      float* out_lr = out + (half + oy + j) * out_stride + half + ox;
      std::memcpy(out_ur, src_ur, row_bytes);
      std::memcpy(out_ll, src_ll, row_bytes);
      std::memcpy(out_lr, src_lr, row_bytes);
    }
  }
}

/// Window averages of one level whose stored block is a single float:
/// window (ix, iy) averages the four subwindow averages at src indices
/// (ix*step_idx + {0, half_idx}, iy*step_idx + {0, half_idx}) of a
/// `src_row`-wide plane (the image itself for omega == 2). Same expression
/// and order as the base case of ComputeSingleWindow, as a plain loop.
void ComputeAverageLevel(const float* src, int src_row, int step_idx,
                         int half_idx, int nx, int ny, float* out) {
  for (int iy = 0; iy < ny; ++iy) {
    const float* row0 = src + static_cast<size_t>(iy) * step_idx * src_row;
    const float* row1 = row0 + static_cast<size_t>(half_idx) * src_row;
    float* out_row = out + static_cast<size_t>(iy) * nx;
    for (int ix = 0; ix < nx; ++ix) {
      const int x = ix * step_idx;
      out_row[ix] =
          (row0[x] + row0[x + half_idx] + row1[x] + row1[x + half_idx]) / 4.0f;
    }
  }
}

/// Computes the grid for window size `omega` from the previous level's grid
/// (or the raw plane for omega == 2), storing the upper-left sig_n x sig_n
/// block of each window's transform. This is one iteration of the
/// outermost loop of Figure 5.
WindowSignatureGrid ComputeLevel(const std::vector<float>& plane, int width,
                                 int height, int sig_n, int omega, int step,
                                 const WindowSignatureGrid* prev) {
  int dist = std::min(omega, step);
  int nx = (width - omega) / dist + 1;
  int ny = (height - omega) / dist + 1;
  WindowSignatureGrid grid(omega, dist, nx, ny, sig_n);

  if (omega == 2) {
    if (sig_n == 1) {
      ComputeAverageLevel(plane.data(), width, dist, /*half_idx=*/1, nx, ny,
                          grid.data.data());
      return grid;
    }
    // Subwindows are single pixels: read the image plane directly. With
    // dist == 2 and sig_n == 2 a whole grid row is the vectorized Haar base
    // case: adjacent windows read disjoint pixel pairs and their 2x2
    // signature blocks are contiguous (WindowSignatureGrid::SigAt), so one
    // kernel call covers the row bit-identically to the scalar loop.
    const bool vectorizable = (dist == 2 && sig_n == 2);
    const simd::KernelTable& kern = simd::Active();
    for (int iy = 0; iy < ny; ++iy) {
      int y0 = iy * dist;
      const float* row0 = plane.data() + static_cast<size_t>(y0) * width;
      const float* row1 = row0 + width;
      if (vectorizable) {
        kern.haar_base_2x2(row0, row1, nx, grid.SigAt(0, iy));
        continue;
      }
      for (int ix = 0; ix < nx; ++ix) {
        int x0 = ix * dist;
        ComputeSingleWindow(row0 + x0, row0 + x0 + 1, row1 + x0,
                            row1 + x0 + 1, /*src_stride=*/0,
                            grid.SigAt(ix, iy), sig_n, /*p=*/2);
      }
    }
    return grid;
  }

  int half = omega / 2;
  WALRUS_CHECK(prev != nullptr);
  WALRUS_CHECK_EQ(prev->window_size, half);
  // Every needed subwindow root is a multiple of the previous step.
  WALRUS_CHECK_EQ(half % prev->step, 0);
  WALRUS_CHECK_EQ(dist % prev->step, 0);
  // The target block reads the upper-left sig_n/2 block (or the average)
  // of each subwindow.
  WALRUS_CHECK_GE(prev->sig_n, std::max(1, sig_n / 2));
  int half_idx = half / prev->step;
  int step_idx = dist / prev->step;
  if (sig_n == 1) {
    WALRUS_CHECK_EQ(prev->sig_n, 1);
    ComputeAverageLevel(prev->data.data(), prev->nx, step_idx, half_idx, nx,
                        ny, grid.data.data());
    return grid;
  }
  for (int iy = 0; iy < ny; ++iy) {
    int py = iy * step_idx;
    for (int ix = 0; ix < nx; ++ix) {
      int px = ix * step_idx;
      ComputeSingleWindow(prev->SigAt(px, py), prev->SigAt(px + half_idx, py),
                          prev->SigAt(px, py + half_idx),
                          prev->SigAt(px + half_idx, py + half_idx),
                          prev->sig_n, grid.SigAt(ix, iy), sig_n, sig_n);
    }
  }
  return grid;
}

/// Stored block side of level `omega`: min(omega, s) for kept levels; a
/// scaffolding level (omega < omega_min) keeps only the block the next
/// level reads, min(omega, s/2), or the bare average when s == 1.
int StoredSide(int omega, int s, int omega_min) {
  if (omega >= omega_min) return std::min(omega, s);
  return std::max(1, std::min(omega, s / 2));
}

void ValidateArgs(const std::vector<float>& plane, int width, int height,
                  int s, int omega_min, int omega_max, int step) {
  WALRUS_CHECK(IsPowerOfTwo(static_cast<uint32_t>(s)));
  WALRUS_CHECK(IsPowerOfTwo(static_cast<uint32_t>(omega_min)) &&
               omega_min >= 2);
  WALRUS_CHECK(IsPowerOfTwo(static_cast<uint32_t>(omega_max)) &&
               omega_max >= omega_min);
  WALRUS_CHECK(IsPowerOfTwo(static_cast<uint32_t>(step)));
  WALRUS_CHECK_EQ(static_cast<int>(plane.size()), width * height);
  WALRUS_CHECK(omega_max <= width && omega_max <= height);
}

}  // namespace

void ComputeSingleWindow(const float* w1, const float* w2, const float* w3,
                         const float* w4, int src_stride, float* out,
                         int out_stride, int p) {
  WALRUS_DCHECK(IsPowerOfTwo(static_cast<uint32_t>(p)) && p >= 2);
  const float* srcs[4] = {w1, w2, w3, w4};
  while (p > 2) {
    CopyBlocks(srcs, src_stride, out, out_stride, p);
    p /= 2;
  }
  // Base case: horizontal + vertical averaging/differencing of the four
  // subwindow overall averages (Figure 4, steps 2-5).
  float a1 = w1[0];
  float a2 = w2[0];
  float a3 = w3[0];
  float a4 = w4[0];
  out[0] = (a1 + a2 + a3 + a4) / 4.0f;
  out[1] = (-a1 + a2 - a3 + a4) / 4.0f;                  // horizontal detail
  out[out_stride] = (-a1 - a2 + a3 + a4) / 4.0f;         // vertical detail
  out[out_stride + 1] = (a1 - a2 - a3 + a4) / 4.0f;      // diagonal detail
}

std::vector<WindowSignatureGrid> ComputeSlidingWindowSignatures(
    const std::vector<float>& plane, int width, int height, int s,
    int omega_min, int omega_max, int step) {
  ValidateArgs(plane, width, height, s, omega_min, omega_max, step);
  std::vector<WindowSignatureGrid> levels;
  levels.reserve(Log2Floor(static_cast<uint32_t>(omega_max)) -
                 Log2Floor(static_cast<uint32_t>(omega_min)) + 1);
  // Only the latest scaffolding level is retained: the DP reads one level
  // back.
  WindowSignatureGrid scaffold;
  uint64_t windows = 0;
  for (int omega = 2; omega <= omega_max; omega *= 2) {
    const WindowSignatureGrid* prev = nullptr;
    if (omega > 2) prev = levels.empty() ? &scaffold : &levels.back();
    WindowSignatureGrid grid =
        ComputeLevel(plane, width, height, StoredSide(omega, s, omega_min),
                     omega, step, prev);
    windows += static_cast<uint64_t>(grid.WindowCount());
    if (omega < omega_min) {
      scaffold = std::move(grid);
    } else {
      levels.push_back(std::move(grid));
    }
  }
  const SlidingWindowMetrics& metrics = SlidingWindowMetrics::Get();
  metrics.plane_computations->Increment();
  metrics.windows_computed->Increment(windows);
  return levels;
}

WindowSignatureGrid ComputeSlidingWindowSignaturesAt(
    const std::vector<float>& plane, int width, int height, int s, int omega,
    int step) {
  return std::move(ComputeSlidingWindowSignatures(plane, width, height, s,
                                                  omega, omega, step)
                       .front());
}

}  // namespace walrus
