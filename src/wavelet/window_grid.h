#ifndef WALRUS_WAVELET_WINDOW_GRID_H_
#define WALRUS_WAVELET_WINDOW_GRID_H_

#include <vector>

#include "common/default_init_allocator.h"
#include "common/check.h"

namespace walrus {

/// Wavelet signatures for every sliding window of one size over one image
/// channel. Window (ix, iy) is rooted at pixel (ix*step, iy*step); its
/// stored signature is the upper-left sig_n x sig_n block of the window's
/// (unnormalized) non-standard Haar transform, row-major.
///
/// sig_n = min(window_size, s_store): windows smaller than the requested
/// signature side keep their complete transform. DP scaffolding levels
/// (ComputeSlidingWindowSignatures) store a smaller block.
struct WindowSignatureGrid {
  int window_size = 0;
  int step = 0;
  int nx = 0;
  int ny = 0;
  int sig_n = 0;
  /// Uninitialized on construction (every slot is written exactly once by
  /// the DP sweep); see DefaultInitAllocator.
  std::vector<float, DefaultInitAllocator<float>> data;

  WindowSignatureGrid() = default;
  WindowSignatureGrid(int window_size_in, int step_in, int nx_in, int ny_in,
                      int sig_n_in)
      : window_size(window_size_in),
        step(step_in),
        nx(nx_in),
        ny(ny_in),
        sig_n(sig_n_in),
        data(static_cast<size_t>(nx_in) * ny_in * sig_n_in * sig_n_in) {}

  int SigFloats() const { return sig_n * sig_n; }

  float* SigAt(int ix, int iy) {
    WALRUS_DCHECK(ix >= 0 && ix < nx && iy >= 0 && iy < ny);
    return data.data() +
           (static_cast<size_t>(iy) * nx + ix) * SigFloats();
  }
  const float* SigAt(int ix, int iy) const {
    WALRUS_DCHECK(ix >= 0 && ix < nx && iy >= 0 && iy < ny);
    return data.data() +
           (static_cast<size_t>(iy) * nx + ix) * SigFloats();
  }

  /// Pixel coordinates of the window root for grid index (ix, iy).
  int RootX(int ix) const { return ix * step; }
  int RootY(int iy) const { return iy * step; }

  int64_t WindowCount() const { return static_cast<int64_t>(nx) * ny; }
};

}  // namespace walrus

#endif  // WALRUS_WAVELET_WINDOW_GRID_H_
