#ifndef WALRUS_WAVELET_SLIDING_WINDOW_H_
#define WALRUS_WAVELET_SLIDING_WINDOW_H_

#include <vector>

#include "wavelet/window_grid.h"

namespace walrus {

/// Dynamic-programming sliding-window wavelet signatures (paper section 5.2,
/// Figures 4 and 5). Signatures for omega x omega windows are assembled from
/// the stored signatures of their four omega/2 x omega/2 subwindows:
/// copyBlocks tiles the three detail quadrants, and the recursion bottoms
/// out by averaging/differencing the four subwindow averages. Total time is
/// O(N * S * log(omega_max)) for step 1, versus O(N * omega_max^2) naive.

/// Combines four subwindow signature matrices (row-major, side >= p/2,
/// stride `src_stride` floats per row) into the upper-left p x p block of
/// `out` (stride `out_stride`). This is procedure computeSingleWindow of
/// Figure 4: w1 = upper-left, w2 = upper-right, w3 = lower-left,
/// w4 = lower-right subwindow. p must be a power of two >= 2.
void ComputeSingleWindow(const float* w1, const float* w2, const float* w3,
                         const float* w4, int src_stride, float* out,
                         int out_stride, int p);

/// Procedure computeSlidingWindows of Figure 5: computes signature grids for
/// the window sizes omega = omega_min, 2*omega_min, ..., omega_max. Element
/// [k] of the result holds windows of size omega_min * 2^k. `s` bounds the
/// stored signature side (min(omega, s) is kept per window), `step` is the
/// slide distance t; s, step and both window bounds must be powers of two.
///
/// Levels 2 .. omega_min/2 are DP scaffolding: each stores only the
/// upper-left min(omega, s/2) block (at least one float) of its windows'
/// transforms, which is exactly what the next level reads (for s == 2 a
/// plane of window averages). The kept levels are bit-identical to a full
/// sweep with omega_min == 2 (DESIGN.md section 18).
std::vector<WindowSignatureGrid> ComputeSlidingWindowSignatures(
    const std::vector<float>& plane, int width, int height, int s,
    int omega_min, int omega_max, int step);

/// Convenience: the grid for `omega` alone (every smaller level is
/// scaffolding). Auxiliary space is one scaffolding level, with at most
/// (s/2)^2 floats per window of that level (one when s <= 2), a quarter of
/// the paper's S = s^2 per window.
WindowSignatureGrid ComputeSlidingWindowSignaturesAt(
    const std::vector<float>& plane, int width, int height, int s, int omega,
    int step);

}  // namespace walrus

#endif  // WALRUS_WAVELET_SLIDING_WINDOW_H_
