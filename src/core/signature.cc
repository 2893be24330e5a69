#include "core/signature.h"

#include <algorithm>

#include "common/math_util.h"
#include "common/status.h"
#include "image/color.h"
#include "wavelet/sliding_window.h"

#include "common/check.h"

namespace walrus {

void WriteNormalizedBlock(const float* raw_block, int s, float* out) {
  WALRUS_DCHECK(IsPowerOfTwo(static_cast<uint32_t>(s)));
  std::copy(raw_block, raw_block + static_cast<size_t>(s) * s, out);
  // Detail quadrants of side m are scaled by 1/m (see
  // HaarNormalizeNonStandard); the average (0,0) is untouched.
  for (int m = 1; m < s; m *= 2) {
    float inv = 1.0f / static_cast<float>(m);
    for (int j = 0; j < m; ++j) {
      float* row_top = out + static_cast<size_t>(j) * s;
      float* row_bottom = out + static_cast<size_t>(m + j) * s;
      for (int i = 0; i < m; ++i) {
        row_top[m + i] *= inv;     // horizontal quadrant
        row_bottom[i] *= inv;      // vertical quadrant
        row_bottom[m + i] *= inv;  // diagonal quadrant
      }
    }
  }
}

Result<WindowSignatureSet> ComputeWindowSignatures(
    const ImageF& image, const WalrusParams& params) {
  WALRUS_RETURN_IF_ERROR(params.Validate());
  if (image.empty()) return Status::InvalidArgument("empty image");
  WALRUS_ASSIGN_OR_RETURN(ImageF converted,
                          ConvertColorSpace(image, params.color_space));
  const int channels = params.Channels();
  WALRUS_CHECK_EQ(converted.channels(), channels);

  if (converted.width() < params.min_window ||
      converted.height() < params.min_window) {
    return Status::InvalidArgument(
        "image smaller than min_window: " + std::to_string(converted.width()) +
        "x" + std::to_string(converted.height()));
  }
  int max_window = std::min<int>(
      params.max_window,
      NextPowerOfTwo(static_cast<uint32_t>(
          std::min(converted.width(), converted.height()))));
  while (max_window > std::min(converted.width(), converted.height())) {
    max_window /= 2;
  }
  WALRUS_CHECK_GE(max_window, params.min_window);

  const int s = params.signature_size;

  // Per-channel DP sweep over [min_window, max_window]; smaller levels are
  // scaffolding inside the sweep.
  std::vector<std::vector<WindowSignatureGrid>> per_channel;
  per_channel.reserve(channels);
  for (int c = 0; c < channels; ++c) {
    per_channel.push_back(ComputeSlidingWindowSignatures(
        converted.Plane(c), converted.width(), converted.height(), s,
        params.min_window, max_window, params.slide_step));
  }

  WindowSignatureSet set;
  set.dim = params.SignatureDim();
  size_t window_count = 0;
  for (const WindowSignatureGrid& grid : per_channel[0]) {
    window_count += static_cast<size_t>(grid.WindowCount());
  }
  set.windows.reserve(window_count);
  set.signatures.resize(window_count * static_cast<size_t>(set.dim));
  const size_t block = static_cast<size_t>(s) * s;
  float* out = set.signatures.data();
  for (size_t level = 0; level < per_channel[0].size(); ++level) {
    const WindowSignatureGrid& grid0 = per_channel[0][level];
    WALRUS_CHECK_EQ(grid0.sig_n, s);
    for (int iy = 0; iy < grid0.ny; ++iy) {
      for (int ix = 0; ix < grid0.nx; ++ix) {
        set.windows.push_back(
            {grid0.RootX(ix), grid0.RootY(iy), grid0.window_size});
        for (int c = 0; c < channels; ++c) {
          WriteNormalizedBlock(per_channel[c][level].SigAt(ix, iy), s, out);
          out += block;
        }
      }
    }
  }
  WALRUS_CHECK_EQ(set.signatures.size(),
                  set.windows.size() * static_cast<size_t>(set.dim));
  return set;
}

}  // namespace walrus
