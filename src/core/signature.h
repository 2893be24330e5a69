#ifndef WALRUS_CORE_SIGNATURE_H_
#define WALRUS_CORE_SIGNATURE_H_

#include <vector>

#include "core/params.h"
#include "image/image.h"

namespace walrus {

/// One sliding window and its multi-channel wavelet signature location.
struct WindowPlacement {
  int x = 0;
  int y = 0;
  int size = 0;
};

/// All sliding-window signatures of one image: windows of every size in
/// [min_window, max_window], each with a Channels()*s*s signature built from
/// the normalized s x s lowest-frequency band per channel (paper section
/// 5.1, "Generating Signatures for Sliding Windows").
struct WindowSignatureSet {
  int dim = 0;
  std::vector<WindowPlacement> windows;
  /// Flat row-major signatures: windows.size() * dim floats.
  std::vector<float> signatures;

  int Count() const { return static_cast<int>(windows.size()); }
  const float* SignatureAt(int i) const {
    return signatures.data() + static_cast<size_t>(i) * dim;
  }
};

/// Writes the raw s x s lowest-frequency block normalized (2-D rule: detail
/// quadrant of side m divided by m) to the s*s floats at `out`.
void WriteNormalizedBlock(const float* raw_block, int s, float* out);

/// Computes the window signature set of `image` (any color space; it is
/// converted to params.color_space first). Uses the dynamic-programming
/// sliding-window algorithm per channel. Images smaller than max_window in
/// either dimension only produce the window sizes that fit; an error is
/// returned when even min_window does not fit.
Result<WindowSignatureSet> ComputeWindowSignatures(const ImageF& image,
                                                   const WalrusParams& params);

}  // namespace walrus

#endif  // WALRUS_CORE_SIGNATURE_H_
