#include "spatial/hilbert.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace walrus {

uint64_t HilbertIndex2D(uint32_t x, uint32_t y, int order) {
  if (order <= 0) return 0;
  if (order > 31) order = 31;
  const uint32_t n = uint32_t{1} << order;
  x = std::min(x, n - 1);
  y = std::min(y, n - 1);
  uint64_t d = 0;
  for (uint32_t s = n / 2; s > 0; s /= 2) {
    const uint32_t rx = (x & s) ? 1 : 0;
    const uint32_t ry = (y & s) ? 1 : 0;
    d += static_cast<uint64_t>(s) * s * ((3 * rx) ^ ry);
    // Rotate the quadrant so the curve stays continuous.
    if (ry == 0) {
      if (rx == 1) {
        x = s - 1 - x;
        y = s - 1 - y;
      }
      std::swap(x, y);
    }
  }
  return d;
}

uint64_t HilbertProbeKey(float cx, float cy, float min_v, float max_v) {
  const float range = max_v - min_v;
  const float scale = range > 0.0f ? 65535.0f / range : 0.0f;
  const auto quantize = [&](float v) -> uint32_t {
    float q = (v - min_v) * scale;
    if (!(q > 0.0f)) q = 0.0f;          // also catches NaN
    if (q > 65535.0f) q = 65535.0f;
    return static_cast<uint32_t>(q);
  };
  return HilbertIndex2D(quantize(cx), quantize(cy), 16);
}

std::vector<int> HilbertProbeOrder(const std::vector<Rect>& probes, int dim) {
  std::vector<int> order;
  order.reserve(probes.size());
  for (int p = 0; p < static_cast<int>(probes.size()); ++p) {
    if (probes[p].IsEmpty()) continue;
    WALRUS_CHECK_EQ(probes[p].dim(), dim);
    order.push_back(p);
  }
  if (order.size() <= 1 || dim < 2) return order;
  float min_v = std::numeric_limits<float>::max();
  float max_v = std::numeric_limits<float>::lowest();
  for (int p : order) {
    for (int d = 0; d < 2; ++d) {
      const float c = 0.5f * (probes[p].lo(d) + probes[p].hi(d));
      min_v = std::min(min_v, c);
      max_v = std::max(max_v, c);
    }
  }
  std::vector<uint64_t> keys(probes.size());
  for (int p : order) {
    keys[p] = HilbertProbeKey(0.5f * (probes[p].lo(0) + probes[p].hi(0)),
                              0.5f * (probes[p].lo(1) + probes[p].hi(1)),
                              min_v, max_v);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&keys](int a, int b) { return keys[a] < keys[b]; });
  return order;
}

}  // namespace walrus
