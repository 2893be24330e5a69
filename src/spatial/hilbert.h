#ifndef WALRUS_SPATIAL_HILBERT_H_
#define WALRUS_SPATIAL_HILBERT_H_

#include <cstdint>
#include <vector>

#include "spatial/rect.h"

namespace walrus {

/// Index of cell (x, y) along the order-`order` Hilbert curve over a
/// 2^order x 2^order grid (coordinates above the grid are clamped).
/// Batched multi-probe sorts query-region probes by this key so probes that
/// are near in signature space stay adjacent in the shared R*-tree
/// traversal's active sets (spatial/rstar_tree.h).
uint64_t HilbertIndex2D(uint32_t x, uint32_t y, int order);

/// Hilbert key for a probe rect center: quantizes the first two dimensions
/// of the center (cx, cy), each assumed roughly within [min_v, max_v], onto
/// a 2^16 grid. Signature dims beyond the first two contribute nothing --
/// the sort only needs locality, not a total spatial order.
uint64_t HilbertProbeKey(float cx, float cy, float min_v, float max_v);

/// Visit order of a batched multi-probe: the indices of the non-empty
/// `probes` (empty probes match nothing), stably sorted by the
/// HilbertProbeKey of their centers over the probes' joint center range
/// (dims >= 2; a 1-d batch keeps input order). Every non-empty probe must
/// have dimension `dim` (checked).
std::vector<int> HilbertProbeOrder(const std::vector<Rect>& probes, int dim);

}  // namespace walrus

#endif  // WALRUS_SPATIAL_HILBERT_H_
