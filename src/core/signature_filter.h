#ifndef WALRUS_CORE_SIGNATURE_FILTER_H_
#define WALRUS_CORE_SIGNATURE_FILTER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/packed_store.h"
#include "storage/catalog.h"

namespace walrus {

/// Admissible binary-signature prefilter tier (DESIGN.md section 16).
///
/// Each region's centroid signature is quantized, per dimension, into a
/// 64-level thermometer code: level L maps to a 64-bit word whose low L
/// bits are set. With exactly one word per dimension, the per-word Hamming
/// distance between two signatures IS the level distance |Lq - Lt| of that
/// dimension, and because two values in the same or adjacent levels can be
/// arbitrarily close while values h levels apart differ by more than
/// (h - 1) * delta, the integer
///
///   lb_int = sum over dims of max(0, hamming(word) - 1)^2
///
/// satisfies lb_int * delta^2 <= ||q - t||^2 (clamping at the range ends
/// only understates level distances, so the bound survives out-of-range
/// coefficients). A candidate is pruned only when that lower bound strictly
/// exceeds epsilon^2, which the exact test would reject anyway -- the tier
/// never changes the surviving candidate set, so retrieval output stays
/// bit-identical with the filter on or off (enforced by the golden suite).
///
/// Constants: the quantizer range [-0.25, 1.0] brackets the observed
/// centroid coefficient range of the Table 1 workload ([-0.202, 0.805])
/// with margin; delta = 1.25/64 = 5 * 2^-8 is exactly representable, so
/// delta^2 and the integer prune threshold are exact in double.
inline constexpr int kSignatureLevels = 64;
inline constexpr float kSignatureQMin = -0.25f;
inline constexpr double kSignatureDelta = 1.25 / kSignatureLevels;

/// Thermometer word for one centroid coefficient.
uint64_t SignatureWord(float x);

/// Quantizes a centroid into its signature: one word per dimension.
void ComputeSignature(const float* centroid, int dim, uint64_t* out);
std::vector<uint64_t> ComputeSignature(const std::vector<float>& centroid);

/// Smallest lb_int value that admissibly proves distance^2 > eps2:
/// prune iff lb_int >= SignaturePruneThreshold(eps2). The tiny relative
/// margin keeps the threshold conservative against the rounding of
/// delta^2 * lb_int, so a prune decision never outruns the exact test.
/// Saturates: UINT32_MAX (prune nothing) for NaN or huge eps2, 0 for
/// negative eps2.
uint32_t SignaturePruneThreshold(double eps2);

/// Per-call counters of one filter pass (aggregated into QueryStats and the
/// walrus.prefilter.* metrics).
struct SignatureFilterCounters {
  int64_t candidates_in = 0;   // envelope hits entering the tier
  int64_t hamming_pruned = 0;  // rejected by the signature lower bound
  int64_t verified_out = 0;    // exact-verified survivors leaving the tier
};

/// Reusable scratch so per-probe filter batches do not reallocate.
struct SignatureFilterScratch {
  std::vector<uint64_t> query_words;
  std::vector<uint32_t> slots;
  std::vector<uint32_t> lb;
  PackedBitSignatures packed;
  std::vector<float> centroid_soa;
  std::vector<double> d2;
};

/// The resident signature tier of one WalrusIndex: an AoS slot per region
/// (its thermometer words plus a copy of its centroid floats, so the
/// surviving-candidate verification runs off contiguous store rows instead
/// of re-touching tree pages). Slots of one image are contiguous at a base
/// offset and addressed by the image's dense region ids; image bases
/// resolve through a direct-indexed table for small ids with a hash-map
/// spill for sparse ones.
///
/// Not internally synchronized: same external synchronization contract as
/// the WalrusIndex that owns it (see CONCURRENCY contracts in index.h).
class SignatureStore {
 public:
  SignatureStore() = default;

  /// Signature dimensionality (words per region); 0 until first add.
  int dim() const { return dim_; }
  size_t image_count() const {
    return direct_live_ + by_id_.size();
  }

  void Clear();

  /// Appends one image's regions. Region ids must be dense [0, n). Uses the
  /// persisted record.signature words when present (offline and WAL-replay
  /// paths), else recomputes from the centroid (legacy catalogs) -- both
  /// agree because the signature is a pure function of the centroid.
  void AddImage(const ImageRecord& record);

  /// Drops an image's base entry. Its slots become unreachable garbage
  /// until the next Rebuild (live-ingest churn is bounded by WAL
  /// compaction, which rebuilds the owning index wholesale).
  void RemoveImage(uint64_t image_id);

  /// Rebuilds from a full catalog (index open / bulk load).
  void Rebuild(const Catalog& catalog);

  /// Slot row of (image, region), or nullptr when the image is unknown.
  /// The row holds dim() signature words; centroid floats are at
  /// CentroidRow of the same slot.
  const uint64_t* SignatureRow(uint64_t image_id, uint32_t region_id) const;

  /// The tier itself: compacts `payloads` (raw epsilon-envelope hits of one
  /// query region, encoded with EncodeRegionPayload) down to the exact
  /// survivors, i.e. candidates whose centroid distance^2 to
  /// `query_centroid` is <= eps2. Hamming-prunes via batch_signature_lb
  /// first, then batch-verifies the remainder with batch_squared_l2 in the
  /// scalar reference order, so the surviving set -- and the floats any
  /// later stage sees -- match the unfiltered inline test bit for bit.
  /// Returns the new payload count; `counters` accumulates tier traffic.
  size_t FilterCandidates(const std::vector<float>& query_centroid,
                          double eps2, std::vector<uint64_t>* payloads,
                          SignatureFilterScratch* scratch,
                          SignatureFilterCounters* counters) const;

 private:
  int64_t FindBase(uint64_t image_id) const;

  int dim_ = 0;
  // Per-slot AoS planes: slot s holds words_[s*dim_ .. ) and
  // centroids_[s*dim_ .. ).
  std::vector<uint64_t> words_;
  std::vector<float> centroids_;
  // image_id -> base slot; direct table for ids < kDirectLimit, map spill.
  static constexpr uint64_t kDirectLimit = 1u << 20;
  std::vector<int64_t> direct_;  // -1 = absent
  size_t direct_live_ = 0;
  std::unordered_map<uint64_t, int64_t> by_id_;
};

}  // namespace walrus

#endif  // WALRUS_CORE_SIGNATURE_FILTER_H_
