#include "core/signature_filter.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/simd.h"
#include "core/index.h"

namespace walrus {

uint64_t SignatureWord(float x) {
  const double level_real =
      std::floor((static_cast<double>(x) - kSignatureQMin) / kSignatureDelta);
  const int level = static_cast<int>(std::clamp(
      level_real, 0.0, static_cast<double>(kSignatureLevels - 1)));
  return level == 0 ? 0 : (~uint64_t{0} >> (64 - level));
}

void ComputeSignature(const float* centroid, int dim, uint64_t* out) {
  for (int i = 0; i < dim; ++i) out[i] = SignatureWord(centroid[i]);
}

std::vector<uint64_t> ComputeSignature(const std::vector<float>& centroid) {
  std::vector<uint64_t> words(centroid.size());
  ComputeSignature(centroid.data(), static_cast<int>(centroid.size()),
                   words.data());
  return words;
}

uint32_t SignaturePruneThreshold(double eps2) {
  // Smallest integer whose lower bound delta^2 * lb_int strictly exceeds
  // eps2, nudged up by a relative margin so the bound stays conservative
  // against its own rounding. delta = 5 * 2^-8 keeps delta^2 exact.
  // Saturates instead of casting out of range: a NaN or huge eps2 proves
  // nothing, so the threshold becomes unreachable (prune nothing); a
  // negative one is exceeded by every bound.
  const double scaled =
      eps2 * (1.0 + 1e-9) / (kSignatureDelta * kSignatureDelta);
  constexpr uint32_t kNever = std::numeric_limits<uint32_t>::max();
  if (std::isnan(scaled) || scaled >= static_cast<double>(kNever - 1)) {
    return kNever;
  }
  if (scaled < 0.0) return 0;
  return static_cast<uint32_t>(std::floor(scaled)) + 1;
}

void SignatureStore::Clear() {
  dim_ = 0;
  words_.clear();
  centroids_.clear();
  direct_.clear();
  direct_live_ = 0;
  by_id_.clear();
}

int64_t SignatureStore::FindBase(uint64_t image_id) const {
  if (image_id < kDirectLimit) {
    return image_id < direct_.size() ? direct_[image_id] : -1;
  }
  const auto it = by_id_.find(image_id);
  return it == by_id_.end() ? -1 : it->second;
}

void SignatureStore::AddImage(const ImageRecord& record) {
  if (dim_ == 0 && !record.regions.empty()) {
    dim_ = static_cast<int>(record.regions[0].centroid.size());
    WALRUS_CHECK(dim_ > 0);
  }
  const size_t n = record.regions.size();
  const int64_t base =
      dim_ > 0 ? static_cast<int64_t>(words_.size() / dim_) : 0;
  words_.resize((base + n) * static_cast<size_t>(dim_));
  centroids_.resize((base + n) * static_cast<size_t>(dim_));
  for (const RegionRecord& region : record.regions) {
    WALRUS_CHECK(region.region_id < n);  // dense region ids
    WALRUS_CHECK_EQ(static_cast<int>(region.centroid.size()), dim_);
    const size_t slot = static_cast<size_t>(base) + region.region_id;
    uint64_t* words = &words_[slot * dim_];
    if (!region.signature.empty()) {
      WALRUS_CHECK_EQ(static_cast<int>(region.signature.size()), dim_);
      std::copy(region.signature.begin(), region.signature.end(), words);
    } else {
      ComputeSignature(region.centroid.data(), dim_, words);
    }
    std::copy(region.centroid.begin(), region.centroid.end(),
              &centroids_[slot * dim_]);
  }
  if (record.image_id < kDirectLimit) {
    if (record.image_id >= direct_.size()) {
      direct_.resize(record.image_id + 1, -1);
    }
    WALRUS_CHECK(direct_[record.image_id] < 0);
    direct_[record.image_id] = base;
    ++direct_live_;
  } else {
    WALRUS_CHECK(by_id_.emplace(record.image_id, base).second);
  }
}

void SignatureStore::RemoveImage(uint64_t image_id) {
  if (image_id < kDirectLimit) {
    if (image_id < direct_.size() && direct_[image_id] >= 0) {
      direct_[image_id] = -1;
      --direct_live_;
    }
    return;
  }
  by_id_.erase(image_id);
}

void SignatureStore::Rebuild(const Catalog& catalog) {
  Clear();
  for (const ImageRecord& record : catalog.images()) AddImage(record);
}

const uint64_t* SignatureStore::SignatureRow(uint64_t image_id,
                                             uint32_t region_id) const {
  const int64_t base = FindBase(image_id);
  if (base < 0) return nullptr;
  return &words_[(static_cast<size_t>(base) + region_id) * dim_];
}

size_t SignatureStore::FilterCandidates(
    const std::vector<float>& query_centroid, double eps2,
    std::vector<uint64_t>* payloads, SignatureFilterScratch* scratch,
    SignatureFilterCounters* counters) const {
  const size_t n = payloads->size();
  counters->candidates_in += static_cast<int64_t>(n);
  if (n == 0) return 0;
  const int dim = dim_;
  WALRUS_CHECK(dim > 0);
  WALRUS_CHECK_EQ(static_cast<int>(query_centroid.size()), dim);
  const simd::KernelTable& kern = simd::Active();

  scratch->query_words.resize(dim);
  ComputeSignature(query_centroid.data(), dim, scratch->query_words.data());

  // Gather the candidates' signature rows into SoA word planes.
  scratch->slots.resize(n);
  scratch->packed.Reset(static_cast<int>(n), dim);
  for (size_t i = 0; i < n; ++i) {
    uint64_t image_id;
    uint32_t region_id;
    DecodeRegionPayload((*payloads)[i], &image_id, &region_id);
    const int64_t base = FindBase(image_id);
    WALRUS_CHECK(base >= 0);  // the store shadows the catalog exactly
    const uint32_t slot = static_cast<uint32_t>(base) + region_id;
    scratch->slots[i] = slot;
    scratch->packed.SetRow(static_cast<int>(i),
                           &words_[static_cast<size_t>(slot) * dim]);
  }

  // Tier 1: admissible Hamming prune. Surviving lb < prune_min candidates
  // are NOT accepted yet -- only proven-far ones are dropped.
  scratch->lb.resize(n);
  kern.batch_signature_lb(scratch->packed.planes(), scratch->packed.stride(),
                          dim, static_cast<int>(n),
                          scratch->query_words.data(), scratch->lb.data());
  const uint32_t prune_min = SignaturePruneThreshold(eps2);
  size_t survivors = 0;
  for (size_t i = 0; i < n; ++i) {
    if (scratch->lb[i] < prune_min) {
      scratch->slots[survivors] = scratch->slots[i];
      (*payloads)[survivors] = (*payloads)[i];
      ++survivors;
    }
  }
  counters->hamming_pruned += static_cast<int64_t>(n - survivors);

  // Tier 2: exact verification of the survivors, batched over store-row
  // centroids (bitwise equal to the tree rects the inline test reads).
  scratch->centroid_soa.resize(survivors * static_cast<size_t>(dim));
  for (size_t i = 0; i < survivors; ++i) {
    const float* row =
        &centroids_[static_cast<size_t>(scratch->slots[i]) * dim];
    for (int k = 0; k < dim; ++k) {
      scratch->centroid_soa[static_cast<size_t>(k) * survivors + i] = row[k];
    }
  }
  scratch->d2.resize(survivors);
  if (survivors > 0) {
    kern.batch_squared_l2(scratch->centroid_soa.data(),
                          static_cast<int>(survivors), dim,
                          static_cast<int>(survivors), query_centroid.data(),
                          scratch->d2.data());
  }
  size_t out = 0;
  for (size_t i = 0; i < survivors; ++i) {
    if (!(scratch->d2[i] > eps2)) (*payloads)[out++] = (*payloads)[i];
  }
  payloads->resize(out);
  counters->verified_out += static_cast<int64_t>(out);
  return out;
}

}  // namespace walrus
