// The admissibility contract of the binary-signature prefilter
// (core/signature_filter.h, DESIGN.md section 16): the Hamming-derived
// lower bound never exceeds the true squared L2 distance, so pruning on it
// can only discard candidates the exact epsilon test would reject — the
// filtered candidate set is IDENTICAL to the brute-force one, bit for bit.

#include "core/signature_filter.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/simd.h"
#include "core/index.h"
#include "storage/catalog.h"

namespace walrus {
namespace {

std::vector<float> RandomCentroid(Rng* rng, int dim) {
  std::vector<float> c(dim);
  for (float& x : c) {
    // Mostly in the quantizer's native range, with occasional outliers to
    // exercise the clamped extreme levels.
    x = rng->NextBernoulli(0.05)
            ? static_cast<float>(rng->NextDouble(-2.0, 3.0))
            : static_cast<float>(rng->NextDouble(-0.25, 1.0));
  }
  return c;
}

double SquaredL2(const std::vector<float>& a, const std::vector<float>& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = static_cast<double>(a[i]) - b[i];
    sum += d * d;
  }
  return sum;
}

TEST(SignatureQuantizer, ThermometerWordsAreMonotone) {
  // Raising x can only set more bits: word(x1) is a submask of word(x2)
  // whenever x1 <= x2. That containment is what makes the per-dim Hamming
  // distance equal the level difference.
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    float x1 = static_cast<float>(rng.NextDouble(-1.0, 2.0));
    float x2 = static_cast<float>(rng.NextDouble(-1.0, 2.0));
    if (x1 > x2) std::swap(x1, x2);
    uint64_t w1 = SignatureWord(x1);
    uint64_t w2 = SignatureWord(x2);
    EXPECT_EQ(w1 & w2, w1) << "x1=" << x1 << " x2=" << x2;
  }
  EXPECT_EQ(SignatureWord(kSignatureQMin - 1.0f), 0u);
  EXPECT_EQ(SignatureWord(kSignatureQMin), 0u);
  // Top level is kSignatureLevels - 1 = 63: the fullest word carries 63
  // set bits (level L sets L bits, so 64 levels fit one u64).
  EXPECT_EQ(SignatureWord(2.0f), ~uint64_t{0} >> 1);
}

TEST(SignatureQuantizer, HammingEqualsLevelDifference) {
  // Two thermometer words differ in exactly |level(a) - level(b)| bits.
  Rng rng(32);
  const simd::KernelTable& k = simd::Kernels(simd::IsaLevel::kScalar);
  for (int i = 0; i < 1000; ++i) {
    float a = static_cast<float>(rng.NextDouble(-0.5, 1.5));
    float b = static_cast<float>(rng.NextDouble(-0.5, 1.5));
    uint64_t wa = SignatureWord(a);
    uint64_t wb = SignatureWord(b);
    int la = static_cast<int>(k.popcount64(wa));
    int lb = static_cast<int>(k.popcount64(wb));
    EXPECT_EQ(static_cast<int>(k.popcount64(wa ^ wb)), std::abs(la - lb));
  }
}

// The property the whole tier rests on: LB^2 <= true squared distance, for
// randomized centroid pairs including out-of-range (clamped) coordinates.
TEST(SignatureAdmissibility, LowerBoundNeverExceedsTrueDistance) {
  Rng rng(33);
  const simd::KernelTable& k = simd::Kernels(simd::IsaLevel::kScalar);
  const double delta2 = kSignatureDelta * kSignatureDelta;
  for (int dim : {1, 3, 12, 27}) {
    for (int trial = 0; trial < 2000; ++trial) {
      std::vector<float> a = RandomCentroid(&rng, dim);
      std::vector<float> b = RandomCentroid(&rng, dim);
      std::vector<uint64_t> sa = ComputeSignature(a);
      std::vector<uint64_t> sb = ComputeSignature(b);
      uint64_t lb_int = 0;
      for (int d = 0; d < dim; ++d) {
        uint32_t h = k.popcount64(sa[d] ^ sb[d]);
        uint64_t excess = h > 1 ? h - 1 : 0;
        lb_int += excess * excess;
      }
      double lb2 = delta2 * static_cast<double>(lb_int);
      double d2 = SquaredL2(a, b);
      // Exact float comparison: admissibility is not approximate.
      ASSERT_LE(lb2, d2) << "dim=" << dim << " trial=" << trial;
    }
  }
}

// Out-of-range eps2 saturates instead of hitting an undefined double ->
// uint32_t cast: NaN or huge prunes nothing, negative prunes everything.
TEST(SignatureAdmissibility, PruneThresholdSaturates) {
  constexpr uint32_t kNever = std::numeric_limits<uint32_t>::max();
  EXPECT_EQ(SignaturePruneThreshold(std::nan("")), kNever);
  EXPECT_EQ(SignaturePruneThreshold(std::numeric_limits<double>::infinity()),
            kNever);
  EXPECT_EQ(SignaturePruneThreshold(1e300), kNever);
  EXPECT_EQ(SignaturePruneThreshold(1280.0 * 1280.0), kNever);
  EXPECT_EQ(SignaturePruneThreshold(-1.0), 0u);
  EXPECT_EQ(SignaturePruneThreshold(-std::numeric_limits<double>::infinity()),
            0u);
  EXPECT_EQ(SignaturePruneThreshold(0.0), 1u);
  // In range the formula is unchanged and monotone.
  EXPECT_LT(SignaturePruneThreshold(0.085 * 0.085),
            SignaturePruneThreshold(1.0));
  EXPECT_LT(SignaturePruneThreshold(1000.0 * 1000.0), kNever);
}

// Integer-threshold consistency: crossing SignaturePruneThreshold(eps2)
// implies the exact distance exceeds eps2 — a prune is never wrong.
TEST(SignatureAdmissibility, PruneThresholdImpliesExactRejection) {
  Rng rng(34);
  const simd::KernelTable& k = simd::Kernels(simd::IsaLevel::kScalar);
  int prunes = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    const int dim = 12;
    float eps = static_cast<float>(rng.NextDouble(0.01, 0.3));
    double eps2 = static_cast<double>(eps) * eps;
    uint32_t prune_min = SignaturePruneThreshold(eps2);
    std::vector<float> a = RandomCentroid(&rng, dim);
    std::vector<float> b = a;
    // Perturb so many pairs land near the epsilon boundary.
    for (float& x : b) {
      x += static_cast<float>(rng.NextGaussian()) * eps * 0.6f;
    }
    std::vector<uint64_t> sa = ComputeSignature(a);
    std::vector<uint64_t> sb = ComputeSignature(b);
    uint64_t lb_int = 0;
    for (int d = 0; d < dim; ++d) {
      uint32_t h = k.popcount64(sa[d] ^ sb[d]);
      uint64_t excess = h > 1 ? h - 1 : 0;
      lb_int += excess * excess;
    }
    if (lb_int >= prune_min) {
      ++prunes;
      ASSERT_GT(SquaredL2(a, b), eps2)
          << "trial=" << trial << " eps=" << eps << " lb_int=" << lb_int
          << " prune_min=" << prune_min;
    }
  }
  // The test must actually exercise prunes to mean anything.
  EXPECT_GT(prunes, 100);
}

// ---- SignatureStore: bookkeeping + the filter itself --------------------

ImageRecord MakeImage(Rng* rng, uint64_t image_id, int regions, int dim) {
  ImageRecord rec;
  rec.image_id = image_id;
  rec.width = 64;
  rec.height = 64;
  for (int r = 0; r < regions; ++r) {
    RegionRecord region;
    region.region_id = static_cast<uint32_t>(r);
    region.centroid = RandomCentroid(rng, dim);
    // Half the records carry their persisted signature, half arrive empty
    // (legacy catalog): the store must treat both identically.
    if (r % 2 == 0) region.signature = ComputeSignature(region.centroid);
    rec.regions.push_back(std::move(region));
  }
  return rec;
}

TEST(SignatureStore, RowsMatchRecomputedSignatures) {
  Rng rng(35);
  SignatureStore store;
  std::vector<ImageRecord> images;
  for (uint64_t id : {3u, 70u, 2000000u}) {  // direct table + hash spill
    images.push_back(MakeImage(&rng, id, 4, 12));
    store.AddImage(images.back());
  }
  EXPECT_EQ(store.dim(), 12);
  EXPECT_EQ(store.image_count(), 3u);
  for (const ImageRecord& rec : images) {
    for (const RegionRecord& region : rec.regions) {
      const uint64_t* row = store.SignatureRow(rec.image_id,
                                               region.region_id);
      ASSERT_NE(row, nullptr);
      std::vector<uint64_t> want = ComputeSignature(region.centroid);
      EXPECT_TRUE(std::equal(want.begin(), want.end(), row))
          << "image " << rec.image_id << " region " << region.region_id;
    }
  }
  store.RemoveImage(70);
  EXPECT_EQ(store.image_count(), 2u);
  EXPECT_EQ(store.SignatureRow(70, 0), nullptr);
  EXPECT_NE(store.SignatureRow(3, 0), nullptr);
}

// FilterCandidates returns exactly the brute-force epsilon survivors, in
// the same order.
TEST(SignatureStore, FilterMatchesBruteForceExactly) {
  Rng rng(36);
  const int dim = 12;
  SignatureStore store;
  std::vector<ImageRecord> images;
  for (uint64_t id = 1; id <= 40; ++id) {
    images.push_back(MakeImage(&rng, id, 5, dim));
    store.AddImage(images.back());
  }
  SignatureFilterScratch scratch;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<float> query = RandomCentroid(&rng, dim);
    float eps = static_cast<float>(rng.NextDouble(0.02, 0.4));
    double eps2 = static_cast<double>(eps) * eps;

    // Candidate set: a random subset of all regions, as raw payloads.
    std::vector<uint64_t> payloads;
    std::vector<uint64_t> expected;
    for (const ImageRecord& rec : images) {
      for (const RegionRecord& region : rec.regions) {
        if (!rng.NextBernoulli(0.7)) continue;
        uint64_t payload =
            EncodeRegionPayload(rec.image_id, region.region_id);
        payloads.push_back(payload);
        double d2 = SquaredL2(query, region.centroid);
        if (!(d2 > eps2)) expected.push_back(payload);
      }
    }
    const size_t in = payloads.size();
    SignatureFilterCounters counters;
    size_t survivors =
        store.FilterCandidates(query, eps2, &payloads, &scratch, &counters);
    payloads.resize(survivors);
    EXPECT_EQ(payloads, expected) << "trial=" << trial << " eps=" << eps;
    EXPECT_EQ(counters.candidates_in, static_cast<int64_t>(in));
    EXPECT_EQ(counters.verified_out, static_cast<int64_t>(survivors));
    EXPECT_LE(counters.hamming_pruned, static_cast<int64_t>(in));
  }
}

// End-to-end through the index: every region signature a WalrusIndex holds
// stays consistent across build paths and mutations (ValidateConsistency
// cross-checks store rows against recomputed centroid signatures).
TEST(SignatureStore, IndexMaintainsStoreAcrossMutations) {
  Rng rng(37);
  WalrusParams params;
  params.min_window = 16;
  params.max_window = 32;
  params.slide_step = 8;
  WalrusIndex index(params);
  ImageF image(64, 64, 3, ColorSpace::kRGB);
  for (int c = 0; c < 3; ++c) {
    for (float& x : image.Plane(c)) x = rng.NextFloat();
  }
  ASSERT_TRUE(index.AddImage(1, "a", image).ok());
  ASSERT_TRUE(index.AddImage(2, "b", image).ok());
  EXPECT_GT(index.signatures().dim(), 0);
  EXPECT_EQ(index.signatures().image_count(), 2u);
  ASSERT_TRUE(index.ValidateConsistency().ok());
  ASSERT_TRUE(index.RemoveImage(1).ok());
  EXPECT_EQ(index.signatures().SignatureRow(1, 0), nullptr);
  ASSERT_TRUE(index.ValidateConsistency().ok());
}

}  // namespace
}  // namespace walrus
