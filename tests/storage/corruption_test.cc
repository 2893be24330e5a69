// Failure-injection tests: corrupted index files must surface Status errors,
// never crash or return silently wrong data.

#include <cstdio>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/serialize.h"
#include "core/index.h"
#include "image/synth.h"
#include "storage/catalog.h"
#include "storage/page_file.h"

namespace walrus {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(Corruption, TruncatedPageFileFailsToOpen) {
  std::string path = TempPath("corrupt_truncated.db");
  {
    Result<PageFile> pf = PageFile::Create(path, 128);
    ASSERT_TRUE(pf.ok());
    ASSERT_TRUE(pf->WriteBlob(std::vector<uint8_t>(300, 7)).ok());
    ASSERT_TRUE(pf->Sync().ok());
  }
  // Truncate to half a page.
  Result<std::vector<uint8_t>> bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  bytes->resize(60);
  ASSERT_TRUE(WriteFileBytes(path, *bytes).ok());
  EXPECT_FALSE(PageFile::Open(path).ok());
  std::remove(path.c_str());
}

TEST(Corruption, BlobChainCycleDetected) {
  // Hand-craft a blob page that points at itself; ReadBlob must terminate
  // with an error instead of looping (the length bound catches it).
  std::string path = TempPath("corrupt_cycle.db");
  Result<PageFile> pf = PageFile::Create(path, 128);
  ASSERT_TRUE(pf.ok());
  uint32_t id = pf->AllocatePage().value();
  std::vector<uint8_t> page(128, 0);
  page[0] = static_cast<uint8_t>(id);  // next = itself
  page[4] = 100;                       // used = 100 bytes
  ASSERT_TRUE(pf->WritePage(id, page).ok());
  Result<std::vector<uint8_t>> blob = pf->ReadBlob(BlobRef{id, 150});
  EXPECT_FALSE(blob.ok());
  EXPECT_EQ(blob.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(Corruption, CatalogRandomByteFlipsNeverCrash) {
  std::string path = TempPath("corrupt_catalog.db");
  Catalog catalog;
  Rng rng(5);
  for (uint64_t id = 0; id < 6; ++id) {
    ImageRecord rec;
    rec.image_id = id;
    rec.name = "img" + std::to_string(id);
    rec.width = 64;
    rec.height = 64;
    RegionRecord region;
    region.region_id = 0;
    region.centroid.assign(12, 0.5f);
    region.bbox_lo.assign(12, 0.4f);
    region.bbox_hi.assign(12, 0.6f);
    region.bitmap_side = 16;
    region.bitmap.assign(32, 0xFF);
    region.window_count = 9;
    rec.regions.push_back(region);
    ASSERT_TRUE(catalog.AddImage(std::move(rec)).ok());
  }
  ASSERT_TRUE(catalog.SaveToFile(path).ok());
  Result<std::vector<uint8_t>> original = ReadFileBytes(path);
  ASSERT_TRUE(original.ok());

  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> mutated = *original;
    // Flip 1-4 random bytes.
    int flips = rng.NextInt(1, 4);
    for (int f = 0; f < flips; ++f) {
      size_t pos = rng.NextBounded(static_cast<uint32_t>(mutated.size()));
      mutated[pos] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    }
    ASSERT_TRUE(WriteFileBytes(path, mutated).ok());
    Result<Catalog> loaded = Catalog::LoadFromFile(path);
    if (loaded.ok()) {
      // Damage may land in unused padding; loaded data must still be
      // structurally sound.
      for (const ImageRecord& rec : loaded->images()) {
        (void)rec.regions.size();
      }
    }
  }
  std::remove(path.c_str());
}

/// Saves a one-image index at `prefix` in both layouts (.catalog, .index,
/// .pmeta, .ptree); `gray` gives 4-d signatures instead of 12-d.
void SaveTinyIndex(const std::string& prefix, bool gray) {
  WalrusParams params;
  params.min_window = 16;
  params.max_window = 16;
  params.slide_step = 8;
  if (gray) params.color_space = ColorSpace::kGray;
  WalrusIndex index(params);
  ASSERT_TRUE(
      index.AddImage(1, "x", MakeSolid(32, 32, {0.5f, 0.5f, 0.5f})).ok());
  ASSERT_TRUE(index.SavePaged(prefix).ok());
  ASSERT_TRUE(index.Save(prefix).ok());
}

TEST(Corruption, IndexOpenWithMismatchedFilesFails) {
  // Two indexes whose params differ in signature dimension; splice each
  // one's catalog under the other's params. Every open must refuse the
  // pair before it builds or decodes a tree.
  std::string a = TempPath("corrupt_index_a");
  std::string b = TempPath("corrupt_index_b");
  SaveTinyIndex(a, /*gray=*/false);
  SaveTinyIndex(b, /*gray=*/true);
  Result<std::vector<uint8_t>> a_catalog = ReadFileBytes(a + ".catalog");
  Result<std::vector<uint8_t>> b_catalog = ReadFileBytes(b + ".catalog");
  ASSERT_TRUE(a_catalog.ok() && b_catalog.ok());
  ASSERT_TRUE(WriteFileBytes(a + ".catalog", *b_catalog).ok());
  ASSERT_TRUE(WriteFileBytes(b + ".catalog", *a_catalog).ok());
  for (const std::string& prefix : {a, b}) {
    for (bool paged : {false, true}) {
      Result<WalrusIndex> opened =
          paged ? WalrusIndex::OpenPaged(prefix) : WalrusIndex::Open(prefix);
      ASSERT_FALSE(opened.ok()) << prefix << " paged=" << paged;
      EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
          << opened.status();
    }
  }
  for (const std::string& prefix : {a, b}) {
    for (const char* suffix : {".catalog", ".index", ".pmeta", ".ptree"}) {
      std::remove((prefix + suffix).c_str());
    }
  }
}

}  // namespace
}  // namespace walrus
