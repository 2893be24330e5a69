#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/random.h"
#include "common/serialize.h"
#include "storage/disk_rstar.h"
#include "storage/page_file.h"

namespace walrus {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// XORs one byte of `path` at `offset` in place.
void FlipByteAt(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);
}

TEST(PageChecksum, SweepPassesOnHealthyFile) {
  std::string path = TempPath("crc_healthy.db");
  {
    Result<PageFile> pf = PageFile::Create(path, 128);
    ASSERT_TRUE(pf.ok());
    for (int i = 0; i < 4; ++i) {
      uint32_t id = pf->AllocatePage().value();
      std::vector<uint8_t> page(128, static_cast<uint8_t>(0x30 + i));
      ASSERT_TRUE(pf->WritePage(id, page).ok());
    }
    ASSERT_TRUE(pf->Sync().ok());
    EXPECT_TRUE(pf->ValidateChecksums().ok());
  }
  Result<PageFile> reopened = PageFile::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_TRUE(reopened->ValidateChecksums().ok());
  std::remove(path.c_str());
}

TEST(PageChecksum, SweepAndReadDetectBitFlip) {
  std::string path = TempPath("crc_flip.db");
  {
    Result<PageFile> pf = PageFile::Create(path, 128);
    ASSERT_TRUE(pf.ok());
    for (int i = 0; i < 4; ++i) {
      uint32_t id = pf->AllocatePage().value();
      std::vector<uint8_t> page(128, static_cast<uint8_t>(i));
      ASSERT_TRUE(pf->WritePage(id, page).ok());
    }
    ASSERT_TRUE(pf->Sync().ok());
  }
  // Flip one payload byte of page 2 behind the page file's back.
  FlipByteAt(path, 2 * 128 + 17);

  Result<PageFile> pf = PageFile::Open(path);
  ASSERT_TRUE(pf.ok()) << pf.status();
  Status sweep = pf->ValidateChecksums();
  EXPECT_FALSE(sweep.ok());
  EXPECT_EQ(sweep.code(), StatusCode::kCorruption) << sweep;

  // A direct read of the damaged page fails; healthy pages still read.
  EXPECT_EQ(pf->ReadPage(2).status().code(), StatusCode::kCorruption);
  EXPECT_TRUE(pf->ReadPage(1).ok());
  EXPECT_TRUE(pf->ReadPage(3).ok());
  std::remove(path.c_str());
}

TEST(PageChecksum, OpenDetectsCorruptHeaderPage) {
  std::string path = TempPath("crc_header.db");
  {
    Result<PageFile> pf = PageFile::Create(path, 128);
    ASSERT_TRUE(pf.ok());
    ASSERT_TRUE(pf->Sync().ok());
  }
  // Damage a header-page byte past the 12-byte parsed prefix: only the CRC
  // can notice it.
  FlipByteAt(path, 40);
  Result<PageFile> pf = PageFile::Open(path);
  EXPECT_FALSE(pf.ok());
  EXPECT_EQ(pf.status().code(), StatusCode::kCorruption) << pf.status();
  std::remove(path.c_str());
}

/// 500 grid points in 256-byte pages: 10 entries per node, so 50 leaves
/// (pages 1-50), 5 internal nodes (51-55), the root (56) and the
/// metadata blob (57); height 3.
void BuildGridTree(const std::string& path) {
  std::vector<std::pair<Rect, uint64_t>> entries;
  for (int i = 0; i < 500; ++i) {
    float x = static_cast<float>(i % 25);
    float y = static_cast<float>(i / 25);
    entries.emplace_back(Rect::Point({x, y}), static_cast<uint64_t>(i));
  }
  Result<DiskRStarTree> built =
      DiskRStarTree::Build(2, entries, /*page_size=*/256);
  ASSERT_TRUE(built.ok()) << built.status();
  ASSERT_EQ(built->height(), 3);
  ASSERT_EQ(built->NodeCapacity(), 10);
  EXPECT_TRUE(built->Validate().ok());
  ASSERT_TRUE(built->Save(path).ok());
}

constexpr uint32_t kGridRootPage = 56;
constexpr uint32_t kGridFirstLeafPage = 1;
/// Byte offset of entry i in a node page of the 2-d grid tree (u8
/// is_leaf, u8, u16 count, u32; then entries of lo[2], hi[2], u64 value).
size_t EntryAt(int i) { return 8 + static_cast<size_t>(i) * 24; }

/// Rewrites the bytes of node page `id` of the 256-byte-page grid tree in
/// place and re-stamps its CRC-32 trailer, so the checksum stays valid and
/// only the structure checks can catch the edit.
void EditPage(const std::string& path, uint32_t id,
              const std::function<void(std::vector<uint8_t>*)>& edit) {
  constexpr size_t kPage = 256;
  Result<std::vector<uint8_t>> file = ReadFileBytes(path);
  ASSERT_TRUE(file.ok()) << file.status();
  ASSERT_LE((id + 1) * kPage, file->size());
  std::vector<uint8_t> page(file->begin() + id * kPage,
                            file->begin() + (id + 1) * kPage);
  edit(&page);
  const size_t body = kPage - PageFile::kChecksumBytes;
  const uint32_t crc = Crc32(page.data(), body);
  for (size_t i = 0; i < PageFile::kChecksumBytes; ++i) {
    page[body + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  std::copy(page.begin(), page.end(), file->begin() + id * kPage);
  ASSERT_TRUE(WriteFileBytes(path, *file).ok());
}

void PutU64(std::vector<uint8_t>* page, size_t at, uint64_t v) {
  std::memcpy(page->data() + at, &v, 8);
}
uint64_t GetU64(const std::vector<uint8_t>& page, size_t at) {
  uint64_t v;
  std::memcpy(&v, page.data() + at, 8);
  return v;
}
void PutF32(std::vector<uint8_t>* page, size_t at, float v) {
  std::memcpy(page->data() + at, &v, 4);
}

/// Open of the edited tree must fail with Corruption.
void ExpectOpenCorruption(const std::string& path) {
  Result<DiskRStarTree> opened = DiskRStarTree::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
      << opened.status();
}

TEST(DiskRStarValidate, HealthyTreeValidates) {
  std::string path = TempPath("drst_healthy.db");
  BuildGridTree(path);
  Result<DiskRStarTree> opened = DiskRStarTree::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_TRUE(opened->Validate().ok());
  std::remove(path.c_str());
}

TEST(DiskRStarValidate, DetectsCorruptNodePage) {
  std::string path = TempPath("drst_flip.db");
  BuildGridTree(path);
  // Page 1 is the first leaf node. Open reads every node page, so the
  // page's checksum refuses the tree before any query can see it.
  FlipByteAt(path, 1 * 256 + 33);
  ExpectOpenCorruption(path);
  std::remove(path.c_str());
}

TEST(DiskRStarOpen, RejectsChildPageOutOfRange) {
  std::string path = TempPath("drst_child_range.db");
  BuildGridTree(path);
  EditPage(path, kGridRootPage, [](std::vector<uint8_t>* page) {
    PutU64(page, EntryAt(0) + 16, 9999);
  });
  ExpectOpenCorruption(path);
  std::remove(path.c_str());
}

TEST(DiskRStarOpen, RejectsSharedChildAndCycle) {
  std::string path = TempPath("drst_shared.db");
  BuildGridTree(path);
  EditPage(path, kGridRootPage, [](std::vector<uint8_t>* page) {
    PutU64(page, EntryAt(1) + 16, GetU64(*page, EntryAt(0) + 16));
  });
  ExpectOpenCorruption(path);

  BuildGridTree(path);
  EditPage(path, kGridRootPage, [](std::vector<uint8_t>* page) {
    PutU64(page, EntryAt(0) + 16, kGridRootPage);  // points at itself
  });
  ExpectOpenCorruption(path);
  std::remove(path.c_str());
}

TEST(DiskRStarOpen, RejectsBadEntryCount) {
  std::string path = TempPath("drst_count.db");
  for (uint8_t count : {uint8_t{11}, uint8_t{0}}) {  // capacity is 10
    BuildGridTree(path);
    EditPage(path, kGridFirstLeafPage,
             [count](std::vector<uint8_t>* page) { (*page)[2] = count; });
    ExpectOpenCorruption(path);
  }
  std::remove(path.c_str());
}

TEST(DiskRStarOpen, RejectsInvertedRect) {
  std::string path = TempPath("drst_inverted.db");
  BuildGridTree(path);
  EditPage(path, kGridFirstLeafPage, [](std::vector<uint8_t>* page) {
    PutF32(page, EntryAt(0), 1000.0f);  // lo[0] above hi[0]
  });
  ExpectOpenCorruption(path);
  std::remove(path.c_str());
}

TEST(DiskRStarOpen, RejectsLeafAtWrongDepth) {
  std::string path = TempPath("drst_depth.db");
  BuildGridTree(path);
  // A leaf flag on the root puts a leaf at depth 1 of a height-3 tree.
  EditPage(path, kGridRootPage,
           [](std::vector<uint8_t>* page) { (*page)[0] = 1; });
  ExpectOpenCorruption(path);

  // An internal flag on a leaf page puts an internal node at leaf level.
  BuildGridTree(path);
  EditPage(path, kGridFirstLeafPage,
           [](std::vector<uint8_t>* page) { (*page)[0] = 0; });
  ExpectOpenCorruption(path);
  std::remove(path.c_str());
}

TEST(DiskRStarValidate, DetectsParentRectMismatch) {
  std::string path = TempPath("drst_parent_rect.db");
  BuildGridTree(path);
  // Move one leaf point outside its parent's stored rect: a well-formed
  // tree that opens, but whose pruning rects lie.
  EditPage(path, kGridFirstLeafPage, [](std::vector<uint8_t>* page) {
    for (size_t at : {EntryAt(0), EntryAt(0) + 8}) PutF32(page, at, -50.0f);
  });
  Result<DiskRStarTree> opened = DiskRStarTree::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  Status status = opened->Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status;
  std::remove(path.c_str());
}

// Seeded byte flips, one per page: Open either fails cleanly or returns a
// tree whose deep validation passes.
TEST(DiskRStarOpen, ByteFlipOnEveryPageFailsCleanly) {
  std::string path = TempPath("drst_flip_loop.db");
  BuildGridTree(path);
  Result<std::vector<uint8_t>> valid = ReadFileBytes(path);
  ASSERT_TRUE(valid.ok());
  const size_t pages = valid->size() / 256;
  ASSERT_EQ(pages, 58u);
  Rng rng(1505);
  for (size_t id = 0; id < pages; ++id) {
    std::vector<uint8_t> mutated = *valid;
    const size_t pos = id * 256 + rng.NextBounded(256);
    mutated[pos] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    ASSERT_TRUE(WriteFileBytes(path, mutated).ok());
    Result<DiskRStarTree> opened = DiskRStarTree::Open(path);
    if (opened.ok()) {
      EXPECT_TRUE(opened->Validate().ok()) << "page " << id;
    } else {
      EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
          << "page " << id << ": " << opened.status();
    }
  }
  std::remove(path.c_str());
}

TEST(DiskRStarValidate, EmptyTreeValidates) {
  std::string path = TempPath("drst_empty.db");
  Result<DiskRStarTree> built = DiskRStarTree::Build(2, {}, 256);
  ASSERT_TRUE(built.ok()) << built.status();
  EXPECT_TRUE(built->Validate().ok());
  ASSERT_TRUE(built->Save(path).ok());
  Result<DiskRStarTree> opened = DiskRStarTree::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_TRUE(opened->Validate().ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace walrus
