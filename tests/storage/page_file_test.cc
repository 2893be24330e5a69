#include "storage/page_file.h"

#include <algorithm>
#include <cstdio>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/serialize.h"

namespace walrus {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(PageFile, CreateAndReopenHeader) {
  std::string path = TempPath("pf_header.db");
  {
    Result<PageFile> pf = PageFile::Create(path, 256);
    ASSERT_TRUE(pf.ok()) << pf.status();
    EXPECT_EQ(pf->page_size(), 256u);
    EXPECT_EQ(pf->page_count(), 1u);
  }
  Result<PageFile> reopened = PageFile::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->page_size(), 256u);
  std::remove(path.c_str());
}

// Open is read-only: writes through an opened file fail, and opening and
// closing leaves the file's bytes as they were.
TEST(PageFile, OpenedFileIsReadOnly) {
  std::string path = TempPath("pf_read_only.db");
  {
    Result<PageFile> pf = PageFile::Create(path, 128);
    ASSERT_TRUE(pf.ok()) << pf.status();
    ASSERT_TRUE(pf->WriteBlob({1, 2, 3}).ok());
  }
  Result<std::vector<uint8_t>> before = ReadFileBytes(path);
  ASSERT_TRUE(before.ok());
  {
    Result<PageFile> pf = PageFile::Open(path);
    ASSERT_TRUE(pf.ok()) << pf.status();
    EXPECT_EQ(pf->WritePage(1, std::vector<uint8_t>(128, 7)).code(),
              StatusCode::kInvalidArgument);
    EXPECT_FALSE(pf->AllocatePage().ok());
    EXPECT_FALSE(pf->WriteBlob({4}).ok());
    EXPECT_EQ(pf->page_count(), 2u);
    EXPECT_TRUE(pf->Sync().ok());
    EXPECT_TRUE(pf->ValidateChecksums().ok());
  }
  EXPECT_EQ(ReadFileBytes(path).value(), *before);
  std::remove(path.c_str());
}

TEST(PageFile, PageWriteReadRoundTrip) {
  std::string path = TempPath("pf_pages.db");
  Result<PageFile> pf = PageFile::Create(path, 128);
  ASSERT_TRUE(pf.ok());
  uint32_t id = pf->AllocatePage().value();
  EXPECT_EQ(id, 1u);
  std::vector<uint8_t> page(128);
  for (size_t i = 0; i < page.size(); ++i) page[i] = static_cast<uint8_t>(i);
  ASSERT_TRUE(pf->WritePage(id, page).ok());
  // Everything up to the CRC-32 trailer round-trips; the trailer itself is
  // stamped by WritePage.
  std::vector<uint8_t> read = pf->ReadPage(id).value();
  size_t body = page.size() - PageFile::kChecksumBytes;
  EXPECT_TRUE(std::equal(read.begin(), read.begin() + body, page.begin()));
  std::remove(path.c_str());
}

TEST(PageFile, RejectsBadPageAccess) {
  std::string path = TempPath("pf_bad.db");
  Result<PageFile> pf = PageFile::Create(path, 128);
  ASSERT_TRUE(pf.ok());
  EXPECT_FALSE(pf->ReadPage(0).ok());   // header page is reserved
  EXPECT_FALSE(pf->ReadPage(99).ok());  // out of range
  std::vector<uint8_t> wrong_size(64);
  uint32_t id = pf->AllocatePage().value();
  EXPECT_FALSE(pf->WritePage(id, wrong_size).ok());
  std::remove(path.c_str());
}

TEST(PageFile, BlobSmallerThanPage) {
  std::string path = TempPath("pf_blob_small.db");
  Result<PageFile> pf = PageFile::Create(path, 128);
  ASSERT_TRUE(pf.ok());
  std::vector<uint8_t> blob = {9, 8, 7};
  BlobRef ref = pf->WriteBlob(blob).value();
  EXPECT_EQ(pf->ReadBlob(ref).value(), blob);
  std::remove(path.c_str());
}

TEST(PageFile, BlobSpanningManyPages) {
  std::string path = TempPath("pf_blob_big.db");
  Result<PageFile> pf = PageFile::Create(path, 128);  // 120 payload bytes
  ASSERT_TRUE(pf.ok());
  Rng rng(3);
  std::vector<uint8_t> blob(10000);
  for (uint8_t& b : blob) b = static_cast<uint8_t>(rng.NextU32());
  BlobRef ref = pf->WriteBlob(blob).value();
  EXPECT_GT(pf->page_count(), 80u);
  EXPECT_EQ(pf->ReadBlob(ref).value(), blob);
  std::remove(path.c_str());
}

TEST(PageFile, EmptyBlob) {
  std::string path = TempPath("pf_blob_empty.db");
  Result<PageFile> pf = PageFile::Create(path, 128);
  ASSERT_TRUE(pf.ok());
  BlobRef ref = pf->WriteBlob({}).value();
  EXPECT_EQ(ref.length, 0u);
  EXPECT_TRUE(pf->ReadBlob(ref).value().empty());
  std::remove(path.c_str());
}

TEST(PageFile, MultipleBlobsIndependent) {
  std::string path = TempPath("pf_blobs.db");
  Result<PageFile> pf = PageFile::Create(path, 256);
  ASSERT_TRUE(pf.ok());
  Rng rng(4);
  std::vector<std::pair<BlobRef, std::vector<uint8_t>>> blobs;
  for (int i = 0; i < 20; ++i) {
    std::vector<uint8_t> data(rng.NextInt(0, 800));
    for (uint8_t& b : data) b = static_cast<uint8_t>(rng.NextU32());
    blobs.emplace_back(pf->WriteBlob(data).value(), data);
  }
  for (const auto& [ref, data] : blobs) {
    EXPECT_EQ(pf->ReadBlob(ref).value(), data);
  }
  std::remove(path.c_str());
}

TEST(PageFile, BlobsSurviveReopen) {
  std::string path = TempPath("pf_reopen.db");
  std::vector<uint8_t> blob(500, 0x5A);
  BlobRef ref;
  {
    Result<PageFile> pf = PageFile::Create(path, 128);
    ASSERT_TRUE(pf.ok());
    ref = pf->WriteBlob(blob).value();
    ASSERT_TRUE(pf->Sync().ok());
  }
  Result<PageFile> reopened = PageFile::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->ReadBlob(ref).value(), blob);
  std::remove(path.c_str());
}

TEST(PageFile, OpenRejectsNonPageFile) {
  std::string path = TempPath("pf_garbage.db");
  FILE* f = fopen(path.c_str(), "wb");
  fputs("this is not a page file at all, definitely not", f);
  fclose(f);
  EXPECT_FALSE(PageFile::Open(path).ok());
  std::remove(path.c_str());
}

TEST(PageFile, CreateRejectsTinyPages) {
  EXPECT_FALSE(PageFile::Create(TempPath("pf_tiny.db"), 16).ok());
}

}  // namespace
}  // namespace walrus
