#include <cstdio>

#include <gtest/gtest.h>

#include "storage/page_file.h"

namespace walrus {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Caller-visible bytes of a page: everything before the CRC-32 trailer,
/// which WritePage stamps over the last kChecksumBytes.
std::vector<uint8_t> Body(std::vector<uint8_t> page) {
  page.resize(page.size() - PageFile::kChecksumBytes);
  return page;
}

// Read-after-write: a read following a rewrite sees the new bytes.
TEST(PageCache, WriteInvalidates) {
  std::string path = TempPath("cache_invalidate.db");
  Result<PageFile> pf = PageFile::Create(path, 128);
  ASSERT_TRUE(pf.ok());
  uint32_t id = pf->AllocatePage().value();
  std::vector<uint8_t> a(128, 0x11);
  std::vector<uint8_t> b(128, 0x22);
  ASSERT_TRUE(pf->WritePage(id, a).ok());
  EXPECT_EQ(Body(pf->ReadPage(id).value()), Body(a));
  ASSERT_TRUE(pf->WritePage(id, b).ok());
  EXPECT_EQ(Body(pf->ReadPage(id).value()), Body(b));  // must see the new bytes
  std::remove(path.c_str());
}

}  // namespace
}  // namespace walrus
