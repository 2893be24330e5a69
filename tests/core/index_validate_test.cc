#include <cstdio>

#include <gtest/gtest.h>

#include "common/check.h"
#include "core/index.h"
#include "image/synth.h"

namespace walrus {
namespace {

WalrusParams TestParams() {
  WalrusParams p;
  p.min_window = 16;
  p.max_window = 16;
  p.slide_step = 8;
  return p;
}

WalrusIndex BuildIndex() {
  WalrusIndex index(TestParams());
  EXPECT_TRUE(index.AddImage(1, "red", MakeSolid(64, 64, {0.9f, 0.1f, 0.1f}))
                  .ok());
  EXPECT_TRUE(index.AddImage(2, "green", MakeSolid(64, 64, {0.1f, 0.8f, 0.1f}))
                  .ok());
  EXPECT_TRUE(index.AddImage(3, "blue", MakeSolid(64, 64, {0.1f, 0.2f, 0.9f}))
                  .ok());
  return index;
}

std::string TempPrefix(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(IndexValidate, HealthyInMemoryIndexIsConsistent) {
  WalrusIndex index = BuildIndex();
  Status status = index.ValidateConsistency();
  EXPECT_TRUE(status.ok()) << status;
}

TEST(IndexValidate, EmptyIndexIsConsistent) {
  WalrusIndex index(TestParams());
  EXPECT_TRUE(index.ValidateConsistency().ok());
}

TEST(IndexValidate, StaysConsistentAcrossRemoval) {
  WalrusIndex index = BuildIndex();
  ASSERT_TRUE(index.RemoveImage(2).ok());
  Status status = index.ValidateConsistency();
  EXPECT_TRUE(status.ok()) << status;
}

TEST(IndexValidate, HealthyPagedIndexIsConsistent) {
  std::string prefix = TempPrefix("idxval_paged");
  {
    WalrusIndex index = BuildIndex();
    ASSERT_TRUE(index.SavePaged(prefix).ok());
  }
  Result<WalrusIndex> opened = WalrusIndex::OpenPaged(prefix);
  ASSERT_TRUE(opened.ok()) << opened.status();
  ASSERT_TRUE(opened->is_paged());
  Status status = opened->ValidateConsistency();
  EXPECT_TRUE(status.ok()) << status;
  std::remove((prefix + ".catalog").c_str());
  std::remove((prefix + ".pmeta").c_str());
  std::remove((prefix + ".ptree").c_str());
}

TEST(IndexValidate, DetectsCorruptPagedTree) {
  std::string prefix = TempPrefix("idxval_flip");
  {
    WalrusIndex index = BuildIndex();
    ASSERT_TRUE(index.SavePaged(prefix).ok());
  }
  // Flip a byte in the page tree's first node page. OpenPaged loads every
  // tree page, so the damage is refused at open, before any query or
  // validation could read the tree.
  std::string ptree = prefix + ".ptree";
  {
    std::FILE* f = std::fopen(ptree.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    long offset = 1 * static_cast<long>(PageFile::kDefaultPageSize) + 21;
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    std::fputc(c ^ 0x20, f);
    std::fclose(f);
  }
  Result<WalrusIndex> opened = WalrusIndex::OpenPaged(prefix);
  EXPECT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
      << opened.status();
  std::remove((prefix + ".catalog").c_str());
  std::remove((prefix + ".pmeta").c_str());
  std::remove(ptree.c_str());
}

TEST(IndexValidate, DeepChecksRunValidatorsAfterMutations) {
  // With the runtime flag on, every mutation re-validates the whole index;
  // on a healthy index all mutations still succeed.
  SetDeepChecks(true);
  WalrusIndex index(TestParams());
  EXPECT_TRUE(index.AddImage(1, "a", MakeSolid(64, 64, {0.7f, 0.2f, 0.1f}))
                  .ok());
  EXPECT_TRUE(index.AddImage(2, "b", MakeSolid(64, 64, {0.2f, 0.7f, 0.1f}))
                  .ok());
  EXPECT_TRUE(index.RemoveImage(1).ok());
  SetDeepChecks(false);
  EXPECT_FALSE(DeepChecksEnabled());
}

}  // namespace
}  // namespace walrus
