#include <cstdio>

#include <gtest/gtest.h>

#include "common/serialize.h"
#include "core/index.h"
#include "core/query.h"
#include "image/dataset.h"

namespace walrus {
namespace {

WalrusParams TestParams() {
  WalrusParams p;
  p.min_window = 16;
  p.max_window = 32;
  p.slide_step = 8;
  return p;
}

void RemovePagedFiles(const std::string& prefix) {
  for (const char* suffix : {".catalog", ".pmeta", ".ptree"}) {
    std::remove((prefix + suffix).c_str());
  }
}

class PagedIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetParams dp;
    dp.num_images = 18;
    dp.width = 64;
    dp.height = 64;
    dp.seed = 44;
    dataset_ = GenerateDataset(dp);
    index_ = std::make_unique<WalrusIndex>(TestParams());
    for (const LabeledImage& scene : dataset_) {
      ASSERT_TRUE(index_
                      ->AddImage(static_cast<uint64_t>(scene.id), "img",
                                 scene.image)
                      .ok());
    }
  }

  std::vector<LabeledImage> dataset_;
  std::unique_ptr<WalrusIndex> index_;
};

TEST_F(PagedIndexTest, PagedQueriesMatchInMemory) {
  std::string prefix = ::testing::TempDir() + "/walrus_paged_a";
  ASSERT_TRUE(index_->SavePaged(prefix).ok());
  auto paged = WalrusIndex::OpenPaged(prefix);
  ASSERT_TRUE(paged.ok()) << paged.status();
  EXPECT_TRUE(paged->is_paged());
  EXPECT_FALSE(index_->is_paged());
  EXPECT_EQ(paged->ImageCount(), index_->ImageCount());
  EXPECT_EQ(paged->RegionCount(), index_->RegionCount());

  for (int id : {0, 3, 9}) {
    for (MatcherKind matcher : {MatcherKind::kQuick, MatcherKind::kGreedy}) {
      QueryOptions options;
      options.epsilon = 0.085f;
      options.matcher = matcher;
      auto memory = ExecuteQuery(*index_, dataset_[id].image, options);
      auto disk = ExecuteQuery(*paged, dataset_[id].image, options);
      ASSERT_TRUE(memory.ok() && disk.ok());
      ASSERT_EQ(memory->size(), disk->size()) << id;
      for (size_t i = 0; i < memory->size(); ++i) {
        EXPECT_EQ((*memory)[i].image_id, (*disk)[i].image_id) << id;
        EXPECT_NEAR((*memory)[i].similarity, (*disk)[i].similarity, 1e-9)
            << id;
      }
    }
  }
  RemovePagedFiles(prefix);
}

TEST_F(PagedIndexTest, PagedKnnQueriesWork) {
  std::string prefix = ::testing::TempDir() + "/walrus_paged_knn";
  ASSERT_TRUE(index_->SavePaged(prefix).ok());
  auto paged = WalrusIndex::OpenPaged(prefix);
  ASSERT_TRUE(paged.ok());

  QueryOptions options;
  options.knn_per_region = 3;
  auto memory = ExecuteQuery(*index_, dataset_[1].image, options);
  auto disk = ExecuteQuery(*paged, dataset_[1].image, options);
  ASSERT_TRUE(memory.ok() && disk.ok());
  ASSERT_EQ(memory->size(), disk->size());
  for (size_t i = 0; i < memory->size(); ++i) {
    EXPECT_EQ((*memory)[i].image_id, (*disk)[i].image_id);
    EXPECT_NEAR((*memory)[i].similarity, (*disk)[i].similarity, 1e-9);
  }
  RemovePagedFiles(prefix);
}

TEST_F(PagedIndexTest, OpenPagedRejectsMissingPieces) {
  std::string prefix = ::testing::TempDir() + "/walrus_paged_missing";
  ASSERT_TRUE(index_->SavePaged(prefix).ok());
  std::remove((prefix + ".ptree").c_str());
  EXPECT_FALSE(WalrusIndex::OpenPaged(prefix).ok());
  RemovePagedFiles(prefix);
  EXPECT_FALSE(WalrusIndex::OpenPaged(prefix).ok());
}

TEST_F(PagedIndexTest, BBoxSignatureModeRoundTrips) {
  WalrusParams p = TestParams();
  p.signature_kind = RegionSignatureKind::kBoundingBox;
  WalrusIndex index(p);
  for (const LabeledImage& scene : dataset_) {
    ASSERT_TRUE(
        index.AddImage(static_cast<uint64_t>(scene.id), "img", scene.image)
            .ok());
  }
  std::string prefix = ::testing::TempDir() + "/walrus_paged_bbox";
  ASSERT_TRUE(index.SavePaged(prefix).ok());
  auto paged = WalrusIndex::OpenPaged(prefix);
  ASSERT_TRUE(paged.ok()) << paged.status();

  QueryOptions options;
  options.epsilon = 0.05f;
  auto memory = ExecuteQuery(index, dataset_[2].image, options);
  auto disk = ExecuteQuery(*paged, dataset_[2].image, options);
  ASSERT_TRUE(memory.ok() && disk.ok());
  ASSERT_EQ(memory->size(), disk->size());
  for (size_t i = 0; i < memory->size(); ++i) {
    EXPECT_EQ((*memory)[i].image_id, (*disk)[i].image_id);
  }
  RemovePagedFiles(prefix);
}

// An opened index -- in-memory or paged -- takes mutations under the
// hand-off rule: the first one moves it onto the dynamic tree, in memory,
// and the files it was opened from never change.
TEST_F(PagedIndexTest, MutatingAnOpenedIndexRunsInMemory) {
  const std::string prefix = ::testing::TempDir() + "/walrus_paged_mutate";
  ASSERT_TRUE(index_->Save(prefix).ok());
  ASSERT_TRUE(index_->SavePaged(prefix).ok());
  const std::vector<std::string> files = {prefix + ".catalog",
                                          prefix + ".index", prefix + ".pmeta",
                                          prefix + ".ptree"};
  std::vector<std::vector<uint8_t>> bytes;
  for (const std::string& file : files) {
    bytes.push_back(ReadFileBytes(file).value());
  }

  for (bool paged : {false, true}) {
    SCOPED_TRACE(paged ? "OpenPaged" : "Open");
    Result<WalrusIndex> opened =
        paged ? WalrusIndex::OpenPaged(prefix) : WalrusIndex::Open(prefix);
    ASSERT_TRUE(opened.ok()) << opened.status();
    EXPECT_EQ(opened->is_paged(), paged);
    ASSERT_NE(opened->disk_tree(), nullptr);

    ASSERT_TRUE(opened->AddImage(100, "copy", dataset_[5].image).ok());
    EXPECT_FALSE(opened->is_paged());
    EXPECT_EQ(opened->disk_tree(), nullptr);
    ASSERT_TRUE(opened->RemoveImage(3).ok());
    EXPECT_EQ(opened->ImageCount(), dataset_.size());
    EXPECT_EQ(opened->tree().size(),
              static_cast<int64_t>(opened->RegionCount()));
    Status valid = opened->ValidateConsistency();
    EXPECT_TRUE(valid.ok()) << valid;

    Result<WalrusIndex> rebuilt =
        WalrusIndex::FromRecords(TestParams(), opened->catalog().images());
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
    QueryOptions range;
    range.epsilon = 0.085f;
    QueryOptions knn;
    knn.knn_per_region = 3;
    for (const QueryOptions& options : {range, knn}) {
      for (int id : {0, 3, 5, 11}) {
        auto want = ExecuteQuery(*rebuilt, dataset_[id].image, options);
        auto got = ExecuteQuery(*opened, dataset_[id].image, options);
        ASSERT_TRUE(want.ok() && got.ok());
        ASSERT_EQ(want->size(), got->size()) << id;
        for (size_t i = 0; i < want->size(); ++i) {
          EXPECT_EQ((*want)[i].image_id, (*got)[i].image_id) << id;
          EXPECT_EQ((*want)[i].similarity, (*got)[i].similarity) << id;
          EXPECT_EQ((*want)[i].matching_pairs, (*got)[i].matching_pairs)
              << id;
        }
      }
    }
  }
  for (size_t i = 0; i < files.size(); ++i) {
    EXPECT_EQ(ReadFileBytes(files[i]).value(), bytes[i]) << files[i];
    std::remove(files[i].c_str());
  }
}

}  // namespace
}  // namespace walrus
