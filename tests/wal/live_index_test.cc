#include "wal/live_index.h"

#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>

#include "common/metrics.h"
#include "core/index.h"
#include "core/query.h"
#include "core/query_engine.h"
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

/// Fresh (empty) per-test directory under the gtest temp root.
std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (struct dirent* entry = ::readdir(d)) {
      std::string file = entry->d_name;
      if (file != "." && file != "..") {
        std::remove((dir + "/" + file).c_str());
      }
    }
    ::closedir(d);
  }
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

void ExpectIdenticalRankings(const std::vector<QueryMatch>& a,
                             const std::vector<QueryMatch>& b,
                             const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].image_id, b[i].image_id) << context << " rank " << i;
    EXPECT_EQ(a[i].similarity, b[i].similarity) << context << " rank " << i;
    EXPECT_EQ(a[i].matching_pairs, b[i].matching_pairs)
        << context << " rank " << i;
  }
}

class LiveIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetParams dp;
    dp.num_images = 14;
    dp.width = 64;
    dp.height = 64;
    dp.seed = 4242;
    dataset_ = GenerateDataset(dp);
  }

  /// Offline reference: one index holding exactly `ids`, built by serial
  /// AddImage (the layout the bit-identity contract is pinned against).
  std::unique_ptr<WalrusIndex> BuildOffline(const std::vector<int>& ids) {
    auto index = std::make_unique<WalrusIndex>(TestParams());
    for (int id : ids) {
      EXPECT_TRUE(index
                      ->AddImage(static_cast<uint64_t>(id), "img",
                                 dataset_[static_cast<size_t>(id)].image)
                      .ok());
    }
    return index;
  }

  void ExpectMatchesOffline(const LiveIndex& live,
                            const std::vector<int>& live_ids,
                            const QueryOptions& options,
                            const std::string& context) {
    std::unique_ptr<WalrusIndex> offline = BuildOffline(live_ids);
    SingleIndexEngine reference(*offline);
    for (size_t q = 0; q < dataset_.size(); q += 3) {
      auto expected = reference.RunQuery(dataset_[q].image, options);
      auto actual = live.RunQuery(dataset_[q].image, options);
      ASSERT_TRUE(expected.ok()) << expected.status();
      ASSERT_TRUE(actual.ok()) << actual.status();
      ExpectIdenticalRankings(*expected, *actual,
                              context + " query " + std::to_string(q));
    }
  }

  std::vector<LabeledImage> dataset_;
};

TEST_F(LiveIndexTest, StartsEmptyAndInsertsMatchOfflineBuild) {
  std::string dir = FreshDir("live_empty_insert");
  LiveIndex::Options options;
  options.merge_threshold = 0;  // keep everything in the delta
  auto live = LiveIndex::Open(dir, TestParams(), options);
  ASSERT_TRUE(live.ok()) << live.status();
  EXPECT_EQ((*live)->ImageCount(), 0u);

  std::vector<int> ids;
  for (int id = 0; id < 6; ++id) {
    ASSERT_TRUE((*live)
                    ->InsertImage(static_cast<uint64_t>(id), "img",
                                  dataset_[static_cast<size_t>(id)].image)
                    .ok());
    ids.push_back(id);
  }
  EXPECT_EQ((*live)->ImageCount(), 6u);

  QueryOptions q;
  q.epsilon = 0.09f;
  ExpectMatchesOffline(**live, ids, q, "delta-only");
}

TEST_F(LiveIndexTest, InvalidQueryOptionsAreRejected) {
  std::string dir = FreshDir("live_invalid_options");
  LiveIndex::Options options;
  options.merge_threshold = 0;
  auto live = LiveIndex::Open(dir, TestParams(), options);
  ASSERT_TRUE(live.ok()) << live.status();
  ASSERT_TRUE((*live)->InsertImage(0, "img", dataset_[0].image).ok());
  for (bool prefilter : {true, false}) {
    QueryOptions q;
    q.epsilon = std::numeric_limits<float>::quiet_NaN();
    q.signature_prefilter = prefilter;
    EXPECT_EQ((*live)->RunQuery(dataset_[0].image, q).status().code(),
              StatusCode::kInvalidArgument);
    q = QueryOptions();
    q.top_k = -1;
    EXPECT_EQ((*live)->RunQuery(dataset_[0].image, q).status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_TRUE((*live)->RunQuery(dataset_[0].image, QueryOptions()).ok());
}

TEST_F(LiveIndexTest, InvalidQueryOptionsCostNoExtraction) {
  std::string dir = FreshDir("live_invalid_no_extract");
  LiveIndex::Options options;
  options.merge_threshold = 0;
  auto live = LiveIndex::Open(dir, TestParams(), options);
  ASSERT_TRUE(live.ok()) << live.status();
  ASSERT_TRUE((*live)->InsertImage(0, "img", dataset_[0].image).ok());
  const Counter* extractions =
      MetricsRegistry::Global().GetCounter("walrus.extract.count");
  const uint64_t before = extractions->Value();
  QueryOptions q;
  q.tau = std::numeric_limits<double>::infinity();
  EXPECT_EQ((*live)->RunQuery(dataset_[0].image, q).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*live)
                ->RunSceneQuery(dataset_[0].image, PixelRect{0, 0, 64, 64}, q)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(extractions->Value(), before);
}

TEST_F(LiveIndexTest, SeededBasePlusInsertsAndDeletesMatchOffline) {
  std::string dir = FreshDir("live_seeded");
  std::unique_ptr<WalrusIndex> seed = BuildOffline({0, 1, 2, 3, 4, 5, 6, 7});

  LiveIndex::Options options;
  options.num_shards = 3;
  options.merge_threshold = 0;
  auto live = LiveIndex::Open(dir, TestParams(), options, seed.get());
  ASSERT_TRUE(live.ok()) << live.status();
  EXPECT_EQ((*live)->ImageCount(), 8u);

  // Mutate: delete two base images, insert three new ones.
  ASSERT_TRUE((*live)->DeleteImage(2).ok());
  ASSERT_TRUE((*live)->DeleteImage(5).ok());
  for (int id = 8; id < 11; ++id) {
    ASSERT_TRUE((*live)
                    ->InsertImage(static_cast<uint64_t>(id), "img",
                                  dataset_[static_cast<size_t>(id)].image)
                    .ok());
  }
  EXPECT_EQ((*live)->ImageCount(), 9u);

  QueryOptions q;
  q.epsilon = 0.09f;
  ExpectMatchesOffline(**live, {0, 1, 3, 4, 6, 7, 8, 9, 10}, q,
                       "base+delta+tombstones");

  // The kNN probe path composes the same way.
  QueryOptions knn;
  knn.knn_per_region = 4;
  ExpectMatchesOffline(**live, {0, 1, 3, 4, 6, 7, 8, 9, 10}, knn,
                       "knn base+delta+tombstones");
}

TEST_F(LiveIndexTest, DuplicateAndMissingIdsAreRejected) {
  std::string dir = FreshDir("live_dup");
  std::unique_ptr<WalrusIndex> seed = BuildOffline({0, 1});
  LiveIndex::Options options;
  options.merge_threshold = 0;
  auto live = LiveIndex::Open(dir, TestParams(), options, seed.get());
  ASSERT_TRUE(live.ok()) << live.status();

  // Duplicate of a base image and of a delta image.
  EXPECT_EQ((*live)->InsertImage(0, "dup", dataset_[0].image).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE((*live)->InsertImage(7, "new", dataset_[7].image).ok());
  EXPECT_EQ((*live)->InsertImage(7, "dup", dataset_[7].image).code(),
            StatusCode::kAlreadyExists);

  EXPECT_EQ((*live)->DeleteImage(99).code(), StatusCode::kNotFound);
  ASSERT_TRUE((*live)->DeleteImage(0).ok());
  // Double delete of a tombstoned base image.
  EXPECT_EQ((*live)->DeleteImage(0).code(), StatusCode::kNotFound);
  // Re-insert under a tombstoned id: the new version lives in the delta.
  ASSERT_TRUE((*live)->InsertImage(0, "again", dataset_[2].image).ok());
  EXPECT_EQ((*live)->ImageCount(), 3u);
  // And deleting it again removes the delta copy.
  ASSERT_TRUE((*live)->DeleteImage(0).ok());
  EXPECT_EQ((*live)->ImageCount(), 2u);
}

TEST_F(LiveIndexTest, ReopenReplaysWalIntoIdenticalState) {
  std::string dir = FreshDir("live_reopen");
  std::unique_ptr<WalrusIndex> seed = BuildOffline({0, 1, 2, 3});
  LiveIndex::Options options;
  options.num_shards = 2;
  options.merge_threshold = 0;
  {
    auto live = LiveIndex::Open(dir, TestParams(), options, seed.get());
    ASSERT_TRUE(live.ok()) << live.status();
    ASSERT_TRUE((*live)->InsertImage(8, "img", dataset_[8].image).ok());
    ASSERT_TRUE((*live)->InsertImage(9, "img", dataset_[9].image).ok());
    ASSERT_TRUE((*live)->DeleteImage(1).ok());
    // No merge, no clean shutdown handshake: everything past the seed
    // lives only in the WAL when the process "dies" here.
  }
  auto live = LiveIndex::Open(dir, TestParams(), options);
  ASSERT_TRUE(live.ok()) << live.status();
  EXPECT_EQ((*live)->ImageCount(), 5u);
  IngestStats stats = (*live)->IngestStatsSnapshot();
  EXPECT_EQ(stats.delta_images, 2u);
  EXPECT_EQ(stats.tombstones, 1u);

  QueryOptions q;
  q.epsilon = 0.09f;
  ExpectMatchesOffline(**live, {0, 2, 3, 8, 9}, q, "after replay");
}

TEST_F(LiveIndexTest, MergeFoldsDeltaAndSurvivesReopen) {
  std::string dir = FreshDir("live_merge");
  std::unique_ptr<WalrusIndex> seed = BuildOffline({0, 1, 2, 3, 4});
  LiveIndex::Options options;
  options.num_shards = 2;
  options.merge_threshold = 0;  // merge manually below
  auto live = LiveIndex::Open(dir, TestParams(), options, seed.get());
  ASSERT_TRUE(live.ok()) << live.status();
  ASSERT_TRUE((*live)->InsertImage(10, "img", dataset_[10].image).ok());
  ASSERT_TRUE((*live)->DeleteImage(3).ok());
  EXPECT_EQ((*live)->generation(), 1u);

  ASSERT_TRUE((*live)->Merge().ok());
  EXPECT_EQ((*live)->generation(), 2u);
  IngestStats stats = (*live)->IngestStatsSnapshot();
  EXPECT_EQ(stats.delta_images, 0u);
  EXPECT_EQ(stats.tombstones, 0u);
  EXPECT_EQ(stats.merges, 1u);
  // The WAL restarted past the folded records.
  EXPECT_EQ(stats.wal_file_bytes, kWalHeaderBytes);

  QueryOptions q;
  q.epsilon = 0.09f;
  ExpectMatchesOffline(**live, {0, 1, 2, 4, 10}, q, "after merge");

  // A second merge with nothing pending is a no-op.
  ASSERT_TRUE((*live)->Merge().ok());
  EXPECT_EQ((*live)->generation(), 2u);

  // Reopen from the merged base (empty WAL) and keep mutating.
  live->reset();
  auto reopened = LiveIndex::Open(dir, TestParams(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->generation(), 2u);
  EXPECT_EQ((*reopened)->ImageCount(), 5u);
  ASSERT_TRUE((*reopened)->InsertImage(11, "img", dataset_[11].image).ok());
  ExpectMatchesOffline(**reopened, {0, 1, 2, 4, 10, 11}, q,
                       "post-merge reopen + insert");
}

// A merge installs the generation it saved, loaded the way Open loads it:
// with paged_base every base shard then serves from its decoded page tree
// (the query stats count page reads), and rankings equal both an offline
// rebuild and a reopen.
TEST_F(LiveIndexTest, MergeInstallsThePagedGenerationItSaved) {
  std::string dir = FreshDir("live_merge_paged");
  std::unique_ptr<WalrusIndex> seed = BuildOffline({0, 1, 2, 3, 4});
  LiveIndex::Options options;
  options.num_shards = 2;
  options.merge_threshold = 0;
  options.paged_base = true;
  auto live = LiveIndex::Open(dir, TestParams(), options, seed.get());
  ASSERT_TRUE(live.ok()) << live.status();
  EXPECT_TRUE((*live)->BaseIsPaged());
  ASSERT_TRUE((*live)->InsertImage(10, "img", dataset_[10].image).ok());
  ASSERT_TRUE((*live)->DeleteImage(3).ok());
  ASSERT_TRUE((*live)->Merge().ok());
  EXPECT_EQ((*live)->generation(), 2u);
  EXPECT_TRUE((*live)->BaseIsPaged());

  QueryOptions q;
  q.epsilon = 0.09f;
  QueryStats stats;
  ASSERT_TRUE((*live)->RunQuery(dataset_[0].image, q, &stats).ok());
  EXPECT_GT(stats.pages_read, 0);
  EXPECT_EQ(stats.nodes_visited, 0);  // the delta is empty after a merge

  const std::vector<int> ids = {0, 1, 2, 4, 10};
  QueryOptions knn;
  knn.knn_per_region = 4;
  ExpectMatchesOffline(**live, ids, q, "after paged merge");
  ExpectMatchesOffline(**live, ids, knn, "knn after paged merge");
  std::vector<std::vector<QueryMatch>> before;
  for (size_t i = 0; i < dataset_.size(); i += 3) {
    auto answer = (*live)->RunQuery(dataset_[i].image, q);
    ASSERT_TRUE(answer.ok()) << answer.status();
    before.push_back(*answer);
  }

  live->reset();
  auto reopened = LiveIndex::Open(dir, TestParams(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_TRUE((*reopened)->BaseIsPaged());
  for (size_t i = 0, n = 0; i < dataset_.size(); i += 3, ++n) {
    auto answer = (*reopened)->RunQuery(dataset_[i].image, q);
    ASSERT_TRUE(answer.ok()) << answer.status();
    ExpectIdenticalRankings(before[n], *answer,
                            "reopen query " + std::to_string(i));
  }
}

TEST_F(LiveIndexTest, BackgroundMergeTriggersAtThreshold) {
  std::string dir = FreshDir("live_auto_merge");
  LiveIndex::Options options;
  options.merge_threshold = 3;
  auto live = LiveIndex::Open(dir, TestParams(), options);
  ASSERT_TRUE(live.ok()) << live.status();
  for (int id = 0; id < 5; ++id) {
    ASSERT_TRUE((*live)
                    ->InsertImage(static_cast<uint64_t>(id), "img",
                                  dataset_[static_cast<size_t>(id)].image)
                    .ok());
  }
  (*live)->WaitForMerge();
  EXPECT_GE((*live)->IngestStatsSnapshot().merges, 1u);
  EXPECT_GE((*live)->generation(), 2u);
  EXPECT_EQ((*live)->ImageCount(), 5u);

  QueryOptions q;
  q.epsilon = 0.09f;
  ExpectMatchesOffline(**live, {0, 1, 2, 3, 4}, q, "after auto merge");
}

TEST_F(LiveIndexTest, ResultCacheIsInvalidatedByMutations) {
  std::string dir = FreshDir("live_cache");
  std::unique_ptr<WalrusIndex> seed = BuildOffline({0, 1, 2});
  LiveIndex::Options options;
  options.cache_capacity = 8;
  options.merge_threshold = 0;
  auto live = LiveIndex::Open(dir, TestParams(), options, seed.get());
  ASSERT_TRUE(live.ok()) << live.status();

  QueryOptions q;
  q.epsilon = 0.09f;
  QueryStats stats;
  ASSERT_TRUE((*live)->RunQuery(dataset_[0].image, q, &stats).ok());
  EXPECT_FALSE(stats.result_cache_hit);
  ASSERT_TRUE((*live)->RunQuery(dataset_[0].image, q, &stats).ok());
  EXPECT_TRUE(stats.result_cache_hit);

  // The mutation wipes the cache; the next query recomputes against the
  // new live set and must see the inserted image.
  ASSERT_TRUE((*live)->InsertImage(0xB0, "img", dataset_[0].image).ok());
  auto matches = (*live)->RunQuery(dataset_[0].image, q, &stats);
  ASSERT_TRUE(matches.ok());
  EXPECT_FALSE(stats.result_cache_hit);
  bool found = false;
  for (const QueryMatch& m : *matches) found |= m.image_id == 0xB0;
  EXPECT_TRUE(found) << "post-insert query missed the new image";
}

TEST_F(LiveIndexTest, ManifestRoundTripAndCorruptionDetection) {
  std::string dir = FreshDir("live_manifest");
  EXPECT_EQ(ReadLiveManifest(dir).status().code(), StatusCode::kNotFound);

  LiveManifest manifest;
  manifest.generation = 7;
  manifest.last_lsn = 123;
  manifest.num_shards = 4;
  manifest.paged = true;
  ASSERT_TRUE(WriteLiveManifest(dir, manifest).ok());
  auto read = ReadLiveManifest(dir);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->generation, 7u);
  EXPECT_EQ(read->last_lsn, 123u);
  EXPECT_EQ(read->num_shards, 4u);
  EXPECT_TRUE(read->paged);

  // A flipped byte breaks the checksum.
  std::string path = dir + "/MANIFEST";
  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 9, SEEK_SET);
  std::fputc(0x5A, f);
  std::fclose(f);
  EXPECT_EQ(ReadLiveManifest(dir).status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace walrus
