#include "core/query.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/sharded_index.h"
#include "image/synth.h"
#include "image/transform.h"

namespace walrus {
namespace {

WalrusParams TestParams() {
  WalrusParams p;
  p.min_window = 16;
  p.max_window = 16;
  p.slide_step = 8;
  return p;
}

ImageF TwoTone(const Color3& left, const Color3& right) {
  ImageF img = MakeSolid(64, 64, left);
  ImageF half = MakeSolid(32, 64, right);
  Composite(&img, half, 32, 0);
  return img;
}

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    index_ = std::make_unique<WalrusIndex>(TestParams());
    // 1: all red; 2: all green; 3: red|blue split; 4: all gray.
    ASSERT_TRUE(
        index_->AddImage(1, "red", MakeSolid(64, 64, {0.9f, 0.1f, 0.1f})).ok());
    ASSERT_TRUE(
        index_->AddImage(2, "green", MakeSolid(64, 64, {0.1f, 0.8f, 0.1f}))
            .ok());
    ASSERT_TRUE(index_->AddImage(3, "redblue",
                                 TwoTone({0.9f, 0.1f, 0.1f}, {0.1f, 0.1f, 0.9f}))
                    .ok());
    ASSERT_TRUE(
        index_->AddImage(4, "gray", MakeSolid(64, 64, {0.5f, 0.5f, 0.5f}))
            .ok());
  }

  std::unique_ptr<WalrusIndex> index_;
};

TEST_F(QueryTest, ExactDuplicateRanksFirstWithFullSimilarity) {
  QueryOptions options;
  options.epsilon = 0.05f;
  QueryStats stats;
  Result<std::vector<QueryMatch>> matches = ExecuteQuery(
      *index_, MakeSolid(64, 64, {0.9f, 0.1f, 0.1f}), options, &stats);
  ASSERT_TRUE(matches.ok()) << matches.status();
  ASSERT_FALSE(matches->empty());
  EXPECT_EQ((*matches)[0].image_id, 1u);
  EXPECT_NEAR((*matches)[0].similarity, 1.0, 1e-9);
  EXPECT_GT(stats.query_regions, 0);
  EXPECT_GT(stats.seconds, 0.0);
}

TEST_F(QueryTest, PartialRegionMatchScoresPartialSimilarity) {
  // All-red query vs the red|blue image: the red half matches.
  QueryOptions options;
  options.epsilon = 0.05f;
  Result<std::vector<QueryMatch>> matches =
      ExecuteQuery(*index_, MakeSolid(64, 64, {0.9f, 0.1f, 0.1f}), options);
  ASSERT_TRUE(matches.ok());
  bool found = false;
  for (const QueryMatch& m : *matches) {
    if (m.image_id == 3) {
      found = true;
      EXPECT_GT(m.similarity, 0.3);
      EXPECT_LT(m.similarity, 0.95);
    }
    EXPECT_NE(m.image_id, 2u);  // green never matches a red query
  }
  EXPECT_TRUE(found);
}

TEST_F(QueryTest, TauThresholdFilters) {
  QueryOptions options;
  options.epsilon = 0.05f;
  options.tau = 0.9;
  Result<std::vector<QueryMatch>> matches =
      ExecuteQuery(*index_, MakeSolid(64, 64, {0.9f, 0.1f, 0.1f}), options);
  ASSERT_TRUE(matches.ok());
  for (const QueryMatch& m : *matches) {
    EXPECT_GE(m.similarity, 0.9);
  }
}

TEST_F(QueryTest, TopKTruncates) {
  QueryOptions options;
  options.epsilon = 0.5f;  // generous: everything matches
  options.top_k = 2;
  Result<std::vector<QueryMatch>> matches =
      ExecuteQuery(*index_, MakeSolid(64, 64, {0.5f, 0.4f, 0.4f}), options);
  ASSERT_TRUE(matches.ok());
  EXPECT_LE(matches->size(), 2u);
}

TEST_F(QueryTest, LargerEpsilonRetrievesMore) {
  // Table 1 behaviour: retrieved regions and distinct images grow with
  // epsilon.
  int64_t prev_regions = -1;
  int prev_images = -1;
  for (float eps : {0.02f, 0.1f, 0.3f, 0.8f}) {
    QueryOptions options;
    options.epsilon = eps;
    QueryStats stats;
    Result<std::vector<QueryMatch>> matches = ExecuteQuery(
        *index_, MakeSolid(64, 64, {0.6f, 0.3f, 0.3f}), options, &stats);
    ASSERT_TRUE(matches.ok());
    EXPECT_GE(stats.regions_retrieved, prev_regions) << eps;
    EXPECT_GE(stats.distinct_images, prev_images) << eps;
    prev_regions = stats.regions_retrieved;
    prev_images = stats.distinct_images;
  }
}

TEST_F(QueryTest, GreedyNeverExceedsQuick) {
  QueryOptions quick_options;
  quick_options.epsilon = 0.3f;
  quick_options.matcher = MatcherKind::kQuick;
  QueryOptions greedy_options = quick_options;
  greedy_options.matcher = MatcherKind::kGreedy;

  ImageF query = TwoTone({0.9f, 0.1f, 0.1f}, {0.1f, 0.8f, 0.1f});
  Result<std::vector<QueryMatch>> quick =
      ExecuteQuery(*index_, query, quick_options);
  Result<std::vector<QueryMatch>> greedy =
      ExecuteQuery(*index_, query, greedy_options);
  ASSERT_TRUE(quick.ok() && greedy.ok());
  for (const QueryMatch& g : *greedy) {
    for (const QueryMatch& q : *quick) {
      if (g.image_id == q.image_id) {
        EXPECT_LE(g.similarity, q.similarity + 1e-9) << g.image_id;
      }
    }
  }
}

TEST_F(QueryTest, StatsAverageConsistent) {
  QueryOptions options;
  options.epsilon = 0.2f;
  QueryStats stats;
  Result<std::vector<QueryMatch>> matches = ExecuteQuery(
      *index_, MakeSolid(64, 64, {0.6f, 0.3f, 0.3f}), options, &stats);
  ASSERT_TRUE(matches.ok());
  if (stats.query_regions > 0) {
    EXPECT_NEAR(stats.avg_regions_per_query_region,
                static_cast<double>(stats.regions_retrieved) /
                    stats.query_regions,
                1e-9);
  }
  EXPECT_GE(stats.distinct_images, static_cast<int>(matches->size()));
}

TEST_F(QueryTest, BoundingBoxSignatureModeWorks) {
  WalrusParams p = TestParams();
  p.signature_kind = RegionSignatureKind::kBoundingBox;
  WalrusIndex index(p);
  ASSERT_TRUE(
      index.AddImage(1, "red", MakeSolid(64, 64, {0.9f, 0.1f, 0.1f})).ok());
  ASSERT_TRUE(
      index.AddImage(2, "green", MakeSolid(64, 64, {0.1f, 0.8f, 0.1f})).ok());
  QueryOptions options;
  options.epsilon = 0.05f;
  Result<std::vector<QueryMatch>> matches =
      ExecuteQuery(index, MakeSolid(64, 64, {0.9f, 0.1f, 0.1f}), options);
  ASSERT_TRUE(matches.ok());
  ASSERT_FALSE(matches->empty());
  EXPECT_EQ((*matches)[0].image_id, 1u);
  EXPECT_NEAR((*matches)[0].similarity, 1.0, 1e-9);
}

TEST_F(QueryTest, NonFiniteOrNegativeOptionsAreRejected) {
  // A NaN epsilon used to reach the probe: the exact test rejected every
  // pair while the prefilter's integer threshold was undefined, so the same
  // query ranked differently with the prefilter on and off. Every entry
  // point now refuses it identically, whichever probe path is selected.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<QueryOptions> bad;
  for (float eps : {nan, inf, -inf, -0.01f}) {
    QueryOptions o;
    o.epsilon = eps;
    bad.push_back(o);
    o = QueryOptions();
    o.refined_epsilon = eps;
    bad.push_back(o);
  }
  QueryOptions o;
  o.tau = std::nan("");
  bad.push_back(o);
  o = QueryOptions();
  o.top_k = -1;
  bad.push_back(o);
  o = QueryOptions();
  o.knn_per_region = -3;
  bad.push_back(o);

  ShardedIndex::Options shard_options;
  shard_options.num_shards = 2;
  auto sharded = ShardedIndex::Partition(*index_, shard_options);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  const ImageF query = MakeSolid(64, 64, {0.9f, 0.1f, 0.1f});
  for (size_t i = 0; i < bad.size(); ++i) {
    EXPECT_EQ(ValidateQueryOptions(bad[i]).code(),
              StatusCode::kInvalidArgument)
        << i;
    for (bool prefilter : {true, false}) {
      QueryOptions options = bad[i];
      options.signature_prefilter = prefilter;
      auto single = ExecuteQuery(*index_, query, options);
      EXPECT_EQ(single.status().code(), StatusCode::kInvalidArgument)
          << i << " prefilter=" << prefilter;
      auto regions = ExecuteQueryWithRegions(*index_, {}, 1.0, options);
      EXPECT_EQ(regions.status().code(), StatusCode::kInvalidArgument) << i;
      auto shards = sharded->RunQuery(query, options, nullptr);
      EXPECT_EQ(shards.status().code(), StatusCode::kInvalidArgument) << i;
    }
  }
  // The defaults and the documented "off" values stay valid.
  QueryOptions off;
  off.top_k = 0;
  off.knn_per_region = 0;
  off.epsilon = 0.0f;
  EXPECT_TRUE(ValidateQueryOptions(off).ok());
  EXPECT_TRUE(ExecuteQuery(*index_, query, off).ok());
}

TEST_F(QueryTest, QueryAgainstTranslatedObject) {
  // Object translated within the image still matches: the motivating
  // Figure 1 scenario at small scale.
  WalrusParams p = TestParams();
  p.slide_step = 4;
  WalrusIndex index(p);
  ImageF base = MakeSolid(64, 64, {0.2f, 0.6f, 0.2f});
  ImageF with_object_left = base;
  Composite(&with_object_left, MakeSolid(24, 24, {0.9f, 0.15f, 0.1f}), 4, 20);
  ImageF with_object_right = base;
  Composite(&with_object_right, MakeSolid(24, 24, {0.9f, 0.15f, 0.1f}), 36,
            20);
  ImageF unrelated = MakeSolid(64, 64, {0.2f, 0.2f, 0.7f});
  ASSERT_TRUE(index.AddImage(1, "right", with_object_right).ok());
  ASSERT_TRUE(index.AddImage(2, "unrelated", unrelated).ok());

  QueryOptions options;
  options.epsilon = 0.1f;
  Result<std::vector<QueryMatch>> matches =
      ExecuteQuery(index, with_object_left, options);
  ASSERT_TRUE(matches.ok());
  ASSERT_FALSE(matches->empty());
  EXPECT_EQ((*matches)[0].image_id, 1u);
  EXPECT_GT((*matches)[0].similarity, 0.5);
}

}  // namespace
}  // namespace walrus
