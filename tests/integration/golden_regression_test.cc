#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/simd.h"
#include "common/status.h"
#include "core/index.h"
#include "core/query.h"
#include "core/query_engine.h"
#include "core/sharded_index.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "image/dataset.h"
#include "wal/live_index.h"

// Golden file checked into the repo; the build injects its source-tree path
// so the test can both read it and regenerate it in place.
#ifndef WALRUS_GOLDEN_FILE
#define WALRUS_GOLDEN_FILE "retrieval_golden.txt"
#endif

namespace walrus {
namespace {

/// Retrieval-regression suite: runs a pinned query workload over a
/// deterministic synthetic corpus and compares ranking-quality metrics
/// against a checked-in golden file. Rank-based metrics (precision, recall,
/// AP, NDCG, self-rank) are stable under tiny floating-point drift, so any
/// delta here means the retrieval behavior itself changed — a refactor
/// reordered results, a matcher scored differently, an index pruned harder.
///
/// To re-pin after an intentional behavior change:
///   WALRUS_UPDATE_GOLDEN=1 ./walrus_slow_tests
/// then review and commit the diff of the golden file like any other code.
constexpr int kNumQueries = 12;
constexpr int kPrecisionK = 5;
constexpr int kRecallK = 10;

class GoldenRegressionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetParams dp;
    dp.num_images = 36;
    dp.width = 96;
    dp.height = 96;
    dp.seed = 20260806;  // fixed forever: the corpus IS the contract
    dp.min_dominant = 1;
    dp.max_dominant = 2;
    dataset_ = new std::vector<LabeledImage>(GenerateDataset(dp));
    truth_ = new GroundTruth(*dataset_);

    WalrusParams wp;
    wp.min_window = 16;
    wp.max_window = 64;
    wp.slide_step = 8;
    wp.cluster_epsilon = 0.05;
    index_ = new WalrusIndex(wp);
    // Serial insertion: index layout (and thus tie-breaking inside the
    // R*-tree) must not depend on thread scheduling.
    for (const LabeledImage& scene : *dataset_) {
      ASSERT_TRUE(index_
                      ->AddImage(static_cast<uint64_t>(scene.id),
                                 "scene_" + std::to_string(scene.id),
                                 scene.image)
                      .ok());
    }
  }

  static void TearDownTestSuite() {
    delete index_;
    delete truth_;
    delete dataset_;
    index_ = nullptr;
    truth_ = nullptr;
    dataset_ = nullptr;
  }

  static std::vector<LabeledImage>* dataset_;
  static GroundTruth* truth_;
  static WalrusIndex* index_;
};

std::vector<LabeledImage>* GoldenRegressionTest::dataset_ = nullptr;
GroundTruth* GoldenRegressionTest::truth_ = nullptr;
WalrusIndex* GoldenRegressionTest::index_ = nullptr;

/// Ordered so the golden file (and its diffs) stay stable and reviewable.
using MetricMap = std::map<std::string, double>;

std::string Key(int query_id, const char* metric) {
  std::ostringstream out;
  out << "query_" << query_id << "." << metric;
  return out.str();
}

/// Runs the pinned workload and computes every golden metric.
MetricMap ComputeActualMetrics(const QueryEngine& engine,
                               const std::vector<LabeledImage>& dataset,
                               const GroundTruth& truth) {
  QueryOptions options;
  options.epsilon = 0.085f;

  MetricMap actual;
  std::vector<double> precisions, recalls, aps, ndcgs;
  for (int id = 0; id < kNumQueries; ++id) {
    Result<std::vector<QueryMatch>> matches =
        engine.RunQuery(dataset[id].image, options);
    EXPECT_TRUE(matches.ok()) << matches.status();
    if (!matches.ok()) continue;

    // Self-rank (1-based; 0 = self not retrieved) is the most sensitive
    // single indicator: self should win, and losing that is a bug even
    // when the aggregate metrics barely move.
    double self_rank = 0.0;
    std::vector<uint64_t> retrieved;
    for (const QueryMatch& m : *matches) {
      if (m.image_id == static_cast<uint64_t>(id)) {
        if (self_rank == 0.0) {
          self_rank = static_cast<double>(retrieved.size()) + 1.0;
        }
        continue;
      }
      retrieved.push_back(m.image_id);
    }

    RelevanceFn relevant = truth.ForQuery(id);
    int total_relevant = truth.RelevantCount(id);
    double p = PrecisionAtK(retrieved, relevant,
                            kPrecisionK);
    double r = RecallAtK(retrieved, relevant,
                         kRecallK, total_relevant);
    double ap = AveragePrecision(retrieved, relevant, total_relevant);
    double ndcg = NdcgAtK(retrieved, relevant,
                          kRecallK, total_relevant);

    actual[Key(id, "precision_at_5")] = p;
    actual[Key(id, "recall_at_10")] = r;
    actual[Key(id, "average_precision")] = ap;
    actual[Key(id, "ndcg_at_10")] = ndcg;
    actual[Key(id, "self_rank")] = self_rank;
    actual[Key(id, "results")] = static_cast<double>(matches->size());
    precisions.push_back(p);
    recalls.push_back(r);
    aps.push_back(ap);
    ndcgs.push_back(ndcg);
  }
  actual["mean.precision_at_5"] = MeanOf(precisions);
  actual["mean.recall_at_10"] = MeanOf(recalls);
  actual["mean.average_precision"] = MeanOf(aps);
  actual["mean.ndcg_at_10"] = MeanOf(ndcgs);
  return actual;
}

/// Golden format: one `key value` pair per line; '#' starts a comment.
Result<MetricMap> LoadGolden(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("golden file missing: " + path);
  MetricMap golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    double value = 0.0;
    if (!(fields >> key >> value)) {
      return Status::Corruption("unparseable golden line: " + line);
    }
    golden[key] = value;
  }
  return golden;
}

void WriteGolden(const std::string& path, const MetricMap& metrics) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << "cannot write golden file: " << path;
  out << "# Pinned retrieval-quality metrics for the golden regression\n"
         "# workload (36 synthetic images, seed 20260806, epsilon 0.085,\n"
         "# 12 queries). Regenerate with WALRUS_UPDATE_GOLDEN=1 after an\n"
         "# intentional retrieval-behavior change and review the diff.\n";
  char buffer[64];
  for (const auto& [key, value] : metrics) {
    std::snprintf(buffer, sizeof(buffer), "%.9f", value);
    out << key << " " << buffer << "\n";
  }
}

TEST_F(GoldenRegressionTest, RetrievalMetricsMatchGolden) {
  const std::string golden_path = WALRUS_GOLDEN_FILE;
  SingleIndexEngine engine(*index_);
  MetricMap actual = ComputeActualMetrics(engine, *dataset_, *truth_);
  ASSERT_FALSE(actual.empty());

  if (std::getenv("WALRUS_UPDATE_GOLDEN") != nullptr) {
    WriteGolden(golden_path, actual);
    GTEST_SKIP() << "golden file regenerated at " << golden_path
                 << "; review and commit the diff";
  }

  Result<MetricMap> golden = LoadGolden(golden_path);
  ASSERT_TRUE(golden.ok())
      << golden.status() << "\nRun with WALRUS_UPDATE_GOLDEN=1 to create it.";

  // Build one readable diff instead of failing on the first key: a real
  // regression usually moves several metrics and the pattern matters.
  constexpr double kTolerance = 1e-6;
  std::ostringstream diff;
  int mismatches = 0;
  for (const auto& [key, expected] : *golden) {
    auto it = actual.find(key);
    if (it == actual.end()) {
      diff << "  " << key << ": golden=" << expected
           << "  actual=<missing>\n";
      ++mismatches;
      continue;
    }
    if (std::abs(it->second - expected) > kTolerance) {
      char line[160];
      std::snprintf(line, sizeof(line),
                    "  %s: golden=%.9f  actual=%.9f  (delta=%+.9f)\n",
                    key.c_str(), expected, it->second,
                    it->second - expected);
      diff << line;
      ++mismatches;
    }
  }
  for (const auto& [key, value] : actual) {
    if (golden->find(key) == golden->end()) {
      diff << "  " << key << ": golden=<missing>  actual=" << value << "\n";
      ++mismatches;
    }
  }

  EXPECT_EQ(mismatches, 0)
      << "Retrieval metrics drifted from " << golden_path << ":\n"
      << diff.str()
      << "If this change is intentional, regenerate with "
         "WALRUS_UPDATE_GOLDEN=1 and commit the updated golden file.";
}

/// The sharded engine must reproduce the golden metrics bit-for-bit: its
/// rankings are byte-identical to the single index by construction
/// (core/sharded_index.h), so the SAME golden file is its acceptance
/// harness. WALRUS_GOLDEN_SHARDS overrides the shard count (default 4).
TEST_F(GoldenRegressionTest, ShardedRetrievalMetricsMatchGolden) {
  int num_shards = 4;
  if (const char* env = std::getenv("WALRUS_GOLDEN_SHARDS")) {
    num_shards = std::atoi(env);
    ASSERT_GE(num_shards, 1);
  }
  ShardedIndex::Options options;
  options.num_shards = num_shards;
  Result<ShardedIndex> sharded = ShardedIndex::Partition(*index_, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status();

  SingleIndexEngine single(*index_);
  MetricMap expected = ComputeActualMetrics(single, *dataset_, *truth_);
  MetricMap actual = ComputeActualMetrics(*sharded, *dataset_, *truth_);
  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [key, value] : expected) {
    auto it = actual.find(key);
    ASSERT_NE(it, actual.end()) << key;
    // Exact equality, not a tolerance: sharding must not move a single bit.
    EXPECT_EQ(it->second, value) << key << " (shards=" << num_shards << ")";
  }

  Result<MetricMap> golden = LoadGolden(WALRUS_GOLDEN_FILE);
  if (golden.ok()) {
    constexpr double kTolerance = 1e-6;
    for (const auto& [key, value] : *golden) {
      auto it = actual.find(key);
      ASSERT_NE(it, actual.end()) << key;
      EXPECT_NEAR(it->second, value, kTolerance)
          << key << " (shards=" << num_shards << ")";
    }
  }
}

std::string FreshLiveDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  std::string command = "rm -rf " + dir;
  if (std::system(command.c_str()) != 0) ADD_FAILURE() << "cleanup failed";
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

/// Live-ingest acceptance (DESIGN.md section 14): seed a live index with
/// two thirds of the golden corpus, ingest the rest online — including a
/// delete + re-insert and a mid-stream durable merge — and require the
/// pinned workload's metrics to match an offline build of all 36 images
/// EXACTLY. Online arrival order, WAL replay framing, tombstone filtering,
/// and base/delta composition must not move a single bit.
void RunLiveIngestGoldenCheck(int num_shards, const char* dir_name,
                              const std::vector<LabeledImage>& dataset,
                              const GroundTruth& truth,
                              const WalrusIndex& offline) {
  constexpr size_t kSeedImages = 24;
  WalrusIndex seed(offline.params());
  for (size_t i = 0; i < kSeedImages; ++i) {
    const LabeledImage& scene = dataset[i];
    ASSERT_TRUE(seed.AddImage(static_cast<uint64_t>(scene.id),
                              "scene_" + std::to_string(scene.id), scene.image)
                    .ok());
  }

  LiveIndex::Options options;
  options.num_shards = num_shards;
  options.merge_threshold = 0;  // merges happen only where the test says
  auto live =
      LiveIndex::Open(FreshLiveDir(dir_name), offline.params(), options, &seed);
  ASSERT_TRUE(live.ok()) << live.status();

  for (size_t i = kSeedImages; i < dataset.size(); ++i) {
    const LabeledImage& scene = dataset[i];
    ASSERT_TRUE((*live)
                    ->InsertImage(static_cast<uint64_t>(scene.id),
                                  "scene_" + std::to_string(scene.id),
                                  scene.image)
                    .ok());
    if (i == kSeedImages + 5) {
      // A base image leaves and comes back through the tombstone path...
      ASSERT_TRUE((*live)->DeleteImage(7).ok());
      ASSERT_TRUE((*live)
                      ->InsertImage(7, "scene_7", dataset[7].image)
                      .ok());
      // ...then everything so far is folded into base generation 2, so the
      // remaining inserts land in a fresh delta on top of a merged base.
      ASSERT_TRUE((*live)->Merge().ok());
    }
  }
  ASSERT_EQ((*live)->ImageCount(), dataset.size());

  SingleIndexEngine single(offline);
  MetricMap expected = ComputeActualMetrics(single, dataset, truth);
  MetricMap actual = ComputeActualMetrics(**live, dataset, truth);
  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [key, value] : expected) {
    auto it = actual.find(key);
    ASSERT_NE(it, actual.end()) << key;
    // Exact equality: live ingest must not move a single bit.
    EXPECT_EQ(it->second, value) << key << " (shards=" << num_shards << ")";
  }

  Result<MetricMap> golden = LoadGolden(WALRUS_GOLDEN_FILE);
  if (golden.ok()) {
    constexpr double kTolerance = 1e-6;
    for (const auto& [key, value] : *golden) {
      auto it = actual.find(key);
      ASSERT_NE(it, actual.end()) << key;
      EXPECT_NEAR(it->second, value, kTolerance)
          << key << " (shards=" << num_shards << ")";
    }
  }
}

TEST_F(GoldenRegressionTest, LiveIngestRetrievalMetricsMatchGolden) {
  RunLiveIngestGoldenCheck(1, "golden_live_single", *dataset_, *truth_,
                           *index_);
}

/// Sharded-base variant: the live composition over a partitioned base must
/// hold the same bit-identity. WALRUS_GOLDEN_SHARDS overrides the count.
TEST_F(GoldenRegressionTest, LiveIngestShardedRetrievalMetricsMatchGolden) {
  int num_shards = 4;
  if (const char* env = std::getenv("WALRUS_GOLDEN_SHARDS")) {
    num_shards = std::atoi(env);
    ASSERT_GE(num_shards, 1);
  }
  RunLiveIngestGoldenCheck(num_shards, "golden_live_sharded", *dataset_,
                           *truth_, *index_);
}

// ---- Signature-prefilter bit-equality (DESIGN.md section 16) ------------
//
// The binary-signature tier is admissible: it may only discard candidates
// the exact epsilon test would reject, so rankings with the prefilter on
// must equal the prefilter-off rankings EXACTLY — same ids, same
// similarities to the last bit, same pair lists — under every engine
// composition and at every SIMD dispatch level.

std::vector<std::vector<QueryMatch>> RunPrefilterWorkload(
    const QueryEngine& engine, const std::vector<LabeledImage>& dataset,
    bool prefilter) {
  QueryOptions options;
  options.epsilon = 0.085f;
  options.collect_pairs = true;  // compare the full payload
  options.signature_prefilter = prefilter;
  std::vector<std::vector<QueryMatch>> results;
  for (int id = 0; id < kNumQueries; ++id) {
    Result<std::vector<QueryMatch>> matches =
        engine.RunQuery(dataset[id].image, options);
    EXPECT_TRUE(matches.ok()) << matches.status();
    results.push_back(matches.ok() ? std::move(*matches)
                                   : std::vector<QueryMatch>{});
  }
  return results;
}

void ExpectIdenticalResults(const std::vector<std::vector<QueryMatch>>& on,
                            const std::vector<std::vector<QueryMatch>>& off,
                            const char* config) {
  ASSERT_EQ(on.size(), off.size()) << config;
  for (size_t q = 0; q < on.size(); ++q) {
    ASSERT_EQ(on[q].size(), off[q].size()) << config << " query " << q;
    for (size_t m = 0; m < on[q].size(); ++m) {
      const QueryMatch& a = on[q][m];
      const QueryMatch& b = off[q][m];
      EXPECT_EQ(a.image_id, b.image_id) << config << " q" << q << " m" << m;
      // Exact double equality: admissibility is not approximate.
      EXPECT_EQ(a.similarity, b.similarity)
          << config << " q" << q << " m" << m;
      EXPECT_EQ(a.matching_pairs, b.matching_pairs)
          << config << " q" << q << " m" << m;
      EXPECT_EQ(a.pairs_used, b.pairs_used)
          << config << " q" << q << " m" << m;
      ASSERT_EQ(a.pairs.size(), b.pairs.size())
          << config << " q" << q << " m" << m;
      for (size_t p = 0; p < a.pairs.size(); ++p) {
        EXPECT_EQ(a.pairs[p].query_index, b.pairs[p].query_index);
        EXPECT_EQ(a.pairs[p].target_index, b.pairs[p].target_index);
      }
    }
  }
}

TEST_F(GoldenRegressionTest, PrefilterRankingsBitIdenticalSingleIndex) {
  SingleIndexEngine engine(*index_);
  ExpectIdenticalResults(RunPrefilterWorkload(engine, *dataset_, true),
                         RunPrefilterWorkload(engine, *dataset_, false),
                         "single");
}

TEST_F(GoldenRegressionTest, PrefilterRankingsBitIdenticalForcedScalar) {
  // Forcing scalar dispatch exercises the reference Hamming/LB kernels end
  // to end; the results must match the vectorized run bit for bit because
  // every kernel is exactness-contracted (common/simd.h).
  SingleIndexEngine engine(*index_);
  auto native_on = RunPrefilterWorkload(engine, *dataset_, true);
  simd::TestOnlySetIsa(simd::IsaLevel::kScalar);
  auto scalar_on = RunPrefilterWorkload(engine, *dataset_, true);
  auto scalar_off = RunPrefilterWorkload(engine, *dataset_, false);
  simd::TestOnlyResetIsa();
  ExpectIdenticalResults(scalar_on, scalar_off, "scalar on/off");
  ExpectIdenticalResults(native_on, scalar_on, "native/scalar");
}

TEST_F(GoldenRegressionTest, PrefilterRankingsBitIdenticalSharded) {
  ShardedIndex::Options options;
  options.num_shards = 8;
  Result<ShardedIndex> sharded = ShardedIndex::Partition(*index_, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  ExpectIdenticalResults(RunPrefilterWorkload(*sharded, *dataset_, true),
                         RunPrefilterWorkload(*sharded, *dataset_, false),
                         "sharded");
}

TEST_F(GoldenRegressionTest, PrefilterRankingsBitIdenticalLiveIndex) {
  // Live composition: delta signatures are computed on the fly at insert
  // time (no offline build), tombstones mask base copies.
  constexpr size_t kSeedImages = 24;
  WalrusIndex seed(index_->params());
  for (size_t i = 0; i < kSeedImages; ++i) {
    const LabeledImage& scene = (*dataset_)[i];
    ASSERT_TRUE(seed.AddImage(static_cast<uint64_t>(scene.id),
                              "scene_" + std::to_string(scene.id), scene.image)
                    .ok());
  }
  LiveIndex::Options options;
  options.merge_threshold = 0;
  auto live = LiveIndex::Open(FreshLiveDir("golden_prefilter_live"),
                              index_->params(), options, &seed);
  ASSERT_TRUE(live.ok()) << live.status();
  for (size_t i = kSeedImages; i < dataset_->size(); ++i) {
    const LabeledImage& scene = (*dataset_)[i];
    ASSERT_TRUE((*live)
                    ->InsertImage(static_cast<uint64_t>(scene.id),
                                  "scene_" + std::to_string(scene.id),
                                  scene.image)
                    .ok());
  }
  ExpectIdenticalResults(RunPrefilterWorkload(**live, *dataset_, true),
                         RunPrefilterWorkload(**live, *dataset_, false),
                         "live");
}

// ---- Paged backends (DESIGN.md section 19) -------------------------------
//
// A paged index answers from the tree it decoded at open; rankings must
// equal the in-memory index's EXACTLY for a single paged index, an 8-shard
// paged layout and a LiveIndex over a paged base, at native and forced
// scalar dispatch.

TEST_F(GoldenRegressionTest, PagedRankingsBitIdentical) {
  const std::string dir = FreshLiveDir("golden_paged");
  ASSERT_TRUE(index_->SavePaged(dir + "/single").ok());
  Result<WalrusIndex> paged = WalrusIndex::OpenPaged(dir + "/single");
  ASSERT_TRUE(paged.ok()) << paged.status();
  ASSERT_TRUE(paged->is_paged());

  ShardedIndex::Options shard_options;
  shard_options.num_shards = 8;
  Result<ShardedIndex> partitioned =
      ShardedIndex::Partition(*index_, shard_options);
  ASSERT_TRUE(partitioned.ok()) << partitioned.status();
  ASSERT_TRUE(partitioned->Save(dir + "/sharded", /*paged=*/true).ok());
  Result<ShardedIndex> sharded = ShardedIndex::Open(dir + "/sharded");
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  ASSERT_EQ(sharded->num_shards(), 8);
  ASSERT_TRUE(sharded->shard(0).is_paged());

  // Two thirds of the corpus in a paged base, the rest in the delta.
  constexpr size_t kSeedImages = 24;
  WalrusIndex seed(index_->params());
  for (size_t i = 0; i < kSeedImages; ++i) {
    const LabeledImage& scene = (*dataset_)[i];
    ASSERT_TRUE(seed.AddImage(static_cast<uint64_t>(scene.id),
                              "scene_" + std::to_string(scene.id), scene.image)
                    .ok());
  }
  LiveIndex::Options live_options;
  live_options.merge_threshold = 0;
  live_options.paged_base = true;
  ::mkdir((dir + "/live").c_str(), 0755);
  auto live = LiveIndex::Open(dir + "/live", index_->params(), live_options,
                              &seed);
  ASSERT_TRUE(live.ok()) << live.status();
  for (size_t i = kSeedImages; i < dataset_->size(); ++i) {
    const LabeledImage& scene = (*dataset_)[i];
    ASSERT_TRUE((*live)
                    ->InsertImage(static_cast<uint64_t>(scene.id),
                                  "scene_" + std::to_string(scene.id),
                                  scene.image)
                    .ok());
  }

  SingleIndexEngine memory_engine(*index_);
  SingleIndexEngine paged_engine(*paged);
  const auto expected = RunPrefilterWorkload(memory_engine, *dataset_, true);
  for (bool scalar : {false, true}) {
    if (scalar) simd::TestOnlySetIsa(simd::IsaLevel::kScalar);
    const char* isa = scalar ? "scalar" : "native";
    ExpectIdenticalResults(RunPrefilterWorkload(paged_engine, *dataset_, true),
                           expected, isa);
    ExpectIdenticalResults(RunPrefilterWorkload(*sharded, *dataset_, true),
                           expected, isa);
    ExpectIdenticalResults(RunPrefilterWorkload(**live, *dataset_, true),
                           expected, isa);
  }
  simd::TestOnlyResetIsa();
}

/// The workload itself must stay sane regardless of the pinned numbers:
/// self-retrieval is the floor any index build must clear. If this fails,
/// fix retrieval before re-pinning the golden file.
TEST_F(GoldenRegressionTest, WorkloadSanitySelfRetrievalWorks) {
  SingleIndexEngine engine(*index_);
  MetricMap actual = ComputeActualMetrics(engine, *dataset_, *truth_);
  for (int id = 0; id < kNumQueries; ++id) {
    auto it = actual.find(Key(id, "self_rank"));
    ASSERT_NE(it, actual.end());
    EXPECT_GE(it->second, 1.0) << "query " << id << " did not retrieve self";
    EXPECT_LE(it->second, 3.0) << "query " << id << " ranked self too low";
  }
  EXPECT_GT(actual["mean.precision_at_5"], 1.0 / 6);
}

}  // namespace
}  // namespace walrus
