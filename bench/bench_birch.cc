// Micro-benchmarks for the clustering substrate: BIRCH pre-clustering
// throughput at WALRUS's 12-dimensional window signatures (section 5.3
// requires near-linear clustering) and k-means for comparison.
//
// BM_BirchScene* run at query scale: the 6561 window signatures of one
// generated 384x384 scene at slide step 4, which BIRCH folds into 108
// subclusters. Insert is the CF-tree pass alone, Assign the final
// nearest-subcluster pass alone, Total the whole BirchPreCluster call.

#include <vector>

#include <benchmark/benchmark.h>

#include "cluster/birch.h"
#include "cluster/cf_tree.h"
#include "cluster/kmeans.h"
#include "common/random.h"
#include "core/params.h"
#include "core/signature.h"
#include "image/dataset.h"

namespace walrus {
namespace {

std::vector<float> BlobData(int n, int dim, int blobs, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> points;
  points.reserve(static_cast<size_t>(n) * dim);
  std::vector<std::vector<float>> centers;
  for (int b = 0; b < blobs; ++b) {
    std::vector<float> c(dim);
    for (float& v : c) v = rng.NextFloat();
    centers.push_back(c);
  }
  for (int i = 0; i < n; ++i) {
    const std::vector<float>& c = centers[i % blobs];
    for (int d = 0; d < dim; ++d) {
      points.push_back(c[d] + 0.03f * (rng.NextFloat() - 0.5f));
    }
  }
  return points;
}

void BM_BirchPreCluster(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::vector<float> points = BlobData(n, 12, 12, 7);
  BirchParams params;
  params.threshold = 0.05;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BirchPreCluster(points.data(), n, 12, params));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BirchPreCluster)->Arg(300)->Arg(3000)->Arg(30000);

void BM_BirchThresholdSweep(benchmark::State& state) {
  std::vector<float> points = BlobData(3000, 12, 12, 8);
  double threshold = state.range(0) / 1000.0;
  BirchParams params;
  params.threshold = threshold;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BirchPreCluster(points.data(), 3000, 12, params));
  }
}
BENCHMARK(BM_BirchThresholdSweep)->Arg(25)->Arg(50)->Arg(100);

/// Window signatures of one generated 384x384 scene at slide step 4 (the
/// held-out query size of the end-to-end benchmark), plus the BIRCH
/// parameters extraction uses.
struct SceneWindows {
  WindowSignatureSet set;
  BirchParams params;

  static const SceneWindows& Get() {
    static const SceneWindows scene = [] {
      DatasetParams dataset;
      dataset.width = 384;
      dataset.height = 384;
      Rng rng(114);
      LabeledImage image =
          GenerateScene(14, static_cast<ObjectClass>(2), dataset, &rng);
      WalrusParams params;
      params.slide_step = 4;
      SceneWindows s;
      s.set = ComputeWindowSignatures(image.image, params).value();
      s.params.threshold = params.cluster_epsilon;
      s.params.branching = params.birch_branching;
      s.params.leaf_entries = params.birch_leaf_entries;
      return s;
    }();
    return scene;
  }
};

void BM_BirchSceneInsert(benchmark::State& state) {
  const SceneWindows& scene = SceneWindows::Get();
  const int n = scene.set.Count();
  for (auto _ : state) {
    CfTree tree(scene.set.dim, scene.params.threshold, scene.params.branching,
                scene.params.leaf_entries);
    for (int i = 0; i < n; ++i) tree.InsertPoint(scene.set.SignatureAt(i));
    benchmark::DoNotOptimize(tree.leaf_cluster_count());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BirchSceneInsert)->Unit(benchmark::kMicrosecond);

void BM_BirchSceneAssign(benchmark::State& state) {
  const SceneWindows& scene = SceneWindows::Get();
  const int n = scene.set.Count();
  const std::vector<std::vector<float>> centroids =
      BirchPreCluster(scene.set.signatures.data(), n, scene.set.dim,
                      scene.params)
          .centroids;
  for (auto _ : state) {
    benchmark::DoNotOptimize(AssignNearestCentroids(
        scene.set.signatures.data(), n, scene.set.dim, centroids));
  }
  state.counters["subclusters"] = static_cast<double>(centroids.size());
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BirchSceneAssign)->Unit(benchmark::kMicrosecond);

void BM_BirchSceneTotal(benchmark::State& state) {
  const SceneWindows& scene = SceneWindows::Get();
  const int n = scene.set.Count();
  for (auto _ : state) {
    benchmark::DoNotOptimize(BirchPreCluster(scene.set.signatures.data(), n,
                                             scene.set.dim, scene.params));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BirchSceneTotal)->Unit(benchmark::kMicrosecond);

void BM_KMeans(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::vector<float> points = BlobData(n, 12, 12, 9);
  KMeansParams params;
  params.k = 12;
  for (auto _ : state) {
    benchmark::DoNotOptimize(KMeansCluster(points.data(), n, 12, params));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KMeans)->Arg(300)->Arg(3000);

}  // namespace
}  // namespace walrus

BENCHMARK_MAIN();
