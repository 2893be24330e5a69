// Micro-benchmarks for the R*-tree substrate: insertion throughput, range
// probes at WALRUS's 12 dimensions (the epsilon-envelope probe of section
// 5.4), and nearest-neighbor search.

#include <vector>

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "spatial/rstar_tree.h"

namespace walrus {
namespace {

std::vector<float> RandomPoint(Rng* rng, int dim) {
  std::vector<float> p(dim);
  for (float& v : p) v = rng->NextFloat();
  return p;
}

void BM_RStarInsert(benchmark::State& state) {
  int dim = static_cast<int>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    RStarTree tree(dim);
    std::vector<std::vector<float>> points;
    for (int i = 0; i < 2000; ++i) points.push_back(RandomPoint(&rng, dim));
    state.ResumeTiming();
    for (int i = 0; i < 2000; ++i) {
      tree.Insert(Rect::Point(points[i]), static_cast<uint64_t>(i));
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_RStarInsert)->Arg(2)->Arg(12);

void BM_RStarRangeProbe(benchmark::State& state) {
  int dim = 12;
  int n = static_cast<int>(state.range(0));
  Rng rng(2);
  RStarTree tree(dim);
  for (int i = 0; i < n; ++i) {
    tree.Insert(Rect::Point(RandomPoint(&rng, dim)),
                static_cast<uint64_t>(i));
  }
  float eps = 0.085f;  // the paper's retrieval epsilon
  std::vector<std::vector<float>> queries;
  for (int i = 0; i < 64; ++i) queries.push_back(RandomPoint(&rng, dim));
  size_t qi = 0;
  for (auto _ : state) {
    Rect probe = Rect::Point(queries[qi]).Expanded(eps);
    qi = (qi + 1) % queries.size();
    benchmark::DoNotOptimize(tree.RangeSearch(probe));
  }
}
BENCHMARK(BM_RStarRangeProbe)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_RStarNearestNeighbors(benchmark::State& state) {
  int dim = 12;
  Rng rng(3);
  RStarTree tree(dim);
  for (int i = 0; i < 20000; ++i) {
    tree.Insert(Rect::Point(RandomPoint(&rng, dim)),
                static_cast<uint64_t>(i));
  }
  std::vector<float> q = RandomPoint(&rng, dim);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.NearestNeighbors(q, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_RStarNearestNeighbors)->Arg(1)->Arg(10)->Arg(100);

void BM_RStarSplitPolicy(benchmark::State& state) {
  // Build + probe under each split policy (0 = R*, 1 = quadratic/no
  // reinsert). Clustered data emphasizes split quality.
  RStarParams params;
  if (state.range(0) == 1) {
    params.split_policy = SplitPolicy::kQuadratic;
    params.use_forced_reinsert = false;
  }
  Rng rng(11);
  RStarTree tree(2, params);
  for (int i = 0; i < 20000; ++i) {
    int blob = rng.NextInt(0, 49);
    std::vector<float> p = {(blob % 7) / 7.0f + 0.04f * rng.NextFloat(),
                            (blob / 7) / 7.0f + 0.04f * rng.NextFloat()};
    tree.Insert(Rect::Point(p), static_cast<uint64_t>(i));
  }
  std::vector<Rect> probes;
  for (int i = 0; i < 64; ++i) {
    std::vector<float> lo = {rng.NextFloat() * 0.9f, rng.NextFloat() * 0.9f};
    probes.push_back(Rect::Bounds(lo, {lo[0] + 0.06f, lo[1] + 0.06f}));
  }
  size_t qi = 0;
  int64_t nodes = 0;
  int64_t queries = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.RangeSearch(probes[qi]));
    nodes += tree.last_nodes_visited();
    ++queries;
    qi = (qi + 1) % probes.size();
  }
  state.SetLabel(state.range(0) == 1 ? "quadratic" : "rstar");
  state.counters["nodes/query"] =
      static_cast<double>(nodes) / std::max<int64_t>(1, queries);
}
BENCHMARK(BM_RStarSplitPolicy)->Arg(0)->Arg(1);

}  // namespace
}  // namespace walrus

BENCHMARK_MAIN();
