// Micro-benchmarks for the wavelet substrate: 1-D/2-D Haar transforms,
// Daubechies-4, and single-window DP combination. Supports the Figure 6
// experiments by exposing the per-primitive costs.
//
// BM_WindowSignaturesScene is the whole signature stage at query scale:
// ComputeWindowSignatures (YCC conversion, the per-channel DP sweep, the
// normalized signature set) on one generated 384x384 scene at slide step
// 4, for windows 64..64 (arg 64) and 16..64 (arg 16).

#include <vector>

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "core/params.h"
#include "core/signature.h"
#include "image/dataset.h"
#include "wavelet/daubechies.h"
#include "wavelet/haar1d.h"
#include "wavelet/haar2d.h"
#include "wavelet/naive_window.h"
#include "wavelet/sliding_window.h"

namespace walrus {
namespace {

std::vector<float> RandomVector(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = rng.NextFloat();
  return v;
}

SquareMatrix RandomMatrix(int n, uint64_t seed) {
  Rng rng(seed);
  SquareMatrix m(n);
  for (float& x : m.values) x = rng.NextFloat();
  return m;
}

void BM_Haar1D(benchmark::State& state) {
  std::vector<float> input = RandomVector(state.range(0), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HaarTransform1D(input));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Haar1D)->Arg(64)->Arg(1024)->Arg(16384);

void BM_Haar2DNonStandard(benchmark::State& state) {
  SquareMatrix m = RandomMatrix(static_cast<int>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HaarNonStandard2D(m));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(0));
}
BENCHMARK(BM_Haar2DNonStandard)->Arg(16)->Arg(64)->Arg(256);

void BM_Haar2DStandard(benchmark::State& state) {
  SquareMatrix m = RandomMatrix(static_cast<int>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HaarStandard2D(m));
  }
}
BENCHMARK(BM_Haar2DStandard)->Arg(64)->Arg(256);

void BM_Daub4Transform2D(benchmark::State& state) {
  SquareMatrix m = RandomMatrix(128, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Daub4Transform2D(m, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_Daub4Transform2D)->Arg(1)->Arg(4)->Arg(5);

void BM_ComputeSingleWindow(benchmark::State& state) {
  int s = static_cast<int>(state.range(0));
  std::vector<float> w1 = RandomVector(s * s, 5);
  std::vector<float> w2 = RandomVector(s * s, 6);
  std::vector<float> w3 = RandomVector(s * s, 7);
  std::vector<float> w4 = RandomVector(s * s, 8);
  std::vector<float> out(static_cast<size_t>(s) * s);
  for (auto _ : state) {
    ComputeSingleWindow(w1.data(), w2.data(), w3.data(), w4.data(), s,
                        out.data(), s, s);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ComputeSingleWindow)->Arg(2)->Arg(8)->Arg(32);

void BM_SlidingWindowsDp(benchmark::State& state) {
  int n = 128;
  std::vector<float> plane = RandomVector(static_cast<size_t>(n) * n, 9);
  int omega = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeSlidingWindowSignaturesAt(plane, n, n, 2, omega, 1));
  }
}
BENCHMARK(BM_SlidingWindowsDp)->Arg(8)->Arg(32)->Arg(64);

void BM_SlidingWindowsNaive(benchmark::State& state) {
  int n = 128;
  std::vector<float> plane = RandomVector(static_cast<size_t>(n) * n, 9);
  int omega = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeNaiveWindowSignatures(plane, n, n, 2, omega, 1));
  }
}
BENCHMARK(BM_SlidingWindowsNaive)->Arg(8)->Arg(32)->Arg(64);

void BM_WindowSignaturesScene(benchmark::State& state) {
  DatasetParams dataset;
  dataset.width = 384;
  dataset.height = 384;
  Rng rng(114);
  const ImageF scene =
      GenerateScene(14, static_cast<ObjectClass>(2), dataset, &rng).image;
  WalrusParams params;
  params.slide_step = 4;
  params.min_window = static_cast<int>(state.range(0));
  params.max_window = 64;
  int64_t windows = 0;
  for (auto _ : state) {
    Result<WindowSignatureSet> set = ComputeWindowSignatures(scene, params);
    windows = set->Count();
    benchmark::DoNotOptimize(set->signatures.data());
  }
  state.counters["windows"] = static_cast<double>(windows);
  state.SetItemsProcessed(state.iterations() * windows);
}
BENCHMARK(BM_WindowSignaturesScene)
    ->Arg(64)
    ->Arg(16)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace walrus

BENCHMARK_MAIN();
