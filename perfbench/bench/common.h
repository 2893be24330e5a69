// Shared plumbing for the end-to-end benchmark: command-line arguments,
// latency samples, result printing, process memory, file sizes, and the
// cached scene pools every workload draws its images from.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/socket.h"
#include "common/status.h"
#include "core/query.h"
#include "image/image.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  /// Nominal length of the timed pass. Work is fixed per run: each
  /// workload derives its operation count from this and a constant rate,
  /// so both sides of a comparison replay exactly the same operations.
  int seconds = 15;
  bool trace = false;
  /// Cached scene pools (built once per checkout, reused by every run).
  std::string cache_dir;
  /// Per-run scratch: index files, WAL directories, trace output.
  std::string work_dir;
  /// Where the traced run writes its spans.
  std::string trace_dir;
};

/// Monotonic stopwatch in milliseconds.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}
  double Ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }
  double Seconds() const { return Ms() / 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Nearest-rank quantile of `values` (q in [0,1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);
double Mean(const std::vector<double>& values);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints the run's result object as the last line of standard output.
void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics);

/// Prints "p50/p99 of <what>: n samples, k beyond p99" so a reader can
/// judge whether the p99 is supported by at least ten samples.
void ReportLatency(const char* what, const std::vector<double>& ms);

/// VmHWM of this process in MiB.
double PeakRssMb();

/// Sum of the sizes of the named files (missing files count 0).
uint64_t FileBytes(const std::vector<std::string>& paths);
/// Sum of the sizes of the regular files directly inside `dir`.
uint64_t DirectoryBytes(const std::string& dir);
/// Recursively deletes `path` (no error when absent).
void RemoveTree(const std::string& path);
/// Creates `path` and its parents.
walrus::Status MakeDirs(const std::string& path);

/// Same ranked answer: ids, exact similarities and pair counts.
bool SameMatches(const std::vector<walrus::QueryMatch>& a,
                 const std::vector<walrus::QueryMatch>& b);

/// A fixed pool of synthetic scenes (image/dataset.h generator), stored
/// once under the cache directory as 8-bit planar RGB and read back one
/// image at a time, so the harness never holds the corpus in memory. The
/// pool depends only on its tag, size and side; workloads pick from it
/// with seeded permutations. Quantizing to 8 bits happens before any use,
/// so the first run and every later run see identical pixels.
class ScenePool {
 public:
  [[nodiscard]] static walrus::Result<ScenePool> Open(
      const std::string& cache_dir, const std::string& tag, int count,
      int side);

  int size() const { return count_; }
  /// Reads scene `i` (0 <= i < size()) as a float RGB image.
  [[nodiscard]] walrus::Result<walrus::ImageF> Load(int i) const;
  /// Bytes one loaded scene occupies as floats.
  size_t ImageBytes() const {
    return static_cast<size_t>(side_) * side_ * 3 * sizeof(float);
  }

 private:
  ScenePool(walrus::UniqueFd fd, int count, int side)
      : fd_(std::move(fd)), count_(count), side_(side) {}

  walrus::UniqueFd fd_;
  int count_ = 0;
  int side_ = 0;
};

/// Seeded permutation of [0, n).
std::vector<int> Permutation(int n, walrus::Rng* rng);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
