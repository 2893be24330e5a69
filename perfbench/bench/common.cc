#include "common.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "image/dataset.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least q of the samples at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void ReportLatency(const char* what, const std::vector<double>& ms) {
  const double p99 = Quantile(ms, 0.99);
  size_t beyond = 0;
  for (double v : ms) beyond += v > p99 ? 1 : 0;
  std::printf("# %s: %zu samples, p50 %.3f ms, p99 %.3f ms, %zu beyond p99%s\n",
              what, ms.size(), Quantile(ms, 0.5), p99, beyond,
              beyond >= 10 ? "" : " (p99 under-sampled)");
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

uint64_t FileBytes(const std::vector<std::string>& paths) {
  uint64_t total = 0;
  for (const std::string& path : paths) {
    struct stat st;
    if (::stat(path.c_str(), &st) == 0) total += st.st_size;
  }
  return total;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

walrus::Status MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) {
    return walrus::Status::IOError("cannot create " + path + ": " +
                                   ec.message());
  }
  return walrus::Status::OK();
}

bool SameMatches(const std::vector<walrus::QueryMatch>& a,
                 const std::vector<walrus::QueryMatch>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].image_id != b[i].image_id || a[i].similarity != b[i].similarity ||
        a[i].matching_pairs != b[i].matching_pairs ||
        a[i].pairs_used != b[i].pairs_used) {
      return false;
    }
  }
  return true;
}

std::vector<int> Permutation(int n, walrus::Rng* rng) {
  std::vector<int> perm(n);
  for (int i = 0; i < n; ++i) perm[i] = i;
  for (int i = n - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng->NextBounded(static_cast<uint32_t>(i + 1))]);
  }
  return perm;
}

namespace {

constexpr char kPoolMagic[8] = {'P', 'B', 'S', 'C', 'E', 'N', 'E', '1'};
constexpr size_t kPoolHeaderBytes = 16;  // magic + u32 count + u32 side
constexpr int kGeneratorThreads = 4;

uint64_t TagSeed(const std::string& tag) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (char c : tag) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Renders scene `i` of the pool as 8-bit planar RGB.
void RenderScene(uint64_t tag_seed, int i, int side, uint8_t* out) {
  walrus::DatasetParams params;
  params.width = side;
  params.height = side;
  walrus::Rng rng(tag_seed, 2 * static_cast<uint64_t>(i) + 1);
  walrus::LabeledImage scene = walrus::GenerateScene(
      i, static_cast<walrus::ObjectClass>(i % walrus::kNumObjectClasses),
      params, &rng);
  const size_t plane = static_cast<size_t>(side) * side;
  for (int c = 0; c < 3; ++c) {
    const std::vector<float>& src = scene.image.Plane(c);
    for (size_t p = 0; p < plane; ++p) {
      const float v = std::clamp(src[p], 0.0f, 1.0f);
      out[c * plane + p] = static_cast<uint8_t>(std::lround(v * 255.0f));
    }
  }
}

/// Generates the whole pool into `path` (through a temporary file renamed
/// into place, so an interrupted run never leaves a truncated pool).
walrus::Status GeneratePool(const std::string& path, const std::string& tag,
                            int count, int side) {
  const size_t image_bytes = static_cast<size_t>(side) * side * 3;
  const uint64_t tag_seed = TagSeed(tag);
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) return walrus::Status::IOError("cannot write " + tmp);
  uint8_t header[kPoolHeaderBytes];
  std::memcpy(header, kPoolMagic, 8);
  const uint32_t dims[2] = {static_cast<uint32_t>(count),
                            static_cast<uint32_t>(side)};
  std::memcpy(header + 8, dims, sizeof(dims));
  bool ok = std::fwrite(header, 1, sizeof(header), file) == sizeof(header);
  // Chunks bound the generator's memory; threads split each chunk.
  constexpr int kChunk = 256;
  std::vector<uint8_t> chunk(image_bytes * kChunk);
  for (int begin = 0; ok && begin < count; begin += kChunk) {
    const int n = std::min(kChunk, count - begin);
    std::atomic<int> next{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kGeneratorThreads; ++t) {
      workers.emplace_back([&] {
        for (int j = next++; j < n; j = next++) {
          RenderScene(tag_seed, begin + j, side, chunk.data() + j * image_bytes);
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    ok = std::fwrite(chunk.data(), 1, image_bytes * n, file) ==
         image_bytes * n;
  }
  ok = std::fclose(file) == 0 && ok;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return walrus::Status::IOError("cannot write scene pool " + path);
  }
  return walrus::Status::OK();
}

}  // namespace

walrus::Result<ScenePool> ScenePool::Open(const std::string& cache_dir,
                                          const std::string& tag, int count,
                                          int side) {
  WALRUS_RETURN_IF_ERROR(MakeDirs(cache_dir));
  const std::string path = cache_dir + "/" + tag + "-" +
                           std::to_string(count) + "x" + std::to_string(side) +
                           ".scenes";
  if (::access(path.c_str(), R_OK) != 0) {
    Stopwatch timer;
    WALRUS_RETURN_IF_ERROR(GeneratePool(path, tag, count, side));
    std::printf("# generated scene pool %s in %.2f s (not timed)\n",
                path.c_str(), timer.Seconds());
  }
  walrus::UniqueFd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (fd.get() < 0) return walrus::Status::IOError("cannot open " + path);
  uint8_t header[kPoolHeaderBytes];
  uint32_t dims[2] = {0, 0};
  if (::pread(fd.get(), header, sizeof(header), 0) !=
          static_cast<ssize_t>(sizeof(header)) ||
      std::memcmp(header, kPoolMagic, 8) != 0) {
    return walrus::Status::Corruption("bad scene pool header: " + path);
  }
  std::memcpy(dims, header + 8, sizeof(dims));
  if (dims[0] != static_cast<uint32_t>(count) ||
      dims[1] != static_cast<uint32_t>(side)) {
    return walrus::Status::Corruption("scene pool shape mismatch: " + path);
  }
  return ScenePool(std::move(fd), count, side);
}

walrus::Result<walrus::ImageF> ScenePool::Load(int i) const {
  if (i < 0 || i >= count_) {
    return walrus::Status::InvalidArgument("scene index out of range");
  }
  const size_t plane = static_cast<size_t>(side_) * side_;
  std::vector<uint8_t> bytes(plane * 3);
  const off_t offset =
      static_cast<off_t>(kPoolHeaderBytes + static_cast<size_t>(i) * bytes.size());
  if (::pread(fd_.get(), bytes.data(), bytes.size(), offset) !=
      static_cast<ssize_t>(bytes.size())) {
    return walrus::Status::IOError("short read from scene pool");
  }
  walrus::ImageF image(side_, side_, 3, walrus::ColorSpace::kRGB);
  for (int c = 0; c < 3; ++c) {
    std::vector<float>& dst = image.Plane(c);
    for (size_t p = 0; p < plane; ++p) {
      dst[p] = static_cast<float>(bytes[c * plane + p]) * (1.0f / 255.0f);
    }
  }
  return image;
}

}  // namespace perfbench
