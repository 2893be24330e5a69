// Paged vs in-memory R-tree serving (the paper's R*-tree is a "disk-based
// index structure"; section 5.3). Writes BENCH_paged_tree.json with, per
// corpus and backend: probe-stage p50/p99, tree open time and the heap
// bytes the opened tree keeps resident per region.
//
// Corpora:
//   table1     the Table 1 database (synthetic 128x128 scenes, paper
//              defaults, 64x64 windows); the probe stage is one batched
//              epsilon-probe of a query's regions (WalrusIndex::
//              ProbeRangeBatch) on the in-memory index and on the same
//              index saved and opened paged.
//   synthetic  100 jittered copies of every Table 1 region signature
//              (about 1M 12-d entries at the default 1000 images), built
//              directly with DiskRStarTree::Build and, for the in-memory
//              row, RStarTree::BulkLoad; probed with the same query
//              batches through RangeQueryBatch.
//
// Open time is the tree alone: DiskRStarTree::Open for paged, reading and
// deserializing RStarTree::Serialize's bytes for in-memory. Resident bytes
// are the heap growth across that open (glibc mallinfo2).
//
//   WALRUS_BENCH_DISK_IMAGES   corpus images (default 1000)
//   WALRUS_BENCH_DISK_QUERIES  query images, each probed 20 times (default 10)

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/random.h"
#include "common/serialize.h"
#include "common/timer.h"
#include "core/index.h"
#include "core/query_pipeline.h"
#include "image/dataset.h"
#include "spatial/rstar_tree.h"
#include "storage/disk_rstar.h"

namespace {

constexpr float kEpsilon = 0.07f;
constexpr int kRepetitions = 20;
constexpr int kSyntheticCopies = 100;
const char* const kPrefix = "/tmp/walrus_bench_paged_tree";

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoi(value) : fallback;
}

int64_t HeapBytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<int64_t>(info.uordblks + info.hblkhd);
}

struct Latency {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// Runs `probe` on every batch kRepetitions times (batches interleaved)
/// and returns the nearest-rank p50/p99 of the per-call wall time.
Latency TimeProbes(const std::vector<std::vector<walrus::Rect>>& batches,
                   const std::function<void(const std::vector<walrus::Rect>&)>&
                       probe) {
  std::vector<double> ms;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    for (const std::vector<walrus::Rect>& batch : batches) {
      walrus::WallTimer timer;
      probe(batch);
      ms.push_back(1e3 * timer.ElapsedSeconds());
    }
  }
  std::sort(ms.begin(), ms.end());
  const auto rank = [&ms](double p) {
    const size_t i = static_cast<size_t>(std::ceil(p * ms.size()));
    return ms[std::max<size_t>(i, 1) - 1];
  };
  return {rank(0.50), rank(0.99)};
}

struct Row {
  Row(const char* corpus_name, const char* backend_name, int64_t count)
      : corpus(corpus_name), backend(backend_name), entries(count) {}
  const char* corpus;
  const char* backend;
  int64_t entries;
  Latency probe;
  double open_seconds = 0.0;
  int64_t resident_bytes = 0;
};

void Print(const Row& row, walrus::bench::BenchReport* report) {
  const double per_region =
      static_cast<double>(row.resident_bytes) / static_cast<double>(row.entries);
  std::printf("%-10s %-10s %9lld %10.3f %10.3f %9.3f %12.1f\n", row.corpus,
              row.backend, static_cast<long long>(row.entries),
              row.probe.p50_ms, row.probe.p99_ms, row.open_seconds,
              per_region);
  report->AddRow()
      .Set("corpus", row.corpus)
      .Set("backend", row.backend)
      .Set("entries", row.entries)
      .Set("probe_p50_ms", row.probe.p50_ms)
      .Set("probe_p99_ms", row.probe.p99_ms)
      .Set("open_seconds", row.open_seconds)
      .Set("resident_tree_bytes_per_region", per_region);
}

/// Writes `tree` in the in-memory index's tree format (RStarTree::
/// Serialize) to `path`.
bool SaveMemoryTree(const walrus::RStarTree& tree, const std::string& path) {
  walrus::BinaryWriter writer;
  tree.Serialize(&writer);
  return walrus::WriteFileBytes(path, writer.buffer()).ok();
}

/// Times the in-memory tree's open (read + deserialize `path`) and
/// measures the heap it keeps.
bool MemoryOpen(const std::string& path, double* seconds, int64_t* bytes) {
  walrus::WallTimer timer;
  walrus::Result<std::vector<uint8_t>> file = walrus::ReadFileBytes(path);
  if (!file.ok()) return false;
  const int64_t before = HeapBytes();
  walrus::BinaryReader reader(*file);
  walrus::Result<walrus::RStarTree> opened =
      walrus::RStarTree::Deserialize(&reader);
  *seconds = timer.ElapsedSeconds();
  *bytes = HeapBytes() - before;
  std::remove(path.c_str());
  return opened.ok();
}

/// Times DiskRStarTree::Open of `path` and measures the heap it keeps.
bool PagedOpen(const std::string& path, double* seconds, int64_t* bytes) {
  const int64_t before = HeapBytes();
  walrus::WallTimer timer;
  walrus::Result<walrus::DiskRStarTree> opened =
      walrus::DiskRStarTree::Open(path);
  *seconds = timer.ElapsedSeconds();
  *bytes = HeapBytes() - before;
  return opened.ok();
}

/// `copies` jittered copies (+-0.02 per dimension) of every region
/// centroid in the catalog, as point entries.
std::vector<std::pair<walrus::Rect, uint64_t>> SyntheticEntries(
    const walrus::Catalog& catalog, int copies) {
  walrus::Rng rng(1999);
  std::vector<std::pair<walrus::Rect, uint64_t>> entries;
  entries.reserve(static_cast<size_t>(copies) * catalog.TotalRegions());
  std::vector<float> point;
  for (int c = 0; c < copies; ++c) {
    for (const walrus::ImageRecord& record : catalog.images()) {
      for (const walrus::RegionRecord& region : record.regions) {
        point = region.centroid;
        for (float& v : point) v += 0.04f * (rng.NextFloat() - 0.5f);
        entries.emplace_back(walrus::Rect::Point(point), entries.size());
      }
    }
  }
  return entries;
}

}  // namespace

int main() {
  const int num_images = EnvInt("WALRUS_BENCH_DISK_IMAGES", 1000);
  const int num_queries = EnvInt("WALRUS_BENCH_DISK_QUERIES", 10);
  walrus::DatasetParams dp;
  dp.num_images = num_images;
  dp.width = 128;
  dp.height = 128;
  dp.seed = 77;
  std::vector<walrus::LabeledImage> dataset = walrus::GenerateDataset(dp);

  walrus::WalrusParams params;  // paper defaults, 64x64 windows
  params.slide_step = 8;
  walrus::WalrusIndex memory_index(params);
  for (const walrus::LabeledImage& scene : dataset) {
    if (!memory_index
             .AddImage(static_cast<uint64_t>(scene.id), "img", scene.image)
             .ok()) {
      return 1;
    }
  }
  if (!memory_index.SavePaged(kPrefix).ok()) return 1;
  auto paged = walrus::WalrusIndex::OpenPaged(kPrefix);
  if (!paged.ok()) {
    std::fprintf(stderr, "open paged failed: %s\n",
                 paged.status().ToString().c_str());
    return 1;
  }

  // One probe batch per query image: its regions' epsilon envelopes.
  std::vector<std::vector<walrus::Rect>> batches;
  for (int q = 0; q < num_queries && q < num_images; ++q) {
    walrus::Result<walrus::ExtractedQuery> extracted =
        walrus::ExtractQueryRegions(dataset[q].image, params);
    if (!extracted.ok()) return 1;
    std::vector<walrus::Rect>& batch = batches.emplace_back();
    for (const walrus::Region& region : extracted->regions) {
      batch.push_back(region.IndexRect(false).Expanded(kEpsilon));
    }
  }
  // Free the pixels (~200 MB at 1000 images) before the synthetic trees.
  std::vector<walrus::LabeledImage>().swap(dataset);

  walrus::bench::BenchReport report("paged_tree");
  const int64_t regions = static_cast<int64_t>(memory_index.RegionCount());
  std::printf("# paged vs in-memory R-tree: %d images, %lld regions, "
              "eps=%.2f, %zu query batches x %d\n",
              num_images, static_cast<long long>(regions), kEpsilon,
              batches.size(), kRepetitions);
  std::printf("%-10s %-10s %9s %10s %10s %9s %12s\n", "corpus", "backend",
              "entries", "p50_ms", "p99_ms", "open_s", "bytes/region");

  int64_t hits = 0;
  const auto count_hit = [&hits](int, const walrus::Rect&, uint64_t) {
    ++hits;
    return true;
  };
  const auto index_probe = [&](const walrus::WalrusIndex& index) {
    return [&](const std::vector<walrus::Rect>& batch) {
      if (!index.ProbeRangeBatch(batch, count_hit).ok()) std::exit(1);
    };
  };
  Row row("table1", "in-memory", regions);
  row.probe = TimeProbes(batches, index_probe(memory_index));
  const std::string tree_path = std::string(kPrefix) + ".rtree";
  if (!SaveMemoryTree(memory_index.tree(), tree_path) ||
      !MemoryOpen(tree_path, &row.open_seconds, &row.resident_bytes)) {
    return 1;
  }
  Print(row, &report);
  row = Row("table1", "paged", regions);
  row.probe = TimeProbes(batches, index_probe(*paged));
  if (!PagedOpen(std::string(kPrefix) + ".ptree", &row.open_seconds,
                 &row.resident_bytes)) {
    return 1;
  }
  Print(row, &report);

  // Synthetic: paged first, so its build buffers are gone before the
  // in-memory tree is loaded.
  const std::string synthetic_path = std::string(kPrefix) + ".synthetic";
  int64_t synthetic_entries = 0;
  {
    auto entries = SyntheticEntries(memory_index.catalog(), kSyntheticCopies);
    synthetic_entries = static_cast<int64_t>(entries.size());
    auto built = walrus::DiskRStarTree::Build(
        synthetic_path, params.SignatureDim(), std::move(entries));
    if (!built.ok()) return 1;
    row = Row("synthetic", "paged", synthetic_entries);
    row.probe = TimeProbes(batches, [&](const std::vector<walrus::Rect>& b) {
      built->RangeQueryBatch(b, count_hit);
    });
    std::printf("# synthetic paged arena: %zu bytes (%d-entry nodes)\n",
                built->ResidentBytes(), built->NodeCapacity());
  }
  if (!PagedOpen(synthetic_path, &row.open_seconds, &row.resident_bytes)) {
    return 1;
  }
  Print(row, &report);
  std::remove(synthetic_path.c_str());
  {
    walrus::RStarTree tree = walrus::RStarTree::BulkLoad(
        params.SignatureDim(),
        SyntheticEntries(memory_index.catalog(), kSyntheticCopies));
    row = Row("synthetic", "in-memory", synthetic_entries);
    row.probe = TimeProbes(batches, [&](const std::vector<walrus::Rect>& b) {
      tree.RangeQueryBatch(b, count_hit);
    });
    if (!SaveMemoryTree(tree, tree_path)) return 1;
  }
  if (!MemoryOpen(tree_path, &row.open_seconds, &row.resident_bytes)) {
    return 1;
  }
  Print(row, &report);
  std::printf("# %lld probe hits counted\n", static_cast<long long>(hits));

  report.params()
      .Set("images", num_images)
      .Set("regions", regions)
      .Set("synthetic_entries", synthetic_entries)
      .Set("epsilon", static_cast<double>(kEpsilon))
      .Set("queries", static_cast<int>(batches.size()))
      .Set("repetitions", kRepetitions);
  report.WriteFile();
  for (const char* suffix : {".catalog", ".pmeta", ".ptree"}) {
    std::remove((std::string(kPrefix) + suffix).c_str());
  }
  return 0;
}
