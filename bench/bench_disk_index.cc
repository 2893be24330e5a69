// The three R-trees an index can hold (the paper's R*-tree is a
// "disk-based index structure"; section 5.3). Writes
// BENCH_paged_tree.json with, per corpus and tree: probe-stage p50/p99,
// the seconds to build or open the tree and the heap bytes it keeps
// resident per region.
//
// Trees (the `backend` column):
//   dynamic  RStarTree::BulkLoad -- the pointer R*-tree an index moves to
//            at its first mutation;
//   arena    DiskRStarTree::Build -- the arena STR-built in memory, held
//            by FromRecords and in-memory Open;
//   paged    DiskRStarTree::Open of that arena's page file, held by
//            OpenPaged (checked equal to the built arena).
//
// Corpora:
//   table1     the Table 1 database (synthetic 128x128 scenes, paper
//              defaults, 64x64 windows): one entry per region centroid;
//   synthetic  100 jittered copies of every Table 1 region signature
//              (about 1M 12-d entries at the default 1000 images).
// The probe stage is one batched epsilon-probe of a query's regions
// (RangeQueryBatch), the same batches for every tree.
//
// Build-or-open time is the tree alone: the entries are made before the
// clock starts. Resident bytes are the heap growth across making the
// entries and the tree, after the entries are freed (glibc mallinfo2).
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

using Entries = std::vector<std::pair<walrus::Rect, uint64_t>>;

/// Heap growth since construction (make it before the entries).
struct HeapGrowth {
  int64_t before = HeapBytes();
  int64_t Bytes() const { return HeapBytes() - before; }
};

/// One point entry per region centroid, as WalrusIndex indexes them.
Entries CatalogEntries(const walrus::Catalog& catalog) {
  Entries entries;
  for (const walrus::ImageRecord& record : catalog.images()) {
    for (const walrus::RegionRecord& region : record.regions) {
      entries.emplace_back(
          walrus::Rect::Point(region.centroid),
          walrus::EncodeRegionPayload(record.image_id, region.region_id));
    }
  }
  return entries;
}

/// `copies` jittered copies (+-0.02 per dimension) of every region
/// centroid in the catalog, as point entries.
Entries SyntheticEntries(const walrus::Catalog& catalog, int copies) {
  walrus::Rng rng(1999);
  Entries entries;
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
  walrus::WalrusIndex corpus_index(params);
  for (const walrus::LabeledImage& scene : dataset) {
    if (!corpus_index
             .AddImage(static_cast<uint64_t>(scene.id), "img", scene.image)
             .ok()) {
      return 1;
    }
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
  const int64_t regions = static_cast<int64_t>(corpus_index.RegionCount());
  std::printf("# dynamic vs arena vs paged R-tree: %d images, %lld regions, "
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
  const int dim = params.SignatureDim();
  const std::string tree_path = std::string(kPrefix) + ".ptree";
  // Each tree is made, timed, probed and freed before the next, so the
  // heap growth of one never includes another.
  const auto run_corpus = [&](const char* corpus,
                              const std::function<Entries()>& make) {
    {
      HeapGrowth growth;
      Entries entries = make();
      Row row(corpus, "dynamic", static_cast<int64_t>(entries.size()));
      walrus::WallTimer timer;
      walrus::RStarTree tree =
          walrus::RStarTree::BulkLoad(dim, std::move(entries));
      row.open_seconds = timer.ElapsedSeconds();
      row.resident_bytes = growth.Bytes();
      row.probe = TimeProbes(batches, [&](const std::vector<walrus::Rect>& b) {
        tree.RangeQueryBatch(b, count_hit);
      });
      Print(row, &report);
    }
    HeapGrowth growth;
    Entries entries = make();
    Row row(corpus, "arena", static_cast<int64_t>(entries.size()));
    walrus::WallTimer timer;
    auto arena = walrus::DiskRStarTree::Build(dim, std::move(entries));
    row.open_seconds = timer.ElapsedSeconds();
    row.resident_bytes = growth.Bytes();
    if (!arena.ok() || !arena->Save(tree_path).ok()) std::exit(1);
    row.probe = TimeProbes(batches, [&](const std::vector<walrus::Rect>& b) {
      arena->RangeQueryBatch(b, count_hit);
    });
    Print(row, &report);
    std::printf("# %s arena: %zu bytes (%d-entry nodes)\n", corpus,
                arena->ResidentBytes(), arena->NodeCapacity());

    row = Row(corpus, "paged", row.entries);
    HeapGrowth paged_growth;
    timer.Restart();
    auto paged = walrus::DiskRStarTree::Open(tree_path);
    row.open_seconds = timer.ElapsedSeconds();
    row.resident_bytes = paged_growth.Bytes();
    std::remove(tree_path.c_str());
    if (!paged.ok() || !paged->SameArena(*arena)) {
      std::fprintf(stderr, "%s: decoded arena differs from the built one\n",
                   corpus);
      std::exit(1);
    }
    row.probe = TimeProbes(batches, [&](const std::vector<walrus::Rect>& b) {
      paged->RangeQueryBatch(b, count_hit);
    });
    Print(row, &report);
  };
  run_corpus("table1",
             [&] { return CatalogEntries(corpus_index.catalog()); });
  run_corpus("synthetic", [&] {
    return SyntheticEntries(corpus_index.catalog(), kSyntheticCopies);
  });
  const int64_t synthetic_entries =
      static_cast<int64_t>(kSyntheticCopies) * regions;
  std::printf("# %lld probe hits counted\n", static_cast<long long>(hits));

  report.params()
      .Set("images", num_images)
      .Set("regions", regions)
      .Set("synthetic_entries", synthetic_entries)
      .Set("epsilon", static_cast<double>(kEpsilon))
      .Set("queries", static_cast<int>(batches.size()))
      .Set("repetitions", kRepetitions);
  report.WriteFile();
  return 0;
}
