// Reproduces Table 1: query response time, average number of regions
// retrieved per query region, and number of distinct images containing
// matching regions, as the querying epsilon grows from 0.05 to 0.09.
//
// Setup mirrors section 6.5: epsilon_c = 0.05, 64x64 sliding windows, 2x2
// signatures per channel, YCC color space, centroid region signatures, quick
// matcher. The database is the synthetic scene collection standing in for
// the 10,000-image `misc` set (DESIGN.md section 2); size is configurable
// via WALRUS_BENCH_IMAGES (default 1000).
//
// Expected shape: all three columns grow monotonically (and sharply) with
// epsilon; the paper measured 5.2s..19.9s, 15..891 avg regions and 65..1287
// distinct images over epsilon in {0.05..0.09} on a 10,000-image database.
//
// Beyond the paper table, every row now carries the per-stage breakdown
// (extract / probe / filter / match / rank seconds) and the run writes two
// JSON reports:
//   BENCH_prefilter.json      Table 1 per-stage rows + a signature-prefilter
//                             on/off A/B sweep at the default epsilon
//                             (DESIGN.md section 16 acceptance numbers:
//                             match-stage speedup and candidate reduction).
//   BENCH_batched_probe.json  batched+SIMD vs scalar per-region probe A/B.
//
// Usage: bench_query_selectivity [prefilter|batched_probe]
// With no argument both reports are written; naming one runs and writes
// only that report, so regenerating one checked-in file leaves the other.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/simd.h"
#include "common/timer.h"
#include "core/index.h"
#include "core/query.h"
#include "core/region_extractor.h"
#include "image/dataset.h"

namespace {

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoi(value) : fallback;
}

/// Per-stage accumulator over a batch of queries (the disjoint stage
/// timers from QueryStats, core/query.h).
struct StageTotals {
  double extract = 0.0;
  double probe = 0.0;
  double filter = 0.0;
  double match = 0.0;
  double rank = 0.0;
  double total = 0.0;
  int64_t prefilter_in = 0;
  int64_t prefilter_pruned = 0;
  int64_t prefilter_out = 0;

  void Add(const walrus::QueryStats& stats) {
    extract += stats.extract_seconds;
    probe += stats.probe_seconds;
    filter += stats.filter_seconds;
    match += stats.match_seconds;
    rank += stats.rank_seconds;
    total += stats.seconds;
    prefilter_in += stats.prefilter_candidates_in;
    prefilter_pruned += stats.prefilter_pruned;
    prefilter_out += stats.prefilter_candidates_out;
  }

  walrus::bench::JsonObject& FillRow(walrus::bench::JsonObject& row) const {
    return row.Set("extract_seconds", extract)
        .Set("probe_seconds", probe)
        .Set("filter_seconds", filter)
        .Set("match_seconds", match)
        .Set("rank_seconds", rank)
        .Set("total_seconds", total)
        .Set("prefilter_candidates_in", prefilter_in)
        .Set("prefilter_pruned", prefilter_pruned)
        .Set("prefilter_candidates_out", prefilter_out);
  }
};

/// Table 1 rows plus the signature-prefilter on/off A/B, written to
/// BENCH_prefilter.json. Returns nonzero when a query fails.
int RunPrefilterReport(const walrus::WalrusIndex& index,
                       const std::vector<walrus::LabeledImage>& dataset,
                       const walrus::DatasetParams& dp, int num_queries,
                       int repetitions) {
  walrus::bench::BenchReport prefilter_report("prefilter");
  prefilter_report.params()
      .Set("images", static_cast<int64_t>(index.ImageCount()))
      .Set("regions", static_cast<int64_t>(index.RegionCount()))
      .Set("width", dp.width)
      .Set("height", dp.height)
      .Set("max_isa", walrus::simd::IsaName(walrus::simd::MaxSupportedIsa()));

  // The paper queries with its flower image (Figure 8a); we use a fixed
  // scene from the dataset as the query.
  const walrus::ImageF& query = dataset[0].image;

  std::printf("%-8s %-12s %-9s %-9s %-9s %-9s %-9s %-22s %-15s\n", "epsilon",
              "response_s", "extract_s", "probe_s", "filter_s", "match_s",
              "rank_s", "avg_regions_retrieved", "distinct_images");
  double prev_images = -1.0;
  bool monotone = true;
  for (double eps : {0.05, 0.06, 0.07, 0.08, 0.09}) {
    walrus::QueryOptions options;
    options.epsilon = static_cast<float>(eps);
    walrus::QueryStats stats;
    walrus::Result<std::vector<walrus::QueryMatch>> matches =
        walrus::ExecuteQuery(index, query, options, &stats);
    if (!matches.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   matches.status().ToString().c_str());
      return 1;
    }
    std::printf("%-8.2f %-12.4f %-9.4f %-9.4f %-9.4f %-9.4f %-9.4f %-22.1f "
                "%-15d\n",
                eps, stats.seconds, stats.extract_seconds,
                stats.probe_seconds, stats.filter_seconds,
                stats.match_seconds, stats.rank_seconds,
                stats.avg_regions_per_query_region, stats.distinct_images);
    StageTotals stages;
    stages.Add(stats);
    walrus::bench::JsonObject& row = prefilter_report.AddRow();
    row.Set("kind", "table1").Set("epsilon", eps);
    stages.FillRow(row)
        .Set("avg_regions_retrieved", stats.avg_regions_per_query_region)
        .Set("distinct_images", stats.distinct_images);
    if (stats.distinct_images < prev_images) monotone = false;
    prev_images = stats.distinct_images;
  }
  std::printf(
      "# paper shape check: all columns grow with epsilon -- %s\n",
      monotone ? "HOLDS" : "VIOLATED");

  // A/B: the binary-signature prefilter tier (DESIGN.md section 16) on vs
  // off, at the paper's default epsilon. Rankings are bit-identical either
  // way (admissible lower bound); what moves is the exact-verification
  // volume (candidate reduction) and the match stage, which with the tier
  // on materializes only the target regions the matcher reads.
  std::printf("\n# A/B: signature prefilter on vs off (epsilon=%.3f)\n",
              static_cast<double>(walrus::QueryOptions{}.epsilon));
  prefilter_report.params()
      .Set("epsilon", static_cast<double>(walrus::QueryOptions{}.epsilon))
      .Set("queries", num_queries)
      .Set("repetitions", repetitions);

  std::printf("%-16s %-9s %-9s %-9s %-9s %-9s %-13s %-13s\n", "config",
              "extract_s", "probe_s", "filter_s", "match_s", "rank_s",
              "candidates_in", "verified_out");
  StageTotals ab[2];
  for (int on = 0; on < 2; ++on) {
    for (int rep = 0; rep < repetitions; ++rep) {
      for (int qi = 0; qi < num_queries; ++qi) {
        walrus::QueryOptions options;  // default epsilon
        options.signature_prefilter = on == 1;
        walrus::QueryStats stats;
        walrus::Result<std::vector<walrus::QueryMatch>> matches =
            walrus::ExecuteQuery(
                index, dataset[qi % dataset.size()].image, options, &stats);
        if (!matches.ok()) {
          std::fprintf(stderr, "prefilter A/B query failed: %s\n",
                       matches.status().ToString().c_str());
          return 1;
        }
        ab[on].Add(stats);
      }
    }
    const char* name = on == 1 ? "prefilter_on" : "prefilter_off";
    std::printf("%-16s %-9.4f %-9.4f %-9.4f %-9.4f %-9.4f %-13lld %-13lld\n",
                name, ab[on].extract, ab[on].probe, ab[on].filter,
                ab[on].match, ab[on].rank,
                static_cast<long long>(ab[on].prefilter_in),
                static_cast<long long>(ab[on].prefilter_out));
    walrus::bench::JsonObject& row = prefilter_report.AddRow();
    row.Set("kind", "ab").Set("config", name);
    ab[on].FillRow(row);
  }
  // Acceptance numbers: with the tier off the matcher exact-verifies every
  // envelope hit, so candidates_in(on) / candidates_out(on) is the
  // exact-distance workload reduction; the match-stage speedup comes from
  // sparse target materialization.
  const double match_speedup =
      ab[1].match > 0.0 ? ab[0].match / ab[1].match : 0.0;
  const double candidate_reduction =
      ab[1].prefilter_out > 0
          ? static_cast<double>(ab[1].prefilter_in) /
                static_cast<double>(ab[1].prefilter_out)
          : 0.0;
  prefilter_report.params()
      .Set("match_stage_speedup", match_speedup)
      .Set("candidate_reduction", candidate_reduction);
  std::printf("# match-stage speedup (prefilter on over off): %.2fx\n",
              match_speedup);
  std::printf("# exact-verification candidate reduction: %.2fx\n",
              candidate_reduction);
  prefilter_report.WriteFile();
  return 0;
}

/// Batched+SIMD vs scalar per-region probe A/B, written to
/// BENCH_batched_probe.json. Returns nonzero when a query fails.
int RunBatchedProbeReport(const walrus::WalrusIndex& index,
                          const std::vector<walrus::LabeledImage>& dataset,
                          int num_queries, int repetitions) {
  // A/B: probe-stage throughput of the vectorized batched multi-probe path
  // (native ISA + RangeQueryBatch) against the historical per-region scalar
  // path (WALRUS_SIMD=scalar semantics + one tree descent per query
  // region). Results are byte-identical between the two configurations
  // (the kernel exactness contract in common/simd.h); only probe_seconds
  // moves. Reuses the Table 1 index; queries rotate through the dataset so
  // the probe mix is not a single region set.
  std::printf("\n# A/B: batched+SIMD probe path vs scalar per-region path\n");
  walrus::bench::BenchReport report("batched_probe");
  const double ab_epsilon = 0.09;
  report.params()
      .Set("images", static_cast<int64_t>(index.ImageCount()))
      .Set("regions", static_cast<int64_t>(index.RegionCount()))
      .Set("epsilon", ab_epsilon)
      .Set("queries", num_queries)
      .Set("repetitions", repetitions)
      .Set("max_isa", walrus::simd::IsaName(walrus::simd::MaxSupportedIsa()));

  struct AbConfig {
    const char* name;
    bool batched;
    walrus::simd::IsaLevel isa;
  };
  const AbConfig configs[] = {
      {"scalar_per_region", false, walrus::simd::IsaLevel::kScalar},
      {"simd_batched", true, walrus::simd::MaxSupportedIsa()},
  };

  std::printf("%-20s %-14s %-16s %-18s\n", "config", "probe_s",
              "probes_per_s", "nodes_visited");
  double baseline_probe_s = -1.0;
  double speedup = 0.0;
  for (const AbConfig& config : configs) {
    walrus::simd::TestOnlySetIsa(config.isa);
    double probe_s = 0.0;
    int64_t probes = 0;
    int64_t nodes = 0;
    for (int rep = 0; rep < repetitions; ++rep) {
      for (int qi = 0; qi < num_queries; ++qi) {
        walrus::QueryOptions options;
        options.epsilon = static_cast<float>(ab_epsilon);
        options.batched_probe = config.batched;
        walrus::QueryStats stats;
        walrus::Result<std::vector<walrus::QueryMatch>> matches =
            walrus::ExecuteQuery(
                index, dataset[qi % dataset.size()].image, options, &stats);
        if (!matches.ok()) {
          std::fprintf(stderr, "A/B query failed: %s\n",
                       matches.status().ToString().c_str());
          return 1;
        }
        probe_s += stats.probe_seconds;
        probes += stats.query_regions;
        nodes += stats.nodes_visited;
      }
    }
    walrus::simd::TestOnlyResetIsa();
    const double probes_per_s = probes / probe_s;
    if (baseline_probe_s < 0.0) {
      baseline_probe_s = probe_s;
    } else {
      speedup = baseline_probe_s / probe_s;
    }
    std::printf("%-20s %-14.4f %-16.0f %-18lld\n", config.name, probe_s,
                probes_per_s, static_cast<long long>(nodes));
    report.AddRow()
        .Set("config", config.name)
        .Set("batched", config.batched ? 1 : 0)
        .Set("isa", walrus::simd::IsaName(config.isa))
        .Set("probe_seconds", probe_s)
        .Set("probes_per_second", probes_per_s)
        .Set("nodes_visited", nodes);
  }
  report.params().Set("probe_stage_speedup", speedup);
  std::printf("# probe-stage speedup (batched+SIMD over scalar): %.2fx\n",
              speedup);
  report.WriteFile();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string only = argc > 1 ? argv[1] : "";
  if (argc > 2 || (only != "" && only != "prefilter" &&
                   only != "batched_probe")) {
    std::fprintf(stderr,
                 "usage: bench_query_selectivity [prefilter|batched_probe]\n");
    return 2;
  }
  const int num_images = EnvInt("WALRUS_BENCH_IMAGES", 1000);

  walrus::DatasetParams dp;
  dp.num_images = num_images;
  dp.width = 128;
  dp.height = 128;
  dp.seed = 77;
  std::vector<walrus::LabeledImage> dataset = walrus::GenerateDataset(dp);

  walrus::WalrusParams wp;  // paper defaults: YCC, 64x64 windows, s=2
  wp.slide_step = 8;
  std::printf("# Table 1: query selectivity and response time\n");
  std::printf(
      "# database=%d images (%dx%d), cluster_eps=%.2f, window=%d, s=%d, "
      "colorspace=YCC, centroid signatures, quick matcher\n",
      num_images, dp.width, dp.height, wp.cluster_epsilon, wp.min_window,
      wp.signature_size);

  walrus::WalrusIndex index(wp);
  walrus::WallTimer build_timer;
  for (const walrus::LabeledImage& scene : dataset) {
    walrus::Status status = index.AddImage(
        static_cast<uint64_t>(scene.id), "img", scene.image);
    if (!status.ok()) {
      std::fprintf(stderr, "indexing failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }
  std::printf("# indexing: %zu images, %zu regions, %.2fs total\n",
              index.ImageCount(), index.RegionCount(),
              build_timer.ElapsedSeconds());

  const int num_queries = 8;
  const int repetitions = EnvInt("WALRUS_BENCH_REPS", 15);
  if (only != "batched_probe" &&
      RunPrefilterReport(index, dataset, dp, num_queries, repetitions) != 0) {
    return 1;
  }
  if (only != "prefilter" &&
      RunBatchedProbeReport(index, dataset, num_queries, repetitions) != 0) {
    return 1;
  }
  return 0;
}
