#ifndef WALRUS_CORE_QUERY_PIPELINE_H_
#define WALRUS_CORE_QUERY_PIPELINE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/index.h"
#include "core/query.h"

namespace walrus {

/// The query pipeline decomposed into its three stages (probe, score,
/// rank), exposed so query engines can re-compose them. ExecuteQuery runs
/// probe -> score -> rank against one WalrusIndex; the sharded engine
/// (core/sharded_index.h) runs probe+score per shard in parallel and ranks
/// the merged result. Because every stage is deterministic in its inputs —
/// candidate sets depend only on the indexed data (never on R*-tree layout)
/// and pair lists are canonically ordered — composing the stages per shard
/// yields byte-identical rankings to the monolithic pipeline.

/// One candidate target image produced by the probe stage: every region
/// pair the index probe discovered for it. Pair lists are in canonical
/// (query_index, target_index) order, so downstream tie-breaking (the
/// greedy matcher picks the first pair among equal marginal gains) does not
/// depend on tree traversal order.
struct CandidateImage {
  uint64_t image_id = 0;
  std::vector<RegionPair> pairs;
};

/// Probe-stage work counters (the per-query slice of QueryStats).
struct ProbeDiagnostics {
  /// Region pairs retrieved across all query-region probes.
  int64_t regions_retrieved = 0;
  /// In-memory tree nodes touched (0 for paged indexes).
  int64_t nodes_visited = 0;
  /// Paged-backend page reads (0 for in-memory indexes; see QueryStats).
  int64_t pages_read = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  /// Signature prefilter tier slice (all 0 when the tier did not run):
  /// wall time of the filter passes plus the tier's candidate traffic
  /// (see QueryStats for the field semantics).
  double filter_seconds = 0.0;
  int64_t prefilter_candidates_in = 0;
  int64_t prefilter_pruned = 0;
  int64_t prefilter_candidates_out = 0;
};

/// Stage 0 output: the query decomposed into regions plus the pixel area
/// the similarity denominators use.
struct ExtractedQuery {
  std::vector<Region> regions;
  double query_area = 0.0;
};

/// Stage 0, whole image: region extraction (sliding-window wavelets +
/// BIRCH). `trace`, when non-null, receives an "extract" span with the
/// extractor's child spans.
Result<ExtractedQuery> ExtractQueryRegions(const ImageF& query_image,
                                           const WalrusParams& params,
                                           QueryTrace* trace = nullptr);

/// Stage 0, user-specified scene: extracts only the regions inside `scene`
/// and computes the effective query area (the pixels the scene's windows
/// can actually cover). InvalidArgument when the scene yields no regions.
Result<ExtractedQuery> ExtractSceneQueryRegions(const ImageF& query_image,
                                                const PixelRect& scene,
                                                const WalrusParams& params,
                                                QueryTrace* trace = nullptr);

/// Stage 1, epsilon mode (Definitions 4.1 and 5.4): probes `index` with
/// every query region's signature expanded by options.epsilon (centroid
/// mode post-filters the L-infinity candidates down to true Euclidean
/// matches). With options.signature_prefilter set (and a centroid-mode,
/// non-kNN probe), the post-filter runs as the signature tier instead of
/// inline: raw envelope hits are Hamming-pruned then batch-verified
/// (core/signature_filter.h) -- the accepted set is identical either way.
/// Returns candidates sorted by image id with canonically ordered pair
/// lists. The result is a pure function of the indexed data: independent
/// of tree build path (incremental vs bulk load) and of how images are
/// partitioned across shards. `trace`, when non-null, receives a "filter"
/// child span for the tier.
Result<std::vector<CandidateImage>> ProbeCandidates(
    const WalrusIndex& index, const std::vector<Region>& query_regions,
    const QueryOptions& options, ProbeDiagnostics* diag = nullptr,
    QueryTrace* trace = nullptr);

/// Stage 1, kNN mode: for each query region, the k = options.knn_per_region
/// nearest database regions as (payload, distance) pairs in ascending
/// distance order. Exposed separately from ProbeCandidates because a
/// sharded engine must merge per-shard neighbor lists down to a global
/// top-k per region *before* matching (the union of per-shard top-k is a
/// superset of the global top-k).
Result<std::vector<std::vector<std::pair<uint64_t, double>>>>
ProbeNearestPerRegion(const WalrusIndex& index,
                      const std::vector<Region>& query_regions, int k,
                      ProbeDiagnostics* diag = nullptr);

/// Folds per-region neighbor lists into canonical candidates (sorted by
/// image id, pairs in canonical order). `neighbors[qi]` lists the selected
/// neighbors of query region qi.
std::vector<CandidateImage> CandidatesFromNeighbors(
    const std::vector<std::vector<std::pair<uint64_t, double>>>& neighbors);

/// Stage 2 (section 5.5): scores each candidate image with the configured
/// matcher (applying the refined-matching phase and the tau threshold) and
/// returns the surviving matches, unranked, in candidate order. Every
/// candidate's image must be indexed in `index` — with sharding, score a
/// shard's own candidates against that shard. With
/// options.signature_prefilter set, only the target regions the matcher
/// will read (those named by the candidate's pairs) are materialized from
/// the catalog instead of every region of the image; scores are identical
/// because the matchers never dereference unpaired target regions.
Result<std::vector<QueryMatch>> ScoreCandidates(
    const WalrusIndex& index, const std::vector<Region>& query_regions,
    double query_area, const QueryOptions& options,
    const std::vector<CandidateImage>& candidates);

/// Stage 3: ranks matches by (similarity descending, image id ascending) —
/// a total order, so the result is unique regardless of input order — and
/// truncates to top_k when positive.
void RankMatches(std::vector<QueryMatch>* matches, int top_k);

}  // namespace walrus

#endif  // WALRUS_CORE_QUERY_PIPELINE_H_
