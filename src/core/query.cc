#include "core/query.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>

#include "common/metrics.h"
#include "common/simd.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/query_engine.h"
#include "core/query_pipeline.h"
#include "core/signature_filter.h"

namespace walrus {
namespace {

/// Shared bucket shape for all query-path latency histograms: 1us doubling
/// up to ~68s.
std::vector<double> QuerySecondsBuckets() {
  return ExponentialBuckets(1e-6, 2.0, 36);
}

/// Query-funnel metrics (registered once, mutated lock-free per query).
struct QueryPathMetrics {
  Counter* queries;
  Counter* regions_retrieved;
  Counter* candidate_images;
  Histogram* seconds;
  Histogram* extract_seconds;
  Histogram* probe_seconds;
  Histogram* match_seconds;
  /// Signature prefilter tier (DESIGN.md section 16): candidate traffic in
  /// and out plus the Hamming-pruned count (prune ratio = pruned /
  /// candidates_in) and the tier's wall time per query.
  Counter* prefilter_candidates_in;
  Counter* prefilter_pruned;
  Counter* prefilter_candidates_out;
  Histogram* prefilter_seconds;

  static const QueryPathMetrics& Get() {
    static const QueryPathMetrics metrics = [] {
      MetricsRegistry& registry = MetricsRegistry::Global();
      QueryPathMetrics m;
      m.queries = registry.GetCounter("walrus.query.count");
      m.regions_retrieved =
          registry.GetCounter("walrus.query.regions_retrieved");
      m.candidate_images =
          registry.GetCounter("walrus.query.candidate_images");
      m.seconds =
          registry.GetHistogram("walrus.query.seconds", QuerySecondsBuckets());
      m.extract_seconds = registry.GetHistogram(
          "walrus.query.extract_seconds", QuerySecondsBuckets());
      m.probe_seconds = registry.GetHistogram("walrus.query.probe_seconds",
                                              QuerySecondsBuckets());
      m.match_seconds = registry.GetHistogram("walrus.query.match_seconds",
                                              QuerySecondsBuckets());
      m.prefilter_candidates_in =
          registry.GetCounter("walrus.prefilter.candidates_in");
      m.prefilter_pruned = registry.GetCounter("walrus.prefilter.pruned");
      m.prefilter_candidates_out =
          registry.GetCounter("walrus.prefilter.candidates_out");
      m.prefilter_seconds = registry.GetHistogram(
          "walrus.prefilter.seconds", QuerySecondsBuckets());
      return m;
    }();
    return metrics;
  }
};

/// Records a probe stage's tree work in `diag`: in-memory node visits as
/// nodes_visited, paged ones as page reads, every one of them served from
/// the resident arena (a cache hit). Counts come from the traversals this
/// query ran, so they are exact under concurrent queries.
void RecordTreeWork(const WalrusIndex& index, int64_t visited,
                    ProbeDiagnostics* diag) {
  if (index.is_paged()) {
    diag->pages_read = visited;
    diag->cache_hits = visited;
    diag->cache_misses = 0;
  } else {
    diag->nodes_visited = visited;
  }
}

/// One accepted probe hit, recorded flat during traversal (a plain vector
/// push per hit; the by-image grouping happens once at the end, not per
/// candidate).
struct ProbeHit {
  uint64_t image_id;
  RegionPair pair;
};

/// Converts the flat probe-hit list into the canonical candidate list:
/// images ascending, pairs sorted by (query_index, target_index). Each
/// (query region, target region) pair appears at most once, so the sort is
/// a total order and the resulting candidate list is a pure function of the
/// candidate *set* — independent of the tree traversal order that
/// discovered it.
std::vector<CandidateImage> CanonicalCandidates(std::vector<ProbeHit> hits) {
  std::sort(hits.begin(), hits.end(),
            [](const ProbeHit& a, const ProbeHit& b) {
              if (a.image_id != b.image_id) return a.image_id < b.image_id;
              if (a.pair.query_index != b.pair.query_index) {
                return a.pair.query_index < b.pair.query_index;
              }
              return a.pair.target_index < b.pair.target_index;
            });
  std::vector<CandidateImage> candidates;
  for (ProbeHit& hit : hits) {
    if (candidates.empty() || candidates.back().image_id != hit.image_id) {
      candidates.push_back({hit.image_id, {}});
    }
    candidates.back().pairs.push_back(hit.pair);
  }
  return candidates;
}

}  // namespace

Result<ExtractedQuery> ExtractQueryRegions(const ImageF& query_image,
                                           const WalrusParams& params,
                                           QueryTrace* trace) {
  TraceScope extract_span(trace, "extract");
  WALRUS_ASSIGN_OR_RETURN(std::vector<Region> regions,
                          ExtractRegions(query_image, params, nullptr, trace));
  ExtractedQuery extracted;
  extracted.regions = std::move(regions);
  extracted.query_area =
      static_cast<double>(query_image.width()) * query_image.height();
  return extracted;
}

Result<ExtractedQuery> ExtractSceneQueryRegions(const ImageF& query_image,
                                                const PixelRect& scene,
                                                const WalrusParams& params,
                                                QueryTrace* trace) {
  TraceScope extract_span(trace, "extract");
  WALRUS_ASSIGN_OR_RETURN(
      std::vector<Region> regions,
      ExtractSceneRegions(query_image, scene, params, nullptr, trace));
  if (regions.empty()) {
    return Status::InvalidArgument("scene produced no regions");
  }
  // Region bitmaps are image-relative, so the "query area" must be the
  // pixels the scene's windows can actually cover: the union of all scene
  // region bitmaps. With kQueryOnly normalization a perfect match then
  // scores 1 regardless of how small the marked scene is.
  CoverageBitmap coverable(regions[0].bitmap.side());
  for (const Region& region : regions) {
    coverable.UnionWith(region.bitmap);
  }
  double image_area =
      static_cast<double>(query_image.width()) * query_image.height();
  ExtractedQuery extracted;
  extracted.regions = std::move(regions);
  extracted.query_area = image_area * coverable.CoveredFraction();
  return extracted;
}

Result<std::vector<CandidateImage>> ProbeCandidates(
    const WalrusIndex& index, const std::vector<Region>& query_regions,
    const QueryOptions& options, ProbeDiagnostics* diag, QueryTrace* trace) {
  const bool use_bbox =
      index.params().signature_kind == RegionSignatureKind::kBoundingBox;
  int64_t nodes_visited = 0;
  int64_t regions_retrieved = 0;

  // Signature prefilter tier (DESIGN.md section 16): instead of the exact
  // centroid test inline in the traversal, collect raw envelope hits per
  // query region and post-filter each bucket through the signature store
  // (admissible Hamming prune, then a batched exact verification). The
  // accepted candidate set is provably the same either way.
  const bool prefilter = options.signature_prefilter && !use_bbox &&
                         index.signatures().dim() > 0;

  std::vector<ProbeHit> hits;
  hits.reserve(256);
  std::vector<std::vector<uint64_t>> raw_hits;
  if (prefilter) raw_hits.resize(query_regions.size());
  // Records a probe hit after the centroid post-filter. Identical for the
  // batched and per-region paths, so the candidate *set* (and therefore
  // the canonicalized output) cannot depend on which path ran. The kernel
  // table is resolved once for the whole probe stage; the inlined distance
  // test matches RegionsMatchCentroid exactly (full ordered sum vs eps^2).
  const simd::KernelTable& kern = simd::Active();
  const double eps2 =
      static_cast<double>(options.epsilon) * options.epsilon;
  const auto accept = [&](size_t qi, const Rect& rect, uint64_t payload) {
    if (prefilter) {
      // Defer the exact test to the filter tier.
      raw_hits[qi].push_back(payload);
      return;
    }
    const Region& q = query_regions[qi];
    if (!use_bbox) {
      // Exact Euclidean test on the stored centroid (== rect.lo()).
      if (kern.squared_l2_f32(q.centroid.data(), rect.lo().data(),
                              static_cast<int>(q.centroid.size())) > eps2) {
        return;
      }
    }
    uint64_t image_id;
    uint32_t region_id;
    DecodeRegionPayload(payload, &image_id, &region_id);
    ++regions_retrieved;
    hits.push_back(
        {image_id, {static_cast<int>(qi), static_cast<int>(region_id)}});
  };

  if (options.batched_probe && query_regions.size() > 1) {
    // Batched multi-probe: every region's envelope goes down ONE shared
    // traversal (Hilbert-ordered active sets, per-node SIMD filtering).
    static Histogram* const batch_size =
        MetricsRegistry::Global().GetHistogram("walrus.probe.batch_size",
                                               ExponentialBuckets(1, 2, 12));
    std::vector<Rect> probes;
    probes.reserve(query_regions.size());
    for (const Region& q : query_regions) {
      probes.push_back(q.IndexRect(use_bbox).Expanded(options.epsilon));
    }
    batch_size->Observe(static_cast<double>(probes.size()));
    // One traversal for the whole batch: the count is deduplicated nodes,
    // not a per-probe sum.
    WALRUS_RETURN_IF_ERROR(index.ProbeRangeBatch(
        probes,
        [&](int qi, const Rect& rect, uint64_t payload) {
          accept(static_cast<size_t>(qi), rect, payload);
          return true;
        },
        &nodes_visited));
  } else {
    for (size_t qi = 0; qi < query_regions.size(); ++qi) {
      const Region& q = query_regions[qi];
      Rect probe = q.IndexRect(use_bbox).Expanded(options.epsilon);
      int64_t visited = 0;
      WALRUS_RETURN_IF_ERROR(index.ProbeRange(
          probe,
          [&](const Rect& rect, uint64_t payload) {
            accept(qi, rect, payload);
            return true;
          },
          &visited));
      nodes_visited += visited;
    }
  }

  SignatureFilterCounters filter_counters;
  double filter_seconds = 0.0;
  if (prefilter) {
    TraceScope filter_span(trace, "filter");
    WallTimer filter_timer;
    const SignatureStore& store = index.signatures();
    SignatureFilterScratch scratch;
    for (size_t qi = 0; qi < query_regions.size(); ++qi) {
      const size_t survivors =
          store.FilterCandidates(query_regions[qi].centroid, eps2,
                                 &raw_hits[qi], &scratch, &filter_counters);
      for (size_t i = 0; i < survivors; ++i) {
        uint64_t image_id;
        uint32_t region_id;
        DecodeRegionPayload(raw_hits[qi][i], &image_id, &region_id);
        hits.push_back({image_id, {static_cast<int>(qi),
                                   static_cast<int>(region_id)}});
      }
      regions_retrieved += static_cast<int64_t>(survivors);
    }
    filter_seconds = filter_timer.ElapsedSeconds();
  }

  if (diag != nullptr) {
    diag->regions_retrieved = regions_retrieved;
    RecordTreeWork(index, nodes_visited, diag);
    diag->filter_seconds = filter_seconds;
    diag->prefilter_candidates_in = filter_counters.candidates_in;
    diag->prefilter_pruned = filter_counters.hamming_pruned;
    diag->prefilter_candidates_out = filter_counters.verified_out;
  }
  return CanonicalCandidates(std::move(hits));
}

Result<std::vector<std::vector<std::pair<uint64_t, double>>>>
ProbeNearestPerRegion(const WalrusIndex& index,
                      const std::vector<Region>& query_regions, int k,
                      ProbeDiagnostics* diag) {
  int64_t nodes_visited = 0;

  std::vector<std::vector<std::pair<uint64_t, double>>> neighbors;
  neighbors.reserve(query_regions.size());
  for (const Region& q : query_regions) {
    int64_t visited = 0;
    WALRUS_ASSIGN_OR_RETURN(auto found,
                            index.ProbeNearest(q.centroid, k, &visited));
    nodes_visited += visited;
    neighbors.push_back(std::move(found));
  }

  if (diag != nullptr) {
    int64_t retrieved = 0;
    for (const auto& per_region : neighbors) {
      retrieved += static_cast<int64_t>(per_region.size());
    }
    diag->regions_retrieved = retrieved;
    RecordTreeWork(index, nodes_visited, diag);
  }
  return neighbors;
}

std::vector<CandidateImage> CandidatesFromNeighbors(
    const std::vector<std::vector<std::pair<uint64_t, double>>>& neighbors) {
  std::vector<ProbeHit> hits;
  for (size_t qi = 0; qi < neighbors.size(); ++qi) {
    for (const auto& [payload, distance] : neighbors[qi]) {
      (void)distance;
      uint64_t image_id;
      uint32_t region_id;
      DecodeRegionPayload(payload, &image_id, &region_id);
      hits.push_back(
          {image_id, {static_cast<int>(qi), static_cast<int>(region_id)}});
    }
  }
  return CanonicalCandidates(std::move(hits));
}

Result<std::vector<QueryMatch>> ScoreCandidates(
    const WalrusIndex& index, const std::vector<Region>& query_regions,
    double query_area, const QueryOptions& options,
    const std::vector<CandidateImage>& candidates) {
  std::vector<QueryMatch> matches;
  matches.reserve(candidates.size());
  std::vector<char> materialized;
  for (const CandidateImage& candidate : candidates) {
    std::vector<Region> target_regions;
    double target_area = 0.0;
    if (options.signature_prefilter) {
      // Paired-only materialization: the matchers dereference only target
      // regions named by the pairs (plus target[0]'s bitmap side), so
      // decoding every region of the candidate -- the dominant cost of
      // this stage -- is wasted work. Slot ti is decoded from the same
      // record position the full path would put there, so scores are
      // identical.
      const ImageRecord* record = index.catalog().FindImage(candidate.image_id);
      if (record == nullptr) {
        return Status::NotFound("image id " +
                                std::to_string(candidate.image_id));
      }
      target_regions.resize(record->regions.size());
      materialized.assign(record->regions.size(), 0);
      for (const RegionPair& pair : candidate.pairs) {
        if (!materialized[pair.target_index]) {
          target_regions[pair.target_index] =
              Region::FromRecord(record->regions[pair.target_index]);
          materialized[pair.target_index] = 1;
        }
      }
      if (!record->regions.empty() && !materialized[0]) {
        // The matchers size their union bitmaps from target[0].
        target_regions[0].bitmap =
            CoverageBitmap(static_cast<int>(record->regions[0].bitmap_side));
      }
      target_area = static_cast<double>(record->width) * record->height;
    } else {
      WALRUS_ASSIGN_OR_RETURN(target_regions,
                              index.ImageRegions(candidate.image_id));
      WALRUS_ASSIGN_OR_RETURN(target_area,
                              index.ImageArea(candidate.image_id));
    }
    // Refined matching phase (section 5.5): re-verify pairs with the more
    // detailed signatures where both sides carry them.
    const std::vector<RegionPair>* pairs = &candidate.pairs;
    std::vector<RegionPair> refined_pairs;
    if (options.use_refinement) {
      refined_pairs.reserve(candidate.pairs.size());
      for (const RegionPair& pair : candidate.pairs) {
        const std::vector<float>& q_ref =
            query_regions[pair.query_index].refined_centroid;
        const std::vector<float>& t_ref =
            target_regions[pair.target_index].refined_centroid;
        if (!q_ref.empty() && q_ref.size() == t_ref.size() &&
            !RegionsMatchCentroid(q_ref.data(), t_ref.data(),
                                  static_cast<int>(q_ref.size()),
                                  options.refined_epsilon)) {
          continue;  // refuted at the finer resolution
        }
        refined_pairs.push_back(pair);
      }
      pairs = &refined_pairs;
    }
    MatchResult result =
        options.matcher == MatcherKind::kGreedy
            ? GreedyMatch(query_regions, target_regions, *pairs, query_area,
                          target_area)
            : QuickMatch(query_regions, target_regions, *pairs, query_area,
                         target_area);
    double similarity = result.SimilarityAs(options.normalization, query_area,
                                            target_area);
    if (similarity < options.tau) continue;
    QueryMatch match;
    match.image_id = candidate.image_id;
    match.similarity = similarity;
    match.matching_pairs = static_cast<int>(pairs->size());
    match.pairs_used = result.pairs_used;
    if (options.collect_pairs) match.pairs = std::move(result.used_pairs);
    matches.push_back(std::move(match));
  }
  return matches;
}

void RankMatches(std::vector<QueryMatch>* matches, int top_k) {
  std::sort(matches->begin(), matches->end(),
            [](const QueryMatch& a, const QueryMatch& b) {
              if (a.similarity != b.similarity) {
                return a.similarity > b.similarity;
              }
              return a.image_id < b.image_id;
            });
  if (top_k > 0 && static_cast<int>(matches->size()) > top_k) {
    matches->resize(top_k);
  }
}

Status ValidateQueryOptions(const QueryOptions& options) {
  auto envelope = [](const char* name, double value) {
    if (std::isfinite(value) && value >= 0.0) return Status::OK();
    return Status::InvalidArgument(std::string("options: ") + name +
                                   " must be finite and >= 0, got " +
                                   std::to_string(value));
  };
  WALRUS_RETURN_IF_ERROR(envelope("epsilon", options.epsilon));
  WALRUS_RETURN_IF_ERROR(envelope("refined_epsilon", options.refined_epsilon));
  if (!std::isfinite(options.tau)) {
    return Status::InvalidArgument("options: tau must be finite, got " +
                                   std::to_string(options.tau));
  }
  if (options.knn_per_region < 0) {
    return Status::InvalidArgument(
        "options: knn_per_region must be >= 0, got " +
        std::to_string(options.knn_per_region));
  }
  if (options.top_k < 0) {
    return Status::InvalidArgument("options: top_k must be >= 0, got " +
                                   std::to_string(options.top_k));
  }
  return Status::OK();
}

namespace {

/// The matching pipeline behind every single-index query entry point:
/// probe -> score -> rank (the query_pipeline.h stages), plus timing,
/// metrics, and tracing. `trace`, when non-null, receives the
/// probe/match/rank spans; callers own the extract span (they know whether
/// extraction happened at all) and have validated `options`.
Result<std::vector<QueryMatch>> RunMatchingPipeline(
    const WalrusIndex& index, const std::vector<Region>& query_regions,
    double query_area, const QueryOptions& options, QueryStats* stats,
    QueryTrace* trace) {
  WallTimer timer;
  const QueryPathMetrics& metrics = QueryPathMetrics::Get();
  const bool use_bbox =
      index.params().signature_kind == RegionSignatureKind::kBoundingBox;

  // Region matching (section 5.4): one epsilon-expanded probe (or kNN
  // lookup) per query region.
  std::vector<CandidateImage> candidates;
  ProbeDiagnostics diag;
  double probe_seconds = 0.0;
  {
    TraceScope probe_span(trace, "probe");
    WallTimer probe_timer;
    if (options.knn_per_region > 0 && !use_bbox) {
      // kNN probing: fixed candidate budget per query region.
      WALRUS_ASSIGN_OR_RETURN(
          auto neighbors,
          ProbeNearestPerRegion(index, query_regions, options.knn_per_region,
                                &diag));
      candidates = CandidatesFromNeighbors(neighbors);
    } else {
      WALRUS_ASSIGN_OR_RETURN(
          candidates,
          ProbeCandidates(index, query_regions, options, &diag, trace));
    }
    // Keep the stages disjoint: the signature tier timed itself inside the
    // probe block, so subtract it out of the probe figure.
    probe_seconds = probe_timer.ElapsedSeconds() - diag.filter_seconds;
  }

  // Image matching (section 5.5).
  std::vector<QueryMatch> matches;
  double match_seconds = 0.0;
  {
    TraceScope match_span(trace, "match");
    WallTimer match_timer;
    WALRUS_ASSIGN_OR_RETURN(
        matches, ScoreCandidates(index, query_regions, query_area, options,
                                 candidates));
    match_seconds = match_timer.ElapsedSeconds();
  }

  double rank_seconds = 0.0;
  {
    TraceScope rank_span(trace, "rank");
    WallTimer rank_timer;
    RankMatches(&matches, options.top_k);
    rank_seconds = rank_timer.ElapsedSeconds();
  }

  metrics.queries->Increment();
  metrics.regions_retrieved->Increment(
      static_cast<uint64_t>(diag.regions_retrieved));
  metrics.candidate_images->Increment(candidates.size());
  metrics.seconds->Observe(timer.ElapsedSeconds());
  metrics.probe_seconds->Observe(probe_seconds);
  metrics.match_seconds->Observe(match_seconds);
  if (diag.prefilter_candidates_in > 0 || diag.filter_seconds > 0.0) {
    metrics.prefilter_candidates_in->Increment(
        static_cast<uint64_t>(diag.prefilter_candidates_in));
    metrics.prefilter_pruned->Increment(
        static_cast<uint64_t>(diag.prefilter_pruned));
    metrics.prefilter_candidates_out->Increment(
        static_cast<uint64_t>(diag.prefilter_candidates_out));
    metrics.prefilter_seconds->Observe(diag.filter_seconds);
  }

  if (stats != nullptr) {
    stats->query_regions = static_cast<int>(query_regions.size());
    stats->regions_retrieved = diag.regions_retrieved;
    stats->avg_regions_per_query_region =
        query_regions.empty()
            ? 0.0
            : static_cast<double>(diag.regions_retrieved) /
                  query_regions.size();
    stats->distinct_images = static_cast<int>(candidates.size());
    stats->seconds += timer.ElapsedSeconds();
    stats->probe_seconds = probe_seconds;
    stats->filter_seconds = diag.filter_seconds;
    stats->match_seconds = match_seconds;
    stats->rank_seconds = rank_seconds;
    stats->prefilter_candidates_in = diag.prefilter_candidates_in;
    stats->prefilter_pruned = diag.prefilter_pruned;
    stats->prefilter_candidates_out = diag.prefilter_candidates_out;
    stats->nodes_visited = diag.nodes_visited;
    stats->pages_read = diag.pages_read;
    stats->cache_hits = diag.cache_hits;
    stats->cache_misses = diag.cache_misses;
  }
  return matches;
}

/// Picks the trace for one query: an actual trace only when the caller
/// asked for one AND passed a stats sink to carry the spans back.
QueryTrace* TraceFor(const QueryOptions& options, QueryStats* stats,
                     QueryTrace* storage) {
  return options.collect_trace && stats != nullptr ? storage : nullptr;
}

}  // namespace

Result<std::vector<QueryMatch>> ExecuteQueryWithRegions(
    const WalrusIndex& index, const std::vector<Region>& query_regions,
    double query_area, const QueryOptions& options, QueryStats* stats) {
  WALRUS_RETURN_IF_ERROR(ValidateQueryOptions(options));
  QueryTrace storage;
  QueryTrace* trace = TraceFor(options, stats, &storage);
  auto result = RunMatchingPipeline(index, query_regions, query_area,
                                    options, stats, trace);
  if (trace != nullptr) stats->spans = trace->TakeSpans();
  return result;
}

Result<std::vector<QueryMatch>> ExecuteSceneQuery(const WalrusIndex& index,
                                                  const ImageF& query_image,
                                                  const PixelRect& scene,
                                                  const QueryOptions& options,
                                                  QueryStats* stats) {
  WALRUS_RETURN_IF_ERROR(ValidateQueryOptions(options));
  QueryTrace storage;
  QueryTrace* trace = TraceFor(options, stats, &storage);
  WallTimer timer;
  WALRUS_ASSIGN_OR_RETURN(
      ExtractedQuery extracted,
      ExtractSceneQueryRegions(query_image, scene, index.params(), trace));
  double extract_seconds = timer.ElapsedSeconds();
  QueryPathMetrics::Get().extract_seconds->Observe(extract_seconds);
  if (stats != nullptr) {
    stats->seconds = extract_seconds;
    stats->extract_seconds = extract_seconds;
  }
  auto result =
      RunMatchingPipeline(index, extracted.regions, extracted.query_area,
                          options, stats, trace);
  if (trace != nullptr) stats->spans = trace->TakeSpans();
  return result;
}

Result<std::vector<std::vector<QueryMatch>>> ExecuteQueryBatch(
    const QueryEngine& engine, const std::vector<ImageF>& queries,
    const QueryOptions& options, int num_threads) {
  std::vector<std::vector<QueryMatch>> results(queries.size());
  if (queries.empty()) return results;
  if (num_threads <= 0) num_threads = ThreadPool::DefaultThreads();
  num_threads = std::min<int>(num_threads, static_cast<int>(queries.size()));

  std::vector<std::unique_ptr<Result<std::vector<QueryMatch>>>> slots(
      queries.size());
  {
    ThreadPool pool(num_threads);
    pool.ParallelFor(static_cast<int>(queries.size()), [&](int i) {
      slots[i] = std::make_unique<Result<std::vector<QueryMatch>>>(
          engine.RunQuery(queries[i], options, nullptr));
    });
  }
  for (size_t i = 0; i < slots.size(); ++i) {
    if (!slots[i]->ok()) {
      // Name the failing query: a caller batching hundreds of images needs
      // to know which one to drop or retry, not just that "one" failed.
      return Annotate(slots[i]->status(),
                      "query " + std::to_string(i) + " of " +
                          std::to_string(queries.size()));
    }
    results[i] = std::move(*slots[i]).value();
  }
  return results;
}

Result<std::vector<std::vector<QueryMatch>>> ExecuteQueryBatch(
    const WalrusIndex& index, const std::vector<ImageF>& queries,
    const QueryOptions& options, int num_threads) {
  SingleIndexEngine engine(index);
  return ExecuteQueryBatch(engine, queries, options, num_threads);
}

Result<std::vector<QueryMatch>> ExecuteQuery(const WalrusIndex& index,
                                             const ImageF& query_image,
                                             const QueryOptions& options,
                                             QueryStats* stats) {
  WALRUS_RETURN_IF_ERROR(ValidateQueryOptions(options));
  QueryTrace storage;
  QueryTrace* trace = TraceFor(options, stats, &storage);
  WallTimer timer;
  WALRUS_ASSIGN_OR_RETURN(
      ExtractedQuery extracted,
      ExtractQueryRegions(query_image, index.params(), trace));
  double extraction_seconds = timer.ElapsedSeconds();
  QueryPathMetrics::Get().extract_seconds->Observe(extraction_seconds);
  if (stats != nullptr) {
    stats->seconds = extraction_seconds;
    stats->extract_seconds = extraction_seconds;
  }
  auto result =
      RunMatchingPipeline(index, extracted.regions, extracted.query_area,
                          options, stats, trace);
  if (trace != nullptr) stats->spans = trace->TakeSpans();
  return result;
}

}  // namespace walrus
