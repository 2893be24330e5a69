#include "core/sharded_index.h"

#include <algorithm>
#include <unordered_set>

#include "common/metrics.h"
#include "common/serialize.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/timer.h"
#include "core/query_pipeline.h"

namespace walrus {
namespace {

constexpr uint32_t kShardManifestMagic = 0x57534844;  // "WSHD"
constexpr uint32_t kShardManifestVersion = 1;

/// splitmix64 finalizer: routes sequential image-id ranges evenly across
/// shards (raw modulo would put a contiguous upload on one shard).
uint64_t Splitmix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// The sharded engine feeds the same walrus.query.* funnel as the
/// single-index pipeline (the registry hands back the same instruments by
/// name), plus per-shard probe counters registered lazily per shard index.
struct ShardedMetrics {
  Counter* queries;
  Counter* regions_retrieved;
  Counter* candidate_images;
  Histogram* seconds;
  Histogram* extract_seconds;
  Histogram* fanout_seconds;

  static const ShardedMetrics& Get() {
    static const ShardedMetrics metrics = [] {
      MetricsRegistry& registry = MetricsRegistry::Global();
      std::vector<double> buckets = ExponentialBuckets(1e-6, 2.0, 36);
      ShardedMetrics m;
      m.queries = registry.GetCounter("walrus.query.count");
      m.regions_retrieved =
          registry.GetCounter("walrus.query.regions_retrieved");
      m.candidate_images =
          registry.GetCounter("walrus.query.candidate_images");
      m.seconds = registry.GetHistogram("walrus.query.seconds", buckets);
      m.extract_seconds =
          registry.GetHistogram("walrus.query.extract_seconds", buckets);
      m.fanout_seconds =
          registry.GetHistogram("walrus.sharded.fanout_seconds", buckets);
      return m;
    }();
    return metrics;
  }
};

std::vector<WalrusIndex> EmptyShards(const WalrusParams& params, int n) {
  std::vector<WalrusIndex> shards;
  shards.reserve(n);
  for (int s = 0; s < n; ++s) shards.emplace_back(params);
  return shards;
}

}  // namespace

int ShardedIndex::ShardOf(uint64_t image_id, int num_shards) {
  return static_cast<int>(Splitmix64(image_id) %
                          static_cast<uint64_t>(num_shards));
}

ShardedIndex::ShardedIndex(WalrusParams params, Options options)
    : ShardedIndex(params, options,
                   EmptyShards(params, std::max(1, options.num_shards))) {}

ShardedIndex::ShardedIndex(WalrusParams params, Options options,
                           std::vector<WalrusIndex> shards)
    : params_(std::move(params)),
      options_(options),
      shards_(std::move(shards)),
      shard_probe_regions_(shards_.size()) {
  if (options_.cache_capacity > 0) {
    cache_ = std::make_unique<ResultCache>(options_.cache_capacity);
  }
  int n = num_shards();
  shard_probe_counters_.reserve(n);
  for (int s = 0; s < n; ++s) {
    shard_probe_counters_.push_back(MetricsRegistry::Global().GetCounter(
        "walrus.sharded.probe_regions.s" + std::to_string(s)));
  }
  if (n > 1) {
    int threads = options_.fanout_threads > 0
                      ? options_.fanout_threads
                      : std::min(n, ThreadPool::DefaultThreads()) - 1;
    if (threads >= 1) fanout_pool_ = std::make_unique<ThreadPool>(threads);
  }
}

Result<ShardedIndex> ShardedIndex::Partition(const WalrusIndex& source,
                                             Options options) {
  int n = std::max(1, options.num_shards);
  std::vector<std::vector<ImageRecord>> parts(n);
  for (const ImageRecord& record : source.catalog().images()) {
    parts[ShardOf(record.image_id, n)].push_back(record);
  }
  std::vector<WalrusIndex> shards;
  shards.reserve(n);
  for (int s = 0; s < n; ++s) {
    WALRUS_ASSIGN_OR_RETURN(
        WalrusIndex shard,
        WalrusIndex::FromRecords(source.params(), std::move(parts[s])));
    shards.push_back(std::move(shard));
  }
  options.num_shards = n;
  return ShardedIndex(source.params(), options, std::move(shards));
}

Result<std::vector<QueryMatch>> ShardedIndex::RunPipelineSharded(
    const std::vector<Region>& query_regions, double query_area,
    const QueryOptions& options, QueryStats* stats,
    QueryTrace* trace) const {
  WallTimer timer;
  const ShardedMetrics& metrics = ShardedMetrics::Get();
  const int n = num_shards();
  const bool use_bbox =
      params_.signature_kind == RegionSignatureKind::kBoundingBox;
  const bool knn = options.knn_per_region > 0 && !use_bbox;

  // Per-shard slots, written only by the shard's own task.
  std::vector<Status> shard_status(n, Status::OK());
  std::vector<ProbeDiagnostics> diags(n);
  std::vector<size_t> shard_candidates(n, 0);
  std::vector<std::vector<QueryMatch>> shard_matches(n);
  std::vector<std::vector<std::vector<std::pair<uint64_t, double>>>>
      shard_neighbors(knn ? n : 0);
  std::vector<double> shard_probe_seconds(n, 0.0);
  std::vector<double> shard_match_seconds(n, 0.0);

  auto run_shard = [&](int s) {
    const WalrusIndex& shard = shards_[s];
    WallTimer probe_timer;
    if (knn) {
      // Probe only: per-shard top-k lists must be merged globally before
      // anything is scored (the union of per-shard top-k is a superset of
      // the global top-k).
      auto neighbors = ProbeNearestPerRegion(
          shard, query_regions, options.knn_per_region, &diags[s]);
      shard_probe_seconds[s] = probe_timer.ElapsedSeconds();
      if (!neighbors.ok()) {
        shard_status[s] = neighbors.status();
        return;
      }
      shard_neighbors[s] = std::move(*neighbors);
    } else {
      auto candidates =
          ProbeCandidates(shard, query_regions, options, &diags[s]);
      // The signature tier timed itself inside the probe call; keep the
      // per-shard stage figures disjoint (filter rides in diags[s]).
      shard_probe_seconds[s] =
          probe_timer.ElapsedSeconds() - diags[s].filter_seconds;
      if (!candidates.ok()) {
        shard_status[s] = candidates.status();
        return;
      }
      shard_candidates[s] = candidates->size();
      WallTimer match_timer;
      auto matches = ScoreCandidates(shard, query_regions, query_area,
                                     options, *candidates);
      shard_match_seconds[s] = match_timer.ElapsedSeconds();
      if (!matches.ok()) {
        shard_status[s] = matches.status();
        return;
      }
      shard_matches[s] = std::move(*matches);
    }
    uint64_t retrieved = static_cast<uint64_t>(diags[s].regions_retrieved);
    shard_probe_regions_[s].fetch_add(retrieved, std::memory_order_relaxed);
    shard_probe_counters_[s]->Increment(retrieved);
  };

  // Fan out: shards 1..n-1 on the engine pool, shard 0 on the calling
  // thread, then wait on a per-call latch. The pool's global Wait() is
  // unusable here — concurrent queries share the pool, and Wait() would
  // block on *their* work too.
  double fanout_seconds = 0.0;
  {
    TraceScope fanout_span(trace, "fanout");
    WallTimer fanout_timer;
    if (n == 1 || fanout_pool_ == nullptr) {
      for (int s = 0; s < n; ++s) run_shard(s);
    } else {
      // Per-call latch: mu guards `remaining` (locals cannot carry
      // WALRUS_GUARDED_BY; the discipline here is by construction).
      Mutex mu;
      CondVar done;
      int remaining = n - 1;
      for (int s = 1; s < n; ++s) {
        fanout_pool_->Submit([&, s] {
          run_shard(s);
          MutexLock lock(mu);
          if (--remaining == 0) done.NotifyOne();
        });
      }
      run_shard(0);
      MutexLock lock(mu);
      while (remaining != 0) done.Wait(lock);
    }
    fanout_seconds = fanout_timer.ElapsedSeconds();
  }
  for (const Status& status : shard_status) {
    WALRUS_RETURN_IF_ERROR(status);
  }

  // Merge. Shards partition the image space, so match lists concatenate
  // disjointly; the global rank re-establishes the total order.
  std::vector<QueryMatch> matches;
  size_t distinct_images = 0;
  double match_seconds = 0.0;
  if (knn) {
    // Global top-k per query region, merged by (distance, payload).
    size_t num_q = query_regions.size();
    std::vector<std::vector<std::pair<uint64_t, double>>> merged(num_q);
    for (int s = 0; s < n; ++s) {
      for (size_t qi = 0; qi < num_q; ++qi) {
        merged[qi].insert(merged[qi].end(), shard_neighbors[s][qi].begin(),
                          shard_neighbors[s][qi].end());
      }
    }
    for (auto& per_region : merged) {
      std::sort(per_region.begin(), per_region.end(),
                [](const std::pair<uint64_t, double>& a,
                   const std::pair<uint64_t, double>& b) {
                  if (a.second != b.second) return a.second < b.second;
                  return a.first < b.first;
                });
      if (static_cast<int>(per_region.size()) > options.knn_per_region) {
        per_region.resize(options.knn_per_region);
      }
    }
    std::vector<CandidateImage> candidates = CandidatesFromNeighbors(merged);
    distinct_images = candidates.size();
    WallTimer match_timer;
    std::vector<std::vector<CandidateImage>> by_shard(n);
    for (CandidateImage& candidate : candidates) {
      by_shard[ShardOf(candidate.image_id, n)].push_back(
          std::move(candidate));
    }
    for (int s = 0; s < n; ++s) {
      if (by_shard[s].empty()) continue;
      WALRUS_ASSIGN_OR_RETURN(
          std::vector<QueryMatch> shard_result,
          ScoreCandidates(shards_[s], query_regions, query_area, options,
                          by_shard[s]));
      matches.insert(matches.end(),
                     std::make_move_iterator(shard_result.begin()),
                     std::make_move_iterator(shard_result.end()));
    }
    match_seconds = match_timer.ElapsedSeconds();
  } else {
    size_t total = 0;
    for (int s = 0; s < n; ++s) total += shard_matches[s].size();
    matches.reserve(total);
    for (int s = 0; s < n; ++s) {
      distinct_images += shard_candidates[s];
      matches.insert(matches.end(),
                     std::make_move_iterator(shard_matches[s].begin()),
                     std::make_move_iterator(shard_matches[s].end()));
      match_seconds = std::max(match_seconds, shard_match_seconds[s]);
    }
  }

  double rank_seconds = 0.0;
  {
    TraceScope rank_span(trace, "rank");
    WallTimer rank_timer;
    RankMatches(&matches, options.top_k);
    rank_seconds = rank_timer.ElapsedSeconds();
  }

  int64_t regions_retrieved = 0;
  double probe_seconds = 0.0;
  double filter_seconds = 0.0;
  ProbeDiagnostics total;
  for (int s = 0; s < n; ++s) {
    regions_retrieved += diags[s].regions_retrieved;
    total.nodes_visited += diags[s].nodes_visited;
    total.pages_read += diags[s].pages_read;
    total.cache_hits += diags[s].cache_hits;
    total.cache_misses += diags[s].cache_misses;
    total.prefilter_candidates_in += diags[s].prefilter_candidates_in;
    total.prefilter_pruned += diags[s].prefilter_pruned;
    total.prefilter_candidates_out += diags[s].prefilter_candidates_out;
    probe_seconds = std::max(probe_seconds, shard_probe_seconds[s]);
    filter_seconds = std::max(filter_seconds, diags[s].filter_seconds);
  }

  metrics.queries->Increment();
  metrics.regions_retrieved->Increment(
      static_cast<uint64_t>(regions_retrieved));
  metrics.candidate_images->Increment(distinct_images);
  metrics.seconds->Observe(timer.ElapsedSeconds());
  metrics.fanout_seconds->Observe(fanout_seconds);

  if (stats != nullptr) {
    stats->query_regions = static_cast<int>(query_regions.size());
    stats->regions_retrieved = regions_retrieved;
    stats->avg_regions_per_query_region =
        query_regions.empty()
            ? 0.0
            : static_cast<double>(regions_retrieved) / query_regions.size();
    stats->distinct_images = static_cast<int>(distinct_images);
    stats->seconds += timer.ElapsedSeconds();
    // Per-stage times report the fan-out critical path (max across
    // shards), not the sum — they answer "where did the wall time go".
    stats->probe_seconds = probe_seconds;
    stats->filter_seconds = filter_seconds;
    stats->match_seconds = match_seconds;
    stats->rank_seconds = rank_seconds;
    stats->prefilter_candidates_in = total.prefilter_candidates_in;
    stats->prefilter_pruned = total.prefilter_pruned;
    stats->prefilter_candidates_out = total.prefilter_candidates_out;
    stats->nodes_visited = total.nodes_visited;
    stats->pages_read = total.pages_read;
    stats->cache_hits = total.cache_hits;
    stats->cache_misses = total.cache_misses;
  }
  return matches;
}

Result<std::vector<QueryMatch>> ShardedIndex::RunQuery(
    const ImageF& query_image, const QueryOptions& options,
    QueryStats* stats) const {
  WALRUS_RETURN_IF_ERROR(ValidateQueryOptions(options));
  // Trace collection bypasses the cache: a cached answer has no pipeline
  // to trace, and spans are not part of the cached value.
  const bool cacheable = cache_ != nullptr && !options.collect_trace;
  if (stats != nullptr) stats->result_cache_hit = false;
  ResultCache::Key key;
  if (cacheable) {
    key = ResultCache::MakeKey(query_image, options);
    if (auto cached = cache_->Lookup(key)) {
      if (stats != nullptr) stats->result_cache_hit = true;
      return std::move(*cached);
    }
  }
  QueryTrace storage;
  QueryTrace* trace =
      options.collect_trace && stats != nullptr ? &storage : nullptr;
  WallTimer timer;
  WALRUS_ASSIGN_OR_RETURN(ExtractedQuery extracted,
                          ExtractQueryRegions(query_image, params_, trace));
  double extract_seconds = timer.ElapsedSeconds();
  ShardedMetrics::Get().extract_seconds->Observe(extract_seconds);
  if (stats != nullptr) {
    stats->seconds = extract_seconds;
    stats->extract_seconds = extract_seconds;
  }
  auto result = RunPipelineSharded(extracted.regions, extracted.query_area,
                                   options, stats, trace);
  if (trace != nullptr) stats->spans = trace->TakeSpans();
  if (cacheable && result.ok()) cache_->Insert(key, *result);
  return result;
}

Result<std::vector<QueryMatch>> ShardedIndex::RunSceneQuery(
    const ImageF& query_image, const PixelRect& scene,
    const QueryOptions& options, QueryStats* stats) const {
  WALRUS_RETURN_IF_ERROR(ValidateQueryOptions(options));
  const bool cacheable = cache_ != nullptr && !options.collect_trace;
  if (stats != nullptr) stats->result_cache_hit = false;
  ResultCache::Key key;
  if (cacheable) {
    key = ResultCache::MakeKey(query_image, scene, options);
    if (auto cached = cache_->Lookup(key)) {
      if (stats != nullptr) stats->result_cache_hit = true;
      return std::move(*cached);
    }
  }
  QueryTrace storage;
  QueryTrace* trace =
      options.collect_trace && stats != nullptr ? &storage : nullptr;
  WallTimer timer;
  WALRUS_ASSIGN_OR_RETURN(
      ExtractedQuery extracted,
      ExtractSceneQueryRegions(query_image, scene, params_, trace));
  double extract_seconds = timer.ElapsedSeconds();
  ShardedMetrics::Get().extract_seconds->Observe(extract_seconds);
  if (stats != nullptr) {
    stats->seconds = extract_seconds;
    stats->extract_seconds = extract_seconds;
  }
  auto result = RunPipelineSharded(extracted.regions, extracted.query_area,
                                   options, stats, trace);
  if (trace != nullptr) stats->spans = trace->TakeSpans();
  if (cacheable && result.ok()) cache_->Insert(key, *result);
  return result;
}

size_t ShardedIndex::ImageCount() const {
  size_t count = 0;
  for (const WalrusIndex& shard : shards_) count += shard.ImageCount();
  return count;
}

size_t ShardedIndex::RegionCount() const {
  size_t count = 0;
  for (const WalrusIndex& shard : shards_) count += shard.RegionCount();
  return count;
}

EngineStats ShardedIndex::Stats() const {
  EngineStats stats;
  stats.num_shards = num_shards();
  stats.shard_probes.reserve(shards_.size());
  for (const auto& probes : shard_probe_regions_) {
    stats.shard_probes.push_back(probes.load(std::memory_order_relaxed));
  }
  if (cache_ != nullptr) {
    stats.result_cache_hits = cache_->hits();
    stats.result_cache_misses = cache_->misses();
    stats.result_cache_entries = cache_->size();
    stats.result_cache_capacity = cache_->capacity();
  }
  return stats;
}

Status ShardedIndex::AddImage(uint64_t image_id, const std::string& name,
                              const ImageF& image) {
  if (cache_ != nullptr) cache_->Invalidate();
  return shards_[ShardOf(image_id, num_shards())].AddImage(image_id, name,
                                                           image);
}

Status ShardedIndex::AddImages(
    std::vector<WalrusIndex::PendingImage> images, int num_threads) {
  if (cache_ != nullptr) cache_->Invalidate();
  const int n = num_shards();
  // Cross-shard pre-validation so a duplicate in a late shard's slice
  // cannot leave earlier shards mutated.
  std::unordered_set<uint64_t> seen;
  for (const WalrusIndex::PendingImage& pending : images) {
    if (!seen.insert(pending.image_id).second ||
        shards_[ShardOf(pending.image_id, n)].catalog().FindImage(
            pending.image_id) != nullptr) {
      return Status::AlreadyExists("image id " +
                                   std::to_string(pending.image_id));
    }
  }
  std::vector<std::vector<WalrusIndex::PendingImage>> by_shard(n);
  for (WalrusIndex::PendingImage& pending : images) {
    by_shard[ShardOf(pending.image_id, n)].push_back(std::move(pending));
  }
  // Extraction failures can still leave earlier shards populated; each
  // shard's batch is individually atomic, the cross-shard batch is not.
  for (int s = 0; s < n; ++s) {
    if (by_shard[s].empty()) continue;
    WALRUS_RETURN_IF_ERROR(
        shards_[s].AddImages(std::move(by_shard[s]), num_threads));
  }
  return Status::OK();
}

Status ShardedIndex::RemoveImage(uint64_t image_id) {
  if (cache_ != nullptr) cache_->Invalidate();
  return shards_[ShardOf(image_id, num_shards())].RemoveImage(image_id);
}

Status ShardedIndex::Save(const std::string& path_prefix, bool paged) const {
  BinaryWriter writer;
  writer.PutU32(kShardManifestMagic);
  writer.PutU32(kShardManifestVersion);
  writer.PutU32(static_cast<uint32_t>(num_shards()));
  writer.PutU8(paged ? 1 : 0);
  WALRUS_RETURN_IF_ERROR(
      WriteFileBytes(path_prefix + ".smeta", writer.buffer()));
  for (int s = 0; s < num_shards(); ++s) {
    std::string shard_prefix = path_prefix + ".s" + std::to_string(s);
    WALRUS_RETURN_IF_ERROR(paged ? shards_[s].SavePaged(shard_prefix)
                                 : shards_[s].Save(shard_prefix));
  }
  return Status::OK();
}

Result<ShardedIndex> ShardedIndex::Open(const std::string& path_prefix) {
  return Open(path_prefix, Options());
}

Result<ShardedIndex> ShardedIndex::Open(const std::string& path_prefix,
                                        Options options) {
  WALRUS_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                          ReadFileBytes(path_prefix + ".smeta"));
  BinaryReader reader(bytes);
  WALRUS_ASSIGN_OR_RETURN(uint32_t magic, reader.GetU32());
  if (magic != kShardManifestMagic) {
    return Status::Corruption("sharded index: bad manifest magic");
  }
  WALRUS_ASSIGN_OR_RETURN(uint32_t version, reader.GetU32());
  if (version != kShardManifestVersion) {
    return Status::Corruption("sharded index: unsupported manifest version " +
                              std::to_string(version));
  }
  WALRUS_ASSIGN_OR_RETURN(uint32_t num_shards, reader.GetU32());
  if (num_shards == 0 || num_shards > 4096) {
    return Status::Corruption("sharded index: implausible shard count " +
                              std::to_string(num_shards));
  }
  WALRUS_ASSIGN_OR_RETURN(uint8_t paged, reader.GetU8());

  std::vector<WalrusIndex> shards;
  shards.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    std::string shard_prefix = path_prefix + ".s" + std::to_string(s);
    WALRUS_ASSIGN_OR_RETURN(WalrusIndex shard,
                            paged != 0
                                ? WalrusIndex::OpenPaged(shard_prefix)
                                : WalrusIndex::Open(shard_prefix));
    shards.push_back(std::move(shard));
  }
  WalrusParams params = shards.front().params();
  options.num_shards = static_cast<int>(num_shards);
  return ShardedIndex(std::move(params), options, std::move(shards));
}

}  // namespace walrus
