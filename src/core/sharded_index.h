#ifndef WALRUS_CORE_SHARDED_INDEX_H_
#define WALRUS_CORE_SHARDED_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/index.h"
#include "core/query.h"
#include "core/query_engine.h"
#include "core/result_cache.h"

namespace walrus {

/// Horizontally partitioned WALRUS database: images are hash-routed across
/// N independent WalrusIndex shards (each with its own R*-tree or paged
/// backend), and every query fans out to all shards in parallel. Because
/// the query pipeline's probe and score stages are deterministic in the
/// indexed data (core/query_pipeline.h) and the final rank is a total
/// order, a ShardedIndex returns **byte-identical rankings** to one
/// monolithic WalrusIndex holding the same images — sharding changes only
/// where the probe work runs. (Exception: kNN probing, where per-shard
/// top-k lists are merged by (distance, payload); exact tie order at the
/// k-th distance can differ from a single tree's traversal-order ties.)
///
/// An optional LRU result cache (core/result_cache.h) sits in front of the
/// whole pipeline: repeated hot queries skip extraction, probing, and
/// matching. Any mutation (AddImage / AddImages / RemoveImage) invalidates
/// the entire cache — see the invalidation rules in DESIGN.md §11.
///
/// Thread-safety: concurrent queries are safe (shards are read-only during
/// queries, the cache locks internally, fan-out uses a per-call latch on
/// the engine's own pool). Mutations are NOT safe concurrently with queries
/// or each other — same contract as WalrusIndex.
class ShardedIndex : public QueryEngine {
 public:
  struct Options {
    /// Number of shards (>= 1). Fixed for the lifetime of the engine and
    /// baked into saved layouts.
    int num_shards = 1;
    /// Result-cache capacity in entries; 0 disables caching.
    size_t cache_capacity = 0;
    /// Fan-out pool size; 0 sizes it to min(num_shards, hardware) - 1
    /// (the calling thread always runs shard 0's probe itself).
    int fanout_threads = 0;
  };

  /// Which shard owns an image id: splitmix64(image_id) % num_shards.
  /// Hashed, not modulo raw ids, so sequential id ranges spread evenly.
  static int ShardOf(uint64_t image_id, int num_shards);

  /// Empty sharded index; images arrive via AddImage / AddImages.
  ShardedIndex(WalrusParams params, Options options);

  /// Repartitions an existing single index: every catalog record is routed
  /// to its shard and each shard's tree is STR-bulk-loaded — region
  /// extraction is NOT re-run. This is how walrusd serves a saved
  /// single-index layout with --shards N.
  static Result<ShardedIndex> Partition(const WalrusIndex& source,
                                        Options options);

  // -- QueryEngine ---------------------------------------------------------

  Result<std::vector<QueryMatch>> RunQuery(
      const ImageF& query_image, const QueryOptions& options,
      QueryStats* stats = nullptr) const override;

  Result<std::vector<QueryMatch>> RunSceneQuery(
      const ImageF& query_image, const PixelRect& scene,
      const QueryOptions& options, QueryStats* stats = nullptr) const override;

  size_t ImageCount() const override;
  size_t RegionCount() const override;
  EngineStats Stats() const override;

  // -- Mutations (invalidate the result cache) -----------------------------

  /// Routes to the owning shard. Same contract as WalrusIndex::AddImage.
  Status AddImage(uint64_t image_id, const std::string& name,
                  const ImageF& image);

  /// Splits the batch by owning shard and bulk-adds per shard. Atomic per
  /// the WalrusIndex::AddImages contract only when ids are pre-validated;
  /// duplicate ids are rejected up front across all shards.
  Status AddImages(std::vector<WalrusIndex::PendingImage> images,
                   int num_threads = 0);

  /// Removes from the owning shard; NotFound when absent.
  Status RemoveImage(uint64_t image_id);

  // -- Persistence ---------------------------------------------------------

  /// Writes `<prefix>.smeta` (shard manifest) plus one single-index layout
  /// per shard under `<prefix>.s<i>`. `paged` selects
  /// WalrusIndex::SavePaged per shard instead of Save.
  Status Save(const std::string& path_prefix, bool paged = false) const;

  /// Opens a layout written by Save. Cache/fan-out sizing comes from
  /// `options`; its num_shards is ignored (the manifest decides).
  static Result<ShardedIndex> Open(const std::string& path_prefix,
                                   Options options);
  static Result<ShardedIndex> Open(const std::string& path_prefix);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const WalrusIndex& shard(int i) const { return shards_[i]; }
  const WalrusParams& params() const { return params_; }
  const ResultCache* result_cache() const { return cache_.get(); }

 private:
  ShardedIndex(WalrusParams params, Options options,
               std::vector<WalrusIndex> shards);

  /// Probe + score on every shard in parallel, then merge and rank.
  /// Callers have validated `options`.
  Result<std::vector<QueryMatch>> RunPipelineSharded(
      const std::vector<Region>& query_regions, double query_area,
      const QueryOptions& options, QueryStats* stats,
      QueryTrace* trace) const;

  WalrusParams params_;
  Options options_;
  std::vector<WalrusIndex> shards_;
  /// Cumulative regions retrieved by probes, per shard (EngineStats).
  mutable std::vector<std::atomic<uint64_t>> shard_probe_regions_;
  /// Registry mirrors: walrus.sharded.probe_regions.s<i>.
  std::vector<Counter*> shard_probe_counters_;
  std::unique_ptr<ResultCache> cache_;
  /// Engine-owned fan-out pool. Separate from any caller pool on purpose:
  /// ThreadPool::Wait() waits for ALL queued work, so per-query fan-out
  /// synchronizes with a per-call latch instead, and nesting this engine
  /// under ExecuteQueryBatch's pool cannot deadlock.
  mutable std::unique_ptr<ThreadPool> fanout_pool_;
};

}  // namespace walrus

#endif  // WALRUS_CORE_SHARDED_INDEX_H_
