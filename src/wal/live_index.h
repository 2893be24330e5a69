#ifndef WALRUS_WAL_LIVE_INDEX_H_
#define WALRUS_WAL_LIVE_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "core/index.h"
#include "core/ingest_engine.h"
#include "core/query.h"
#include "core/query_engine.h"
#include "core/result_cache.h"
#include "core/sharded_index.h"
#include "wal/wal.h"

namespace walrus {

/// Durable live-ingest engine (DESIGN.md section 14): an immutable,
/// STR-bulk-loaded sharded base plus an in-memory incremental delta index
/// and a tombstone set, fronted by a write-ahead log — the LSM shape of
/// tarantool's vinyl, sized down to one level.
///
/// Directory layout under `dir`:
///
///   wal.log        the write-ahead log (wal/wal.h framing)
///   MANIFEST       current base generation + the last LSN folded into it
///   base.<g>.*     sharded-index layout of base generation g
///                  (base.<g>.smeta + base.<g>.s<i>.{catalog,index})
///
/// Mutations append to the WAL (group-committed fsync) before they are
/// acknowledged; recovery replays every WAL record past the MANIFEST's
/// last-folded LSN. A merge folds base-minus-tombstones-plus-delta into a
/// bulk-loaded base generation g+1, fsyncs the new files, atomically
/// renames a new MANIFEST over the old (tmp + fsync + rename + dir fsync),
/// resets the WAL, and swaps the in-memory state — every crash point
/// either replays into the old generation or starts clean from the new.
///
/// **Ranking bit-identity.** Queries compose the public pipeline stages
/// (core/query_pipeline.h) over base shards and delta, filtering
/// tombstoned images before scoring. Because probe candidate sets are pure
/// functions of the indexed data (independent of tree layout and
/// partitioning), and RankMatches is a total order, the merged ranking is
/// bit-identical to an offline rebuild of the same live image set — the
/// invariant the golden ingest suite pins.
///
/// Thread-safety: concurrent queries, concurrent mutations, and queries
/// concurrent with mutations are all safe. Lock order: `ingest_mu_`
/// (serializes mutations and merges) before `state_mu_` (readers hold it
/// across a whole query pipeline; writers only for the brief apply/swap).
/// WAL fsync happens outside both locks so concurrent inserters share
/// group commits.
class LiveIndex : public QueryEngine, public IngestEngine {
 public:
  struct Options {
    /// Base partition count (>= 1); fixed at first boot, persisted in the
    /// MANIFEST, and authoritative on reopen.
    int num_shards = 1;
    /// Result-cache capacity in entries; 0 disables caching.
    size_t cache_capacity = 0;
    /// Delta images + tombstones that trigger a background merge;
    /// 0 = merge only when Merge() is called explicitly.
    size_t merge_threshold = 64;
    /// Save base shards with the paged (disk-tree) layout.
    bool paged_base = false;
  };

  /// Opens (or initializes) the live index rooted at `dir` (which must
  /// exist). First boot — no MANIFEST — partitions `seed` (nullptr = start
  /// empty) into base generation 1 and creates an empty WAL. Later boots
  /// ignore `seed` and `params`: the persisted base decides both, and the
  /// WAL's surviving records are replayed into the delta.
  [[nodiscard]] static Result<std::unique_ptr<LiveIndex>> Open(
      const std::string& dir, WalrusParams params, Options options,
      const WalrusIndex* seed = nullptr);

  LiveIndex(const LiveIndex&) = delete;
  LiveIndex& operator=(const LiveIndex&) = delete;
  ~LiveIndex() override;

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

  // -- IngestEngine --------------------------------------------------------

  [[nodiscard]] Status InsertImage(uint64_t image_id, const std::string& name,
                                   const ImageF& image) override;
  [[nodiscard]] Status DeleteImage(uint64_t image_id) override;
  IngestStats IngestStatsSnapshot() const override;

  // -- Maintenance ---------------------------------------------------------

  /// Folds the delta and tombstones into base generation g+1, durably
  /// (snapshot + manifest swap + WAL reset). No-op when nothing changed
  /// since the last merge. Runs automatically past merge_threshold.
  [[nodiscard]] Status Merge() WALRUS_EXCLUDES(ingest_mu_, state_mu_);

  /// Blocks until no background merge is scheduled or running (tests).
  void WaitForMerge() WALRUS_EXCLUDES(merge_mu_);

  /// Current base generation (g of base.<g>).
  uint64_t generation() const WALRUS_EXCLUDES(state_mu_);

  /// True when `image_id` is live (in the delta, or in the base and not
  /// tombstoned). Tools and the crash-recovery harness use this to audit
  /// the recovered image set without mutating it.
  bool ContainsImage(uint64_t image_id) const WALRUS_EXCLUDES(state_mu_);

  /// True when every base shard serves probes from its decoded page tree
  /// (Options::paged_base), after Open and after every Merge alike.
  bool BaseIsPaged() const WALRUS_EXCLUDES(state_mu_);

  const std::string& dir() const { return dir_; }
  const WalrusParams& params() const { return params_; }
  const ResultCache* result_cache() const { return cache_.get(); }

 private:
  LiveIndex(std::string dir, WalrusParams params, Options options);

  /// Decodes + applies one replayed WAL record to the delta/tombstones.
  [[nodiscard]] Status ApplyReplayRecord(const WalRecord& record)
      WALRUS_EXCLUDES(state_mu_);

  /// Applies a delete to the in-memory state. Caller holds ingest_mu_ (or
  /// is single-threaded recovery) and takes the state writer lock here.
  [[nodiscard]] Status ApplyDelete(uint64_t image_id)
      WALRUS_EXCLUDES(state_mu_);

  /// Schedules a background merge when the delta has outgrown the
  /// threshold and none is already queued.
  void MaybeScheduleMerge() WALRUS_EXCLUDES(merge_mu_);

  /// The live composition: probe + score base shards (minus tombstones)
  /// and delta, then rank. Caller holds the state reader lock and has
  /// validated `options`.
  Result<std::vector<QueryMatch>> RunPipelineLive(
      const std::vector<Region>& query_regions, double query_area,
      const QueryOptions& options, QueryStats* stats) const
      WALRUS_REQUIRES_SHARED(state_mu_);

  /// Shared whole-image / scene query driver around RunPipelineLive.
  Result<std::vector<QueryMatch>> RunAnyQuery(
      const ImageF& query_image, const PixelRect* scene,
      const QueryOptions& options, QueryStats* stats) const
      WALRUS_EXCLUDES(state_mu_);

  const std::string dir_;
  const WalrusParams params_;
  const Options options_;

  std::unique_ptr<WriteAheadLog> wal_;
  std::unique_ptr<ResultCache> cache_;

  /// Serializes mutations and merges; never held while fsyncing the WAL.
  mutable Mutex ingest_mu_ WALRUS_ACQUIRED_BEFORE(state_mu_);

  /// Guards the queryable state. Query pipelines hold the reader side for
  /// their whole probe+score+rank pass; mutations and the merge swap take
  /// the writer side briefly.
  mutable SharedMutex state_mu_;
  std::unique_ptr<ShardedIndex> base_ WALRUS_GUARDED_BY(state_mu_);
  std::unique_ptr<WalrusIndex> delta_ WALRUS_GUARDED_BY(state_mu_);
  std::unordered_set<uint64_t> tombstones_ WALRUS_GUARDED_BY(state_mu_);
  /// Total regions belonging to tombstoned base images: the kNN
  /// over-provision bound (probe base with k + this, then filter).
  size_t tombstoned_regions_ WALRUS_GUARDED_BY(state_mu_) = 0;
  uint64_t generation_ WALRUS_GUARDED_BY(state_mu_) = 0;

  /// Background merge bookkeeping. merge_mu_ is leaf-level: never held
  /// while taking ingest_mu_ or state_mu_... except by the merge task
  /// itself, which releases it before calling Merge().
  mutable Mutex merge_mu_;
  CondVar merge_idle_cv_;
  bool merge_scheduled_ WALRUS_GUARDED_BY(merge_mu_) = false;

  /// Cumulative ingest counters (IngestStatsSnapshot).
  mutable Mutex counter_mu_;
  uint64_t inserts_ WALRUS_GUARDED_BY(counter_mu_) = 0;
  uint64_t deletes_ WALRUS_GUARDED_BY(counter_mu_) = 0;
  uint64_t merges_ WALRUS_GUARDED_BY(counter_mu_) = 0;

  /// Single-thread pool running background merges (created lazily on the
  /// first scheduled merge; joined in the destructor).
  mutable std::unique_ptr<ThreadPool> merge_pool_;
};

/// The live directory's manifest: which base generation is current and how
/// far the WAL has been folded into it. Exposed for tests and tooling.
struct LiveManifest {
  uint64_t generation = 0;
  /// Records with lsn <= last_lsn are part of the base; replay skips them.
  uint64_t last_lsn = 0;
  uint32_t num_shards = 1;
  bool paged = false;
};

/// Reads `<dir>/MANIFEST`. NotFound when the directory is uninitialized.
[[nodiscard]] Result<LiveManifest> ReadLiveManifest(const std::string& dir);

/// Durably replaces `<dir>/MANIFEST` (tmp + fsync + rename + dir fsync).
[[nodiscard]] Status WriteLiveManifest(const std::string& dir,
                                       const LiveManifest& manifest);

}  // namespace walrus

#endif  // WALRUS_WAL_LIVE_INDEX_H_
