#include "wal/live_index.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/crc32.h"
#include "common/logging.h"
#include "common/serialize.h"
#include "common/timer.h"
#include "core/query_pipeline.h"
#include "storage/catalog.h"

namespace walrus {
namespace {

constexpr uint32_t kManifestMagic = 0x574C494D;  // "WLIM"
constexpr uint32_t kManifestVersion = 1;

/// Registry mirrors (OPERATIONS.md metrics catalog, "Live ingest" table).
struct IngestMetrics {
  Counter* inserts;
  Counter* deletes;
  Counter* merges;
  Gauge* delta_images;
  Gauge* tombstones;

  static const IngestMetrics& Get() {
    static const IngestMetrics metrics = [] {
      MetricsRegistry& registry = MetricsRegistry::Global();
      IngestMetrics m;
      m.inserts = registry.GetCounter("walrus.ingest.inserts");
      m.deletes = registry.GetCounter("walrus.ingest.deletes");
      m.merges = registry.GetCounter("walrus.ingest.merges");
      m.delta_images = registry.GetGauge("walrus.ingest.delta_images");
      m.tombstones = registry.GetGauge("walrus.ingest.tombstones");
      return m;
    }();
    return metrics;
  }
};

/// The live engine feeds the same walrus.query.* funnel as the other
/// engines (the registry hands back the same instruments by name).
struct LiveQueryMetrics {
  Counter* queries;
  Counter* regions_retrieved;
  Counter* candidate_images;
  Histogram* seconds;
  Histogram* extract_seconds;

  static const LiveQueryMetrics& Get() {
    static const LiveQueryMetrics metrics = [] {
      MetricsRegistry& registry = MetricsRegistry::Global();
      std::vector<double> buckets = ExponentialBuckets(1e-6, 2.0, 36);
      LiveQueryMetrics m;
      m.queries = registry.GetCounter("walrus.query.count");
      m.regions_retrieved =
          registry.GetCounter("walrus.query.regions_retrieved");
      m.candidate_images =
          registry.GetCounter("walrus.query.candidate_images");
      m.seconds = registry.GetHistogram("walrus.query.seconds", buckets);
      m.extract_seconds =
          registry.GetHistogram("walrus.query.extract_seconds", buckets);
      return m;
    }();
    return metrics;
  }
};

std::string ManifestPath(const std::string& dir) { return dir + "/MANIFEST"; }
std::string WalPath(const std::string& dir) { return dir + "/wal.log"; }
std::string BasePrefix(const std::string& dir, uint64_t generation) {
  return dir + "/base." + std::to_string(generation);
}
/// File-name prefix of every file of one base generation. The trailing dot
/// keeps "base.1" from matching "base.10.smeta".
std::string BaseFilePrefix(uint64_t generation) {
  return "base." + std::to_string(generation) + ".";
}

Result<std::vector<std::string>> ListMatchingFiles(
    const std::string& dir, const std::string& name_prefix) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::IOError("opendir " + dir + ": " + std::strerror(errno));
  }
  std::vector<std::string> paths;
  while (struct dirent* entry = ::readdir(d)) {
    std::string name = entry->d_name;
    if (name.rfind(name_prefix, 0) == 0) paths.push_back(dir + "/" + name);
  }
  ::closedir(d);
  return paths;
}

/// fsyncs every file of `name_prefix` in `dir`, then the directory itself:
/// the snapshot must be durable before the MANIFEST names it.
Status SyncBaseFiles(const std::string& dir, const std::string& name_prefix) {
  WALRUS_ASSIGN_OR_RETURN(std::vector<std::string> paths,
                          ListMatchingFiles(dir, name_prefix));
  if (paths.empty()) {
    return Status::Internal("live index: no base files matching " +
                            name_prefix + " in " + dir);
  }
  for (const std::string& path : paths) {
    WALRUS_RETURN_IF_ERROR(SyncFileForDurability(path));
  }
  return SyncParentDir(ManifestPath(dir));
}

/// Best-effort removal of a superseded base generation's files.
void UnlinkBaseFiles(const std::string& dir, const std::string& name_prefix) {
  Result<std::vector<std::string>> paths = ListMatchingFiles(dir, name_prefix);
  if (!paths.ok()) {
    WALRUS_LOG(Warning) << "live index: cannot list stale base files: "
                        << paths.status();
    return;
  }
  for (const std::string& path : *paths) {
    if (::unlink(path.c_str()) != 0) {
      WALRUS_LOG(Warning) << "live index: cannot unlink " << path << ": "
                          << std::strerror(errno);
    }
  }
}

std::vector<uint8_t> EncodeInsertBody(const ImageRecord& record) {
  BinaryWriter writer;
  record.Serialize(&writer);
  return writer.TakeBuffer();
}

std::vector<uint8_t> EncodeDeleteBody(uint64_t image_id) {
  BinaryWriter writer;
  writer.PutU64(image_id);
  return writer.TakeBuffer();
}

}  // namespace

Result<LiveManifest> ReadLiveManifest(const std::string& dir) {
  const std::string path = ManifestPath(dir);
  if (::access(path.c_str(), F_OK) != 0) {
    return Status::NotFound("live index: no MANIFEST in " + dir);
  }
  WALRUS_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFileBytes(path));
  if (bytes.size() < 4) return Status::Corruption("manifest: truncated");
  BinaryReader reader(bytes.data(), bytes.size() - 4);
  WALRUS_ASSIGN_OR_RETURN(uint32_t magic, reader.GetU32());
  if (magic != kManifestMagic) {
    return Status::Corruption("manifest: bad magic");
  }
  WALRUS_ASSIGN_OR_RETURN(uint32_t version, reader.GetU32());
  if (version != kManifestVersion) {
    return Status::Corruption("manifest: unsupported version " +
                              std::to_string(version));
  }
  LiveManifest manifest;
  WALRUS_ASSIGN_OR_RETURN(manifest.generation, reader.GetU64());
  WALRUS_ASSIGN_OR_RETURN(manifest.last_lsn, reader.GetU64());
  WALRUS_ASSIGN_OR_RETURN(manifest.num_shards, reader.GetU32());
  WALRUS_ASSIGN_OR_RETURN(uint8_t paged, reader.GetU8());
  manifest.paged = paged != 0;
  if (!reader.AtEnd()) return Status::Corruption("manifest: trailing bytes");
  BinaryReader trailer(bytes.data() + bytes.size() - 4, 4);
  WALRUS_ASSIGN_OR_RETURN(uint32_t stored_crc, trailer.GetU32());
  if (stored_crc != Crc32(bytes.data(), bytes.size() - 4)) {
    return Status::Corruption("manifest: checksum mismatch");
  }
  if (manifest.generation == 0 || manifest.num_shards == 0 ||
      manifest.num_shards > 4096) {
    return Status::Corruption("manifest: implausible contents");
  }
  return manifest;
}

Status WriteLiveManifest(const std::string& dir,
                         const LiveManifest& manifest) {
  BinaryWriter writer;
  writer.PutU32(kManifestMagic);
  writer.PutU32(kManifestVersion);
  writer.PutU64(manifest.generation);
  writer.PutU64(manifest.last_lsn);
  writer.PutU32(manifest.num_shards);
  writer.PutU8(manifest.paged ? 1 : 0);
  writer.PutU32(Crc32(writer.buffer().data(), writer.size()));
  const std::string path = ManifestPath(dir);
  const std::string tmp = path + ".tmp";
  WALRUS_RETURN_IF_ERROR(WriteFileBytes(tmp, writer.buffer()));
  WALRUS_RETURN_IF_ERROR(SyncFileForDurability(tmp));
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("rename " + tmp + ": " + std::strerror(errno));
  }
  return SyncParentDir(path);
}

LiveIndex::LiveIndex(std::string dir, WalrusParams params, Options options)
    : dir_(std::move(dir)), params_(params), options_(options) {}

LiveIndex::~LiveIndex() {
  // Join any in-flight background merge before the state it uses dies.
  merge_pool_.reset();
}

Result<std::unique_ptr<LiveIndex>> LiveIndex::Open(const std::string& dir,
                                                   WalrusParams params,
                                                   Options options,
                                                   const WalrusIndex* seed) {
  options.num_shards = std::max(1, options.num_shards);

  Result<LiveManifest> existing = ReadLiveManifest(dir);
  LiveManifest manifest;
  if (existing.ok()) {
    manifest = *existing;
  } else if (existing.status().code() != StatusCode::kNotFound) {
    return existing.status();
  } else {
    // First boot: persist base generation 1 (the seed's images, or empty)
    // before the MANIFEST that names it exists.
    WalrusIndex empty(params);
    const WalrusIndex& source = seed != nullptr ? *seed : empty;
    ShardedIndex::Options shard_options;
    shard_options.num_shards = options.num_shards;
    WALRUS_ASSIGN_OR_RETURN(ShardedIndex base,
                            ShardedIndex::Partition(source, shard_options));
    WALRUS_RETURN_IF_ERROR(
        base.Save(BasePrefix(dir, 1), options.paged_base));
    WALRUS_RETURN_IF_ERROR(SyncBaseFiles(dir, BaseFilePrefix(1)));
    manifest.generation = 1;
    manifest.last_lsn = 0;
    manifest.num_shards = static_cast<uint32_t>(options.num_shards);
    manifest.paged = options.paged_base;
    WALRUS_RETURN_IF_ERROR(WriteLiveManifest(dir, manifest));
  }

  ShardedIndex::Options base_options;  // base carries no result cache
  base_options.num_shards = static_cast<int>(manifest.num_shards);
  WALRUS_ASSIGN_OR_RETURN(
      ShardedIndex base,
      ShardedIndex::Open(BasePrefix(dir, manifest.generation), base_options));

  // The persisted base is authoritative for params and shard count.
  WalrusParams live_params = base.params();
  options.num_shards = base.num_shards();
  options.paged_base = manifest.paged;
  std::unique_ptr<LiveIndex> live(
      new LiveIndex(dir, live_params, options));
  {
    WriterMutexLock lock(live->state_mu_);
    live->base_ = std::make_unique<ShardedIndex>(std::move(base));
    live->delta_ = std::make_unique<WalrusIndex>(live_params);
    live->generation_ = manifest.generation;
  }

  WalScan scan;
  WALRUS_ASSIGN_OR_RETURN(live->wal_,
                          WriteAheadLog::Open(WalPath(dir), &scan));
  size_t replayed = 0;
  for (const WalRecord& record : scan.records) {
    // Records at or below the manifest's watermark are already folded into
    // the base (a crash between the manifest rename and the WAL reset
    // leaves them behind); replaying them would double-apply.
    if (record.lsn <= manifest.last_lsn) continue;
    WALRUS_RETURN_IF_ERROR(live->ApplyReplayRecord(record));
    ++replayed;
  }
  if (replayed > 0) {
    WALRUS_LOG(Info) << "live index: replayed " << replayed
                     << " WAL record(s) into the delta";
  }

  if (options.cache_capacity > 0) {
    live->cache_ = std::make_unique<ResultCache>(options.cache_capacity);
  }
  if (options.merge_threshold > 0) {
    live->merge_pool_ = std::make_unique<ThreadPool>(1);
  }
  {
    ReaderMutexLock lock(live->state_mu_);
    IngestMetrics::Get().delta_images->Set(
        static_cast<int64_t>(live->delta_->ImageCount()));
    IngestMetrics::Get().tombstones->Set(
        static_cast<int64_t>(live->tombstones_.size()));
  }
  return live;
}

Status LiveIndex::ApplyReplayRecord(const WalRecord& record) {
  switch (record.type) {
    case WalRecordType::kInsertImage: {
      BinaryReader reader(record.body);
      WALRUS_ASSIGN_OR_RETURN(ImageRecord image,
                              ImageRecord::Deserialize(&reader));
      WriterMutexLock lock(state_mu_);
      return Annotate(delta_->AddImageRecord(std::move(image)),
                      "wal replay lsn " + std::to_string(record.lsn));
    }
    case WalRecordType::kDeleteImage: {
      BinaryReader reader(record.body);
      WALRUS_ASSIGN_OR_RETURN(uint64_t image_id, reader.GetU64());
      return Annotate(ApplyDelete(image_id),
                      "wal replay lsn " + std::to_string(record.lsn));
    }
  }
  return Status::Corruption("wal replay: unknown record type");
}

Status LiveIndex::ApplyDelete(uint64_t image_id) {
  WriterMutexLock lock(state_mu_);
  if (delta_->catalog().FindImage(image_id) != nullptr) {
    // An id can live in the delta while a tombstoned predecessor sits in a
    // base shard; removing the delta copy leaves that tombstone standing.
    return delta_->RemoveImage(image_id);
  }
  int shard = ShardedIndex::ShardOf(image_id, base_->num_shards());
  const ImageRecord* record =
      base_->shard(shard).catalog().FindImage(image_id);
  if (record == nullptr || tombstones_.count(image_id) > 0) {
    return Status::NotFound("image id " + std::to_string(image_id));
  }
  tombstones_.insert(image_id);
  tombstoned_regions_ += record->regions.size();
  return Status::OK();
}

Status LiveIndex::InsertImage(uint64_t image_id, const std::string& name,
                              const ImageF& image) {
  // Extraction (wavelets + clustering, the expensive part) runs outside
  // every lock: it is a pure function of the pixels and the fixed params.
  WALRUS_ASSIGN_OR_RETURN(
      ImageRecord record,
      WalrusIndex::ExtractImageRecord(params_, image_id, name, image));
  for (const RegionRecord& region : record.regions) {
    if (region.region_id >= (1u << 16)) {
      return Status::InvalidArgument("image produced more regions than the "
                                     "16-bit region payload can hold");
    }
  }
  std::vector<uint8_t> body = EncodeInsertBody(record);

  uint64_t lsn = 0;
  {
    MutexLock ingest(ingest_mu_);
    {
      ReaderMutexLock lock(state_mu_);
      // Liveness check: ingest_mu_ keeps it valid until the apply below.
      if (delta_->catalog().FindImage(image_id) != nullptr) {
        return Status::AlreadyExists("image id " + std::to_string(image_id));
      }
      int shard = ShardedIndex::ShardOf(image_id, base_->num_shards());
      if (base_->shard(shard).catalog().FindImage(image_id) != nullptr &&
          tombstones_.count(image_id) == 0) {
        return Status::AlreadyExists("image id " + std::to_string(image_id));
      }
    }
    // Log before apply: the WAL is the source of truth. The append is
    // buffered (no fsync yet); holding ingest_mu_ across it makes LSN
    // order equal apply order.
    WALRUS_ASSIGN_OR_RETURN(lsn,
                            wal_->Append(WalRecordType::kInsertImage, body));
    {
      WriterMutexLock lock(state_mu_);
      WALRUS_RETURN_IF_ERROR(delta_->AddImageRecord(std::move(record)));
      IngestMetrics::Get().delta_images->Set(
          static_cast<int64_t>(delta_->ImageCount()));
    }
  }
  // Durability outside both locks: concurrent inserters share one fsync
  // (group commit), and queries are never blocked on storage.
  WALRUS_RETURN_IF_ERROR(wal_->Commit(lsn));
  // Invalidate after apply: any reader that cached a pre-insert ranking
  // did so while holding the state reader lock, i.e. strictly before the
  // apply's writer lock — so this wipe cannot miss a stale entry.
  if (cache_ != nullptr) cache_->Invalidate();
  {
    MutexLock lock(counter_mu_);
    ++inserts_;
  }
  IngestMetrics::Get().inserts->Increment();
  MaybeScheduleMerge();
  return Status::OK();
}

Status LiveIndex::DeleteImage(uint64_t image_id) {
  std::vector<uint8_t> body = EncodeDeleteBody(image_id);
  uint64_t lsn = 0;
  {
    MutexLock ingest(ingest_mu_);
    {
      ReaderMutexLock lock(state_mu_);
      bool live_in_delta = delta_->catalog().FindImage(image_id) != nullptr;
      if (!live_in_delta) {
        int shard = ShardedIndex::ShardOf(image_id, base_->num_shards());
        if (base_->shard(shard).catalog().FindImage(image_id) == nullptr ||
            tombstones_.count(image_id) > 0) {
          return Status::NotFound("image id " + std::to_string(image_id));
        }
      }
    }
    WALRUS_ASSIGN_OR_RETURN(lsn,
                            wal_->Append(WalRecordType::kDeleteImage, body));
    WALRUS_RETURN_IF_ERROR(ApplyDelete(image_id));
    {
      ReaderMutexLock lock(state_mu_);
      IngestMetrics::Get().delta_images->Set(
          static_cast<int64_t>(delta_->ImageCount()));
      IngestMetrics::Get().tombstones->Set(
          static_cast<int64_t>(tombstones_.size()));
    }
  }
  WALRUS_RETURN_IF_ERROR(wal_->Commit(lsn));
  if (cache_ != nullptr) cache_->Invalidate();
  {
    MutexLock lock(counter_mu_);
    ++deletes_;
  }
  IngestMetrics::Get().deletes->Increment();
  MaybeScheduleMerge();
  return Status::OK();
}

void LiveIndex::MaybeScheduleMerge() {
  if (merge_pool_ == nullptr || options_.merge_threshold == 0) return;
  size_t pending;
  {
    ReaderMutexLock lock(state_mu_);
    pending = delta_->ImageCount() + tombstones_.size();
  }
  if (pending < options_.merge_threshold) return;
  {
    MutexLock lock(merge_mu_);
    if (merge_scheduled_) return;
    merge_scheduled_ = true;
  }
  merge_pool_->Submit([this] {
    Status status = Merge();
    if (!status.ok()) {
      WALRUS_LOG(Error) << "live index: background merge failed: " << status;
    }
    MutexLock lock(merge_mu_);
    merge_scheduled_ = false;
    merge_idle_cv_.NotifyAll();
  });
}

void LiveIndex::WaitForMerge() {
  MutexLock lock(merge_mu_);
  while (merge_scheduled_) merge_idle_cv_.Wait(lock);
}

Status LiveIndex::Merge() {
  MutexLock ingest(ingest_mu_);

  // Snapshot the live record set under the reader lock (mutations are
  // blocked by ingest_mu_; queries keep running throughout the build).
  std::vector<ImageRecord> records;
  uint64_t old_generation;
  int num_shards;
  {
    ReaderMutexLock lock(state_mu_);
    if (delta_->ImageCount() == 0 && tombstones_.empty()) {
      return Status::OK();
    }
    old_generation = generation_;
    num_shards = base_->num_shards();
    records.reserve(base_->ImageCount() + delta_->ImageCount());
    for (int s = 0; s < num_shards; ++s) {
      for (const ImageRecord& record : base_->shard(s).catalog().images()) {
        if (tombstones_.count(record.image_id) == 0) {
          records.push_back(record);
        }
      }
    }
    for (const ImageRecord& record : delta_->catalog().images()) {
      records.push_back(record);
    }
  }
  // Every appended record is about to be folded; ingest_mu_ keeps
  // next_lsn stable until the WAL reset below.
  const uint64_t next_start_lsn = wal_->Stats().next_lsn;
  const uint64_t new_generation = old_generation + 1;

  // Build + persist the next generation. Queries still read the old state.
  WALRUS_ASSIGN_OR_RETURN(WalrusIndex merged,
                          WalrusIndex::FromRecords(params_, std::move(records)));
  ShardedIndex::Options shard_options;
  shard_options.num_shards = num_shards;
  WALRUS_ASSIGN_OR_RETURN(ShardedIndex new_base,
                          ShardedIndex::Partition(merged, shard_options));
  WALRUS_RETURN_IF_ERROR(new_base.Save(BasePrefix(dir_, new_generation),
                                       options_.paged_base));
  WALRUS_RETURN_IF_ERROR(SyncBaseFiles(dir_, BaseFilePrefix(new_generation)));
  // Serve the generation just saved, loaded the way Open loads it (paged
  // shards decode their page trees), not the partition built to save it.
  ShardedIndex::Options base_options;  // base carries no result cache
  base_options.num_shards = num_shards;
  WALRUS_ASSIGN_OR_RETURN(
      ShardedIndex saved_base,
      ShardedIndex::Open(BasePrefix(dir_, new_generation), base_options));

  // Commit point: the renamed MANIFEST names the new generation. A crash
  // before this line replays the full WAL into the old base; after it,
  // replay skips everything at or below last_lsn.
  LiveManifest manifest;
  manifest.generation = new_generation;
  manifest.last_lsn = next_start_lsn - 1;
  manifest.num_shards = static_cast<uint32_t>(num_shards);
  manifest.paged = options_.paged_base;
  WALRUS_RETURN_IF_ERROR(WriteLiveManifest(dir_, manifest));

  {
    WriterMutexLock lock(state_mu_);
    base_ = std::make_unique<ShardedIndex>(std::move(saved_base));
    delta_ = std::make_unique<WalrusIndex>(params_);
    tombstones_.clear();
    tombstoned_regions_ = 0;
    generation_ = new_generation;
  }
  IngestMetrics::Get().delta_images->Set(0);
  IngestMetrics::Get().tombstones->Set(0);
  // The manifest covers every folded record, so the log can restart. A
  // crash before this reset only costs a redundant-but-skipped replay.
  WALRUS_RETURN_IF_ERROR(wal_->Reset(next_start_lsn));
  UnlinkBaseFiles(dir_, BaseFilePrefix(old_generation));
  // No cache invalidation: a merge changes the physical layout, never the
  // live image set, and rankings are functions of the live set only.
  {
    MutexLock lock(counter_mu_);
    ++merges_;
  }
  IngestMetrics::Get().merges->Increment();
  return Status::OK();
}

Result<std::vector<QueryMatch>> LiveIndex::RunPipelineLive(
    const std::vector<Region>& query_regions, double query_area,
    const QueryOptions& options, QueryStats* stats) const {
  WallTimer timer;
  const LiveQueryMetrics& metrics = LiveQueryMetrics::Get();
  const int n = base_->num_shards();
  const bool use_bbox =
      params_.signature_kind == RegionSignatureKind::kBoundingBox;
  const bool knn = options.knn_per_region > 0 && !use_bbox;
  const bool have_delta = delta_->ImageCount() > 0;

  std::vector<QueryMatch> matches;
  ProbeDiagnostics total;
  int64_t regions_retrieved = 0;
  size_t distinct_images = 0;
  double probe_seconds = 0.0;
  double filter_seconds = 0.0;
  double match_seconds = 0.0;

  auto fold_diag = [&](const ProbeDiagnostics& diag) {
    regions_retrieved += diag.regions_retrieved;
    total.nodes_visited += diag.nodes_visited;
    total.pages_read += diag.pages_read;
    total.cache_hits += diag.cache_hits;
    total.cache_misses += diag.cache_misses;
    total.prefilter_candidates_in += diag.prefilter_candidates_in;
    total.prefilter_pruned += diag.prefilter_pruned;
    total.prefilter_candidates_out += diag.prefilter_candidates_out;
    // Parts run serially here, so the signature-tier slices sum.
    filter_seconds += diag.filter_seconds;
  };

  if (knn) {
    // Over-provision base probes so tombstoned regions cannot crowd live
    // ones out of a shard's top-k list: at most tombstoned_regions_ dead
    // entries can outrank any live entry, so k + that bound is exact.
    const int k = options.knn_per_region;
    const int k_eff = k + static_cast<int>(tombstoned_regions_);
    const size_t num_q = query_regions.size();
    std::vector<std::vector<std::pair<uint64_t, double>>> merged(num_q);
    WallTimer probe_timer;
    for (int s = 0; s < n; ++s) {
      ProbeDiagnostics diag;
      WALRUS_ASSIGN_OR_RETURN(
          auto neighbors,
          ProbeNearestPerRegion(base_->shard(s), query_regions, k_eff, &diag));
      fold_diag(diag);
      for (size_t qi = 0; qi < num_q; ++qi) {
        for (const auto& [payload, distance] : neighbors[qi]) {
          uint64_t image_id;
          uint32_t region_id;
          DecodeRegionPayload(payload, &image_id, &region_id);
          if (tombstones_.count(image_id) == 0) {
            merged[qi].emplace_back(payload, distance);
          }
        }
      }
    }
    if (have_delta) {
      ProbeDiagnostics diag;
      WALRUS_ASSIGN_OR_RETURN(
          auto neighbors,
          ProbeNearestPerRegion(*delta_, query_regions, k, &diag));
      fold_diag(diag);
      for (size_t qi = 0; qi < num_q; ++qi) {
        merged[qi].insert(merged[qi].end(), neighbors[qi].begin(),
                          neighbors[qi].end());
      }
    }
    probe_seconds = probe_timer.ElapsedSeconds();
    // Global top-k per query region, merged by (distance, payload) — the
    // same deterministic merge the sharded engine uses.
    for (auto& per_region : merged) {
      std::sort(per_region.begin(), per_region.end(),
                [](const std::pair<uint64_t, double>& a,
                   const std::pair<uint64_t, double>& b) {
                  if (a.second != b.second) return a.second < b.second;
                  return a.first < b.first;
                });
      if (static_cast<int>(per_region.size()) > k) per_region.resize(k);
    }
    std::vector<CandidateImage> candidates = CandidatesFromNeighbors(merged);
    distinct_images = candidates.size();

    WallTimer match_timer;
    // Route each candidate to the part that indexes it: the delta wins
    // when present (its tombstoned base predecessor was filtered above).
    std::vector<std::vector<CandidateImage>> by_part(n + 1);
    for (CandidateImage& candidate : candidates) {
      if (have_delta &&
          delta_->catalog().FindImage(candidate.image_id) != nullptr) {
        by_part[n].push_back(std::move(candidate));
      } else {
        by_part[ShardedIndex::ShardOf(candidate.image_id, n)].push_back(
            std::move(candidate));
      }
    }
    for (int s = 0; s <= n; ++s) {
      if (by_part[s].empty()) continue;
      const WalrusIndex& part = s == n ? *delta_ : base_->shard(s);
      WALRUS_ASSIGN_OR_RETURN(
          std::vector<QueryMatch> part_matches,
          ScoreCandidates(part, query_regions, query_area, options,
                          by_part[s]));
      matches.insert(matches.end(),
                     std::make_move_iterator(part_matches.begin()),
                     std::make_move_iterator(part_matches.end()));
    }
    match_seconds = match_timer.ElapsedSeconds();
  } else {
    // Epsilon mode: probe + score each part independently. Parts hold
    // disjoint live image sets (tombstones mask base copies of delta
    // ids), so match lists concatenate without collisions, and every
    // stage is deterministic in its part's data — the concatenation ranks
    // bit-identically to one offline index of the live set.
    auto run_part = [&](const WalrusIndex& part,
                        bool filter_tombstones) -> Status {
      ProbeDiagnostics diag;
      WallTimer probe_timer;
      Result<std::vector<CandidateImage>> candidates =
          ProbeCandidates(part, query_regions, options, &diag);
      // Keep stages disjoint: the signature tier timed itself inside the
      // probe call and is reported via filter_seconds.
      probe_seconds += probe_timer.ElapsedSeconds() - diag.filter_seconds;
      WALRUS_RETURN_IF_ERROR(candidates.status());
      fold_diag(diag);
      if (filter_tombstones && !tombstones_.empty()) {
        auto dead = [&](const CandidateImage& candidate) {
          return tombstones_.count(candidate.image_id) > 0;
        };
        candidates->erase(
            std::remove_if(candidates->begin(), candidates->end(), dead),
            candidates->end());
      }
      distinct_images += candidates->size();
      WallTimer match_timer;
      Result<std::vector<QueryMatch>> part_matches = ScoreCandidates(
          part, query_regions, query_area, options, *candidates);
      match_seconds += match_timer.ElapsedSeconds();
      WALRUS_RETURN_IF_ERROR(part_matches.status());
      matches.insert(matches.end(),
                     std::make_move_iterator(part_matches->begin()),
                     std::make_move_iterator(part_matches->end()));
      return Status::OK();
    };
    for (int s = 0; s < n; ++s) {
      WALRUS_RETURN_IF_ERROR(run_part(base_->shard(s), true));
    }
    if (have_delta) {
      WALRUS_RETURN_IF_ERROR(run_part(*delta_, false));
    }
  }

  double rank_seconds = 0.0;
  {
    WallTimer rank_timer;
    RankMatches(&matches, options.top_k);
    rank_seconds = rank_timer.ElapsedSeconds();
  }

  metrics.queries->Increment();
  metrics.regions_retrieved->Increment(
      static_cast<uint64_t>(regions_retrieved));
  metrics.candidate_images->Increment(distinct_images);
  metrics.seconds->Observe(timer.ElapsedSeconds());

  if (stats != nullptr) {
    stats->query_regions = static_cast<int>(query_regions.size());
    stats->regions_retrieved = regions_retrieved;
    stats->avg_regions_per_query_region =
        query_regions.empty()
            ? 0.0
            : static_cast<double>(regions_retrieved) / query_regions.size();
    stats->distinct_images = static_cast<int>(distinct_images);
    stats->seconds += timer.ElapsedSeconds();
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

Result<std::vector<QueryMatch>> LiveIndex::RunAnyQuery(
    const ImageF& query_image, const PixelRect* scene,
    const QueryOptions& options, QueryStats* stats) const {
  WALRUS_RETURN_IF_ERROR(ValidateQueryOptions(options));
  // Trace collection bypasses the cache, same as the sharded engine.
  const bool cacheable = cache_ != nullptr && !options.collect_trace;
  if (stats != nullptr) stats->result_cache_hit = false;
  ResultCache::Key key;
  if (cacheable) {
    key = scene != nullptr
              ? ResultCache::MakeKey(query_image, *scene, options)
              : ResultCache::MakeKey(query_image, options);
    if (auto cached = cache_->Lookup(key)) {
      if (stats != nullptr) stats->result_cache_hit = true;
      return std::move(*cached);
    }
  }
  QueryTrace storage;
  QueryTrace* trace =
      options.collect_trace && stats != nullptr ? &storage : nullptr;
  WallTimer timer;
  Result<ExtractedQuery> extracted =
      scene != nullptr
          ? ExtractSceneQueryRegions(query_image, *scene, params_, trace)
          : ExtractQueryRegions(query_image, params_, trace);
  WALRUS_RETURN_IF_ERROR(extracted.status());
  double extract_seconds = timer.ElapsedSeconds();
  LiveQueryMetrics::Get().extract_seconds->Observe(extract_seconds);
  if (stats != nullptr) {
    stats->seconds = extract_seconds;
    stats->extract_seconds = extract_seconds;
  }
  // The cache insert happens while still holding the reader lock: any
  // mutation that would invalidate this ranking has to wait for the
  // writer lock first, so its Invalidate() always runs after our Insert().
  ReaderMutexLock lock(state_mu_);
  auto result = RunPipelineLive(extracted->regions, extracted->query_area,
                                options, stats);
  if (cacheable && result.ok()) cache_->Insert(key, *result);
  if (trace != nullptr) stats->spans = trace->TakeSpans();
  return result;
}

Result<std::vector<QueryMatch>> LiveIndex::RunQuery(
    const ImageF& query_image, const QueryOptions& options,
    QueryStats* stats) const {
  return RunAnyQuery(query_image, nullptr, options, stats);
}

Result<std::vector<QueryMatch>> LiveIndex::RunSceneQuery(
    const ImageF& query_image, const PixelRect& scene,
    const QueryOptions& options, QueryStats* stats) const {
  return RunAnyQuery(query_image, &scene, options, stats);
}

size_t LiveIndex::ImageCount() const {
  ReaderMutexLock lock(state_mu_);
  return base_->ImageCount() - tombstones_.size() + delta_->ImageCount();
}

size_t LiveIndex::RegionCount() const {
  ReaderMutexLock lock(state_mu_);
  return base_->RegionCount() - tombstoned_regions_ + delta_->RegionCount();
}

EngineStats LiveIndex::Stats() const {
  EngineStats stats;
  {
    ReaderMutexLock lock(state_mu_);
    stats.num_shards = base_->num_shards();
  }
  if (cache_ != nullptr) {
    stats.result_cache_hits = cache_->hits();
    stats.result_cache_misses = cache_->misses();
    stats.result_cache_entries = cache_->size();
    stats.result_cache_capacity = cache_->capacity();
  }
  return stats;
}

IngestStats LiveIndex::IngestStatsSnapshot() const {
  IngestStats stats;
  {
    MutexLock lock(counter_mu_);
    stats.inserts = inserts_;
    stats.deletes = deletes_;
    stats.merges = merges_;
  }
  {
    ReaderMutexLock lock(state_mu_);
    stats.delta_images = delta_->ImageCount();
    stats.tombstones = tombstones_.size();
  }
  WalStats wal = wal_->Stats();
  stats.wal_records = wal.appended_records;
  stats.wal_bytes = wal.appended_bytes;
  stats.wal_syncs = wal.syncs;
  stats.wal_synced_lsn = wal.synced_lsn;
  stats.wal_file_bytes = wal.file_bytes;
  return stats;
}

uint64_t LiveIndex::generation() const {
  ReaderMutexLock lock(state_mu_);
  return generation_;
}

bool LiveIndex::ContainsImage(uint64_t image_id) const {
  ReaderMutexLock lock(state_mu_);
  if (delta_->catalog().FindImage(image_id) != nullptr) return true;
  int shard = ShardedIndex::ShardOf(image_id, base_->num_shards());
  return base_->shard(shard).catalog().FindImage(image_id) != nullptr &&
         tombstones_.count(image_id) == 0;
}

bool LiveIndex::BaseIsPaged() const {
  ReaderMutexLock lock(state_mu_);
  for (int s = 0; s < base_->num_shards(); ++s) {
    if (!base_->shard(s).is_paged()) return false;
  }
  return true;
}

}  // namespace walrus
