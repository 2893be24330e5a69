#ifndef WALRUS_CORE_INDEX_H_
#define WALRUS_CORE_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/params.h"
#include "core/region.h"
#include "core/region_extractor.h"
#include "core/signature_filter.h"
#include "image/image.h"
#include "spatial/rstar_tree.h"
#include "storage/catalog.h"
#include "storage/disk_rstar.h"

#include <optional>

namespace walrus {

/// Packs (image_id, region_id) into one R*-tree payload. Image ids must fit
/// in 48 bits and region ids in 16.
uint64_t EncodeRegionPayload(uint64_t image_id, uint32_t region_id);
void DecodeRegionPayload(uint64_t payload, uint64_t* image_id,
                         uint32_t* region_id);

/// The WALRUS image database: every indexed image is decomposed into
/// regions (section 5.3); region signatures go into an R*-tree (section
/// 5.4) and region metadata (centroid, signature bounding box, coverage
/// bitmap) into the catalog, the persisted source of truth.
///
/// One rule picks the tree. FromRecords, Open and OpenPaged hold the
/// immutable arena (DiskRStarTree). The first mutation (AddImage(s),
/// AddImageRecord, RemoveImage) moves the index onto the dynamic RStarTree,
/// bulk-loaded from the catalog; files are never touched. Both trees give
/// the same probe hits and k nearest neighbours, so rankings do not depend
/// on which one an index holds.
class WalrusIndex {
 public:
  /// Empty index. `params` fixes the extraction settings and the signature
  /// dimensionality for the index's lifetime (persisted alongside the data
  /// and checked on Open).
  explicit WalrusIndex(WalrusParams params);

  WalrusIndex(const WalrusIndex&) = delete;
  WalrusIndex& operator=(const WalrusIndex&) = delete;
  WalrusIndex(WalrusIndex&&) = default;
  WalrusIndex& operator=(WalrusIndex&&) = default;

  /// The construction-time parameters (immutable).
  const WalrusParams& params() const { return params_; }
  /// Image + region metadata store (names, areas, signatures, bitmaps).
  const Catalog& catalog() const { return catalog_; }
  /// The dynamic R*-tree; empty while the index holds the arena
  /// (disk_tree()). ProbeRange/ProbeNearest dispatch to the one held.
  const RStarTree& tree() const { return tree_; }

  /// The binary prefilter tier (core/signature_filter.h), maintained in
  /// lockstep with the catalog by every mutation and load path.
  const SignatureStore& signatures() const { return signatures_; }

  /// True while probes are served from the page tree OpenPaged decoded
  /// (query stats then count node visits as page reads).
  bool is_paged() const { return paged_; }

  /// The arena the index probes, or nullptr when it holds the dynamic
  /// tree().
  const DiskRStarTree* disk_tree() const {
    return arena_.has_value() ? &*arena_ : nullptr;
  }

  /// Region-signature probe: streams every indexed region whose rect
  /// intersects `query` (in-memory or paged backend). `nodes_visited`,
  /// here and below, receives the tree nodes this call visited (for the
  /// paged backend, its page reads), exact under concurrent queries.
  [[nodiscard]] Status ProbeRange(
      const Rect& query,
      const std::function<bool(const Rect&, uint64_t)>& visitor,
      int64_t* nodes_visited = nullptr) const;

  /// Batched multi-probe: answers all query-region probes in one shared
  /// tree traversal (see RStarTree::RangeQueryBatch). The visitor's first
  /// argument is the index into `probes` of the matching probe; the
  /// delivered (probe, payload) set is identical to running ProbeRange per
  /// probe, grouped by node rather than by probe.
  [[nodiscard]] Status ProbeRangeBatch(
      const std::vector<Rect>& probes,
      const std::function<bool(int, const Rect&, uint64_t)>& visitor,
      int64_t* nodes_visited = nullptr) const;

  /// k nearest region signatures to `point` (centroid mode).
  [[nodiscard]] Result<std::vector<std::pair<uint64_t, double>>> ProbeNearest(
      const std::vector<float>& point, int k,
      int64_t* nodes_visited = nullptr) const;

  /// Number of indexed images.
  size_t ImageCount() const { return catalog_.size(); }
  /// Total regions across all indexed images (== R*-tree entry count).
  size_t RegionCount() const { return catalog_.TotalRegions(); }

  /// Extracts regions from `image` and indexes them under `image_id`.
  /// `stats` (optional) receives extraction diagnostics.
  [[nodiscard]] Status AddImage(uint64_t image_id, const std::string& name,
                  const ImageF& image, ExtractionStats* stats = nullptr);

  /// Removes an indexed image: its catalog record and every one of its
  /// region entries in the R*-tree. NotFound when the id is not indexed.
  [[nodiscard]] Status RemoveImage(uint64_t image_id);

  /// Region extraction + record assembly without touching any index: the
  /// live-ingest path (wal/live_index.h) runs this outside its locks, logs
  /// the record to the WAL, and applies it with AddImageRecord. Rejects
  /// image ids that do not fit the packed 48-bit R*-tree payload with
  /// InvalidArgument (wire input reaches here, so this must not be a
  /// contract check).
  [[nodiscard]] static Result<ImageRecord> ExtractImageRecord(
      const WalrusParams& params, uint64_t image_id, const std::string& name,
      const ImageF& image, ExtractionStats* stats = nullptr);

  /// Indexes an already-extracted record: every region signature goes into
  /// the R*-tree with exactly the rect FromRecords would bulk-load for it,
  /// so an index grown by AddImageRecord answers probes identically to one
  /// rebuilt offline from the same records. AlreadyExists on a duplicate
  /// id; InvalidArgument when an id or region id overflows the packed
  /// payload.
  [[nodiscard]] Status AddImageRecord(ImageRecord record);

  /// One image of a batch insert.
  struct PendingImage {
    uint64_t image_id = 0;
    std::string name;
    ImageF image;
  };

  /// Adds a batch of images, running region extraction (the expensive part:
  /// wavelets + clustering) across `num_threads` workers and then inserting
  /// serially. 0 threads = hardware concurrency. The batch is atomic: on
  /// any extraction failure or duplicate id nothing is added.
  [[nodiscard]] Status AddImages(std::vector<PendingImage> images,
                                 int num_threads = 0);

  /// Builds an index directly from already-extracted catalog records,
  /// STR-bulk-loading the arena from their region signatures. This is the
  /// repartitioning path: ShardedIndex::Partition slices one index's
  /// catalog by shard and rebuilds each slice without re-running region
  /// extraction. Fails on duplicate image ids.
  [[nodiscard]] static Result<WalrusIndex> FromRecords(WalrusParams params,
                                         std::vector<ImageRecord> records);

  /// Materializes the Region objects of an indexed image.
  [[nodiscard]] Result<std::vector<Region>> ImageRegions(
      uint64_t image_id) const;

  /// Pixel area (width*height) of an indexed image.
  [[nodiscard]] Result<double> ImageArea(uint64_t image_id) const;

  /// Persists to `<path_prefix>.catalog` (page file) and
  /// `<path_prefix>.index` (params); Open rebuilds the tree.
  [[nodiscard]] Status Save(const std::string& path_prefix) const;

  /// Loads an index written by Save and STR-builds its arena from the
  /// catalog (bytes after the params in `.index`, an older tree format,
  /// are ignored). Corruption when a catalog signature's length disagrees
  /// with the params.
  [[nodiscard]] static Result<WalrusIndex> Open(const std::string& path_prefix);

  /// Persists `<path_prefix>.catalog`, `<path_prefix>.pmeta` (params) and
  /// `<path_prefix>.ptree` (the arena, one node per page) -- the paper's
  /// "disk-based index" deployment.
  [[nodiscard]] Status SavePaged(const std::string& path_prefix) const;

  /// Opens a paged index written by SavePaged, decoding and checking the
  /// page tree once (DiskRStarTree::Open), so a corrupt tree page is
  /// refused here, as is a catalog signature of another dimension.
  [[nodiscard]] static Result<WalrusIndex> OpenPaged(
      const std::string& path_prefix);

  /// Deep cross-layer validation: the catalog's own invariants
  /// (Catalog::Validate), the spatial backend's own invariants
  /// (RStarTree::Validate or DiskRStarTree::Validate, whose page checksums
  /// were checked at open), and the bridge between them -- every
  /// region signature in the catalog must appear in the tree exactly once
  /// with the same rect and payload, and vice versa. O(index size);
  /// invoked from tests and, when DeepChecksEnabled(), after mutations.
  [[nodiscard]] Status ValidateConsistency() const;

 private:
  /// (Rect, payload) entries for every region in the catalog, in the
  /// layout the trees index.
  std::vector<std::pair<Rect, uint64_t>> CatalogEntries() const;

  /// Open, or OpenPaged when `paged`.
  static Result<WalrusIndex> Load(const std::string& path_prefix, bool paged);

  /// The mutation hand-off (class comment); no-op on the dynamic tree.
  void UseDynamicTree();

  WalrusParams params_;
  Catalog catalog_;
  RStarTree tree_;
  SignatureStore signatures_;
  std::optional<DiskRStarTree> arena_;
  bool paged_ = false;
};

/// Serializes params (used by Save/Open; exposed for tests).
void SerializeParams(const WalrusParams& params, BinaryWriter* writer);
[[nodiscard]] Result<WalrusParams> DeserializeParams(BinaryReader* reader);

}  // namespace walrus

#endif  // WALRUS_CORE_INDEX_H_
