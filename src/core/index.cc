#include "core/index.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace walrus {

uint64_t EncodeRegionPayload(uint64_t image_id, uint32_t region_id) {
  WALRUS_CHECK_LT(image_id, uint64_t{1} << 48);
  WALRUS_CHECK_LT(region_id, 1u << 16);
  return (image_id << 16) | region_id;
}

void DecodeRegionPayload(uint64_t payload, uint64_t* image_id,
                         uint32_t* region_id) {
  *image_id = payload >> 16;
  *region_id = static_cast<uint32_t>(payload & 0xffff);
}

WalrusIndex::WalrusIndex(WalrusParams params)
    : params_(params), tree_(params.SignatureDim()) {
  WALRUS_CHECK(params.Validate().ok()) << params.Validate();
}

Status WalrusIndex::AddImage(uint64_t image_id, const std::string& name,
                             const ImageF& image, ExtractionStats* stats) {
  if (catalog_.FindImage(image_id) != nullptr) {
    return Status::AlreadyExists("image id " + std::to_string(image_id));
  }
  WALRUS_ASSIGN_OR_RETURN(
      ImageRecord record,
      ExtractImageRecord(params_, image_id, name, image, stats));
  return AddImageRecord(std::move(record));
}

Result<ImageRecord> WalrusIndex::ExtractImageRecord(const WalrusParams& params,
                                                    uint64_t image_id,
                                                    const std::string& name,
                                                    const ImageF& image,
                                                    ExtractionStats* stats) {
  if (image_id >= (uint64_t{1} << 48)) {
    return Status::InvalidArgument(
        "image id " + std::to_string(image_id) +
        " does not fit the 48-bit region payload");
  }
  WALRUS_ASSIGN_OR_RETURN(std::vector<Region> regions,
                          ExtractRegions(image, params, stats));
  ImageRecord record;
  record.image_id = image_id;
  record.name = name;
  record.width = static_cast<uint32_t>(image.width());
  record.height = static_cast<uint32_t>(image.height());
  record.regions.reserve(regions.size());
  for (const Region& region : regions) {
    record.regions.push_back(region.ToRecord());
  }
  return record;
}

Status WalrusIndex::AddImageRecord(ImageRecord record) {
  if (catalog_.FindImage(record.image_id) != nullptr) {
    return Status::AlreadyExists("image id " +
                                 std::to_string(record.image_id));
  }
  if (record.image_id >= (uint64_t{1} << 48)) {
    return Status::InvalidArgument(
        "image id " + std::to_string(record.image_id) +
        " does not fit the 48-bit region payload");
  }
  bool use_bbox = params_.signature_kind == RegionSignatureKind::kBoundingBox;
  for (const RegionRecord& region : record.regions) {
    if (region.region_id >= (1u << 16)) {
      return Status::InvalidArgument(
          "region id " + std::to_string(region.region_id) +
          " does not fit the 16-bit region payload");
    }
  }
  UseDynamicTree();
  for (const RegionRecord& region : record.regions) {
    Rect rect = use_bbox ? Rect::Bounds(region.bbox_lo, region.bbox_hi)
                         : Rect::Point(region.centroid);
    tree_.Insert(rect, EncodeRegionPayload(record.image_id, region.region_id));
  }
  const uint64_t image_id = record.image_id;
  WALRUS_RETURN_IF_ERROR(catalog_.AddImage(std::move(record)));
  signatures_.AddImage(*catalog_.FindImage(image_id));
  if (DeepChecksEnabled()) return ValidateConsistency();
  return Status::OK();
}

Status WalrusIndex::AddImages(std::vector<PendingImage> images,
                              int num_threads) {
  if (images.empty()) return Status::OK();
  // Validate ids up front so the batch can be atomic.
  std::unordered_set<uint64_t> seen;
  for (const PendingImage& pending : images) {
    if (catalog_.FindImage(pending.image_id) != nullptr ||
        !seen.insert(pending.image_id).second) {
      return Status::AlreadyExists("image id " +
                                   std::to_string(pending.image_id));
    }
  }

  if (num_threads <= 0) num_threads = ThreadPool::DefaultThreads();
  num_threads = std::min<int>(num_threads, static_cast<int>(images.size()));

  std::vector<std::unique_ptr<Result<std::vector<Region>>>> extracted(
      images.size());
  {
    ThreadPool pool(num_threads);
    pool.ParallelFor(static_cast<int>(images.size()), [&](int i) {
      extracted[i] = std::make_unique<Result<std::vector<Region>>>(
          ExtractRegions(images[i].image, params_));
    });
  }
  for (const auto& result : extracted) {
    if (!result->ok()) return result->status();
  }

  // Serial insertion (R*-tree and catalog are not thread-safe for writes).
  // Into an empty index, the whole batch is STR-bulk-loaded instead of
  // inserted one entry at a time: faster and tighter nodes.
  UseDynamicTree();
  bool use_bbox = params_.signature_kind == RegionSignatureKind::kBoundingBox;
  bool bulk = tree_.size() == 0;
  std::vector<std::pair<Rect, uint64_t>> bulk_entries;
  for (size_t i = 0; i < images.size(); ++i) {
    const PendingImage& pending = images[i];
    const std::vector<Region>& regions = extracted[i]->value();
    ImageRecord record;
    record.image_id = pending.image_id;
    record.name = pending.name;
    record.width = static_cast<uint32_t>(pending.image.width());
    record.height = static_cast<uint32_t>(pending.image.height());
    record.regions.reserve(regions.size());
    for (const Region& region : regions) {
      uint64_t payload =
          EncodeRegionPayload(pending.image_id, region.region_id);
      if (bulk) {
        bulk_entries.emplace_back(region.IndexRect(use_bbox), payload);
      } else {
        tree_.Insert(region.IndexRect(use_bbox), payload);
      }
      record.regions.push_back(region.ToRecord());
    }
    WALRUS_RETURN_IF_ERROR(catalog_.AddImage(std::move(record)));
    signatures_.AddImage(*catalog_.FindImage(pending.image_id));
  }
  if (bulk) {
    tree_ = RStarTree::BulkLoad(params_.SignatureDim(),
                                std::move(bulk_entries));
  }
  if (DeepChecksEnabled()) return ValidateConsistency();
  return Status::OK();
}

Status WalrusIndex::RemoveImage(uint64_t image_id) {
  const ImageRecord* record = catalog_.FindImage(image_id);
  if (record == nullptr) {
    return Status::NotFound("image id " + std::to_string(image_id));
  }
  int64_t expected = static_cast<int64_t>(record->regions.size());
  UseDynamicTree();
  int64_t removed = tree_.DeleteIf([image_id](uint64_t payload) {
    uint64_t payload_image;
    uint32_t region_id;
    DecodeRegionPayload(payload, &payload_image, &region_id);
    return payload_image == image_id;
  });
  if (removed != expected) {
    return Status::Internal("index: removed " + std::to_string(removed) +
                            " tree entries, catalog had " +
                            std::to_string(expected));
  }
  WALRUS_RETURN_IF_ERROR(catalog_.RemoveImage(image_id));
  signatures_.RemoveImage(image_id);
  if (DeepChecksEnabled()) return ValidateConsistency();
  return Status::OK();
}

Result<WalrusIndex> WalrusIndex::FromRecords(
    WalrusParams params, std::vector<ImageRecord> records) {
  WalrusIndex index(std::move(params));
  for (ImageRecord& record : records) {
    WALRUS_RETURN_IF_ERROR(index.catalog_.AddImage(std::move(record)));
  }
  WALRUS_ASSIGN_OR_RETURN(index.arena_,
                          DiskRStarTree::Build(index.params_.SignatureDim(),
                                               index.CatalogEntries()));
  index.signatures_.Rebuild(index.catalog_);
  if (DeepChecksEnabled()) {
    WALRUS_RETURN_IF_ERROR(index.ValidateConsistency());
  }
  return index;
}

Result<std::vector<Region>> WalrusIndex::ImageRegions(
    uint64_t image_id) const {
  const ImageRecord* record = catalog_.FindImage(image_id);
  if (record == nullptr) {
    return Status::NotFound("image id " + std::to_string(image_id));
  }
  std::vector<Region> regions;
  regions.reserve(record->regions.size());
  for (const RegionRecord& r : record->regions) {
    regions.push_back(Region::FromRecord(r));
  }
  return regions;
}

Result<double> WalrusIndex::ImageArea(uint64_t image_id) const {
  const ImageRecord* record = catalog_.FindImage(image_id);
  if (record == nullptr) {
    return Status::NotFound("image id " + std::to_string(image_id));
  }
  return static_cast<double>(record->width) * record->height;
}

void SerializeParams(const WalrusParams& params, BinaryWriter* writer) {
  writer->PutU32(0x57505253);  // "WPRS"
  writer->PutU8(static_cast<uint8_t>(params.color_space));
  writer->PutU32(static_cast<uint32_t>(params.signature_size));
  writer->PutU32(static_cast<uint32_t>(params.min_window));
  writer->PutU32(static_cast<uint32_t>(params.max_window));
  writer->PutU32(static_cast<uint32_t>(params.slide_step));
  writer->PutDouble(params.cluster_epsilon);
  writer->PutU32(static_cast<uint32_t>(params.bitmap_side));
  writer->PutU8(static_cast<uint8_t>(params.signature_kind));
  writer->PutU32(static_cast<uint32_t>(params.birch_branching));
  writer->PutU32(static_cast<uint32_t>(params.birch_leaf_entries));
  writer->PutU32(static_cast<uint32_t>(params.min_cluster_windows));
  writer->PutU32(static_cast<uint32_t>(params.refined_signature_size));
  writer->PutU8(static_cast<uint8_t>(params.clusterer));
  writer->PutU32(static_cast<uint32_t>(params.kmeans_k));
}

Result<WalrusParams> DeserializeParams(BinaryReader* reader) {
  WALRUS_ASSIGN_OR_RETURN(uint32_t magic, reader->GetU32());
  if (magic != 0x57505253) return Status::Corruption("params: bad magic");
  WalrusParams p;
  WALRUS_ASSIGN_OR_RETURN(uint8_t cs, reader->GetU8());
  p.color_space = static_cast<ColorSpace>(cs);
  WALRUS_ASSIGN_OR_RETURN(uint32_t v, reader->GetU32());
  p.signature_size = static_cast<int>(v);
  WALRUS_ASSIGN_OR_RETURN(v, reader->GetU32());
  p.min_window = static_cast<int>(v);
  WALRUS_ASSIGN_OR_RETURN(v, reader->GetU32());
  p.max_window = static_cast<int>(v);
  WALRUS_ASSIGN_OR_RETURN(v, reader->GetU32());
  p.slide_step = static_cast<int>(v);
  WALRUS_ASSIGN_OR_RETURN(p.cluster_epsilon, reader->GetDouble());
  WALRUS_ASSIGN_OR_RETURN(v, reader->GetU32());
  p.bitmap_side = static_cast<int>(v);
  WALRUS_ASSIGN_OR_RETURN(uint8_t kind, reader->GetU8());
  p.signature_kind = static_cast<RegionSignatureKind>(kind);
  WALRUS_ASSIGN_OR_RETURN(v, reader->GetU32());
  p.birch_branching = static_cast<int>(v);
  WALRUS_ASSIGN_OR_RETURN(v, reader->GetU32());
  p.birch_leaf_entries = static_cast<int>(v);
  WALRUS_ASSIGN_OR_RETURN(v, reader->GetU32());
  p.min_cluster_windows = static_cast<int>(v);
  WALRUS_ASSIGN_OR_RETURN(v, reader->GetU32());
  p.refined_signature_size = static_cast<int>(v);
  WALRUS_ASSIGN_OR_RETURN(uint8_t clusterer, reader->GetU8());
  p.clusterer = static_cast<ClustererKind>(clusterer);
  WALRUS_ASSIGN_OR_RETURN(v, reader->GetU32());
  p.kmeans_k = static_cast<int>(v);
  WALRUS_RETURN_IF_ERROR(p.Validate());
  return p;
}

Status WalrusIndex::ProbeRange(
    const Rect& query,
    const std::function<bool(const Rect&, uint64_t)>& visitor,
    int64_t* nodes_visited) const {
  const int64_t visited = arena_.has_value()
                              ? arena_->RangeSearchVisit(query, visitor)
                              : tree_.RangeSearchVisit(query, visitor);
  if (nodes_visited != nullptr) *nodes_visited = visited;
  return Status::OK();
}

Status WalrusIndex::ProbeRangeBatch(
    const std::vector<Rect>& probes,
    const std::function<bool(int, const Rect&, uint64_t)>& visitor,
    int64_t* nodes_visited) const {
  const int64_t visited = arena_.has_value()
                              ? arena_->RangeQueryBatch(probes, visitor)
                              : tree_.RangeQueryBatch(probes, visitor);
  if (nodes_visited != nullptr) *nodes_visited = visited;
  return Status::OK();
}

Result<std::vector<std::pair<uint64_t, double>>> WalrusIndex::ProbeNearest(
    const std::vector<float>& point, int k, int64_t* nodes_visited) const {
  if (arena_.has_value()) {
    return arena_->NearestNeighbors(point, k, nodes_visited);
  }
  return tree_.NearestNeighbors(point, k, nodes_visited);
}

std::vector<std::pair<Rect, uint64_t>> WalrusIndex::CatalogEntries() const {
  std::vector<std::pair<Rect, uint64_t>> entries;
  bool use_bbox = params_.signature_kind == RegionSignatureKind::kBoundingBox;
  for (const ImageRecord& record : catalog_.images()) {
    for (const RegionRecord& region : record.regions) {
      Rect rect = use_bbox ? Rect::Bounds(region.bbox_lo, region.bbox_hi)
                           : Rect::Point(region.centroid);
      entries.emplace_back(
          std::move(rect),
          EncodeRegionPayload(record.image_id, region.region_id));
    }
  }
  return entries;
}

Status WalrusIndex::ValidateConsistency() const {
  WALRUS_RETURN_IF_ERROR(catalog_.Validate());

  // The signature tier must shadow the catalog exactly: every region's
  // stored thermometer words (persisted and resident) must equal the words
  // recomputed from its centroid -- the admissibility proof assumes the
  // signature is a pure function of the centroid the exact test reads.
  for (const ImageRecord& record : catalog_.images()) {
    for (const RegionRecord& region : record.regions) {
      const std::vector<uint64_t> expected_sig =
          ComputeSignature(region.centroid);
      if (!region.signature.empty() && region.signature != expected_sig) {
        return Status::Internal(
            "index: persisted signature of image " +
            std::to_string(record.image_id) + " region " +
            std::to_string(region.region_id) +
            " disagrees with its centroid quantization");
      }
      const uint64_t* row =
          signatures_.SignatureRow(record.image_id, region.region_id);
      if (row == nullptr ||
          !std::equal(expected_sig.begin(), expected_sig.end(), row)) {
        return Status::Internal(
            "index: signature store row of image " +
            std::to_string(record.image_id) + " region " +
            std::to_string(region.region_id) +
            " is missing or disagrees with the catalog");
      }
    }
  }

  // Every catalog region, keyed by its packed payload. Pointers into
  // `expected` stay valid: the vector is not resized past this point.
  std::vector<std::pair<Rect, uint64_t>> expected = CatalogEntries();
  std::unordered_map<uint64_t, const Rect*> by_payload;
  by_payload.reserve(expected.size());
  for (const auto& [rect, payload] : expected) {
    if (!by_payload.emplace(payload, &rect).second) {
      return Status::Internal("index: duplicate region payload " +
                              std::to_string(payload) + " in catalog");
    }
  }

  // Sweep the spatial backend and tick entries off against the catalog;
  // erasing as we match also catches duplicate tree entries.
  Status mismatch = Status::OK();
  auto visitor = [&](const Rect& rect, uint64_t payload) {
    auto it = by_payload.find(payload);
    if (it == by_payload.end()) {
      mismatch = Status::Internal("index: tree entry with payload " +
                                  std::to_string(payload) +
                                  " has no catalog region (or is duplicated)");
      return false;
    }
    if (!(rect == *it->second)) {
      mismatch = Status::Internal(
          "index: tree rect differs from catalog signature for payload " +
          std::to_string(payload));
      return false;
    }
    by_payload.erase(it);
    return true;
  };
  int dim = params_.SignatureDim();
  Rect everything =
      Rect::Bounds(std::vector<float>(dim, std::numeric_limits<float>::lowest()),
                   std::vector<float>(dim, std::numeric_limits<float>::max()));
  WALRUS_RETURN_IF_ERROR(arena_.has_value() ? arena_->Validate()
                                             : tree_.Validate());
  const int64_t tree_size = arena_.has_value() ? arena_->size() : tree_.size();
  if (tree_size != static_cast<int64_t>(expected.size())) {
    return Status::Internal("index: tree holds " + std::to_string(tree_size) +
                            " entries, catalog has " +
                            std::to_string(expected.size()) + " regions");
  }
  WALRUS_RETURN_IF_ERROR(ProbeRange(everything, visitor));
  WALRUS_RETURN_IF_ERROR(mismatch);
  if (!by_payload.empty()) {
    return Status::Internal("index: " + std::to_string(by_payload.size()) +
                            " catalog regions missing from the tree");
  }
  return Status::OK();
}

void WalrusIndex::UseDynamicTree() {
  if (!arena_.has_value()) return;
  tree_ = RStarTree::BulkLoad(params_.SignatureDim(), CatalogEntries());
  arena_.reset();
  paged_ = false;
}

Result<WalrusIndex> WalrusIndex::Load(const std::string& path_prefix,
                                      bool paged) {
  WALRUS_ASSIGN_OR_RETURN(
      std::vector<uint8_t> bytes,
      ReadFileBytes(path_prefix + (paged ? ".pmeta" : ".index")));
  BinaryReader reader(bytes);
  WALRUS_ASSIGN_OR_RETURN(WalrusParams params, DeserializeParams(&reader));
  WalrusIndex index(params);
  WALRUS_ASSIGN_OR_RETURN(index.catalog_,
                          Catalog::LoadFromFile(path_prefix + ".catalog"));
  // Files spliced from indexes with other params are refused before any
  // tree is built or decoded from them.
  const size_t dim = static_cast<size_t>(params.SignatureDim());
  const bool use_bbox =
      params.signature_kind == RegionSignatureKind::kBoundingBox;
  for (const ImageRecord& record : index.catalog_.images()) {
    for (const RegionRecord& region : record.regions) {
      if (region.centroid.size() != dim ||
          (use_bbox &&
           (region.bbox_lo.size() != dim || region.bbox_hi.size() != dim))) {
        return Status::Corruption(
            "index: image " + std::to_string(record.image_id) +
            " has a region signature of another dimension than the params' " +
            std::to_string(dim));
      }
    }
  }
  if (paged) {
    WALRUS_ASSIGN_OR_RETURN(index.arena_,
                            DiskRStarTree::Open(path_prefix + ".ptree"));
    if (index.arena_->dim() != params.SignatureDim()) {
      return Status::Corruption("paged index: tree/params dimension mismatch");
    }
  } else {
    WALRUS_ASSIGN_OR_RETURN(
        index.arena_,
        DiskRStarTree::Build(params.SignatureDim(), index.CatalogEntries()));
  }
  index.paged_ = paged;
  index.signatures_.Rebuild(index.catalog_);
  return index;
}

Status WalrusIndex::SavePaged(const std::string& path_prefix) const {
  WALRUS_RETURN_IF_ERROR(catalog_.SaveToFile(path_prefix + ".catalog"));
  BinaryWriter writer;
  SerializeParams(params_, &writer);
  WALRUS_RETURN_IF_ERROR(
      WriteFileBytes(path_prefix + ".pmeta", writer.buffer()));
  if (arena_.has_value()) return arena_->Save(path_prefix + ".ptree");
  WALRUS_ASSIGN_OR_RETURN(
      DiskRStarTree tree,
      DiskRStarTree::Build(params_.SignatureDim(), CatalogEntries()));
  return tree.Save(path_prefix + ".ptree");
}

Result<WalrusIndex> WalrusIndex::OpenPaged(const std::string& path_prefix) {
  return Load(path_prefix, /*paged=*/true);
}

Status WalrusIndex::Save(const std::string& path_prefix) const {
  WALRUS_RETURN_IF_ERROR(catalog_.SaveToFile(path_prefix + ".catalog"));
  BinaryWriter writer;
  SerializeParams(params_, &writer);
  return WriteFileBytes(path_prefix + ".index", writer.buffer());
}

Result<WalrusIndex> WalrusIndex::Open(const std::string& path_prefix) {
  return Load(path_prefix, /*paged=*/false);
}

}  // namespace walrus
