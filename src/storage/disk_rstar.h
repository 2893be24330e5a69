#ifndef WALRUS_STORAGE_DISK_RSTAR_H_
#define WALRUS_STORAGE_DISK_RSTAR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spatial/rect.h"
#include "storage/page_file.h"

namespace walrus {

/// The immutable R-tree of every bulk-loaded index (the paper's build-once
/// / query-many "disk-based R*-tree", section 5.3): one resident arena,
/// STR-packed bottom-up with a page-derived node capacity. Build fills the
/// arena in memory; Save encodes it as one page per node and Open decodes
/// those pages back into an equal arena. A mutated index moves to the
/// dynamic RStarTree first (core/index.h).
///
/// Open reads every node page exactly once -- PageFile::ReadPage checks
/// each page's CRC-32 -- checks the structure (page ids in range and
/// reached once, leaves exactly at height(), fill <= NodeCapacity(), no
/// inverted rect, leaf entries summing to size()), decodes the pages into
/// the arena and closes the file, so a corrupt tree is refused at open.
/// Queries run over the arena with no lock, no IO and no heap allocation
/// per node or per hit (DESIGN.md section 19).
///
/// Arena layout: nodes_ in level order (root first). Node n's entries are
/// entries [entry, entry + count) of the tree; their rects form two
/// dimension-major SoA blocks, lo_/hi_ from entry * dim, where plane d
/// holds bound d of all `count` entries contiguously (the layout the
/// batch kernels of common/simd.h read with stride = count). values_
/// holds each entry's leaf payload or, for an internal entry, its child's
/// 32-bit node index.
///
/// Counters: every node visit is a page read served from memory, so
/// pages_read() counts node visits, cache_hits() == pages_read() and
/// cache_misses() == 0. Each query also returns the nodes it visited, so
/// per-query counts stay exact under concurrency.
///
/// Thread safety: immutable once made, so any number of threads may query
/// concurrently. A moved-from tree must no longer be used.
///
/// Page file: node n of N at page N - n (leaves first, root last), then a
/// metadata blob. Node page layout (little endian):
///   u8  is_leaf, u8 reserved, u16 entry_count, u32 reserved
///   then entry_count entries of:
///     dim f32 lo, dim f32 hi, u64 payload_or_child_page
class DiskRStarTree {
 public:
  DiskRStarTree(const DiskRStarTree&) = delete;
  DiskRStarTree& operator=(const DiskRStarTree&) = delete;
  DiskRStarTree(DiskRStarTree&&) noexcept = default;
  DiskRStarTree& operator=(DiskRStarTree&&) noexcept = default;

  /// STR-packs `entries` into an arena with `page_size`-page nodes.
  /// InvalidArgument for dim < 1, a page too small for two entries, or an
  /// entry rect of another dimension, empty, or with an inverted bound.
  static Result<DiskRStarTree> Build(
      int dim, std::vector<std::pair<Rect, uint64_t>> entries,
      uint32_t page_size = PageFile::kDefaultPageSize);

  /// Encodes the arena into a new page file at `path`.
  Status Save(const std::string& path) const;

  /// Decodes a tree written by Save into an equal arena; Corruption when
  /// any page fails its checksum or the structure checks.
  static Result<DiskRStarTree> Open(const std::string& path);

  /// True when both arenas are equal bit for bit: shape, node table,
  /// planes and values.
  bool SameArena(const DiskRStarTree& other) const;

  int dim() const { return dim_; }
  int64_t size() const { return size_; }
  int height() const { return height_; }
  /// Entries per node for this dimension/page size (diagnostics).
  int NodeCapacity() const;
  /// Bytes the resident arena holds (node table, rect planes, values).
  size_t ResidentBytes() const;

  /// Streams all entries whose rects intersect `query`; return false from
  /// the visitor to stop. A one-probe RangeQueryBatch traversal. Returns
  /// the nodes visited.
  int64_t RangeSearchVisit(
      const Rect& query,
      const std::function<bool(const Rect&, uint64_t)>& visitor) const;

  /// Collects intersecting payloads.
  std::vector<uint64_t> RangeSearch(const Rect& query) const;

  /// Batched multi-probe range search: one shared traversal answers every
  /// probe, so each node along a shared path is visited once per batch
  /// instead of once per probe (same contract as
  /// RStarTree::RangeQueryBatch -- Hilbert-sorted probes, per-node SIMD
  /// filtering of the active set, union-of-single-probe results with
  /// node-grouped delivery order, visitor false aborts the batch). Returns
  /// the nodes visited by this call.
  int64_t RangeQueryBatch(
      const std::vector<Rect>& probes,
      const std::function<bool(int, const Rect&, uint64_t)>& visitor) const;

  /// Best-first k nearest entries to `point` (ascending distance), ties
  /// broken as RStarTree::NearestNeighbors breaks them, so the answer
  /// depends on the entry set alone.
  /// `nodes_visited`, when non-null, receives the nodes this call visited.
  std::vector<std::pair<uint64_t, double>> NearestNeighbors(
      const std::vector<float>& point, int k,
      int64_t* nodes_visited = nullptr) const;

  /// Deep validation over the arena. The page CRCs and the structure were
  /// checked at Open; this verifies that each stored parent rect equals
  /// the union of its child's rects and that the shape still agrees with
  /// size() and height(). O(tree size); no IO.
  Status Validate() const;

  /// Node visits by queries since the tree was made.
  int64_t pages_read() const {
    return pages_read_->load(std::memory_order_relaxed);
  }
  /// Page reads served from memory: all of them.
  int64_t cache_hits() const { return pages_read(); }
  /// Page reads that went to the file: none, the tree is resident.
  int64_t cache_misses() const { return 0; }

 private:
  struct Node {
    uint32_t entry = 0;  // first entry; rect blocks start at entry * dim
    uint16_t count = 0;
    bool is_leaf = false;
    bool operator==(const Node&) const = default;
  };

  DiskRStarTree() = default;

  /// Decodes the tree rooted at `root_page` breadth first into the arena,
  /// running the structure checks listed in the class comment.
  Status Load(PageFile* file, uint32_t root_page);

  /// Appends a node of `count` zeroed entries for SetEntry to fill (the
  /// one layout path of Build and Load).
  Node AppendNode(bool is_leaf, int count);
  /// Stores entry i of `node`: bounds lo/hi[0, dim) and its value.
  void SetEntry(const Node& node, int i, const float* lo, const float* hi,
                uint64_t value);
  /// The union of node `child_index`'s entry rects, into lo/hi[0, dim).
  void ChildBounds(uint64_t child_index, float* lo, float* hi) const;

  /// The shared batch traversal behind RangeSearchVisit/RangeQueryBatch.
  int64_t Traverse(
      const std::vector<Rect>& probes,
      const std::function<bool(int, const Rect&, uint64_t)>& visitor) const;

  const float* lo_block(const Node& node) const {
    return lo_.data() + static_cast<size_t>(node.entry) * dim_;
  }
  const float* hi_block(const Node& node) const {
    return hi_.data() + static_cast<size_t>(node.entry) * dim_;
  }

  uint32_t page_size_ = PageFile::kDefaultPageSize;
  int dim_ = 0;
  int64_t size_ = 0;
  int height_ = 0;
  std::vector<Node> nodes_;
  std::vector<float> lo_;
  std::vector<float> hi_;
  std::vector<uint64_t> values_;
  /// Node visits by queries (relaxed: a diagnostics counter). Boxed so
  /// the tree keeps its default move operations.
  std::unique_ptr<std::atomic<int64_t>> pages_read_ =
      std::make_unique<std::atomic<int64_t>>(0);
};

}  // namespace walrus

#endif  // WALRUS_STORAGE_DISK_RSTAR_H_
