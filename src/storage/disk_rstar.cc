#include "storage/disk_rstar.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <queue>

#include "common/check.h"
#include "common/metrics.h"
#include "common/serialize.h"
#include "common/simd.h"
#include "common/status.h"
#include "spatial/hilbert.h"

namespace walrus {
namespace {

/// Paged-backend counters. pages_read counts node visits, all served from
/// the resident arena.
struct DiskRStarMetrics {
  Counter* range_probes;
  Counter* knn_probes;
  Counter* batch_probes;
  Counter* pages_read;

  static const DiskRStarMetrics& Get() {
    static const DiskRStarMetrics metrics = [] {
      MetricsRegistry& registry = MetricsRegistry::Global();
      DiskRStarMetrics m;
      m.range_probes = registry.GetCounter("walrus.disk_rstar.range_probes");
      m.knn_probes = registry.GetCounter("walrus.disk_rstar.knn_probes");
      m.batch_probes = registry.GetCounter("walrus.disk_rstar.batch_probes");
      m.pages_read = registry.GetCounter("walrus.disk_rstar.pages_read");
      return m;
    }();
    return metrics;
  }
};

constexpr uint32_t kMetaMagic = 0x44525354;  // "DRST"
constexpr size_t kNodeHeaderBytes = 8;

size_t EntryBytes(int dim) { return static_cast<size_t>(dim) * 8 + 8; }

int CapacityFor(uint32_t page_size, int dim) {
  // The page file reserves its CRC-32 trailer at the end of every page.
  return static_cast<int>(
      (page_size - kNodeHeaderBytes - PageFile::kChecksumBytes) /
      EntryBytes(dim));
}

void PutU16At(std::vector<uint8_t>* page, size_t pos, uint16_t v) {
  (*page)[pos] = static_cast<uint8_t>(v);
  (*page)[pos + 1] = static_cast<uint8_t>(v >> 8);
}

void PutU64At(std::vector<uint8_t>* page, size_t pos, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*page)[pos + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

void PutF32At(std::vector<uint8_t>* page, size_t pos, float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, 4);
  for (int i = 0; i < 4; ++i) {
    (*page)[pos + i] = static_cast<uint8_t>(bits >> (8 * i));
  }
}

uint64_t GetLeAt(const std::vector<uint8_t>& page, size_t pos, int bytes) {
  uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<uint64_t>(page[pos + i]) << (8 * i);
  }
  return v;
}

float GetF32At(const std::vector<uint8_t>& page, size_t pos) {
  const uint32_t bits = static_cast<uint32_t>(GetLeAt(page, pos, 4));
  float value;
  std::memcpy(&value, &bits, 4);
  return value;
}

/// Serializes one node into a fresh page image.
std::vector<uint8_t> EncodeNode(uint32_t page_size, int dim, bool is_leaf,
                                const std::vector<Rect>& rects,
                                const std::vector<uint64_t>& values) {
  std::vector<uint8_t> page(page_size, 0);
  page[0] = is_leaf ? 1 : 0;
  PutU16At(&page, 2, static_cast<uint16_t>(rects.size()));
  size_t at = kNodeHeaderBytes;
  for (size_t i = 0; i < rects.size(); ++i) {
    for (int d = 0; d < dim; ++d) {
      PutF32At(&page, at, rects[i].lo(d));
      at += 4;
    }
    for (int d = 0; d < dim; ++d) {
      PutF32At(&page, at, rects[i].hi(d));
      at += 4;
    }
    PutU64At(&page, at, values[i]);
    at += 8;
  }
  return page;
}

/// STR-packs `entries` into a new page file at `path` (page layout in
/// disk_rstar.h).
Status WriteTree(const std::string& path, int dim,
                 std::vector<std::pair<Rect, uint64_t>> entries,
                 uint32_t page_size) {
  if (dim < 1) return Status::InvalidArgument("disk rstar: dim must be >= 1");
  int capacity = CapacityFor(page_size, dim);
  if (capacity < 2) {
    return Status::InvalidArgument(
        "disk rstar: page too small for dimension " + std::to_string(dim));
  }
  WALRUS_ASSIGN_OR_RETURN(PageFile file, PageFile::Create(path, page_size));

  // STR order the leaf entries (same recursive tiling as
  // RStarTree::BulkLoad, specialized to produce a flat order).
  std::vector<int> order(entries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::function<void(int, int, int)> tile = [&](int begin, int end,
                                                int dim_index) {
    int n = end - begin;
    if (n <= capacity) return;
    std::sort(order.begin() + begin, order.begin() + end, [&](int a, int b) {
      const Rect& ra = entries[a].first;
      const Rect& rb = entries[b].first;
      return ra.lo(dim_index) + ra.hi(dim_index) <
             rb.lo(dim_index) + rb.hi(dim_index);
    });
    int num_groups = (n + capacity - 1) / capacity;
    int slabs = static_cast<int>(std::ceil(
        std::pow(static_cast<double>(num_groups),
                 1.0 / static_cast<double>(std::max(1, dim - dim_index)))));
    slabs = std::max(1, std::min(slabs, num_groups));
    if (dim_index + 1 >= dim || slabs <= 1) return;  // sorted run is enough
    int base = n / slabs;
    int extra = n % slabs;
    int at = begin;
    for (int s = 0; s < slabs; ++s) {
      int size = base + (s < extra ? 1 : 0);
      tile(at, at + size, dim_index + 1);
      at += size;
    }
  };
  if (!entries.empty()) {
    tile(0, static_cast<int>(entries.size()), 0);
  }

  // Write the leaf level.
  struct Pending {
    Rect rect;
    uint32_t page;
  };
  std::vector<Pending> level;
  for (size_t begin = 0; begin < entries.size(); begin += capacity) {
    size_t end = std::min(entries.size(), begin + capacity);
    std::vector<Rect> rects;
    std::vector<uint64_t> values;
    Rect bounds = Rect::Empty(dim);
    for (size_t i = begin; i < end; ++i) {
      rects.push_back(entries[order[i]].first);
      values.push_back(entries[order[i]].second);
      bounds.ExpandToInclude(entries[order[i]].first);
    }
    WALRUS_ASSIGN_OR_RETURN(uint32_t page_id, file.AllocatePage());
    WALRUS_RETURN_IF_ERROR(file.WritePage(
        page_id, EncodeNode(page_size, dim, /*is_leaf=*/true, rects, values)));
    level.push_back({bounds, page_id});
  }
  int height = level.empty() ? 0 : 1;

  // Pack upper levels until one root remains.
  while (level.size() > 1) {
    ++height;
    // Order parents by the dim-0 center of their child rects.
    std::vector<int> parent_order(level.size());
    for (size_t i = 0; i < parent_order.size(); ++i) {
      parent_order[i] = static_cast<int>(i);
    }
    std::sort(parent_order.begin(), parent_order.end(), [&](int a, int b) {
      return level[a].rect.lo(0) + level[a].rect.hi(0) <
             level[b].rect.lo(0) + level[b].rect.hi(0);
    });
    std::vector<Pending> next;
    for (size_t begin = 0; begin < level.size(); begin += capacity) {
      size_t end = std::min(level.size(), begin + capacity);
      std::vector<Rect> rects;
      std::vector<uint64_t> values;
      Rect bounds = Rect::Empty(dim);
      for (size_t i = begin; i < end; ++i) {
        const Pending& child = level[parent_order[i]];
        rects.push_back(child.rect);
        values.push_back(child.page);
        bounds.ExpandToInclude(child.rect);
      }
      WALRUS_ASSIGN_OR_RETURN(uint32_t page_id, file.AllocatePage());
      WALRUS_RETURN_IF_ERROR(file.WritePage(
          page_id,
          EncodeNode(page_size, dim, /*is_leaf=*/false, rects, values)));
      next.push_back({bounds, page_id});
    }
    level = std::move(next);
  }

  // Metadata blob last (its head page = page_count - 1, like the catalog).
  BinaryWriter meta;
  meta.PutU32(kMetaMagic);
  meta.PutU32(static_cast<uint32_t>(dim));
  meta.PutU64(static_cast<uint64_t>(entries.size()));
  meta.PutU32(static_cast<uint32_t>(height));
  meta.PutU32(level.empty() ? 0 : level[0].page);
  WALRUS_ASSIGN_OR_RETURN(BlobRef meta_ref, file.WriteBlob(meta.buffer()));
  (void)meta_ref;
  return file.Sync();
}

}  // namespace

int DiskRStarTree::NodeCapacity() const {
  return CapacityFor(page_size_, dim_);
}

size_t DiskRStarTree::ResidentBytes() const {
  return nodes_.size() * sizeof(Node) +
         (lo_.size() + hi_.size()) * sizeof(float) +
         values_.size() * sizeof(uint64_t);
}

Result<DiskRStarTree> DiskRStarTree::Build(
    const std::string& path, int dim,
    std::vector<std::pair<Rect, uint64_t>> entries, uint32_t page_size) {
  WALRUS_RETURN_IF_ERROR(WriteTree(path, dim, std::move(entries), page_size));
  return Open(path);
}

Result<DiskRStarTree> DiskRStarTree::Open(const std::string& path) {
  WALRUS_ASSIGN_OR_RETURN(PageFile file, PageFile::Open(path));
  if (file.page_count() < 2) {
    return Status::Corruption("disk rstar: no metadata page");
  }
  WALRUS_ASSIGN_OR_RETURN(
      std::vector<uint8_t> meta_bytes,
      file.ReadBlob(BlobRef{file.page_count() - 1, 24}));
  BinaryReader meta(meta_bytes);
  WALRUS_ASSIGN_OR_RETURN(uint32_t magic, meta.GetU32());
  if (magic != kMetaMagic) return Status::Corruption("disk rstar: magic");
  WALRUS_ASSIGN_OR_RETURN(uint32_t dim, meta.GetU32());
  WALRUS_ASSIGN_OR_RETURN(uint64_t size, meta.GetU64());
  WALRUS_ASSIGN_OR_RETURN(uint32_t height, meta.GetU32());
  WALRUS_ASSIGN_OR_RETURN(uint32_t root_page, meta.GetU32());
  if (dim == 0 || dim > 4096) return Status::Corruption("disk rstar: dim");
  const int capacity = CapacityFor(file.page_size(), static_cast<int>(dim));
  if (capacity < 2) {
    return Status::Corruption("disk rstar: page/dim mismatch");
  }
  // Leaf entries must fit in the pages (this also bounds the arena
  // reservation below by the file size), and a tree of height h needs at
  // least h node pages.
  if (size > static_cast<uint64_t>(file.page_count()) * capacity ||
      height > file.page_count()) {
    return Status::Corruption("disk rstar: size or height exceeds the file");
  }
  if ((size == 0) != (height == 0)) {
    return Status::Corruption("disk rstar: size " + std::to_string(size) +
                              " with height " + std::to_string(height));
  }
  DiskRStarTree tree;
  tree.page_size_ = file.page_size();
  tree.dim_ = static_cast<int>(dim);
  tree.size_ = static_cast<int64_t>(size);
  tree.height_ = static_cast<int>(height);
  if (size > 0) WALRUS_RETURN_IF_ERROR(tree.Load(&file, root_page));
  return tree;
}

Status DiskRStarTree::Load(PageFile* file, uint32_t root_page) {
  const uint32_t page_count = file->page_count();
  const int capacity = NodeCapacity();
  const size_t entry_bytes = EntryBytes(dim_);
  // Leaf entries plus one entry per non-root node: reserved up front so
  // the planes never reallocate (and transiently double) while loading.
  const size_t max_entries = static_cast<size_t>(size_) + page_count;
  lo_.reserve(max_entries * dim_);
  hi_.reserve(max_entries * dim_);
  values_.reserve(max_entries);

  // Breadth first, so nodes_ comes out in level order. pages[n] is the
  // page of nodes_[n]; a page id is checked and marked when first pushed.
  std::vector<uint32_t> pages;
  std::vector<bool> seen(page_count, false);
  const auto push_page = [&](uint64_t page_id) -> Status {
    if (page_id == 0 || page_id >= page_count) {
      return Status::Corruption("disk rstar: child page id " +
                                std::to_string(page_id) + " out of range");
    }
    if (seen[page_id]) {
      return Status::Corruption("disk rstar: page " + std::to_string(page_id) +
                                " reachable twice (cycle or shared child)");
    }
    seen[page_id] = true;
    pages.push_back(static_cast<uint32_t>(page_id));
    return Status::OK();
  };
  WALRUS_RETURN_IF_ERROR(push_page(root_page));
  int64_t leaf_entries = 0;
  int depth = 1;  // root is depth 1; leaves must sit at depth == height_
  size_t level_end = 1;
  for (size_t n = 0; n < pages.size(); ++n) {
    if (n == level_end) {
      ++depth;
      level_end = pages.size();
    }
    WALRUS_ASSIGN_OR_RETURN(std::vector<uint8_t> page,
                            file->ReadPage(pages[n]));
    Node node;
    node.is_leaf = page[0] != 0;
    const int count = static_cast<int>(GetLeAt(page, 2, 2));
    if (count == 0 || count > capacity) {
      return Status::Corruption("disk rstar: page " + std::to_string(pages[n]) +
                                " holds " + std::to_string(count) +
                                " entries, capacity " +
                                std::to_string(capacity));
    }
    if (node.is_leaf != (depth == height_)) {
      return Status::Corruption(
          "disk rstar: " + std::string(node.is_leaf ? "leaf" : "internal") +
          " node at depth " + std::to_string(depth) + ", tree height " +
          std::to_string(height_));
    }
    if (values_.size() + count > std::numeric_limits<uint32_t>::max()) {
      return Status::Corruption("disk rstar: too many entries");
    }
    node.entry = static_cast<uint32_t>(values_.size());
    node.count = static_cast<uint16_t>(count);
    // Transpose the entry-major page into the node's dimension-major
    // planes: bound d of entry i lands at plane d, slot i.
    const size_t base = lo_.size();
    lo_.resize(base + static_cast<size_t>(dim_) * count);
    hi_.resize(base + static_cast<size_t>(dim_) * count);
    for (int i = 0; i < count; ++i) {
      const size_t at = kNodeHeaderBytes + i * entry_bytes;
      for (int d = 0; d < dim_; ++d) {
        const float lo = GetF32At(page, at + 4 * d);
        const float hi = GetF32At(page, at + 4 * (dim_ + d));
        if (!(lo <= hi)) {
          return Status::Corruption("disk rstar: inverted rect at page " +
                                    std::to_string(pages[n]));
        }
        lo_[base + static_cast<size_t>(d) * count + i] = lo;
        hi_[base + static_cast<size_t>(d) * count + i] = hi;
      }
      const uint64_t value = GetLeAt(page, at + 8 * dim_, 8);
      if (node.is_leaf) {
        values_.push_back(value);
      } else {
        values_.push_back(pages.size());  // the child's node index
        WALRUS_RETURN_IF_ERROR(push_page(value));
      }
    }
    if (node.is_leaf) leaf_entries += count;
    nodes_.push_back(node);
  }
  if (leaf_entries != size_) {
    return Status::Corruption("disk rstar: leaf entry count " +
                              std::to_string(leaf_entries) +
                              " != recorded size " + std::to_string(size_));
  }
  return Status::OK();
}

Status DiskRStarTree::Validate() const {
  if (size_ == 0) {
    if (height_ != 0 || !nodes_.empty()) {
      return Status::Internal("disk rstar: empty tree with height " +
                              std::to_string(height_));
    }
    return Status::OK();
  }
  if (height_ < 1 || nodes_.empty()) {
    return Status::Internal("disk rstar: nonempty tree with height " +
                            std::to_string(height_));
  }
  // Every internal entry's rect must equal the union of its child's
  // entry rects (the probes prune on the stored rects).
  std::vector<float> lo(dim_);
  std::vector<float> hi(dim_);
  int64_t leaf_entries = 0;
  for (const Node& node : nodes_) {
    if (node.is_leaf) {
      leaf_entries += node.count;
      continue;
    }
    for (int i = 0; i < node.count; ++i) {
      const uint64_t child_index = values_[node.entry + i];
      if (child_index <= static_cast<uint64_t>(&node - nodes_.data()) ||
          child_index >= nodes_.size()) {
        return Status::Internal("disk rstar: child node index " +
                                std::to_string(child_index) +
                                " breaks level order");
      }
      const Node& child = nodes_[child_index];
      const float* clo = lo_block(child);
      const float* chi = hi_block(child);
      for (int d = 0; d < dim_; ++d) {
        const float* plo = clo + static_cast<size_t>(d) * child.count;
        const float* phi = chi + static_cast<size_t>(d) * child.count;
        lo[d] = *std::min_element(plo, plo + child.count);
        hi[d] = *std::max_element(phi, phi + child.count);
      }
      for (int d = 0; d < dim_; ++d) {
        const size_t slot = static_cast<size_t>(d) * node.count + i;
        if (lo_block(node)[slot] != lo[d] || hi_block(node)[slot] != hi[d]) {
          return Status::Internal(
              "disk rstar: stored parent rect differs from child bounds "
              "union at node " +
              std::to_string(child_index));
        }
      }
    }
  }
  if (leaf_entries != size_) {
    return Status::Internal("disk rstar: leaf entry count " +
                            std::to_string(leaf_entries) +
                            " != recorded size " + std::to_string(size_));
  }
  return Status::OK();
}

int64_t DiskRStarTree::RangeSearchVisit(
    const Rect& query,
    const std::function<bool(const Rect&, uint64_t)>& visitor) const {
  WALRUS_CHECK_EQ(query.dim(), dim_);
  return Traverse({query}, [&visitor](int, const Rect& rect,
                                      uint64_t payload) {
    return visitor(rect, payload);
  });
}

int64_t DiskRStarTree::RangeQueryBatch(
    const std::vector<Rect>& probes,
    const std::function<bool(int, const Rect&, uint64_t)>& visitor) const {
  DiskRStarMetrics::Get().batch_probes->Increment();
  return Traverse(probes, visitor);
}

int64_t DiskRStarTree::Traverse(
    const std::vector<Rect>& probes,
    const std::function<bool(int, const Rect&, uint64_t)>& visitor) const {
  const DiskRStarMetrics& metrics = DiskRStarMetrics::Get();
  // A batch of N probes answers N range probes; keep the per-probe counter
  // meaningful regardless of traversal strategy.
  metrics.range_probes->Increment(static_cast<uint64_t>(probes.size()));
  static Histogram* const occupancy =
      MetricsRegistry::Global().GetHistogram("walrus.probe.batch_occupancy",
                                             ExponentialBuckets(1, 2, 12));
  std::vector<int> order = HilbertProbeOrder(probes, dim_);
  if (order.empty() || size_ == 0) return 0;

  const simd::KernelTable& kern = simd::Active();
  // Active sets live in one append-only arena; each frame references a
  // slice (see RStarTree::RangeQueryBatch -- same structure, but the
  // nodes are already SoA blocks, so no packing step exists here).
  struct Frame {
    uint32_t node;
    uint32_t begin;
    uint32_t len;
  };
  std::vector<int> arena = std::move(order);
  std::vector<Frame> stack;
  stack.push_back({0, 0, static_cast<uint32_t>(arena.size())});
  std::vector<uint64_t> masks;  // probe-major: masks[pi * words + w]
  std::vector<Frame> pending;   // children of the current node, entry order
  Rect hit;                     // scratch rect handed to the visitor
  int64_t visited = 0;
  const auto finish = [&] {
    pages_read_->fetch_add(visited, std::memory_order_relaxed);
    metrics.pages_read->Increment(static_cast<uint64_t>(visited));
    return visited;
  };
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    // One node visit serves every active probe at this node.
    const Node& node = nodes_[frame.node];
    const float* lo = lo_block(node);
    const float* hi = hi_block(node);
    const uint64_t* values = values_.data() + node.entry;
    ++visited;
    occupancy->Observe(static_cast<double>(frame.len));
    const int count = node.count;
    const int words = (count + 63) / 64;
    if (node.is_leaf) {
      masks.resize(words);
      for (uint32_t pi = 0; pi < frame.len; ++pi) {
        const int p = arena[frame.begin + pi];
        kern.batch_intersects(lo, hi, count, dim_, count,
                              probes[p].lo().data(), probes[p].hi().data(),
                              masks.data());
        for (int w = 0; w < words; ++w) {
          uint64_t bits = masks[w];
          while (bits != 0) {
            const int i = w * 64 + std::countr_zero(bits);
            bits &= bits - 1;
            hit.AssignFromPlanes(lo + i, hi + i, count, dim_);
            if (!visitor(p, hit, values[i])) return finish();
          }
        }
      }
    } else {
      masks.resize(static_cast<size_t>(words) * frame.len);
      for (uint32_t pi = 0; pi < frame.len; ++pi) {
        const int p = arena[frame.begin + pi];
        kern.batch_intersects(lo, hi, count, dim_, count,
                              probes[p].lo().data(), probes[p].hi().data(),
                              masks.data() + static_cast<size_t>(pi) * words);
      }
      pending.clear();
      for (int i = 0; i < count; ++i) {
        const uint32_t begin = static_cast<uint32_t>(arena.size());
        const int w = i >> 6;
        const uint64_t bit = uint64_t{1} << (i & 63);
        for (uint32_t pi = 0; pi < frame.len; ++pi) {
          if (masks[static_cast<size_t>(pi) * words + w] & bit) {
            arena.push_back(arena[frame.begin + pi]);
          }
        }
        const uint32_t len = static_cast<uint32_t>(arena.size()) - begin;
        if (len > 0) {
          pending.push_back({static_cast<uint32_t>(values[i]), begin, len});
        }
      }
      for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
        stack.push_back(*it);
      }
    }
  }
  return finish();
}

std::vector<uint64_t> DiskRStarTree::RangeSearch(const Rect& query) const {
  std::vector<uint64_t> out;
  RangeSearchVisit(query, [&out](const Rect&, uint64_t payload) {
    out.push_back(payload);
    return true;
  });
  return out;
}

std::vector<std::pair<uint64_t, double>> DiskRStarTree::NearestNeighbors(
    const std::vector<float>& point, int k, int64_t* nodes_visited) const {
  WALRUS_CHECK_EQ(static_cast<int>(point.size()), dim_);
  WALRUS_CHECK_GE(k, 1);
  const DiskRStarMetrics& metrics = DiskRStarMetrics::Get();
  metrics.knn_probes->Increment();
  std::vector<std::pair<uint64_t, double>> result;
  int64_t visited = 0;
  if (size_ > 0) {
    struct Item {
      double dist;
      bool is_entry;
      uint64_t value;  // payload (entry) or node index (node)
      bool operator>(const Item& other) const { return dist > other.dist; }
    };
    const simd::KernelTable& kern = simd::Active();
    std::vector<double> dists;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    heap.push({0.0, false, 0});
    while (!heap.empty() && static_cast<int>(result.size()) < k) {
      Item item = heap.top();
      heap.pop();
      if (item.is_entry) {
        result.emplace_back(item.value, std::sqrt(item.dist));
        continue;
      }
      const Node& node = nodes_[item.value];
      ++visited;
      // SoA node: one batch kernel call scores every entry (bit-identical
      // to per-entry MinSquaredDistance -- each lane runs the scalar dim
      // loop).
      dists.resize(node.count);
      kern.batch_min_squared_distance(lo_block(node), hi_block(node),
                                      node.count, dim_, node.count,
                                      point.data(), dists.data());
      for (int i = 0; i < node.count; ++i) {
        heap.push({dists[i], node.is_leaf, values_[node.entry + i]});
      }
    }
  }
  pages_read_->fetch_add(visited, std::memory_order_relaxed);
  metrics.pages_read->Increment(static_cast<uint64_t>(visited));
  if (nodes_visited != nullptr) *nodes_visited = visited;
  return result;
}

}  // namespace walrus
