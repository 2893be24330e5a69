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
  const int64_t body =
      static_cast<int64_t>(page_size) -
      static_cast<int64_t>(kNodeHeaderBytes + PageFile::kChecksumBytes);
  return static_cast<int>(body / static_cast<int64_t>(EntryBytes(dim)));
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

/// Sort-Tile-Recursive leaf order of `entries` (the recursive tiling of
/// RStarTree::BulkLoad, specialized to produce a flat order): consecutive
/// runs of `capacity` entries become the leaves.
std::vector<uint32_t> StrOrder(
    const std::vector<std::pair<Rect, uint64_t>>& entries, int dim,
    int capacity) {
  std::vector<uint32_t> order(entries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
  // Sorts run on (center, index) pairs gathered from one dense center
  // matrix, so they never chase the rects' heap planes; the index breaks
  // ties, so the order is a function of the entries alone.
  std::vector<float> centers(entries.size() * dim);
  for (size_t i = 0; i < entries.size(); ++i) {
    for (int d = 0; d < dim; ++d) {
      centers[i * dim + d] = entries[i].first.lo(d) + entries[i].first.hi(d);
    }
  }
  std::vector<std::pair<float, uint32_t>> keyed;
  std::function<void(size_t, size_t, int)> tile = [&](size_t begin,
                                                      size_t end,
                                                      int dim_index) {
    const size_t n = end - begin;
    if (n <= static_cast<size_t>(capacity)) return;
    keyed.clear();
    for (size_t i = begin; i < end; ++i) {
      keyed.emplace_back(centers[order[i] * static_cast<size_t>(dim) +
                                 dim_index],
                         order[i]);
    }
    std::sort(keyed.begin(), keyed.end());
    for (size_t i = 0; i < n; ++i) order[begin + i] = keyed[i].second;
    const size_t num_groups = (n + capacity - 1) / capacity;
    size_t slabs = static_cast<size_t>(std::ceil(
        std::pow(static_cast<double>(num_groups),
                 1.0 / static_cast<double>(std::max(1, dim - dim_index)))));
    slabs = std::max<size_t>(1, std::min(slabs, num_groups));
    if (dim_index + 1 >= dim || slabs <= 1) return;  // sorted run is enough
    const size_t base = n / slabs;
    const size_t extra = n % slabs;
    size_t at = begin;
    for (size_t s = 0; s < slabs; ++s) {
      const size_t size = base + (s < extra ? 1 : 0);
      tile(at, at + size, dim_index + 1);
      at += size;
    }
  };
  tile(0, entries.size(), 0);
  return order;
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

DiskRStarTree::Node DiskRStarTree::AppendNode(bool is_leaf, int count) {
  Node node;
  node.entry = static_cast<uint32_t>(values_.size());
  node.count = static_cast<uint16_t>(count);
  node.is_leaf = is_leaf;
  values_.resize(values_.size() + count);
  lo_.resize(lo_.size() + static_cast<size_t>(dim_) * count);
  hi_.resize(hi_.size() + static_cast<size_t>(dim_) * count);
  nodes_.push_back(node);
  return node;
}

void DiskRStarTree::SetEntry(const Node& node, int i, const float* lo,
                             const float* hi, uint64_t value) {
  // Bound d of entry i lands at plane d, slot i.
  float* plo = lo_.data() + static_cast<size_t>(node.entry) * dim_ + i;
  float* phi = hi_.data() + static_cast<size_t>(node.entry) * dim_ + i;
  for (int d = 0; d < dim_; ++d) {
    plo[static_cast<size_t>(d) * node.count] = lo[d];
    phi[static_cast<size_t>(d) * node.count] = hi[d];
  }
  values_[node.entry + i] = value;
}

Result<DiskRStarTree> DiskRStarTree::Build(
    int dim, std::vector<std::pair<Rect, uint64_t>> entries,
    uint32_t page_size) {
  if (dim < 1) return Status::InvalidArgument("disk rstar: dim must be >= 1");
  const size_t capacity =
      static_cast<size_t>(std::max(0, CapacityFor(page_size, dim)));
  if (capacity < 2 || capacity > std::numeric_limits<uint16_t>::max()) {
    return Status::InvalidArgument("disk rstar: page size " +
                                   std::to_string(page_size) +
                                   " does not fit dimension " +
                                   std::to_string(dim));
  }
  for (const auto& [rect, payload] : entries) {
    // Refuse what Open would: empty, inverted or NaN bounds.
    bool ok = rect.dim() == dim && !rect.IsEmpty();
    for (int d = 0; d < dim && ok; ++d) ok = rect.lo(d) <= rect.hi(d);
    if (!ok) {
      return Status::InvalidArgument("disk rstar: bad entry rect, payload " +
                                     std::to_string(payload));
    }
  }
  DiskRStarTree tree;
  tree.page_size_ = page_size;
  tree.dim_ = dim;
  tree.size_ = static_cast<int64_t>(entries.size());
  if (entries.empty()) return tree;

  // Group bottom up. groups[k] lists level k's members in node order --
  // entry indices at the leaves, node indices of level k - 1 above -- so
  // node j of level k holds groups[k][j * capacity, (j + 1) * capacity).
  // Each level above the leaves orders the nodes below by the dim-0
  // center of their bounds; span holds those dim-0 bounds.
  std::vector<std::vector<uint32_t>> groups = {
      StrOrder(entries, dim, static_cast<int>(capacity))};
  std::vector<std::pair<float, float>> span;
  for (const auto& [rect, payload] : entries) {
    span.emplace_back(rect.lo(0), rect.hi(0));
  }
  size_t total_entries = entries.size();  // plus one per non-root node
  while (groups.back().size() > capacity) {
    const std::vector<uint32_t>& members = groups.back();
    const size_t nodes = (members.size() + capacity - 1) / capacity;
    std::vector<std::pair<float, float>> node_span(
        nodes, {std::numeric_limits<float>::max(),
                std::numeric_limits<float>::lowest()});
    for (size_t m = 0; m < members.size(); ++m) {
      auto& [lo, hi] = node_span[m / capacity];
      lo = std::min(lo, span[members[m]].first);
      hi = std::max(hi, span[members[m]].second);
    }
    std::vector<uint32_t> order(nodes);
    for (size_t i = 0; i < nodes; ++i) order[i] = static_cast<uint32_t>(i);
    std::sort(order.begin(), order.end(),
              [&node_span](uint32_t a, uint32_t b) {
                return node_span[a].first + node_span[a].second <
                       node_span[b].first + node_span[b].second;
              });
    groups.push_back(std::move(order));
    span = std::move(node_span);
    total_entries += nodes;
  }
  tree.height_ = static_cast<int>(groups.size());

  // Lay the nodes out breadth first from the root, as Open decodes them:
  // queue[n] = (level, node within the level) of arena node n. Reserved so
  // the planes never reallocate (and transiently double) while packing.
  tree.lo_.reserve(total_entries * dim);
  tree.hi_.reserve(total_entries * dim);
  tree.values_.reserve(total_entries);
  std::vector<std::pair<int, uint32_t>> queue = {{tree.height_ - 1, 0}};
  for (size_t n = 0; n < queue.size(); ++n) {
    const auto [level, j] = queue[n];
    const std::vector<uint32_t>& members = groups[level];
    const size_t begin = j * capacity;
    const size_t end = std::min(members.size(), begin + capacity);
    const Node node =
        tree.AppendNode(level == 0, static_cast<int>(end - begin));
    for (size_t m = begin; m < end; ++m) {
      const int i = static_cast<int>(m - begin);
      if (level == 0) {
        const auto& [rect, payload] = entries[members[m]];
        tree.SetEntry(node, i, rect.lo().data(), rect.hi().data(), payload);
      } else {
        tree.values_[node.entry + i] = queue.size();  // rect filled below
        queue.emplace_back(level - 1, members[m]);
      }
    }
  }
  // Internal rects children first (the arena is in level order): each is
  // the union of its child's entries, the invariant Validate checks.
  std::vector<float> lo(dim);
  std::vector<float> hi(dim);
  for (size_t n = tree.nodes_.size(); n-- > 0;) {
    const Node node = tree.nodes_[n];
    if (node.is_leaf) continue;
    for (int i = 0; i < node.count; ++i) {
      const uint64_t child = tree.values_[node.entry + i];
      tree.ChildBounds(child, lo.data(), hi.data());
      tree.SetEntry(node, i, lo.data(), hi.data(), child);
    }
  }
  return tree;
}

void DiskRStarTree::ChildBounds(uint64_t child_index, float* lo,
                                float* hi) const {
  const Node& child = nodes_[child_index];
  for (int d = 0; d < dim_; ++d) {
    const float* plo = lo_block(child) + static_cast<size_t>(d) * child.count;
    const float* phi = hi_block(child) + static_cast<size_t>(d) * child.count;
    lo[d] = *std::min_element(plo, plo + child.count);
    hi[d] = *std::max_element(phi, phi + child.count);
  }
}

Status DiskRStarTree::Save(const std::string& path) const {
  WALRUS_ASSIGN_OR_RETURN(PageFile file, PageFile::Create(path, page_size_));
  // Node n goes to page N - n: leaves first, the root last, so every child
  // page id is known when its parent is written.
  const uint64_t node_count = nodes_.size();
  for (size_t n = nodes_.size(); n-- > 0;) {
    const Node& node = nodes_[n];
    BinaryWriter page;
    page.PutU8(node.is_leaf ? 1 : 0);
    page.PutU8(0);
    page.PutU16(node.count);
    page.PutU32(0);
    for (int i = 0; i < node.count; ++i) {
      for (const float* plane : {lo_block(node), hi_block(node)}) {
        for (int d = 0; d < dim_; ++d) {
          page.PutFloat(plane[static_cast<size_t>(d) * node.count + i]);
        }
      }
      const uint64_t value = values_[node.entry + i];
      page.PutU64(node.is_leaf ? value : node_count - value);
    }
    std::vector<uint8_t> bytes = page.buffer();
    bytes.resize(page_size_);
    WALRUS_ASSIGN_OR_RETURN(uint32_t page_id, file.AllocatePage());
    WALRUS_DCHECK_EQ(page_id, node_count - n);
    WALRUS_RETURN_IF_ERROR(file.WritePage(page_id, bytes));
  }

  // Metadata blob last (its head page = page_count - 1, like the catalog).
  BinaryWriter meta;
  meta.PutU32(kMetaMagic);
  meta.PutU32(static_cast<uint32_t>(dim_));
  meta.PutU64(static_cast<uint64_t>(size_));
  meta.PutU32(static_cast<uint32_t>(height_));
  meta.PutU32(static_cast<uint32_t>(node_count));  // the root's page, or 0
  WALRUS_ASSIGN_OR_RETURN(BlobRef meta_ref, file.WriteBlob(meta.buffer()));
  (void)meta_ref;
  return file.Sync();
}

bool DiskRStarTree::SameArena(const DiskRStarTree& other) const {
  const auto same_bits = [](float a, float b) {
    return std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b);
  };
  return page_size_ == other.page_size_ && dim_ == other.dim_ &&
         size_ == other.size_ && height_ == other.height_ &&
         nodes_ == other.nodes_ && values_ == other.values_ &&
         std::equal(lo_.begin(), lo_.end(), other.lo_.begin(),
                    other.lo_.end(), same_bits) &&
         std::equal(hi_.begin(), hi_.end(), other.hi_.begin(),
                    other.hi_.end(), same_bits);
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
  std::vector<float> lo(dim_);
  std::vector<float> hi(dim_);
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
    const bool is_leaf = page[0] != 0;
    const int count = static_cast<int>(GetLeAt(page, 2, 2));
    if (count == 0 || count > capacity) {
      return Status::Corruption("disk rstar: page " + std::to_string(pages[n]) +
                                " holds " + std::to_string(count) +
                                " entries, capacity " +
                                std::to_string(capacity));
    }
    if (is_leaf != (depth == height_)) {
      return Status::Corruption(
          "disk rstar: " + std::string(is_leaf ? "leaf" : "internal") +
          " node at depth " + std::to_string(depth) + ", tree height " +
          std::to_string(height_));
    }
    if (values_.size() + count > std::numeric_limits<uint32_t>::max()) {
      return Status::Corruption("disk rstar: too many entries");
    }
    const Node node = AppendNode(is_leaf, count);
    for (int i = 0; i < count; ++i) {
      const size_t at = kNodeHeaderBytes + i * entry_bytes;
      for (int d = 0; d < dim_; ++d) {
        lo[d] = GetF32At(page, at + 4 * d);
        hi[d] = GetF32At(page, at + 4 * (dim_ + d));
        if (!(lo[d] <= hi[d])) {
          return Status::Corruption("disk rstar: inverted rect at page " +
                                    std::to_string(pages[n]));
        }
      }
      uint64_t value = GetLeAt(page, at + 8 * dim_, 8);
      if (!is_leaf) {
        const uint64_t child = pages.size();  // the child's node index
        WALRUS_RETURN_IF_ERROR(push_page(value));
        value = child;
      }
      SetEntry(node, i, lo.data(), hi.data(), value);
    }
    if (is_leaf) leaf_entries += count;
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
      ChildBounds(child_index, lo.data(), hi.data());
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
      /// Min-heap order of RStarTree::NearestNeighbors: distance first; at
      /// equal distance nodes pop before entries (an unexpanded node may
      /// still hold an equal-distance entry with a smaller payload), and
      /// tied entries pop by payload.
      bool operator>(const Item& other) const {
        if (dist != other.dist) return dist > other.dist;
        if (is_entry != other.is_entry) return is_entry;
        return is_entry && value > other.value;
      }
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
