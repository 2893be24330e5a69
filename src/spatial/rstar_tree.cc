#include "spatial/rstar_tree.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <queue>

#include "common/check.h"
#include "common/metrics.h"
#include "common/simd.h"
#include "spatial/hilbert.h"

namespace walrus {

struct RStarTree::Entry {
  Rect rect;
  uint64_t payload = 0;          // meaningful in leaves
  std::unique_ptr<Node> child;   // non-null in internal nodes
};

struct RStarTree::Node {
  int level = 0;  // 0 = leaf
  Node* parent = nullptr;
  std::vector<Entry> entries;

  bool is_leaf() const { return level == 0; }

  Rect ComputeBoundingRect(int dim) const {
    Rect r = Rect::Empty(dim);
    for (const Entry& e : entries) r.ExpandToInclude(e.rect);
    return r;
  }
};

RStarTree::RStarTree(int dim, RStarParams params)
    : dim_(dim), params_(params), root_(std::make_unique<Node>()) {
  WALRUS_CHECK_GE(dim, 1);
  WALRUS_CHECK_GE(params.max_entries, 4);
  WALRUS_CHECK(params.reinsert_fraction > 0.0 &&
               params.reinsert_fraction < 0.5);
}

RStarTree::RStarTree(RStarTree&& other) noexcept
    : dim_(other.dim_),
      params_(other.params_),
      size_(other.size_),
      root_(std::move(other.root_)),
      last_nodes_visited_(
          other.last_nodes_visited_.load(std::memory_order_relaxed)),
      reinserted_at_level_(std::move(other.reinserted_at_level_)) {}

RStarTree& RStarTree::operator=(RStarTree&& other) noexcept {
  if (this != &other) {
    dim_ = other.dim_;
    params_ = other.params_;
    size_ = other.size_;
    root_ = std::move(other.root_);
    last_nodes_visited_.store(
        other.last_nodes_visited_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    reinserted_at_level_ = std::move(other.reinserted_at_level_);
  }
  return *this;
}

RStarTree::~RStarTree() = default;

int RStarTree::height() const { return root_->level + 1; }

namespace {

/// Minimum fill: 40% of M as in [BKSS90].
int MinEntries(int max_entries) { return std::max(2, (max_entries * 2) / 5); }

double CenterSquaredDistance(const Rect& a, const Rect& b) {
  double sum = 0.0;
  for (int i = 0; i < a.dim(); ++i) {
    double ca = 0.5 * (static_cast<double>(a.lo(i)) + a.hi(i));
    double cb = 0.5 * (static_cast<double>(b.lo(i)) + b.hi(i));
    sum += (ca - cb) * (ca - cb);
  }
  return sum;
}

}  // namespace

RStarTree::Node* RStarTree::ChooseSubtree(Node* node, const Rect& rect,
                                          int target_level,
                                          int current_level) {
  while (current_level > target_level) {
    WALRUS_DCHECK(!node->is_leaf());
    size_t best = 0;
    if (node->level == 1) {
      // Children are leaves: minimize overlap enlargement (R* heuristic).
      double best_overlap_delta = std::numeric_limits<double>::infinity();
      double best_enlargement = std::numeric_limits<double>::infinity();
      double best_area = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < node->entries.size(); ++i) {
        Rect enlarged = Rect::Union(node->entries[i].rect, rect);
        double overlap_before = 0.0;
        double overlap_after = 0.0;
        for (size_t j = 0; j < node->entries.size(); ++j) {
          if (j == i) continue;
          overlap_before +=
              node->entries[i].rect.OverlapArea(node->entries[j].rect);
          overlap_after += enlarged.OverlapArea(node->entries[j].rect);
        }
        double overlap_delta = overlap_after - overlap_before;
        double enlargement = node->entries[i].rect.Enlargement(rect);
        double area = node->entries[i].rect.Area();
        if (overlap_delta < best_overlap_delta ||
            (overlap_delta == best_overlap_delta &&
             (enlargement < best_enlargement ||
              (enlargement == best_enlargement && area < best_area)))) {
          best_overlap_delta = overlap_delta;
          best_enlargement = enlargement;
          best_area = area;
          best = i;
        }
      }
    } else {
      // Minimize area enlargement, ties by smaller area.
      double best_enlargement = std::numeric_limits<double>::infinity();
      double best_area = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < node->entries.size(); ++i) {
        double enlargement = node->entries[i].rect.Enlargement(rect);
        double area = node->entries[i].rect.Area();
        if (enlargement < best_enlargement ||
            (enlargement == best_enlargement && area < best_area)) {
          best_enlargement = enlargement;
          best_area = area;
          best = i;
        }
      }
    }
    node->entries[best].rect.ExpandToInclude(rect);
    node = node->entries[best].child.get();
    current_level = node->level;
  }
  return node;
}

void RStarTree::Insert(const Rect& rect, uint64_t payload) {
  WALRUS_CHECK_EQ(rect.dim(), dim_);
  WALRUS_CHECK(!rect.IsEmpty());
  reinserted_at_level_.assign(root_->level + 2, false);
  Entry entry;
  entry.rect = rect;
  entry.payload = payload;
  InsertAtLevel(std::move(entry), /*target_level=*/0);
  ++size_;
}

void RStarTree::InsertAtLevel(Entry entry, int target_level) {
  Node* node = ChooseSubtree(root_.get(), entry.rect, target_level,
                             root_->level);
  WALRUS_DCHECK_EQ(node->level, target_level);
  if (entry.child != nullptr) entry.child->parent = node;
  node->entries.push_back(std::move(entry));
  if (static_cast<int>(node->entries.size()) > params_.max_entries) {
    OverflowTreatment(node, target_level, &reinserted_at_level_);
  } else {
    AdjustUpward(node);
  }
}

void RStarTree::OverflowTreatment(Node* node, int level,
                                  std::vector<bool>* reinserted_at_level) {
  if (params_.use_forced_reinsert && node != root_.get() &&
      level < static_cast<int>(reinserted_at_level->size()) &&
      !(*reinserted_at_level)[level]) {
    (*reinserted_at_level)[level] = true;
    // Forced reinsert: remove the p entries whose centers are farthest from
    // the node's bounding-rect center, then reinsert them (closest first).
    int p = std::max(
        1, static_cast<int>(params_.reinsert_fraction * node->entries.size()));
    Rect bounds = node->ComputeBoundingRect(dim_);
    std::vector<std::pair<double, size_t>> by_distance;
    by_distance.reserve(node->entries.size());
    for (size_t i = 0; i < node->entries.size(); ++i) {
      by_distance.emplace_back(
          CenterSquaredDistance(node->entries[i].rect, bounds), i);
    }
    std::sort(by_distance.begin(), by_distance.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    std::vector<Entry> removed;
    removed.reserve(p);
    std::vector<bool> remove_flag(node->entries.size(), false);
    for (int i = 0; i < p; ++i) remove_flag[by_distance[i].second] = true;
    std::vector<Entry> kept;
    kept.reserve(node->entries.size() - p);
    for (size_t i = 0; i < node->entries.size(); ++i) {
      if (remove_flag[i]) {
        removed.push_back(std::move(node->entries[i]));
      } else {
        kept.push_back(std::move(node->entries[i]));
      }
    }
    node->entries = std::move(kept);
    AdjustUpward(node);
    // Close reinsert: nearest-removed first ([BKSS90] found this best).
    std::reverse(removed.begin(), removed.end());
    for (Entry& e : removed) {
      InsertAtLevel(std::move(e), level);
    }
    return;
  }
  SplitNode(node);
}

void RStarTree::SplitNode(Node* node) {
  std::vector<int> left_group;
  std::vector<int> right_group;
  ChooseSplitGroups(node, &left_group, &right_group);

  // Materialize the two groups.
  auto sibling = std::make_unique<Node>();
  sibling->level = node->level;
  std::vector<Entry> left_entries;
  left_entries.reserve(left_group.size());
  for (int i : left_group) {
    left_entries.push_back(std::move(node->entries[i]));
  }
  for (int i : right_group) {
    Entry& e = node->entries[i];
    if (e.child != nullptr) e.child->parent = sibling.get();
    sibling->entries.push_back(std::move(e));
  }
  node->entries = std::move(left_entries);

  if (node == root_.get()) {
    auto new_root = std::make_unique<Node>();
    new_root->level = node->level + 1;
    Entry left;
    left.rect = node->ComputeBoundingRect(dim_);
    left.child = std::move(root_);
    Entry right;
    right.rect = sibling->ComputeBoundingRect(dim_);
    right.child = std::move(sibling);
    left.child->parent = new_root.get();
    right.child->parent = new_root.get();
    new_root->entries.push_back(std::move(left));
    new_root->entries.push_back(std::move(right));
    root_ = std::move(new_root);
    return;
  }

  Node* parent = node->parent;
  // Refresh the split node's rect in its parent.
  for (Entry& e : parent->entries) {
    if (e.child.get() == node) {
      e.rect = node->ComputeBoundingRect(dim_);
      break;
    }
  }
  Entry sibling_entry;
  sibling_entry.rect = sibling->ComputeBoundingRect(dim_);
  sibling->parent = parent;
  sibling_entry.child = std::move(sibling);
  parent->entries.push_back(std::move(sibling_entry));
  AdjustUpward(parent);
  if (static_cast<int>(parent->entries.size()) > params_.max_entries) {
    OverflowTreatment(parent, parent->level, &reinserted_at_level_);
  }
}

void RStarTree::ChooseSplitGroups(const Node* node, std::vector<int>* left,
                                  std::vector<int>* right) const {
  if (params_.split_policy == SplitPolicy::kQuadratic) {
    QuadraticSplitGroups(node, left, right);
    return;
  }

  const int total = static_cast<int>(node->entries.size());
  const int min_fill = MinEntries(params_.max_entries);
  WALRUS_DCHECK_GE(total, 2 * min_fill);

  // R* split. Step 1: choose the split axis minimizing the summed margins
  // of all candidate distributions.
  int best_axis = 0;
  bool best_axis_by_hi = false;
  double best_margin_sum = std::numeric_limits<double>::infinity();
  std::vector<int> order(total);

  auto sort_order = [&](int axis, bool by_hi) {
    for (int i = 0; i < total; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const Rect& ra = node->entries[a].rect;
      const Rect& rb = node->entries[b].rect;
      float ka = by_hi ? ra.hi(axis) : ra.lo(axis);
      float kb = by_hi ? rb.hi(axis) : rb.lo(axis);
      if (ka != kb) return ka < kb;
      return (by_hi ? ra.lo(axis) : ra.hi(axis)) <
             (by_hi ? rb.lo(axis) : rb.hi(axis));
    });
  };

  auto evaluate_margins = [&]() {
    // Prefix/suffix bounding rects over the current `order`.
    std::vector<Rect> prefix(total), suffix(total);
    Rect acc = Rect::Empty(dim_);
    for (int i = 0; i < total; ++i) {
      acc.ExpandToInclude(node->entries[order[i]].rect);
      prefix[i] = acc;
    }
    acc = Rect::Empty(dim_);
    for (int i = total - 1; i >= 0; --i) {
      acc.ExpandToInclude(node->entries[order[i]].rect);
      suffix[i] = acc;
    }
    double margin_sum = 0.0;
    for (int k = min_fill; k <= total - min_fill; ++k) {
      margin_sum += prefix[k - 1].Margin() + suffix[k].Margin();
    }
    return margin_sum;
  };

  for (int axis = 0; axis < dim_; ++axis) {
    for (bool by_hi : {false, true}) {
      sort_order(axis, by_hi);
      double margin_sum = evaluate_margins();
      if (margin_sum < best_margin_sum) {
        best_margin_sum = margin_sum;
        best_axis = axis;
        best_axis_by_hi = by_hi;
      }
    }
  }

  // Step 2: along the chosen axis, pick the distribution with minimum
  // overlap (ties: minimum combined area).
  sort_order(best_axis, best_axis_by_hi);
  std::vector<Rect> prefix(total), suffix(total);
  Rect acc = Rect::Empty(dim_);
  for (int i = 0; i < total; ++i) {
    acc.ExpandToInclude(node->entries[order[i]].rect);
    prefix[i] = acc;
  }
  acc = Rect::Empty(dim_);
  for (int i = total - 1; i >= 0; --i) {
    acc.ExpandToInclude(node->entries[order[i]].rect);
    suffix[i] = acc;
  }
  int best_k = min_fill;
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (int k = min_fill; k <= total - min_fill; ++k) {
    double overlap = prefix[k - 1].OverlapArea(suffix[k]);
    double area = prefix[k - 1].Area() + suffix[k].Area();
    if (overlap < best_overlap ||
        (overlap == best_overlap && area < best_area)) {
      best_overlap = overlap;
      best_area = area;
      best_k = k;
    }
  }

  left->assign(order.begin(), order.begin() + best_k);
  right->assign(order.begin() + best_k, order.end());
}

void RStarTree::QuadraticSplitGroups(const Node* node, std::vector<int>* left,
                                     std::vector<int>* right) const {
  // Guttman's quadratic split: seed with the pair wasting the most area,
  // then repeatedly place the entry with the largest preference difference
  // into its preferred group, respecting the minimum fill.
  const int total = static_cast<int>(node->entries.size());
  const int min_fill = MinEntries(params_.max_entries);
  left->clear();
  right->clear();

  int seed_a = 0;
  int seed_b = 1;
  double worst_waste = -std::numeric_limits<double>::infinity();
  for (int i = 0; i < total; ++i) {
    for (int j = i + 1; j < total; ++j) {
      Rect combined =
          Rect::Union(node->entries[i].rect, node->entries[j].rect);
      double waste = combined.Area() - node->entries[i].rect.Area() -
                     node->entries[j].rect.Area();
      if (waste > worst_waste) {
        worst_waste = waste;
        seed_a = i;
        seed_b = j;
      }
    }
  }

  Rect left_rect = node->entries[seed_a].rect;
  Rect right_rect = node->entries[seed_b].rect;
  left->push_back(seed_a);
  right->push_back(seed_b);
  std::vector<bool> placed(total, false);
  placed[seed_a] = true;
  placed[seed_b] = true;
  int remaining = total - 2;

  while (remaining > 0) {
    // Forced placement when one group must absorb everything left to reach
    // the minimum fill.
    if (static_cast<int>(left->size()) + remaining == min_fill) {
      for (int i = 0; i < total; ++i) {
        if (!placed[i]) {
          left->push_back(i);
          placed[i] = true;
        }
      }
      break;
    }
    if (static_cast<int>(right->size()) + remaining == min_fill) {
      for (int i = 0; i < total; ++i) {
        if (!placed[i]) {
          right->push_back(i);
          placed[i] = true;
        }
      }
      break;
    }

    // PickNext: maximize |enlargement(left) - enlargement(right)|.
    int best = -1;
    double best_diff = -1.0;
    double best_dl = 0.0;
    double best_dr = 0.0;
    for (int i = 0; i < total; ++i) {
      if (placed[i]) continue;
      double dl = left_rect.Enlargement(node->entries[i].rect);
      double dr = right_rect.Enlargement(node->entries[i].rect);
      double diff = std::fabs(dl - dr);
      if (diff > best_diff) {
        best_diff = diff;
        best = i;
        best_dl = dl;
        best_dr = dr;
      }
    }
    WALRUS_DCHECK_GE(best, 0);
    bool to_left;
    if (best_dl != best_dr) {
      to_left = best_dl < best_dr;
    } else if (left_rect.Area() != right_rect.Area()) {
      to_left = left_rect.Area() < right_rect.Area();
    } else {
      to_left = left->size() <= right->size();
    }
    if (to_left) {
      left->push_back(best);
      left_rect.ExpandToInclude(node->entries[best].rect);
    } else {
      right->push_back(best);
      right_rect.ExpandToInclude(node->entries[best].rect);
    }
    placed[best] = true;
    --remaining;
  }
}

void RStarTree::AdjustUpward(Node* node) {
  while (node->parent != nullptr) {
    Node* parent = node->parent;
    for (Entry& e : parent->entries) {
      if (e.child.get() == node) {
        e.rect = node->ComputeBoundingRect(dim_);
        break;
      }
    }
    node = parent;
  }
}

Status RStarTree::Delete(const Rect& rect, uint64_t payload) {
  WALRUS_CHECK_EQ(rect.dim(), dim_);
  // FindLeaf: depth-first through nodes whose rects contain `rect`.
  Node* leaf = nullptr;
  size_t entry_index = 0;
  std::vector<Node*> stack = {root_.get()};
  while (!stack.empty() && leaf == nullptr) {
    Node* node = stack.back();
    stack.pop_back();
    for (size_t i = 0; i < node->entries.size(); ++i) {
      Entry& e = node->entries[i];
      if (node->is_leaf()) {
        if (e.payload == payload && e.rect == rect) {
          leaf = node;
          entry_index = i;
          break;
        }
      } else if (e.rect.ContainsRect(rect) ||
                 (rect.Area() == 0.0 && e.rect.Intersects(rect))) {
        stack.push_back(e.child.get());
      }
    }
  }
  if (leaf == nullptr) {
    return Status::NotFound("rstar: entry not found for payload " +
                            std::to_string(payload));
  }
  leaf->entries.erase(leaf->entries.begin() + entry_index);
  --size_;
  CondenseTree(leaf);
  return Status::OK();
}

int64_t RStarTree::DeleteIf(const std::function<bool(uint64_t)>& predicate) {
  // Collect matching (rect, payload) pairs first, then delete one by one so
  // CondenseTree keeps the structure valid throughout.
  std::vector<std::pair<Rect, uint64_t>> doomed;
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    for (const Entry& e : node->entries) {
      if (node->is_leaf()) {
        if (predicate(e.payload)) doomed.emplace_back(e.rect, e.payload);
      } else {
        stack.push_back(e.child.get());
      }
    }
  }
  for (const auto& [rect, payload] : doomed) {
    Status status = Delete(rect, payload);
    WALRUS_DCHECK(status.ok()) << status;
  }
  return static_cast<int64_t>(doomed.size());
}

void RStarTree::CondenseTree(Node* leaf) {
  const int min_fill = MinEntries(params_.max_entries);
  std::vector<std::unique_ptr<Node>> orphans;

  Node* node = leaf;
  while (node != root_.get()) {
    Node* parent = node->parent;
    if (static_cast<int>(node->entries.size()) < min_fill) {
      // Detach the underfull node from its parent and queue its entries
      // for re-insertion.
      for (size_t i = 0; i < parent->entries.size(); ++i) {
        if (parent->entries[i].child.get() == node) {
          orphans.push_back(std::move(parent->entries[i].child));
          parent->entries.erase(parent->entries.begin() + i);
          break;
        }
      }
    } else {
      // Tighten this node's rect in the parent.
      for (Entry& e : parent->entries) {
        if (e.child.get() == node) {
          e.rect = node->ComputeBoundingRect(dim_);
          break;
        }
      }
    }
    node = parent;
  }

  // Shrink the root: an internal root with one child gets replaced by it.
  while (!root_->is_leaf() && root_->entries.size() == 1) {
    std::unique_ptr<Node> child = std::move(root_->entries[0].child);
    child->parent = nullptr;
    root_ = std::move(child);
  }
  if (!root_->is_leaf() && root_->entries.empty()) {
    // All children dissolved: reset to an empty leaf.
    root_ = std::make_unique<Node>();
  }

  // Re-insert orphaned subtrees' entries at their original levels (leaf
  // data re-enters at level 0; internal entries keep their subtree level).
  for (std::unique_ptr<Node>& orphan : orphans) {
    if (orphan->is_leaf()) {
      for (Entry& e : orphan->entries) {
        reinserted_at_level_.assign(root_->level + 2, false);
        InsertAtLevel(std::move(e), 0);
      }
    } else {
      for (Entry& e : orphan->entries) {
        reinserted_at_level_.assign(root_->level + 2, false);
        // Entries of a level-L node re-enter at level L (their children
        // stay at L-1).
        int target = orphan->level;
        if (target > root_->level) {
          // The tree shrank below this subtree's height: dismantle the
          // subtree down to data entries and re-insert those.
          std::vector<std::unique_ptr<Node>> sub;
          sub.push_back(std::move(e.child));
          while (!sub.empty()) {
            std::unique_ptr<Node> n = std::move(sub.back());
            sub.pop_back();
            for (Entry& se : n->entries) {
              if (n->is_leaf()) {
                reinserted_at_level_.assign(root_->level + 2, false);
                InsertAtLevel(std::move(se), 0);
              } else {
                sub.push_back(std::move(se.child));
              }
            }
          }
        } else {
          InsertAtLevel(std::move(e), target);
        }
      }
    }
  }
}

int64_t RStarTree::RangeSearchVisit(
    const Rect& query,
    const std::function<bool(const Rect&, uint64_t)>& visitor) const {
  WALRUS_CHECK_EQ(query.dim(), dim_);
  return Traverse({query}, [&visitor](int, const Rect& rect,
                                      uint64_t payload) {
    return visitor(rect, payload);
  });
}

int64_t RStarTree::RangeQueryBatch(
    const std::vector<Rect>& probes,
    const std::function<bool(int, const Rect&, uint64_t)>& visitor) const {
  static Counter* const batch_probes =
      MetricsRegistry::Global().GetCounter("walrus.rstar.batch_probes");
  batch_probes->Increment();
  return Traverse(probes, visitor);
}

int64_t RStarTree::Traverse(
    const std::vector<Rect>& probes,
    const std::function<bool(int, const Rect&, uint64_t)>& visitor) const {
  static Counter* const range_probes =
      MetricsRegistry::Global().GetCounter("walrus.rstar.range_probes");
  static Counter* const nodes =
      MetricsRegistry::Global().GetCounter("walrus.rstar.nodes_visited");
  static Histogram* const occupancy =
      MetricsRegistry::Global().GetHistogram("walrus.probe.batch_occupancy",
                                             ExponentialBuckets(1, 2, 12));
  // A batch of N probes answers N range probes; keep the per-probe counter
  // meaningful regardless of traversal strategy.
  range_probes->Increment(static_cast<uint64_t>(probes.size()));

  // Probe visit order: Hilbert on the first two center dimensions, so that
  // probes adjacent in signature space stay adjacent in active sets.
  std::vector<int> order = HilbertProbeOrder(probes, dim_);
  if (order.empty()) return 0;

  const simd::KernelTable& kern = simd::Active();
  // Active sets live in one append-only arena; each frame references a
  // slice of it. Child slices are appended in place of per-frame vector
  // allocations, and a frame whose active set did not split (single probe)
  // reuses its parent's slice outright.
  struct Frame {
    const Node* node;
    uint32_t begin;  // arena offset of this frame's active probe indices
    uint32_t len;
  };
  std::vector<int> arena = std::move(order);
  std::vector<Frame> stack;
  stack.push_back({root_.get(), 0, static_cast<uint32_t>(arena.size())});

  // Call-local scratch (concurrent readers share no traversal state).
  std::vector<float> scratch_lo;
  std::vector<float> scratch_hi;
  std::vector<uint64_t> masks;  // probe-major: masks[pi * words + w]
  std::vector<Frame> pending;   // children of the current node, entry order
  int64_t visited = 0;
  const auto finish = [&] {
    last_nodes_visited_.store(visited, std::memory_order_relaxed);
    nodes->Increment(static_cast<uint64_t>(visited));
    return visited;
  };

  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    const Node* node = frame.node;
    ++visited;
    occupancy->Observe(static_cast<double>(frame.len));
    const int m = static_cast<int>(node->entries.size());
    if (m == 0) continue;

    if (frame.len == 1) {
      // Single active probe: a per-entry test beats packing the node into
      // SoA scratch (the pack would be read exactly once).
      const int p = arena[frame.begin];
      const Rect& probe = probes[p];
      if (node->is_leaf()) {
        for (const Entry& ent : node->entries) {
          if (kern.rect_intersects(ent.rect.lo().data(),
                                   ent.rect.hi().data(), probe.lo().data(),
                                   probe.hi().data(), dim_)) {
            if (!visitor(p, ent.rect, ent.payload)) {
              return finish();
            }
          }
        }
      } else {
        // Reverse entry order so the DFS pops children first-entry-first.
        for (int e = m - 1; e >= 0; --e) {
          const Entry& ent = node->entries[e];
          if (kern.rect_intersects(ent.rect.lo().data(),
                                   ent.rect.hi().data(), probe.lo().data(),
                                   probe.hi().data(), dim_)) {
            stack.push_back({ent.child.get(), frame.begin, 1});
          }
        }
      }
      continue;
    }

    // Pack this node's rects once; every active probe filters against the
    // same SoA block.
    scratch_lo.resize(static_cast<size_t>(dim_) * m);
    scratch_hi.resize(static_cast<size_t>(dim_) * m);
    for (int e = 0; e < m; ++e) {
      const Rect& r = node->entries[e].rect;
      for (int d = 0; d < dim_; ++d) {
        scratch_lo[static_cast<size_t>(d) * m + e] = r.lo(d);
        scratch_hi[static_cast<size_t>(d) * m + e] = r.hi(d);
      }
    }
    const int words = (m + 63) / 64;

    if (node->is_leaf()) {
      masks.resize(words);
      for (uint32_t pi = 0; pi < frame.len; ++pi) {
        const int p = arena[frame.begin + pi];
        kern.batch_intersects(scratch_lo.data(), scratch_hi.data(), m, dim_,
                              m, probes[p].lo().data(),
                              probes[p].hi().data(), masks.data());
        for (int w = 0; w < words; ++w) {
          uint64_t bits = masks[w];
          while (bits != 0) {
            const int e = w * 64 + std::countr_zero(bits);
            bits &= bits - 1;
            const Entry& ent = node->entries[e];
            if (!visitor(p, ent.rect, ent.payload)) {
              return finish();
            }
          }
        }
      }
    } else {
      masks.resize(static_cast<size_t>(words) * frame.len);
      for (uint32_t pi = 0; pi < frame.len; ++pi) {
        const int p = arena[frame.begin + pi];
        kern.batch_intersects(scratch_lo.data(), scratch_hi.data(), m, dim_,
                              m, probes[p].lo().data(),
                              probes[p].hi().data(),
                              masks.data() + static_cast<size_t>(pi) * words);
      }
      // Gather each child's active probes (probe order preserved) into
      // fresh arena slices, then push in reverse entry order so the DFS
      // pops children first-entry-first.
      pending.clear();
      for (int e = 0; e < m; ++e) {
        const uint32_t begin = static_cast<uint32_t>(arena.size());
        const int w = e >> 6;
        const uint64_t bit = uint64_t{1} << (e & 63);
        for (uint32_t pi = 0; pi < frame.len; ++pi) {
          if (masks[static_cast<size_t>(pi) * words + w] & bit) {
            arena.push_back(arena[frame.begin + pi]);
          }
        }
        const uint32_t len = static_cast<uint32_t>(arena.size()) - begin;
        if (len > 0) {
          pending.push_back({node->entries[e].child.get(), begin, len});
        }
      }
      for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
        stack.push_back(*it);
      }
    }
  }
  return finish();
}

std::vector<uint64_t> RStarTree::RangeSearch(const Rect& query) const {
  std::vector<uint64_t> out;
  RangeSearchVisit(query, [&out](const Rect&, uint64_t payload) {
    out.push_back(payload);
    return true;
  });
  return out;
}

std::vector<std::pair<uint64_t, double>> RStarTree::NearestNeighbors(
    const std::vector<float>& point, int k, int64_t* nodes_visited) const {
  WALRUS_CHECK_EQ(static_cast<int>(point.size()), dim_);
  WALRUS_CHECK_GE(k, 1);
  static Counter* const probes =
      MetricsRegistry::Global().GetCounter("walrus.rstar.knn_probes");
  static Counter* const nodes =
      MetricsRegistry::Global().GetCounter("walrus.rstar.nodes_visited");
  probes->Increment();
  int64_t visited = 0;

  struct QueueItem {
    double dist;
    const Node* node;    // non-null for subtree items
    const Entry* entry;  // non-null for leaf-entry items
    /// Min-heap order: distance first; at equal distance subtrees pop
    /// before leaf entries (an unexpanded subtree may still hold an
    /// equal-distance entry with a smaller payload), and tied entries pop
    /// by payload. This makes the neighbor list a function of the entry
    /// set alone, not of tree layout, so bulk-loaded and incrementally
    /// built trees return identical results even under distance ties.
    bool operator>(const QueueItem& other) const {
      if (dist != other.dist) return dist > other.dist;
      const bool leaf = entry != nullptr;
      const bool other_leaf = other.entry != nullptr;
      if (leaf != other_leaf) return leaf;
      if (leaf) return entry->payload > other.entry->payload;
      return false;
    }
  };
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>> heap;
  heap.push({0.0, root_.get(), nullptr});

  std::vector<std::pair<uint64_t, double>> result;
  while (!heap.empty() && static_cast<int>(result.size()) < k) {
    QueueItem item = heap.top();
    heap.pop();
    if (item.entry != nullptr) {
      result.emplace_back(item.entry->payload, std::sqrt(item.dist));
      continue;
    }
    ++visited;
    for (const Entry& e : item.node->entries) {
      double d = e.rect.MinSquaredDistance(point);
      if (item.node->is_leaf()) {
        heap.push({d, nullptr, &e});
      } else {
        heap.push({d, e.child.get(), nullptr});
      }
    }
  }
  last_nodes_visited_.store(visited, std::memory_order_relaxed);
  nodes->Increment(static_cast<uint64_t>(visited));
  if (nodes_visited != nullptr) *nodes_visited = visited;
  return result;
}

Status RStarTree::Validate() const {
  // Walk the tree iteratively; validate levels, fills and bounding rects.
  struct Item {
    const Node* node;
    const Rect* parent_rect;
  };
  std::vector<Item> stack = {{root_.get(), nullptr}};
  int min_fill = MinEntries(params_.max_entries);
  int64_t leaf_entries = 0;
  while (!stack.empty()) {
    Item item = stack.back();
    stack.pop_back();
    const Node* node = item.node;
    int count = static_cast<int>(node->entries.size());
    if (count > params_.max_entries) {
      return Status::Internal("node overflow: " + std::to_string(count));
    }
    if (node != root_.get() && count < min_fill) {
      return Status::Internal("node underflow: " + std::to_string(count));
    }
    if (node->level < 0) {
      return Status::Internal("negative node level");
    }
    if (item.parent_rect != nullptr) {
      Rect bounds = node->ComputeBoundingRect(dim_);
      if (!(*item.parent_rect == bounds)) {
        return Status::Internal("stale parent bounding rect");
      }
    }
    for (const Entry& e : node->entries) {
      if (e.rect.IsEmpty()) {
        return Status::Internal("empty entry rect");
      }
      if (e.rect.dim() != dim_) {
        return Status::Internal("entry rect dimension " +
                                std::to_string(e.rect.dim()) + " != tree " +
                                std::to_string(dim_));
      }
      if (item.parent_rect != nullptr &&
          !item.parent_rect->ContainsRect(e.rect)) {
        return Status::Internal("entry rect escapes parent MBR");
      }
      if (node->is_leaf()) {
        ++leaf_entries;
        if (e.child != nullptr) {
          return Status::Internal("leaf entry with child");
        }
      } else {
        if (e.child == nullptr) {
          return Status::Internal("internal entry without child");
        }
        if (e.child->level != node->level - 1) {
          return Status::Internal("level mismatch");
        }
        if (e.child->parent != node) {
          return Status::Internal("bad parent pointer");
        }
        stack.push_back({e.child.get(), &e.rect});
      }
    }
  }
  if (leaf_entries != size_) {
    return Status::Internal("size mismatch: counted " +
                            std::to_string(leaf_entries) + " expected " +
                            std::to_string(size_));
  }
  return Status::OK();
}

namespace {

/// Splits [0, n) into `groups` nearly equal consecutive chunk sizes.
std::vector<int> BalancedChunks(int n, int groups) {
  std::vector<int> sizes(groups, n / groups);
  for (int i = 0; i < n % groups; ++i) ++sizes[i];
  return sizes;
}

}  // namespace

RStarTree RStarTree::BulkLoad(int dim,
                              std::vector<std::pair<Rect, uint64_t>> entries,
                              RStarParams params) {
  RStarTree tree(dim, params);
  if (entries.empty()) return tree;
  const int capacity = params.max_entries;

  // STR tiling over index ranges: sort a range by the center of one
  // dimension, slice into balanced slabs, recurse on the next dimension;
  // the innermost dimension emits the leaf-sized groups.
  struct Range {
    int begin;
    int end;
  };
  std::vector<int> order(entries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);

  std::vector<Range> groups;
  std::function<void(int, int, int)> tile = [&](int begin, int end,
                                                int dim_index) {
    int n = end - begin;
    if (n <= capacity) {
      groups.push_back({begin, end});
      return;
    }
    std::sort(order.begin() + begin, order.begin() + end, [&](int a, int b) {
      const Rect& ra = entries[a].first;
      const Rect& rb = entries[b].first;
      float ca = ra.lo(dim_index) + ra.hi(dim_index);
      float cb = rb.lo(dim_index) + rb.hi(dim_index);
      return ca < cb;
    });
    int num_groups = (n + capacity - 1) / capacity;
    int next_dim = (dim_index + 1) % dim;
    if (dim_index + 1 >= dim || num_groups <= 1) {
      // Innermost dimension: emit balanced consecutive groups (balance
      // keeps every group at >= ~capacity/2, satisfying the 40% min fill).
      std::vector<int> sizes = BalancedChunks(n, num_groups);
      int at = begin;
      for (int size : sizes) {
        groups.push_back({at, at + size});
        at += size;
      }
      return;
    }
    // Slabs proportional to the remaining dimensions.
    int slabs = static_cast<int>(std::ceil(
        std::pow(static_cast<double>(num_groups),
                 1.0 / static_cast<double>(dim - dim_index))));
    slabs = std::max(1, std::min(slabs, num_groups));
    std::vector<int> sizes = BalancedChunks(n, slabs);
    int at = begin;
    for (int size : sizes) {
      tile(at, at + size, next_dim);
      at += size;
    }
  };
  tile(0, static_cast<int>(entries.size()), 0);

  // Build the leaf level.
  std::vector<std::unique_ptr<Node>> level;
  for (const Range& range : groups) {
    auto node = std::make_unique<Node>();
    node->level = 0;
    node->entries.reserve(range.end - range.begin);
    for (int i = range.begin; i < range.end; ++i) {
      Entry e;
      e.rect = entries[order[i]].first;
      e.payload = entries[order[i]].second;
      node->entries.push_back(std::move(e));
    }
    level.push_back(std::move(node));
  }

  // Pack upward until a single root remains. Upper levels reuse the same
  // STR tiling over the child bounding rects.
  int current_level = 0;
  while (level.size() > 1) {
    ++current_level;
    std::vector<std::pair<Rect, int>> child_rects;
    child_rects.reserve(level.size());
    for (size_t i = 0; i < level.size(); ++i) {
      child_rects.emplace_back(level[i]->ComputeBoundingRect(dim),
                               static_cast<int>(i));
    }
    std::vector<int> child_order(level.size());
    for (size_t i = 0; i < child_order.size(); ++i) {
      child_order[i] = static_cast<int>(i);
    }
    groups.clear();
    // Reuse `tile` machinery with a fresh order array: simplest is to sort
    // children by dim-0 center and chunk (one STR pass is enough for the
    // modest fan-in of upper levels).
    std::sort(child_order.begin(), child_order.end(), [&](int a, int b) {
      const Rect& ra = child_rects[a].first;
      const Rect& rb = child_rects[b].first;
      return ra.lo(0) + ra.hi(0) < rb.lo(0) + rb.hi(0);
    });
    int n = static_cast<int>(level.size());
    int num_groups = (n + capacity - 1) / capacity;
    std::vector<int> sizes = BalancedChunks(n, num_groups);
    std::vector<std::unique_ptr<Node>> next;
    int at = 0;
    for (int size : sizes) {
      auto node = std::make_unique<Node>();
      node->level = current_level;
      node->entries.reserve(size);
      for (int i = at; i < at + size; ++i) {
        Entry e;
        e.rect = child_rects[child_order[i]].first;
        e.child = std::move(level[child_order[i]]);
        e.child->parent = node.get();
        node->entries.push_back(std::move(e));
      }
      at += size;
      next.push_back(std::move(node));
    }
    level = std::move(next);
  }

  tree.root_ = std::move(level[0]);
  tree.root_->parent = nullptr;
  tree.size_ = static_cast<int64_t>(entries.size());
  return tree;
}

}  // namespace walrus
