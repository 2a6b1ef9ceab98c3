#include "rstar/rstar_tree.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <span>
#include <type_traits>

#include "storage/shared_buffer_pool.h"
#include "util/check.h"
#include "util/hilbert.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace stindex {

// A leaf or directory entry. The struct is also the on-page entry
// layout, so the padding is an explicit zeroed field: page bytes stay
// deterministic.
struct RStarTree::Entry {
  Box3D box;
  PageId child = kInvalidPage;  // internal nodes
  uint32_t reserved = 0;
  DataId data = 0;              // leaves
};

// The node page header, right after the envelope (little-endian).
// `level` 0 means leaf; internal entries point at children one level
// below.
struct RStarTree::Header {
  int32_t level;
  uint32_t count;
};

namespace {

template <typename Entries>
Box3D Mbr(const Entries& entries) {
  Box3D mbr = Box3D::Empty();
  for (const auto& entry : entries) mbr.ExpandToInclude(entry.box);
  return mbr;
}

}  // namespace

RStarTree::RStarTree(RStarConfig config)
    : config_(config),
      pages_("rstar", config.buffer_pages,
             NodePageCheck(PageKind::kRStarNode, "R*-tree",
                           config.max_entries)) {
  // The node page layout (Header and Entry above).
  static_assert(sizeof(Header) == 8 && offsetof(Header, count) == 4);
  static_assert(std::has_unique_object_representations_v<Header>);
  static_assert(kPageEnvelopeBytes + sizeof(Header) == kNodeEntryOffset &&
                kNodeEntryOffset % alignof(Entry) == 0);
  // Entry is the on-page layout. Box3D holds doubles, for which
  // has_unique_object_representations is false by definition, so
  // "no padding" is asserted as the sum of the member sizes instead.
  static_assert(sizeof(Entry) == kNodeEntryBytes &&
                offsetof(Entry, box) == 0 && offsetof(Entry, child) == 48 &&
                offsetof(Entry, reserved) == 52 && offsetof(Entry, data) == 56);
  static_assert(sizeof(Box3D) + sizeof(PageId) + sizeof(uint32_t) +
                    sizeof(DataId) ==
                sizeof(Entry));
  static_assert(std::is_trivially_copyable_v<Entry>);
  STINDEX_CHECK_MSG(config_.max_entries + 1 <= kNodePageCapacity,
                    "R*-tree fanout does not fit a node page");
  STINDEX_CHECK(config_.max_entries >= 4);
  STINDEX_CHECK(config_.min_entries >= 2);
  STINDEX_CHECK(config_.min_entries <= config_.max_entries / 2);
  STINDEX_CHECK(config_.reinsert_count >= 1);
  STINDEX_CHECK(config_.reinsert_count < config_.max_entries);
}

RStarTree::~RStarTree() {
  if (root_ != kInvalidPage) {
    MetricRegistry::Global().GetGauge("rstar.height")->SetMax(Height());
  }
}

RStarTree::Node RStarTree::GetNode(PageId id) const {
  return Node(&pages_.arena().MutablePage(id));
}

PageId RStarTree::NewNode(int level) {
  const PageId id = pages_.arena().Allocate();
  GetNode(id).header().level = level;
  return id;
}

Status RStarTree::PackSnapshot(const std::string& path) {
  Result<std::vector<PageId>> packed = pages_.Pack(
      path, [](Page* page, const std::vector<PageId>& remap) {
        for (Entry& entry : Node(page).entries()) {
          entry.child = remap[entry.child];
        }
      });
  if (!packed.ok()) return packed.status();
  if (root_ != kInvalidPage) root_ = packed.value()[root_];
  return Status::OK();
}

size_t RStarTree::Height() const {
  if (root_ == kInvalidPage) return 0;
  const std::unique_ptr<SharedBufferPool> pool = pages_.NewUnpublishedPool(1);
  SharedBufferPool::Session nodes(pool.get());
  const PageRef root = nodes.FetchPinned(root_);
  return static_cast<size_t>(NodeView(root.get()).level()) + 1;
}

namespace {

// Chunk boundaries for packing `total` entries into nodes of at most
// `capacity`, keeping every node at or above `min_fill` by rebalancing
// the final pair.
std::vector<size_t> PackChunkSizes(size_t total, size_t capacity,
                                   size_t min_fill) {
  std::vector<size_t> sizes;
  size_t remaining = total;
  while (remaining > 0) {
    if (remaining >= capacity + min_fill || remaining <= capacity) {
      const size_t take = std::min(remaining, capacity);
      sizes.push_back(take);
      remaining -= take;
    } else {
      // Splitting the tail evenly keeps both nodes >= min_fill.
      sizes.push_back(remaining / 2);
      sizes.push_back(remaining - remaining / 2);
      remaining = 0;
    }
  }
  return sizes;
}

}  // namespace

std::unique_ptr<RStarTree> RStarTree::BulkLoad(
    const std::vector<Box3D>& boxes, PackingMethod method,
    RStarConfig config) {
  auto tree = std::make_unique<RStarTree>(config);
  if (boxes.empty()) return tree;
  TraceSpan span("rstar", "bulk_load");
  span.Arg("boxes", static_cast<int64_t>(boxes.size()));

  // Order the items along the packing curve.
  std::vector<size_t> order(boxes.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  auto center = [&boxes](size_t i, int d) {
    return (boxes[i].lo[d] + boxes[i].hi[d]) / 2.0;
  };

  if (method == PackingMethod::kHilbert) {
    // Quantize centers to a 16-bit grid over the data bounding box.
    Box3D bounds = Box3D::Empty();
    for (const Box3D& box : boxes) bounds.ExpandToInclude(box);
    const int kBits = 16;
    const double cells = static_cast<double>((1 << kBits) - 1);
    std::vector<uint64_t> keys(boxes.size());
    for (size_t i = 0; i < boxes.size(); ++i) {
      uint32_t q[3];
      for (int d = 0; d < 3; ++d) {
        const double extent = bounds.Extent(d);
        const double normalized =
            extent > 0.0 ? (center(i, d) - bounds.lo[d]) / extent : 0.0;
        q[d] = static_cast<uint32_t>(normalized * cells);
      }
      keys[i] = HilbertIndex3D(q[0], q[1], q[2], kBits);
    }
    std::sort(order.begin(), order.end(),
              [&keys](size_t a, size_t b) { return keys[a] < keys[b]; });
  } else {
    // STR: x-slabs, then y-runs, then t within each run.
    const size_t leaf_count =
        (boxes.size() + config.max_entries - 1) / config.max_entries;
    const size_t slices = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(
               std::cbrt(static_cast<double>(leaf_count)))));
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return center(a, 0) < center(b, 0);
    });
    const size_t slab = (order.size() + slices - 1) / slices;
    for (size_t lo = 0; lo < order.size(); lo += slab) {
      const size_t hi = std::min(order.size(), lo + slab);
      std::sort(order.begin() + static_cast<long>(lo),
                order.begin() + static_cast<long>(hi),
                [&](size_t a, size_t b) { return center(a, 1) < center(b, 1); });
      const size_t run = (hi - lo + slices - 1) / slices;
      for (size_t rlo = lo; rlo < hi; rlo += run) {
        const size_t rhi = std::min(hi, rlo + run);
        std::sort(order.begin() + static_cast<long>(rlo),
                  order.begin() + static_cast<long>(rhi), [&](size_t a,
                                                              size_t b) {
                    return center(a, 2) < center(b, 2);
                  });
      }
    }
  }

  // Pack leaves, then upper levels, in curve order.
  struct Placed {
    Box3D mbr;
    PageId page;
  };
  std::vector<Placed> level_nodes;
  {
    size_t cursor = 0;
    for (size_t take :
         PackChunkSizes(order.size(), config.max_entries,
                        config.min_entries)) {
      const PageId id = tree->NewNode(0);
      Node node = tree->GetNode(id);
      Box3D mbr = Box3D::Empty();
      for (size_t i = 0; i < take; ++i, ++cursor) {
        Entry entry;
        entry.box = boxes[order[cursor]];
        entry.data = static_cast<DataId>(order[cursor]);
        mbr.ExpandToInclude(entry.box);
        node.Append(entry);
      }
      level_nodes.push_back(Placed{mbr, id});
    }
  }
  int level = 0;
  while (level_nodes.size() > 1) {
    ++level;
    std::vector<Placed> parents;
    size_t cursor = 0;
    for (size_t take :
         PackChunkSizes(level_nodes.size(), config.max_entries,
                        config.min_entries)) {
      const PageId id = tree->NewNode(level);
      Node node = tree->GetNode(id);
      Box3D mbr = Box3D::Empty();
      for (size_t i = 0; i < take; ++i, ++cursor) {
        Entry entry;
        entry.box = level_nodes[cursor].mbr;
        entry.child = level_nodes[cursor].page;
        mbr.ExpandToInclude(entry.box);
        node.Append(entry);
      }
      parents.push_back(Placed{mbr, id});
    }
    level_nodes = std::move(parents);
  }
  tree->root_ = level_nodes.front().page;
  tree->size_ = boxes.size();
  tree->reinserted_on_level_.assign(static_cast<size_t>(level) + 1, false);
  return tree;
}

void RStarTree::Insert(const Box3D& box, DataId data) {
  STINDEX_CHECK_MSG(!pages_.frozen(),
                    "RStarTree is frozen: it serves a packed snapshot");
  STINDEX_CHECK_MSG(box.IsValid(), "inserting an invalid box");
  if (root_ == kInvalidPage) {
    root_ = NewNode(0);
    reinserted_on_level_.assign(1, false);
  }
  std::fill(reinserted_on_level_.begin(), reinserted_on_level_.end(), false);
  InsertEntry(box, kInvalidPage, data, /*target_level=*/0,
              /*allow_reinsert=*/true);
  ++size_;
}

void RStarTree::ChoosePath(const Box3D& box, int target_level,
                           std::vector<PageId>* path_nodes,
                           std::vector<size_t>* path_slots) const {
  path_nodes->clear();
  path_slots->clear();
  PageId current = root_;
  path_nodes->push_back(current);
  NodeView node = GetNode(current);
  while (node.level() > target_level) {
    const std::span<const Entry> entries = node.entries();
    STINDEX_CHECK(!entries.empty());
    size_t best = 0;
    if (node.level() == 1 && config_.split == SplitStrategy::kRStar) {
      // Children are leaves: minimize overlap enlargement (R* CS2), ties
      // broken by volume enlargement, then volume. The Guttman variants
      // use the classic least-enlargement rule at every level.
      double best_overlap_delta = std::numeric_limits<double>::infinity();
      double best_enlargement = std::numeric_limits<double>::infinity();
      double best_volume = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < entries.size(); ++i) {
        const Box3D enlarged = entries[i].box.Union(box);
        double overlap_before = 0.0;
        double overlap_after = 0.0;
        for (size_t j = 0; j < entries.size(); ++j) {
          if (j == i) continue;
          overlap_before += entries[i].box.OverlapVolume(entries[j].box);
          overlap_after += enlarged.OverlapVolume(entries[j].box);
        }
        const double overlap_delta = overlap_after - overlap_before;
        const double enlargement = entries[i].box.Enlargement(box);
        const double volume = entries[i].box.Volume();
        if (overlap_delta < best_overlap_delta ||
            (overlap_delta == best_overlap_delta &&
             (enlargement < best_enlargement ||
              (enlargement == best_enlargement && volume < best_volume)))) {
          best = i;
          best_overlap_delta = overlap_delta;
          best_enlargement = enlargement;
          best_volume = volume;
        }
      }
    } else {
      // Children are internal: minimize volume enlargement, ties by
      // volume.
      double best_enlargement = std::numeric_limits<double>::infinity();
      double best_volume = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < entries.size(); ++i) {
        const double enlargement = entries[i].box.Enlargement(box);
        const double volume = entries[i].box.Volume();
        if (enlargement < best_enlargement ||
            (enlargement == best_enlargement && volume < best_volume)) {
          best = i;
          best_enlargement = enlargement;
          best_volume = volume;
        }
      }
    }
    path_slots->push_back(best);
    current = entries[best].child;
    path_nodes->push_back(current);
    node = GetNode(current);
  }
}

void RStarTree::AdjustPath(const std::vector<PageId>& path_nodes,
                           const std::vector<size_t>& path_slots) const {
  for (size_t i = path_nodes.size(); i-- > 1;) {
    const Box3D mbr = Mbr(GetNode(path_nodes[i]).entries());
    GetNode(path_nodes[i - 1]).entries()[path_slots[i - 1]].box = mbr;
  }
}

void RStarTree::InsertEntry(const Box3D& box, PageId child, DataId data,
                            int target_level, bool allow_reinsert) {
  std::vector<PageId> path_nodes;
  std::vector<size_t> path_slots;
  ChoosePath(box, target_level, &path_nodes, &path_slots);

  Node node = GetNode(path_nodes.back());
  STINDEX_CHECK(node.level() == target_level);
  Entry entry;
  entry.box = box;
  entry.child = child;
  entry.data = data;
  node.Append(entry);
  AdjustPath(path_nodes, path_slots);

  if (node.entries().size() > config_.max_entries) {
    HandleOverflow(path_nodes, path_slots, allow_reinsert);
  }
}

void RStarTree::HandleOverflow(std::vector<PageId>& path_nodes,
                               std::vector<size_t>& path_slots,
                               bool allow_reinsert) {
  const size_t level = static_cast<size_t>(GetNode(path_nodes.back()).level());
  const bool is_root = path_nodes.size() == 1;
  if (!is_root && allow_reinsert && config_.forced_reinsert &&
      !reinserted_on_level_[level]) {
    Reinsert(path_nodes, path_slots);
  } else {
    SplitNode(path_nodes, path_slots);
  }
}

void RStarTree::Reinsert(std::vector<PageId>& path_nodes,
                         std::vector<size_t>& path_slots) {
  Node node = GetNode(path_nodes.back());
  const size_t level = static_cast<size_t>(node.level());
  reinserted_on_level_[level] = true;
  static Counter* const reinsertions =
      MetricRegistry::Global().GetCounter("rstar.reinsertions");
  reinsertions->Increment();

  // Order entries by distance of their box center from the node MBR
  // center; the `reinsert_count` furthest leave the node.
  const Box3D node_mbr = Mbr(node.entries());
  double center[3];
  for (int d = 0; d < 3; ++d) center[d] = (node_mbr.lo[d] + node_mbr.hi[d]) / 2;

  const std::span<Entry> entries = node.entries();
  auto distance2 = [&center](const Entry& entry) {
    double sum = 0.0;
    for (int d = 0; d < 3; ++d) {
      const double delta = (entry.box.lo[d] + entry.box.hi[d]) / 2 - center[d];
      sum += delta * delta;
    }
    return sum;
  };
  std::stable_sort(entries.begin(), entries.end(),
                   [&distance2](const Entry& a, const Entry& b) {
                     return distance2(a) < distance2(b);
                   });

  const size_t keep = entries.size() - config_.reinsert_count;
  const std::vector<Entry> removed(entries.begin() + static_cast<long>(keep),
                                  entries.end());
  node.Assign(entries.first(keep));
  AdjustPath(path_nodes, path_slots);

  // Close reinsert: closest of the removed entries first.
  for (const Entry& entry : removed) {
    InsertEntry(entry.box, entry.child, entry.data, static_cast<int>(level),
                /*allow_reinsert=*/true);
  }
}

namespace {

// One candidate split: entries sorted one way, first `split_point` go left.
struct SplitChoice {
  int axis = 0;
  bool by_upper = false;
  size_t split_point = 0;
};

}  // namespace

namespace {

// The R* split (CSA1 + CSI1): margin-driven axis choice, then the
// min-overlap distribution. Leaves the left group in *entries and
// returns the right group.
template <typename Entry>
std::vector<Entry> RStarPartition(std::vector<Entry>* entry_list,
                                  size_t min_fill) {
  std::vector<Entry>& entries = *entry_list;
  const size_t total = entries.size();

  auto sort_entries = [&entries](int axis, bool by_upper) {
    std::stable_sort(entries.begin(), entries.end(),
                     [axis, by_upper](const Entry& a, const Entry& b) {
                       return by_upper ? a.box.hi[axis] < b.box.hi[axis]
                                       : a.box.lo[axis] < b.box.lo[axis];
                     });
  };

  // Prefix/suffix MBRs for the current entry order.
  std::vector<Box3D> prefix(total), suffix(total);
  auto compute_group_mbrs = [&]() {
    Box3D acc = Box3D::Empty();
    for (size_t i = 0; i < total; ++i) {
      acc.ExpandToInclude(entries[i].box);
      prefix[i] = acc;
    }
    acc = Box3D::Empty();
    for (size_t i = total; i-- > 0;) {
      acc.ExpandToInclude(entries[i].box);
      suffix[i] = acc;
    }
  };

  // CSA1: choose the axis with minimum total margin over all candidate
  // distributions of both sorts.
  int best_axis = 0;
  double best_margin = std::numeric_limits<double>::infinity();
  for (int axis = 0; axis < 3; ++axis) {
    double margin_sum = 0.0;
    for (bool by_upper : {false, true}) {
      sort_entries(axis, by_upper);
      compute_group_mbrs();
      for (size_t k = min_fill; k <= total - min_fill; ++k) {
        margin_sum += prefix[k - 1].Margin() + suffix[k].Margin();
      }
    }
    if (margin_sum < best_margin) {
      best_margin = margin_sum;
      best_axis = axis;
    }
  }

  // CSI1: on the chosen axis, pick the distribution with minimum overlap
  // between the groups, ties by minimum total volume.
  SplitChoice best_choice;
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_volume = std::numeric_limits<double>::infinity();
  for (bool by_upper : {false, true}) {
    sort_entries(best_axis, by_upper);
    compute_group_mbrs();
    for (size_t k = min_fill; k <= total - min_fill; ++k) {
      const double overlap = prefix[k - 1].OverlapVolume(suffix[k]);
      const double volume = prefix[k - 1].Volume() + suffix[k].Volume();
      if (overlap < best_overlap ||
          (overlap == best_overlap && volume < best_volume)) {
        best_overlap = overlap;
        best_volume = volume;
        best_choice = SplitChoice{best_axis, by_upper, k};
      }
    }
  }

  sort_entries(best_choice.axis, best_choice.by_upper);
  std::vector<Entry> right(
      entries.begin() + static_cast<long>(best_choice.split_point),
      entries.end());
  entries.resize(best_choice.split_point);
  return right;
}

// Guttman's quadratic split: seed with the pair wasting the most volume,
// then repeatedly place the entry with the strongest preference into the
// group that needs it less badly, honoring the fill bound.
template <typename Entry>
std::vector<Entry> QuadraticPartition(std::vector<Entry>* entry_list,
                                      size_t min_fill) {
  std::vector<Entry> pool;
  pool.swap(*entry_list);
  std::vector<Entry>& left = *entry_list;
  std::vector<Entry> right;

  size_t seed_a = 0, seed_b = 1;
  double worst_waste = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < pool.size(); ++i) {
    for (size_t j = i + 1; j < pool.size(); ++j) {
      const double waste = pool[i].box.Union(pool[j].box).Volume() -
                           pool[i].box.Volume() - pool[j].box.Volume();
      if (waste > worst_waste) {
        worst_waste = waste;
        seed_a = i;
        seed_b = j;
      }
    }
  }
  Box3D left_mbr = pool[seed_a].box;
  Box3D right_mbr = pool[seed_b].box;
  left.push_back(pool[seed_a]);
  right.push_back(pool[seed_b]);
  std::vector<bool> placed(pool.size(), false);
  placed[seed_a] = placed[seed_b] = true;
  size_t remaining = pool.size() - 2;

  while (remaining > 0) {
    // Fill guarantee: when a group needs every remaining entry to reach
    // the minimum, it takes them all.
    if (left.size() + remaining == min_fill) {
      for (size_t i = 0; i < pool.size(); ++i) {
        if (!placed[i]) left.push_back(pool[i]);
      }
      return right;
    }
    if (right.size() + remaining == min_fill) {
      for (size_t i = 0; i < pool.size(); ++i) {
        if (!placed[i]) right.push_back(pool[i]);
      }
      return right;
    }
    // PickNext: strongest preference first.
    size_t pick = SIZE_MAX;
    double best_difference = -1.0;
    double pick_left_grow = 0.0, pick_right_grow = 0.0;
    for (size_t i = 0; i < pool.size(); ++i) {
      if (placed[i]) continue;
      const double grow_left = left_mbr.Enlargement(pool[i].box);
      const double grow_right = right_mbr.Enlargement(pool[i].box);
      const double difference = std::abs(grow_left - grow_right);
      if (difference > best_difference) {
        best_difference = difference;
        pick = i;
        pick_left_grow = grow_left;
        pick_right_grow = grow_right;
      }
    }
    placed[pick] = true;
    --remaining;
    const bool go_left =
        pick_left_grow < pick_right_grow ||
        (pick_left_grow == pick_right_grow && left.size() <= right.size());
    if (go_left) {
      left.push_back(pool[pick]);
      left_mbr.ExpandToInclude(pool[pick].box);
    } else {
      right.push_back(pool[pick]);
      right_mbr.ExpandToInclude(pool[pick].box);
    }
  }
  return right;
}

// Guttman's linear split: seeds with the greatest normalized separation,
// remaining entries by least enlargement.
template <typename Entry>
std::vector<Entry> LinearPartition(std::vector<Entry>* entry_list,
                                   size_t min_fill) {
  std::vector<Entry> pool;
  pool.swap(*entry_list);
  std::vector<Entry>& left = *entry_list;
  std::vector<Entry> right;

  size_t seed_a = 0, seed_b = 1;
  double best_separation = -std::numeric_limits<double>::infinity();
  for (int d = 0; d < 3; ++d) {
    size_t highest_lo = 0, lowest_hi = 0;
    double lo_min = std::numeric_limits<double>::infinity();
    double hi_max = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < pool.size(); ++i) {
      if (pool[i].box.lo[d] > pool[highest_lo].box.lo[d]) highest_lo = i;
      if (pool[i].box.hi[d] < pool[lowest_hi].box.hi[d]) lowest_hi = i;
      lo_min = std::min(lo_min, pool[i].box.lo[d]);
      hi_max = std::max(hi_max, pool[i].box.hi[d]);
    }
    if (highest_lo == lowest_hi) continue;
    const double extent = hi_max - lo_min;
    const double separation =
        extent > 0.0 ? (pool[highest_lo].box.lo[d] -
                        pool[lowest_hi].box.hi[d]) /
                           extent
                     : 0.0;
    if (separation > best_separation) {
      best_separation = separation;
      seed_a = lowest_hi;
      seed_b = highest_lo;
    }
  }
  Box3D left_mbr = pool[seed_a].box;
  Box3D right_mbr = pool[seed_b].box;
  left.push_back(pool[seed_a]);
  right.push_back(pool[seed_b]);
  size_t remaining = pool.size() - 2;
  for (size_t i = 0; i < pool.size(); ++i) {
    if (i == seed_a || i == seed_b) continue;
    if (left.size() + remaining == min_fill) {
      left.push_back(pool[i]);
      left_mbr.ExpandToInclude(pool[i].box);
      --remaining;
      continue;
    }
    if (right.size() + remaining == min_fill) {
      right.push_back(pool[i]);
      right_mbr.ExpandToInclude(pool[i].box);
      --remaining;
      continue;
    }
    --remaining;
    const double grow_left = left_mbr.Enlargement(pool[i].box);
    const double grow_right = right_mbr.Enlargement(pool[i].box);
    if (grow_left < grow_right ||
        (grow_left == grow_right && left.size() <= right.size())) {
      left.push_back(pool[i]);
      left_mbr.ExpandToInclude(pool[i].box);
    } else {
      right.push_back(pool[i]);
      right_mbr.ExpandToInclude(pool[i].box);
    }
  }
  return right;
}

}  // namespace

void RStarTree::SplitNode(std::vector<PageId>& path_nodes,
                          std::vector<size_t>& path_slots) {
  Node node = GetNode(path_nodes.back());
  std::vector<Entry> entries(node.entries().begin(), node.entries().end());
  const size_t min_fill = config_.min_entries;
  STINDEX_CHECK(entries.size() == config_.max_entries + 1);
  static Counter* const node_splits =
      MetricRegistry::Global().GetCounter("rstar.node_splits");
  node_splits->Increment();

  std::vector<Entry> right_group;
  switch (config_.split) {
    case SplitStrategy::kRStar:
      right_group = RStarPartition(&entries, min_fill);
      break;
    case SplitStrategy::kQuadratic:
      right_group = QuadraticPartition(&entries, min_fill);
      break;
    case SplitStrategy::kLinear:
      right_group = LinearPartition(&entries, min_fill);
      break;
  }
  node.Assign(entries);
  const PageId sibling_id = NewNode(node.level());
  Node sibling = GetNode(sibling_id);
  sibling.Assign(right_group);
  const Box3D left_mbr = Mbr(node.entries());
  const Box3D right_mbr = Mbr(sibling.entries());

  if (path_nodes.size() == 1) {
    // Root split: grow the tree by one level.
    root_ = NewNode(node.level() + 1);
    Node new_root = GetNode(root_);
    Entry left_entry;
    left_entry.box = left_mbr;
    left_entry.child = path_nodes.back();
    Entry right_entry;
    right_entry.box = right_mbr;
    right_entry.child = sibling_id;
    new_root.Append(left_entry);
    new_root.Append(right_entry);
    reinserted_on_level_.push_back(false);
    return;
  }

  // Update the parent: refresh the split node's entry, add the sibling.
  Node parent = GetNode(path_nodes[path_nodes.size() - 2]);
  parent.entries()[path_slots.back()].box = left_mbr;
  Entry sibling_entry;
  sibling_entry.box = right_mbr;
  sibling_entry.child = sibling_id;
  parent.Append(sibling_entry);

  path_nodes.pop_back();
  path_slots.pop_back();
  AdjustPath(path_nodes, path_slots);

  if (parent.entries().size() > config_.max_entries) {
    HandleOverflow(path_nodes, path_slots, /*allow_reinsert=*/true);
  }
}

void RStarTree::Search(const Box3D& query,
                       std::vector<DataId>* results) const {
  Search(query, pages_.session(), results);
}

void RStarTree::Search(const Box3D& query, PageCache* buffer,
                       std::vector<DataId>* results,
                       QueryProfile* profile) const {
  results->clear();
  if (root_ == kInvalidPage) return;
  TraceSpan span("rstar", "search");
  const IoStats before = buffer->stats();
  WalkNodes<NodeView>(
      buffer, root_, profile,
      [&](const NodeView&, const Entry& entry) {
        return entry.box.Intersects(query);
      },
      [&](const Entry& entry) { results->push_back(entry.data); });
  ProfileQuery(profile, before, *buffer, results->size());
  span.Arg("results", static_cast<int64_t>(results->size()));
}

namespace {

bool BoxAlmostContains(const Box3D& outer, const Box3D& inner) {
  constexpr double kEps = 1e-9;
  for (int d = 0; d < 3; ++d) {
    if (inner.lo[d] < outer.lo[d] - kEps) return false;
    if (inner.hi[d] > outer.hi[d] + kEps) return false;
  }
  return true;
}

}  // namespace

std::vector<RStarTree::NodeSummary> RStarTree::CollectNodeSummaries() const {
  std::vector<NodeSummary> summaries;
  if (root_ == kInvalidPage) return summaries;
  const std::unique_ptr<SharedBufferPool> pool = pages_.NewUnpublishedPool();
  SharedBufferPool::Session nodes(pool.get());
  // A node's entries are tested in slot order: its first opens its
  // summary (a node of a non-empty tree holds at least one), and every
  // entry leads on.
  WalkNodes<NodeView>(
      &nodes, root_, nullptr,
      [&](const NodeView& node, const Entry& entry) {
        if (&entry == node.entries().data()) {
          summaries.push_back(
              {node.level(), Mbr(node.entries()), node.entries().size()});
        }
        return true;
      },
      [](const Entry&) {});
  return summaries;
}

void RStarTree::CheckInvariants() const {
  if (root_ == kInvalidPage) {
    STINDEX_CHECK(size_ == 0);
    return;
  }
  // Pages come through an unpublished pool, so a frozen tree's snapshot is
  // checked as well as a live tree's arena.
  const std::unique_ptr<SharedBufferPool> pool = pages_.NewUnpublishedPool();
  SharedBufferPool::Session pages(pool.get());
  size_t leaf_entries = 0;
  const PageRef root = pages.FetchPinned(root_);
  const int root_level = NodeView(root.get()).level();
  // (node, expected MBR or null for root)
  std::vector<std::pair<PageId, Box3D>> stack;
  stack.emplace_back(root_, Mbr(NodeView(root.get()).entries()));
  while (!stack.empty()) {
    auto [id, expected] = stack.back();
    stack.pop_back();
    const PageRef ref = pages.FetchPinned(id);
    const NodeView node(ref.get());
    STINDEX_CHECK(node.level() >= 0 && node.level() <= root_level);
    STINDEX_CHECK(node.entries().size() <= config_.max_entries);
    if (id != root_) {
      STINDEX_CHECK(node.entries().size() >= config_.min_entries);
    } else {
      STINDEX_CHECK(!node.entries().empty());
    }
    STINDEX_CHECK(BoxAlmostContains(expected, Mbr(node.entries())));
    for (const Entry& entry : node.entries()) {
      if (node.IsLeaf()) {
        ++leaf_entries;
      } else {
        const PageRef child_ref = pages.FetchPinned(entry.child);
        const NodeView child(child_ref.get());
        STINDEX_CHECK(child.level() == node.level() - 1);
        STINDEX_CHECK(BoxAlmostContains(entry.box, Mbr(child.entries())));
        stack.emplace_back(entry.child, entry.box);
      }
    }
  }
  STINDEX_CHECK(leaf_entries == size_);
}

}  // namespace stindex
