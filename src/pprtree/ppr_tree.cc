#include "pprtree/ppr_tree.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <type_traits>
#include <unordered_set>
#include <utility>

#include "core/query_profile.h"
#include "storage/page_codec.h"
#include "storage/shared_buffer_pool.h"

#include "util/check.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace stindex {

// An index or data record inside a node. Alive entries have an open
// deletion time (kTimeInfinity). The struct is also the on-page entry
// layout, so it carries its padding as an explicit zeroed field: page
// bytes stay deterministic.
struct PprTree::Entry {
  Rect2D rect;
  TimeInterval lifetime;
  PageId child = kInvalidPage;  // directory entries
  uint32_t reserved = 0;
  PprDataId data = 0;           // leaf entries

  bool IsAlive() const { return lifetime.end == kTimeInfinity; }
};

// The node page header, right after the envelope (little-endian).
struct PprTree::Header {
  int32_t level;
  uint32_t count;
  Time created;
  Time closed;  // kTimeInfinity while the node is current
};

// One step of a root-to-leaf path: `slot` is the index of the directory
// entry in the *previous* path node that leads here (unused for the root).
struct PprTree::Frame {
  PageId node = kInvalidPage;
  size_t slot = SIZE_MAX;
};

// One era of the evolution: `root` owns queries at instants in
// [start, next era's start). An invalid root marks an era where the
// structure is empty.
struct PprTree::RootEra {
  Time start = 0;
  PageId root = kInvalidPage;
};

namespace {

template <typename Entries>
size_t CountAlive(const Entries& entries) {
  size_t count = 0;
  for (const auto& entry : entries) count += entry.IsAlive() ? 1 : 0;
  return count;
}

template <typename Entries>
Rect2D AliveMbr(const Entries& entries) {
  Rect2D mbr = Rect2D::Empty();
  for (const auto& entry : entries) {
    if (entry.IsAlive()) mbr.ExpandToInclude(entry.rect);
  }
  return mbr;
}

}  // namespace

// The check every node page read from a backend or a snapshot passes:
// the envelope (checksum, kind, version), then a plausible header. The
// fanout bound tolerates max_entries + 1, the transient overflow state.
// It also pins the page layout.
class PprTree::NodeCodec : public PageCodec {
 public:
  explicit NodeCodec(size_t max_entries) : max_entries_(max_entries) {
    STINDEX_CHECK_MSG(max_entries_ + 1 <= kNodePageCapacity,
                      "PPR-tree fanout does not fit a node page");
  }

  Status Check(const uint8_t* page, PageId id) const override {
    Result<PageReader> payload = OpenPagePayload(page, PageKind::kPprNode, id);
    if (!payload.ok()) return payload.status();
    Header header;
    std::memcpy(&header, page + kPageEnvelopeBytes, sizeof(Header));
    if (header.level < 0 || header.count > max_entries_ + 1) {
      return Status::InvalidArgument(
          "page " + std::to_string(id) + ": implausible PPR-tree node (level " +
          std::to_string(header.level) + ", " + std::to_string(header.count) +
          " entries)");
    }
    return Status::OK();
  }

 private:
  static_assert(sizeof(Header) == 24 && offsetof(Header, count) == 4 &&
                offsetof(Header, created) == 8 &&
                offsetof(Header, closed) == 16);
  static_assert(std::has_unique_object_representations_v<Header>);
  static_assert(kPageEnvelopeBytes + sizeof(Header) == kNodeEntryOffset &&
                kNodeEntryOffset % alignof(Entry) == 0);
  // Entry is the on-page layout. Rect2D holds doubles, for which
  // has_unique_object_representations is false by definition, so "no
  // padding" is asserted as the sum of the member sizes instead.
  static_assert(sizeof(Entry) == kNodeEntryBytes &&
                offsetof(Entry, rect) == 0 &&
                offsetof(Entry, lifetime) == 32 &&
                offsetof(Entry, child) == 48 &&
                offsetof(Entry, reserved) == 52 && offsetof(Entry, data) == 56);
  static_assert(sizeof(Rect2D) + sizeof(TimeInterval) + sizeof(PageId) +
                    sizeof(uint32_t) + sizeof(PprDataId) ==
                sizeof(Entry));
  static_assert(std::is_trivially_copyable_v<Entry> &&
                std::has_unique_object_representations_v<TimeInterval>);

  size_t max_entries_;
};

PprTree::PprTree(PprConfig config)
    : config_(config),
      arena_(std::make_unique<MemoryPageBackend>("ppr")),
      codec_(std::make_unique<NodeCodec>(config_.max_entries)) {
  STINDEX_CHECK(config_.max_entries >= 4);
  STINDEX_CHECK(config_.p_version > 0.0 && config_.p_version < 1.0);
  STINDEX_CHECK(config_.p_svu > config_.p_version);
  STINDEX_CHECK(config_.p_svo > config_.p_svu && config_.p_svo <= 1.0);
  OpenQueryPool();
  // The strong-version window must leave room to insert into a fresh node.
  STINDEX_CHECK(StrongMax() < config_.max_entries);
  STINDEX_CHECK(WeakMin() >= 1);
}

PprTree::~PprTree() {
  if (!roots_.empty()) {
    MetricRegistry::Global().GetGauge("ppr.root_eras")->SetMax(roots_.size());
  }
}

size_t PprTree::WeakMin() const {
  return static_cast<size_t>(
      std::ceil(config_.p_version * static_cast<double>(config_.max_entries)));
}

size_t PprTree::StrongMax() const {
  return static_cast<size_t>(
      config_.p_svo * static_cast<double>(config_.max_entries));
}

size_t PprTree::StrongMin() const {
  return static_cast<size_t>(
      std::ceil(config_.p_svu * static_cast<double>(config_.max_entries)));
}

PprTree::Node PprTree::GetNode(PageId id) const {
  STINDEX_CHECK_MSG(arena_ != nullptr, "PprTree is frozen after AttachBackend");
  return Node(&arena_->MutablePage(id));
}

const PageBackend& PprTree::source() const {
  return arena_ != nullptr ? *arena_ : *backend_;
}

std::unique_ptr<SharedBufferPool> PprTree::NewPool(
    size_t pages, std::string metric_scope) const {
  SharedBufferPoolOptions options;
  options.capacity = pages;
  options.metric_scope = std::move(metric_scope);
  // Arena pages are not sealed; pages of a backend are checked per miss.
  return std::make_unique<SharedBufferPool>(
      &source(), arena_ != nullptr ? nullptr : codec_.get(), options);
}

std::unique_ptr<SharedBufferPool> PprTree::NewSharedQueryPool(
    size_t pages) const {
  return NewPool(pages == 0 ? config_.buffer_pages : pages, "ppr");
}

void PprTree::OpenQueryPool() {
  session_.reset();
  pool_ = NewSharedQueryPool();
  session_ = std::make_unique<SharedBufferPool::Session>(pool_.get(),
                                                         config_.buffer_pages);
}

void PprTree::Freeze(std::unique_ptr<PageBackend> backend) {
  session_.reset();
  pool_.reset();
  arena_.reset();
  backend_ = std::move(backend);
  OpenQueryPool();
}

Status PprTree::AttachBackend(std::unique_ptr<PageBackend> backend) {
  STINDEX_CHECK_MSG(arena_ != nullptr, "backend already attached");
  STINDEX_CHECK(backend != nullptr);
  TraceSpan span("ppr", "attach_backend");
  span.Arg("pages", static_cast<int64_t>(PageCount()));
  std::vector<PageId> slots(NodeCount());
  std::iota(slots.begin(), slots.end(), PageId{0});
  Status status = PersistNodesForCheckpoint(backend.get(), slots);
  if (status.ok()) status = backend->Sync();
  if (!status.ok()) return status;
  Freeze(std::move(backend));
  return Status::OK();
}

Status PprTree::PackSnapshot(const std::string& path,
                             const SnapshotFile::Options& options) {
  STINDEX_CHECK_MSG(arena_ != nullptr, "backend already attached");
  TraceSpan span("ppr", "pack_snapshot");
  span.Arg("pages", static_cast<int64_t>(PageCount()));
  const size_t count = NodeCount();
  // The PPR-tree never frees nodes, so ids are dense already; the packed
  // order sorts them bottom-up (level, then id) so every level occupies
  // one contiguous extent of the snapshot.
  std::vector<PageId> order(count);
  std::iota(order.begin(), order.end(), PageId{0});
  std::stable_sort(order.begin(), order.end(), [this](PageId a, PageId b) {
    return GetNode(a).level() < GetNode(b).level();
  });
  std::vector<PageId> remap(count, kInvalidPage);
  for (size_t slot = 0; slot < order.size(); ++slot) {
    remap[order[slot]] = static_cast<PageId>(slot);
  }

  // The snapshot gets remapped, sealed copies; the arena is untouched, so
  // the tree still serves from it if writing the snapshot fails.
  Result<std::unique_ptr<SnapshotWriter>> writer = SnapshotWriter::Create(path);
  if (!writer.ok()) return writer.status();
  Page page;
  for (const PageId id : order) {
    std::memcpy(page.bytes, arena_->BorrowPage(id), kPageSize);
    Node node(&page);
    if (!node.IsLeaf()) {
      for (Entry& entry : node.entries()) {
        if (entry.child != kInvalidPage) entry.child = remap[entry.child];
      }
    }
    SealPage(page.bytes, PageKind::kPprNode);
    Status status =
        writer.value()->Append(static_cast<uint32_t>(node.level()), page.bytes);
    if (!status.ok()) return status;
  }
  Status status = writer.value()->Finish();
  if (!status.ok()) return status;
  Result<std::unique_ptr<MmapSnapshotBackend>> backend =
      MmapSnapshotBackend::Open(path, options);
  if (!backend.ok()) return backend.status();

  // Committed: the in-memory references follow the remap.
  for (RootEra& era : roots_) {
    if (era.root != kInvalidPage) era.root = remap[era.root];
  }
  for (auto& [data, leaf] : alive_location_) leaf = remap[leaf];
  std::unordered_map<PageId, PageId> parents;
  parents.reserve(parent_of_.size());
  for (const auto& [child, parent] : parent_of_) {
    parents[remap[child]] = remap[parent];
  }
  parent_of_ = std::move(parents);
  Freeze(std::move(backend).value());
  return Status::OK();
}

size_t PprTree::NumRoots() const { return roots_.size(); }

PageId PprTree::CurrentRoot() const {
  return roots_.empty() ? kInvalidPage : roots_.back().root;
}

void PprTree::StartNewEra(PageId root, Time t) {
  if (!roots_.empty() && roots_.back().start == t) {
    roots_.back().root = root;  // same-instant restructure: collapse eras
    return;
  }
  STINDEX_CHECK(roots_.empty() || roots_.back().start < t);
  roots_.push_back(RootEra{t, root});
}

void PprTree::ResetQueryState() const {
  session_->ResetCache();
  session_->ResetStats();
}

PageId PprTree::MakeNode(int level, const std::vector<Entry>& entries,
                         Time now) {
  const PageId id = arena_->Allocate();
  Node node = GetNode(id);
  node.header() = Header{level, 0, now, kTimeInfinity};
  for (const Entry& entry : entries) {
    STINDEX_DCHECK(entry.IsAlive());
    node.Append(entry);
    if (level == 0) {
      alive_location_[entry.data] = id;
    } else {
      parent_of_[entry.child] = id;
    }
  }
  return id;
}

void PprTree::DescendForInsert(const Rect2D& rect) {
  path_.clear();
  PageId current = CurrentRoot();
  STINDEX_CHECK(current != kInvalidPage);
  path_.push_back(Frame{current, SIZE_MAX});
  NodeView node = GetNode(current);
  while (!node.IsLeaf()) {
    // Least area enlargement among alive entries, ties by smallest area.
    size_t best = SIZE_MAX;
    double best_enlargement = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    const std::span<const Entry> entries = node.entries();
    for (size_t i = 0; i < entries.size(); ++i) {
      if (!entries[i].IsAlive()) continue;
      const double enlargement = entries[i].rect.Enlargement(rect);
      const double area = entries[i].rect.Area();
      if (enlargement < best_enlargement ||
          (enlargement == best_enlargement && area < best_area)) {
        best = i;
        best_enlargement = enlargement;
        best_area = area;
      }
    }
    STINDEX_CHECK_MSG(best != SIZE_MAX,
                      "directory node without alive entries on insert path");
    current = entries[best].child;
    path_.push_back(Frame{current, best});
    node = GetNode(current);
  }
}

void PprTree::PathToAliveLeaf(PageId leaf) {
  // Climb the alive-parent links, then resolve entry slots downward.
  chain_.assign(1, leaf);
  while (true) {
    auto it = parent_of_.find(chain_.back());
    if (it == parent_of_.end()) break;
    chain_.push_back(it->second);
  }
  STINDEX_CHECK_MSG(chain_.back() == CurrentRoot(),
                    "alive leaf is not reachable from the current root");
  path_.clear();
  path_.push_back(Frame{chain_.back(), SIZE_MAX});
  for (size_t i = chain_.size() - 1; i-- > 0;) {
    const std::span<const Entry> entries = GetNode(chain_[i + 1]).entries();
    size_t slot = SIZE_MAX;
    for (size_t s = 0; s < entries.size(); ++s) {
      const Entry& entry = entries[s];
      if (entry.IsAlive() && entry.child == chain_[i]) {
        slot = s;
        break;
      }
    }
    STINDEX_CHECK_MSG(slot != SIZE_MAX, "stale parent link");
    path_.push_back(Frame{chain_[i], slot});
  }
}

void PprTree::ExpandPathRects(const std::vector<Frame>& path,
                              const Rect2D& rect) const {
  for (size_t i = 1; i < path.size(); ++i) {
    GetNode(path[i - 1].node).entries()[path[i].slot].rect.ExpandToInclude(
        rect);
  }
}

void PprTree::Insert(const Rect2D& rect, Time t, PprDataId data) {
  STINDEX_CHECK_MSG(backend_ == nullptr,
                    "PprTree is frozen after AttachBackend");
  STINDEX_CHECK_MSG(rect.IsValid(), "inserting an invalid rect");
  STINDEX_CHECK_MSG(t >= current_time_, "updates must be fed in time order");
  STINDEX_CHECK_MSG(alive_location_.find(data) == alive_location_.end(),
                    "record is already alive");
  current_time_ = t;
  ++size_;

  Entry entry;
  entry.rect = rect;
  entry.lifetime = TimeInterval(t, kTimeInfinity);
  entry.data = data;

  if (CurrentRoot() == kInvalidPage) {
    const PageId root = MakeNode(0, {entry}, t);
    StartNewEra(root, t);
    return;
  }

  DescendForInsert(rect);
  ExpandPathRects(path_, rect);
  Node leaf = GetNode(path_.back().node);
  if (leaf.entries().size() >= config_.max_entries) {
    Restructure(&path_, {entry}, t);
    return;
  }
  leaf.Append(entry);
  alive_location_[data] = path_.back().node;
}

void PprTree::Delete(PprDataId data, Time t) {
  STINDEX_CHECK_MSG(backend_ == nullptr,
                    "PprTree is frozen after AttachBackend");
  STINDEX_CHECK_MSG(t >= current_time_, "updates must be fed in time order");
  current_time_ = t;
  auto it = alive_location_.find(data);
  STINDEX_CHECK_MSG(it != alive_location_.end(), "record is not alive");
  const PageId leaf_id = it->second;
  alive_location_.erase(it);

  PathToAliveLeaf(leaf_id);
  Node leaf = GetNode(leaf_id);
  bool found = false;
  const std::span<Entry> entries = leaf.entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    Entry& entry = entries[i];
    if (entry.IsAlive() && entry.data == data) {
      if (entry.lifetime.start == t) {
        // Inserted and deleted at the same instant: never visible.
        leaf.Erase(i);
      } else {
        entry.lifetime.end = t;
      }
      found = true;
      break;
    }
  }
  STINDEX_CHECK_MSG(found, "alive record missing from its leaf");

  if (path_.size() == 1) {
    // Root leaf: exempt from the weak-version bound, but close the era
    // when nothing is left alive.
    FinalizeRoot(leaf_id, t);
    return;
  }
  if (CountAlive(leaf.entries()) < WeakMin()) {
    Restructure(&path_, {}, t);  // weak version underflow
  }
}

namespace {

double CenterDistance2(const Rect2D& a, const Rect2D& b) {
  const Point2D ca = a.Center();
  const Point2D cb = b.Center();
  const double dx = ca.x - cb.x;
  const double dy = ca.y - cb.y;
  return dx * dx + dy * dy;
}

}  // namespace

void PprTree::Restructure(std::vector<Frame>* path,
                          std::vector<Entry> pending, Time now) {
  Node node = GetNode(path->back().node);
  const int level = node.level();
  const bool is_root = path->size() == 1;
  static Counter* const version_splits =
      MetricRegistry::Global().GetCounter("ppr.version_splits");
  version_splits->Increment();

  auto truncate_alive = [now](Node victim, std::vector<Entry>* copies) {
    for (size_t i = 0; i < victim.entries().size();) {
      Entry& entry = victim.entries()[i];
      if (entry.IsAlive()) {
        Entry copy = entry;
        copy.lifetime = TimeInterval(now, kTimeInfinity);
        copies->push_back(copy);
        if (entry.lifetime.start == now) {
          victim.Erase(i);
          continue;
        }
        entry.lifetime.end = now;
      }
      ++i;
    }
    victim.header().closed = now;
  };

  std::vector<Entry> copies;
  truncate_alive(node, &copies);
  for (Entry& entry : pending) {
    STINDEX_DCHECK(entry.lifetime.start == now && entry.IsAlive());
    copies.push_back(entry);
  }

  // Strong version underflow: merge with the nearest alive sibling.
  std::optional<size_t> sibling_slot;
  if (!is_root && copies.size() < StrongMin()) {
    const NodeView parent = GetNode((*path)[path->size() - 2].node);
    const Rect2D our_mbr = [&copies]() {
      Rect2D mbr = Rect2D::Empty();
      for (const Entry& entry : copies) mbr.ExpandToInclude(entry.rect);
      return mbr;
    }();
    double best_distance = std::numeric_limits<double>::infinity();
    const std::span<const Entry> siblings = parent.entries();
    for (size_t s = 0; s < siblings.size(); ++s) {
      if (s == path->back().slot || !siblings[s].IsAlive()) continue;
      const double distance =
          copies.empty() ? 0.0 : CenterDistance2(our_mbr, siblings[s].rect);
      if (distance < best_distance) {
        best_distance = distance;
        sibling_slot = s;
      }
    }
    if (sibling_slot.has_value()) {
      truncate_alive(GetNode(siblings[*sibling_slot].child), &copies);
      static Counter* const sibling_merges =
          MetricRegistry::Global().GetCounter("ppr.sibling_merges");
      sibling_merges->Increment();
    }
  }

  // Partition the surviving alive set into one or two new nodes.
  std::vector<std::vector<Entry>> groups;
  if (copies.size() > StrongMax()) {
    static Counter* const key_splits =
        MetricRegistry::Global().GetCounter("ppr.key_splits");
    key_splits->Increment();
    std::vector<Entry> left;
    std::vector<Entry> right;
    KeySplit(&copies, &left, &right);
    groups.push_back(std::move(left));
    groups.push_back(std::move(right));
  } else if (!copies.empty()) {
    groups.push_back(std::move(copies));
  }

  std::vector<PageId> new_nodes;
  std::vector<Entry> adds;
  for (std::vector<Entry>& group : groups) {
    const PageId id = MakeNode(level, group, now);
    new_nodes.push_back(id);
    Entry dir;
    dir.rect = AliveMbr(GetNode(id).entries());
    dir.lifetime = TimeInterval(now, kTimeInfinity);
    dir.child = id;
    adds.push_back(dir);
  }

  if (is_root) {
    if (new_nodes.empty()) {
      StartNewEra(kInvalidPage, now);
    } else if (new_nodes.size() == 1) {
      FinalizeRoot(new_nodes[0], now);
    } else {
      const PageId new_root = MakeNode(level + 1, adds, now);
      FinalizeRoot(new_root, now);
    }
    return;
  }

  // Kill the consumed parent entries (highest slot first: killing may
  // erase same-instant entries and shift indices).
  std::vector<size_t> kill_slots = {path->back().slot};
  path->pop_back();
  Node parent = GetNode(path->back().node);
  if (sibling_slot.has_value()) kill_slots.push_back(*sibling_slot);
  std::sort(kill_slots.rbegin(), kill_slots.rend());
  for (size_t slot : kill_slots) {
    Entry& entry = parent.entries()[slot];
    STINDEX_CHECK(entry.IsAlive());
    if (entry.lifetime.start == now) {
      parent.Erase(slot);
    } else {
      entry.lifetime.end = now;
    }
  }

  AddEntries(path, std::move(adds), now);
}

void PprTree::AddEntries(std::vector<Frame>* path, std::vector<Entry> adds,
                         Time now) {
  Node node = GetNode(path->back().node);
  STINDEX_CHECK(!node.IsLeaf());

  if (!adds.empty() &&
      node.entries().size() + adds.size() > config_.max_entries) {
    Restructure(path, std::move(adds), now);
    return;
  }
  for (const Entry& entry : adds) {
    parent_of_[entry.child] = path->back().node;
    ExpandPathRects(*path, entry.rect);
    node.Append(entry);
  }

  const size_t alive = CountAlive(node.entries());
  if (path->size() == 1) {
    FinalizeRoot(path->back().node, now);
    return;
  }
  if (alive < WeakMin()) {
    Restructure(path, {}, now);
  }
}

void PprTree::FinalizeRoot(PageId root, Time now) {
  // Collapse directory roots with a single alive child: otherwise that
  // child would be a non-root node with no sibling to merge with, and the
  // weak-version invariant could not be maintained.
  while (root != kInvalidPage) {
    Node node = GetNode(root);
    const size_t alive = CountAlive(node.entries());
    if (alive == 0) {
      node.header().closed = now;
      root = kInvalidPage;
      break;
    }
    if (node.IsLeaf() || alive > 1) break;
    // Promote the only alive child.
    PageId child = kInvalidPage;
    const std::span<Entry> entries = node.entries();
    for (size_t i = 0; i < entries.size(); ++i) {
      if (!entries[i].IsAlive()) continue;
      child = entries[i].child;
      if (entries[i].lifetime.start == now) {
        node.Erase(i);
      } else {
        entries[i].lifetime.end = now;
      }
      break;
    }
    node.header().closed = now;
    parent_of_.erase(child);
    root = child;
  }
  if (root != CurrentRoot()) StartNewEra(root, now);
}

void PprTree::KeySplit(std::vector<Entry>* entries, std::vector<Entry>* left,
                       std::vector<Entry>* right) const {
  const size_t total = entries->size();
  STINDEX_CHECK(total >= 2);
  // Minimum fill per side: the strong-version lower bound when possible.
  const size_t min_fill = std::min(StrongMin(), total / 2);

  auto sort_entries = [entries](int axis, bool by_upper) {
    std::stable_sort(
        entries->begin(), entries->end(),
        [axis, by_upper](const Entry& a, const Entry& b) {
          const double ka = axis == 0 ? (by_upper ? a.rect.xhi : a.rect.xlo)
                                      : (by_upper ? a.rect.yhi : a.rect.ylo);
          const double kb = axis == 0 ? (by_upper ? b.rect.xhi : b.rect.xlo)
                                      : (by_upper ? b.rect.yhi : b.rect.ylo);
          return ka < kb;
        });
  };

  std::vector<Rect2D> prefix(total), suffix(total);
  auto compute_group_mbrs = [&]() {
    Rect2D acc = Rect2D::Empty();
    for (size_t i = 0; i < total; ++i) {
      acc.ExpandToInclude((*entries)[i].rect);
      prefix[i] = acc;
    }
    acc = Rect2D::Empty();
    for (size_t i = total; i-- > 0;) {
      acc.ExpandToInclude((*entries)[i].rect);
      suffix[i] = acc;
    }
  };

  // Choose the split axis by minimum total margin, then the distribution
  // by minimum overlap (ties: minimum total area) — the R* heuristic in
  // two dimensions, applied to the alive set.
  int best_axis = 0;
  double best_margin = std::numeric_limits<double>::infinity();
  for (int axis = 0; axis < 2; ++axis) {
    double margin_sum = 0.0;
    for (bool by_upper : {false, true}) {
      sort_entries(axis, by_upper);
      compute_group_mbrs();
      for (size_t k = min_fill; k <= total - min_fill; ++k) {
        if (k == 0 || k == total) continue;
        margin_sum += prefix[k - 1].Margin() + suffix[k].Margin();
      }
    }
    if (margin_sum < best_margin) {
      best_margin = margin_sum;
      best_axis = axis;
    }
  }

  bool best_by_upper = false;
  size_t best_split = total / 2;
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (bool by_upper : {false, true}) {
    sort_entries(best_axis, by_upper);
    compute_group_mbrs();
    for (size_t k = min_fill; k <= total - min_fill; ++k) {
      if (k == 0 || k == total) continue;
      const double overlap = prefix[k - 1].OverlapArea(suffix[k]);
      const double area = prefix[k - 1].Area() + suffix[k].Area();
      if (overlap < best_overlap ||
          (overlap == best_overlap && area < best_area)) {
        best_overlap = overlap;
        best_area = area;
        best_by_upper = by_upper;
        best_split = k;
      }
    }
  }

  sort_entries(best_axis, best_by_upper);
  left->assign(entries->begin(),
               entries->begin() + static_cast<long>(best_split));
  right->assign(entries->begin() + static_cast<long>(best_split),
                entries->end());
  entries->clear();
}

void PprTree::SnapshotQuery(const Rect2D& area, Time t,
                            std::vector<PprDataId>* results) const {
  SnapshotQuery(area, t, session_.get(), results);
}

void PprTree::IntervalQuery(const Rect2D& area, const TimeInterval& range,
                            std::vector<PprDataId>* results) const {
  IntervalQuery(area, range, session_.get(), results);
}

void PprTree::SnapshotQuery(const Rect2D& area, Time t, PageCache* buffer,
                            std::vector<PprDataId>* results,
                            QueryProfile* profile) const {
  results->clear();
  // Find the era owning instant t: the last era starting at or before t.
  auto it = std::upper_bound(roots_.begin(), roots_.end(), t,
                             [](Time value, const RootEra& era) {
                               return value < era.start;
                             });
  if (it == roots_.begin()) return;  // before the first insertion
  --it;
  if (it->root == kInvalidPage) return;

  TraceSpan span("ppr", "snapshot_query");
  const IoStats before = buffer->stats();
  std::vector<PageId> stack = {it->root};
  while (!stack.empty()) {
    const PageId id = stack.back();
    stack.pop_back();
    // Pinned for the loop body: the page must survive any evictions a
    // deeper Fetch could cause.
    const PageRef ref = buffer->FetchPinned(id);
    const NodeView node(ref.get());
    if (profile != nullptr) {
      profile->CountNode(node.level());
      if (node.IsLeaf()) {
        profile->leaf_entries_scanned += node.entries().size();
      }
    }
    for (const Entry& entry : node.entries()) {
      if (!entry.lifetime.Contains(t)) continue;
      if (!entry.rect.Intersects(area)) continue;
      if (node.IsLeaf()) {
        results->push_back(entry.data);
      } else {
        stack.push_back(entry.child);
      }
    }
  }
  if (profile != nullptr) {
    profile->candidates += results->size();
    const IoStats after = buffer->stats();
    profile->pages_missed += after.misses - before.misses;
    profile->pages_hit +=
        (after.accesses - before.accesses) - (after.misses - before.misses);
  }
  span.Arg("results", static_cast<int64_t>(results->size()));
}

void PprTree::IntervalQuery(const Rect2D& area, const TimeInterval& range,
                            PageCache* buffer,
                            std::vector<PprDataId>* results,
                            QueryProfile* profile) const {
  results->clear();
  if (!range.IsValid()) return;
  TraceSpan span("ppr", "interval_query");
  const IoStats before = buffer->stats();
  std::unordered_set<PprDataId> seen;
  for (size_t e = 0; e < roots_.size(); ++e) {
    const TimeInterval era(roots_[e].start, e + 1 < roots_.size()
                                                ? roots_[e + 1].start
                                                : kTimeInfinity);
    if (!era.Intersects(range)) continue;
    if (roots_[e].root == kInvalidPage) continue;
    std::vector<PageId> stack = {roots_[e].root};
    while (!stack.empty()) {
      const PageId id = stack.back();
      stack.pop_back();
      const PageRef ref = buffer->FetchPinned(id);
      const NodeView node(ref.get());
      if (profile != nullptr) {
        profile->CountNode(node.level());
        if (node.IsLeaf()) {
          profile->leaf_entries_scanned += node.entries().size();
        }
      }
      for (const Entry& entry : node.entries()) {
        if (!entry.lifetime.Intersects(range)) continue;
        if (!entry.rect.Intersects(area)) continue;
        if (node.IsLeaf()) {
          // The same logical record may have physical copies in several
          // nodes (version splits) and eras; report it once.
          if (seen.insert(entry.data).second) results->push_back(entry.data);
        } else {
          stack.push_back(entry.child);
        }
      }
    }
  }
  if (profile != nullptr) {
    profile->candidates += results->size();
    const IoStats after = buffer->stats();
    profile->pages_missed += after.misses - before.misses;
    profile->pages_hit +=
        (after.accesses - before.accesses) - (after.misses - before.misses);
  }
  span.Arg("results", static_cast<int64_t>(results->size()));
}

std::vector<PprTree::AliveNodeSummary> PprTree::CollectAliveSummaries(
    Time t) const {
  std::vector<AliveNodeSummary> summaries;
  auto it = std::upper_bound(roots_.begin(), roots_.end(), t,
                             [](Time value, const RootEra& era) {
                               return value < era.start;
                             });
  if (it == roots_.begin()) return summaries;
  --it;
  if (it->root == kInvalidPage) return summaries;
  const std::unique_ptr<SharedBufferPool> pool =
      NewPool(config_.buffer_pages, "");
  SharedBufferPool::Session nodes(pool.get());
  std::vector<PageId> stack = {it->root};
  while (!stack.empty()) {
    const PageId id = stack.back();
    stack.pop_back();
    const PageRef ref = nodes.FetchPinned(id);
    const NodeView node(ref.get());
    AliveNodeSummary summary;
    summary.level = node.level();
    summary.rect = Rect2D::Empty();
    for (const Entry& entry : node.entries()) {
      if (!entry.lifetime.Contains(t)) continue;
      ++summary.alive;
      summary.rect.ExpandToInclude(entry.rect);
      if (!node.IsLeaf()) stack.push_back(entry.child);
    }
    if (summary.alive > 0) summaries.push_back(summary);
  }
  return summaries;
}

size_t PprTree::SnapshotCount(const Rect2D& area, Time t) const {
  return SnapshotCount(area, t, session_.get());
}

size_t PprTree::SnapshotCount(const Rect2D& area, Time t,
                              PageCache* buffer) const {
  auto it = std::upper_bound(roots_.begin(), roots_.end(), t,
                             [](Time value, const RootEra& era) {
                               return value < era.start;
                             });
  if (it == roots_.begin()) return 0;
  --it;
  if (it->root == kInvalidPage) return 0;
  size_t count = 0;
  std::vector<PageId> stack = {it->root};
  while (!stack.empty()) {
    const PageId id = stack.back();
    stack.pop_back();
    const PageRef ref = buffer->FetchPinned(id);
    const NodeView node(ref.get());
    for (const Entry& entry : node.entries()) {
      if (!entry.lifetime.Contains(t)) continue;
      if (!entry.rect.Intersects(area)) continue;
      if (node.IsLeaf()) {
        ++count;
      } else {
        stack.push_back(entry.child);
      }
    }
  }
  return count;
}

std::vector<size_t> PprTree::OccupancyHistogram(
    const Rect2D& area, const TimeInterval& range) const {
  STINDEX_CHECK(range.IsValid());
  std::vector<size_t> histogram;
  histogram.reserve(static_cast<size_t>(range.Duration()));
  for (Time t = range.start; t < range.end; ++t) {
    histogram.push_back(SnapshotCount(area, t));
  }
  return histogram;
}

void PprTree::CollectSubtree(PageId root, PageCache* nodes,
                             std::vector<PageId>* out) const {
  std::vector<PageId> stack = {root};
  std::unordered_set<PageId> visited;
  while (!stack.empty()) {
    const PageId id = stack.back();
    stack.pop_back();
    if (!visited.insert(id).second) continue;
    out->push_back(id);
    const PageRef ref = nodes->FetchPinned(id);
    const NodeView node(ref.get());
    if (node.IsLeaf()) continue;
    for (const Entry& entry : node.entries()) stack.push_back(entry.child);
  }
}

void PprTree::CheckInvariants() const {
  // Pages come through an unpublished pool, so a frozen tree's backend is
  // checked as well as a live tree's arena.
  const std::unique_ptr<SharedBufferPool> pool =
      NewPool(config_.buffer_pages, "");
  SharedBufferPool::Session pages(pool.get());

  // Structural checks over every reachable node.
  std::vector<PageId> nodes;
  std::unordered_set<PageId> unique;
  for (const RootEra& era : roots_) {
    if (era.root == kInvalidPage) continue;
    std::vector<PageId> subtree;
    CollectSubtree(era.root, &pages, &subtree);
    for (PageId id : subtree) {
      if (unique.insert(id).second) nodes.push_back(id);
    }
  }
  for (PageId id : nodes) {
    const PageRef ref = pages.FetchPinned(id);
    const NodeView node(ref.get());
    STINDEX_CHECK(node.entries().size() <= config_.max_entries);
    for (const Entry& entry : node.entries()) {
      STINDEX_CHECK(entry.lifetime.start < entry.lifetime.end);
      STINDEX_CHECK(entry.lifetime.start >= node.header().created);
      STINDEX_CHECK(entry.lifetime.end <= node.header().closed);
      STINDEX_CHECK(entry.rect.IsValid());
      if (!node.IsLeaf()) {
        const PageRef child = pages.FetchPinned(entry.child);
        STINDEX_CHECK(NodeView(child.get()).level() == node.level() - 1);
      }
    }
  }

  // Per-instant checks at era boundaries and a few interior instants:
  // visited non-root nodes satisfy the weak-version bound, and every data
  // rect alive at t is covered by every ancestor directory rect on its
  // path (checked via the running intersection of covers). Directory
  // entry rects themselves may exceed a *historical* parent's rect:
  // in-place MBR expansion rewrites intermediate rects anachronistically,
  // which inflates traversal slightly but cannot cause false dismissals —
  // data rects are immutable and were covered when inserted.
  for (size_t e = 0; e < roots_.size(); ++e) {
    if (roots_[e].root == kInvalidPage) continue;
    const Time era_start = roots_[e].start;
    const Time era_end =
        e + 1 < roots_.size() ? roots_[e + 1].start : current_time_ + 1;
    std::vector<Time> samples = {era_start, era_end - 1,
                                 era_start + (era_end - era_start) / 2};
    for (Time t : samples) {
      if (t < era_start || t >= era_end) continue;
      // (node, is_root, intersection of ancestor covers)
      const Rect2D everything(-1e300, -1e300, 1e300, 1e300);
      std::vector<std::pair<PageId, std::pair<bool, Rect2D>>> stack;
      stack.push_back({roots_[e].root, {true, everything}});
      while (!stack.empty()) {
        auto [id, info] = stack.back();
        stack.pop_back();
        const auto& [is_root, cover] = info;
        const PageRef ref = pages.FetchPinned(id);
        const NodeView node(ref.get());
        size_t alive = 0;
        for (const Entry& entry : node.entries()) {
          if (!entry.lifetime.Contains(t)) continue;
          ++alive;
          if (node.IsLeaf()) {
            STINDEX_CHECK_MSG(cover.Contains(entry.rect),
                              "ancestor rects do not cover alive data");
          } else {
            stack.push_back(
                {entry.child, {false, cover.Intersection(entry.rect)}});
          }
        }
        if (!is_root) {
          STINDEX_CHECK_MSG(alive >= WeakMin(),
                            "weak version bound violated");
        }
      }
    }
  }
}

void PprTree::EncodeCheckpointMeta(ByteSink* out) const {
  out->Write(static_cast<uint64_t>(size_));
  out->Write(current_time_);
  out->Write(static_cast<uint64_t>(roots_.size()));
  for (const RootEra& era : roots_) {
    out->Write(era.start);
    out->Write(era.root);
  }
}

Status PprTree::DecodeCheckpointMeta(ByteSource* in) {
  STINDEX_CHECK_MSG(roots_.empty() && NodeCount() == 0,
                    "checkpoint restore into a non-empty tree");
  uint64_t size = 0;
  uint64_t root_count = 0;
  if (!in->Read(&size) || !in->Read(&current_time_) || !in->Read(&root_count)) {
    return Status::InvalidArgument("checkpoint: truncated PPR-tree meta");
  }
  size_ = static_cast<size_t>(size);
  roots_.reserve(static_cast<size_t>(root_count));
  for (uint64_t i = 0; i < root_count; ++i) {
    RootEra era;
    if (!in->Read(&era.start) || !in->Read(&era.root)) {
      return Status::InvalidArgument("checkpoint: truncated root journal");
    }
    roots_.push_back(era);
  }
  return Status::OK();
}

Status PprTree::PersistNodesForCheckpoint(
    PageBackend* backend, const std::vector<PageId>& slots) const {
  // A live tree seals copies of its arena pages; a tree frozen by
  // PackSnapshot copies its snapshot pages, which are sealed already.
  STINDEX_CHECK(slots.size() == NodeCount());
  Page page;
  for (PageId id = 0; id < slots.size(); ++id) {
    if (arena_ != nullptr) {
      std::memcpy(page.bytes, arena_->BorrowPage(id), kPageSize);
      SealPage(page.bytes, PageKind::kPprNode);
    } else {
      Status status = backend_->Read(id, page.bytes);
      if (!status.ok()) return status;
    }
    Status status = backend->Write(slots[id], page.bytes);
    if (!status.ok()) {
      return Status(status.code(),
                    "write of page " + std::to_string(slots[id]) +
                        " failed: " + status.message());
    }
  }
  return Status::OK();
}

Status PprTree::InstallCheckpointNode(PageId id, const uint8_t* page) {
  STINDEX_CHECK_MSG(arena_ != nullptr,
                    "checkpoint restore into an attached tree");
  STINDEX_CHECK(NodeCount() == id);
  Status status = codec_->Check(page, id);
  if (!status.ok()) return status;
  const PageId allocated = arena_->Allocate();
  STINDEX_CHECK(allocated == id);
  Page& copy = arena_->MutablePage(id);
  std::memcpy(copy.bytes, page, kPageSize);
  const NodeView node(&copy);
  for (const Entry& entry : node.entries()) {
    if (entry.IsAlive()) {
      if (node.IsLeaf()) {
        alive_location_[entry.data] = id;
      } else {
        parent_of_[entry.child] = id;
      }
    }
  }
  return Status::OK();
}

namespace {

// The replay order of `records`' 2N events, each encoded as 2 * record +
// (1 for the insert at interval.start, 0 for the delete at interval.end)
// in 32 bits, which halves the order and its radix scratch against 64:
// by time, deletes before inserts at equal times (a record with lifetime
// [a, b) is gone at instant b), then by record. The events start out
// ordered by (kind, record), and stable LSD radix passes over the time
// offset from the earliest instant, at most 16 bits per pass, then order
// them by time: the exact order a comparison sort on (time, kind, record)
// gives, in linear time however wide the time span.
std::vector<uint32_t> ReplayOrder(const std::vector<SegmentRecord>& records) {
  const size_t n = records.size();
  STINDEX_CHECK_MSG(n < (size_t{1} << 31),
                    "too many records for 32-bit replay events");
  std::vector<uint32_t> order(2 * n);
  if (n == 0) return order;
  Time first = records[0].box.interval.start;
  Time last = first;
  for (size_t i = 0; i < n; ++i) {
    order[i] = static_cast<uint32_t>(2 * i);          // deletes, by record
    order[n + i] = static_cast<uint32_t>(2 * i + 1);  // then inserts
    const TimeInterval& life = records[i].box.interval;
    first = std::min({first, life.start, life.end});
    last = std::max({last, life.start, life.end});
  }
  auto offset = [&records, first](uint32_t event) {
    const TimeInterval& life = records[event >> 1].box.interval;
    return static_cast<uint64_t>((event & 1) != 0 ? life.start : life.end) -
           static_cast<uint64_t>(first);
  };
  const int bits = static_cast<int>(std::bit_width(
      static_cast<uint64_t>(last) - static_cast<uint64_t>(first)));
  if (bits == 0) return order;
  const int passes = (bits + 15) / 16;
  const int digit_bits = (bits + passes - 1) / passes;
  const uint64_t mask = (uint64_t{1} << digit_bits) - 1;
  std::vector<uint32_t> scratch(order.size());
  std::vector<size_t> start(size_t{1} << digit_bits);
  for (int shift = 0; shift < bits; shift += digit_bits) {
    std::fill(start.begin(), start.end(), 0);
    for (const uint32_t event : order) ++start[(offset(event) >> shift) & mask];
    size_t sum = 0;
    for (size_t& bucket : start) sum += std::exchange(bucket, sum);
    for (const uint32_t event : order) {
      scratch[start[(offset(event) >> shift) & mask]++] = event;
    }
    order.swap(scratch);
  }
  return order;
}

}  // namespace

std::unique_ptr<PprTree> BuildPprTree(
    const std::vector<SegmentRecord>& records, PprConfig config) {
  auto tree = std::make_unique<PprTree>(config);
  TraceSpan span("ppr", "build");
  span.Arg("records", static_cast<int64_t>(records.size()));
  // Replay the evolution: one insert and one delete event per record.
  for (const uint32_t event : ReplayOrder(records)) {
    const uint32_t index = event >> 1;
    const SegmentRecord& record = records[index];
    if ((event & 1) != 0) {
      tree->Insert(record.box.rect, record.box.interval.start, index);
    } else {
      tree->Delete(index, record.box.interval.end);
    }
  }
  return tree;
}

}  // namespace stindex
