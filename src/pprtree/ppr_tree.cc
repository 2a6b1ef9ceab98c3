#include "pprtree/ppr_tree.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <type_traits>
#include <unordered_set>
#include <utility>

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

// Slot `slot` of an alive-slot bitmap.
constexpr uint64_t SlotBit(size_t slot) { return uint64_t{1} << slot; }

// The alive-slot bitmap of `entries`.
template <typename Entries>
uint64_t AliveSlots(const Entries& entries) {
  uint64_t alive = 0;
  for (size_t s = 0; s < entries.size(); ++s) {
    if (entries[s].IsAlive()) alive |= SlotBit(s);
  }
  return alive;
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

// The check on sealed node pages tolerates max_entries + 1 entries, the
// transient overflow state.
PprTree::PprTree(PprConfig config)
    : config_(config),
      pages_("ppr", config.buffer_pages,
             NodePageCheck(PageKind::kPprNode, "PPR-tree",
                           config.max_entries + 1)) {
  // The node page layout (Header and Entry above).
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
  STINDEX_CHECK_MSG(config_.max_entries + 1 <= kNodePageCapacity,
                    "PPR-tree fanout does not fit a node page");
  static_assert(kNodePageCapacity <= 64, "alive-slot bitmaps are 64 bits");
  STINDEX_CHECK(config_.max_entries >= 4);
  STINDEX_CHECK(config_.p_version > 0.0 && config_.p_version < 1.0);
  STINDEX_CHECK(config_.p_svu > config_.p_version);
  STINDEX_CHECK(config_.p_svo > config_.p_svu && config_.p_svo <= 1.0);
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

size_t PprTree::LocationTable::Home(PprDataId data) const {
  // Fibonacci hashing: the top bits of the product spread consecutive ids.
  return static_cast<size_t>((data * 0x9E3779B97F4A7C15ull) >> shift_);
}

size_t PprTree::LocationTable::Probe(PprDataId data) const {
  const size_t mask = slots_.size() - 1;
  size_t i = Home(data);
  while (slots_[i].place.node != kInvalidPage && slots_[i].data != data) {
    i = (i + 1) & mask;
  }
  return i;
}

const PprTree::Place* PprTree::LocationTable::Find(PprDataId data) const {
  if (size_ == 0) return nullptr;
  const Slot& slot = slots_[Probe(data)];
  return slot.place.node != kInvalidPage ? &slot.place : nullptr;
}

void PprTree::LocationTable::Set(PprDataId data, Place place) {
  STINDEX_DCHECK(place.node != kInvalidPage);
  if (2 * (size_ + 1) > slots_.size()) {
    // Double (from 16 slots) and reinsert.
    std::vector<Slot> old(std::max<size_t>(16, 2 * slots_.size()));
    old.swap(slots_);
    shift_ = 64 - std::countr_zero(slots_.size());
    for (const Slot& slot : old) {
      if (slot.place.node != kInvalidPage) slots_[Probe(slot.data)] = slot;
    }
  }
  Slot& slot = slots_[Probe(data)];
  if (slot.place.node == kInvalidPage) ++size_;
  slot = Slot{data, place};
}

bool PprTree::LocationTable::Take(PprDataId data, Place* place) {
  if (size_ == 0) return false;
  size_t hole = Probe(data);
  if (slots_[hole].place.node == kInvalidPage) return false;
  *place = slots_[hole].place;
  --size_;
  // Backward shift: pull each later entry of the probe run whose home is
  // not after the hole into it, so no probe run is broken.
  const size_t mask = slots_.size() - 1;
  for (size_t next = (hole + 1) & mask; slots_[next].place.node != kInvalidPage;
       next = (next + 1) & mask) {
    const size_t home = Home(slots_[next].data);
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      slots_[hole] = slots_[next];
      hole = next;
    }
  }
  slots_[hole] = Slot{};
  return true;
}

PprTree::NodeView PprTree::View(PageId id) const {
  return NodeView(&pages_.arena().MutablePage(id));
}

PprTree::Node PprTree::Mutate(PageId id) {
  return Node(&pages_.arena().MutablePage(id));
}

Status PprTree::PackSnapshot(const std::string& path,
                             const std::function<void(ByteSink*)>& attach) {
  Result<std::vector<PageId>> packed = pages_.Pack(
      path,
      [](Page* page, const std::vector<PageId>& remap) {
        for (Entry& entry : Node(page).entries()) {
          if (entry.child != kInvalidPage) entry.child = remap[entry.child];
        }
      },
      attach);
  if (!packed.ok()) return packed.status();

  // Committed: the root journal follows the remap.
  const std::vector<PageId>& remap = packed.value();
  for (RootEra& era : roots_) {
    if (era.root != kInvalidPage) era.root = remap[era.root];
  }
  DropReplayBookkeeping();
  return Status::OK();
}

Status PprTree::AdoptSnapshot(std::unique_ptr<MmapSnapshotBackend> snapshot) {
  STINDEX_CHECK_MSG(PageCount() == 0, "adopting a snapshot into a built tree");
  for (size_t e = 0; e < roots_.size(); ++e) {
    if (roots_[e].root != kInvalidPage &&
        roots_[e].root >= snapshot->SlotCount()) {
      return Status::InvalidArgument(
          "root of era " + std::to_string(e) + " is node " +
          std::to_string(roots_[e].root) + ", but the snapshot holds " +
          std::to_string(snapshot->SlotCount()) + " nodes");
    }
  }
  pages_.Adopt(std::move(snapshot));
  DropReplayBookkeeping();
  return Status::OK();
}

void PprTree::DropReplayBookkeeping() {
  alive_location_ = LocationTable();
  alive_slots_ = {};
  parent_of_ = {};
}

size_t PprTree::NumRoots() const { return roots_.size(); }

PageId PprTree::CurrentRoot() const {
  return roots_.empty() ? kInvalidPage : roots_.back().root;
}

PageId PprTree::RootAt(Time t) const {
  // The last era starting at or before t.
  auto it = std::upper_bound(roots_.begin(), roots_.end(), t,
                             [](Time value, const RootEra& era) {
                               return value < era.start;
                             });
  return it == roots_.begin() ? kInvalidPage : (it - 1)->root;
}

void PprTree::StartNewEra(PageId root, Time t) {
  if (!roots_.empty() && roots_.back().start == t) {
    roots_.back().root = root;  // same-instant restructure: collapse eras
    return;
  }
  STINDEX_CHECK(roots_.empty() || roots_.back().start < t);
  roots_.push_back(RootEra{t, root});
}

void PprTree::TrackNode(PageId id) {
  STINDEX_CHECK(id == alive_slots_.size());
  alive_slots_.push_back(0);
  parent_of_.emplace_back();
}

template <typename Match>
size_t PprTree::FindAliveSlot(PageId id, size_t hint, Match match) const {
  uint64_t alive = alive_slots_[id];
  if (hint < kNodePageCapacity && (alive & SlotBit(hint)) != 0 &&
      match(hint)) {
    return hint;
  }
  for (; alive != 0; alive &= alive - 1) {
    const auto slot = static_cast<size_t>(std::countr_zero(alive));
    if (match(slot)) return slot;
  }
  return SIZE_MAX;
}

PageId PprTree::MakeNode(int level, const std::vector<Entry>& entries,
                         Time now) {
  const PageId id = pages_.arena().Allocate();
  TrackNode(id);
  Node node = Mutate(id);
  node.header() = Header{level, 0, now, kTimeInfinity};
  for (uint32_t slot = 0; slot < entries.size(); ++slot) {
    const Entry& entry = entries[slot];
    AppendAlive(node, id, entry);
    if (level == 0) {
      alive_location_.Set(entry.data, Place{id, slot});
    } else {
      parent_of_[entry.child] = Place{id, slot};
    }
  }
  return id;
}

void PprTree::AppendAlive(Node node, PageId id, const Entry& entry) {
  STINDEX_DCHECK(entry.IsAlive());
  node.Append(entry);
  alive_slots_[id] |= SlotBit(node.entries().size() - 1);
}

bool PprTree::KillEntry(Node node, PageId id, size_t slot, Time now) {
  Entry& entry = node.entries()[slot];
  STINDEX_CHECK(entry.IsAlive());
  uint64_t& alive = alive_slots_[id];
  alive &= ~SlotBit(slot);
  if (entry.lifetime.start != now) {
    entry.lifetime.end = now;
    return false;
  }
  node.Erase(slot);
  const uint64_t below = SlotBit(slot) - 1;
  alive = (alive & below) | ((alive >> 1) & ~below);
  return true;
}

void PprTree::DescendForInsert(const Rect2D& rect) {
  path_.clear();
  PageId current = CurrentRoot();
  STINDEX_CHECK(current != kInvalidPage);
  path_.push_back(Frame{current, SIZE_MAX});
  NodeView node = View(current);
  while (!node.IsLeaf()) {
    // Least area enlargement among the alive entries, then least area,
    // then the first slot, in one pass over the alive slots.
    size_t best = SIZE_MAX;
    double best_enlargement = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    const std::span<const Entry> entries = node.entries();
    for (uint64_t alive = alive_slots_[current]; alive != 0;
         alive &= alive - 1) {
      const auto i = static_cast<size_t>(std::countr_zero(alive));
      const double area = entries[i].rect.Area();
      const double enlargement = entries[i].rect.Union(rect).Area() - area;
      const bool better =
          enlargement < best_enlargement ||
          (enlargement == best_enlargement && area < best_area);
      best = better ? i : best;
      best_enlargement = better ? enlargement : best_enlargement;
      best_area = better ? area : best_area;
    }
    STINDEX_CHECK_MSG(best != SIZE_MAX,
                      "directory node without alive entries on insert path");
    current = entries[best].child;
    path_.push_back(Frame{current, best});
    node = View(current);
  }
}

void PprTree::PathToAliveLeaf(PageId leaf) {
  // Climb the alive-parent links, then resolve entry slots downward.
  chain_.assign(1, leaf);
  for (PageId parent = parent_of_[leaf].node; parent != kInvalidPage;
       parent = parent_of_[parent].node) {
    chain_.push_back(parent);
  }
  STINDEX_CHECK_MSG(chain_.back() == CurrentRoot(),
                    "alive leaf is not reachable from the current root");
  path_.clear();
  path_.push_back(Frame{chain_.back(), SIZE_MAX});
  for (size_t i = chain_.size() - 1; i-- > 0;) {
    const PageId child = chain_[i];
    const std::span<const Entry> entries = View(chain_[i + 1]).entries();
    const size_t slot =
        FindAliveSlot(chain_[i + 1], parent_of_[child].slot,
                      [&](size_t s) { return entries[s].child == child; });
    STINDEX_CHECK_MSG(slot != SIZE_MAX, "stale parent link");
    path_.push_back(Frame{child, slot});
  }
}

void PprTree::ExpandPathRects(const std::vector<Frame>& path,
                              const Rect2D& rect) {
  for (size_t i = 1; i < path.size(); ++i) {
    Mutate(path[i - 1].node).entries()[path[i].slot].rect.ExpandToInclude(
        rect);
  }
}

void PprTree::Insert(const Rect2D& rect, Time t, PprDataId data) {
  STINDEX_CHECK_MSG(!pages_.frozen(),
                    "PprTree is frozen: it serves a packed snapshot");
  STINDEX_CHECK_MSG(rect.IsValid(), "inserting an invalid rect");
  STINDEX_CHECK_MSG(t >= current_time_, "updates must be fed in time order");
  STINDEX_CHECK_MSG(alive_location_.Find(data) == nullptr,
                    "record is already alive");
  current_time_ = t;
  ++size_;

  Entry entry;
  entry.rect = rect;
  entry.lifetime = TimeInterval(t, kTimeInfinity);
  entry.data = data;

  // MakeNode records the location on the paths that create a node.
  if (CurrentRoot() == kInvalidPage) {
    const PageId root = MakeNode(0, {entry}, t);
    StartNewEra(root, t);
    return;
  }

  DescendForInsert(rect);
  ExpandPathRects(path_, rect);
  const PageId leaf_id = path_.back().node;
  Node leaf = Mutate(leaf_id);
  if (leaf.entries().size() >= config_.max_entries) {
    Restructure(&path_, {entry}, t);
    return;
  }
  AppendAlive(leaf, leaf_id, entry);
  alive_location_.Set(
      data, Place{leaf_id, static_cast<uint32_t>(leaf.entries().size() - 1)});
}

void PprTree::Delete(PprDataId data, Time t) {
  STINDEX_CHECK_MSG(!pages_.frozen(),
                    "PprTree is frozen: it serves a packed snapshot");
  STINDEX_CHECK_MSG(t >= current_time_, "updates must be fed in time order");
  current_time_ = t;
  Place place;
  STINDEX_CHECK_MSG(alive_location_.Take(data, &place), "record is not alive");
  const PageId leaf_id = place.node;

  PathToAliveLeaf(leaf_id);
  Node leaf = Mutate(leaf_id);
  const std::span<const Entry> entries = leaf.entries();
  const size_t slot = FindAliveSlot(
      leaf_id, place.slot, [&](size_t s) { return entries[s].data == data; });
  STINDEX_CHECK_MSG(slot != SIZE_MAX, "alive record missing from its leaf");
  KillEntry(leaf, leaf_id, slot, t);

  if (path_.size() == 1) {
    // Root leaf: exempt from the weak-version bound, but close the era
    // when nothing is left alive.
    FinalizeRoot(leaf_id, t);
    return;
  }
  if (static_cast<size_t>(std::popcount(alive_slots_[leaf_id])) < WeakMin()) {
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
  const int level = View(path->back().node).level();
  const bool is_root = path->size() == 1;
  static Counter* const version_splits =
      MetricRegistry::Global().GetCounter("ppr.version_splits");
  version_splits->Increment();

  // Copies the alive entries of node `id`, in slot order, with lifetime
  // [now, inf) and kills them; `erased` counts the slots removed so far,
  // which shift the later ones down.
  auto truncate_alive = [this, now](PageId id, std::vector<Entry>* copies) {
    Node victim = Mutate(id);
    size_t erased = 0;
    for (uint64_t alive = alive_slots_[id]; alive != 0; alive &= alive - 1) {
      const size_t slot = static_cast<size_t>(std::countr_zero(alive)) - erased;
      Entry copy = victim.entries()[slot];
      copy.lifetime = TimeInterval(now, kTimeInfinity);
      copies->push_back(copy);
      if (KillEntry(victim, id, slot, now)) ++erased;
    }
    victim.header().closed = now;
  };

  std::vector<Entry> copies;
  truncate_alive(path->back().node, &copies);
  for (Entry& entry : pending) {
    STINDEX_DCHECK(entry.lifetime.start == now && entry.IsAlive());
    copies.push_back(entry);
  }

  // Strong version underflow: merge with the nearest alive sibling.
  std::optional<size_t> sibling_slot;
  if (!is_root && copies.size() < StrongMin()) {
    const PageId parent_id = (*path)[path->size() - 2].node;
    const Rect2D our_mbr = [&copies]() {
      Rect2D mbr = Rect2D::Empty();
      for (const Entry& entry : copies) mbr.ExpandToInclude(entry.rect);
      return mbr;
    }();
    double best_distance = std::numeric_limits<double>::infinity();
    const std::span<const Entry> siblings = View(parent_id).entries();
    for (uint64_t alive = alive_slots_[parent_id]; alive != 0;
         alive &= alive - 1) {
      const auto s = static_cast<size_t>(std::countr_zero(alive));
      if (s == path->back().slot) continue;
      const double distance =
          copies.empty() ? 0.0 : CenterDistance2(our_mbr, siblings[s].rect);
      if (distance < best_distance) {
        best_distance = distance;
        sibling_slot = s;
      }
    }
    if (sibling_slot.has_value()) {
      truncate_alive(siblings[*sibling_slot].child, &copies);
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
    dir.rect = AliveMbr(View(id).entries());
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
  const PageId parent_id = path->back().node;
  Node parent = Mutate(parent_id);
  if (sibling_slot.has_value()) kill_slots.push_back(*sibling_slot);
  std::sort(kill_slots.rbegin(), kill_slots.rend());
  for (size_t slot : kill_slots) KillEntry(parent, parent_id, slot, now);

  AddEntries(path, std::move(adds), now);
}

void PprTree::AddEntries(std::vector<Frame>* path, std::vector<Entry> adds,
                         Time now) {
  const PageId id = path->back().node;
  // The node lost the entries Restructure killed: it is dirty already.
  Node node = Mutate(id);
  STINDEX_CHECK(!node.IsLeaf());

  if (!adds.empty() &&
      node.entries().size() + adds.size() > config_.max_entries) {
    Restructure(path, std::move(adds), now);
    return;
  }
  for (const Entry& entry : adds) {
    ExpandPathRects(*path, entry.rect);
    AppendAlive(node, id, entry);
    parent_of_[entry.child] =
        Place{id, static_cast<uint32_t>(node.entries().size() - 1)};
  }

  if (path->size() == 1) {
    FinalizeRoot(id, now);
    return;
  }
  if (static_cast<size_t>(std::popcount(alive_slots_[id])) < WeakMin()) {
    Restructure(path, {}, now);
  }
}

void PprTree::FinalizeRoot(PageId root, Time now) {
  // Collapse directory roots with a single alive child: otherwise that
  // child would be a non-root node with no sibling to merge with, and the
  // weak-version invariant could not be maintained.
  while (root != kInvalidPage) {
    const uint64_t alive = alive_slots_[root];
    if (alive == 0) {
      Mutate(root).header().closed = now;
      root = kInvalidPage;
      break;
    }
    if (View(root).IsLeaf() || !std::has_single_bit(alive)) break;
    // Promote the only alive child.
    Node node = Mutate(root);
    const auto slot = static_cast<size_t>(std::countr_zero(alive));
    const PageId child = node.entries()[slot].child;
    KillEntry(node, root, slot, now);
    node.header().closed = now;
    parent_of_[child] = Place{};
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
  SnapshotQuery(area, t, pages_.session(), results);
}

void PprTree::IntervalQuery(const Rect2D& area, const TimeInterval& range,
                            std::vector<PprDataId>* results) const {
  IntervalQuery(area, range, pages_.session(), results);
}

void PprTree::SnapshotQuery(const Rect2D& area, Time t, PageCache* buffer,
                            std::vector<PprDataId>* results,
                            QueryProfile* profile) const {
  results->clear();
  const PageId root = RootAt(t);
  if (root == kInvalidPage) return;
  TraceSpan span("ppr", "snapshot_query");
  const IoStats before = buffer->stats();
  WalkNodes<NodeView>(
      buffer, root, profile,
      [&](const NodeView&, const Entry& entry) {
        return entry.lifetime.Contains(t) && entry.rect.Intersects(area);
      },
      [&](const Entry& entry) { results->push_back(entry.data); });
  ProfileQuery(profile, before, *buffer, results->size());
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
    WalkNodes<NodeView>(
        buffer, roots_[e].root, profile,
        [&](const NodeView&, const Entry& entry) {
          return entry.lifetime.Intersects(range) &&
                 entry.rect.Intersects(area);
        },
        // The same logical record may have physical copies in several
        // nodes (version splits) and eras; report it once.
        [&](const Entry& entry) {
          if (seen.insert(entry.data).second) results->push_back(entry.data);
        });
  }
  ProfileQuery(profile, before, *buffer, results->size());
  span.Arg("results", static_cast<int64_t>(results->size()));
}

std::vector<PprTree::AliveNodeSummary> PprTree::CollectAliveSummaries(
    Time t) const {
  std::vector<AliveNodeSummary> summaries;
  const PageId root = RootAt(t);
  if (root == kInvalidPage) return summaries;
  const std::unique_ptr<SharedBufferPool> pool = pages_.NewUnpublishedPool();
  SharedBufferPool::Session nodes(pool.get());
  // A node's entries are tested in slot order: its first opens its
  // summary, and every entry alive at t counts and leads on.
  WalkNodes<NodeView>(
      &nodes, root, nullptr,
      [&](const NodeView& node, const Entry& entry) {
        if (&entry == node.entries().data()) {
          summaries.push_back({node.level(), Rect2D::Empty(), 0});
        }
        if (!entry.lifetime.Contains(t)) return false;
        ++summaries.back().alive;
        summaries.back().rect.ExpandToInclude(entry.rect);
        return true;
      },
      [](const Entry&) {});
  std::erase_if(summaries,
                [](const AliveNodeSummary& s) { return s.alive == 0; });
  return summaries;
}

std::vector<std::pair<PprDataId, STBox>> PprTree::Records() const {
  const std::unique_ptr<SharedBufferPool> pool = pages_.NewUnpublishedPool();
  SharedBufferPool::Session pages(pool.get());
  std::map<PprDataId, STBox> records;
  for (PageId id = 0; id < PageCount(); ++id) {
    const PageRef ref = pages.FetchPinned(id);
    const NodeView node(ref.get());
    if (!node.IsLeaf()) continue;
    for (const Entry& entry : node.entries()) {
      const auto [it, added] =
          records.try_emplace(entry.data, entry.rect, entry.lifetime);
      TimeInterval& life = it->second.interval;
      if (!added) {
        life = TimeInterval(std::min(life.start, entry.lifetime.start),
                            std::max(life.end, entry.lifetime.end));
      }
    }
  }
  return {records.begin(), records.end()};
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
  // Pages come through an unpublished pool, so a frozen tree's snapshot is
  // checked as well as a live tree's arena.
  const std::unique_ptr<SharedBufferPool> pool = pages_.NewUnpublishedPool();
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

  CheckReplayBookkeeping();
}

void PprTree::CheckReplayBookkeeping() const {
  if (pages_.frozen()) {
    STINDEX_CHECK(alive_slots_.empty() && parent_of_.empty());
    return;
  }
  STINDEX_CHECK(alive_slots_.size() == PageCount() &&
                parent_of_.size() == PageCount());
  for (PageId id = 0; id < PageCount(); ++id) {
    STINDEX_CHECK_MSG(alive_slots_[id] == AliveSlots(View(id).entries()),
                      "alive-slot bitmap disagrees with its node page");
  }
  // The alive entries form the current ephemeral tree: walk it from the
  // current root, checking each alive node's parent link and each alive
  // record's location.
  size_t alive_records = 0;
  if (CurrentRoot() != kInvalidPage) {
    STINDEX_CHECK_MSG(parent_of_[CurrentRoot()].node == kInvalidPage,
                      "the current root has a parent link");
    std::vector<PageId> stack = {CurrentRoot()};
    while (!stack.empty()) {
      const PageId id = stack.back();
      stack.pop_back();
      const NodeView node = View(id);
      for (const Entry& entry : node.entries()) {
        if (!entry.IsAlive()) continue;
        if (node.IsLeaf()) {
          ++alive_records;
          const Place* location = alive_location_.Find(entry.data);
          STINDEX_CHECK_MSG(location != nullptr && location->node == id,
                            "alive record location disagrees with its leaf");
        } else {
          STINDEX_CHECK_MSG(parent_of_[entry.child].node == id,
                            "parent link disagrees with the alive entry");
          stack.push_back(entry.child);
        }
      }
    }
  }
  STINDEX_CHECK_MSG(alive_records == alive_location_.size(),
                    "alive record locations outside the current tree");
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

Status PprTree::DecodeCheckpointMeta(PageReader* in) {
  STINDEX_CHECK_MSG(roots_.empty() && PageCount() == 0,
                    "checkpoint restore into a non-empty tree");
  uint64_t size = 0;
  uint64_t root_count = 0;
  if (!in->Read(&size) || !in->Read(&current_time_) || !in->Read(&root_count)) {
    return Status::InvalidArgument("checkpoint: truncated PPR-tree meta");
  }
  if (root_count > in->remaining() / (sizeof(Time) + sizeof(PageId))) {
    return Status::InvalidArgument(
        "checkpoint: PPR-tree root journal of " + std::to_string(root_count) +
        " eras overruns the " + std::to_string(in->remaining()) +
        " metadata bytes left");
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

namespace {

// Whether an event at `t` comes before the bound `below`; kTimeInfinity
// bounds nothing.
bool Before(Time t, Time below) { return below == kTimeInfinity || t < below; }

// The first record a container holds: a table may have dropped a prefix.
size_t FirstRecord(const std::vector<SegmentRecord>&) { return 0; }
size_t FirstRecord(const SegmentTable& records) { return records.base(); }

// The replay order of the events of `records` that ReplayPprEvents feeds,
// each encoded as 2 * record + (1 for the insert at interval.start, 0 for
// the delete at interval.end) in 32 bits, which halves the order and its
// radix scratch against 64: by time, deletes before inserts at equal
// times (a record with lifetime [a, b) is gone at instant b), then by
// record. The events start out ordered by (kind, record), and stable LSD
// radix passes over the time offset from the earliest instant, at most 16
// bits per pass, then order them by time: the exact order a comparison
// sort on (time, kind, record) gives, in linear time however wide the
// time span.
template <typename Records>
std::vector<uint32_t> ReplayOrder(const Records& records, Time from,
                                  Time below) {
  const size_t n = records.size();
  STINDEX_CHECK_MSG(n < (size_t{1} << 31),
                    "too many records for 32-bit replay events");
  std::vector<uint32_t> order;
  order.reserve(2 * (n - FirstRecord(records)));
  Time first = std::numeric_limits<Time>::max();
  Time last = std::numeric_limits<Time>::min();
  const auto add = [&](size_t record, bool insert, Time t) {
    order.push_back(static_cast<uint32_t>(2 * record + (insert ? 1 : 0)));
    first = std::min(first, t);
    last = std::max(last, t);
  };
  for (size_t i = FirstRecord(records); i < n; ++i) {  // deletes, by record
    const TimeInterval& life = records[i].box.interval;
    if (life.start >= from && Before(life.end, below)) add(i, false, life.end);
  }
  for (size_t i = FirstRecord(records); i < n; ++i) {  // then inserts
    const TimeInterval& life = records[i].box.interval;
    if (life.start >= from && Before(life.start, below)) {
      add(i, true, life.start);
    }
  }
  if (order.empty()) return order;
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

// ReplayPprEvents over either record container.
template <typename Records>
void ReplayEvents(const Records& records, Time from, Time below,
                  PprTree* tree) {
  // Time order visits the records out of memory order, so each event's
  // record is prefetched a few events ahead.
  constexpr size_t kPrefetchAhead = 8;
  const std::vector<uint32_t> order = ReplayOrder(records, from, below);
  for (size_t i = 0; i < order.size(); ++i) {
    if (i + kPrefetchAhead < order.size()) {
      __builtin_prefetch(&records[order[i + kPrefetchAhead] >> 1].box);
    }
    const uint32_t event = order[i];
    const uint32_t index = event >> 1;
    const SegmentRecord& record = records[index];
    if ((event & 1) != 0) {
      tree->Insert(record.box.rect, record.box.interval.start, index);
    } else {
      tree->Delete(index, record.box.interval.end);
    }
  }
}

}  // namespace

void ReplayPprEvents(const std::vector<SegmentRecord>& records, Time from,
                     Time below, PprTree* tree) {
  ReplayEvents(records, from, below, tree);
}

void ReplayPprEvents(const SegmentTable& records, Time from, Time below,
                     PprTree* tree) {
  ReplayEvents(records, from, below, tree);
}

std::unique_ptr<PprTree> BuildPprTree(
    const std::vector<SegmentRecord>& records, PprConfig config) {
  auto tree = std::make_unique<PprTree>(config);
  TraceSpan span("ppr", "build");
  span.Arg("records", static_cast<int64_t>(records.size()));
  // Replay the evolution: one insert and one delete event per record.
  ReplayPprEvents(records, std::numeric_limits<Time>::min(), kTimeInfinity,
                  tree.get());
  return tree;
}

}  // namespace stindex
