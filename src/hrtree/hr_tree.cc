#include "hrtree/hr_tree.h"

#include <algorithm>
#include <limits>
#include <span>
#include <unordered_set>

#include "util/check.h"

namespace stindex {

struct HrTree::Version {
  Time start = 0;
  PageId root = kInvalidPage;
};

struct HrTree::Entry {
  Rect2D rect;
  PageId child = kInvalidPage;  // internal nodes
  uint32_t reserved = 0;
  HrDataId data = 0;            // leaves
};

// The node page header, right after the (never sealed) envelope.
struct HrTree::Header {
  int32_t level;
  uint32_t count;
  Time created;
};

namespace {

template <typename Entries>
Rect2D Mbr(const Entries& entries) {
  Rect2D mbr = Rect2D::Empty();
  for (const auto& entry : entries) mbr.ExpandToInclude(entry.rect);
  return mbr;
}

}  // namespace

// The HR-tree is never packed, so its pages are never sealed or checked.
HrTree::HrTree(HrConfig config)
    : config_(config), pages_("hr", config.buffer_pages, std::nullopt) {
  static_assert(kPageEnvelopeBytes + sizeof(Header) == kNodeEntryOffset &&
                kNodeEntryOffset % alignof(Entry) == 0);
  STINDEX_CHECK(config_.max_entries >= 4);
  STINDEX_CHECK(config_.min_entries >= 1);
  STINDEX_CHECK(config_.min_entries <= config_.max_entries / 2);
  STINDEX_CHECK_MSG(config_.max_entries + 1 <= Node::kCapacity,
                    "HR-tree fanout does not fit a node page");
}

HrTree::~HrTree() = default;

HrTree::Node HrTree::GetNode(PageId id) const {
  return Node(&pages_.arena().MutablePage(id));
}

PageId HrTree::NewNode(int level, Time t, std::span<const Entry> entries) {
  const PageId id = pages_.arena().Allocate();
  Node node = GetNode(id);
  node.header() = Header{level, 0, t};
  for (const Entry& entry : entries) node.Append(entry);
  return id;
}

size_t HrTree::NumVersions() const { return roots_.size(); }

PageId HrTree::RootAt(Time t) const {
  auto it = std::upper_bound(roots_.begin(), roots_.end(), t,
                             [](Time value, const Version& version) {
                               return value < version.start;
                             });
  if (it == roots_.begin()) return kInvalidPage;
  return std::prev(it)->root;
}

void HrTree::PublishRoot(PageId root, Time t) {
  if (!roots_.empty() && roots_.back().start == t) {
    roots_.back().root = root;
    return;
  }
  STINDEX_CHECK(roots_.empty() || roots_.back().start < t);
  // Avoid redundant versions when nothing changed.
  if (!roots_.empty() && roots_.back().root == root) return;
  roots_.push_back(Version{t, root});
}

PageId HrTree::MakeWritable(PageId id, Time t, bool* copied) {
  const NodeView node = GetNode(id);
  if (node.header().created == t) {
    *copied = false;
    return id;
  }
  *copied = true;
  return NewNode(node.level(), t, node.entries());
}

PageId HrTree::InsertIntoVersion(PageId root, const Rect2D& rect,
                                 HrDataId data, Time t) {
  // Copy-on-write descent: clone the root-to-leaf path chosen by least
  // area enlargement, expanding rects on the way down.
  bool copied = false;
  const PageId new_root = MakeWritable(root, t, &copied);
  std::vector<PageId> path = {new_root};
  std::vector<size_t> slots;
  Node node = GetNode(new_root);
  while (!node.IsLeaf()) {
    const std::span<Entry> entries = node.entries();
    size_t best = 0;
    double best_enlargement = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < entries.size(); ++i) {
      const double enlargement = entries[i].rect.Enlargement(rect);
      const double area = entries[i].rect.Area();
      if (enlargement < best_enlargement ||
          (enlargement == best_enlargement && area < best_area)) {
        best = i;
        best_enlargement = enlargement;
        best_area = area;
      }
    }
    const PageId child = MakeWritable(entries[best].child, t, &copied);
    entries[best].child = child;
    entries[best].rect.ExpandToInclude(rect);
    path.push_back(child);
    slots.push_back(best);
    node = GetNode(child);
  }

  Entry entry;
  entry.rect = rect;
  entry.data = data;
  node.Append(entry);

  // Overflow propagation with quadratic splits.
  PageId result_root = path.front();
  for (size_t depth = path.size(); depth-- > 0;) {
    Node victim = GetNode(path[depth]);
    if (victim.entries().size() <= config_.max_entries) break;

    // Quadratic split (Guttman): pick the seed pair wasting the most
    // area, then assign by least enlargement with fill guarantees.
    const std::vector<Entry> pool(victim.entries().begin(),
                                  victim.entries().end());
    victim.Assign({});
    size_t seed_a = 0, seed_b = 1;
    double worst_waste = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < pool.size(); ++i) {
      for (size_t j = i + 1; j < pool.size(); ++j) {
        const double waste = pool[i].rect.Union(pool[j].rect).Area() -
                             pool[i].rect.Area() - pool[j].rect.Area();
        if (waste > worst_waste) {
          worst_waste = waste;
          seed_a = i;
          seed_b = j;
        }
      }
    }
    std::vector<Entry> sibling = {pool[seed_b]};
    Rect2D mbr_a = pool[seed_a].rect;
    Rect2D mbr_b = pool[seed_b].rect;
    victim.Append(pool[seed_a]);
    size_t remaining = pool.size() - 2;
    for (size_t i = 0; i < pool.size(); ++i) {
      if (i == seed_a || i == seed_b) continue;
      // Fill guarantee: a group that needs every remaining entry to reach
      // the minimum takes them all.
      if (victim.entries().size() + remaining == config_.min_entries) {
        victim.Append(pool[i]);
        mbr_a.ExpandToInclude(pool[i].rect);
        --remaining;
        continue;
      }
      if (sibling.size() + remaining == config_.min_entries) {
        sibling.push_back(pool[i]);
        mbr_b.ExpandToInclude(pool[i].rect);
        --remaining;
        continue;
      }
      --remaining;
      const double grow_a = mbr_a.Enlargement(pool[i].rect);
      const double grow_b = mbr_b.Enlargement(pool[i].rect);
      if (grow_a < grow_b ||
          (grow_a == grow_b && victim.entries().size() <= sibling.size())) {
        victim.Append(pool[i]);
        mbr_a.ExpandToInclude(pool[i].rect);
      } else {
        sibling.push_back(pool[i]);
        mbr_b.ExpandToInclude(pool[i].rect);
      }
    }
    const PageId sibling_id = NewNode(victim.level(), t, sibling);

    if (depth == 0) {
      // Root split: new root one level up.
      Entry left;
      left.rect = Mbr(GetNode(path[0]).entries());
      left.child = path[0];
      Entry right;
      right.rect = Mbr(GetNode(sibling_id).entries());
      right.child = sibling_id;
      const Entry children[] = {left, right};
      result_root = NewNode(victim.level() + 1, t, children);
      break;
    }
    Node parent = GetNode(path[depth - 1]);
    parent.entries()[slots[depth - 1]].rect =
        Mbr(GetNode(path[depth]).entries());
    Entry extra;
    extra.rect = Mbr(GetNode(sibling_id).entries());
    extra.child = sibling_id;
    parent.Append(extra);
  }
  return result_root;
}

namespace {

// Recursive locate-and-remove for DeleteFromVersion. Returns true when
// the record was found and removed beneath `id`; `*empty` reports that
// the node ended up with no entries.
struct RemoveContext {
  Rect2D rect;
  HrDataId data;
  Time t;
};

}  // namespace

PageId HrTree::DeleteFromVersion(PageId root, HrDataId data, Time t) {
  const Rect2D rect = alive_entry_.at(data);

  // Iterative DFS that lazily path-copies once the leaf is found: for
  // simplicity we copy nodes along the *current* DFS path when removal
  // succeeds, using recursion.
  struct Frame {
    PageId node;
    size_t slot;  // slot in parent
  };

  // Find the root-to-leaf path to the entry (search guided by rect).
  std::vector<Frame> path;
  bool found = false;
  std::vector<std::vector<Frame>> stack;
  stack.push_back({Frame{root, SIZE_MAX}});
  while (!stack.empty() && !found) {
    std::vector<Frame> candidate = std::move(stack.back());
    stack.pop_back();
    const NodeView node = GetNode(candidate.back().node);
    if (node.IsLeaf()) {
      for (const Entry& entry : node.entries()) {
        if (entry.data == data) {
          path = candidate;
          found = true;
          break;
        }
      }
      continue;
    }
    const std::span<const Entry> entries = node.entries();
    for (size_t i = 0; i < entries.size(); ++i) {
      if (!entries[i].rect.Intersects(rect)) continue;
      std::vector<Frame> next = candidate;
      next.push_back(Frame{entries[i].child, i});
      stack.push_back(std::move(next));
    }
  }
  STINDEX_CHECK_MSG(found, "alive record not found in current version");

  // Copy-on-write the path top-down.
  bool copied = false;
  path[0].node = MakeWritable(path[0].node, t, &copied);
  for (size_t i = 1; i < path.size(); ++i) {
    path[i].node = MakeWritable(path[i].node, t, &copied);
    GetNode(path[i - 1].node).entries()[path[i].slot].child = path[i].node;
  }

  // Remove the entry from the (writable) leaf.
  Node leaf = GetNode(path.back().node);
  const std::span<const Entry> leaf_entries = leaf.entries();
  bool erased = false;
  for (size_t i = 0; i < leaf_entries.size(); ++i) {
    if (leaf_entries[i].data == data) {
      leaf.Erase(i);
      erased = true;
      break;
    }
  }
  STINDEX_CHECK(erased);

  // Condense: prune empty nodes upward and refresh ancestor rects. We do
  // not re-insert orphaned under-filled nodes (acceptable for the
  // historical baseline; rects never shrink below correctness).
  for (size_t depth = path.size(); depth-- > 1;) {
    const NodeView node = GetNode(path[depth].node);
    Node parent = GetNode(path[depth - 1].node);
    if (node.entries().empty()) {
      parent.Erase(path[depth].slot);
      // Slots of later frames are unaffected (they are deeper).
    } else {
      parent.entries()[path[depth].slot].rect = Mbr(node.entries());
    }
  }

  // Shrink the root.
  PageId new_root = path[0].node;
  while (new_root != kInvalidPage) {
    const NodeView node = GetNode(new_root);
    if (node.entries().empty()) {
      new_root = kInvalidPage;
      break;
    }
    if (!node.IsLeaf() && node.entries().size() == 1) {
      new_root = node.entries()[0].child;
      continue;
    }
    break;
  }
  return new_root;
}

void HrTree::Insert(const Rect2D& rect, Time t, HrDataId data) {
  STINDEX_CHECK_MSG(rect.IsValid(), "inserting an invalid rect");
  STINDEX_CHECK_MSG(t >= current_time_, "updates must be fed in time order");
  STINDEX_CHECK_MSG(alive_entry_.find(data) == alive_entry_.end(),
                    "record is already alive");
  current_time_ = t;
  ++size_;
  alive_entry_[data] = rect;

  const PageId root = roots_.empty() ? kInvalidPage : roots_.back().root;
  if (root == kInvalidPage) {
    Entry entry;
    entry.rect = rect;
    entry.data = data;
    PublishRoot(NewNode(0, t, {&entry, 1}), t);
    return;
  }
  PublishRoot(InsertIntoVersion(root, rect, data, t), t);
}

void HrTree::Delete(HrDataId data, Time t) {
  STINDEX_CHECK_MSG(t >= current_time_, "updates must be fed in time order");
  auto it = alive_entry_.find(data);
  STINDEX_CHECK_MSG(it != alive_entry_.end(), "record is not alive");
  current_time_ = t;

  const PageId root = roots_.empty() ? kInvalidPage : roots_.back().root;
  STINDEX_CHECK(root != kInvalidPage);
  const PageId new_root = DeleteFromVersion(root, data, t);
  alive_entry_.erase(it);
  PublishRoot(new_root, t);
}

void HrTree::SnapshotQuery(const Rect2D& area, Time t,
                           std::vector<HrDataId>* results) const {
  SnapshotQuery(area, t, pages_.session(), results);
}

void HrTree::IntervalQuery(const Rect2D& area, const TimeInterval& range,
                           std::vector<HrDataId>* results) const {
  IntervalQuery(area, range, pages_.session(), results);
}

void HrTree::SnapshotQuery(const Rect2D& area, Time t, PageCache* buffer,
                           std::vector<HrDataId>* results) const {
  results->clear();
  const PageId root = RootAt(t);
  if (root == kInvalidPage) return;
  WalkNodes<NodeView>(
      buffer, root, nullptr,
      [&](const NodeView&, const Entry& entry) {
        return entry.rect.Intersects(area);
      },
      [&](const Entry& entry) { results->push_back(entry.data); });
}

void HrTree::IntervalQuery(const Rect2D& area, const TimeInterval& range,
                           PageCache* buffer,
                           std::vector<HrDataId>* results) const {
  results->clear();
  if (!range.IsValid()) return;
  std::unordered_set<HrDataId> seen;
  // One search per version tree overlapping the range — the overlapping
  // approach has no lifetime information inside nodes to prune with.
  for (size_t v = 0; v < roots_.size(); ++v) {
    const Time start = std::max(roots_[v].start, range.start);
    const Time end =
        v + 1 < roots_.size() ? roots_[v + 1].start : kTimeInfinity;
    if (start >= range.end || start >= end) continue;
    if (roots_[v].root == kInvalidPage) continue;
    WalkNodes<NodeView>(
        buffer, roots_[v].root, nullptr,
        [&](const NodeView&, const Entry& entry) {
          return entry.rect.Intersects(area);
        },
        [&](const Entry& entry) {
          if (seen.insert(entry.data).second) results->push_back(entry.data);
        });
  }
}

void HrTree::CheckInvariants() const {
  for (const Version& version : roots_) {
    if (version.root == kInvalidPage) continue;
    const int root_level = GetNode(version.root).level();
    std::vector<std::pair<PageId, int>> stack = {{version.root, root_level}};
    while (!stack.empty()) {
      auto [id, expected_level] = stack.back();
      stack.pop_back();
      const NodeView node = GetNode(id);
      STINDEX_CHECK(node.level() == expected_level);
      STINDEX_CHECK(node.entries().size() <= config_.max_entries);
      for (const Entry& entry : node.entries()) {
        STINDEX_CHECK(entry.rect.IsValid());
        if (!node.IsLeaf()) {
          const NodeView child = GetNode(entry.child);
          STINDEX_CHECK(child.level() == node.level() - 1);
          STINDEX_CHECK_MSG(entry.rect.Contains(Mbr(child.entries())),
                            "parent rect does not cover child");
          stack.push_back({entry.child, expected_level - 1});
        }
      }
    }
  }
}

std::unique_ptr<HrTree> BuildHrTree(const std::vector<SegmentRecord>& records,
                                    HrConfig config) {
  auto tree = std::make_unique<HrTree>(config);
  struct Event {
    Time time;
    bool is_insert;
    uint64_t record;
  };
  std::vector<Event> events;
  events.reserve(records.size() * 2);
  for (uint64_t i = 0; i < records.size(); ++i) {
    events.push_back(Event{records[i].box.interval.start, true, i});
    events.push_back(Event{records[i].box.interval.end, false, i});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.is_insert != b.is_insert) return !a.is_insert;
    return a.record < b.record;
  });
  for (const Event& event : events) {
    const SegmentRecord& record = records[event.record];
    if (event.is_insert) {
      tree->Insert(record.box.rect, record.box.interval.start, event.record);
    } else {
      tree->Delete(event.record, record.box.interval.end);
    }
  }
  return tree;
}

}  // namespace stindex
