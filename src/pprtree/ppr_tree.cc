#include "pprtree/ppr_tree.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <type_traits>
#include <unordered_set>

#include "core/query_profile.h"
#include "storage/page_codec.h"
#include "storage/shared_buffer_pool.h"

#include "util/check.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace stindex {

// An index or data record inside a node. Alive entries have an open
// deletion time (kTimeInfinity). The struct is also the on-page entry
// layout (NodeCodec), so it carries its padding as an explicit zeroed
// field: page bytes stay deterministic.
struct PprTree::Entry {
  Rect2D rect;
  TimeInterval lifetime;
  PageId child = kInvalidPage;  // directory entries
  uint32_t reserved = 0;
  PprDataId data = 0;           // leaf entries

  bool IsAlive() const { return lifetime.end == kTimeInfinity; }
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

// A node either owns its entries (built in memory, or decoded) or views
// them in place on a borrowed page (NodeCodec::View). Views are read-only:
// the const accessor serves both, mutable access CHECKs ownership.
class PprTree::Node : public Page {
 public:
  Node(int level, Time created) : level_(level), created_(created) {}

  Node(int level, Time created, Time closed, std::span<const Entry> view)
      : level_(level),
        created_(created),
        closed_(closed),
        view_(view),
        borrowed_(true) {}

  int level() const { return level_; }
  bool IsLeaf() const { return level_ == 0; }
  Time created() const { return created_; }

  // Time the node stopped being current (kTimeInfinity while current).
  Time closed() const { return closed_; }
  void Close(Time t) { closed_ = t; }

  std::vector<Entry>& entries() {
    STINDEX_CHECK_MSG(!borrowed_, "mutable access to a borrowed PPR-tree node");
    return entries_;
  }
  std::span<const Entry> entries() const {
    return borrowed_ ? view_ : std::span<const Entry>(entries_);
  }

  size_t AliveCount() const {
    size_t count = 0;
    for (const Entry& entry : entries()) count += entry.IsAlive() ? 1 : 0;
    return count;
  }

  Rect2D AliveMbr() const {
    Rect2D mbr = Rect2D::Empty();
    for (const Entry& entry : entries()) {
      if (entry.IsAlive()) mbr.ExpandToInclude(entry.rect);
    }
    return mbr;
  }

 private:
  int level_;
  Time created_;
  Time closed_ = kTimeInfinity;
  std::vector<Entry> entries_;
  std::span<const Entry> view_;
  bool borrowed_ = false;
};

// Serializes nodes to sealed pages whose payload is the in-memory layout
// (little-endian): a Header, then `count` Entry structs from page offset
// kNodeEntryOffset. Encode CHECKs the fanout bound; parsing tolerates
// max_entries + 1 for transient states, as Load does.
class PprTree::NodeCodec : public PageCodec {
 public:
  explicit NodeCodec(size_t max_entries) : max_entries_(max_entries) {
    STINDEX_CHECK_MSG(max_entries_ + 1 <= kNodePageCapacity,
                      "PPR-tree fanout does not fit a node page");
  }

  void Encode(const Page& page, uint8_t* out) const override {
    const Node& node = static_cast<const Node&>(page);
    const std::span<const Entry> entries = node.entries();
    STINDEX_CHECK_MSG(entries.size() <= max_entries_ + 1,
                      "PPR-tree node exceeds the configured fanout");
    std::memset(out, 0, kPageSize);
    const Header header{static_cast<int32_t>(node.level()),
                        static_cast<uint32_t>(entries.size()), node.created(),
                        node.closed()};
    std::memcpy(out + kPageEnvelopeBytes, &header, sizeof(header));
    if (!entries.empty()) {
      std::memcpy(out + kNodeEntryOffset, entries.data(), entries.size_bytes());
    }
    SealPage(out, PageKind::kPprNode);
  }

  Result<std::unique_ptr<Page>> Decode(const uint8_t* page,
                                       PageId id) const override {
    Result<Parsed> parsed = Parse(page, id);
    if (!parsed.ok()) return parsed.status();
    const Header& header = parsed.value().header;
    auto node = std::make_unique<Node>(header.level, header.created);
    if (header.closed != kTimeInfinity) node->Close(header.closed);
    // Byte copy: a decoded buffer need not be aligned for Entry.
    const std::span<const Entry> entries = parsed.value().entries;
    node->entries().resize(entries.size());
    if (!entries.empty()) {
      std::memcpy(node->entries().data(), entries.data(), entries.size_bytes());
    }
    return std::unique_ptr<Page>(std::move(node));
  }

  Result<std::unique_ptr<Page>> View(const uint8_t* page,
                                     PageId id) const override {
    STINDEX_CHECK_MSG(reinterpret_cast<uintptr_t>(page) % alignof(Entry) == 0,
                      "PPR-tree node view over a misaligned page");
    Result<Parsed> parsed = Parse(page, id);
    if (!parsed.ok()) return parsed.status();
    const Header& header = parsed.value().header;
    return std::unique_ptr<Page>(std::make_unique<Node>(
        header.level, header.created, header.closed, parsed.value().entries));
  }

 private:
  struct Header {
    int32_t level;
    uint32_t count;
    Time created;
    Time closed;
  };
  static_assert(sizeof(Header) == 24 && offsetof(Header, count) == 4 &&
                offsetof(Header, created) == 8 &&
                offsetof(Header, closed) == 16);
  static_assert(std::has_unique_object_representations_v<Header>);
  static_assert(kPageEnvelopeBytes + sizeof(Header) <= kNodeEntryOffset &&
                kNodeEntryOffset % alignof(Entry) == 0);
  // Entry is the on-page layout. Rect2D holds doubles, for which
  // has_unique_object_representations is false by definition, so
  // "no padding" is asserted as the sum of the member sizes instead.
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

  struct Parsed {
    Header header{};
    std::span<const Entry> entries;
  };

  // The one validator behind Decode and View: the envelope (checksum,
  // kind, version), then a plausible header. The entry span points into
  // `page`.
  Result<Parsed> Parse(const uint8_t* page, PageId id) const {
    Result<PageReader> payload = OpenPagePayload(page, PageKind::kPprNode, id);
    if (!payload.ok()) return payload.status();
    Parsed parsed;
    std::memcpy(&parsed.header, page + kPageEnvelopeBytes, sizeof(Header));
    const Header& header = parsed.header;
    if (header.level < 0 || header.count > max_entries_ + 1 ||
        header.count * sizeof(Entry) > kPageSize - kNodeEntryOffset) {
      return Status::InvalidArgument(
          "page " + std::to_string(id) + ": implausible PPR-tree node (level " +
          std::to_string(header.level) + ", " + std::to_string(header.count) +
          " entries)");
    }
    parsed.entries = std::span<const Entry>(
        reinterpret_cast<const Entry*>(page + kNodeEntryOffset), header.count);
    return parsed;
  }

  size_t max_entries_;
};

PprTree::PprTree(PprConfig config) : config_(config) {
  STINDEX_CHECK(config_.max_entries >= 4);
  STINDEX_CHECK(config_.p_version > 0.0 && config_.p_version < 1.0);
  STINDEX_CHECK(config_.p_svu > config_.p_version);
  STINDEX_CHECK(config_.p_svo > config_.p_svu && config_.p_svo <= 1.0);
  store_.SetMetricScope("ppr");
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

PprTree::Node* PprTree::GetNode(PageId id) const {
  return static_cast<Node*>(store_.Get(id));
}

std::unique_ptr<SharedBufferPool> PprTree::NewSharedQueryPool(
    size_t pages) const {
  SharedBufferPoolOptions options;
  options.capacity = pages == 0 ? config_.buffer_pages : pages;
  options.metric_scope = "ppr";
  if (backend_ != nullptr) {
    return std::make_unique<SharedBufferPool>(backend_.get(), codec_.get(),
                                              options);
  }
  return std::make_unique<SharedBufferPool>(&store_, options);
}

void PprTree::OpenQueryPool() {
  session_.reset();
  pool_ = NewSharedQueryPool();
  session_ = std::make_unique<SharedBufferPool::Session>(pool_.get(),
                                                         config_.buffer_pages);
}

Status PprTree::AttachBackend(std::unique_ptr<PageBackend> backend) {
  STINDEX_CHECK_MSG(backend_ == nullptr, "backend already attached");
  STINDEX_CHECK(backend != nullptr);
  TraceSpan span("ppr", "attach_backend");
  span.Arg("pages", static_cast<int64_t>(store_.PageCount()));
  std::vector<PageId> slots(store_.AllocatedCount());
  std::iota(slots.begin(), slots.end(), PageId{0});
  Status status = PersistNodesForCheckpoint(backend.get(), slots);
  if (status.ok()) status = backend->Sync();
  if (!status.ok()) return status;
  backend_ = std::move(backend);
  codec_ = std::make_unique<NodeCodec>(config_.max_entries);
  OpenQueryPool();
  return Status::OK();
}

Status PprTree::PackSnapshot(const std::string& path,
                             const SnapshotFile::Options& options) {
  STINDEX_CHECK_MSG(backend_ == nullptr, "backend already attached");
  TraceSpan span("ppr", "pack_snapshot");
  span.Arg("pages", static_cast<int64_t>(store_.PageCount()));
  const size_t count = store_.AllocatedCount();
  // The PPR-tree never frees nodes, so ids are dense already; the packed
  // order sorts them bottom-up (level, then id) so every level occupies
  // one contiguous extent of the snapshot.
  std::vector<PageId> order(count);
  for (PageId id = 0; id < count; ++id) order[id] = id;
  std::stable_sort(order.begin(), order.end(), [this](PageId a, PageId b) {
    return GetNode(a)->level() < GetNode(b)->level();
  });
  std::vector<PageId> remap(count, kInvalidPage);
  for (size_t slot = 0; slot < order.size(); ++slot) {
    remap[order[slot]] = static_cast<PageId>(slot);
  }
  // Rewrite the whole in-memory graph through the bijection first, so the
  // tree stays consistent (and still queryable from the store) even if
  // writing the snapshot fails below.
  for (PageId id = 0; id < count; ++id) {
    Node* node = GetNode(id);
    if (node->IsLeaf()) continue;
    for (Entry& entry : node->entries()) {
      if (entry.child != kInvalidPage) entry.child = remap[entry.child];
    }
  }
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
  store_.Reindex(remap);

  Result<std::unique_ptr<SnapshotWriter>> writer = SnapshotWriter::Create(path);
  if (!writer.ok()) return writer.status();
  const NodeCodec codec(config_.max_entries);
  uint8_t page[kPageSize];
  for (PageId slot = 0; slot < count; ++slot) {
    const Node* node = GetNode(slot);
    codec.Encode(*node, page);
    Status status =
        writer.value()->Append(static_cast<uint32_t>(node->level()), page);
    if (!status.ok()) return status;
  }
  Status status = writer.value()->Finish();
  if (!status.ok()) return status;
  Result<std::unique_ptr<MmapSnapshotBackend>> backend =
      MmapSnapshotBackend::Open(path, options);
  if (!backend.ok()) return backend.status();
  backend_ = std::move(backend).value();
  codec_ = std::make_unique<NodeCodec>(config_.max_entries);
  OpenQueryPool();
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

PageId PprTree::MakeNode(int level, std::vector<Entry> entries, Time now) {
  auto node = std::make_unique<Node>(level, now);
  node->entries() = std::move(entries);
  Node* raw = node.get();
  const PageId id = store_.Allocate(std::move(node));
  for (const Entry& entry : raw->entries()) {
    STINDEX_DCHECK(entry.IsAlive());
    if (level == 0) {
      alive_location_[entry.data] = id;
    } else {
      parent_of_[entry.child] = id;
    }
  }
  return id;
}

std::vector<PprTree::Frame> PprTree::DescendForInsert(
    const Rect2D& rect) const {
  std::vector<Frame> path;
  PageId current = CurrentRoot();
  STINDEX_CHECK(current != kInvalidPage);
  path.push_back(Frame{current, SIZE_MAX});
  Node* node = GetNode(current);
  while (!node->IsLeaf()) {
    // Least area enlargement among alive entries, ties by smallest area.
    size_t best = SIZE_MAX;
    double best_enlargement = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    const std::vector<Entry>& entries = node->entries();
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
    path.push_back(Frame{current, best});
    node = GetNode(current);
  }
  return path;
}

std::vector<PprTree::Frame> PprTree::PathToAliveLeaf(PageId leaf) const {
  // Climb the alive-parent links, then resolve entry slots downward.
  std::vector<PageId> chain = {leaf};
  while (true) {
    auto it = parent_of_.find(chain.back());
    if (it == parent_of_.end()) break;
    chain.push_back(it->second);
  }
  STINDEX_CHECK_MSG(chain.back() == CurrentRoot(),
                    "alive leaf is not reachable from the current root");
  std::vector<Frame> path;
  path.push_back(Frame{chain.back(), SIZE_MAX});
  for (size_t i = chain.size() - 1; i-- > 0;) {
    const Node* parent = GetNode(chain[i + 1]);
    size_t slot = SIZE_MAX;
    for (size_t s = 0; s < parent->entries().size(); ++s) {
      const Entry& entry = parent->entries()[s];
      if (entry.IsAlive() && entry.child == chain[i]) {
        slot = s;
        break;
      }
    }
    STINDEX_CHECK_MSG(slot != SIZE_MAX, "stale parent link");
    path.push_back(Frame{chain[i], slot});
  }
  return path;
}

void PprTree::ExpandPathRects(const std::vector<Frame>& path,
                              const Rect2D& rect) const {
  for (size_t i = 1; i < path.size(); ++i) {
    Node* parent = GetNode(path[i - 1].node);
    parent->entries()[path[i].slot].rect.ExpandToInclude(rect);
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

  std::vector<Frame> path = DescendForInsert(rect);
  ExpandPathRects(path, rect);
  Node* leaf = GetNode(path.back().node);
  if (leaf->entries().size() >= config_.max_entries) {
    Restructure(std::move(path), {entry}, t);
    return;
  }
  leaf->entries().push_back(entry);
  alive_location_[data] = path.back().node;
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

  std::vector<Frame> path = PathToAliveLeaf(leaf_id);
  Node* leaf = GetNode(leaf_id);
  bool found = false;
  std::vector<Entry>& entries = leaf->entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    Entry& entry = entries[i];
    if (entry.IsAlive() && entry.data == data) {
      if (entry.lifetime.start == t) {
        // Inserted and deleted at the same instant: never visible.
        entries.erase(entries.begin() + static_cast<long>(i));
      } else {
        entry.lifetime.end = t;
      }
      found = true;
      break;
    }
  }
  STINDEX_CHECK_MSG(found, "alive record missing from its leaf");

  if (path.size() == 1) {
    // Root leaf: exempt from the weak-version bound, but close the era
    // when nothing is left alive.
    FinalizeRoot(leaf_id, t);
    return;
  }
  if (leaf->AliveCount() < WeakMin()) {
    Restructure(std::move(path), {}, t);  // weak version underflow
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

void PprTree::Restructure(std::vector<Frame> path, std::vector<Entry> pending,
                          Time now) {
  Node* node = GetNode(path.back().node);
  const int level = node->level();
  const bool is_root = path.size() == 1;
  static Counter* const version_splits =
      MetricRegistry::Global().GetCounter("ppr.version_splits");
  version_splits->Increment();

  auto truncate_alive = [now](Node* victim, std::vector<Entry>* copies) {
    std::vector<Entry>& entries = victim->entries();
    for (size_t i = 0; i < entries.size();) {
      Entry& entry = entries[i];
      if (entry.IsAlive()) {
        Entry copy = entry;
        copy.lifetime = TimeInterval(now, kTimeInfinity);
        copies->push_back(copy);
        if (entry.lifetime.start == now) {
          entries.erase(entries.begin() + static_cast<long>(i));
          continue;
        }
        entry.lifetime.end = now;
      }
      ++i;
    }
    victim->Close(now);
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
    Node* parent = GetNode(path[path.size() - 2].node);
    const Rect2D our_mbr = [&copies]() {
      Rect2D mbr = Rect2D::Empty();
      for (const Entry& entry : copies) mbr.ExpandToInclude(entry.rect);
      return mbr;
    }();
    double best_distance = std::numeric_limits<double>::infinity();
    const std::vector<Entry>& siblings = parent->entries();
    for (size_t s = 0; s < siblings.size(); ++s) {
      if (s == path.back().slot || !siblings[s].IsAlive()) continue;
      const double distance =
          copies.empty() ? 0.0 : CenterDistance2(our_mbr, siblings[s].rect);
      if (distance < best_distance) {
        best_distance = distance;
        sibling_slot = s;
      }
    }
    if (sibling_slot.has_value()) {
      Node* sibling = GetNode(siblings[*sibling_slot].child);
      truncate_alive(sibling, &copies);
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
    const PageId id = MakeNode(level, std::move(group), now);
    new_nodes.push_back(id);
    Entry dir;
    dir.rect = GetNode(id)->AliveMbr();
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
      const PageId new_root = MakeNode(level + 1, std::move(adds), now);
      FinalizeRoot(new_root, now);
    }
    return;
  }

  // Kill the consumed parent entries (highest slot first: killing may
  // erase same-instant entries and shift indices).
  std::vector<Frame> parent_path(path.begin(), path.end() - 1);
  Node* parent = GetNode(parent_path.back().node);
  std::vector<size_t> kill_slots = {path.back().slot};
  if (sibling_slot.has_value()) kill_slots.push_back(*sibling_slot);
  std::sort(kill_slots.rbegin(), kill_slots.rend());
  for (size_t slot : kill_slots) {
    Entry& entry = parent->entries()[slot];
    STINDEX_CHECK(entry.IsAlive());
    if (entry.lifetime.start == now) {
      parent->entries().erase(parent->entries().begin() +
                              static_cast<long>(slot));
    } else {
      entry.lifetime.end = now;
    }
  }

  AddEntries(std::move(parent_path), std::move(adds), now);
}

void PprTree::AddEntries(std::vector<Frame> path, std::vector<Entry> adds,
                         Time now) {
  Node* node = GetNode(path.back().node);
  STINDEX_CHECK(!node->IsLeaf());

  if (!adds.empty() &&
      node->entries().size() + adds.size() > config_.max_entries) {
    Restructure(std::move(path), std::move(adds), now);
    return;
  }
  for (Entry& entry : adds) {
    parent_of_[entry.child] = path.back().node;
    ExpandPathRects(path, entry.rect);
    node->entries().push_back(std::move(entry));
  }

  const size_t alive = node->AliveCount();
  if (path.size() == 1) {
    FinalizeRoot(path.back().node, now);
    return;
  }
  if (alive < WeakMin()) {
    Restructure(std::move(path), {}, now);
  }
}

void PprTree::FinalizeRoot(PageId root, Time now) {
  // Collapse directory roots with a single alive child: otherwise that
  // child would be a non-root node with no sibling to merge with, and the
  // weak-version invariant could not be maintained.
  while (root != kInvalidPage) {
    Node* node = GetNode(root);
    const size_t alive = node->AliveCount();
    if (alive == 0) {
      node->Close(now);
      root = kInvalidPage;
      break;
    }
    if (node->IsLeaf() || alive > 1) break;
    // Promote the only alive child.
    PageId child = kInvalidPage;
    std::vector<Entry>& entries = node->entries();
    for (size_t i = 0; i < entries.size(); ++i) {
      if (!entries[i].IsAlive()) continue;
      child = entries[i].child;
      if (entries[i].lifetime.start == now) {
        entries.erase(entries.begin() + static_cast<long>(i));
      } else {
        entries[i].lifetime.end = now;
      }
      break;
    }
    node->Close(now);
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
    // Pinned for the loop body: the node pointer must survive any
    // evictions a deeper Fetch could cause in backend mode.
    const PageRef ref = buffer->FetchPinned(id);
    const Node* node = static_cast<const Node*>(ref.get());
    if (profile != nullptr) {
      profile->CountNode(node->level());
      if (node->IsLeaf()) {
        profile->leaf_entries_scanned += node->entries().size();
      }
    }
    for (const Entry& entry : node->entries()) {
      if (!entry.lifetime.Contains(t)) continue;
      if (!entry.rect.Intersects(area)) continue;
      if (node->IsLeaf()) {
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
      const Node* node = static_cast<const Node*>(ref.get());
      if (profile != nullptr) {
        profile->CountNode(node->level());
        if (node->IsLeaf()) {
          profile->leaf_entries_scanned += node->entries().size();
        }
      }
      for (const Entry& entry : node->entries()) {
        if (!entry.lifetime.Intersects(range)) continue;
        if (!entry.rect.Intersects(area)) continue;
        if (node->IsLeaf()) {
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
  std::vector<PageId> stack = {it->root};
  while (!stack.empty()) {
    const PageId id = stack.back();
    stack.pop_back();
    const Node* node = GetNode(id);
    AliveNodeSummary summary;
    summary.level = node->level();
    summary.rect = Rect2D::Empty();
    for (const Entry& entry : node->entries()) {
      if (!entry.lifetime.Contains(t)) continue;
      ++summary.alive;
      summary.rect.ExpandToInclude(entry.rect);
      if (!node->IsLeaf()) stack.push_back(entry.child);
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
    const Node* node = static_cast<const Node*>(ref.get());
    for (const Entry& entry : node->entries()) {
      if (!entry.lifetime.Contains(t)) continue;
      if (!entry.rect.Intersects(area)) continue;
      if (node->IsLeaf()) {
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

void PprTree::CollectSubtree(PageId root, std::vector<PageId>* out) const {
  std::vector<PageId> stack = {root};
  std::unordered_set<PageId> visited;
  while (!stack.empty()) {
    const PageId id = stack.back();
    stack.pop_back();
    if (!visited.insert(id).second) continue;
    out->push_back(id);
    const Node* node = GetNode(id);
    if (node->IsLeaf()) continue;
    for (const Entry& entry : node->entries()) stack.push_back(entry.child);
  }
}

void PprTree::CheckInvariants() const {
  // Structural checks over every reachable node.
  std::vector<PageId> nodes;
  std::unordered_set<PageId> unique;
  for (const RootEra& era : roots_) {
    if (era.root == kInvalidPage) continue;
    std::vector<PageId> subtree;
    CollectSubtree(era.root, &subtree);
    for (PageId id : subtree) {
      if (unique.insert(id).second) nodes.push_back(id);
    }
  }
  for (PageId id : nodes) {
    const Node* node = GetNode(id);
    STINDEX_CHECK(node->entries().size() <= config_.max_entries);
    for (const Entry& entry : node->entries()) {
      STINDEX_CHECK(entry.lifetime.start < entry.lifetime.end);
      STINDEX_CHECK(entry.lifetime.start >= node->created());
      STINDEX_CHECK(entry.lifetime.end <= node->closed());
      STINDEX_CHECK(entry.rect.IsValid());
      if (!node->IsLeaf()) {
        const Node* child = GetNode(entry.child);
        STINDEX_CHECK(child->level() == node->level() - 1);
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
        const Node* node = GetNode(id);
        size_t alive = 0;
        for (const Entry& entry : node->entries()) {
          if (!entry.lifetime.Contains(t)) continue;
          ++alive;
          if (node->IsLeaf()) {
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
  STINDEX_CHECK_MSG(roots_.empty() && store_.AllocatedCount() == 0,
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
  // Works for live trees and for frozen packed layers alike: the store
  // keeps every node in memory even after PackSnapshot attaches a
  // read-only backend, and ids stay contiguous 0..NodeCount()-1.
  STINDEX_CHECK(slots.size() == store_.AllocatedCount());
  const NodeCodec codec(config_.max_entries);
  uint8_t page[kPageSize];
  for (PageId id = 0; id < store_.AllocatedCount(); ++id) {
    if (!store_.IsLive(id)) continue;
    codec.Encode(*GetNode(id), page);
    Status status = backend->Write(slots[id], page);
    if (!status.ok()) {
      return Status(status.code(),
                    "write of page " + std::to_string(slots[id]) +
                        " failed: " + status.message());
    }
  }
  return Status::OK();
}

Status PprTree::InstallCheckpointNode(PageId id, const uint8_t* page) {
  STINDEX_CHECK_MSG(backend_ == nullptr,
                    "checkpoint restore into an attached tree");
  STINDEX_CHECK(store_.AllocatedCount() == id);
  const NodeCodec codec(config_.max_entries);
  Result<std::unique_ptr<Page>> decoded = codec.Decode(page, id);
  if (!decoded.ok()) return decoded.status();
  auto node = std::unique_ptr<Node>(static_cast<Node*>(decoded.value().release()));
  for (const Entry& entry : node->entries()) {
    if (entry.IsAlive()) {
      if (node->IsLeaf()) {
        alive_location_[entry.data] = id;
      } else {
        parent_of_[entry.child] = id;
      }
    }
  }
  const PageId allocated = store_.Allocate(std::move(node));
  STINDEX_CHECK(allocated == id);
  return Status::OK();
}

std::unique_ptr<PprTree> BuildPprTree(
    const std::vector<SegmentRecord>& records, PprConfig config) {
  auto tree = std::make_unique<PprTree>(config);
  TraceSpan span("ppr", "build");
  span.Arg("records", static_cast<int64_t>(records.size()));

  // Replay the evolution: one insert and one delete event per record,
  // deletes first at equal timestamps (a record with lifetime [a, b) is
  // gone at instant b).
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
    if (a.is_insert != b.is_insert) return !a.is_insert;  // deletes first
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
