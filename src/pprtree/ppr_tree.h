#ifndef STINDEX_PPRTREE_PPR_TREE_H_
#define STINDEX_PPRTREE_PPR_TREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/segment.h"
#include "geometry/interval.h"
#include "geometry/rect.h"
#include "storage/buffer_pool.h"
#include "storage/page_backend.h"
#include "storage/shared_buffer_pool.h"
#include "storage/snapshot_file.h"
#include "storage/tree_pages.h"
#include "util/bytes.h"
#include "util/status.h"

namespace stindex {

struct QueryProfile;

// Payload of a PPR-tree data record (a segment-record index in the
// experiments).
using PprDataId = uint64_t;

// PPR-tree parameters; defaults are the paper's experimental setup
// (Section V): page capacity 50, P_version = 0.22, P_svo = 0.8,
// P_svu = 0.4, 10-page LRU buffer.
struct PprConfig {
  // Maximum entries per node (page capacity B).
  size_t max_entries = 50;
  // A non-root node must keep at least ceil(p_version * B) alive entries;
  // fewer triggers a version split (weak version underflow).
  double p_version = 0.22;
  // A node created by a version split may hold at most p_svo * B alive
  // entries; more triggers a key (spatial) split.
  double p_svo = 0.8;
  // ... and at least p_svu * B alive entries; fewer triggers a merge with
  // a sibling's alive entries.
  double p_svu = 0.4;
  // LRU buffer pages used when answering queries.
  size_t buffer_pages = 10;
};

// The partially persistent R-tree ([14], [25]; paper Section II-B). It
// records the evolution of an "ephemeral" 2-D R-tree under insertions and
// deletions of spatial records, using storage linear in the number of
// changes, and answers historical queries as if the R-tree state at the
// query time were still available.
//
// Structure: a DAG of nodes, each node one page of the tree's arena,
// mutated in place (docs/storage.md). Data and index entries carry a
// lifetime [insertion-time, deletion-time). A non-root node must contain
// at least D alive entries at every instant it is alive; restructuring
// happens through version splits (copy alive entries to a fresh node),
// followed by a key split or a sibling merge when the copy violates the
// strong-version bounds. Consecutive eras of the evolution are owned by a
// root journal.
//
// Updates must be fed in non-decreasing time order (the paper's off-line
// setting: the full evolution is known and replayed).
class PprTree {
 public:
  explicit PprTree(PprConfig config = PprConfig());
  ~PprTree();

  PprTree(const PprTree&) = delete;
  PprTree& operator=(const PprTree&) = delete;

  // Starts the life of record `data` with spatial key `rect` at time `t`.
  // `data` must not be currently alive; t must not precede prior updates.
  void Insert(const Rect2D& rect, Time t, PprDataId data);

  // Ends the life of record `data` at time `t` (the record exists at
  // instants < t). The record must be alive.
  void Delete(PprDataId data, Time t);

  // All records alive at instant `t` whose rect intersects `area`.
  void SnapshotQuery(const Rect2D& area, Time t,
                     std::vector<PprDataId>* results) const;

  // All records alive at any instant in [range.start, range.end) whose
  // rect intersects `area`. Results are de-duplicated.
  void IntervalQuery(const Rect2D& area, const TimeInterval& range,
                     std::vector<PprDataId>* results) const;

  // Query variants reading through a caller-owned page cache. Queries
  // never mutate the structure, so concurrent threads may query with one
  // PageCache each: a per-worker Session of one SharedBufferPool (see
  // NewSharedQueryPool).
  // When `profile` is non-null, per-level node visits, buffer hit/miss
  // deltas, leaf entries scanned and candidate counts are accumulated
  // into it (see core/query_profile.h); nullptr skips all profiling
  // work.
  void SnapshotQuery(const Rect2D& area, Time t, PageCache* buffer,
                     std::vector<PprDataId>* results,
                     QueryProfile* profile = nullptr) const;
  void IntervalQuery(const Rect2D& area, const TimeInterval& range,
                     PageCache* buffer, std::vector<PprDataId>* results,
                     QueryProfile* profile = nullptr) const;

  // A sharded thread-safe pool over this tree's pages whose `pages`
  // frames (0 = the configured default) are shared by every worker.
  // Workers query through per-worker SharedBufferPool::Sessions; a
  // protocol-mode Session (protocol_pages = the paper's buffer size)
  // reports the paper's per-query misses. Before PackSnapshot the pool
  // borrows the arena's pages; after, it borrows and checks the
  // snapshot's mapped pages.
  std::unique_ptr<SharedBufferPool> NewSharedQueryPool(size_t pages = 0) const {
    return pages_.NewSharedQueryPool(pages);
  }

  // Packs the structure into a read-only snapshot file at `path` and
  // serves all subsequent queries from its mmap'd pages (zero-copy) —
  // the only way the tree leaves its arena (TreePages::Pack). Node ids
  // are remapped to a dense bottom-up layout — all leaves first, then
  // each directory level in one contiguous extent. The remap is a bijection of the page-id access
  // sequence, so per-query LRU miss counts are byte-identical to the
  // unpacked tree's. The tree is frozen afterwards — Insert/Delete
  // become checked errors — and releases its arena and the bookkeeping
  // that serves updates (record locations, the replay's per-node state);
  // pools from NewSharedQueryPool must be destroyed first. On failure it
  // keeps serving from its arena, unchanged.
  Status PackSnapshot(const std::string& path);

  // Recovery hook: serves `snapshot`, reopened from the file an earlier
  // PackSnapshot of this tree wrote, as a tree whose meta
  // DecodeCheckpointMeta restored and that holds no node. The tree is
  // then frozen, exactly as PackSnapshot left it. InvalidArgument when
  // the meta names a root the snapshot does not hold.
  Status AdoptSnapshot(std::unique_ptr<MmapSnapshotBackend> snapshot);

  // Nullptr until PackSnapshot or AdoptSnapshot succeeds.
  const MmapSnapshotBackend* backend() const { return pages_.snapshot(); }

  // Node page layout (docs/storage.md): a 24-byte header {int32 level,
  // uint32 count, Time created, Time closed} after the envelope, then
  // 64-byte entries from this page offset on. Pool frames over a mapped
  // snapshot read them in place.
  static constexpr size_t kNodeEntryOffset = 32;
  static constexpr size_t kNodePageCapacity =
      NodePageCapacity(kNodeEntryOffset);

  // Number of logical records ever inserted.
  size_t Size() const { return size_; }

  // Number of records currently alive: inserted and not yet deleted. A
  // frozen tree takes no more deletes and keeps no record locations, so
  // it reports none.
  size_t AliveCount() const { return alive_location_.size(); }

  // Disk footprint in pages: nodes 0..PageCount()-1 (the tree never
  // frees a node).
  size_t PageCount() const { return pages_.source().SlotCount(); }

  // Number of eras in the root journal.
  size_t NumRoots() const;

  // I/O statistics of the tree's own query session (the query overloads
  // without a PageCache); misses are "disk accesses" under the paper's
  // LRU of config.buffer_pages pages. ResetQueryState() restarts that
  // LRU and zeroes the counters, as before each measured query.
  const IoStats& stats() const { return pages_.stats(); }
  void ResetQueryState() const { pages_.ResetQueryState(); }

  // Validates structural invariants at sampled time instants (alive-entry
  // bounds, lifetime nesting, MBR containment), reading the arena or,
  // once frozen, the snapshot; then the replay bookkeeping against the
  // arena's pages: every node's alive-slot bitmap, every alive node's
  // parent link and every alive record's location. Test hook.
  void CheckInvariants() const;

  // Introspection: one summary per node of the *ephemeral* tree at
  // instant t (only entries alive at t, with their alive MBR), for the
  // Pagel-style cost analyses in src/model/pagel_metrics.h.
  struct AliveNodeSummary {
    int level = 0;
    Rect2D rect;
    size_t alive = 0;
  };
  std::vector<AliveNodeSummary> CollectAliveSummaries(Time t) const;

  // --- live-tier checkpoint hooks ---------------------------------------
  // A frozen tree round-trips through checkpoint metadata — the root
  // journal and counters — plus the snapshot file it serves, which
  // AdoptSnapshot maps again. An arena tree is not persisted at all: it is
  // a function of its records, so the live tier's checkpoint keeps those
  // and recovery replays them (ReplayPprEvents).

  // Serializes the non-node state (size, clock, root journal).
  void EncodeCheckpointMeta(ByteSink* out) const;
  // Restores it into a freshly constructed tree of the same config.
  Status DecodeCheckpointMeta(PageReader* in);

 private:
  struct Entry;
  struct Header;
  struct Frame;
  struct RootEra;
  using NodeView = NodePageView<Header, Entry, kNodeEntryOffset>;
  using Node = NodePage<Header, Entry, kNodeEntryOffset>;

  // Where an alive entry sits: its node, and its slot there as a hint —
  // erasing a same-instant entry shifts the later slots of its node
  // down, so a reader checks the hinted entry and falls back to a scan.
  struct Place {
    PageId node = kInvalidPage;
    uint32_t slot = 0;
  };

  // Alive data id -> Place of its leaf entry. Open addressing over a
  // power-of-two array of slots, at most half full, with linear probing
  // and backward-shift deletion; a slot with an invalid node is empty.
  // A lookup hashes once and reads about one cache line, and no entry is
  // allocated on its own.
  class LocationTable {
   public:
    size_t size() const { return size_; }
    // The place of `data`, or nullptr.
    const Place* Find(PprDataId data) const;
    // Sets the place of `data` (a valid node), inserting `data` if absent.
    void Set(PprDataId data, Place place);
    // Removes `data` and stores its place in `*place`; false if absent.
    bool Take(PprDataId data, Place* place);

   private:
    struct Slot {
      PprDataId data = 0;
      Place place;
    };
    // The slot `data` probes first.
    size_t Home(PprDataId data) const;
    // The slot holding `data`, or the empty slot ending its probe run.
    size_t Probe(PprDataId data) const;

    std::vector<Slot> slots_;
    int shift_ = 64;  // 64 - log2(slots_.size())
    size_t size_ = 0;
  };

  // Views of arena node `id`; the tree must not be frozen. Every change
  // to a node page goes through Mutate.
  NodeView View(PageId id) const;
  Node Mutate(PageId id);

  size_t WeakMin() const;    // D
  size_t StrongMax() const;  // p_svo * B
  size_t StrongMin() const;  // p_svu * B

  PageId CurrentRoot() const;
  // The root of the era owning instant t (kInvalidPage before the first
  // insertion or in an empty era).
  PageId RootAt(Time t) const;
  void StartNewEra(PageId root, Time t);

  // Fills path_ (root..leaf) for inserting `rect` at `now`, choosing
  // among alive directory entries by least area enlargement.
  void DescendForInsert(const Rect2D& rect);

  // Appends the alive `entry` to node `id`.
  void AppendAlive(Node node, PageId id, const Entry& entry);

  // Ends alive entry `slot` of node `id` at `now`: closes its lifetime,
  // or erases it if it was born at `now` (it was never visible), which
  // shifts the later slots down by one. Returns whether it was erased.
  bool KillEntry(Node node, PageId id, size_t slot, Time now);

  // Fills path_ (root..leaf) to the given alive leaf, reconstructed
  // through the parent links maintained for alive nodes.
  void PathToAliveLeaf(PageId leaf);

  // Grows ancestor directory-entry rects so the path covers `rect`.
  void ExpandPathRects(const std::vector<Frame>& path, const Rect2D& rect);

  // Version split of path->back() at time `now`, folding `pending`
  // entries (same level as the node) into the copy. Handles key split,
  // sibling merge, parent updates and root-era changes; may recurse up
  // the path, popping the frames it leaves.
  void Restructure(std::vector<Frame>* path, std::vector<Entry> pending,
                   Time now);

  // Appends `adds` to the node at path->back(), restructuring it first if
  // they do not fit, and handles a resulting weak version underflow.
  void AddEntries(std::vector<Frame>* path, std::vector<Entry> adds,
                  Time now);

  // Splits `entries` spatially into two groups (R*-style axis/margin
  // heuristic on the 2-D rects).
  void KeySplit(std::vector<Entry>* entries, std::vector<Entry>* left,
                std::vector<Entry>* right) const;

  // Creates a node at `level` holding `entries`, maintains parent/alive
  // bookkeeping, and returns its id.
  PageId MakeNode(int level, const std::vector<Entry>& entries, Time now);

  // Grows the per-node bookkeeping to cover the new node `id`.
  void TrackNode(PageId id);
  // Frees the bookkeeping that serves updates, which a frozen tree does
  // not take: record locations and the replay's per-node state.
  void DropReplayBookkeeping();

  // The alive slot of node `id` whose entry satisfies `match`: `hint`
  // when it does (the common case reads one entry), else the first alive
  // slot that does, or SIZE_MAX.
  template <typename Match>
  size_t FindAliveSlot(PageId id, size_t hint, Match match) const;

  // Installs `root` as the root for instants >= now, collapsing directory
  // roots with a single alive child (so no non-root node can be starved of
  // merge siblings) and closing the era when nothing is alive.
  void FinalizeRoot(PageId root, Time now);

  void CollectSubtree(PageId root, PageCache* nodes,
                      std::vector<PageId>* out) const;

  // The bookkeeping half of CheckInvariants.
  void CheckReplayBookkeeping() const;

  PprConfig config_;
  // The arena of node pages, or the snapshot the tree was packed into,
  // with the tree's own query pool and protocol session.
  TreePages pages_;
  std::vector<RootEra> roots_;
  size_t size_ = 0;
  Time current_time_ = 0;

  // data id -> the leaf holding its alive entry (and that entry's slot,
  // as a hint); arena only.
  LocationTable alive_location_;

  // The replay's per-node bookkeeping, indexed by node id and kept for
  // the arena only (PackSnapshot drops it; docs/pprtree.md):
  //   alive_slots_: bit s is set iff entry s of the node is alive (node
  //     pages hold at most 63 entries);
  //   parent_of_: for an alive node, the alive directory node whose alive
  //     entry points to it (kInvalidPage for the current root) and that
  //     entry's slot, as a hint; stale for nodes that have died.
  std::vector<uint64_t> alive_slots_;
  std::vector<Place> parent_of_;

  // The update path of the current Insert/Delete and PathToAliveLeaf's
  // leaf-to-root chain, kept so updates reuse their capacity.
  std::vector<Frame> path_;
  std::vector<PageId> chain_;
};

// Replays a segment-record collection (insert at interval.start, delete at
// interval.end) into a fresh PPR-tree. Record i gets PprDataId i.
std::unique_ptr<PprTree> BuildPprTree(const std::vector<SegmentRecord>& records,
                                      PprConfig config = PprConfig());

// BuildPprTree's replay, bounded: feeds `tree` the events of the records
// that start at or after `from`, those before `below` (kTimeInfinity
// bounds nothing), in the same (time, deletes-first, record) order —
// each such record's insert at interval.start, and its delete at
// interval.end when that is before `below` too. Record i gets PprDataId
// i. `tree` must not have been fed an event later than the first
// replayed. BuildPprTree is the unbounded case on a fresh tree; the
// live tier's recovery replays its segment table.
void ReplayPprEvents(const std::vector<SegmentRecord>& records, Time from,
                     Time below, PprTree* tree);
void ReplayPprEvents(const SegmentTable& records, Time from, Time below,
                     PprTree* tree);

}  // namespace stindex

#endif  // STINDEX_PPRTREE_PPR_TREE_H_
