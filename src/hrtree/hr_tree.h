#ifndef STINDEX_HRTREE_HR_TREE_H_
#define STINDEX_HRTREE_HR_TREE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/segment.h"
#include "geometry/interval.h"
#include "geometry/rect.h"
#include "storage/buffer_pool.h"
#include "storage/page_backend.h"
#include "storage/shared_buffer_pool.h"
#include "storage/tree_pages.h"

namespace stindex {

// Payload of an HR-tree data record.
using HrDataId = uint64_t;

struct HrConfig {
  // Maximum entries per node (page capacity B).
  size_t max_entries = 50;
  // Minimum entries per node after a key split.
  size_t min_entries = 20;
  // LRU buffer pages used when answering queries.
  size_t buffer_pages = 10;
};

// The historical (overlapping) R-tree — the *other* way to make a spatial
// structure partially persistent, which the paper contrasts with the
// multiversion PPR-tree (Section I; Nascimento & Silva [17], Tzouramanis
// et al. [29], Burton et al. [4]).
//
// Conceptually one 2-D R-tree exists per time instant; consecutive trees
// differ little, so unchanged branches are SHARED and every update
// copies only the root-to-leaf path it touches (copy-on-write). Snapshot
// queries are served by an ordinary R-tree search on the root of the
// queried instant. The known trade-offs this implementation reproduces:
//
//  * storage grows by O(height) pages per change — the "logarithmic
//    overhead on the index storage requirements" of [24] — roughly an
//    order of magnitude above the PPR-tree's linear storage;
//  * interval queries must search one tree per instant in the range
//    (with result de-duplication), so they degrade with duration.
//
// Nodes are the pages of the tree's arena, mutated in place; the HR-tree
// is never persisted, so its pages are never sealed.
//
// Updates must be fed in non-decreasing time order, like the PPR-tree.
class HrTree {
 public:
  explicit HrTree(HrConfig config = HrConfig());
  ~HrTree();

  HrTree(const HrTree&) = delete;
  HrTree& operator=(const HrTree&) = delete;

  // Starts the life of record `data` with spatial key `rect` at time t.
  void Insert(const Rect2D& rect, Time t, HrDataId data);

  // Ends the life of record `data` at time t (it exists at instants < t).
  void Delete(HrDataId data, Time t);

  // All records alive at instant t whose rect intersects `area`.
  void SnapshotQuery(const Rect2D& area, Time t,
                     std::vector<HrDataId>* results) const;

  // All records alive at any instant in [range.start, range.end) whose
  // rect intersects `area`; de-duplicated. Cost grows with the number of
  // version trees in the range — the overlapping approach's weakness.
  void IntervalQuery(const Rect2D& area, const TimeInterval& range,
                     std::vector<HrDataId>* results) const;

  // Variants reading through a caller-owned page cache (one per thread):
  // a per-worker Session of one SharedBufferPool (NewSharedQueryPool).
  void SnapshotQuery(const Rect2D& area, Time t, PageCache* buffer,
                     std::vector<HrDataId>* results) const;
  void IntervalQuery(const Rect2D& area, const TimeInterval& range,
                     PageCache* buffer,
                     std::vector<HrDataId>* results) const;

  // A sharded thread-safe pool over this tree's pages whose `pages`
  // frames (0 = the configured default) are shared by every worker;
  // workers query through per-worker SharedBufferPool::Sessions.
  std::unique_ptr<SharedBufferPool> NewSharedQueryPool(size_t pages = 0) const {
    return pages_.NewSharedQueryPool(pages);
  }

  size_t Size() const { return size_; }
  size_t AliveCount() const { return alive_entry_.size(); }
  size_t PageCount() const { return pages_.source().LivePageCount(); }
  size_t NumVersions() const;

  // I/O statistics of the tree's own query session (the query overloads
  // without a PageCache): misses under the paper's LRU of
  // config.buffer_pages pages. ResetQueryState() restarts that LRU and
  // zeroes the counters.
  const IoStats& stats() const { return pages_.stats(); }
  void ResetQueryState() const { pages_.ResetQueryState(); }

  // Structural checks on every version tree (sampled): uniform leaf
  // depth, parent MBR containment, capacity bounds. Test hook.
  void CheckInvariants() const;

 private:
  struct Entry;
  struct Header;
  struct Version;
  // Entries follow the 16-byte header.
  static constexpr size_t kNodeEntryOffset = kPageEnvelopeBytes + 16;
  using NodeView = NodePageView<Header, Entry, kNodeEntryOffset>;
  using Node = NodePage<Header, Entry, kNodeEntryOffset>;

  // Mutable view of node `id`.
  Node GetNode(PageId id) const;
  // Allocates a node at `level` created at `t`, holding `entries`.
  PageId NewNode(int level, Time t, std::span<const Entry> entries);

  // Returns the root owning instant t (kInvalidPage when empty).
  PageId RootAt(Time t) const;

  // Makes `id` writable for version `t`: returns it unchanged when the
  // node was created at t, otherwise clones it (copy-on-write).
  PageId MakeWritable(PageId id, Time t, bool* copied);

  // R-tree insert of a leaf entry into the version tree rooted at
  // `root`, with path copying; returns the (possibly new) root.
  PageId InsertIntoVersion(PageId root, const Rect2D& rect, HrDataId data,
                           Time t);

  // Removes `data` from the version tree; returns the new root.
  PageId DeleteFromVersion(PageId root, HrDataId data, Time t);

  // Ensures the version list ends with a root for time t and returns a
  // writable alias of the previous root (or invalid when empty).
  void PublishRoot(PageId root, Time t);

  HrConfig config_;
  // The arena of node pages, with the tree's own query pool and protocol
  // session.
  TreePages pages_;
  // Version list: root of the tree valid from `start` until the next
  // version's start.
  std::vector<Version> roots_;
  size_t size_ = 0;
  Time current_time_ = 0;
  // data -> spatial key of the alive record (needed to find its leaf).
  std::unordered_map<HrDataId, Rect2D> alive_entry_;
};

// Replays segment records (insert at interval.start, delete at
// interval.end) into a fresh HR-tree; record i gets HrDataId i.
std::unique_ptr<HrTree> BuildHrTree(const std::vector<SegmentRecord>& records,
                                    HrConfig config = HrConfig());

}  // namespace stindex

#endif  // STINDEX_HRTREE_HR_TREE_H_
