#ifndef STINDEX_RSTAR_RSTAR_TREE_H_
#define STINDEX_RSTAR_RSTAR_TREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "geometry/box.h"
#include "storage/buffer_pool.h"
#include "storage/page_backend.h"
#include "storage/shared_buffer_pool.h"
#include "storage/snapshot_file.h"
#include "storage/tree_pages.h"
#include "util/status.h"

namespace stindex {

struct QueryProfile;

// Opaque payload attached to a leaf entry (a segment-record index in the
// experiments; callers de-duplicate by object after lookup).
using DataId = uint64_t;

// Node split strategy. The paper's baseline is the R*-tree [3]; the
// original Guttman splits [8] are provided for ablation ("an R-Tree or
// its variants").
enum class SplitStrategy {
  kRStar,      // margin-driven axis + min-overlap distribution
  kQuadratic,  // Guttman quadratic: max-waste seeds, greedy assignment
  kLinear,     // Guttman linear: max-separation seeds, cheap assignment
};

// Tuning knobs of the R*-tree. Defaults follow the paper's setup (page
// capacity 50) and the Beckmann et al. recommendations (40% minimum fill,
// 30% forced reinsertion).
struct RStarConfig {
  // Maximum entries per node (page capacity).
  size_t max_entries = 50;
  // Minimum entries per node after a split.
  size_t min_entries = 20;
  // Entries removed on forced reinsertion (p in the R* paper).
  size_t reinsert_count = 15;
  // LRU buffer pages used when answering queries.
  size_t buffer_pages = 10;
  // Split algorithm; non-R* strategies also switch ChooseSubtree to the
  // classic least-enlargement criterion at every level.
  SplitStrategy split = SplitStrategy::kRStar;
  // Disable to split immediately on every overflow (classic R-tree).
  bool forced_reinsert = true;
};

// Leaf ordering used by bulk loading (packed R-trees). The paper decided
// against packing for its experiments — "packing does not help
// substantially with datasets of moving objects" (Section V) — and the
// bench_ablation_packing harness reproduces that observation.
enum class PackingMethod {
  kStr,      // Sort-Tile-Recursive (Leutenegger et al. [15])
  kHilbert,  // Hilbert-curve order (Kamel & Faloutsos [9])
};

// A 3-dimensional R*-tree (Beckmann, Kriegel, Schneider, Seeger, SIGMOD
// 1990) whose nodes are the pages of its arena, mutated in place:
// ChooseSubtree with minimum overlap
// enlargement at the leaf level, margin-driven split axis selection,
// minimum-overlap split distribution, and forced reinsertion. This is the
// "straightforward" baseline the paper compares against: objects (or their
// split segments) become 3-D boxes whose height is the lifetime interval,
// with the time axis scaled to the unit range beforehand.
class RStarTree {
 public:
  explicit RStarTree(RStarConfig config = RStarConfig());
  ~RStarTree();

  RStarTree(const RStarTree&) = delete;
  RStarTree& operator=(const RStarTree&) = delete;

  // Builds a packed tree bottom-up: box i carries payload i. Nodes are
  // filled to capacity (the final pair per level is rebalanced to honor
  // the minimum fill).
  static std::unique_ptr<RStarTree> BulkLoad(const std::vector<Box3D>& boxes,
                                             PackingMethod method,
                                             RStarConfig config = RStarConfig());

  // Inserts a box with its payload.
  void Insert(const Box3D& box, DataId data);

  // Removes the entry with this exact box and payload (Guttman's delete
  // with CondenseTree: under-filled nodes are dissolved and their entries
  // re-inserted). Returns false when no such entry exists.
  bool Delete(const Box3D& box, DataId data);

  // Collects the payloads of all leaf entries whose box intersects
  // `query`, reading nodes through the LRU buffer (misses count as disk
  // accesses in stats()).
  void Search(const Box3D& query, std::vector<DataId>* results) const;

  // Same, through a caller-owned page cache (one per querying thread): a
  // per-worker Session of one SharedBufferPool (NewSharedQueryPool).
  // When `profile` is non-null,
  // per-level node visits, buffer hit/miss deltas, leaf entries scanned
  // and candidate counts are accumulated into it (see
  // core/query_profile.h); nullptr skips all profiling work.
  void Search(const Box3D& query, PageCache* buffer,
              std::vector<DataId>* results,
              QueryProfile* profile = nullptr) const;

  // A sharded thread-safe pool over this tree's pages whose `pages`
  // frames (0 = the configured default) are shared by every worker.
  // Workers query through per-worker SharedBufferPool::Sessions; a
  // protocol-mode Session reports the paper's per-query misses. Before
  // PackSnapshot the pool borrows the arena's pages; after, it borrows
  // and checks the snapshot's mapped pages.
  std::unique_ptr<SharedBufferPool> NewSharedQueryPool(size_t pages = 0) const {
    return pages_.NewSharedQueryPool(pages);
  }

  // Packs the live nodes into a read-only snapshot file at `path` and
  // serves all subsequent queries from its mmap'd pages (zero-copy) —
  // the only way the tree leaves its arena (TreePages::Pack). Live ids
  // (sparse after deletes) are remapped to a dense bottom-up layout —
  // leaves first, then each directory level in one contiguous extent. The remap is a bijection
  // of the page-id access sequence, so per-query LRU miss counts are
  // byte-identical to the unpacked tree's. The tree is frozen
  // afterwards — Insert/Delete become checked errors — and releases its
  // arena; pools from NewSharedQueryPool must be destroyed first. On
  // failure it keeps serving from its arena, unchanged.
  Status PackSnapshot(const std::string& path);

  // Nullptr until PackSnapshot succeeds.
  const MmapSnapshotBackend* backend() const { return pages_.snapshot(); }

  // Node page layout (docs/storage.md): an 8-byte header {int32 level,
  // uint32 count} after the envelope, then 64-byte entries from this page
  // offset on. Pool frames over a mapped snapshot read them in place.
  static constexpr size_t kNodeEntryOffset = 16;
  static constexpr size_t kNodePageCapacity =
      NodePageCapacity(kNodeEntryOffset);

  // Number of leaf entries stored.
  size_t Size() const { return size_; }

  // Disk footprint in pages (nodes).
  size_t PageCount() const { return pages_.source().LivePageCount(); }

  // Tree height (1 = root is a leaf); 0 when empty.
  size_t Height() const;

  // I/O statistics of the tree's own query session (the query overloads
  // without a PageCache); misses are "disk accesses" under the paper's
  // LRU of config.buffer_pages pages. ResetQueryState() restarts that
  // LRU and zeroes the counters, as before each measured query.
  const IoStats& stats() const { return pages_.stats(); }
  void ResetQueryState() const { pages_.ResetQueryState(); }

  // Validates structural invariants (entry counts, MBR containment,
  // uniform leaf depth), reading the arena or, once frozen, the snapshot.
  // Test hook; aborts on violation.
  void CheckInvariants() const;

  // Introspection: one summary per node (level, MBR, entry count), for
  // the Pagel-style cost analyses in src/model/pagel_metrics.h.
  struct NodeSummary {
    int level = 0;
    Box3D box;
    size_t entries = 0;
  };
  std::vector<NodeSummary> CollectNodeSummaries() const;

 private:
  struct Entry;
  struct Header;
  using NodeView = NodePageView<Header, Entry, kNodeEntryOffset>;
  using Node = NodePage<Header, Entry, kNodeEntryOffset>;

  // Mutable view of arena node `id`; the tree must not be frozen.
  Node GetNode(PageId id) const;
  // Allocates an empty arena node at `level`.
  PageId NewNode(int level);
  void FreeNode(PageId id);

  // Descends from the root to a node at `target_level`, recording the
  // path (page ids and the entry index taken in each parent).
  void ChoosePath(const Box3D& box, int target_level,
                  std::vector<PageId>* path_nodes,
                  std::vector<size_t>* path_slots) const;

  // Core insertion of an entry at `target_level` (0 for data).
  void InsertEntry(const Box3D& box, PageId child, DataId data,
                   int target_level, bool allow_reinsert);

  // Overflow handling: forced reinsertion on first overflow per level per
  // insertion, node split otherwise.
  void HandleOverflow(std::vector<PageId>& path_nodes,
                      std::vector<size_t>& path_slots, bool allow_reinsert);

  void SplitNode(std::vector<PageId>& path_nodes,
                 std::vector<size_t>& path_slots);

  void Reinsert(std::vector<PageId>& path_nodes,
                std::vector<size_t>& path_slots);

  // Recomputes MBRs upward along the path after a child changed.
  void AdjustPath(const std::vector<PageId>& path_nodes,
                  const std::vector<size_t>& path_slots) const;

  RStarConfig config_;
  // The arena of node pages, or the snapshot the tree was packed into,
  // with the tree's own query pool and protocol session.
  TreePages pages_;
  PageId root_ = kInvalidPage;
  size_t size_ = 0;
  // Levels on which forced reinsertion already ran during the current
  // insertion (R* invokes it at most once per level per insertion).
  mutable std::vector<bool> reinserted_on_level_;
};

}  // namespace stindex

#endif  // STINDEX_RSTAR_RSTAR_TREE_H_
