#ifndef STINDEX_STORAGE_TREE_PAGES_H_
#define STINDEX_STORAGE_TREE_PAGES_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page_backend.h"
#include "storage/page_codec.h"
#include "storage/shared_buffer_pool.h"
#include "storage/snapshot_file.h"
#include "util/status.h"

namespace stindex {

// The check every sealed node page passes before it is read in place —
// each page a pool loads from a packed snapshot: the envelope (checksum,
// `kind`, version), then a plausible {int32 level, uint32 count} header
// prefix (NodePageView): a non-negative level and at most `max_count`
// entries. Errors name the page and the tree (`name`, a string literal).
class NodePageCheck final : public PageCodec {
 public:
  NodePageCheck(PageKind kind, const char* name, size_t max_count)
      : kind_(kind), name_(name), max_count_(max_count) {}

  Status Check(const uint8_t* page, PageId id) const override;

  PageKind kind() const { return kind_; }

 private:
  PageKind kind_;
  const char* name_;
  size_t max_count_;
};

// The pages of one tree and their lifecycle, shared by the PPR-, R*- and
// HR-tree. A tree is built in its arena — a MemoryPageBackend of
// unsealed node pages it mutates in place — and may be frozen once, by
// Pack (or, for a recovered tree, Adopt), into a read-only snapshot it
// serves until it dies: exactly one of the two exists. Pools over the
// arena borrow its pages unchecked; pools over the snapshot check every
// page they load. TreePages also owns the tree's own query pool and the
// protocol session behind the query overloads that take no PageCache.
// Pools borrow the pages and the check, so they must die before a Pack
// succeeds and before the TreePages.
class TreePages {
 public:
  // `scope` (a string literal: "ppr", "rstar", "hr") names the tree in the
  // arena's pagestore.* gauges, the query pools' bufferpool.* counters
  // and the pack's trace span. `buffer_pages` is the paper's LRU size:
  // the protocol session's and the default pool capacity. A tree that is
  // never packed passes no check.
  TreePages(const char* scope, size_t buffer_pages,
            std::optional<NodePageCheck> check);
  ~TreePages();

  TreePages(const TreePages&) = delete;
  TreePages& operator=(const TreePages&) = delete;

  bool frozen() const { return snapshot_ != nullptr; }

  // The arena, for in-place mutation; a frozen tree has none (checked).
  MemoryPageBackend& arena() const;

  // Where the pages live: the arena, or the snapshot once packed.
  const PageBackend& source() const;

  // Nullptr until Pack or Adopt succeeds.
  const MmapSnapshotBackend* snapshot() const { return snapshot_.get(); }

  // A pool of `pages` frames (0: buffer_pages) over source(), publishing
  // bufferpool.<scope>.* counters — or not, for walks that are not
  // queries (invariant checks, summaries).
  std::unique_ptr<SharedBufferPool> NewSharedQueryPool(size_t pages = 0) const;
  std::unique_ptr<SharedBufferPool> NewUnpublishedPool(size_t pages = 0) const;

  // The tree's own protocol session and its statistics;
  // ResetQueryState() restarts its LRU and zeroes the counters.
  SharedBufferPool::Session* session() const { return session_.get(); }
  const IoStats& stats() const { return session_->stats(); }
  void ResetQueryState() const;

  // Rewrites the child ids of a copied directory page (level > 0)
  // through `remap` (arena id -> snapshot slot).
  using RemapChildren = void (*)(Page* page, const std::vector<PageId>& remap);

  // Packs the arena's pages into a read-only snapshot file at
  // `path` and makes it the only page source. Pages go bottom-up (level,
  // then arena id), so every level is one contiguous extent; each is
  // copied straight into the SnapshotWriter's batch, its children
  // remapped there, and sealed with the check's kind: one checksum pass
  // per page, the manifest entry following from the seal's checksum by
  // CRC combination. The snapshot is then opened (verified, then
  // mapped), the arena released and the query pool reopened. The remap
  // is a bijection of the page-id access sequence, so per-query LRU
  // misses stay identical; it is returned (arena id -> slot) for the
  // tree's own references. `attach`, when set, streams an attachment
  // into the file beside the nodes (SnapshotWriter::Finish). On failure
  // nothing changes. Packing twice is a checked error.
  Result<std::vector<PageId>> Pack(
      const std::string& path, RemapChildren remap_children,
      const std::function<void(ByteSink*)>& attach = nullptr);

  // Drops the arena and serves `snapshot` instead, as Pack does once its
  // file is written: how a recovered tree, which holds no page, serves
  // again the file an earlier Pack of it wrote.
  void Adopt(std::unique_ptr<MmapSnapshotBackend> snapshot);

 private:
  // A pool over source(), checking pages only from the sealed snapshot.
  std::unique_ptr<SharedBufferPool> NewPool(size_t pages,
                                            std::string metric_scope) const;
  // (Re)opens the query pool and the protocol session over source().
  void OpenQueryPool();

  const char* scope_;
  size_t buffer_pages_;
  std::optional<NodePageCheck> check_;
  // Exactly one of arena_ and snapshot_ is set. Declared before pool_ so
  // the pool dies before the pages it borrows; session_ after pool_ so
  // it dies first.
  std::unique_ptr<MemoryPageBackend> arena_;
  std::unique_ptr<MmapSnapshotBackend> snapshot_;
  std::unique_ptr<SharedBufferPool> pool_;
  std::unique_ptr<SharedBufferPool::Session> session_;
};

struct QueryProfile;

// Counts a node WalkNodes visits into `profile`: one node at `level`,
// and `leaf_entries` leaf entries scanned.
void ProfileNode(QueryProfile* profile, int level, size_t leaf_entries);

// Adds a query's `candidates` and the hits and misses `cache` counted
// since `before` to `profile`; nullptr skips it.
void ProfileQuery(QueryProfile* profile, const IoStats& before,
                  const PageCache& cache, size_t candidates);

// The depth-first walk of every tree query over node pages, and so the
// page-visit order behind each query's misses under an LRU. Pops a page
// id off a LIFO stack seeded with `root` and fetches it through `cache`,
// pinned while the node is read (a deeper fetch may evict); tests its
// entries in slot order with `keep(node, entry)`, pushing each kept
// directory entry's child and handing each kept leaf entry to
// `visit(entry)`. A non-null `profile` counts every node at its level
// and every leaf's entries as scanned. `NodeView` is the tree's
// NodePageView; `keep` and `visit` are inlined, with no indirect call
// per entry.
template <typename NodeView, typename Keep, typename Visit>
void WalkNodes(PageCache* cache, PageId root, QueryProfile* profile,
               Keep&& keep, Visit&& visit) {
  std::vector<PageId> stack = {root};
  while (!stack.empty()) {
    const PageId id = stack.back();
    stack.pop_back();
    const PageRef ref = cache->FetchPinned(id);
    const NodeView node(ref.get());
    if (profile != nullptr) {
      ProfileNode(profile, node.level(),
                  node.IsLeaf() ? node.entries().size() : 0);
    }
    for (const auto& entry : node.entries()) {
      if (!keep(node, entry)) continue;
      if (node.IsLeaf()) {
        visit(entry);
      } else {
        stack.push_back(entry.child);
      }
    }
  }
}

}  // namespace stindex

#endif  // STINDEX_STORAGE_TREE_PAGES_H_
