#ifndef STINDEX_STORAGE_PAGE_STORE_H_
#define STINDEX_STORAGE_PAGE_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/check.h"

namespace stindex {

// Identifier of a disk page. Every index node occupies exactly one page.
using PageId = uint32_t;

inline constexpr PageId kInvalidPage = UINT32_MAX;

// Base class for anything stored as a disk page (index nodes of the
// R*-tree and the PPR-tree).
class Page {
 public:
  virtual ~Page() = default;
};

// A simulated disk: an append-mostly collection of pages addressed by
// PageId. The store itself performs no I/O accounting — query-time page
// accesses go through a SharedBufferPool::Session, which models the cache
// the paper uses (10-page LRU) and counts misses as disk accesses.
class PageStore {
 public:
  PageStore() = default;

  PageStore(const PageStore&) = delete;
  PageStore& operator=(const PageStore&) = delete;

  // Takes ownership of `page` and returns its id. Freed slots are reused
  // lowest-id-first before the backing vector grows, so long-running
  // insert/delete workloads keep a bounded id space (and a bounded file,
  // once pages are persisted through a backend).
  PageId Allocate(std::unique_ptr<Page> page);

  // Direct access without cache accounting (used while building indexes;
  // the paper measures query I/O only).
  Page* Get(PageId id);
  const Page* Get(PageId id) const;

  // Releases the page; its slot becomes available for reuse.
  void Free(PageId id);

  // Rewrites the id space through a bijection: live page `old_id` moves to
  // `remap[old_id]`. The remap must cover every live page exactly once with
  // targets forming the dense range [0, PageCount()); freed slots vanish
  // (the store compacts, free list cleared). Used when packing a frozen
  // tree into a snapshot whose slots are dense by construction.
  void Reindex(const std::vector<PageId>& remap);

  // Number of live pages — the index's disk footprint in pages.
  size_t PageCount() const { return live_count_; }

  // Highest number of simultaneously live pages ever observed.
  size_t PeakPageCount() const { return peak_live_count_; }

  // Size of the id space (live + free slots) — the footprint a backend
  // file needs. Stays flat when freed slots are recycled.
  size_t AllocatedCount() const { return pages_.size(); }

  // Total Allocate() calls over the store's lifetime (reuse included).
  size_t TotalAllocations() const { return total_allocations_; }

  bool IsLive(PageId id) const {
    return id < pages_.size() && pages_[id] != nullptr;
  }

  // Names the index this store backs ("ppr", "rstar", "hr"). When set,
  // the destructor publishes `pagestore.<scope>.live_pages` and
  // `pagestore.<scope>.peak_pages` gauges (SetMax — order-independent)
  // and adds TotalAllocations() to `pagestore.<scope>.allocations`.
  void SetMetricScope(std::string scope) { metric_scope_ = std::move(scope); }

  ~PageStore();

 private:
  std::vector<std::unique_ptr<Page>> pages_;
  // Min-heap of freed slot ids; Allocate pops the lowest so id reuse is
  // deterministic for a given operation sequence.
  std::vector<PageId> free_slots_;
  size_t live_count_ = 0;
  size_t peak_live_count_ = 0;
  size_t total_allocations_ = 0;
  std::string metric_scope_;
};

}  // namespace stindex

#endif  // STINDEX_STORAGE_PAGE_STORE_H_
