#ifndef STINDEX_STORAGE_BUFFER_POOL_H_
#define STINDEX_STORAGE_BUFFER_POOL_H_

#include <cstdint>

#include "storage/page_codec.h"

namespace stindex {

class PageRef;

// Counters for disk traffic. "Disk accesses" in all experiments are
// buffer-pool misses, exactly the metric the paper plots. In backend mode
// every real pool miss is an actual backend read, not a simulated one.
struct IoStats {
  uint64_t accesses = 0;
  uint64_t misses = 0;

  uint64_t Hits() const { return accesses - misses; }

  void Reset() { *this = IoStats(); }
};

// What the tree query paths read pages through: a pinning cache handing
// out PageRefs and counting accesses/misses. Implemented by
// SharedBufferPool::Session (a per-worker view of one pool shared by all
// workers). Implementations are single-caller objects: one thread uses
// one PageCache at a time.
class PageCache {
 public:
  virtual ~PageCache() = default;

  // Fetch + pin: the page stays resident until the PageRef dies.
  virtual PageRef FetchPinned(PageId id) = 0;

  // Access/miss counters for this cache view (resettable by the
  // concrete type's ResetStats, where offered).
  virtual const IoStats& stats() const = 0;

 protected:
  friend class PageRef;

  // Drops one pin on `id` (called by PageRef on release/destruction).
  virtual void Unpin(PageId id) = 0;

  // PageRef's constructor is private; implementations mint refs here.
  PageRef MakeRef(PageId id, const Page* page);
};

// RAII pin on a buffered page. While a PageRef is live the frame cannot
// be evicted; destruction unpins. Move-only. A moved-from or released
// ref is fully reset (null page, kInvalidPage id) and Release() on it is
// a safe no-op.
class PageRef {
 public:
  PageRef() = default;
  PageRef(PageRef&& other) noexcept
      : pool_(other.pool_), id_(other.id_), page_(other.page_) {
    other.pool_ = nullptr;
    other.id_ = kInvalidPage;
    other.page_ = nullptr;
  }
  PageRef& operator=(PageRef&& other) noexcept;
  ~PageRef();

  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;

  const Page* get() const { return page_; }
  const Page* operator->() const { return page_; }
  PageId id() const { return id_; }
  explicit operator bool() const { return page_ != nullptr; }

  // Drops the pin early (idempotent, safe on moved-from refs).
  void Release();

 private:
  friend class PageCache;
  PageRef(PageCache* pool, PageId id, const Page* page)
      : pool_(pool), id_(id), page_(page) {}

  PageCache* pool_ = nullptr;
  PageId id_ = kInvalidPage;
  const Page* page_ = nullptr;
};

inline PageRef PageCache::MakeRef(PageId id, const Page* page) {
  return PageRef(this, id, page);
}

}  // namespace stindex

#endif  // STINDEX_STORAGE_BUFFER_POOL_H_
