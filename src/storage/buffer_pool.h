#ifndef STINDEX_STORAGE_BUFFER_POOL_H_
#define STINDEX_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "storage/page_backend.h"
#include "storage/page_codec.h"
#include "storage/page_store.h"
#include "util/status.h"

namespace stindex {

class PageRef;

// Counters for disk traffic. "Disk accesses" in all experiments are
// buffer-pool misses, exactly the metric the paper plots. In backend mode
// every miss is an actual backend read, not a simulated one.
struct IoStats {
  uint64_t accesses = 0;
  uint64_t misses = 0;

  uint64_t Hits() const { return accesses - misses; }

  void Reset() { *this = IoStats(); }
};

// What the tree query paths read pages through: a pinning cache handing
// out PageRefs and counting accesses/misses. Implemented by BufferPool
// (one private cache per caller) and SharedBufferPool::Session (a
// per-worker view of one pool shared by all workers). Implementations
// are single-caller objects: one thread uses one PageCache at a time.
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

// A pinning write-back LRU page cache. Two modes:
//
//  * Store mode (the historical simulated disk): fronts a PageStore of
//    live node objects; a miss touches the store, nothing is serialized.
//  * Backend mode: fronts a PageBackend through a PageCodec. A miss is an
//    actual backend read + decode — or, when the backend lends the page
//    (BorrowPage), a PageCodec::View over it in place; Put() inserts dirty
//    frames that are encoded and written back when evicted, flushed, or
//    at destruction.
//
// Eviction takes the least-recently-used *unpinned* frame; pinned frames
// (live PageRefs) are skipped. Both modes share one LRU/pin
// implementation, so miss counts are identical across modes for the same
// access sequence — the differential tests pin that property.
//
// The paper uses a 10-page LRU buffer reset before every query;
// ResetCache() supports that protocol while keeping cumulative
// statistics.
//
// A pool only reads from its store/backend during queries, so multiple
// pools over the same substrate may be used concurrently (one per
// querying thread); a single pool is not itself thread-safe. For one
// cache whose capacity is shared by all threads, see SharedBufferPool.
class BufferPool : public PageCache {
 public:
  // Store mode. `capacity` is the number of page frames (> 0).
  // `metric_scope` names the index this pool serves ("ppr", "rstar",
  // "hr"); when non-empty the pool's lifetime totals are published to the
  // global MetricRegistry counters `bufferpool.<scope>.accesses`,
  // `.misses` and `.evictions` — incrementally via PublishStats(), with
  // the remainder published on destruction. Counter sums are
  // order-independent, so per-worker pools keep instrumented runs
  // deterministic at any thread count.
  BufferPool(const PageStore* store, size_t capacity,
             std::string metric_scope = std::string());

  // Backend mode. `backend` and `codec` are borrowed and must outlive the
  // pool (frames over borrowed pages point into the backend's storage).
  // Destruction flushes dirty frames (a flush failure there is a checked
  // error — destructors cannot report Status).
  BufferPool(PageBackend* backend, const PageCodec* codec, size_t capacity,
             std::string metric_scope = std::string());

  ~BufferPool() override;

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Reads a page through the cache; a miss counts as one disk access (and
  // in backend mode performs one). The returned pointer is only valid
  // until the next pool operation that can evict — use FetchPinned when
  // the page must stay resident. Fetching a freed/never-written PageId,
  // or failing to read/decode it, is a checked error naming the page —
  // an index handing out a dangling page id is structurally corrupt.
  const Page* Fetch(PageId id);

  // Fetch + pin: the frame stays resident until the PageRef dies.
  PageRef FetchPinned(PageId id) override;

  // Backend mode only: inserts `page` as a dirty frame for `id`, evicting
  // (with write-back) if needed. An eviction write failure surfaces here.
  Status Put(PageId id, std::unique_ptr<Page> page);

  // Backend mode only: encodes and writes every dirty frame (ascending
  // page id, deterministic), leaving them cached and clean.
  Status FlushAll();

  // Drops all cached pages (as before each measured query). Requires no
  // pinned and no dirty frames.
  void ResetCache();

  // Drops every frame *including dirty ones* without writing them back.
  // For abandoning a failed shadow-write pass (a checkpoint that hit an
  // I/O error): the target slots are garbage anyway, and flushing on
  // destruction would turn the already-reported error into a crash.
  void DiscardAll();

  // Zeroes the per-query counters (lifetime totals keep accumulating).
  void ResetStats() { stats_.Reset(); }

  // Publishes the lifetime-total deltas accumulated since the last
  // publish to the bufferpool.<scope>.* counters (no-op without a
  // metric scope). The destructor publishes whatever remains, so calling
  // this any number of times — e.g. from a long-running server's stats
  // endpoint, which never reaches the destructor — never double-counts.
  void PublishStats();

  const IoStats& stats() const override { return stats_; }
  // Totals since construction; unaffected by ResetStats/ResetCache.
  const IoStats& lifetime_stats() const { return lifetime_stats_; }
  size_t capacity() const { return capacity_; }
  size_t CachedPages() const { return frames_.size(); }
  size_t PinnedPages() const { return pinned_count_; }
  size_t DirtyPages() const { return dirty_count_; }
  uint64_t Evictions() const { return lifetime_evictions_; }
  bool backend_mode() const { return backend_ != nullptr; }

 protected:
  void Unpin(PageId id) override;

 private:
  struct Frame {
    const Page* page = nullptr;      // what Fetch returns
    std::unique_ptr<Page> owned;     // backend mode: decoded node or view
    uint32_t pins = 0;
    bool dirty = false;
    std::list<PageId>::iterator lru;  // position in lru_
  };

  // Frees one frame slot if at capacity. Write-back failure of a dirty
  // victim is reported; all-frames-pinned is a checked error.
  Status EvictIfFull();
  Status WriteBack(PageId id, Frame& frame);
  // Loads the page on a miss (store read, backend read + decode, or a
  // view over a borrowed page).
  Frame LoadFrame(PageId id);
  Frame* FindResident(PageId id);
  Frame& InsertFrame(PageId id, Frame frame);

  const PageStore* store_ = nullptr;
  PageBackend* backend_ = nullptr;
  const PageCodec* codec_ = nullptr;
  size_t capacity_;
  std::string metric_scope_;
  IoStats stats_;
  IoStats lifetime_stats_;
  IoStats published_stats_;
  uint64_t lifetime_evictions_ = 0;
  uint64_t published_evictions_ = 0;
  size_t pinned_count_ = 0;  // frames with pins > 0
  size_t dirty_count_ = 0;
  // Most-recently-used at front; every resident frame is listed, pinned
  // frames are skipped during victim search.
  std::list<PageId> lru_;
  std::unordered_map<PageId, Frame> frames_;
};

}  // namespace stindex

#endif  // STINDEX_STORAGE_BUFFER_POOL_H_
