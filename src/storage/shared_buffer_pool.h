#ifndef STINDEX_STORAGE_SHARED_BUFFER_POOL_H_
#define STINDEX_STORAGE_SHARED_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page_backend.h"
#include "storage/page_codec.h"
#include "util/status.h"

namespace stindex {

struct SharedBufferPoolOptions {
  // Total page frames across all shards (> 0). This is what
  // --buffer-pages means: the whole process shares this many frames,
  // regardless of how many threads query through the pool. The shard
  // count is the largest power of two <= min(16, capacity).
  size_t capacity = 64;
  // When non-empty, lifetime totals are published to the MetricRegistry
  // counters bufferpool.<scope>.{accesses,misses,evictions} by
  // PublishStats() and on destruction.
  std::string metric_scope;
};

// The one page cache: a thread-safe sharded read-only LRU shared by every
// query worker. Capacity is split across shards (shard = hash of the
// PageId); each shard has its own mutex, LRU list and frame table.
// Eviction takes the least-recently-used unpinned frame of the shard, so
// `capacity` bounds the whole process no matter how many threads query.
//
// A Pin that needs a frame in a shard whose frames are all pinned grows
// that shard past its slice transiently — at most one extra frame per
// concurrent pin — and the overage is trimmed as soon as unpinned victims
// exist. Page ids hash to shards, so short pin pile-ups on one shard are
// expected and must not fail a query.
//
// Workers do not fetch through the pool directly: each opens a Session
// (one per worker, single-threaded), which implements the PageCache
// interface for the tree query paths and keeps the deterministic
// per-worker accounting the paper's measurement protocol needs.
// Pin/Unpin are safe to call from any thread. Writing pages is not the
// pool's business: trees mutate their arena pages in place and write
// sealed copies to a backend directly.
class SharedBufferPool {
 public:
  class Session;

  // Fronts `backend`, which must lend every slot (BorrowPage: a
  // tree's arena, the mmap snapshot): a frame points at the lent page and
  // owns no copy. `codec` checks every page a miss loads and is null only
  // over a tree's own arena, whose pages are not sealed. `backend` and
  // `codec` are borrowed and must outlive the pool.
  SharedBufferPool(const PageBackend* backend, const PageCodec* codec,
                   const SharedBufferPoolOptions& options);

  // Publishes the remaining stats.
  ~SharedBufferPool();

  SharedBufferPool(const SharedBufferPool&) = delete;
  SharedBufferPool& operator=(const SharedBufferPool&) = delete;

  // Pins `id`, borrowing it on a miss; `*missed` reports whether this
  // call loaded the page. The returned page stays resident until the
  // matching Unpin. Pinning an out-of-range, unlent or corrupt page
  // is a checked error naming the page — an index handing out such an id
  // is structurally corrupt. Prefer a Session over calling this directly.
  Result<const Page*> Pin(PageId id, bool* missed);

  // Drops one pin taken by Pin. Unpinning a page that is not resident or
  // not pinned is a checked error.
  void Unpin(PageId id);

  // Publishes the lifetime-total deltas accumulated since the last
  // publish to the bufferpool.<scope>.* counters (no-op without a metric
  // scope). Callable any time from any thread — e.g. a long-running
  // server's stats endpoint — without double-counting; destruction
  // publishes whatever remains.
  void PublishStats();

  // Lifetime totals summed across shards. Real traffic: in a warm run
  // misses here are (far) fewer than the per-worker protocol misses the
  // Sessions report, because residency is shared.
  IoStats AggregateStats() const;
  uint64_t Evictions() const;

  size_t capacity() const { return capacity_; }
  size_t shard_count() const { return shards_.size(); }
  size_t CachedPages() const;
  size_t PinnedPages() const;

  // Point-in-time occupancy of one shard (telemetry: the /statusz pool
  // section). pinned <= cached; cached may transiently exceed capacity
  // while every frame of the shard is pinned.
  struct ShardOccupancy {
    size_t capacity = 0;
    size_t cached = 0;
    size_t pinned = 0;
  };
  std::vector<ShardOccupancy> ShardOccupancies() const;

 private:
  struct Frame {
    const Page* page = nullptr;  // the backend's lent page
    uint32_t pins = 0;
    std::list<PageId>::iterator lru;
  };

  // One lock domain. Shards never interact, so there is no lock order.
  struct Shard {
    mutable std::mutex mutex;
    size_t capacity = 0;  // this shard's slice of the total
    IoStats stats;        // lifetime, guarded by mutex
    uint64_t evictions = 0;
    size_t pinned = 0;  // frames with pins > 0
    std::list<PageId> lru;  // MRU at front
    std::unordered_map<PageId, Frame> frames;
  };

  size_t ShardOf(PageId id) const;
  // Evicts least-recently-used unpinned frames until the shard holds
  // fewer than `limit` frames or no unpinned victim remains. Caller holds
  // the shard mutex.
  void EvictDownTo(Shard& shard, size_t limit);
  // The page a miss loads: the backend's lent page, after the codec's
  // check.
  const Page* LoadPage(PageId id) const;

  const PageBackend* backend_;
  const PageCodec* codec_;
  size_t capacity_ = 0;
  std::string metric_scope_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::mutex publish_mutex_;
  IoStats published_stats_;
  uint64_t published_evictions_ = 0;
};

// A per-worker view of a SharedBufferPool, implementing PageCache for
// the tree query paths. Page bytes always come from the shared pool
// through short-lived pins; what varies is the accounting stats()
// reports:
//
//  * Protocol mode (protocol_pages > 0): simulates the paper's private
//    LRU of `protocol_pages` frames over this session's own access
//    stream (ids only, nothing stored): an access misses iff its page is
//    not among the last `protocol_pages` distinct pages this session
//    accessed since ResetCache(). Per-query miss counts are therefore
//    identical at any thread count and regardless of what other sessions
//    do, while the real reads underneath are deduplicated pool-wide.
//    ResetCache() restarts the simulated LRU before each measured query,
//    per the paper's protocol.
//
//  * Pass-through mode (protocol_pages == 0): every access reports the
//    shared pool's real hit/miss outcome — what a warm server run
//    observes.
//
// A Session is single-threaded (one per worker); the pool it views is
// shared.
class SharedBufferPool::Session : public PageCache {
 public:
  explicit Session(SharedBufferPool* pool, size_t protocol_pages = 0);

  PageRef FetchPinned(PageId id) override;
  const IoStats& stats() const override { return stats_; }
  const IoStats& lifetime_stats() const { return lifetime_stats_; }

  // Restarts the simulated protocol LRU (no effect on the shared pool's
  // residency). No-op in pass-through mode.
  void ResetCache();
  void ResetStats() { stats_.Reset(); }
  size_t protocol_pages() const { return protocol_pages_; }

 protected:
  void Unpin(PageId id) override;

 private:
  SharedBufferPool* pool_;
  size_t protocol_pages_;
  // The simulated LRU: ids only, least recent first. A linear scan beats
  // hashing at the paper's 10 pages; the cost grows with protocol_pages.
  std::vector<PageId> lru_;
  IoStats stats_;
  IoStats lifetime_stats_;
};

}  // namespace stindex

#endif  // STINDEX_STORAGE_SHARED_BUFFER_POOL_H_
