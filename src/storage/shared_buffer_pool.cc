#include "storage/shared_buffer_pool.h"

#include <algorithm>
#include <utility>

#include "util/metrics.h"
#include "util/trace.h"

namespace stindex {

namespace {

// splitmix64 finalizer: page ids are dense and tree traversals touch
// correlated runs of them, so shard selection needs real mixing — plain
// masking would funnel whole subtrees into one shard.
uint64_t MixPageId(PageId id) {
  uint64_t x = static_cast<uint64_t>(id);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

SharedBufferPool::SharedBufferPool(const PageStore* store,
                                   const SharedBufferPoolOptions& options)
    : store_(store) {
  STINDEX_CHECK(store != nullptr);
  InitShards(options);
}

SharedBufferPool::SharedBufferPool(PageBackend* backend, const PageCodec* codec,
                                   const SharedBufferPoolOptions& options)
    : backend_(backend), codec_(codec) {
  STINDEX_CHECK(backend != nullptr);
  STINDEX_CHECK(codec != nullptr);
  InitShards(options);
}

SharedBufferPool::~SharedBufferPool() {
  const Status status = FlushAll();
  STINDEX_CHECK_MSG(status.ok(), status.ToString().c_str());
  PublishStats();
}

void SharedBufferPool::InitShards(const SharedBufferPoolOptions& options) {
  STINDEX_CHECK_MSG(options.capacity > 0,
                    "SharedBufferPool: capacity must be > 0");
  capacity_ = options.capacity;
  pin_overflow_ = options.pin_overflow;
  metric_scope_ = options.metric_scope;
  size_t shards = options.shards;
  if (shards == 0) {
    shards = 1;
    while (shards * 2 <= std::min<size_t>(16, capacity_)) shards *= 2;
  }
  STINDEX_CHECK_MSG((shards & (shards - 1)) == 0 && shards > 0,
                    "SharedBufferPool: shard count must be a power of two");
  STINDEX_CHECK_MSG(shards <= capacity_,
                    "SharedBufferPool: more shards than page frames");
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    auto shard = std::make_unique<Shard>();
    // Split the total capacity across shards; the first capacity % shards
    // shards take the remainder, one frame each.
    shard->capacity = capacity_ / shards + (i < capacity_ % shards ? 1 : 0);
    shards_.push_back(std::move(shard));
  }
}

size_t SharedBufferPool::ShardOf(PageId id) const {
  return static_cast<size_t>(MixPageId(id) & (shards_.size() - 1));
}

Status SharedBufferPool::WriteBack(PageId id, Frame& frame, Shard& shard) {
  uint8_t buffer[kPageSize];
  codec_->Encode(*frame.page, buffer);
  Status status = backend_->Write(id, buffer);
  if (!status.ok()) {
    return Status(status.code(), "write-back of page " + std::to_string(id) +
                                     " failed: " + status.message());
  }
  frame.dirty = false;
  --shard.dirty;
  return Status::OK();
}

Status SharedBufferPool::MakeRoom(Shard& shard) {
  while (shard.frames.size() >= shard.capacity) {
    PageId victim = kInvalidPage;
    for (auto it = shard.lru.rbegin(); it != shard.lru.rend(); ++it) {
      if (shard.frames.at(*it).pins == 0) {
        victim = *it;
        break;
      }
    }
    if (victim == kInvalidPage) {
      // Every frame in this shard is pinned right now.
      if (pin_overflow_) return Status::OK();
      return Status::FailedPrecondition(
          "SharedBufferPool: every frame in the shard is pinned, cannot "
          "evict (shard capacity " +
          std::to_string(shard.capacity) + ", " +
          std::to_string(shard.pinned) + " pinned)");
    }
    Frame& frame = shard.frames.at(victim);
    TraceSpan span("storage", "shared_evict");
    span.Arg("page", static_cast<int64_t>(victim))
        .Arg("dirty", static_cast<int64_t>(frame.dirty ? 1 : 0));
    if (frame.dirty) {
      Status status = WriteBack(victim, frame, shard);
      if (!status.ok()) return status;
    }
    shard.lru.erase(frame.lru);
    shard.frames.erase(victim);
    ++shard.evictions;
  }
  return Status::OK();
}

Result<const Page*> SharedBufferPool::Pin(PageId id, bool* missed) {
  const bool live = store_ != nullptr ? store_->IsLive(id)
                                      : backend_->IsAllocated(id);
  if (!live) {
    const std::string msg =
        "SharedBufferPool::Pin of a freed or out-of-range PageId (page " +
        std::to_string(id) + ")";
    STINDEX_CHECK_MSG(false, msg.c_str());
  }
  Shard& shard = *shards_[ShardOf(id)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  ++shard.stats.accesses;
  auto it = shard.frames.find(id);
  if (it != shard.frames.end()) {
    // Hit: move to MRU. In store mode re-resolve the pointer so a slot
    // freed and reused between queries is never served stale.
    Frame& frame = it->second;
    shard.lru.splice(shard.lru.begin(), shard.lru, frame.lru);
    frame.lru = shard.lru.begin();
    if (store_ != nullptr) frame.page = store_->Get(id);
    if (frame.pins++ == 0) ++shard.pinned;
    *missed = false;
    return frame.page;
  }
  ++shard.stats.misses;
  TraceSpan span("storage", "shared_miss");
  span.Arg("page", static_cast<int64_t>(id));
  Status room = MakeRoom(shard);
  if (!room.ok()) return room;
  Frame frame;
  if (store_ != nullptr) {
    frame.page = store_->Get(id);
  } else {
    // Zero-decode path: an immutable backend (the mmap snapshot) lends its
    // pages — the frame views the mapping in place, no decoded copy. The
    // view still re-checks the envelope: a MAP_SHARED mapping shows later
    // writes to the file.
    const uint8_t* borrowed = backend_->BorrowPage(id);
    uint8_t buffer[kPageSize];
    if (borrowed == nullptr) {
      Status status = backend_->Read(id, buffer);
      if (!status.ok()) {
        const std::string msg = "SharedBufferPool: read of page " +
                                std::to_string(id) +
                                " failed: " + status.ToString();
        STINDEX_CHECK_MSG(false, msg.c_str());
      }
    }
    Result<std::unique_ptr<Page>> decoded = borrowed != nullptr
                                                ? codec_->View(borrowed, id)
                                                : codec_->Decode(buffer, id);
    if (!decoded.ok()) {
      const std::string msg = "SharedBufferPool: decode of page " +
                              std::to_string(id) +
                              " failed: " + decoded.status().ToString();
      STINDEX_CHECK_MSG(false, msg.c_str());
    }
    frame.owned = std::move(decoded).value();
    frame.page = frame.owned.get();
  }
  frame.pins = 1;
  ++shard.pinned;
  auto [inserted, ok] = shard.frames.emplace(id, std::move(frame));
  STINDEX_CHECK(ok);
  shard.lru.push_front(id);
  inserted->second.lru = shard.lru.begin();
  *missed = true;
  return inserted->second.page;
}

void SharedBufferPool::Unpin(PageId id) {
  Shard& shard = *shards_[ShardOf(id)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.frames.find(id);
  STINDEX_CHECK_MSG(it != shard.frames.end(), "Unpin of a non-resident page");
  STINDEX_CHECK_MSG(it->second.pins > 0, "Unpin of an unpinned page");
  if (--it->second.pins == 0) --shard.pinned;
  TrimOverflowLocked(shard);
}

void SharedBufferPool::TrimOverflowLocked(Shard& shard) {
  while (shard.frames.size() > shard.capacity) {
    PageId victim = kInvalidPage;
    for (auto it = shard.lru.rbegin(); it != shard.lru.rend(); ++it) {
      const Frame& frame = shard.frames.at(*it);
      if (frame.pins == 0 && !frame.dirty) {
        victim = *it;
        break;
      }
    }
    if (victim == kInvalidPage) return;
    Frame& frame = shard.frames.at(victim);
    shard.lru.erase(frame.lru);
    shard.frames.erase(victim);
    ++shard.evictions;
  }
}

Status SharedBufferPool::Put(PageId id, std::unique_ptr<Page> page) {
  STINDEX_CHECK_MSG(backend_ != nullptr,
                    "SharedBufferPool::Put requires backend mode");
  STINDEX_CHECK(page != nullptr);
  STINDEX_CHECK(id != kInvalidPage);
  Shard& shard = *shards_[ShardOf(id)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.frames.find(id);
  if (it != shard.frames.end()) {
    Frame& frame = it->second;
    if (frame.pins > 0) {
      // A pinner may be reading the current decoded page; replacing it
      // under them would dangle their pointer.
      return Status::FailedPrecondition("SharedBufferPool::Put of page " +
                                        std::to_string(id) +
                                        " while it is pinned");
    }
    frame.owned = std::move(page);
    frame.page = frame.owned.get();
    if (!frame.dirty) {
      frame.dirty = true;
      ++shard.dirty;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, frame.lru);
    frame.lru = shard.lru.begin();
    return Status::OK();
  }
  Status room = MakeRoom(shard);
  if (!room.ok()) return room;
  Frame frame;
  frame.owned = std::move(page);
  frame.page = frame.owned.get();
  frame.dirty = true;
  ++shard.dirty;
  auto [inserted, ok] = shard.frames.emplace(id, std::move(frame));
  STINDEX_CHECK(ok);
  shard.lru.push_front(id);
  inserted->second.lru = shard.lru.begin();
  return Status::OK();
}

Status SharedBufferPool::FlushAll() {
  if (backend_ == nullptr) return Status::OK();
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.dirty == 0) continue;
    TraceSpan span("storage", "shared_flush");
    span.Arg("dirty", static_cast<int64_t>(shard.dirty));
    std::vector<PageId> dirty;
    dirty.reserve(shard.dirty);
    for (const auto& [id, frame] : shard.frames) {
      if (frame.dirty) dirty.push_back(id);
    }
    std::sort(dirty.begin(), dirty.end());
    for (const PageId id : dirty) {
      Status status = WriteBack(id, shard.frames.at(id), shard);
      if (!status.ok()) return status;
    }
  }
  return Status::OK();
}

IoStats SharedBufferPool::AggregateStats() const {
  IoStats total;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total.accesses += shard->stats.accesses;
    total.misses += shard->stats.misses;
  }
  return total;
}

uint64_t SharedBufferPool::Evictions() const {
  uint64_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->evictions;
  }
  return total;
}

size_t SharedBufferPool::CachedPages() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->frames.size();
  }
  return total;
}

size_t SharedBufferPool::PinnedPages() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->pinned;
  }
  return total;
}

size_t SharedBufferPool::DirtyPages() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->dirty;
  }
  return total;
}

std::vector<SharedBufferPool::ShardOccupancy>
SharedBufferPool::ShardOccupancies() const {
  std::vector<ShardOccupancy> out;
  out.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    ShardOccupancy occupancy;
    occupancy.capacity = shard->capacity;
    occupancy.cached = shard->frames.size();
    occupancy.pinned = shard->pinned;
    occupancy.dirty = shard->dirty;
    out.push_back(occupancy);
  }
  return out;
}

void SharedBufferPool::PublishStats() {
  if (metric_scope_.empty()) return;
  std::lock_guard<std::mutex> publish_lock(publish_mutex_);
  const IoStats total = AggregateStats();
  const uint64_t evictions = Evictions();
  MetricRegistry& registry = MetricRegistry::Global();
  const uint64_t accesses = total.accesses - published_stats_.accesses;
  const uint64_t misses = total.misses - published_stats_.misses;
  if (accesses > 0) {
    registry.GetCounter("bufferpool." + metric_scope_ + ".accesses")
        ->Add(accesses);
    registry.GetCounter("bufferpool." + metric_scope_ + ".misses")->Add(misses);
  }
  const uint64_t eviction_delta = evictions - published_evictions_;
  if (eviction_delta > 0) {
    registry.GetCounter("bufferpool." + metric_scope_ + ".evictions")
        ->Add(eviction_delta);
  }
  published_stats_ = total;
  published_evictions_ = evictions;
}

SharedBufferPool::Session::Session(SharedBufferPool* pool,
                                   size_t protocol_pages)
    : pool_(pool), protocol_pages_(protocol_pages) {
  STINDEX_CHECK(pool != nullptr);
}

PageRef SharedBufferPool::Session::FetchPinned(PageId id) {
  ++stats_.accesses;
  ++lifetime_stats_.accesses;
  bool protocol_miss = false;
  if (protocol_pages_ > 0) {
    auto it = resident_.find(id);
    if (it != resident_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      it->second = lru_.begin();
    } else {
      protocol_miss = true;
      // Evict before inserting, like BufferPool: the cache never holds
      // more than protocol_pages ids, and the victim is the exact LRU
      // tail (queries pin one page at a time, so the private pools this
      // accounting reproduces never skipped a pinned victim).
      if (lru_.size() >= protocol_pages_) {
        resident_.erase(lru_.back());
        lru_.pop_back();
      }
      lru_.push_front(id);
      resident_[id] = lru_.begin();
    }
  }
  bool pool_miss = false;
  Result<const Page*> page = pool_->Pin(id, &pool_miss);
  if (!page.ok()) {
    // The query path has no Status channel; undersizing the pool so far
    // that a shard cannot hold the concurrent pins is a setup error.
    STINDEX_CHECK_MSG(false, page.status().ToString().c_str());
  }
  if (protocol_pages_ > 0 ? protocol_miss : pool_miss) {
    ++stats_.misses;
    ++lifetime_stats_.misses;
  }
  return MakeRef(id, page.value());
}

void SharedBufferPool::Session::Unpin(PageId id) { pool_->Unpin(id); }

void SharedBufferPool::Session::ResetCache() {
  lru_.clear();
  resident_.clear();
}

}  // namespace stindex
