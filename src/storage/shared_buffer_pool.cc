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

SharedBufferPool::SharedBufferPool(const PageBackend* backend,
                                   const PageCodec* codec,
                                   const SharedBufferPoolOptions& options)
    : backend_(backend), codec_(codec) {
  STINDEX_CHECK(backend != nullptr);
  STINDEX_CHECK_MSG(options.capacity > 0,
                    "SharedBufferPool: capacity must be > 0");
  capacity_ = options.capacity;
  metric_scope_ = options.metric_scope;
  size_t shards = 1;
  while (shards * 2 <= std::min<size_t>(16, capacity_)) shards *= 2;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    auto shard = std::make_unique<Shard>();
    // Split the total capacity across shards; the first capacity % shards
    // shards take the remainder, one frame each.
    shard->capacity = capacity_ / shards + (i < capacity_ % shards ? 1 : 0);
    shards_.push_back(std::move(shard));
  }
}

SharedBufferPool::~SharedBufferPool() { PublishStats(); }

size_t SharedBufferPool::ShardOf(PageId id) const {
  return static_cast<size_t>(MixPageId(id) & (shards_.size() - 1));
}

void SharedBufferPool::EvictDownTo(Shard& shard, size_t limit) {
  while (shard.frames.size() >= limit) {
    PageId victim = kInvalidPage;
    for (auto it = shard.lru.rbegin(); it != shard.lru.rend(); ++it) {
      if (shard.frames.at(*it).pins == 0) {
        victim = *it;
        break;
      }
    }
    // Every frame in this shard is pinned right now: grow transiently.
    if (victim == kInvalidPage) return;
    TraceSpan span("storage", "evict");
    span.Arg("page", static_cast<int64_t>(victim));
    shard.lru.erase(shard.frames.at(victim).lru);
    shard.frames.erase(victim);
    ++shard.evictions;
  }
}

const Page* SharedBufferPool::LoadPage(PageId id) const {
  // Every page is read in place. The check still runs on every miss: a
  // MAP_SHARED mapping shows later writes to the file.
  const uint8_t* borrowed = backend_->BorrowPage(id);
  if (borrowed == nullptr) {
    const std::string msg = "SharedBufferPool: backend " + backend_->Name() +
                            " does not lend page " + std::to_string(id);
    STINDEX_CHECK_MSG(false, msg.c_str());
  }
  STINDEX_CHECK_MSG(
      reinterpret_cast<uintptr_t>(borrowed) % alignof(Page) == 0,
      "SharedBufferPool: backend lent a misaligned page");
  const Page* page = reinterpret_cast<const Page*>(borrowed);
  if (codec_ != nullptr) {
    Status status = codec_->Check(page->bytes, id);
    if (!status.ok()) {
      const std::string msg = "SharedBufferPool: decode of page " +
                              std::to_string(id) +
                              " failed: " + status.ToString();
      STINDEX_CHECK_MSG(false, msg.c_str());
    }
  }
  return page;
}

Result<const Page*> SharedBufferPool::Pin(PageId id, bool* missed) {
  if (id >= backend_->SlotCount()) {
    const std::string msg =
        "SharedBufferPool::Pin of an out-of-range PageId (page " +
        std::to_string(id) + ")";
    STINDEX_CHECK_MSG(false, msg.c_str());
  }
  Shard& shard = *shards_[ShardOf(id)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  ++shard.stats.accesses;
  auto it = shard.frames.find(id);
  if (it != shard.frames.end()) {
    // Hit: move to MRU. The frame reads the lent page in place, so it
    // shows the page's current bytes.
    Frame& frame = it->second;
    shard.lru.splice(shard.lru.begin(), shard.lru, frame.lru);
    frame.lru = shard.lru.begin();
    if (frame.pins++ == 0) ++shard.pinned;
    *missed = false;
    return frame.page;
  }
  ++shard.stats.misses;
  TraceSpan span("storage", "fetch_miss");
  span.Arg("page", static_cast<int64_t>(id));
  EvictDownTo(shard, shard.capacity);
  Frame frame;
  frame.page = LoadPage(id);
  frame.pins = 1;
  ++shard.pinned;
  auto [inserted, ok] = shard.frames.emplace(id, frame);
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
  // Trim transient overflow straight back to the slice.
  EvictDownTo(shard, shard.capacity + 1);
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
    // Most-recent last, so the scan meets recently used ids first.
    auto it = std::find(lru_.rbegin(), lru_.rend(), id);
    if (it != lru_.rend()) {
      std::rotate(it.base() - 1, it.base(), lru_.end());
    } else {
      protocol_miss = true;
      // Evict before inserting: the simulated cache never holds more
      // than protocol_pages ids, and the victim is the exact LRU front.
      if (lru_.size() >= protocol_pages_) lru_.erase(lru_.begin());
      lru_.push_back(id);
    }
  }
  bool pool_miss = false;
  const Page* page = pool_->Pin(id, &pool_miss).value();
  if (protocol_pages_ > 0 ? protocol_miss : pool_miss) {
    ++stats_.misses;
    ++lifetime_stats_.misses;
  }
  return MakeRef(id, page);
}

void SharedBufferPool::Session::Unpin(PageId id) { pool_->Unpin(id); }

void SharedBufferPool::Session::ResetCache() {
  lru_.clear();
}

}  // namespace stindex
