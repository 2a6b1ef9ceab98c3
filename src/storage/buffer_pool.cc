#include "storage/buffer_pool.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/metrics.h"
#include "util/trace.h"

namespace stindex {

PageRef& PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    id_ = other.id_;
    page_ = other.page_;
    other.pool_ = nullptr;
    other.id_ = kInvalidPage;
    other.page_ = nullptr;
  }
  return *this;
}

PageRef::~PageRef() { Release(); }

void PageRef::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(id_);
  }
  pool_ = nullptr;
  id_ = kInvalidPage;
  page_ = nullptr;
}

BufferPool::BufferPool(const PageStore* store, size_t capacity,
                       std::string metric_scope)
    : store_(store),
      capacity_(capacity),
      metric_scope_(std::move(metric_scope)) {
  STINDEX_CHECK(store != nullptr);
  STINDEX_CHECK(capacity > 0);
}

BufferPool::BufferPool(PageBackend* backend, const PageCodec* codec,
                       size_t capacity, std::string metric_scope)
    : backend_(backend),
      codec_(codec),
      capacity_(capacity),
      metric_scope_(std::move(metric_scope)) {
  STINDEX_CHECK(backend != nullptr);
  STINDEX_CHECK(codec != nullptr);
  STINDEX_CHECK(capacity > 0);
}

BufferPool::~BufferPool() {
  if (dirty_count_ > 0) {
    // Flush-on-destruction: a dirty frame must never be dropped silently,
    // and a destructor has no Status channel, so a failure here is fatal.
    const Status status = FlushAll();
    STINDEX_CHECK_MSG(status.ok(), status.ToString().c_str());
  }
  PublishStats();
}

void BufferPool::PublishStats() {
  if (metric_scope_.empty()) return;
  MetricRegistry& registry = MetricRegistry::Global();
  const uint64_t accesses = lifetime_stats_.accesses - published_stats_.accesses;
  const uint64_t misses = lifetime_stats_.misses - published_stats_.misses;
  const uint64_t evictions = lifetime_evictions_ - published_evictions_;
  if (accesses > 0) {
    registry.GetCounter("bufferpool." + metric_scope_ + ".accesses")
        ->Add(accesses);
    registry.GetCounter("bufferpool." + metric_scope_ + ".misses")->Add(misses);
  }
  if (evictions > 0) {
    registry.GetCounter("bufferpool." + metric_scope_ + ".evictions")
        ->Add(evictions);
  }
  published_stats_ = lifetime_stats_;
  published_evictions_ = lifetime_evictions_;
}

BufferPool::Frame* BufferPool::FindResident(PageId id) {
  auto it = frames_.find(id);
  return it == frames_.end() ? nullptr : &it->second;
}

BufferPool::Frame& BufferPool::InsertFrame(PageId id, Frame frame) {
  auto [it, inserted] = frames_.emplace(id, std::move(frame));
  STINDEX_CHECK(inserted);
  lru_.push_front(id);
  it->second.lru = lru_.begin();
  return it->second;
}

Status BufferPool::WriteBack(PageId id, Frame& frame) {
  uint8_t buffer[kPageSize];
  codec_->Encode(*frame.page, buffer);
  Status status = backend_->Write(id, buffer);
  if (!status.ok()) {
    return Status(status.code(), "write-back of page " + std::to_string(id) +
                                     " failed: " + status.message());
  }
  frame.dirty = false;
  --dirty_count_;
  return Status::OK();
}

Status BufferPool::EvictIfFull() {
  if (frames_.size() < capacity_) return Status::OK();
  // Victim = least-recently-used unpinned frame. With nothing pinned this
  // is exactly lru_.back(), matching the historical policy (and the
  // store-mode miss counts the differential tests compare against).
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    const PageId victim = *it;
    Frame& frame = frames_.at(victim);
    if (frame.pins > 0) continue;
    TraceSpan span("storage", "evict");
    span.Arg("page", static_cast<int64_t>(victim))
        .Arg("dirty", static_cast<int64_t>(frame.dirty ? 1 : 0));
    if (frame.dirty) {
      Status status = WriteBack(victim, frame);
      if (!status.ok()) return status;
    }
    lru_.erase(frame.lru);
    frames_.erase(victim);
    ++lifetime_evictions_;
    return Status::OK();
  }
  STINDEX_CHECK_MSG(false,
                    "BufferPool: every frame is pinned, cannot evict");
  return Status::OK();  // unreachable
}

BufferPool::Frame BufferPool::LoadFrame(PageId id) {
  Frame frame;
  if (store_ != nullptr) {
    frame.page = store_->Get(id);
    return frame;
  }
  // Zero-decode path: an immutable backend (the mmap snapshot) lends its
  // pages, so the frame views the mapping in place instead of holding a
  // decoded copy. The view still re-checks the page envelope: a
  // MAP_SHARED mapping shows later writes to the file.
  const uint8_t* borrowed = backend_->BorrowPage(id);
  uint8_t buffer[kPageSize];
  if (borrowed == nullptr) {
    Status status = backend_->Read(id, buffer);
    if (!status.ok()) {
      const std::string msg = "BufferPool: read of page " + std::to_string(id) +
                              " failed: " + status.ToString();
      STINDEX_CHECK_MSG(false, msg.c_str());
    }
  }
  Result<std::unique_ptr<Page>> decoded = borrowed != nullptr
                                              ? codec_->View(borrowed, id)
                                              : codec_->Decode(buffer, id);
  if (!decoded.ok()) {
    const std::string msg = "BufferPool: decode of page " +
                            std::to_string(id) +
                            " failed: " + decoded.status().ToString();
    STINDEX_CHECK_MSG(false, msg.c_str());
  }
  frame.owned = std::move(decoded).value();
  frame.page = frame.owned.get();
  return frame;
}

const Page* BufferPool::Fetch(PageId id) {
  const bool live = store_ != nullptr ? store_->IsLive(id)
                                      : backend_->IsAllocated(id);
  if (!live) {
    const std::string msg =
        "BufferPool::Fetch of a freed or out-of-range PageId (page " +
        std::to_string(id) + ")";
    STINDEX_CHECK_MSG(false, msg.c_str());
  }
  ++stats_.accesses;
  ++lifetime_stats_.accesses;
  if (Frame* frame = FindResident(id)) {
    // Hit: move to MRU position. In store mode re-resolve the pointer so
    // a slot freed and reused between queries is never served stale.
    lru_.splice(lru_.begin(), lru_, frame->lru);
    frame->lru = lru_.begin();
    if (store_ != nullptr) frame->page = store_->Get(id);
    return frame->page;
  }
  // Miss: one disk access (a real one in backend mode).
  ++stats_.misses;
  ++lifetime_stats_.misses;
  TraceSpan span("storage", "fetch_miss");
  span.Arg("page", static_cast<int64_t>(id));
  Status status = EvictIfFull();
  if (!status.ok()) {
    // Fetch has no Status channel; an eviction write-back failure while
    // reading is fatal rather than silently dropped.
    STINDEX_CHECK_MSG(false, status.ToString().c_str());
  }
  Frame& frame = InsertFrame(id, LoadFrame(id));
  return frame.page;
}

PageRef BufferPool::FetchPinned(PageId id) {
  const Page* page = Fetch(id);
  Frame* frame = FindResident(id);
  STINDEX_CHECK(frame != nullptr);
  if (frame->pins == 0) ++pinned_count_;
  ++frame->pins;
  return MakeRef(id, page);
}

void BufferPool::Unpin(PageId id) {
  Frame* frame = FindResident(id);
  STINDEX_CHECK_MSG(frame != nullptr, "Unpin of a non-resident page");
  STINDEX_CHECK_MSG(frame->pins > 0, "Unpin of an unpinned page");
  --frame->pins;
  if (frame->pins == 0) --pinned_count_;
}

Status BufferPool::Put(PageId id, std::unique_ptr<Page> page) {
  STINDEX_CHECK_MSG(backend_ != nullptr,
                    "BufferPool::Put requires backend mode");
  STINDEX_CHECK(page != nullptr);
  STINDEX_CHECK(id != kInvalidPage);
  if (Frame* frame = FindResident(id)) {
    frame->owned = std::move(page);
    frame->page = frame->owned.get();
    if (!frame->dirty) {
      frame->dirty = true;
      ++dirty_count_;
    }
    lru_.splice(lru_.begin(), lru_, frame->lru);
    frame->lru = lru_.begin();
    return Status::OK();
  }
  Status status = EvictIfFull();
  if (!status.ok()) return status;
  Frame frame;
  frame.owned = std::move(page);
  frame.page = frame.owned.get();
  frame.dirty = true;
  ++dirty_count_;
  InsertFrame(id, std::move(frame));
  return Status::OK();
}

Status BufferPool::FlushAll() {
  if (dirty_count_ == 0) return Status::OK();
  STINDEX_CHECK(backend_ != nullptr);
  TraceSpan span("storage", "flush_all");
  span.Arg("dirty", static_cast<int64_t>(dirty_count_));
  // Ascending page id, so flush I/O order is deterministic.
  std::vector<PageId> dirty;
  dirty.reserve(dirty_count_);
  for (const auto& [id, frame] : frames_) {
    if (frame.dirty) dirty.push_back(id);
  }
  std::sort(dirty.begin(), dirty.end());
  for (const PageId id : dirty) {
    Status status = WriteBack(id, frames_.at(id));
    if (!status.ok()) return status;
  }
  return Status::OK();
}

void BufferPool::DiscardAll() {
  STINDEX_CHECK_MSG(pinned_count_ == 0,
                    "BufferPool::DiscardAll with pinned pages");
  dirty_count_ = 0;
  lru_.clear();
  frames_.clear();
}

void BufferPool::ResetCache() {
  STINDEX_CHECK_MSG(pinned_count_ == 0,
                    "BufferPool::ResetCache with pinned pages");
  STINDEX_CHECK_MSG(dirty_count_ == 0,
                    "BufferPool::ResetCache with dirty pages; FlushAll first");
  lru_.clear();
  frames_.clear();
}

}  // namespace stindex
