#include "storage/page_backend.h"

#include <cstring>

#include "util/metrics.h"

namespace stindex {

MemoryPageBackend::~MemoryPageBackend() {
  if (metric_scope_.empty()) return;
  MetricRegistry& registry = MetricRegistry::Global();
  registry.GetGauge("pagestore." + metric_scope_ + ".live_pages")
      ->SetMax(live_count_);
  registry.GetGauge("pagestore." + metric_scope_ + ".peak_pages")
      ->SetMax(peak_live_count_);
  registry.GetCounter("pagestore." + metric_scope_ + ".allocations")
      ->Add(total_allocations_);
}

void MemoryPageBackend::MarkLive(PageId id) {
  live_[id] = true;
  free_slots_.erase(id);
  ++live_count_;
  if (live_count_ > peak_live_count_) peak_live_count_ = live_count_;
}

PageId MemoryPageBackend::Allocate() {
  ++total_allocations_;
  PageId id;
  if (!free_slots_.empty()) {
    id = *free_slots_.begin();
    std::memset(slots_[id]->bytes, 0, kPageSize);
  } else {
    STINDEX_CHECK_MSG(slots_.size() < kInvalidPage, "page id space exhausted");
    id = static_cast<PageId>(slots_.size());
    slots_.push_back(std::make_unique<Page>());
    live_.push_back(false);
  }
  MarkLive(id);
  return id;
}

Page& MemoryPageBackend::MutablePage(PageId id) {
  STINDEX_CHECK_MSG(IsAllocated(id), "access to a freed or unallocated page");
  return *slots_[id];
}

Status MemoryPageBackend::Read(PageId id, uint8_t* out) const {
  if (!IsAllocated(id)) {
    return Status::InvalidArgument("page " + std::to_string(id) +
                                   ": read of unallocated page");
  }
  std::memcpy(out, slots_[id]->bytes, kPageSize);
  return Status::OK();
}

Status MemoryPageBackend::Write(PageId id, const uint8_t* data) {
  if (id == kInvalidPage) {
    return Status::InvalidArgument("write to kInvalidPage");
  }
  if (id >= slots_.size()) {
    slots_.resize(id + 1);
    live_.resize(id + 1, false);
  }
  if (slots_[id] == nullptr) {
    slots_[id] = std::make_unique_for_overwrite<Page>();
  }
  if (!live_[id]) MarkLive(id);
  std::memcpy(slots_[id]->bytes, data, kPageSize);
  return Status::OK();
}

Status MemoryPageBackend::Free(PageId id) {
  if (!IsAllocated(id)) {
    return Status::InvalidArgument("page " + std::to_string(id) +
                                   ": free of unallocated page");
  }
  live_[id] = false;
  free_slots_.insert(id);
  --live_count_;
  return Status::OK();
}

bool MemoryPageBackend::IsAllocated(PageId id) const {
  return id < slots_.size() && live_[id];
}

const uint8_t* MemoryPageBackend::BorrowPage(PageId id) const {
  return IsAllocated(id) ? slots_[id]->bytes : nullptr;
}

}  // namespace stindex
