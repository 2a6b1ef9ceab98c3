#include "storage/page_backend.h"

#include <sys/mman.h>

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

void MemoryPageBackend::SlabUnmapper::operator()(Page* slab) const {
  ::munmap(slab, kSlabPages * kPageSize);
}

Page* MemoryPageBackend::SlotPage(PageId id) {
  const size_t slab = id / kSlabPages;
  if (slab >= slabs_.size()) slabs_.resize(slab + 1);
  if (slabs_[slab] == nullptr) {
    void* pages = ::mmap(nullptr, kSlabPages * kPageSize,
                         PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                         -1, 0);
    STINDEX_CHECK_MSG(pages != MAP_FAILED, "arena slab mmap failed");
    slabs_[slab].reset(static_cast<Page*>(pages));
  }
  return MappedPage(id);
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
    std::memset(MappedPage(id)->bytes, 0, kPageSize);
  } else {
    // A slot past the end has never been touched: its mapped page is zero.
    STINDEX_CHECK_MSG(live_.size() < kInvalidPage, "page id space exhausted");
    id = static_cast<PageId>(live_.size());
    SlotPage(id);
    live_.push_back(false);
  }
  MarkLive(id);
  return id;
}

Page& MemoryPageBackend::MutablePage(PageId id) {
  STINDEX_CHECK_MSG(IsAllocated(id), "access to a freed or unallocated page");
  return *MappedPage(id);
}

Status MemoryPageBackend::Read(PageId id, uint8_t* out) const {
  if (!IsAllocated(id)) {
    return Status::InvalidArgument("page " + std::to_string(id) +
                                   ": read of unallocated page");
  }
  std::memcpy(out, BorrowPage(id), kPageSize);
  return Status::OK();
}

Status MemoryPageBackend::Write(PageId id, const uint8_t* data) {
  if (id == kInvalidPage) {
    return Status::InvalidArgument("write to kInvalidPage");
  }
  Page* page = SlotPage(id);
  if (id >= live_.size()) live_.resize(id + 1, false);
  if (!live_[id]) MarkLive(id);
  std::memcpy(page->bytes, data, kPageSize);
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
  return id < live_.size() && live_[id];
}

const uint8_t* MemoryPageBackend::BorrowPage(PageId id) const {
  return IsAllocated(id) ? MappedPage(id)->bytes : nullptr;
}

}  // namespace stindex
