#include "storage/page_backend.h"

#include <sys/mman.h>

#include <cstring>

#include "util/metrics.h"

namespace stindex {

Status PageBackend::Free(PageId id) {
  return Status::FailedPrecondition("page " + std::to_string(id) +
                                    ": free refused: " + Name() +
                                    " pages are written, never freed");
}

MemoryPageBackend::~MemoryPageBackend() {
  if (metric_scope_.empty()) return;
  MetricRegistry::Global()
      .GetGauge("pagestore." + metric_scope_ + ".pages")
      ->SetMax(static_cast<int64_t>(slot_count_));
}

void MemoryPageBackend::SlabUnmapper::operator()(Page* slab) const {
  ::munmap(slab, kSlabPages * kPageSize);
}

Page* MemoryPageBackend::Cover(PageId id) {
  while (slabs_.size() <= id / kSlabPages) {
    void* pages = ::mmap(nullptr, kSlabPages * kPageSize,
                         PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                         -1, 0);
    STINDEX_CHECK_MSG(pages != MAP_FAILED, "arena slab mmap failed");
    slabs_.emplace_back(static_cast<Page*>(pages));
  }
  if (id >= slot_count_) slot_count_ = static_cast<size_t>(id) + 1;
  return MappedPage(id);
}

PageId MemoryPageBackend::Allocate() {
  // A slot past the end has never been written: its mapped page is zero.
  STINDEX_CHECK_MSG(slot_count_ < kInvalidPage, "page id space exhausted");
  const PageId id = static_cast<PageId>(slot_count_);
  Cover(id);
  return id;
}

Page& MemoryPageBackend::MutablePage(PageId id) {
  STINDEX_CHECK_MSG(id < slot_count_, "access past the arena's last page");
  return *MappedPage(id);
}

Status MemoryPageBackend::Read(PageId id, uint8_t* out) const {
  if (id >= slot_count_) {
    return Status::InvalidArgument("page " + std::to_string(id) +
                                   ": read past the last of " +
                                   std::to_string(slot_count_) + " pages");
  }
  std::memcpy(out, MappedPage(id)->bytes, kPageSize);
  return Status::OK();
}

Status MemoryPageBackend::Write(PageId id, const uint8_t* data) {
  if (id == kInvalidPage) {
    return Status::InvalidArgument("write to kInvalidPage");
  }
  std::memcpy(Cover(id)->bytes, data, kPageSize);
  return Status::OK();
}

const uint8_t* MemoryPageBackend::BorrowPage(PageId id) const {
  return id < slot_count_ ? MappedPage(id)->bytes : nullptr;
}

}  // namespace stindex
