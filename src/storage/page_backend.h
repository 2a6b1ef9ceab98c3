#ifndef STINDEX_STORAGE_PAGE_BACKEND_H_
#define STINDEX_STORAGE_PAGE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/page_codec.h"
#include "storage/page_store.h"
#include "util/status.h"

namespace stindex {

// A raw store of fixed-size pages addressed by PageId. Backends know
// nothing about node layouts — they move kPageSize byte blobs. Indexes
// encode their nodes through a PageCodec and write them directly; a
// read-only SharedBufferPool sits in front for queries, decoding (or
// viewing) pages through the codec and turning cache misses into actual
// backend reads.
//
// Concurrency: concurrent Read calls are safe (the parallel query drivers
// share one SharedBufferPool, whose shards read the backend in parallel);
// Write/Free/Sync require external exclusion and in this codebase happen
// only while an index is being persisted, before any reader exists.
class PageBackend {
 public:
  virtual ~PageBackend() = default;

  // Size in bytes of every page; always kPageSize in this codebase.
  virtual size_t page_size() const = 0;

  // Copies page `id` into `out` (page_size() bytes). Reading a slot that
  // was never written or has been freed is InvalidArgument; an I/O
  // failure is IoError. Every error names the page id.
  virtual Status Read(PageId id, uint8_t* out) const = 0;

  // Writes page `id` from `data` (page_size() bytes), allocating the slot
  // if needed. Slots need not be written in order; the backend extends
  // itself to cover `id`.
  virtual Status Write(PageId id, const uint8_t* data) = 0;

  // Releases slot `id` for reuse. Freeing an unallocated slot is
  // InvalidArgument.
  virtual Status Free(PageId id) = 0;

  virtual bool IsAllocated(PageId id) const = 0;

  // One past the highest slot ever allocated.
  virtual size_t SlotCount() const = 0;

  // Number of currently allocated slots.
  virtual size_t LivePageCount() const = 0;

  // Durably persists all written pages and metadata.
  virtual Status Sync() = 0;

  // Short backend name for diagnostics ("memory", "file", "fault(...)").
  virtual std::string Name() const = 0;

  // Zero-copy read: a pointer to page `id`'s page_size() bytes, valid for
  // the backend's lifetime, or nullptr if this backend cannot lend stable
  // storage (the default). The buffer pools View borrowed pages in place
  // (PageCodec::View), so their frames must die before the backend. The
  // bytes may still change underneath: the mmap snapshot maps its file
  // MAP_SHARED, so a later write to the file shows through even though
  // every page was verified at open. Readers therefore re-check the page
  // envelope on every miss. Only immutable backends (the mmap snapshot)
  // return non-null.
  virtual const uint8_t* BorrowPage(PageId id) const {
    (void)id;
    return nullptr;
  }
};

// Heap-backed PageBackend: pages live in malloc'd buffers. The byte-exact
// reference implementation the file backend is differentially tested
// against, and the substrate the fault-injection wrapper wraps in tests.
class MemoryPageBackend : public PageBackend {
 public:
  MemoryPageBackend() = default;

  MemoryPageBackend(const MemoryPageBackend&) = delete;
  MemoryPageBackend& operator=(const MemoryPageBackend&) = delete;

  size_t page_size() const override { return kPageSize; }
  Status Read(PageId id, uint8_t* out) const override;
  Status Write(PageId id, const uint8_t* data) override;
  Status Free(PageId id) override;
  bool IsAllocated(PageId id) const override;
  size_t SlotCount() const override { return slots_.size(); }
  size_t LivePageCount() const override { return live_count_; }
  Status Sync() override { return Status::OK(); }
  std::string Name() const override { return "memory"; }

 private:
  // nullptr = never written or freed.
  std::vector<std::unique_ptr<uint8_t[]>> slots_;
  size_t live_count_ = 0;
};

}  // namespace stindex

#endif  // STINDEX_STORAGE_PAGE_BACKEND_H_
