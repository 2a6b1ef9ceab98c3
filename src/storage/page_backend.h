#ifndef STINDEX_STORAGE_PAGE_BACKEND_H_
#define STINDEX_STORAGE_PAGE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "storage/page_codec.h"
#include "util/status.h"

namespace stindex {

// A raw store of fixed-size pages addressed by PageId. Backends know
// nothing about node layouts — they move kPageSize byte blobs. Indexes
// persist by sealing copies of their node pages and writing them
// directly; a read-only SharedBufferPool sits in front for queries,
// checking pages through a PageCodec and turning cache misses into
// actual backend reads.
//
// Concurrency: concurrent Read calls are safe (the parallel query drivers
// share one SharedBufferPool, whose shards read the backend in parallel);
// Write/Free/Sync require external exclusion — the same exclusion that
// keeps a tree's updates away from its queries.
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

  // Zero-copy read: a pointer to page `id`'s page_size() bytes, stable
  // for the backend's lifetime, or nullptr if this backend cannot lend
  // its storage (the default). Pool frames read lent pages in place, so
  // they must die before the backend. The bytes may change underneath: a
  // tree mutates its arena pages in place, and the mmap snapshot maps its
  // file MAP_SHARED, so a later write to the file shows through even
  // though every page was verified at open. Pools over a sealed backend
  // therefore re-check the page on every miss.
  virtual const uint8_t* BorrowPage(PageId id) const {
    (void)id;
    return nullptr;
  }
};

// RAM-backed PageBackend whose pages live in fixed-size slabs of
// kSlabPages pages. It is the arena a tree's nodes live in — the tree
// allocates pages, mutates them in place and reads them through a pool
// that borrows them — and the byte-exact reference the file backend is
// differentially tested against.
//
// Slot `id` is page id % kSlabPages of slab id / kSlabPages. A slab is
// mapped (mmap, zero-filled) when a slot in it is first allocated or
// written, and unmapped when the arena is destroyed, so a released arena
// goes back to the OS at once. malloc would not do: glibc raises its
// mmap threshold after a large free, and heap chunks are not returned.
//
// Slot addresses are stable: slabs never move, and a freed slot keeps
// its page for reuse, so a pool frame over a lent page stays valid (and
// shows the new contents) when the slot is freed and allocated again.
class MemoryPageBackend final : public PageBackend {
 public:
  // Pages per slab: 1 MiB of address space, resident only as pages are
  // touched.
  static constexpr size_t kSlabPages = 256;

  MemoryPageBackend() = default;

  // `metric_scope` names the index this arena backs ("ppr", "rstar",
  // "hr"): the destructor publishes pagestore.<scope>.live_pages and
  // .peak_pages gauges (SetMax, order-independent) and adds the
  // Allocate() calls to pagestore.<scope>.allocations.
  explicit MemoryPageBackend(std::string metric_scope)
      : metric_scope_(std::move(metric_scope)) {}
  ~MemoryPageBackend() override;

  MemoryPageBackend(const MemoryPageBackend&) = delete;
  MemoryPageBackend& operator=(const MemoryPageBackend&) = delete;

  // Allocates a zeroed page: the lowest freed slot first, else a new slot
  // at the end. Long insert/delete workloads keep a bounded id space, and
  // id reuse is deterministic for a given operation sequence.
  PageId Allocate();

  // Page `id` for in-place mutation; the slot must be allocated.
  Page& MutablePage(PageId id);

  // Highest number of simultaneously allocated slots ever observed.
  size_t PeakPageCount() const { return peak_live_count_; }
  // Allocate() calls over the backend's lifetime (reuse included).
  size_t TotalAllocations() const { return total_allocations_; }

  size_t page_size() const override { return kPageSize; }
  Status Read(PageId id, uint8_t* out) const override;
  Status Write(PageId id, const uint8_t* data) override;
  Status Free(PageId id) override;
  bool IsAllocated(PageId id) const override;
  size_t SlotCount() const override { return live_.size(); }
  size_t LivePageCount() const override { return live_count_; }
  Status Sync() override { return Status::OK(); }
  std::string Name() const override { return "memory"; }
  const uint8_t* BorrowPage(PageId id) const override;

 private:
  struct SlabUnmapper {
    void operator()(Page* slab) const;
  };
  using Slab = std::unique_ptr<Page[], SlabUnmapper>;

  // Slot `id`'s page, mapping its slab first if no slot in it was
  // allocated or written before.
  Page* SlotPage(PageId id);
  // Slot `id`'s page; its slab must be mapped.
  Page* MappedPage(PageId id) const {
    return &slabs_[id / kSlabPages][id % kSlabPages];
  }
  // Makes `id` allocated (the slot already exists) and counts it.
  void MarkLive(PageId id);

  std::vector<Slab> slabs_;  // nullptr = not mapped yet
  std::vector<bool> live_;   // per slot; its size is SlotCount()
  std::set<PageId> free_slots_;  // freed and not written since
  size_t live_count_ = 0;
  size_t peak_live_count_ = 0;
  size_t total_allocations_ = 0;
  std::string metric_scope_;
};

}  // namespace stindex

#endif  // STINDEX_STORAGE_PAGE_BACKEND_H_
