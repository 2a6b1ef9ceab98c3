#ifndef STINDEX_STORAGE_PAGE_BACKEND_H_
#define STINDEX_STORAGE_PAGE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/page_codec.h"
#include "util/status.h"

namespace stindex {

// A raw store of fixed-size pages addressed by PageId: Read, Write and
// Sync over the slots [0, SlotCount()). Backends know nothing about node
// layouts — they move kPageSize byte blobs — and nothing about which
// slots are in use: pages are written, never freed. A tree's pages live
// in a MemoryPageBackend arena that only grows or, once packed, in a
// read-only MmapSnapshotBackend (storage/tree_pages.h); the live tier
// journals to a memory or file backend, and its slot allocator is the
// one record of which journal slots are free (live/wal.h). A read-only
// SharedBufferPool sits in front of a tree's pages for queries, borrowing
// a page on each cache miss and checking sealed pages through a
// PageCodec.
//
// Concurrency: concurrent Read and BorrowPage calls are safe (the
// parallel query drivers share one SharedBufferPool, whose shards borrow
// pages in parallel); Write/Sync require external exclusion — the same
// exclusion that keeps a tree's updates away from its queries.
class PageBackend {
 public:
  virtual ~PageBackend() = default;

  // Size in bytes of every page; always kPageSize in this codebase.
  virtual size_t page_size() const = 0;

  // Copies page `id` into `out` (page_size() bytes). A slot below
  // SlotCount() that was never written reads as zeros; `id >=
  // SlotCount()` is InvalidArgument; an I/O failure is IoError. Every
  // error names the page id.
  virtual Status Read(PageId id, uint8_t* out) const = 0;

  // Writes page `id` from `data` (page_size() bytes). Slots need not be
  // written in order; the backend extends itself to cover `id`.
  virtual Status Write(PageId id, const uint8_t* data) = 0;

  // One past the highest slot ever written.
  virtual size_t SlotCount() const = 0;

  // Durably persists all written pages.
  virtual Status Sync() = 0;

  // Short backend name for diagnostics ("memory", "file", "fault(...)").
  virtual std::string Name() const = 0;

  // Zero-copy read: a pointer to page `id`'s page_size() bytes, stable
  // for the backend's lifetime, or nullptr if this backend cannot lend
  // its storage (the default). A SharedBufferPool fronts only backends
  // that lend every slot (a tree's arena, the mmap snapshot); its frames
  // read lent pages in place, so they must die before the backend. The
  // bytes may change underneath: a tree mutates its arena pages in
  // place, and the mmap snapshot maps its file MAP_SHARED, so a later
  // write to the file shows through even though every page was verified
  // at open. Pools over a sealed backend therefore re-check the page on
  // every miss.
  virtual const uint8_t* BorrowPage(PageId id) const {
    (void)id;
    return nullptr;
  }

  // No backend tracks allocation. These three stay declared only because
  // the benchmark's TimedBackend (benchmark/stbench/probes.h) overrides
  // them; nothing in the library overrides or calls them. Free refuses,
  // naming the page; every slot below SlotCount() counts as allocated
  // and live.
  virtual Status Free(PageId id);
  virtual bool IsAllocated(PageId id) const { return id < SlotCount(); }
  virtual size_t LivePageCount() const { return SlotCount(); }
};

// RAM-backed PageBackend whose pages live in fixed-size slabs of
// kSlabPages pages. It is the arena a tree's nodes live in — the tree
// allocates pages, mutates them in place and reads them through a pool
// that borrows them — and the in-memory journal of the live tier. It
// only grows: Allocate appends a slot, and nothing frees one.
//
// Slot `id` is page id % kSlabPages of slab id / kSlabPages. Slabs are
// mapped (mmap, zero-filled) as the slots grow to reach them, so every
// slot below SlotCount() is mapped and a never-written one reads as
// zeros; they are unmapped when the arena is destroyed, so a released
// arena goes back to the OS at once. malloc would not do: glibc raises
// its mmap threshold after a large free, and heap chunks are not
// returned. Slabs never move, so a lent page keeps its address for the
// arena's lifetime.
class MemoryPageBackend final : public PageBackend {
 public:
  // Pages per slab: 1 MiB of address space, resident only as pages are
  // touched.
  static constexpr size_t kSlabPages = 256;

  MemoryPageBackend() = default;

  // `metric_scope` names the index this arena backs ("ppr", "rstar",
  // "hr"): the destructor publishes its slot count to the
  // pagestore.<scope>.pages gauge (SetMax, order-independent).
  explicit MemoryPageBackend(std::string metric_scope)
      : metric_scope_(std::move(metric_scope)) {}
  ~MemoryPageBackend() override;

  MemoryPageBackend(const MemoryPageBackend&) = delete;
  MemoryPageBackend& operator=(const MemoryPageBackend&) = delete;

  // Appends a zeroed page: slot SlotCount().
  PageId Allocate();

  // Page `id` for in-place mutation; `id` must be below SlotCount().
  Page& MutablePage(PageId id);

  size_t page_size() const override { return kPageSize; }
  Status Read(PageId id, uint8_t* out) const override;
  Status Write(PageId id, const uint8_t* data) override;
  size_t SlotCount() const override { return slot_count_; }
  Status Sync() override { return Status::OK(); }
  std::string Name() const override { return "memory"; }
  const uint8_t* BorrowPage(PageId id) const override;

 private:
  struct SlabUnmapper {
    void operator()(Page* slab) const;
  };
  using Slab = std::unique_ptr<Page[], SlabUnmapper>;

  // Slot `id`'s page, extending the arena to cover it.
  Page* Cover(PageId id);
  // Slot `id`'s page; `id` must be below SlotCount().
  Page* MappedPage(PageId id) const {
    return &slabs_[id / kSlabPages][id % kSlabPages];
  }

  std::vector<Slab> slabs_;  // mapped; they cover [0, SlotCount())
  size_t slot_count_ = 0;
  std::string metric_scope_;
};

}  // namespace stindex

#endif  // STINDEX_STORAGE_PAGE_BACKEND_H_
