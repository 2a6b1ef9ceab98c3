#ifndef STBENCH_PROBES_H_
#define STBENCH_PROBES_H_

// Benchmark-side timing decorators for the traced run. They wrap the
// library's public interfaces from outside, so the program under test is
// unchanged; the untraced run does not install them.

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "storage/buffer_pool.h"
#include "storage/page_backend.h"

namespace stbench {

// Times every FetchPinned of the wrapped cache (a pass-through
// SharedBufferPool::Session) and tells a hit from a miss by the wrapped
// cache's miss-counter delta. Single-threaded, like the cache it wraps.
class TimedPageCache : public stindex::PageCache {
 public:
  explicit TimedPageCache(stindex::PageCache* inner) : inner_(inner) {}

  stindex::PageRef FetchPinned(stindex::PageId id) override;
  const stindex::IoStats& stats() const override { return inner_->stats(); }

  uint64_t hits = 0;
  uint64_t misses = 0;
  int64_t hit_ns = 0;
  int64_t miss_ns = 0;

 protected:
  void Unpin(stindex::PageId id) override;

 private:
  stindex::PageCache* inner_;
  // The inner pins behind the refs this cache handed out; a query holds
  // only a root-to-leaf path of them at once.
  std::vector<stindex::PageRef> held_;
};

// Times Write and Sync of the wrapped backend (the WAL's page file);
// everything else forwards. Writes and syncs come from the live tier
// under its exclusive lock, so the sample vectors need no lock of their
// own; read them only after the writers are done.
class TimedBackend : public stindex::PageBackend {
 public:
  explicit TimedBackend(std::unique_ptr<stindex::PageBackend> inner)
      : inner_(std::move(inner)) {}

  size_t page_size() const override { return inner_->page_size(); }
  stindex::Status Read(stindex::PageId id, uint8_t* out) const override {
    return inner_->Read(id, out);
  }
  stindex::Status Write(stindex::PageId id, const uint8_t* data) override;
  stindex::Status Free(stindex::PageId id) override { return inner_->Free(id); }
  bool IsAllocated(stindex::PageId id) const override {
    return inner_->IsAllocated(id);
  }
  size_t SlotCount() const override { return inner_->SlotCount(); }
  size_t LivePageCount() const override { return inner_->LivePageCount(); }
  stindex::Status Sync() override;
  std::string Name() const override { return "timed(" + inner_->Name() + ")"; }
  const uint8_t* BorrowPage(stindex::PageId id) const override {
    return inner_->BorrowPage(id);
  }

  void Clear() {
    writes = Samples();
    syncs = Samples();
  }

  Samples writes;
  Samples syncs;

 private:
  std::unique_ptr<stindex::PageBackend> inner_;
};

}  // namespace stbench

#endif  // STBENCH_PROBES_H_
