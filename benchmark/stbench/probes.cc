#include "probes.h"

#include "util/check.h"

namespace stbench {

stindex::PageRef TimedPageCache::FetchPinned(stindex::PageId id) {
  const uint64_t misses_before = inner_->stats().misses;
  const Clock::time_point start = Clock::now();
  stindex::PageRef ref = inner_->FetchPinned(id);
  const int64_t ns = Nanos(Clock::now() - start);
  if (inner_->stats().misses != misses_before) {
    ++misses;
    miss_ns += ns;
  } else {
    ++hits;
    hit_ns += ns;
  }
  const stindex::Page* page = ref.get();
  held_.push_back(std::move(ref));
  return MakeRef(id, page);
}

void TimedPageCache::Unpin(stindex::PageId id) {
  for (auto it = held_.rbegin(); it != held_.rend(); ++it) {
    if (it->id() == id) {
      held_.erase(std::next(it).base());  // releases the inner pin
      return;
    }
  }
  STINDEX_CHECK_MSG(false, "TimedPageCache: unpin of a page it never pinned");
}

stindex::Status TimedBackend::Write(stindex::PageId id, const uint8_t* data) {
  const Clock::time_point start = Clock::now();
  stindex::Status status = inner_->Write(id, data);
  writes.Add(Nanos(Clock::now() - start));
  return status;
}

stindex::Status TimedBackend::Sync() {
  const Clock::time_point start = Clock::now();
  stindex::Status status = inner_->Sync();
  syncs.Add(Nanos(Clock::now() - start));
  return status;
}

}  // namespace stbench
