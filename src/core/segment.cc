#include "core/segment.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>

#include "trajectory/prefix_mbr.h"
#include "util/check.h"

namespace stindex {
namespace {

// Validates cuts and yields the [lo, hi) index ranges of the segments.
std::vector<std::pair<int, int>> SegmentRanges(size_t n,
                                               const std::vector<int>& cuts) {
  const int count = static_cast<int>(n);
  std::vector<std::pair<int, int>> ranges;
  ranges.reserve(cuts.size() + 1);
  int lo = 0;
  for (int cut : cuts) {
    STINDEX_CHECK_MSG(cut > lo && cut < count, "cut out of range");
    ranges.emplace_back(lo, cut);
    lo = cut;
  }
  ranges.emplace_back(lo, count);
  return ranges;
}

}  // namespace

void SegmentTable::BlockReleaser::operator()(SegmentRecord* block) const {
  // The pages wholly inside the block: the heap's own bookkeeping lies
  // outside them.
  static const uintptr_t page = static_cast<uintptr_t>(::sysconf(_SC_PAGESIZE));
  const uintptr_t start = reinterpret_cast<uintptr_t>(block);
  const uintptr_t begin = (start + page - 1) & ~(page - 1);
  const uintptr_t end = (start + kBlockBytes) & ~(page - 1);
  if (end > begin) {
    ::madvise(reinterpret_cast<void*>(begin), end - begin, MADV_DONTNEED);
  }
  delete[] block;
}

void SegmentTable::push_back(const SegmentRecord& record) {
  resize(size_ + 1);
  (*this)[size_ - 1] = record;
}

void SegmentTable::resize(size_t n) {
  STINDEX_CHECK(n >= size_);
  while ((first_block_ + blocks_.size()) * kBlockRecords < n) {
    blocks_.emplace_back(new SegmentRecord[kBlockRecords]());
  }
  size_ = n;
}

void SegmentTable::DropBelow(size_t id) {
  STINDEX_CHECK(id >= base_ && id <= size_);
  base_ = id;
  const size_t drop =
      std::min(id / kBlockRecords - first_block_, blocks_.size());
  blocks_.erase(blocks_.begin(),
                blocks_.begin() + static_cast<std::ptrdiff_t>(drop));
  first_block_ += drop;
}

std::vector<SegmentRecord> ApplySplits(ObjectId object,
                                       const std::vector<Rect2D>& rects,
                                       Time t0,
                                       const std::vector<int>& cuts) {
  STINDEX_CHECK(!rects.empty());
  const MbrVolumeTable table(rects);
  std::vector<SegmentRecord> records;
  for (const auto& [lo, hi] : SegmentRanges(rects.size(), cuts)) {
    SegmentRecord record;
    record.object = object;
    record.box.rect = table.MbrOver(static_cast<size_t>(lo),
                                    static_cast<size_t>(hi - 1));
    record.box.interval = TimeInterval(t0 + lo, t0 + hi);
    records.push_back(record);
  }
  return records;
}

double SplitVolume(const std::vector<Rect2D>& rects,
                   const std::vector<int>& cuts) {
  STINDEX_CHECK(!rects.empty());
  const MbrVolumeTable table(rects);
  double volume = 0.0;
  for (const auto& [lo, hi] : SegmentRanges(rects.size(), cuts)) {
    volume += table.RunVolume(static_cast<size_t>(lo),
                              static_cast<size_t>(hi - 1));
  }
  return volume;
}

}  // namespace stindex
