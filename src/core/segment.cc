#include "core/segment.h"

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

static_assert(SegmentTable::kBlockBytes < 128 * 1024,
              "a block must stay below glibc's default mmap threshold");

void SegmentTable::push_back(const SegmentRecord& record) {
  if (size_ == blocks_.size() * kBlockRecords) {
    blocks_.push_back(std::make_unique<SegmentRecord[]>(kBlockRecords));
  }
  (*this)[size_++] = record;
}

void SegmentTable::resize(size_t n) {
  STINDEX_CHECK(n >= size_);
  while (blocks_.size() * kBlockRecords < n) {
    blocks_.push_back(std::make_unique<SegmentRecord[]>(kBlockRecords));
  }
  size_ = n;
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
