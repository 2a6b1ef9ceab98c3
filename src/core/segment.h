#ifndef STINDEX_CORE_SEGMENT_H_
#define STINDEX_CORE_SEGMENT_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "geometry/box.h"
#include "geometry/interval.h"
#include "geometry/rect.h"
#include "trajectory/trajectory.h"

namespace stindex {

// Result of splitting one object. `cuts` are instant indices c (relative
// to the object's first alive instant, 0 < c < n) where a new segment
// begins: k cuts produce the k+1 segments [0,c1), [c1,c2), ..., [ck, n).
// `total_volume` is the summed volume of the segment MBRs.
struct SplitResult {
  std::vector<int> cuts;
  double total_volume = 0.0;

  int NumSplits() const { return static_cast<int>(cuts.size()); }
};

// A record produced by splitting: one piece of one object, approximated by
// a single spatiotemporal box. These are what gets inserted in the
// indexes; `object` ties the pieces back to the original object so query
// results can be de-duplicated.
struct SegmentRecord {
  ObjectId object = 0;
  STBox box;
};

// A table of segment records that grows without reallocating: records
// live in blocks of kBlockRecords, found through a small vector of block
// pointers, so a record never moves once stored and growth copies none.
// A block (56 KiB) is below glibc's default 128 KiB mmap threshold, so a
// freed table's blocks return to the heap for the next table's. Holds
// the live tier's migrated segments, which grow with the whole history.
class SegmentTable {
 public:
  static constexpr size_t kBlockRecords = 1024;
  static constexpr size_t kBlockBytes = kBlockRecords * sizeof(SegmentRecord);

  SegmentTable() = default;
  // A moved-from table is empty.
  SegmentTable(SegmentTable&& other) noexcept
      : blocks_(std::exchange(other.blocks_, {})),
        size_(std::exchange(other.size_, 0)) {}
  SegmentTable& operator=(SegmentTable&& other) noexcept {
    blocks_ = std::exchange(other.blocks_, {});
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  size_t size() const { return size_; }
  // Blocks held, each kBlockBytes.
  size_t blocks() const { return blocks_.size(); }

  SegmentRecord& operator[](size_t i) {
    return blocks_[i / kBlockRecords][i % kBlockRecords];
  }
  const SegmentRecord& operator[](size_t i) const {
    return blocks_[i / kBlockRecords][i % kBlockRecords];
  }

  void push_back(const SegmentRecord& record);
  // Grows the table to `n` >= size() records, the new ones default, so
  // a reader can fill them in any order.
  void resize(size_t n);

 private:
  std::vector<std::unique_ptr<SegmentRecord[]>> blocks_;
  size_t size_ = 0;
};

// Materializes the segment boxes of an object split at `cuts`.
// `rects` is the per-instant rectangle sequence, `t0` the first alive
// instant. Cuts must be strictly increasing and within (0, rects.size()).
std::vector<SegmentRecord> ApplySplits(ObjectId object,
                                       const std::vector<Rect2D>& rects,
                                       Time t0, const std::vector<int>& cuts);

// Total volume of the segment boxes produced by `cuts` (without
// materializing the records).
double SplitVolume(const std::vector<Rect2D>& rects,
                   const std::vector<int>& cuts);

}  // namespace stindex

#endif  // STINDEX_CORE_SEGMENT_H_
