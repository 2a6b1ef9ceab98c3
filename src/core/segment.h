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
#include "util/check.h"

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
// Holds the live tier's migrated segments, numbered in the order they
// were stored. A prefix no reader needs any more can be dropped: the
// table then holds ids [base(), size()) and frees every block wholly
// below base(), so ids stay stable while memory follows what is held.
// A block (56 KiB) comes from the heap, and gives its whole pages back
// to the OS as it is freed: glibc keeps a freed chunk resident, and one
// freed by a thread that allocates nothing after — a set-up thread
// whose table a feed thread then grows — would stay so for good.
class SegmentTable {
 public:
  static constexpr size_t kBlockRecords = 1024;
  static constexpr size_t kBlockBytes = kBlockRecords * sizeof(SegmentRecord);

  // An empty table whose first id is `base`: it holds no record below.
  explicit SegmentTable(size_t base = 0)
      : first_block_(base / kBlockRecords), base_(base), size_(base) {}
  // A moved-from table is empty.
  SegmentTable(SegmentTable&& other) noexcept
      : blocks_(std::exchange(other.blocks_, {})),
        first_block_(std::exchange(other.first_block_, 0)),
        base_(std::exchange(other.base_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  SegmentTable& operator=(SegmentTable&& other) noexcept {
    blocks_ = std::exchange(other.blocks_, {});
    first_block_ = std::exchange(other.first_block_, 0);
    base_ = std::exchange(other.base_, 0);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  // One past the last id stored: every record ever stored, held or not.
  size_t size() const { return size_; }
  // The first id held.
  size_t base() const { return base_; }
  // Blocks held, each kBlockBytes.
  size_t blocks() const { return blocks_.size(); }

  // Record `i`, for base() <= i < size().
  SegmentRecord& operator[](size_t i) {
    STINDEX_DCHECK(i >= base_ && i < size_);
    return blocks_[i / kBlockRecords - first_block_][i % kBlockRecords];
  }
  const SegmentRecord& operator[](size_t i) const {
    STINDEX_DCHECK(i >= base_ && i < size_);
    return blocks_[i / kBlockRecords - first_block_][i % kBlockRecords];
  }

  void push_back(const SegmentRecord& record);
  // Grows the table to `n` >= size() records, the new ones default, so
  // a reader can fill them in any order.
  void resize(size_t n);
  // Drops the records below `id`, base() <= id <= size(): base() becomes
  // `id`, and every block wholly below it is freed.
  void DropBelow(size_t id);

 private:
  struct BlockReleaser {
    void operator()(SegmentRecord* block) const;
  };
  using Block = std::unique_ptr<SegmentRecord[], BlockReleaser>;

  // Blocks first_block_, first_block_ + 1, ...: block b holds ids
  // [b * kBlockRecords, (b + 1) * kBlockRecords).
  std::vector<Block> blocks_;
  size_t first_block_ = 0;
  size_t base_ = 0;
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
