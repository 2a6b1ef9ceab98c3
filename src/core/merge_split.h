#ifndef STINDEX_CORE_MERGE_SPLIT_H_
#define STINDEX_CORE_MERGE_SPLIT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/segment.h"
#include "geometry/rect.h"
#include "trajectory/trajectory.h"

namespace stindex {

// MergeSplit (paper Figure 8): the greedy O(n log n) alternative to
// DPSplit. Starts with one box per alive instant and repeatedly merges the
// pair of consecutive boxes whose union increases total volume the least,
// until the target box count is reached. Sub-optimal in general but very
// close in practice (paper Figure 12) and orders of magnitude faster
// (Figure 11).

// The merge kernel. One merger is reused across objects: Load/LoadRects
// reset it to one object's per-instant rects, and its segment list and
// candidate heap keep their capacity, so a worker that splits many
// objects allocates only while its largest object grows the buffers.
//
// Segments form a doubly linked list; the heap holds one candidate per
// adjacent pair, keyed by merge cost, and invalidated lazily: every
// segment carries a stamp that changes whenever its right-hand pair
// changes, and a candidate is live only while its stamp matches. The
// heap is a step-for-step replica of libstdc++'s push_heap/pop_heap under
// std::greater (same comparisons, same moves): many merges are decided by
// exact cost ties, and the heap shape decides which tied pair merges
// first, so only this shape reproduces the library's splits.
class GreedyMerger {
 public:
  // Samples `object` (one rect per alive instant, as Trajectory::Sample)
  // straight into the segment list.
  void Load(const Trajectory& object);
  void LoadRects(std::span<const Rect2D> rects);

  // Total volume of the surviving segments' boxes.
  double total_volume() const { return total_volume_; }

  // Merges until at most `segments` boxes remain.
  void MergeTo(int segments) {
    while (count_ > segments) MergeOnce();
  }

  // Merges down to one box, recording the total volume each time the
  // segment count passes through j + 1 for j = 0..min(k_max, n-1).
  std::vector<double> VolumeCurve(int k_max);
  // The same into `curve`, which holds min(k_max, n-1) + 1 entries.
  void VolumeCurve(std::span<double> curve);

  // Boundaries between surviving segments (the cut positions), ascending.
  std::vector<int> Cuts() const;

  // Writes the surviving segments, in time order, as records of
  // `object` whose first instant is `t0`. Each box is the segment's MBR,
  // bit-identical to ApplySplits' fold over the same instants.
  void WriteRecords(ObjectId object, Time t0, SegmentRecord* out) const;

 private:
  struct Segment {
    Rect2D mbr;
    int lo = 0;
    int hi = 0;  // inclusive
    int prev = -1;
    int next = -1;
    // Changes whenever the pair (this, next) changes or this dies.
    uint32_t stamp = 0;

    double Volume() const {
      return mbr.Area() * static_cast<double>(hi - lo + 1);
    }
  };

  struct Candidate {
    double cost;
    int32_t left;
    uint32_t stamp;
  };
  static_assert(sizeof(Candidate) == 16);

  // Resets the list to the first `n` loaded segments.
  void Link(int n);
  // Merges the cheapest adjacent pair. Requires count() > 1.
  void MergeOnce();
  void PushCandidate(int left);
  void SiftUp(ptrdiff_t hole, ptrdiff_t top, Candidate value);
  Candidate PopTop();

  std::vector<Segment> segments_;
  std::vector<Candidate> heap_;
  double total_volume_ = 0.0;
  int count_ = 0;
};

// Greedy cuts for min(k, n-1) splits.
SplitResult MergeSplit(std::span<const Rect2D> rects, int k);

// Greedy total volume for every split count 0..min(k_max, n-1); entry j is
// the volume with j splits. One merge run produces the whole curve: the
// total volume is recorded each time the segment count passes through
// j + 1.
std::vector<double> MergeVolumeCurve(std::span<const Rect2D> rects,
                                     int k_max);

}  // namespace stindex

#endif  // STINDEX_CORE_MERGE_SPLIT_H_
