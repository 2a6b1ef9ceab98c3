#include "core/merge_split.h"

#include <algorithm>

#include "util/check.h"

namespace stindex {

void GreedyMerger::Load(const Trajectory& object) {
  STINDEX_CHECK(!object.tuples().empty());
  segments_.resize(static_cast<size_t>(object.NumInstants()));
  size_t n = 0;
  for (const MovementTuple& tuple : object.tuples()) {
    for (Time t = tuple.interval.start; t < tuple.interval.end; ++t) {
      STINDEX_CHECK_MSG(n < segments_.size(), "trajectory tuples overlap");
      segments_[n++].mbr = tuple.RectAt(t);
    }
  }
  STINDEX_CHECK_MSG(n == segments_.size(), "trajectory tuples leave a gap");
  Link(static_cast<int>(n));
}

void GreedyMerger::LoadRects(std::span<const Rect2D> rects) {
  segments_.resize(rects.size());
  for (size_t i = 0; i < rects.size(); ++i) segments_[i].mbr = rects[i];
  Link(static_cast<int>(rects.size()));
}

void GreedyMerger::Link(int n) {
  STINDEX_CHECK(n > 0);
  total_volume_ = 0.0;
  for (int i = 0; i < n; ++i) {
    Segment& seg = segments_[static_cast<size_t>(i)];
    seg.lo = i;
    seg.hi = i;
    seg.prev = i - 1;
    seg.next = i + 1 < n ? i + 1 : -1;
    seg.stamp = 0;
    total_volume_ += seg.mbr.Area();
  }
  count_ = n;
  heap_.clear();
  for (int i = 0; i + 1 < n; ++i) PushCandidate(i);
}

void GreedyMerger::PushCandidate(int left) {
  const Segment& a = segments_[static_cast<size_t>(left)];
  STINDEX_DCHECK(a.next >= 0);
  const Segment& b = segments_[static_cast<size_t>(a.next)];
  const double merged_volume =
      a.mbr.Union(b.mbr).Area() * static_cast<double>(b.hi - a.lo + 1);
  heap_.push_back(Candidate{merged_volume - a.Volume() - b.Volume(), left,
                            a.stamp});
  // push_heap: sift the new last element up.
  SiftUp(static_cast<ptrdiff_t>(heap_.size()) - 1, 0, heap_.back());
}

// libstdc++'s __push_heap with std::greater: a parent moves down while
// its cost is strictly greater than the value's.
void GreedyMerger::SiftUp(ptrdiff_t hole, ptrdiff_t top, Candidate value) {
  ptrdiff_t parent = (hole - 1) / 2;
  while (hole > top && heap_[static_cast<size_t>(parent)].cost > value.cost) {
    heap_[static_cast<size_t>(hole)] = heap_[static_cast<size_t>(parent)];
    hole = parent;
    parent = (hole - 1) / 2;
  }
  heap_[static_cast<size_t>(hole)] = value;
}

// libstdc++'s pop_heap (__pop_heap + __adjust_heap) with std::greater,
// then pop_back: the hole left by the top walks down to a leaf along the
// smaller child (the right one on a tie), and the former last element is
// sifted up from there.
GreedyMerger::Candidate GreedyMerger::PopTop() {
  STINDEX_CHECK(!heap_.empty());
  const Candidate top = heap_.front();
  const ptrdiff_t len = static_cast<ptrdiff_t>(heap_.size()) - 1;
  if (len > 0) {
    const Candidate value = heap_.back();
    ptrdiff_t hole = 0;
    ptrdiff_t child = 0;
    while (child < (len - 1) / 2) {
      child = 2 * (child + 1);
      // Branch-free: the comparison is a coin flip on random costs.
      child -= heap_[static_cast<size_t>(child)].cost >
               heap_[static_cast<size_t>(child) - 1].cost;
      heap_[static_cast<size_t>(hole)] = heap_[static_cast<size_t>(child)];
      hole = child;
    }
    if ((len & 1) == 0 && child == (len - 2) / 2) {
      child = 2 * (child + 1);
      heap_[static_cast<size_t>(hole)] = heap_[static_cast<size_t>(child) - 1];
      hole = child - 1;
    }
    SiftUp(hole, 0, value);
  }
  heap_.pop_back();
  return top;
}

void GreedyMerger::MergeOnce() {
  STINDEX_CHECK(count_ > 1);
  Candidate top = PopTop();
  while (segments_[static_cast<size_t>(top.left)].stamp != top.stamp) {
    top = PopTop();  // stale entry
  }
  Segment& left = segments_[static_cast<size_t>(top.left)];
  Segment& right = segments_[static_cast<size_t>(left.next)];

  // Merge `right` into `left`.
  total_volume_ += top.cost;
  left.hi = right.hi;
  left.mbr.ExpandToInclude(right.mbr);
  left.next = right.next;
  ++left.stamp;
  ++right.stamp;  // dead: its pending candidate goes stale
  if (left.next >= 0) {
    segments_[static_cast<size_t>(left.next)].prev = top.left;
    PushCandidate(top.left);
  }
  if (left.prev >= 0) {
    ++segments_[static_cast<size_t>(left.prev)].stamp;
    PushCandidate(left.prev);
  }
  --count_;
}

std::vector<double> GreedyMerger::VolumeCurve(int k_max) {
  STINDEX_CHECK(k_max >= 0);
  std::vector<double> curve(
      static_cast<size_t>(std::min(k_max, count_ - 1)) + 1, 0.0);
  VolumeCurve(curve);
  return curve;
}

void GreedyMerger::VolumeCurve(std::span<double> curve) {
  STINDEX_CHECK(!curve.empty() && curve.size() <= static_cast<size_t>(count_));
  const int top = static_cast<int>(curve.size()) - 1;
  if (count_ - 1 <= top) {
    curve[static_cast<size_t>(count_) - 1] = total_volume_;
  }
  while (count_ > 1) {
    MergeOnce();
    const int splits = count_ - 1;
    if (splits <= top) curve[static_cast<size_t>(splits)] = total_volume_;
  }
}

std::vector<int> GreedyMerger::Cuts() const {
  std::vector<int> cuts;
  cuts.reserve(static_cast<size_t>(count_) - 1);
  // Segment 0 never dies: merges always fold the right segment in.
  for (int s = segments_[0].next; s >= 0;
       s = segments_[static_cast<size_t>(s)].next) {
    cuts.push_back(segments_[static_cast<size_t>(s)].lo);
  }
  return cuts;
}

void GreedyMerger::WriteRecords(ObjectId object, Time t0,
                                SegmentRecord* out) const {
  for (int s = 0; s >= 0; s = segments_[static_cast<size_t>(s)].next) {
    const Segment& seg = segments_[static_cast<size_t>(s)];
    out->object = object;
    out->box.rect = seg.mbr;
    out->box.interval = TimeInterval(t0 + seg.lo, t0 + seg.hi + 1);
    ++out;
  }
}

SplitResult MergeSplit(std::span<const Rect2D> rects, int k) {
  STINDEX_CHECK(!rects.empty());
  STINDEX_CHECK(k >= 0);
  const int n = static_cast<int>(rects.size());
  GreedyMerger merger;
  merger.LoadRects(rects);
  merger.MergeTo(std::min(k, n - 1) + 1);
  SplitResult result;
  result.cuts = merger.Cuts();
  result.total_volume = merger.total_volume();
  return result;
}

std::vector<double> MergeVolumeCurve(std::span<const Rect2D> rects,
                                     int k_max) {
  STINDEX_CHECK(!rects.empty());
  GreedyMerger merger;
  merger.LoadRects(rects);
  return merger.VolumeCurve(k_max);
}

}  // namespace stindex
