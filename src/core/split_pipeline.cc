#include "core/split_pipeline.h"

#include <algorithm>

#include "core/dp_split.h"
#include "core/merge_split.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace stindex {

namespace {

// Publishes the segment-phase outcome (count only; counter adds are
// order-independent, so the parallel path stays deterministic).
void CountSegmentsBuilt(size_t n) {
  MetricRegistry::Global().GetCounter("pipeline.segments_built")->Add(n);
}

}  // namespace

std::vector<SegmentRecord> BuildSegments(
    const std::vector<Trajectory>& objects,
    const std::vector<int>& splits_per_object, SplitMethod method,
    int num_threads) {
  STINDEX_CHECK(objects.size() == splits_per_object.size());
  ScopedTimer timer("pipeline.segment_seconds");
  TraceSpan span("pipeline", "build_segments");
  span.Arg("objects", static_cast<int64_t>(objects.size()))
      .Arg("threads", static_cast<int64_t>(num_threads));
  // An object of n alive instants asked for k splits gets min(k, n - 1)
  // of them (none for k <= 0), and every method then yields exactly
  // splits + 1 records, so one prefix sum places each object's records
  // before any is computed.
  std::vector<size_t> offsets(objects.size() + 1, 0);
  for (size_t i = 0; i < objects.size(); ++i) {
    const int k = splits_per_object[i];
    const int64_t splits =
        k <= 0 ? 0 : std::min<int64_t>(k, objects[i].NumInstants() - 1);
    offsets[i + 1] = offsets[i] + static_cast<size_t>(splits) + 1;
  }
  std::vector<SegmentRecord> records(offsets.back());
  ParallelFor(num_threads, objects.size(),
              [&](size_t /*chunk*/, size_t begin, size_t end) {
                GreedyMerger merger;
                for (size_t i = begin; i < end; ++i) {
                  const Trajectory& object = objects[i];
                  SegmentRecord* out = records.data() + offsets[i];
                  const size_t splits = offsets[i + 1] - offsets[i] - 1;
                  if (splits == 0) {
                    *out = SegmentRecord{object.id(), object.FullBox()};
                  } else if (method == SplitMethod::kMerge) {
                    merger.Load(object);
                    merger.MergeTo(static_cast<int>(splits) + 1);
                    merger.WriteRecords(object.id(), object.Lifetime().start,
                                        out);
                  } else {
                    const std::vector<Rect2D> rects = object.Sample();
                    const std::vector<SegmentRecord> pieces = ApplySplits(
                        object.id(), rects, object.Lifetime().start,
                        DpSplit(rects, static_cast<int>(splits)).cuts);
                    std::copy(pieces.begin(), pieces.end(), out);
                  }
                }
              });
  CountSegmentsBuilt(records.size());
  return records;
}

std::vector<SegmentRecord> BuildUnsplitSegments(
    const std::vector<Trajectory>& objects, int num_threads) {
  ScopedTimer timer("pipeline.segment_seconds");
  TraceSpan span("pipeline", "build_unsplit_segments");
  span.Arg("objects", static_cast<int64_t>(objects.size()));
  std::vector<SegmentRecord> records(objects.size());
  ParallelFor(num_threads, objects.size(),
              [&](size_t /*chunk*/, size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i) {
                  records[i].object = objects[i].id();
                  records[i].box = objects[i].FullBox();
                }
              });
  CountSegmentsBuilt(records.size());
  return records;
}

std::vector<Box3D> SegmentsToBoxes(const std::vector<SegmentRecord>& records,
                                   Time t0, Time time_domain) {
  STINDEX_CHECK(time_domain > 0);
  const double scale = 1.0 / static_cast<double>(time_domain);
  std::vector<Box3D> boxes;
  boxes.reserve(records.size());
  for (const SegmentRecord& record : records) {
    boxes.push_back(record.box.ToBox3D(t0, scale));
  }
  return boxes;
}

double TotalVolume(const std::vector<SegmentRecord>& records) {
  double volume = 0.0;
  for (const SegmentRecord& record : records) volume += record.box.Volume();
  return volume;
}

}  // namespace stindex
