#include "core/volume_curve.h"

#include <algorithm>
#include <cstdint>

#include "core/dp_split.h"
#include "core/merge_split.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace stindex {

std::vector<VolumeCurve> ComputeVolumeCurves(
    const std::vector<Trajectory>& objects, int k_max, SplitMethod method,
    int num_threads) {
  STINDEX_CHECK(k_max >= 0);
  ScopedTimer timer("pipeline.curve_seconds");
  TraceSpan span("pipeline", "compute_volume_curves");
  span.Arg("objects", static_cast<int64_t>(objects.size()))
      .Arg("k_max", static_cast<int64_t>(k_max));
  MetricRegistry::Global()
      .GetCounter("pipeline.curves_computed")
      ->Add(objects.size());
  std::vector<VolumeCurve> curves(objects.size());
  if (method == SplitMethod::kMerge) {
    // The calling thread allocates every curve, in object order. Chunks
    // go to whichever worker is free, so curves allocated by the workers
    // would land in their malloc arenas in shares that vary from run to
    // run, and so would the arenas' high-water marks.
    for (size_t i = 0; i < objects.size(); ++i) {
      curves[i].volume.resize(static_cast<size_t>(
          std::min<int64_t>(k_max, objects[i].NumInstants() - 1) + 1));
    }
  }
  ParallelFor(num_threads, objects.size(),
              [&](size_t /*chunk*/, size_t begin, size_t end) {
                GreedyMerger merger;
                for (size_t i = begin; i < end; ++i) {
                  if (method == SplitMethod::kMerge) {
                    merger.Load(objects[i]);
                    merger.VolumeCurve(curves[i].volume);
                  } else {
                    curves[i].volume =
                        DpVolumeCurve(objects[i].Sample(), k_max);
                  }
                }
              });
  return curves;
}

}  // namespace stindex
