#include "core/volume_curve.h"

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
  ParallelFor(num_threads, objects.size(),
              [&](size_t /*chunk*/, size_t begin, size_t end) {
                GreedyMerger merger;
                for (size_t i = begin; i < end; ++i) {
                  if (method == SplitMethod::kMerge) {
                    merger.Load(objects[i]);
                    curves[i].volume = merger.VolumeCurve(k_max);
                  } else {
                    curves[i].volume =
                        DpVolumeCurve(objects[i].Sample(), k_max);
                  }
                }
              });
  return curves;
}

}  // namespace stindex
