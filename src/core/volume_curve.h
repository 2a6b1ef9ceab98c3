#ifndef STINDEX_CORE_VOLUME_CURVE_H_
#define STINDEX_CORE_VOLUME_CURVE_H_

#include <vector>

#include "geometry/rect.h"
#include "trajectory/trajectory.h"

namespace stindex {

// Which single-object splitter computes per-object volumes.
enum class SplitMethod {
  kDp,     // optimal, O(n^2 k)
  kMerge,  // greedy, O(n log n)
};

// Per-object volume-vs-splits curve: volume[j] is the total volume of the
// object's representation with j splits (j+1 boxes). The distribution
// algorithms of Section III-B operate on a collection of these curves.
//
// The curve is non-increasing (an extra split never increases total
// volume) but its *gains* need not be monotone — Figure 4's objects gain
// little from one split and a lot from two; LAGreedy exists to handle
// exactly those.
struct VolumeCurve {
  std::vector<double> volume;

  int MaxSplits() const { return static_cast<int>(volume.size()) - 1; }

  // Volume with j splits; saturates at the fully split volume.
  double VolumeAt(int j) const {
    if (j >= MaxSplits()) return volume.back();
    return volume[static_cast<size_t>(j)];
  }

  // Volume decrease going from j-1 to j splits (0 once saturated).
  double Gain(int j) const { return VolumeAt(j - 1) - VolumeAt(j); }

  // Combined gain of going from j to j+2 splits (LAGreedy's look-ahead).
  double Gain2(int j) const { return VolumeAt(j) - VolumeAt(j + 2); }
};

// Curves for a whole dataset, allowing up to k_max splits per object
// (truncated to the object's lifetime - 1). Objects are independent, so
// with num_threads > 1 the computation is chunked over the shared thread
// pool; each object's curve is written into its pre-sized slot, making
// the result identical to the serial path at any thread count. Each
// chunk reuses one GreedyMerger for all its objects (kMerge).
std::vector<VolumeCurve> ComputeVolumeCurves(
    const std::vector<Trajectory>& objects, int k_max, SplitMethod method,
    int num_threads = 1);

}  // namespace stindex

#endif  // STINDEX_CORE_VOLUME_CURVE_H_
