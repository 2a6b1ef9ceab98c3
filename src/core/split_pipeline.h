#ifndef STINDEX_CORE_SPLIT_PIPELINE_H_
#define STINDEX_CORE_SPLIT_PIPELINE_H_

#include <vector>

#include "core/distribute.h"
#include "core/segment.h"
#include "core/volume_curve.h"
#include "geometry/box.h"
#include "trajectory/trajectory.h"

namespace stindex {

// End-to-end splitting pipeline helpers: dataset -> per-object splits ->
// segment records -> index input. Used by the split advisor, the
// examples and every index experiment.

// Applies `splits_per_object[i]` splits to object i with the chosen
// single-object splitter and materializes all segment records: object i
// yields exactly min(k_i, n_i - 1) + 1 records, in time order, after
// those of objects 0..i-1.
//
// The output is sized once from those counts, and each object's records
// are written straight into their slots. Objects are independent units
// of work: with num_threads > 1 they are partitioned into contiguous
// chunks on the shared thread pool, each chunk reusing one GreedyMerger,
// so the result is byte-identical at any thread count.
std::vector<SegmentRecord> BuildSegments(
    const std::vector<Trajectory>& objects,
    const std::vector<int>& splits_per_object, SplitMethod method,
    int num_threads = 1);

// One record per object: the naive single-MBR representation. Same
// determinism contract as BuildSegments.
std::vector<SegmentRecord> BuildUnsplitSegments(
    const std::vector<Trajectory>& objects, int num_threads = 1);

// Converts segment records to the 3-D boxes fed to the R*-tree, scaling
// the time axis onto [0, 1] (paper Section V: "the time dimension was
// scaled down to the unit range first").
std::vector<Box3D> SegmentsToBoxes(const std::vector<SegmentRecord>& records,
                                   Time t0, Time time_domain);

// Total volume of a segment collection.
double TotalVolume(const std::vector<SegmentRecord>& records);

}  // namespace stindex

#endif  // STINDEX_CORE_SPLIT_PIPELINE_H_
