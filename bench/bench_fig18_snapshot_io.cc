// Figure 18: average disk accesses for mixed snapshot queries across
// random dataset sizes: PPR-tree (150% LAGreedy splits) vs R*-tree (1%
// splits) vs R*-tree over piecewise data vs R*-tree with no splits.
// Shape to reproduce: PPR best by 20-50%; piecewise much worse than even
// the unsplit R*-tree.
#include <cstdio>

#include "bench_common.h"
#include "bench_report.h"
#include "core/piecewise_split.h"
#include "core/query_profile.h"

namespace stindex {
namespace bench {
namespace {

void Run(const BenchArgs& args) {
  const int num_threads = args.threads;
  const BenchScale scale = GetScale();
  std::printf("Figure 18 reproduction (scale=%s, threads=%d, backend=%s): "
              "avg disk accesses, mixed snapshot queries.\n",
              scale.name.c_str(), num_threads,
              args.backend.c_str());
  const std::vector<STQuery> queries =
      MakeQueries(MixedSnapshotSet(), scale.query_count);
  PrintHeader("Fig 18: mixed snapshot queries across dataset sizes",
              "objects | ppr150_io  | rstar1_io  | rstar0_io  | "
              "piecewise_io");
  for (size_t n : scale.dataset_sizes) {
    const std::vector<Trajectory> objects = MakeRandomDataset(n);

    const std::vector<SegmentRecord> ppr_records =
        SplitWithLaGreedy(objects, 150, num_threads);
    const std::unique_ptr<PprTree> ppr = BuildPprTree(ppr_records);
    AttachBenchBackend(ppr.get(), args, "ppr150");

    const std::vector<SegmentRecord> rstar1_records =
        SplitWithLaGreedy(objects, 1, num_threads);
    const std::unique_ptr<RStarTree> rstar1 = BuildRStar(rstar1_records, 1000);
    AttachBenchBackend(rstar1.get(), args, "rstar1");

    const std::vector<SegmentRecord> unsplit_records =
        BuildUnsplitSegments(objects, num_threads);
    const std::unique_ptr<RStarTree> rstar0 =
        BuildRStar(unsplit_records, 1000);
    AttachBenchBackend(rstar0.get(), args, "rstar0");

    int64_t piecewise_splits = 0;
    const std::vector<SegmentRecord> piecewise_records =
        PiecewiseSplitAll(objects, &piecewise_splits);
    const std::unique_ptr<RStarTree> piecewise =
        BuildRStar(piecewise_records, 1000);
    AttachBenchBackend(piecewise.get(), args, "piecewise");

    const FalseHitRefiner refiner(objects, ppr_records);
    QueryProfile ppr_profile;
    const double ppr_io =
        AveragePprIo(*ppr, queries, num_threads, /*aggregate=*/nullptr,
                     &refiner, &ppr_profile, args.buffer_pages);
    const double rstar1_io =
        AverageRStarIo(*rstar1, queries, 1000, num_threads,
                       /*aggregate=*/nullptr, /*refiner=*/nullptr,
                       /*profile=*/nullptr, args.buffer_pages);
    const double rstar0_io =
        AverageRStarIo(*rstar0, queries, 1000, num_threads,
                       /*aggregate=*/nullptr, /*refiner=*/nullptr,
                       /*profile=*/nullptr, args.buffer_pages);
    const double piecewise_io =
        AverageRStarIo(*piecewise, queries, 1000, num_threads,
                       /*aggregate=*/nullptr, /*refiner=*/nullptr,
                       /*profile=*/nullptr, args.buffer_pages);
    char row[256];
    std::snprintf(row, sizeof(row),
                  "%7zu | %10.2f | %10.2f | %10.2f | %12.2f", n, ppr_io,
                  rstar1_io, rstar0_io, piecewise_io);
    PrintRow(row);
    const double x = static_cast<double>(n);
    Report().AddSample("ppr150_io", x, ppr_io);
    Report().AddSample("rstar1_io", x, rstar1_io);
    Report().AddSample("rstar0_io", x, rstar0_io);
    Report().AddSample("piecewise_io", x, piecewise_io);
    Report().AddSample("ppr150_false_hits_per_query", x,
                       static_cast<double>(ppr_profile.false_hits) /
                           static_cast<double>(queries.size()));
  }
  std::printf("\nExpected shape: ppr150_io lowest (paper: 20%% better for "
              "small interval queries, >50%% for snapshots); piecewise_io "
              "worse than the no-splits rstar0_io (paper Figure 18).\n");
}

}  // namespace
}  // namespace bench
}  // namespace stindex

int main(int argc, char** argv) {
  const stindex::bench::BenchArgs args = stindex::bench::ParseBenchArgs(
      argc, argv, "bench_fig18_snapshot_io", stindex::bench::kTreeBackends);
  stindex::bench::Run(args);
  stindex::bench::FinishReport(args);
  return 0;
}
