// Figure 17: average disk accesses for small range queries across random
// dataset sizes: PPR-tree with 150% LAGreedy splits vs R*-tree with 1%
// splits vs R*-tree over piecewise-split data ([21]-style). Shape to
// reproduce: the split PPR-tree is clearly best; piecewise is worst.
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
  std::printf("Figure 17 reproduction (scale=%s, threads=%d, backend=%s): "
              "avg disk accesses, small range queries.\n",
              scale.name.c_str(), num_threads,
              args.backend.c_str());
  const std::vector<STQuery> queries =
      MakeQueries(SmallRangeSet(), scale.query_count);
  PrintHeader("Fig 17: small range queries across dataset sizes",
              "objects | ppr150_io  | rstar1_io  | piecewise_io | "
              "piecewise_splits%%");
  for (size_t n : scale.dataset_sizes) {
    const std::vector<Trajectory> objects = MakeRandomDataset(n);

    const std::vector<SegmentRecord> ppr_records =
        SplitWithLaGreedy(objects, 150, num_threads);
    const std::unique_ptr<PprTree> ppr = BuildPprTree(ppr_records);
    AttachBenchBackend(ppr.get(), args, "ppr150");

    const std::vector<SegmentRecord> rstar_records =
        SplitWithLaGreedy(objects, 1, num_threads);
    const std::unique_ptr<RStarTree> rstar = BuildRStar(rstar_records, 1000);
    AttachBenchBackend(rstar.get(), args, "rstar1");

    int64_t piecewise_splits = 0;
    const std::vector<SegmentRecord> piecewise_records =
        PiecewiseSplitAll(objects, &piecewise_splits);
    const std::unique_ptr<RStarTree> piecewise =
        BuildRStar(piecewise_records, 1000);
    AttachBenchBackend(piecewise.get(), args, "piecewise");

    // Refine the PPR candidates against exact trajectories so the report
    // carries the false-hit totals (io.query.false_hits).
    const FalseHitRefiner refiner(objects, ppr_records);
    QueryProfile ppr_profile;
    const double ppr_io =
        AveragePprIo(*ppr, queries, num_threads, /*aggregate=*/nullptr,
                     &refiner, &ppr_profile, args.buffer_pages);
    const double rstar_io =
        AverageRStarIo(*rstar, queries, 1000, num_threads,
                       /*aggregate=*/nullptr, /*refiner=*/nullptr,
                       /*profile=*/nullptr, args.buffer_pages);
    const double piecewise_io =
        AverageRStarIo(*piecewise, queries, 1000, num_threads,
                       /*aggregate=*/nullptr, /*refiner=*/nullptr,
                       /*profile=*/nullptr, args.buffer_pages);
    char row[256];
    std::snprintf(row, sizeof(row),
                  "%7zu | %10.2f | %10.2f | %12.2f | %8.0f%%", n, ppr_io,
                  rstar_io, piecewise_io,
                  100.0 * static_cast<double>(piecewise_splits) /
                      static_cast<double>(n));
    PrintRow(row);
    const double x = static_cast<double>(n);
    Report().AddSample("ppr150_io", x, ppr_io);
    Report().AddSample("rstar1_io", x, rstar_io);
    Report().AddSample("piecewise_io", x, piecewise_io);
    Report().AddSample("ppr150_false_hits_per_query", x,
                       static_cast<double>(ppr_profile.false_hits) /
                           static_cast<double>(queries.size()));
  }
  std::printf("\nExpected shape: ppr150_io lowest at every size; the "
              "piecewise R*-tree is by far the worst (paper Figure 17; "
              "piecewise uses ~300-400%% splits).\n");
}

}  // namespace
}  // namespace bench
}  // namespace stindex

int main(int argc, char** argv) {
  const stindex::bench::BenchArgs args = stindex::bench::ParseBenchArgs(
      argc, argv, "bench_fig17_range_io", stindex::bench::kTreeBackends);
  stindex::bench::Run(args);
  stindex::bench::FinishReport(args);
  return 0;
}
