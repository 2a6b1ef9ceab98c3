// Figure 15: average disk accesses for small range queries as the number
// of splits grows (LAGreedy distribution), PPR-tree vs 3-D R*-tree, on
// the 50k random dataset (third size of the active scale). Shape to
// reproduce: PPR I/O falls substantially with splits while the R*-tree
// gets no benefit (or degrades). Candidates are also refined against the
// exact trajectories: splitting tightens the stored MBRs, so the
// per-query false-hit count must fall monotonically with the budget.
#include <cstdio>

#include "bench_common.h"
#include "bench_report.h"
#include "core/query_profile.h"

namespace stindex {
namespace bench {
namespace {

void Run(const BenchArgs& args) {
  const BenchScale scale = GetScale();
  const size_t n = scale.dataset_sizes[2];
  Report().SetParam("objects", static_cast<int64_t>(n));
  std::printf("Figure 15 reproduction (scale=%s, backend=%s): avg disk "
              "accesses vs splits, small range queries, %zu-object random "
              "dataset.\n",
              scale.name.c_str(),
              args.backend.c_str(), n);
  const std::vector<Trajectory> objects = MakeRandomDataset(n);
  const std::vector<STQuery> queries =
      MakeQueries(SmallRangeSet(), scale.query_count);

  PrintHeader("Fig 15: small range queries vs number of splits",
              "splits%% | ppr_io     | rstar_io   | false/query | records");
  for (int percent : {0, 1, 5, 10, 25, 50, 100, 150}) {
    const std::vector<SegmentRecord> records =
        SplitWithLaGreedy(objects, percent);
    const FalseHitRefiner refiner(objects, records);
    const std::unique_ptr<PprTree> ppr = BuildPprTree(records);
    AttachBenchBackend(ppr.get(), args, "ppr");
    const std::unique_ptr<RStarTree> rstar = BuildRStar(records, 1000);
    AttachBenchBackend(rstar.get(), args, "rstar");
    // Per-budget profile (the registry counter is cumulative across the
    // loop; the series wants this budget's false hits alone).
    QueryProfile ppr_profile;
    const double ppr_io = AveragePprIo(*ppr, queries, args.threads,
                                       /*aggregate=*/nullptr, &refiner,
                                       &ppr_profile, args.buffer_pages);
    const double rstar_io =
        AverageRStarIo(*rstar, queries, 1000, args.threads,
                       /*aggregate=*/nullptr, /*refiner=*/nullptr,
                       /*profile=*/nullptr, args.buffer_pages);
    const double false_per_query =
        static_cast<double>(ppr_profile.false_hits) /
        static_cast<double>(queries.size());
    char row[256];
    std::snprintf(row, sizeof(row), "%6d%% | %10.2f | %10.2f | %11.2f | %7zu",
                  percent, ppr_io, rstar_io, false_per_query, records.size());
    PrintRow(row);
    Report().AddSample("ppr_io", percent, ppr_io);
    Report().AddSample("rstar_io", percent, rstar_io);
    Report().AddSample("ppr_false_hits_per_query", percent, false_per_query);
    Report().AddSample("records", percent,
                       static_cast<double>(records.size()));
  }
  std::printf("\nExpected shape: ppr_io decreases substantially as splits "
              "increase; rstar_io is flat or degrades (paper Figure 15, "
              "75 vs 110 I/Os at paper scale); false hits per query fall "
              "monotonically as splits tighten the MBRs.\n");
}

}  // namespace
}  // namespace bench
}  // namespace stindex

int main(int argc, char** argv) {
  const stindex::bench::BenchArgs args = stindex::bench::ParseBenchArgs(
      argc, argv, "bench_fig15_splits_io", stindex::bench::kTreeBackends);
  stindex::bench::Run(args);
  stindex::bench::FinishReport(args);
  return 0;
}
