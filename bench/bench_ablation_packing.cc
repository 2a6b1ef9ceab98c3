// Ablation: packed R-trees. The paper chose not to pack its R*-tree:
// "packing algorithms tend to cluster together objects that might be
// consecutive in order even though they may correspond to large and small
// intervals. This leads to more overlapping and empty space" (Section V).
// This harness builds STR- and Hilbert-packed trees over the same segment
// records and compares query I/O against the incremental R*-tree and the
// PPR-tree.
#include <cstdio>

#include "bench_common.h"
#include "bench_report.h"

namespace stindex {
namespace bench {
namespace {

void Run(const BenchArgs& args) {
  const BenchScale scale = GetScale();
  const size_t n = scale.dataset_sizes[2];
  Report().SetParam("objects", static_cast<int64_t>(n));
  Report().SetParam("splits_percent", static_cast<int64_t>(50));
  std::printf("Packing ablation (scale=%s): %zu-object random dataset, "
              "LAGreedy 50%% splits.\n",
              scale.name.c_str(), n);
  const std::vector<Trajectory> objects = MakeRandomDataset(n);
  const std::vector<SegmentRecord> records = SplitWithLaGreedy(objects, 50);
  const std::vector<Box3D> boxes = SegmentsToBoxes(records, 0, 1000);

  const std::unique_ptr<RStarTree> incremental = BuildRStar(records, 1000);
  const std::unique_ptr<RStarTree> str =
      RStarTree::BulkLoad(boxes, PackingMethod::kStr);
  const std::unique_ptr<RStarTree> hilbert =
      RStarTree::BulkLoad(boxes, PackingMethod::kHilbert);
  const std::unique_ptr<PprTree> ppr = BuildPprTree(records);
  AttachBenchBackend(incremental.get(), args, "rstar");
  AttachBenchBackend(str.get(), args, "rstar_str");
  AttachBenchBackend(hilbert.get(), args, "rstar_hilb");
  AttachBenchBackend(ppr.get(), args, "ppr");

  PrintHeader("Packing ablation: avg disk accesses and pages",
              "structure   | small_range | mixed_snap | pages");
  struct Row {
    const char* name;
    const RStarTree* tree;
  };
  const std::vector<STQuery> ranges =
      MakeQueries(SmallRangeSet(), scale.query_count);
  const std::vector<STQuery> snaps =
      MakeQueries(MixedSnapshotSet(), scale.query_count);
  for (const Row& row : {Row{"rstar", incremental.get()},
                         Row{"rstar+str", str.get()},
                         Row{"rstar+hilb", hilbert.get()}}) {
    const double range_io =
        AverageRStarIo(*row.tree, ranges, 1000, args.threads,
                       /*aggregate=*/nullptr, /*refiner=*/nullptr,
                       /*profile=*/nullptr, args.buffer_pages);
    const double snap_io =
        AverageRStarIo(*row.tree, snaps, 1000, args.threads,
                       /*aggregate=*/nullptr, /*refiner=*/nullptr,
                       /*profile=*/nullptr, args.buffer_pages);
    char line[160];
    std::snprintf(line, sizeof(line), "%-11s | %11.2f | %10.2f | %5zu",
                  row.name, range_io, snap_io, row.tree->PageCount());
    PrintRow(line);
    Report().AddSample("small_range_io", row.name, range_io);
    Report().AddSample("mixed_snapshot_io", row.name, snap_io);
    Report().AddSample("pages", row.name,
                       static_cast<double>(row.tree->PageCount()));
  }
  const double ppr_range_io =
      AveragePprIo(*ppr, ranges, args.threads, /*aggregate=*/nullptr,
                   /*refiner=*/nullptr, /*profile=*/nullptr,
                   args.buffer_pages);
  const double ppr_snap_io =
      AveragePprIo(*ppr, snaps, args.threads, /*aggregate=*/nullptr,
                   /*refiner=*/nullptr, /*profile=*/nullptr,
                   args.buffer_pages);
  char line[160];
  std::snprintf(line, sizeof(line), "%-11s | %11.2f | %10.2f | %5zu", "ppr",
                ppr_range_io, ppr_snap_io, ppr->PageCount());
  PrintRow(line);
  Report().AddSample("small_range_io", "ppr", ppr_range_io);
  Report().AddSample("mixed_snapshot_io", "ppr", ppr_snap_io);
  Report().AddSample("pages", "ppr", static_cast<double>(ppr->PageCount()));
  std::printf("\nExpected shape: packing shrinks the R*-tree (higher fill) "
              "but does not close the gap to the PPR-tree — the paper's "
              "reason for not bothering with packed trees.\n");
}

}  // namespace
}  // namespace bench
}  // namespace stindex

int main(int argc, char** argv) {
  const stindex::bench::BenchArgs args = stindex::bench::ParseBenchArgs(
      argc, argv, "bench_ablation_packing", stindex::bench::kTreeBackends);
  stindex::bench::Run(args);
  stindex::bench::FinishReport(args);
  return 0;
}
