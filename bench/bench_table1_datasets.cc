// Table I: statistics of the random and railway datasets, plus the heap
// bytes each dataset holds.
#include <malloc.h>

#include <cstdio>

#include "bench_common.h"
#include "bench_report.h"

namespace stindex {
namespace bench {
namespace {

// Bytes the heap has handed out: glibc's arenas and its mmap'd chunks.
size_t HeapBytesInUse() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

// Prints one Table I row for the dataset `make` generates, with the heap
// bytes the dataset holds once generated (every temporary freed).
template <typename Make>
void PrintStatsRow(const char* family, Make make, Time domain) {
  const size_t before = HeapBytesInUse();
  const std::vector<Trajectory> objects = make();
  const double heap_bytes =
      static_cast<double>(HeapBytesInUse()) - static_cast<double>(before);
  const DatasetStats stats = ComputeDatasetStats(objects, domain);
  const double bytes_per_tuple =
      heap_bytes / static_cast<double>(stats.total_segments);
  char row[256];
  std::snprintf(row, sizeof(row),
                "%-8s | %6zu | %12.2f | %10zu | %8.2f | %11.1f | %10.2f",
                family, stats.total_objects, stats.avg_objects_per_instant,
                stats.total_segments, stats.avg_lifetime, bytes_per_tuple,
                heap_bytes / 1e6);
  PrintRow(row);
  const double n = static_cast<double>(stats.total_objects);
  const std::string prefix = family;
  Report().AddSample(prefix + ".objs_per_instant", n,
                     stats.avg_objects_per_instant);
  Report().AddSample(prefix + ".segments", n,
                     static_cast<double>(stats.total_segments));
  Report().AddSample(prefix + ".avg_lifetime", n, stats.avg_lifetime);
  Report().AddSample(prefix + ".bytes_per_tuple", n, bytes_per_tuple);
  Report().AddSample(prefix + ".dataset_mb", n, heap_bytes / 1e6);
}

void Run() {
  const BenchScale scale = GetScale();
  std::printf("Table I reproduction (scale=%s). Paper columns: total "
              "objects, avg objects per instant, total segments, avg "
              "lifetime; then the heap bytes the dataset holds, per "
              "segment (movement tuple) and in all (MB of 10^6 bytes).\n",
              scale.name.c_str());
  const char* columns =
      "family   | objects | objs/instant | segments  | lifetime | "
      "bytes/tuple | dataset MB";
  PrintHeader("Table I: random datasets", columns);
  for (size_t n : scale.dataset_sizes) {
    PrintStatsRow("random", [n] { return MakeRandomDataset(n); }, 1000);
  }
  PrintHeader("Table I: railway datasets", columns);
  for (size_t n : scale.dataset_sizes) {
    PrintStatsRow("railway", [n] { return MakeRailwayDataset(n); }, 1000);
  }
  std::printf(
      "\nExpected shape: railway lifetimes (~18 at paper scale) are much "
      "shorter than random (~50); segments scale ~linearly with objects.\n");
}

}  // namespace
}  // namespace bench
}  // namespace stindex

int main(int argc, char** argv) {
  const stindex::bench::BenchArgs args =
      stindex::bench::ParseBenchArgs(argc, argv, "bench_table1_datasets");
  stindex::bench::Run();
  stindex::bench::FinishReport(args);
  return 0;
}
