#ifndef STINDEX_BENCH_BENCH_COMMON_H_
#define STINDEX_BENCH_BENCH_COMMON_H_

// Shared infrastructure for the experiment harnesses. One binary per
// paper table/figure; each prints the same rows/series the paper reports.
//
// Scale control: the paper's datasets (10k-80k objects) and 1000-query
// sets take a while on one core, especially for the dynamic programming
// algorithms (the paper itself reports ~a day of CPU for DPSplit on the
// large sets). Set STINDEX_SCALE=small (default), medium, or paper.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_report.h"
#include "core/query_profile.h"
#include "core/split_pipeline.h"
#include "datagen/query_gen.h"
#include "datagen/railway.h"
#include "datagen/random_dataset.h"
#include "pprtree/ppr_tree.h"
#include "rstar/rstar_tree.h"

namespace stindex {
namespace bench {

struct BenchScale {
  std::string name;
  // Dataset sizes for the index/query experiments (paper: 10k-80k).
  std::vector<size_t> dataset_sizes;
  // Smaller sizes for experiments that run the quadratic DP algorithms
  // over every object.
  std::vector<size_t> dp_dataset_sizes;
  // Queries evaluated per query set (paper: 1000).
  size_t query_count = 200;
};

// Reads STINDEX_SCALE (small | medium | paper).
BenchScale GetScale();

// Command-line parsing (--threads, --json) lives in bench_report.h; the
// thread count resolves through util/threads.h exactly like stindex_cli
// (`--threads=N` > STINDEX_THREADS > 1, validated). All parallel paths
// are deterministic, so any value reproduces the serial numbers.

// Paper-configured random dataset of n moving rectangles (Table I row).
std::vector<Trajectory> MakeRandomDataset(size_t n, uint64_t seed = 42);

// Random dataset with a compressed time domain so that the alive density
// (objects per instant) matches the paper's large datasets even when n is
// small. Used by the I/O experiments that must also run the quadratic
// optimal algorithms. Returns the dataset and sets *time_domain.
std::vector<Trajectory> MakeDenseRandomDataset(size_t n, Time* time_domain,
                                               uint64_t seed = 42);

// Paper-configured railway dataset of n trains.
std::vector<Trajectory> MakeRailwayDataset(size_t n, uint64_t seed = 7);

// Splits the dataset with LAGreedy at `percent`% of the object count
// (MergeSplit curves) and returns the segment records. percent == 0 means
// the unsplit single-MBR representation. num_threads > 1 parallelizes the
// curve computation and segment materialization (identical output).
std::vector<SegmentRecord> SplitWithLaGreedy(
    const std::vector<Trajectory>& objects, int percent, int num_threads = 1);

// Builds an R*-tree over the records (time axis scaled to unit range).
std::unique_ptr<RStarTree> BuildRStar(const std::vector<SegmentRecord>& records,
                                      Time time_domain);

// Average disk accesses (buffer misses, buffer reset per query) over the
// query set.
//
// All workers share ONE sharded SharedBufferPool of `buffer_pages` total
// frames (0 = the tree's configured default, the paper's 10-page setup) —
// `--buffer-pages` means total resident capacity regardless of
// --threads. Each worker runs its contiguous chunk through a private
// SharedBufferPool::Session whose simulated LRU (same capacity as the
// pool) implements the paper's measurement protocol: reset before every
// query, so per-query miss counts are partition-independent and the
// aggregate equals the serial run exactly at any thread count. Page
// bytes come from the shared pool, so over a packed snapshot the real
// read count reflects the shared capacity (reads <= protocol misses).
// Per-worker protocol IoStats are summed into *aggregate when non-null;
// the pool's total capacity is recorded as report param
// "effective_buffer_pages".
//
// When `refiner` is non-null every query's candidates are re-checked
// against the exact trajectory geometry and the rejects are published to
// the io.query.false_hits counter (the paper's empty-space effect as a
// number). When `profile` is non-null, per-chunk QueryProfile shards are
// collected and merged into it in ascending chunk order (integer counts,
// so totals are thread-count independent).
double AveragePprIo(const PprTree& tree, const std::vector<STQuery>& queries,
                    int num_threads = 1, IoStats* aggregate = nullptr,
                    const FalseHitRefiner* refiner = nullptr,
                    QueryProfile* profile = nullptr, size_t buffer_pages = 0);
double AverageRStarIo(const RStarTree& tree,
                      const std::vector<STQuery>& queries, Time time_domain,
                      int num_threads = 1, IoStats* aggregate = nullptr,
                      const FalseHitRefiner* refiner = nullptr,
                      QueryProfile* profile = nullptr, size_t buffer_pages = 0);

// Serves `tree` from the storage backend selected by --backend/--db and
// records the choice as report param "backend" ("memory" | "mmap"):
// "memory" (the default) keeps the tree's own arena, "mmap" packs the
// tree into a read-only snapshot under --db, after which the io.query.*
// misses the drivers report are served by the mapped file. `tag`
// distinguishes the snapshot files of multiple trees in one run.
// Failures print and exit(1).
void AttachBenchBackend(RStarTree* tree, const BenchArgs& args,
                        const std::string& tag);
void AttachBenchBackend(PprTree* tree, const BenchArgs& args,
                        const std::string& tag);

// A query set from Table II, truncated to `count` queries.
std::vector<STQuery> MakeQueries(const QuerySetConfig& config, size_t count);

// Formatted output helpers: pipe-separated table rows.
void PrintHeader(const std::string& title, const std::string& columns);
void PrintRow(const std::string& cells);

}  // namespace bench
}  // namespace stindex

#endif  // STINDEX_BENCH_BENCH_COMMON_H_
