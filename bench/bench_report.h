#ifndef STINDEX_BENCH_BENCH_REPORT_H_
#define STINDEX_BENCH_BENCH_REPORT_H_

// Structured reporting for the experiment harnesses. Every bench main
// parses its command line with ParseBenchArgs, feeds the numbers it
// prints into the process-global Report(), and ends with FinishReport().
// With `--json=PATH` the run additionally writes one schema-stable JSON
// document:
//
//   {
//     "schema_version": 2,
//     "bench": "<name>",           // harness name
//     "scale": "<small|medium|paper>",
//     "threads": N,
//     "params": { ... },           // harness-specific knobs, insertion order
//     "series": [                  // the plotted/tabulated numbers
//       {"name": "...", "points": [{"x": ..., "y": ...} |
//                                  {"label": "...", "y": ...}]}
//     ],
//     "io": {"accesses": N, "misses": N, "hits": N,
//            "false_hits": N},     // query-time totals; false_hits is 0
//                                  // unless the harness ran a refiner
//     "latency_ms": {"count": N, "p50": ..., "p90": ..., "p95": ...,
//                    "p99": ..., "max": ...},  // per-query wall times
//     "metrics": { "counters": {...}, "gauges": {...},
//                  "histograms": {name:
//                      {count,sum,min,max,p50,p90,p95,p99}} }
//   }
//
// Schema history: v2 added io.false_hits and the p95 percentile fields.
//
// The io and latency sections are fed by the shared query drivers in
// bench_common (registry metrics io.query.*); metrics is the full
// MetricRegistry snapshot in sorted name order.

#include <cstdint>
#include <string>
#include <vector>

namespace stindex {
namespace bench {

// Shared command-line surface of every bench binary:
//   --threads=N | --threads N    worker threads (else STINDEX_THREADS, else 1)
//   --json=PATH | --json PATH    write the structured report to PATH
//   --trace=PATH | --trace PATH  capture a Chrome trace of the whole run
//                                (tracing starts inside ParseBenchArgs and
//                                FinishReport stops it and writes the file)
//   --buffer-pages=N             *total* query-buffer capacity in pages,
//                                shared by all worker threads (0: the
//                                tree's configured default, the paper's
//                                10-page protocol)
// Harnesses that serve trees from storage (fig15/17/18,
// bench_ablation_packing) pass `backends` = kTreeBackends and
// additionally accept:
//   --backend=memory|mmap   where queries read index pages (default
//                           "memory": each tree's own arena). "mmap"
//                           packs each tree into a read-only snapshot
//                           file and serves it zero-copy.
//   --db=DIR                directory for the snapshot files (required
//                           for any backend but memory)
// stindex_server passes "memory|file|mmap": a read-only run serves its
// tree from memory|mmap, a live run journals to memory|file.
// Unknown arguments, backends outside `backends` and invalid thread
// counts print a message and exit(2); thread resolution shares
// util/threads.h with stindex_cli.
inline constexpr char kTreeBackends[] = "memory|mmap";

struct BenchArgs {
  std::string bench_name;
  int threads = 1;
  std::string json_path;   // empty: no report file
  std::string trace_path;  // empty: no Chrome trace capture
  std::string backend = "memory";  // one of the harness's `backends`
  std::string db_path;     // directory for snapshot or page files
  size_t buffer_pages = 0;  // total pool pages across all threads; 0 =
                            // the tree's configured default
};

// `backends` lists the accepted --backend values, '|'-separated; empty:
// the harness takes no --backend/--db flags.
BenchArgs ParseBenchArgs(int argc, char** argv, const std::string& bench_name,
                         const std::string& backends = "");

// Accumulates the report body for the current process.
class BenchReport {
 public:
  // Harness-specific parameters, reported in insertion order (setting the
  // same name again overwrites in place).
  void SetParam(const std::string& name, const std::string& value);
  void SetParam(const std::string& name, int64_t value);
  void SetParam(const std::string& name, double value);

  // One data point of a named series; series appear in first-use order
  // and points in insertion order, mirroring the printed rows.
  void AddSample(const std::string& series, double x, double y);
  void AddSample(const std::string& series, const std::string& label,
                 double y);

  // The finished JSON document (also what FinishReport writes).
  std::string ToJson(const std::string& bench_name, int threads) const;

  // Drops all accumulated params/series (tests only).
  void ResetForTest();

 private:
  struct Point {
    bool labeled = false;
    std::string label;
    double x = 0.0;
    double y = 0.0;
  };
  struct Series {
    std::string name;
    std::vector<Point> points;
  };
  enum class ParamKind { kString, kInt, kDouble };
  struct Param {
    std::string name;
    ParamKind kind = ParamKind::kString;
    std::string string_value;
    int64_t int_value = 0;
    double double_value = 0.0;
  };

  Param* FindOrAddParam(const std::string& name);
  Series& FindOrAddSeries(const std::string& name);

  std::vector<Param> params_;
  std::vector<Series> series_;
};

// The process-global report every harness feeds.
BenchReport& Report();

// Writes the report to args.json_path when set (a message to stderr on
// I/O failure exits with status 1); no-op otherwise.
void FinishReport(const BenchArgs& args);

}  // namespace bench
}  // namespace stindex

#endif  // STINDEX_BENCH_BENCH_REPORT_H_
