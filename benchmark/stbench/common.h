#ifndef STBENCH_COMMON_H_
#define STBENCH_COMMON_H_

// Shared pieces of stbench: clocks, exact latency samples, the
// report every workload fills, and the seeded inputs.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "datagen/query_gen.h"
#include "trajectory/trajectory.h"

namespace stbench {

using Clock = std::chrono::steady_clock;

inline int64_t Nanos(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}
inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// Raw per-request durations in nanoseconds. Each thread owns one; the
// owners merge them after the window and the percentiles are read from
// the sorted whole, so they are exact (no histogram buckets).
class Samples {
 public:
  void Add(int64_t ns) { values_.push_back(ns); }
  void Reserve(size_t n) { values_.reserve(n); }
  void Append(const Samples& other);
  // Must be called after the last Add/Append and before any reading.
  void Sort();

  size_t count() const { return values_.size(); }
  // Nearest-rank percentile, p in (0, 100]; 0 when empty.
  int64_t Percentile(double p) const;
  // Samples strictly above Percentile(p): the support of that percentile.
  size_t Beyond(double p) const;
  int64_t Max() const { return values_.empty() ? 0 : values_.back(); }
  double Mean() const;

 private:
  std::vector<int64_t> values_;
  bool sorted_ = true;
};

// Median of a small list of repeated measurements (0 when empty).
double Median(std::vector<double> values);

// What one stbench process reports. Metric names follow BENCHMARK.json;
// run.py picks the end-to-end or per-layer subset.
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  // Sample support of a percentile metric: count and how many samples lie
  // beyond its p99 (a p99 with fewer than 10 beyond it is flagged).
  struct Support {
    std::string name;
    size_t count;
    size_t beyond_p99;
  };

  std::string workload;
  uint64_t attempted = 0;
  uint64_t failed = 0;      // failed operations
  uint64_t mismatches = 0;  // oracle disagreements
  std::vector<Metric> metrics;
  std::vector<Support> supports;
  std::vector<std::string> errors;  // first few failure descriptions

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void AddSupport(const std::string& name, const Samples& samples) {
    supports.push_back({name, samples.count(), samples.Beyond(99.0)});
  }
  void Fail(const std::string& what);
  void Mismatch(const std::string& what);

  std::string ToJson() const;
};

// Options shared by every workload, from the command line.
struct Options {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10.0;
  bool traced = false;
  std::string dir;         // scratch directory for snapshot and WAL files
  std::string trace_path;  // Chrome trace of the first requests (traced)
};

// Seeded input generation. Every input derives from Options::seed; the
// program under test only ever sees the generated data.
std::vector<stindex::Trajectory> RandomObjects(size_t n, uint64_t seed);
// `count` queries alternating the paper's Table II MixedSnapshotSet and
// SmallRangeSet, with start times drawn from [0, time_domain).
std::vector<stindex::STQuery> QueryStream(size_t count, uint64_t seed,
                                          stindex::Time time_domain);

// Peak resident set of this process, in MB (1e6 bytes).
double PeakRssMb();
// Size of a file in MB (1e6 bytes); 0 when it does not exist.
double FileMb(const std::string& path);

// Threads that do work at once in any workload: three, so a four-core
// machine keeps one core for the operating system.
inline constexpr int kWorkerThreads = 3;

// Chrome-trace capture length: the first requests of the traced window.
inline constexpr size_t kTraceRequests = 2000;

// Starts the Chrome-trace capture with per-thread rings large enough that
// kTraceRequests requests drop no events, even when most fetches miss.
void StartTraceCapture();

}  // namespace stbench

#endif  // STBENCH_COMMON_H_
