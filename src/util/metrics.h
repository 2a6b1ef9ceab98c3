#ifndef STINDEX_UTIL_METRICS_H_
#define STINDEX_UTIL_METRICS_H_

// Lightweight process-wide metrics: named counters, gauges and
// fixed-log-bucket latency histograms, registered in a global
// MetricRegistry and snapshotted in sorted name order so every rendering
// (bench reports, the CLI --stats dump) is deterministic.
//
// Determinism contract. All instrumentation in this library must keep
// instrumented runs byte-identical at any thread count:
//
//  * Counter/Gauge hold integers; additions commute, so concurrent
//    updates from the deterministic chunked ParallelFor produce the same
//    totals regardless of scheduling.
//  * Histogram sums doubles, so update ORDER matters. Parallel code must
//    not Record() into a shared histogram from workers; instead each
//    chunk records into its own Histogram value (a "shard") and the
//    shards are merged in ascending chunk index order (MergeShards), the
//    same order the serial path would have produced.
//
// Metrics are cheap (an atomic add) but not free; instrument phase
// boundaries and structural events, not per-entry inner loops.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace stindex {

// Monotone event count (node splits, buffer misses, ...).
class Counter {
 public:
  void Increment() { Add(1); }
  void Add(uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Last-written level (tree height, live pages). SetMax ratchets, for
// peaks.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void SetMax(int64_t value) {
    int64_t current = value_.load(std::memory_order_relaxed);
    while (value > current &&
           !value_.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed)) {
    }
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Point-in-time rendering of a histogram.
struct HistogramSnapshot {
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

// A fixed-log-bucket histogram VALUE (not thread-safe): bucket i covers
// (2^(i-21), 2^(i-20)], i.e. boundaries double per bucket from ~1e-6 up
// to ~8.8e12, covering sub-microsecond to multi-hour readings whether the
// unit is seconds or milliseconds. Percentiles report the upper bound of
// the bucket holding the requested rank (clamped to the exact max), so
// they are accurate to one bucket width (a factor of two).
//
// Used both standalone as a per-chunk shard (see MergeShards) and as the
// payload of a registry HistogramMetric.
class Histogram {
 public:
  static constexpr size_t kBucketCount = 64;

  void Record(double value);
  // Adds `other`'s buckets, count and sum into this histogram. Merging
  // shards in ascending chunk order keeps the double sum deterministic.
  void Merge(const Histogram& other);
  void Reset() { *this = Histogram(); }

  // The readings recorded into this histogram since `earlier` was a copy
  // of it (bucket-wise subtraction; `earlier` must be an older capture of
  // the SAME histogram, checked via monotone counts). The delta's min and
  // max are bucket-accurate — recovered from the first and last non-empty
  // delta bucket, clamped to the cumulative extremes — matching the
  // one-bucket accuracy of every percentile. This is what turns periodic
  // cumulative captures into sliding-window percentiles (MetricsWindow).
  Histogram DeltaSince(const Histogram& earlier) const;

  uint64_t Count() const { return count_; }
  double Sum() const { return sum_; }
  // Upper bound of bucket i (the value BucketIndex maps to i or below).
  static double BucketUpperBound(size_t index);
  static size_t BucketIndex(double value);

  // The value at percentile p, p in [0, 100]: the upper bound of the
  // bucket holding rank ceil(p/100 * count) (bucket-accurate, one bucket
  // width = a factor of two), clamped to the recorded extremes — so the
  // result is EXACT at p=0 (the minimum), at p=100 (the maximum), and
  // for single-sample histograms. Returns 0 for an empty histogram.
  double ValueAtPercentile(double p) const;

  HistogramSnapshot Snapshot() const;

 private:
  std::array<uint64_t, kBucketCount> buckets_{};
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// A registry-owned histogram: a Histogram behind a mutex so Record and
// MergeFrom may be called from any thread (but see the determinism
// contract above — parallel phases merge shards in chunk order instead
// of recording concurrently).
class HistogramMetric {
 public:
  void Record(double value);
  void MergeFrom(const Histogram& shard);
  Histogram Value() const;
  void Reset();

 private:
  mutable std::mutex mu_;
  Histogram histogram_;
};

// Everything the registry holds, names sorted ascending within each kind.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

// A raw registry capture: counter values plus full bucket-level
// histogram copies (not percentile summaries), in sorted name order.
// This is the epoch payload of MetricsWindow — diffing two captures of a
// monotone registry yields exact windowed counts and bucket-exact
// windowed percentiles.
struct MetricsCapture {
  std::chrono::steady_clock::time_point at;
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, Histogram>> histograms;
};

// Name -> metric map. Get* registers on first use and returns a pointer
// that stays valid for the process lifetime (ResetForTest zeroes values,
// it never removes metrics). Thread-safe.
class MetricRegistry {
 public:
  static MetricRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  HistogramMetric* GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;
  MetricsCapture CaptureRaw() const;
  // Zeroes every registered metric (pointers stay valid).
  void ResetForTest();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_;
};

// Merges per-chunk shards into `target` in ascending chunk index order —
// the deterministic reduction every parallel phase must use.
void MergeShards(const std::vector<Histogram>& shards,
                 HistogramMetric* target);

// What a MetricsWindow covers right now: per-counter increase rates and
// bucket-exact sliding-window histograms over the captured interval.
struct WindowedMetricsSnapshot {
  // Wall seconds between the oldest and newest retained epoch (0 until
  // at least two epochs exist — a window needs two boundaries).
  double seconds = 0.0;
  // Epoch intervals the window currently spans.
  size_t epochs = 0;
  // Counter increase per second over the window, sorted by name.
  // Counters born mid-window diff against zero.
  std::vector<std::pair<std::string, double>> counter_rates;
  // Readings recorded during the window only, sorted by name.
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

// A sliding window over the cumulative registry. Advance() captures the
// registry's raw state (counter values, bucket-level histograms) as the
// newest epoch of a fixed ring; WindowSnapshot() diffs the newest
// capture against the oldest retained one, yielding rolling rates and
// window-local p50/p95/p99 alongside — never instead of — the cumulative
// series.
//
// Determinism story: the window only READS cumulative state on a
// publisher thread's cadence; the Record() paths are untouched and no
// window exists outside the server/soak paths, so instrumented bench
// runs stay byte-identical whether or not this class is ever linked in.
class MetricsWindow {
 public:
  // The window spans up to `epochs` advance intervals (>= 1): the ring
  // retains epochs+1 boundary captures. With the exposition server's
  // default 2 s cadence, 15 epochs give a rolling 30 s window.
  explicit MetricsWindow(size_t epochs = 15,
                         MetricRegistry* registry = &MetricRegistry::Global());

  // Captures the registry now as the newest epoch boundary, dropping the
  // oldest once the ring is full. Thread-safe; called by the exposition
  // server's publisher loop (or a soak driver) every interval.
  void Advance();

  WindowedMetricsSnapshot WindowSnapshot() const;

  size_t max_epochs() const { return capacity_; }

 private:
  MetricRegistry* registry_;
  size_t capacity_;  // epoch intervals, ring holds capacity_+1 captures
  mutable std::mutex mu_;
  std::vector<MetricsCapture> captures_;  // oldest first
};

// Records the wall-clock seconds between construction and destruction
// into the named registry histogram (the pipeline phase timers). Wall
// times are inherently run-to-run noise; they live only in histograms,
// never in outputs required to be byte-identical across thread counts.
class ScopedTimer {
 public:
  explicit ScopedTimer(const std::string& histogram_name);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  HistogramMetric* histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace stindex

#endif  // STINDEX_UTIL_METRICS_H_
