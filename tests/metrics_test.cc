#include "util/metrics.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace stindex {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Increment();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(CounterTest, ConcurrentAddsAreLossless) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(counter.Value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(GaugeTest, SetAndSetMax) {
  Gauge gauge;
  gauge.Set(7);
  EXPECT_EQ(gauge.Value(), 7);
  gauge.SetMax(3);  // lower: no effect
  EXPECT_EQ(gauge.Value(), 7);
  gauge.SetMax(11);
  EXPECT_EQ(gauge.Value(), 11);
}

TEST(HistogramTest, EmptySnapshotIsZero) {
  Histogram histogram;
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 0u);
  EXPECT_EQ(snapshot.sum, 0.0);
  EXPECT_EQ(snapshot.p50, 0.0);
  EXPECT_EQ(snapshot.p99, 0.0);
}

TEST(HistogramTest, BucketBoundariesDouble) {
  for (size_t i = 1; i < Histogram::kBucketCount; ++i) {
    EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(i),
                     2.0 * Histogram::BucketUpperBound(i - 1));
  }
  // A value sits in the bucket whose upper bound is the first one >= it.
  for (size_t i = 0; i < Histogram::kBucketCount; ++i) {
    const double bound = Histogram::BucketUpperBound(i);
    EXPECT_EQ(Histogram::BucketIndex(bound), i);
  }
}

TEST(HistogramTest, NonPositiveValuesLandInBucketZero) {
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(-5.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1e-300), 0u);
}

TEST(HistogramTest, PercentilesAreBucketAccurate) {
  Histogram histogram;
  for (int i = 1; i <= 100; ++i) histogram.Record(static_cast<double>(i));
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 100u);
  EXPECT_DOUBLE_EQ(snapshot.sum, 5050.0);
  EXPECT_DOUBLE_EQ(snapshot.min, 1.0);
  EXPECT_DOUBLE_EQ(snapshot.max, 100.0);
  // Bucket-upper-bound semantics: within a factor of two above the true
  // percentile and never beyond the observed extremes.
  EXPECT_GE(snapshot.p50, 50.0);
  EXPECT_LE(snapshot.p50, 100.0);
  EXPECT_GE(snapshot.p99, 99.0);
  EXPECT_LE(snapshot.p99, 100.0);
}

TEST(HistogramTest, SingleValuePercentilesAreExact) {
  Histogram histogram;
  histogram.Record(3.5);
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_DOUBLE_EQ(snapshot.p50, 3.5);
  EXPECT_DOUBLE_EQ(snapshot.p90, 3.5);
  EXPECT_DOUBLE_EQ(snapshot.p95, 3.5);
  EXPECT_DOUBLE_EQ(snapshot.p99, 3.5);
}

TEST(HistogramTest, ValueAtPercentileEdgeCases) {
  Histogram empty;
  EXPECT_EQ(empty.ValueAtPercentile(0.0), 0.0);
  EXPECT_EQ(empty.ValueAtPercentile(50.0), 0.0);
  EXPECT_EQ(empty.ValueAtPercentile(100.0), 0.0);

  Histogram histogram;
  for (int i = 1; i <= 1000; ++i) histogram.Record(static_cast<double>(i));
  // p=0 and p=100 are exact (the recorded extremes), regardless of which
  // bucket the extremes fall in.
  EXPECT_DOUBLE_EQ(histogram.ValueAtPercentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(histogram.ValueAtPercentile(100.0), 1000.0);
  // Interior percentiles are bucket-accurate: at or above the true value
  // and within a factor of two, never beyond the max.
  for (const double p : {25.0, 50.0, 90.0, 95.0, 99.0}) {
    const double truth = p / 100.0 * 1000.0;
    const double reported = histogram.ValueAtPercentile(p);
    EXPECT_GE(reported, truth) << "p" << p;
    EXPECT_LE(reported, std::min(2.0 * truth, 1000.0)) << "p" << p;
  }
  // Monotone in p.
  double last = 0.0;
  for (const double p : {0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    const double value = histogram.ValueAtPercentile(p);
    EXPECT_GE(value, last);
    last = value;
  }
}

TEST(HistogramTest, MergeEqualsSerialRecording) {
  // The determinism contract: merging per-chunk shards in chunk order
  // must reproduce the serial histogram exactly (bit-equal sum).
  const std::vector<std::vector<double>> chunks = {
      {0.1, 0.2, 0.3}, {1e-7, 123.0}, {}, {5.5, 0.25, 1e6}};

  Histogram serial;
  for (const auto& chunk : chunks) {
    for (double value : chunk) serial.Record(value);
  }

  std::vector<Histogram> shards(chunks.size());
  for (size_t c = 0; c < chunks.size(); ++c) {
    for (double value : chunks[c]) shards[c].Record(value);
  }
  HistogramMetric merged;
  MergeShards(shards, &merged);

  const HistogramSnapshot a = serial.Snapshot();
  const HistogramSnapshot b = merged.Value().Snapshot();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);  // bit-equal, not just close
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p90, b.p90);
  EXPECT_EQ(a.p99, b.p99);
}

TEST(HistogramTest, NanRecordsAsZero) {
  Histogram histogram;
  histogram.Record(std::nan(""));
  EXPECT_EQ(histogram.Count(), 1u);
  EXPECT_EQ(histogram.Sum(), 0.0);
}

TEST(MetricRegistryTest, GetReturnsStablePointers) {
  MetricRegistry& registry = MetricRegistry::Global();
  Counter* counter = registry.GetCounter("test.registry.counter");
  EXPECT_EQ(counter, registry.GetCounter("test.registry.counter"));
  Gauge* gauge = registry.GetGauge("test.registry.gauge");
  EXPECT_EQ(gauge, registry.GetGauge("test.registry.gauge"));
  HistogramMetric* histogram = registry.GetHistogram("test.registry.histogram");
  EXPECT_EQ(histogram, registry.GetHistogram("test.registry.histogram"));

  counter->Add(5);
  registry.ResetForTest();
  EXPECT_EQ(counter->Value(), 0u);
  // Reset keeps the registration.
  EXPECT_EQ(counter, registry.GetCounter("test.registry.counter"));
}

TEST(MetricRegistryTest, SnapshotIsSortedByName) {
  MetricRegistry& registry = MetricRegistry::Global();
  registry.GetCounter("test.snapshot.zebra")->Add(1);
  registry.GetCounter("test.snapshot.apple")->Add(2);
  const MetricsSnapshot snapshot = registry.Snapshot();
  for (size_t i = 1; i < snapshot.counters.size(); ++i) {
    EXPECT_LT(snapshot.counters[i - 1].first, snapshot.counters[i].first);
  }
  for (size_t i = 1; i < snapshot.gauges.size(); ++i) {
    EXPECT_LT(snapshot.gauges[i - 1].first, snapshot.gauges[i].first);
  }
  for (size_t i = 1; i < snapshot.histograms.size(); ++i) {
    EXPECT_LT(snapshot.histograms[i - 1].first, snapshot.histograms[i].first);
  }
}

TEST(ScopedTimerTest, RecordsOneReading) {
  MetricRegistry& registry = MetricRegistry::Global();
  HistogramMetric* histogram = registry.GetHistogram("test.scoped.timer");
  const uint64_t before = histogram->Value().Count();
  { ScopedTimer timer("test.scoped.timer"); }
  const Histogram after = histogram->Value();
  EXPECT_EQ(after.Count(), before + 1);
  EXPECT_GE(after.Sum(), 0.0);
}

// DeltaSince recovers exactly the readings recorded between two captures
// of the same histogram — the core of the sliding window.
TEST(HistogramTest, DeltaSinceIsolatesWindowReadings) {
  Histogram histogram;
  histogram.Record(1.0);
  histogram.Record(100.0);
  const Histogram earlier = histogram;  // capture
  histogram.Record(4.0);
  histogram.Record(4.0);
  histogram.Record(8.0);

  const Histogram delta = histogram.DeltaSince(earlier);
  EXPECT_EQ(delta.Count(), 3u);
  EXPECT_DOUBLE_EQ(delta.Sum(), 16.0);
  // Window percentiles reflect only the window readings: the cumulative
  // p100 is 100, the window's is 8 (bucket-accurate, and 8 = 2^3 is an
  // exact bucket bound).
  EXPECT_EQ(delta.ValueAtPercentile(100.0), 8.0);
  EXPECT_LE(delta.ValueAtPercentile(50.0), 4.0);
}

TEST(HistogramTest, DeltaSinceOfIdenticalCapturesIsEmpty) {
  Histogram histogram;
  histogram.Record(3.0);
  const Histogram delta = histogram.DeltaSince(histogram);
  EXPECT_EQ(delta.Count(), 0u);
  EXPECT_DOUBLE_EQ(delta.Sum(), 0.0);
  EXPECT_EQ(delta.ValueAtPercentile(99.0), 0.0);
}

TEST(MetricsWindowTest, NeedsTwoEpochsForASnapshot) {
  MetricRegistry registry;
  MetricsWindow window(4, &registry);
  EXPECT_EQ(window.WindowSnapshot().epochs, 0u);
  window.Advance();
  EXPECT_EQ(window.WindowSnapshot().epochs, 0u);  // one boundary = no span
  window.Advance();
  EXPECT_EQ(window.WindowSnapshot().epochs, 1u);
}

TEST(MetricsWindowTest, CounterRatesAndWindowPercentiles) {
  MetricRegistry registry;
  Counter* counter = registry.GetCounter("w.counter");
  HistogramMetric* histogram = registry.GetHistogram("w.hist");
  histogram->Record(512.0);  // pre-window reading, must not leak in
  counter->Add(10);

  MetricsWindow window(4, &registry);
  window.Advance();
  counter->Add(30);
  histogram->Record(2.0);
  histogram->Record(4.0);
  window.Advance();

  const WindowedMetricsSnapshot snapshot = window.WindowSnapshot();
  ASSERT_EQ(snapshot.counter_rates.size(), 1u);
  EXPECT_EQ(snapshot.counter_rates[0].first, "w.counter");
  // 30 increments over the (tiny but positive) window; rate is
  // scheduling-dependent, the delta is not: rate * seconds == 30.
  EXPECT_GT(snapshot.counter_rates[0].second, 0.0);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  const HistogramSnapshot& hist = snapshot.histograms[0].second;
  EXPECT_EQ(hist.count, 2u);  // the 512 recorded pre-window is excluded
  EXPECT_DOUBLE_EQ(hist.sum, 6.0);
  EXPECT_LE(hist.p99, 4.0);
}

TEST(MetricsWindowTest, RingDropsOldestEpoch) {
  MetricRegistry registry;
  Counter* counter = registry.GetCounter("w.ring");
  MetricsWindow window(2, &registry);  // spans at most 2 epoch intervals
  window.Advance();          // capture A: 0
  counter->Add(1);
  window.Advance();          // capture B: 1
  counter->Add(2);
  window.Advance();          // capture C: 3
  counter->Add(4);
  window.Advance();          // capture D: 7 — A falls off the ring

  const WindowedMetricsSnapshot snapshot = window.WindowSnapshot();
  EXPECT_EQ(snapshot.epochs, 2u);
  ASSERT_EQ(snapshot.counter_rates.size(), 1u);
  // The window covers B..D: 7 - 1 = 6 increments.
  EXPECT_GT(snapshot.counter_rates[0].second, 0.0);
  EXPECT_NEAR(snapshot.counter_rates[0].second * snapshot.seconds, 6.0, 1e-9);
}

TEST(MetricsWindowTest, CountersBornMidWindowDiffAgainstZero) {
  MetricRegistry registry;
  MetricsWindow window(4, &registry);
  window.Advance();
  registry.GetCounter("w.born.late")->Add(5);
  registry.GetHistogram("w.hist.late")->Record(1.0);
  window.Advance();

  const WindowedMetricsSnapshot snapshot = window.WindowSnapshot();
  ASSERT_EQ(snapshot.counter_rates.size(), 1u);
  EXPECT_NEAR(snapshot.counter_rates[0].second * snapshot.seconds, 5.0, 1e-9);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].second.count, 1u);
}

}  // namespace
}  // namespace stindex
