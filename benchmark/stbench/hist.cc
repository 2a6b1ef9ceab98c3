// hist-hot and hist-cold: closed-loop historical queries against a packed
// PPR-tree served from an mmap snapshot through one shared buffer pool.
// The two workloads differ only in the pool size: hist-hot holds the
// whole tree, hist-cold holds 2.5% of it, so misses dominate.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "common.h"
#include "core/distribute.h"
#include "core/query_profile.h"
#include "core/split_pipeline.h"
#include "core/volume_curve.h"
#include "pprtree/ppr_tree.h"
#include "probes.h"
#include "storage/shared_buffer_pool.h"
#include "util/metrics.h"
#include "util/trace.h"
#include "workloads.h"

namespace stbench {
namespace {

using stindex::PprDataId;
using stindex::PprTree;
using stindex::SegmentRecord;
using stindex::SharedBufferPool;
using stindex::STQuery;

// The paper's largest random dataset, split with LAGreedy at 150% of the
// object count (about 200k records, 10.4k pages).
constexpr size_t kObjects = 80000;
constexpr int kSplitPercent = 150;
constexpr int kCurveSplits = 128;
constexpr size_t kHotPoolPages = 16384;  // more than the tree: no misses
constexpr size_t kColdPoolPages = 256;   // 2.5% of the tree
constexpr size_t kStreamLength = 20000;  // cycled by every client
constexpr size_t kOracleQueries = 500;
constexpr size_t kPaperBufferPages = 10;  // the paper's per-query LRU
constexpr int kSetupRepeats = 3;

struct HistIndex {
  std::vector<SegmentRecord> records;
  std::unique_ptr<PprTree> tree;
  std::unique_ptr<SharedBufferPool> pool;  // declared after the tree
};

struct SetupTimes {
  std::vector<double> curves, distribute, segments, build, pack, total;
};

// Everything before the timed window: split, build, pack, open the pool
// and warm it by pinning every page once (bottom-up, so a small pool ends
// holding the directory levels).
HistIndex BuildIndex(const std::vector<stindex::Trajectory>& objects,
                     const std::string& snapshot_path, size_t pool_pages,
                     SetupTimes* times) {
  HistIndex index;
  const Clock::time_point t0 = Clock::now();
  const std::vector<stindex::VolumeCurve> curves =
      stindex::ComputeVolumeCurves(objects, kCurveSplits,
                                   stindex::SplitMethod::kMerge,
                                   kWorkerThreads);
  const Clock::time_point t1 = Clock::now();
  const int64_t budget =
      static_cast<int64_t>(objects.size()) * kSplitPercent / 100;
  const stindex::Distribution dist =
      stindex::DistributeLAGreedy(curves, budget, kWorkerThreads);
  const Clock::time_point t2 = Clock::now();
  index.records = stindex::BuildSegments(objects, dist.splits,
                                         stindex::SplitMethod::kMerge,
                                         kWorkerThreads);
  const Clock::time_point t3 = Clock::now();
  index.tree = stindex::BuildPprTree(index.records);
  const Clock::time_point t4 = Clock::now();
  const stindex::Status packed = index.tree->PackSnapshot(snapshot_path);
  STINDEX_CHECK_MSG(packed.ok(), packed.ToString().c_str());
  const Clock::time_point t5 = Clock::now();
  index.pool = index.tree->NewSharedQueryPool(pool_pages);
  const size_t pages = index.tree->backend()->SlotCount();
  for (stindex::PageId id = 0; id < pages; ++id) {
    bool missed = false;
    const stindex::Result<const stindex::Page*> page =
        index.pool->Pin(id, &missed);
    STINDEX_CHECK_MSG(page.ok(), page.status().ToString().c_str());
    index.pool->Unpin(id);
  }
  const Clock::time_point t6 = Clock::now();
  times->curves.push_back(Seconds(t1 - t0));
  times->distribute.push_back(Seconds(t2 - t1));
  times->segments.push_back(Seconds(t3 - t2));
  times->build.push_back(Seconds(t4 - t3));
  times->pack.push_back(Seconds(t5 - t4));
  times->total.push_back(Seconds(t6 - t0));
  return index;
}

void RunQuery(const PprTree& tree, const STQuery& query,
              stindex::PageCache* cache, std::vector<PprDataId>* out,
              stindex::QueryProfile* profile) {
  if (query.IsSnapshot()) {
    tree.SnapshotQuery(query.area, query.range.start, cache, out, profile);
  } else {
    tree.IntervalQuery(query.area, query.range, cache, out, profile);
  }
}

// One client's share of a window; merged after the clients join.
struct ClientTally {
  uint64_t queries = 0;
  Samples latency;
  int64_t query_ns = 0;
  stindex::QueryProfile profile;
  uint64_t fetch_hits = 0, fetch_misses = 0;
  int64_t hit_ns = 0, miss_ns = 0;
};

struct Window {
  double seconds = 0.0;
  uint64_t pool_evictions = 0;
  uint64_t borrows = 0;  // pages the pool's misses borrowed from the mapping
  ClientTally total;
  double qps() const {
    return seconds > 0.0 ? static_cast<double>(total.queries) / seconds : 0.0;
  }
};

// Three closed-loop clients, each cycling the stream from its own
// offset, until `seconds` pass or `max_requests` queries have started.
// `probed` adds the fetch-timing decorator and a QueryProfile per query.
Window RunWindow(const HistIndex& index, const std::vector<STQuery>& stream,
                 double seconds, size_t max_requests, bool probed) {
  std::vector<ClientTally> tallies(kWorkerThreads);
  std::atomic<size_t> started{0};
  const stindex::Counter* borrows =
      stindex::MetricRegistry::Global().GetCounter("backend.mmap.borrows");
  const uint64_t borrows_before = borrows->Value();
  const uint64_t evictions_before = index.pool->Evictions();
  const Clock::time_point begin = Clock::now();
  const Clock::time_point deadline =
      begin + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (int c = 0; c < kWorkerThreads; ++c) {
    clients.emplace_back([&, c] {
      ClientTally& tally = tallies[static_cast<size_t>(c)];
      SharedBufferPool::Session session(index.pool.get());
      TimedPageCache timed(&session);
      stindex::PageCache* cache =
          probed ? static_cast<stindex::PageCache*>(&timed) : &session;
      stindex::QueryProfile* profile = probed ? &tally.profile : nullptr;
      std::vector<PprDataId> results;
      size_t next = stream.size() * static_cast<size_t>(c) / kWorkerThreads;
      while (started.fetch_add(1, std::memory_order_relaxed) < max_requests) {
        const Clock::time_point start = Clock::now();
        if (start >= deadline) break;
        {
          stindex::TraceSpan span("bench", "query");
          RunQuery(*index.tree, stream[next], cache, &results, profile);
          span.Arg("results", static_cast<int64_t>(results.size()));
        }
        const int64_t ns = Nanos(Clock::now() - start);
        tally.latency.Add(ns);
        tally.query_ns += ns;
        ++tally.queries;
        next = next + 1 == stream.size() ? 0 : next + 1;
      }
      tally.fetch_hits = timed.hits;
      tally.fetch_misses = timed.misses;
      tally.hit_ns = timed.hit_ns;
      tally.miss_ns = timed.miss_ns;
    });
  }
  for (std::thread& client : clients) client.join();
  Window window;
  window.seconds = Seconds(Clock::now() - begin);
  window.pool_evictions = index.pool->Evictions() - evictions_before;
  window.borrows = borrows->Value() - borrows_before;
  for (const ClientTally& tally : tallies) {
    window.total.queries += tally.queries;
    window.total.latency.Append(tally.latency);
    window.total.query_ns += tally.query_ns;
    window.total.profile.Merge(tally.profile);
    window.total.fetch_hits += tally.fetch_hits;
    window.total.fetch_misses += tally.fetch_misses;
    window.total.hit_ns += tally.hit_ns;
    window.total.miss_ns += tally.miss_ns;
  }
  window.total.latency.Sort();
  return window;
}

// Oracle: the tree's answers on the sample equal a brute-force scan of
// the segment records.
void CheckAnswers(const HistIndex& index, const std::vector<STQuery>& sample,
                  Report* report) {
  SharedBufferPool::Session session(index.pool.get());
  std::vector<PprDataId> got;
  std::vector<PprDataId> want;
  for (size_t q = 0; q < sample.size(); ++q) {
    const STQuery& query = sample[q];
    RunQuery(*index.tree, query, &session, &got, nullptr);
    std::sort(got.begin(), got.end());
    want.clear();
    for (size_t i = 0; i < index.records.size(); ++i) {
      const stindex::STBox& box = index.records[i].box;
      if (box.rect.Intersects(query.area) &&
          box.interval.Intersects(query.range)) {
        want.push_back(i);
      }
    }
    ++report->attempted;
    if (got != want) {
      report->Mismatch("hist query " + std::to_string(q) + ": tree gave " +
                       std::to_string(got.size()) + " records, scan gave " +
                       std::to_string(want.size()));
    }
  }
}

// The paper's measurement protocol: a private 10-page LRU reset before
// every query, simulated by protocol-mode Sessions over the shared pool.
// Total misses over the sample, with the sample split across `threads`.
uint64_t PaperMisses(const HistIndex& index, const std::vector<STQuery>& sample,
                     int threads) {
  std::vector<uint64_t> misses(static_cast<size_t>(threads), 0);
  std::vector<std::thread> workers;
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      SharedBufferPool::Session session(index.pool.get(), kPaperBufferPages);
      std::vector<PprDataId> results;
      const size_t begin = sample.size() * static_cast<size_t>(w) /
                           static_cast<size_t>(threads);
      const size_t end = sample.size() * static_cast<size_t>(w + 1) /
                         static_cast<size_t>(threads);
      for (size_t q = begin; q < end; ++q) {
        session.ResetCache();
        session.ResetStats();
        RunQuery(*index.tree, sample[q], &session, &results, nullptr);
        misses[static_cast<size_t>(w)] += session.stats().misses;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  uint64_t total = 0;
  for (uint64_t m : misses) total += m;
  return total;
}

double PerQuery(double total, uint64_t queries) {
  return queries == 0 ? 0.0 : total / static_cast<double>(queries);
}

// What a client of the tree sees in an untraced window.
void AddHistService(const Window& window, Report* report) {
  const Samples& latency = window.total.latency;
  report->Add("qps", window.qps(), "1/s");
  report->Add("query_p50_us", latency.Percentile(50) / 1e3, "us");
  report->AddSupport("query_p50_us", latency);
  report->Add("query_p99_us", latency.Percentile(99) / 1e3, "us");
  report->AddSupport("query_p99_us", latency);
}

}  // namespace

void RunHist(const Options& options, bool cold, Report* report) {
  const std::vector<stindex::Trajectory> objects =
      RandomObjects(kObjects, options.seed);
  const std::vector<STQuery> stream =
      QueryStream(kStreamLength, options.seed, 1000);
  const std::vector<STQuery> sample(stream.begin(),
                                    stream.begin() + kOracleQueries);
  const std::string snapshot_path = options.dir + "/hist.stsnap";
  const size_t pool_pages = cold ? kColdPoolPages : kHotPoolPages;

  SetupTimes times;
  HistIndex index;
  for (int r = 0; r < kSetupRepeats; ++r) {
    // Release the previous build (pool before tree) before the next.
    index.pool.reset();
    index.tree.reset();
    index.records.clear();
    std::remove(snapshot_path.c_str());
    index = BuildIndex(objects, snapshot_path, pool_pages, &times);
  }
  const double snapshot_mb = FileMb(snapshot_path);

  if (!options.traced) {
    const Window window = RunWindow(index, stream, options.seconds,
                                    SIZE_MAX, /*probed=*/false);
    report->attempted += window.total.queries;
    AddHistService(window, report);
    report->Add("setup_s", Median(times.total), "s");
  } else {
    // Untraced reference half, then the Chrome-trace capture of the first
    // requests, then the probed half the per-layer numbers come from.
    const double half = options.seconds / 2.0;
    const Window reference =
        RunWindow(index, stream, half, SIZE_MAX, /*probed=*/false);
    StartTraceCapture();
    RunWindow(index, stream, options.seconds, kTraceRequests,
              /*probed=*/true);
    stindex::TraceSession::Stop();
    const stindex::Status written =
        stindex::TraceSession::WriteChromeTrace(options.trace_path);
    if (!written.ok()) report->Fail(written.ToString());
    const Window traced =
        RunWindow(index, stream, half, SIZE_MAX, /*probed=*/true);
    const ClientTally& t = traced.total;
    const uint64_t fetches = t.fetch_hits + t.fetch_misses;
    const double fetch_ns = static_cast<double>(t.hit_ns + t.miss_ns);
    report->attempted += reference.total.queries + traced.total.queries;

    AddHistService(reference, report);
    report->Add("core.curves_s", Median(times.curves), "s");
    report->Add("core.distribute_s", Median(times.distribute), "s");
    report->Add("core.segments_s", Median(times.segments), "s");
    report->Add("pprtree.build_s", Median(times.build), "s");
    report->Add("storage.pack_s", Median(times.pack), "s");
    report->Add("storage.snapshot_mb", snapshot_mb, "MB");
    report->Add("pprtree.query_self_us",
                PerQuery((static_cast<double>(t.query_ns) - fetch_ns) / 1e3,
                         t.queries),
                "us");
    report->Add("pprtree.nodes_per_query",
                PerQuery(static_cast<double>(t.profile.nodes_visited),
                         t.queries),
                "count");
    report->Add("pprtree.leaf_entries_per_query",
                PerQuery(static_cast<double>(t.profile.leaf_entries_scanned),
                         t.queries),
                "count");
    report->Add("pprtree.candidates_per_query",
                PerQuery(static_cast<double>(t.profile.candidates), t.queries),
                "count");
    report->Add("storage.fetches_per_query",
                PerQuery(static_cast<double>(fetches), t.queries), "count");
    report->Add("storage.fetch_hit_ns",
                PerQuery(static_cast<double>(t.hit_ns), t.fetch_hits), "ns");
    report->Add("storage.fetch_miss_us",
                PerQuery(static_cast<double>(t.miss_ns) / 1e3, t.fetch_misses),
                "us");
    report->Add("storage.hit_rate",
                PerQuery(static_cast<double>(t.fetch_hits), fetches), "frac");
    report->Add("storage.evictions_per_query",
                PerQuery(static_cast<double>(traced.pool_evictions), t.queries),
                "count");
    report->Add("storage.borrows_per_query",
                PerQuery(static_cast<double>(traced.borrows), t.queries),
                "count");
    report->Add("storage.fetch_share",
                t.query_ns == 0 ? 0.0
                                : fetch_ns / static_cast<double>(t.query_ns),
                "frac");
    report->Add("trace_overhead_frac",
                reference.qps() > 0.0 ? 1.0 - traced.qps() / reference.qps()
                                      : 0.0,
                "frac");

    // The paper's empty-space effect over the fixed sample: candidates the
    // exact trajectory geometry rejects.
    const stindex::FalseHitRefiner refiner(objects, index.records);
    SharedBufferPool::Session session(index.pool.get());
    std::vector<PprDataId> results;
    uint64_t candidates = 0;
    uint64_t false_hits = 0;
    int64_t refine_ns = 0;
    for (const STQuery& query : sample) {
      RunQuery(*index.tree, query, &session, &results, nullptr);
      const Clock::time_point start = Clock::now();
      false_hits += refiner.CountFalseHits(results, query, nullptr);
      refine_ns += Nanos(Clock::now() - start);
      candidates += results.size();
    }
    report->Add("pprtree.false_hit_frac",
                PerQuery(static_cast<double>(false_hits), candidates), "frac");
    report->Add("pprtree.refine_us",
                PerQuery(static_cast<double>(refine_ns) / 1e3, sample.size()),
                "us");
  }

  CheckAnswers(index, sample, report);
  const uint64_t serial = PaperMisses(index, sample, 1);
  const uint64_t parallel = PaperMisses(index, sample, kWorkerThreads);
  report->attempted += 2;
  if (serial != parallel) {
    report->Mismatch("paper-protocol misses differ: " +
                     std::to_string(serial) + " at 1 thread, " +
                     std::to_string(parallel) + " at 3");
  }
  if (options.traced) {
    report->Add("pprtree.paper_io_per_query",
                PerQuery(static_cast<double>(serial), sample.size()), "count");
  }
  report->Add("disk_mb", snapshot_mb, "MB");
}

}  // namespace stbench
