// live-mixed and ingest: the crash-safe live tier (WAL on a page file,
// LiveIndex sealing, migration into the PPR-tree, checkpoints) driven by
// a tick-ordered movement feed.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "live/live_tier.h"
#include "probes.h"
#include "storage/file_backend.h"
#include "util/trace.h"
#include "workloads.h"

namespace stbench {
namespace {

using stindex::LiveObservation;
using stindex::LiveTier;
using stindex::ObjectId;
using stindex::STQuery;
using stindex::Time;

constexpr size_t kObjects = 10000;  // about 515k updates over 1000 ticks
constexpr size_t kCommitEvery = 32;
constexpr size_t kCheckpointPages = 1024;
constexpr size_t kSealCapacity = 32;     // seal eagerly: migration keeps up
constexpr size_t kQueryPoolPages = 1024;  // holds the packed layer
constexpr size_t kOracleQueries = 500;
constexpr size_t kQueryListLength = 4000;
constexpr int kSetupRepeats = 3;
constexpr size_t kPreloadCommitEvery = 1024;  // set-up's bulk load

// live-mixed: a historical prefix packed to a snapshot, then an open loop
// of one feed and two query threads.
constexpr Time kPreloadTicks = 200;
constexpr double kFeedRate = 5000.0;   // updates/s offered
constexpr double kQueryRate = 1000.0;  // queries/s offered per query thread
constexpr int kQueryThreads = 2;
constexpr Time kFreshTicks = 5;  // fresh queries start this close to the head

// ingest: rounds over the first kIngestTicks ticks of the stream. Set-up
// preloads the ticks before kIngestPreloadTicks like live-mixed does; the
// timed part ingests the rest (about 110k updates). The round count is
// fixed by --seconds, one round per kIngestRoundSeconds, so every run of
// the workload does the same work.
constexpr Time kIngestPreloadTicks = 100;
constexpr Time kIngestTicks = 300;
constexpr double kIngestRoundSeconds = 3.0;

// Returns at `due`: sleeps until shortly before it, then spins, so the
// generator's own wake-up latency stays out of the due-time measurements.
void WaitUntil(Clock::time_point due) {
  constexpr std::chrono::microseconds kSpin(500);
  if (Clock::now() < due - kSpin) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) {
  }
}

stindex::LiveTierOptions TierOptions() {
  stindex::LiveTierOptions options;
  options.index.capacity = kSealCapacity;
  options.query_pool_pages = kQueryPoolPages;
  options.checkpoint_every_pages = kCheckpointPages;
  return options;
}

struct Tier {
  std::unique_ptr<LiveTier> tier;
  TimedBackend* probe = nullptr;  // owned by the tier; traced runs only
};

// Opens a tier over a fresh (create) or existing WAL page file; `probed`
// puts the write/sync timer between the tier and the file.
Tier OpenTier(const std::string& wal_path, bool create, bool probed) {
  stindex::Result<std::unique_ptr<stindex::FilePageBackend>> file =
      create ? stindex::FilePageBackend::Create(wal_path)
             : stindex::FilePageBackend::Open(wal_path);
  STINDEX_CHECK_MSG(file.ok(), file.status().ToString().c_str());
  std::unique_ptr<stindex::PageBackend> backend = std::move(file).value();
  Tier out;
  if (probed) {
    auto timed = std::make_unique<TimedBackend>(std::move(backend));
    out.probe = timed.get();
    backend = std::move(timed);
  }
  stindex::Result<std::unique_ptr<LiveTier>> opened =
      LiveTier::Open(TierOptions(), std::move(backend));
  STINDEX_CHECK_MSG(opened.ok(), opened.status().ToString().c_str());
  out.tier = std::move(opened).value();
  return out;
}

// Position of the feed in the update stream, shared with query threads:
// every update before `applied` has been applied, and `head` is the time
// of the newest one.
struct Cursor {
  size_t next = 0;  // feed thread only
  std::atomic<size_t> applied{0};
  std::atomic<Time> head{0};
};

struct FeedStats {
  uint64_t updates = 0;
  uint64_t checkpoints = 0;  // commits that advanced checkpoint_seq
  Samples apply;
  Samples commit;
  Samples ack;  // due time to the end of the covering Commit
  // Due time of the update that closes a batch to the end of its Commit:
  // the part of the ack the tier controls, without the batch filling up.
  Samples batch_ack;
  Samples checkpoint_commit;
  int64_t late_max_ns = 0;
  std::vector<std::string> failures;
};

// Applies stream[cursor->next, end) in order, committing every
// `commit_every` updates and once at the end, until `deadline`, or until
// `*budget` runs out (a shared count of requests left to start). With
// rate > 0 update i is due at begin + i / rate (open loop, timed from its
// due time); with rate == 0 each update is due when it starts.
void Feed(LiveTier* tier, const std::vector<LiveObservation>& stream,
          size_t end, size_t commit_every, double rate,
          Clock::time_point begin, Clock::time_point deadline,
          std::atomic<int64_t>* budget, Cursor* cursor, FeedStats* stats) {
  std::vector<Clock::time_point> pending;  // due times awaiting Commit
  auto commit = [&] {
    const uint64_t seq = tier->checkpoint_seq();
    const Clock::time_point start = Clock::now();
    const stindex::Status status = tier->Commit();
    const Clock::time_point done = Clock::now();
    if (!status.ok()) {
      stats->failures.push_back("commit: " + status.ToString());
      return false;
    }
    stats->commit.Add(Nanos(done - start));
    if (tier->checkpoint_seq() != seq) {
      ++stats->checkpoints;
      stats->checkpoint_commit.Add(Nanos(done - start));
    }
    for (const Clock::time_point due : pending) stats->ack.Add(Nanos(done - due));
    if (!pending.empty()) stats->batch_ack.Add(Nanos(done - pending.back()));
    pending.clear();
    return true;
  };
  for (uint64_t i = 0; cursor->next < end; ++i) {
    Clock::time_point due = Clock::now();
    if (rate > 0.0) {
      due = begin + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(i) / rate));
      WaitUntil(due);
    }
    const Clock::time_point start = Clock::now();
    if (start >= deadline || budget->fetch_sub(1) <= 0) break;
    stats->late_max_ns = std::max(stats->late_max_ns, Nanos(start - due));
    const LiveObservation& update = stream[cursor->next];
    stindex::Status status;
    {
      stindex::TraceSpan span("bench", "update");
      status = tier->Apply(update);
    }
    stats->apply.Add(Nanos(Clock::now() - start));
    if (!status.ok()) {
      stats->failures.push_back("apply: " + status.ToString());
      break;
    }
    ++stats->updates;
    ++cursor->next;
    cursor->head.store(update.time, std::memory_order_relaxed);
    cursor->applied.store(cursor->next, std::memory_order_release);
    pending.push_back(due);
    if (pending.size() == commit_every && !commit()) return;
  }
  if (!pending.empty()) commit();
}

// Opens a tier on a new WAL file and applies stream[0, preload_end) with a
// Commit every kPreloadCommitEvery updates: the set-up both live
// workloads share.
Tier OpenPreloaded(const std::string& wal_path,
                   const std::vector<LiveObservation>& stream,
                   size_t preload_end, bool probed, Cursor* cursor,
                   Report* report) {
  Tier tier = OpenTier(wal_path, /*create=*/true, probed);
  FeedStats preload;
  std::atomic<int64_t> unlimited{INT64_MAX};
  Feed(tier.tier.get(), stream, preload_end, kPreloadCommitEvery, 0.0,
       Clock::now(), Clock::time_point::max(), &unlimited, cursor, &preload);
  report->attempted += preload.updates;
  for (const std::string& failure : preload.failures) report->Fail(failure);
  return tier;
}

// A query answered during the window, kept for the oracle: every update
// before `prefix` was applied when it started.
struct SampledAnswer {
  STQuery query;
  size_t prefix = 0;
  std::vector<ObjectId> answer;
};

void RunTierQuery(const LiveTier& tier, const STQuery& query,
                  std::vector<ObjectId>* out) {
  stindex::TraceSpan span("bench", "query");
  if (query.IsSnapshot()) {
    tier.SnapshotQuery(query.area, query.range.start, out);
  } else {
    tier.IntervalQuery(query.area, query.range, out);
  }
}

// Objects the applied prefix stream[0, prefix) places in the query's
// area during its range: the exact answer the index approximates.
std::vector<ObjectId> GroundTruth(const std::vector<LiveObservation>& stream,
                                  size_t prefix, const STQuery& query) {
  auto by_time = [](const LiveObservation& u, Time t) { return u.time < t; };
  const auto first = std::lower_bound(stream.begin(), stream.begin() + prefix,
                                      query.range.start, by_time);
  const auto last = std::lower_bound(first, stream.begin() + prefix,
                                     query.range.end, by_time);
  std::vector<ObjectId> truth;
  for (auto it = first; it != last; ++it) {
    if (!it->is_end && it->rect.Intersects(query.area)) {
      truth.push_back(it->object);
    }
  }
  std::sort(truth.begin(), truth.end());
  truth.erase(std::unique(truth.begin(), truth.end()), truth.end());
  return truth;
}

// Oracle: the tier answers with candidate boxes, so each answer must
// contain every object the applied prefix really places in the window.
void CheckContainsTruth(const std::vector<LiveObservation>& stream,
                        const std::vector<SampledAnswer>& sampled,
                        const char* what, Report* report) {
  for (size_t i = 0; i < sampled.size(); ++i) {
    const SampledAnswer& s = sampled[i];
    const std::vector<ObjectId> truth = GroundTruth(stream, s.prefix, s.query);
    ++report->attempted;
    if (!std::includes(s.answer.begin(), s.answer.end(), truth.begin(),
                       truth.end())) {
      report->Mismatch(std::string(what) + " query " + std::to_string(i) +
                       " misses objects of the applied prefix");
    }
  }
}

std::vector<LiveObservation> Prefix(const std::vector<LiveObservation>& stream,
                                    Time ticks) {
  std::vector<LiveObservation> out;
  for (const LiveObservation& u : stream) {
    if (u.time >= ticks) break;
    out.push_back(u);
  }
  return out;
}

double PerUnit(double total, uint64_t units) {
  return units == 0 ? 0.0 : total / static_cast<double>(units);
}

// Write and sync timings of the WAL file, kept past the tier's lifetime.
struct WalTimes {
  Samples writes;
  Samples syncs;

  void Take(TimedBackend* probe) {
    writes.Append(probe->writes);
    syncs.Append(probe->syncs);
    probe->Clear();
  }
  void Sort() {
    writes.Sort();
    syncs.Sort();
  }
};

// `runs` is how many times the measured stretch ran (ingest rounds), so
// checkpoint counts read per run.
void AddFeedLayers(const FeedStats& feed, const WalTimes& wal, size_t runs,
                   Report* report) {
  report->Add("live.apply_us_p50", feed.apply.Percentile(50) / 1e3, "us");
  report->Add("live.apply_us_p99", feed.apply.Percentile(99) / 1e3, "us");
  report->AddSupport("live.apply_us_p99", feed.apply);
  report->Add("live.commit_us_p50", feed.commit.Percentile(50) / 1e3, "us");
  report->Add("live.commit_us_p99", feed.commit.Percentile(99) / 1e3, "us");
  report->AddSupport("live.commit_us_p99", feed.commit);
  report->Add("live.wal_write_us", wal.writes.Mean() / 1e3, "us");
  report->Add("live.wal_writes_per_update",
              PerUnit(static_cast<double>(wal.writes.count()), feed.updates),
              "count");
  report->Add("live.wal_sync_us_p50", wal.syncs.Percentile(50) / 1e3, "us");
  report->Add("live.syncs_per_update",
              PerUnit(static_cast<double>(wal.syncs.count()), feed.updates),
              "count");
  report->Add("live.checkpoints",
              PerUnit(static_cast<double>(feed.checkpoints), runs), "count");
  report->Add("live.checkpoint_ms_p50",
              feed.checkpoint_commit.Percentile(50) / 1e6, "ms");
  report->Add("live.checkpoint_ms_max", feed.checkpoint_commit.Max() / 1e6,
              "ms");
}

void SortFeed(FeedStats* feed) {
  feed->apply.Sort();
  feed->commit.Sort();
  feed->ack.Sort();
  feed->batch_ack.Sort();
  feed->checkpoint_commit.Sort();
}

// --- live-mixed ---------------------------------------------------------

struct MixedWindow {
  double seconds = 0.0;
  FeedStats feed;
  uint64_t queries = 0;
  Samples query_latency;  // due time to completion
  Samples query_call;     // the call alone
  int64_t query_late_max_ns = 0;
  std::vector<SampledAnswer> sampled;
};

// One open-loop window: the feed offers kFeedRate updates/s, each query
// thread kQueryRate queries/s alternating historical times (before the
// preload horizon) and fresh times (within kFreshTicks of the feed head).
// Stops after `seconds` or once `max_requests` requests have started.
MixedWindow RunMixedWindow(LiveTier* tier,
                           const std::vector<LiveObservation>& stream,
                           const std::vector<STQuery>& queries,
                           Cursor* cursor, double seconds,
                           int64_t max_requests) {
  MixedWindow window;
  std::atomic<int64_t> budget{max_requests};
  const Clock::time_point begin = Clock::now();
  const Clock::time_point deadline =
      begin + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const size_t expected = static_cast<size_t>(kQueryRate * kQueryThreads *
                                              std::min(seconds, 1e6));
  // Odd, so the sample takes every n % 4: both kinds, historical and fresh.
  const size_t stride = std::max<size_t>(1, expected / kOracleQueries) | 1;

  struct QueryTally {
    uint64_t queries = 0;
    Samples latency, call;
    int64_t late_max_ns = 0;
    std::vector<SampledAnswer> sampled;
  };
  std::vector<QueryTally> tallies(kQueryThreads);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    Feed(tier, stream, stream.size(), kCommitEvery, kFeedRate, begin,
         deadline, &budget, cursor, &window.feed);
  });
  for (int q = 0; q < kQueryThreads; ++q) {
    threads.emplace_back([&, q] {
      QueryTally& tally = tallies[static_cast<size_t>(q)];
      std::vector<ObjectId> answer;
      for (uint64_t j = 0;; ++j) {
        const uint64_t n = j * kQueryThreads + static_cast<uint64_t>(q);
        const Clock::time_point due =
            begin + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(n) /
                            (kQueryRate * kQueryThreads)));
        WaitUntil(due);
        const Clock::time_point start = Clock::now();
        if (start >= deadline || budget.fetch_sub(1) <= 0) break;
        tally.late_max_ns = std::max(tally.late_max_ns, Nanos(start - due));
        // The list alternates snapshot and range queries, so n % 2 picks
        // the kind and (n / 2) % 2 picks historical or fresh: every four
        // requests cover all four pairings.
        STQuery query = queries[n % queries.size()];
        if ((n / 2) % 2 == 1) {
          const Time head = cursor->head.load(std::memory_order_relaxed);
          const Time duration = query.range.Duration();
          query.range.start =
              std::max<Time>(0, head - static_cast<Time>(n / 4) % kFreshTicks);
          query.range.end = query.range.start + duration;
        }
        const size_t prefix = cursor->applied.load(std::memory_order_acquire);
        RunTierQuery(*tier, query, &answer);
        const Clock::time_point done = Clock::now();
        tally.latency.Add(Nanos(done - due));
        tally.call.Add(Nanos(done - start));
        ++tally.queries;
        if (n % stride == 0) tally.sampled.push_back({query, prefix, answer});
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  window.seconds = Seconds(Clock::now() - begin);
  for (QueryTally& tally : tallies) {
    window.queries += tally.queries;
    window.query_latency.Append(tally.latency);
    window.query_call.Append(tally.call);
    window.query_late_max_ns =
        std::max(window.query_late_max_ns, tally.late_max_ns);
    for (SampledAnswer& s : tally.sampled) window.sampled.push_back(s);
  }
  window.query_latency.Sort();
  window.query_call.Sort();
  SortFeed(&window.feed);
  return window;
}

void Collect(const MixedWindow& window,
             const std::vector<LiveObservation>& stream, Report* report) {
  report->attempted += window.feed.updates + window.queries;
  for (const std::string& failure : window.feed.failures) report->Fail(failure);
  CheckContainsTruth(stream, window.sampled, "live-mixed", report);
}

// What a client of the tier sees in an untraced window.
void AddMixedService(const MixedWindow& w, Report* report) {
  report->Add("qps", static_cast<double>(w.queries) / w.seconds, "1/s");
  report->Add("updates_per_s", static_cast<double>(w.feed.updates) / w.seconds,
              "1/s");
  report->Add("query_p50_us", w.query_latency.Percentile(50) / 1e3, "us");
  report->AddSupport("query_p50_us", w.query_latency);
  report->Add("ack_p50_ms", w.feed.ack.Percentile(50) / 1e6, "ms");
  report->AddSupport("ack_p50_ms", w.feed.ack);
  report->Add("live.batch_ack_us_p50", w.feed.batch_ack.Percentile(50) / 1e3,
              "us");
  report->AddSupport("live.batch_ack_us_p50", w.feed.batch_ack);
  report->Add("live.feed_late_ms_max", w.feed.late_max_ns / 1e6, "ms");
  report->Add("live.query_late_ms_max", w.query_late_max_ns / 1e6, "ms");
}

}  // namespace

void RunLiveMixed(const Options& options, Report* report) {
  const std::vector<stindex::Trajectory> objects =
      RandomObjects(kObjects, options.seed);
  const std::vector<LiveObservation> stream =
      stindex::MakeObservationStream(objects);
  const std::vector<STQuery> queries =
      QueryStream(kQueryListLength, options.seed, kPreloadTicks);
  const std::string wal_path = options.dir + "/live.stpages";
  const std::string snapshot_path = options.dir + "/live.stsnap";
  const size_t preload_end = Prefix(stream, kPreloadTicks).size();

  // Set-up: open the tier, preload the historical prefix, pack it.
  std::vector<double> setup_s;
  std::vector<double> preload_s;
  Tier tier;
  Cursor cursor;
  for (int r = 0; r < kSetupRepeats; ++r) {
    tier = Tier();  // closes the previous repeat's files
    std::remove(wal_path.c_str());
    std::remove(snapshot_path.c_str());
    cursor.next = 0;
    const Clock::time_point t0 = Clock::now();
    tier = OpenPreloaded(wal_path, stream, preload_end, options.traced,
                         &cursor, report);
    const Clock::time_point t1 = Clock::now();
    const stindex::Status packed = tier.tier->PackHistorical(snapshot_path);
    if (!packed.ok()) report->Fail("pack: " + packed.ToString());
    setup_s.push_back(Seconds(Clock::now() - t0));
    preload_s.push_back(Seconds(t1 - t0));
  }
  LiveTier* live = tier.tier.get();

  if (!options.traced) {
    const MixedWindow w =
        RunMixedWindow(live, stream, queries, &cursor, options.seconds,
                       INT64_MAX);
    Collect(w, stream, report);
    AddMixedService(w, report);
    report->Add("setup_s", Median(setup_s), "s");
  } else {
    const double half = options.seconds / 2.0;
    const MixedWindow reference =
        RunMixedWindow(live, stream, queries, &cursor, half, INT64_MAX);
    Collect(reference, stream, report);
    StartTraceCapture();
    const MixedWindow capture =
        RunMixedWindow(live, stream, queries, &cursor, options.seconds,
                       static_cast<int64_t>(kTraceRequests));
    stindex::TraceSession::Stop();
    Collect(capture, stream, report);
    const stindex::Status written =
        stindex::TraceSession::WriteChromeTrace(options.trace_path);
    if (!written.ok()) report->Fail(written.ToString());
    tier.probe->Clear();  // drop set-up and earlier windows
    WalTimes wal;
    const MixedWindow traced =
        RunMixedWindow(live, stream, queries, &cursor, half, INT64_MAX);
    Collect(traced, stream, report);
    wal.Take(tier.probe);
    wal.Sort();

    AddMixedService(reference, report);
    report->Add("live.preload_s", Median(preload_s), "s");
    AddFeedLayers(traced.feed, wal, 1, report);
    report->Add("live.query_call_us_p50",
                traced.query_call.Percentile(50) / 1e3, "us");
    report->Add("live.query_p99_us", traced.query_latency.Percentile(99) / 1e3,
                "us");
    report->AddSupport("live.query_p99_us", traced.query_latency);
    report->Add("live.ack_p99_ms", traced.feed.ack.Percentile(99) / 1e6, "ms");
    report->AddSupport("live.ack_p99_ms", traced.feed.ack);
    const LiveTier::Telemetry telemetry = live->GetTelemetry();
    report->Add("live.watermark_lag_ticks",
                static_cast<double>(telemetry.last_time - telemetry.watermark),
                "ticks");
    report->Add("live.migrated_segments",
                static_cast<double>(live->migrated_segments().size()), "count");
    report->Add("storage.snapshot_mb", FileMb(snapshot_path), "MB");
    // The open loop holds throughput at the offered rate, so tracing
    // shows up as slower queries instead: the relative growth of the
    // median query call.
    const double reference_call = reference.query_call.Percentile(50);
    report->Add("trace_overhead_frac",
                reference_call > 0.0
                    ? traced.query_call.Percentile(50) / reference_call - 1.0
                    : 0.0,
                "frac");
  }
  report->Add("disk_mb", FileMb(snapshot_path) + FileMb(wal_path), "MB");
}

// --- ingest ---------------------------------------------------------------

namespace {

// The rounds of one ingest window; counts and samples accumulate.
struct IngestRounds {
  FeedStats feed;
  WalTimes wal;
  double ingest_s = 0.0;  // apply + commit + Finish, summed over rounds
  std::vector<double> setup_s, finish_s, recovery_s;
  uint64_t replayed_pages = 0;
  uint64_t migrated_segments = 0;
  double wal_mb = 0.0;

  double updates_per_s() const {
    return ingest_s > 0.0 ? static_cast<double>(feed.updates) / ingest_s : 0.0;
  }
};

// One round: a fresh tier ingests `stream` closed loop and finishes; the
// WAL file is closed, reopened and recovered, and the recovered tier must
// answer the sample exactly as the tier did before the close.
void RunIngestRound(const std::vector<LiveObservation>& stream,
                    size_t preload_end, const std::vector<STQuery>& sample,
                    const std::string& wal_path, bool probed,
                    IngestRounds* rounds, Report* report) {
  const uint64_t updates_before = rounds->feed.updates;
  std::remove(wal_path.c_str());  // the previous round's file, untimed
  const Clock::time_point t0 = Clock::now();
  Cursor cursor;
  Tier tier =
      OpenPreloaded(wal_path, stream, preload_end, probed, &cursor, report);
  const Clock::time_point t1 = Clock::now();
  if (probed) tier.probe->Clear();  // keep the timed part's writes only
  std::atomic<int64_t> unlimited{INT64_MAX};
  Feed(tier.tier.get(), stream, stream.size(), kCommitEvery, 0.0, t1,
       Clock::time_point::max(), &unlimited, &cursor, &rounds->feed);
  const Clock::time_point t2 = Clock::now();
  const stindex::Status finished = tier.tier->Finish();
  const Clock::time_point t3 = Clock::now();
  report->attempted += rounds->feed.updates - updates_before + 1;
  for (const std::string& failure : rounds->feed.failures) report->Fail(failure);
  rounds->feed.failures.clear();
  if (!finished.ok()) report->Fail("finish: " + finished.ToString());
  rounds->setup_s.push_back(Seconds(t1 - t0));
  rounds->ingest_s += Seconds(t3 - t1);
  rounds->finish_s.push_back(Seconds(t3 - t2));
  rounds->migrated_segments = tier.tier->migrated_segments().size();
  if (probed) rounds->wal.Take(tier.probe);

  std::vector<SampledAnswer> before;
  for (const STQuery& query : sample) {
    SampledAnswer s{query, stream.size(), {}};
    RunTierQuery(*tier.tier, query, &s.answer);
    before.push_back(std::move(s));
  }
  CheckContainsTruth(stream, before, "ingest", report);
  tier = Tier();  // closes the WAL file
  rounds->wal_mb = std::max(rounds->wal_mb, FileMb(wal_path));

  const Clock::time_point t4 = Clock::now();
  Tier reopened = OpenTier(wal_path, /*create=*/false, /*probed=*/false);
  rounds->recovery_s.push_back(Seconds(Clock::now() - t4));
  rounds->replayed_pages = reopened.tier->recovered().pages;
  std::vector<ObjectId> after;
  for (size_t i = 0; i < sample.size(); ++i) {
    RunTierQuery(*reopened.tier, sample[i], &after);
    ++report->attempted;
    if (after != before[i].answer) {
      report->Mismatch("ingest query " + std::to_string(i) +
                       " answers differently after recovery");
    }
  }
}

// Rounds back to back, one per kIngestRoundSeconds of `seconds` (at
// least one).
IngestRounds RunIngestWindow(const std::vector<LiveObservation>& stream,
                             size_t preload_end,
                             const std::vector<STQuery>& sample,
                             const std::string& wal_path, double seconds,
                             bool probed, Report* report) {
  IngestRounds rounds;
  const size_t count = static_cast<size_t>(
      std::max(1L, std::lround(seconds / kIngestRoundSeconds)));
  // Sized up front: the samples' own growth would otherwise show in
  // peak_rss_mb as steps that depend on the stream length.
  const size_t updates = count * (stream.size() - preload_end);
  rounds.feed.apply.Reserve(updates);
  rounds.feed.ack.Reserve(updates);
  rounds.feed.commit.Reserve(updates / kCommitEvery + count);
  rounds.feed.batch_ack.Reserve(updates / kCommitEvery + count);
  for (size_t r = 0; r < count; ++r) {
    RunIngestRound(stream, preload_end, sample, wal_path, probed, &rounds,
                   report);
  }
  SortFeed(&rounds.feed);
  rounds.wal.Sort();
  return rounds;
}

}  // namespace

void RunIngest(const Options& options, Report* report) {
  const std::vector<stindex::Trajectory> objects =
      RandomObjects(kObjects, options.seed);
  const std::vector<LiveObservation> stream =
      Prefix(stindex::MakeObservationStream(objects), kIngestTicks);
  const size_t preload_end = Prefix(stream, kIngestPreloadTicks).size();
  const std::vector<STQuery> sample =
      QueryStream(kOracleQueries, options.seed, kIngestTicks);
  const std::string wal_path = options.dir + "/ingest.stpages";

  if (!options.traced) {
    const IngestRounds rounds =
        RunIngestWindow(stream, preload_end, sample, wal_path,
                        options.seconds, /*probed=*/false, report);
    report->Add("updates_per_s", rounds.updates_per_s(), "1/s");
    report->Add("recovery_s", Median(rounds.recovery_s), "s");
    report->Add("setup_s", Median(rounds.setup_s), "s");
    report->Add("disk_mb", rounds.wal_mb, "MB");
    return;
  }
  const double half = options.seconds / 2.0;
  const IngestRounds reference =
      RunIngestWindow(stream, preload_end, sample, wal_path, half,
                      /*probed=*/false, report);
  {
    // Chrome trace of the first requests of a round's timed part.
    std::remove(wal_path.c_str());
    Cursor cursor;
    const Tier tier = OpenPreloaded(wal_path, stream, preload_end,
                                    /*probed=*/true, &cursor, report);
    FeedStats capture;
    std::atomic<int64_t> budget{static_cast<int64_t>(kTraceRequests)};
    StartTraceCapture();
    Feed(tier.tier.get(), stream, stream.size(), kCommitEvery, 0.0,
         Clock::now(), Clock::time_point::max(), &budget, &cursor, &capture);
    stindex::TraceSession::Stop();
    report->attempted += capture.updates;
    for (const std::string& failure : capture.failures) report->Fail(failure);
    const stindex::Status written =
        stindex::TraceSession::WriteChromeTrace(options.trace_path);
    if (!written.ok()) report->Fail(written.ToString());
  }
  const IngestRounds traced =
      RunIngestWindow(stream, preload_end, sample, wal_path, half,
                      /*probed=*/true, report);

  report->Add("updates_per_s", reference.updates_per_s(), "1/s");
  report->Add("recovery_s", Median(reference.recovery_s), "s");
  report->Add("disk_mb", reference.wal_mb, "MB");
  AddFeedLayers(traced.feed, traced.wal, traced.finish_s.size(), report);
  report->Add("live.finish_s", Median(traced.finish_s), "s");
  report->Add("live.replayed_pages", static_cast<double>(traced.replayed_pages),
              "count");
  report->Add("live.migrated_segments",
              static_cast<double>(traced.migrated_segments), "count");
  report->Add("trace_overhead_frac",
              reference.updates_per_s() > 0.0
                  ? 1.0 - traced.updates_per_s() / reference.updates_per_s()
                  : 0.0,
              "frac");
}

}  // namespace stbench
