#include "util/http_exposition.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/slow_query_log.h"
#include "gtest/gtest.h"
#include "live/live_tier.h"
#include "storage/fault_backend.h"
#include "storage/page_backend.h"
#include "temp_path.h"
#include "util/metrics.h"

namespace stindex {
namespace {

// Minimal blocking HTTP GET against 127.0.0.1:port. Returns the whole
// response (status line, headers, body) or "" on connect failure.
std::string HttpGet(uint16_t port, const std::string& target) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return "";
  }
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = send(fd, request.data() + sent, request.size() - sent,
                           MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;  // Connection: close — EOF terminates the response
    response.append(buffer, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

int StatusCodeOf(const std::string& response) {
  // "HTTP/1.1 200 OK\r\n..."
  if (response.size() < 12) return -1;
  return std::stoi(response.substr(9, 3));
}

std::string BodyOf(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

// A recursive-descent JSON well-formedness check, enough to catch
// unbalanced braces, bad commas and unescaped strings in /statusz.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipSpace();
    if (!Value()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipSpace();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipSpace();
      if (!String()) return false;
      SkipSpace();
      if (Peek() != ':') return false;
      ++pos_;
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipSpace();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* word) {
    const size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }
  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

Rect2D UnitRect(double lo, double hi) { return Rect2D{lo, lo, hi, hi}; }

TEST(HttpExpositionTest, ServesMetricsScrape) {
  MetricRegistry& registry = MetricRegistry::Global();
  registry.ResetForTest();
  registry.GetCounter("exposition.test.counter")->Add(17);
  registry.GetGauge("exposition.test.gauge")->Set(-4);
  registry.GetHistogram("exposition.test.hist")->Record(2.0);

  HttpExpositionOptions options;
  options.epoch_seconds = 3600.0;  // the test drives the window manually
  HttpExpositionServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  const std::string response = HttpGet(server.port(), "/metrics");
  EXPECT_EQ(StatusCodeOf(response), 200);
  const std::string body = BodyOf(response);
  EXPECT_NE(body.find("# TYPE stindex_exposition_test_counter counter\n"
                      "stindex_exposition_test_counter 17\n"),
            std::string::npos);
  EXPECT_NE(body.find("stindex_exposition_test_gauge -4\n"),
            std::string::npos);
  EXPECT_NE(body.find("stindex_exposition_test_hist_count 1\n"),
            std::string::npos);
  // The window span gauge is always present, even before two epochs.
  EXPECT_NE(body.find("stindex_metrics_window_seconds"), std::string::npos);
  EXPECT_EQ(server.scrapes(), 1u);
  server.Stop();
  registry.ResetForTest();
}

TEST(HttpExpositionTest, WindowedSeriesAppearAfterAdvance) {
  MetricRegistry& registry = MetricRegistry::Global();
  registry.ResetForTest();
  HttpExpositionOptions options;
  options.epoch_seconds = 3600.0;
  HttpExpositionServer server(options);
  ASSERT_TRUE(server.Start().ok());

  registry.GetCounter("exposition.window.counter")->Add(40);
  registry.GetHistogram("exposition.window.hist")->Record(1.0);
  registry.GetHistogram("exposition.window.hist")->Record(4.0);
  server.window()->Advance();  // second boundary (Start seeded the first)

  const std::string body = BodyOf(HttpGet(server.port(), "/metrics"));
  EXPECT_NE(body.find("stindex_exposition_window_counter_rate"),
            std::string::npos);
  EXPECT_NE(
      body.find("stindex_exposition_window_hist_window{quantile=\"0.95\"}"),
      std::string::npos);
  EXPECT_NE(body.find("stindex_exposition_window_hist_window_count 2\n"),
            std::string::npos);
  server.Stop();
  registry.ResetForTest();
}

TEST(HttpExpositionTest, HealthzReflectsHealthCheck) {
  std::atomic<bool> healthy{true};
  HttpExpositionServer server;
  server.set_health_check([&healthy](std::string* detail) {
    if (!healthy.load()) {
      *detail = "synthetic failure";
      return false;
    }
    return true;
  });
  ASSERT_TRUE(server.Start().ok());

  std::string response = HttpGet(server.port(), "/healthz");
  EXPECT_EQ(StatusCodeOf(response), 200);
  EXPECT_EQ(BodyOf(response), "ok\n");

  healthy.store(false);
  response = HttpGet(server.port(), "/healthz");
  EXPECT_EQ(StatusCodeOf(response), 503);
  EXPECT_EQ(BodyOf(response), "unhealthy: synthetic failure\n");
  server.Stop();
}

// The production wiring: /healthz flips to 503 once a WAL write fault
// latches the live tier.
TEST(HttpExpositionTest, HealthzGoesUnhealthyWhenLiveTierLatches) {
  FaultInjectingBackend::Faults faults;
  faults.crash_at_write = 1;  // first WAL page write latches everything
  auto fault = std::make_unique<FaultInjectingBackend>(
      std::make_unique<MemoryPageBackend>(), faults);
  LiveTierOptions options;
  options.index.capacity = 0;
  Result<std::unique_ptr<LiveTier>> opened =
      LiveTier::Open(options, std::move(fault));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  LiveTier* tier = opened.value().get();

  HttpExpositionServer server;
  server.set_health_check([tier](std::string* detail) {
    if (tier->latched()) {
      *detail = "live tier latched on a WAL I/O failure";
      return false;
    }
    return true;
  });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(StatusCodeOf(HttpGet(server.port(), "/healthz")), 200);

  // Fill the open WAL page until the flush hits the injected fault.
  Status status = Status::OK();
  for (Time t = 0; t < 1000 && status.ok(); ++t) {
    status = tier->Observe(1, t, UnitRect(0.1, 0.2));
  }
  ASSERT_FALSE(status.ok()) << "write fault never fired";
  ASSERT_TRUE(tier->latched());

  const std::string response = HttpGet(server.port(), "/healthz");
  EXPECT_EQ(StatusCodeOf(response), 503);
  EXPECT_NE(BodyOf(response).find("latched"), std::string::npos);
  server.Stop();
}

TEST(HttpExpositionTest, StatuszIsValidJson) {
  LiveTierOptions tier_options;
  Result<std::unique_ptr<LiveTier>> opened =
      LiveTier::Open(tier_options, std::make_unique<MemoryPageBackend>());
  ASSERT_TRUE(opened.ok());
  LiveTier* tier = opened.value().get();
  ASSERT_TRUE(tier->Observe(3, 0, UnitRect(0.2, 0.3)).ok());
  ASSERT_TRUE(tier->Commit().ok());

  SlowQueryLog slow_log(0.0);  // threshold 0: capture everything
  std::vector<ObjectId> results;
  QueryProfile profile;
  tier->SnapshotQuery(UnitRect(0.0, 1.0), 0, &results, &profile);
  slow_log.MaybeRecord(1.25, true, UnitRect(0.0, 1.0), TimeInterval(0, 1),
                       results.size(), profile);

  HttpExpositionServer server;
  server.set_status_source([tier, &slow_log](JsonWriter* json) {
    const LiveTier::Telemetry t = tier->GetTelemetry();
    json->Key("wal_records").Uint(t.wal_records);
    json->Key("pool_shards").Uint(t.pool_shards.size());
    json->Key("slow_queries");
    slow_log.RenderStatusz(json);
  });
  ASSERT_TRUE(server.Start().ok());

  const std::string response = HttpGet(server.port(), "/statusz");
  EXPECT_EQ(StatusCodeOf(response), 200);
  const std::string body = BodyOf(response);
  EXPECT_TRUE(JsonValidator(body).Valid()) << body;
  EXPECT_NE(body.find("\"uptime_s\""), std::string::npos);
  EXPECT_NE(body.find("\"trace_dropped_events\""), std::string::npos);
  EXPECT_NE(body.find("\"wal_records\""), std::string::npos);
  EXPECT_NE(body.find("\"slow_queries\""), std::string::npos);
  EXPECT_NE(body.find("\"latency_ms\": 1.25"), std::string::npos);
  server.Stop();
}

// The integer after `key` in `body` (0 when absent).
int64_t ValueAfter(const std::string& body, const std::string& key) {
  const size_t at = body.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoll(body.c_str() + at + key.size(), nullptr, 10);
}

// The live tier's checkpoint page counters reach /metrics: a second
// checkpoint with nothing changed writes only its metadata and inherits
// every node and segment page of the first.
TEST(HttpExpositionTest, CheckpointPageCountersAreExported) {
  MetricRegistry::Global().ResetForTest();
  Result<std::unique_ptr<LiveTier>> opened =
      LiveTier::Open(LiveTierOptions(), std::make_unique<MemoryPageBackend>());
  ASSERT_TRUE(opened.ok());
  LiveTier* tier = opened.value().get();
  // Ten short lives, then one more object whose buffer holds the
  // watermark at t=3, so the ten migrate into the tree.
  for (Time t = 0; t < 3; ++t) {
    for (ObjectId object = 0; object < 10; ++object) {
      ASSERT_TRUE(tier->Observe(object, t, UnitRect(0.1, 0.2)).ok());
    }
  }
  for (ObjectId object = 0; object < 10; ++object) {
    ASSERT_TRUE(tier->End(object, 3).ok());
  }
  for (Time t = 3; t < 6; ++t) {
    ASSERT_TRUE(tier->Observe(10, t, UnitRect(0.3, 0.4)).ok());
  }
  ASSERT_GT(tier->historical().NodeCount(), 0u);
  ASSERT_TRUE(tier->Checkpoint().ok());
  ASSERT_TRUE(tier->Checkpoint().ok());

  HttpExpositionServer server;
  ASSERT_TRUE(server.Start().ok());
  const std::string metrics = BodyOf(HttpGet(server.port(), "/metrics"));
  EXPECT_GT(ValueAfter(metrics, "\nstindex_live_wal_checkpoint_pages_written "),
            0)
      << metrics;
  EXPECT_GT(
      ValueAfter(metrics, "\nstindex_live_wal_checkpoint_pages_inherited "), 0)
      << metrics;
  server.Stop();
}

TEST(HttpExpositionTest, ProcessMemoryGaugesAreRefreshedPerRender) {
  MetricRegistry::Global().ResetForTest();
  HttpExpositionServer server;
  ASSERT_TRUE(server.Start().ok());

  const std::string metrics = BodyOf(HttpGet(server.port(), "/metrics"));
  EXPECT_GT(ValueAfter(metrics, "\nstindex_process_resident_bytes "), 0)
      << metrics;
  EXPECT_GT(ValueAfter(metrics, "\nstindex_process_peak_resident_bytes "), 0)
      << metrics;

  MetricRegistry::Global().ResetForTest();
  const std::string statusz = BodyOf(HttpGet(server.port(), "/statusz"));
  EXPECT_TRUE(JsonValidator(statusz).Valid()) << statusz;
  const int64_t resident = ValueAfter(statusz, "\"resident_bytes\": ");
  const int64_t peak = ValueAfter(statusz, "\"peak_resident_bytes\": ");
  EXPECT_GT(resident, 0) << statusz;
  EXPECT_GT(peak, 0) << statusz;
  // The /statusz render refreshed the registry's gauges too.
  EXPECT_GT(MetricRegistry::Global()
                .GetGauge("process.resident_bytes")
                ->Value(),
            0);
  EXPECT_GT(MetricRegistry::Global()
                .GetGauge("process.peak_resident_bytes")
                ->Value(),
            0);
  server.Stop();
  MetricRegistry::Global().ResetForTest();
}

TEST(HttpExpositionTest, UnknownTargetIs404) {
  HttpExpositionServer server;
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(StatusCodeOf(HttpGet(server.port(), "/nope")), 404);
  // Query strings are stripped before routing.
  EXPECT_EQ(StatusCodeOf(HttpGet(server.port(), "/healthz?verbose=1")), 200);
  server.Stop();
}

// A client that trickles its request head one byte at a time must not
// hold the single serving thread past the per-connection deadline (2 s):
// the server answers with what it has and closes, and the next scrape is
// served at once. With per-call socket timeouts instead, the trickle
// would keep the connection open until the 16 KiB head cap.
TEST(HttpExpositionTest, TricklingClientIsCutOffAtTheDeadline) {
  using Clock = std::chrono::steady_clock;
  HttpExpositionServer server;
  ASSERT_TRUE(server.Start().ok());
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  const Clock::time_point start = Clock::now();
  const std::string head = "GET /metrics HTTP/1.1\r\nX-Trickle: ";
  ASSERT_EQ(send(fd, head.data(), head.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(head.size()));
  bool closed = false;
  while (!closed && Clock::now() - start < std::chrono::seconds(10)) {
    pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    if (poll(&pfd, 1, 200) > 0) {
      char buffer[4096];
      closed = recv(fd, buffer, sizeof(buffer), 0) <= 0;  // drain to EOF
    } else {
      closed = send(fd, "a", 1, MSG_NOSIGNAL) <= 0;
    }
  }
  const double held_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  close(fd);
  EXPECT_TRUE(closed);
  EXPECT_GE(held_s, 1.5);
  EXPECT_LT(held_s, 4.0);

  const Clock::time_point scrape_start = Clock::now();
  EXPECT_EQ(StatusCodeOf(HttpGet(server.port(), "/metrics")), 200);
  EXPECT_LT(std::chrono::duration<double>(Clock::now() - scrape_start).count(),
            1.0);
  server.Stop();
}

// Scrapes race registry writers and window advances; run under TSan this
// is the data-race check for the whole telemetry read path.
TEST(HttpExpositionTest, ConcurrentScrapesWhileRecording) {
  MetricRegistry& registry = MetricRegistry::Global();
  registry.ResetForTest();
  HttpExpositionOptions options;
  options.epoch_seconds = 0.001;  // advance the window as fast as possible
  HttpExpositionServer server(options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Counter* counter = registry.GetCounter("exposition.race.counter");
    HistogramMetric* histogram =
        registry.GetHistogram("exposition.race.hist");
    uint64_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      counter->Increment();
      histogram->Record(static_cast<double>(i % 7 + 1));
      ++i;
    }
  });
  std::vector<std::thread> scrapers;
  for (int s = 0; s < 4; ++s) {
    scrapers.emplace_back([&server] {
      for (int i = 0; i < 10; ++i) {
        const std::string response = HttpGet(server.port(), "/metrics");
        EXPECT_EQ(StatusCodeOf(response), 200);
      }
    });
  }
  for (std::thread& scraper : scrapers) scraper.join();
  stop.store(true, std::memory_order_release);
  writer.join();
  EXPECT_GE(server.scrapes(), 40u);
  server.Stop();
  registry.ResetForTest();
}

// --- SlowQueryLog unit cases --------------------------------------------

QueryProfile MakeProfile(uint64_t nodes) {
  QueryProfile profile;
  for (uint64_t i = 0; i < nodes; ++i) profile.CountNode(0);
  profile.leaf_entries_scanned = nodes * 10;
  profile.pending_scanned = nodes * 3;
  return profile;
}

TEST(SlowQueryLogTest, ThresholdGatesCapture) {
  SlowQueryLog log(5.0, 8);
  EXPECT_FALSE(log.MaybeRecord(4.9, true, UnitRect(0, 1), TimeInterval(0, 1),
                               0, MakeProfile(1)));
  EXPECT_TRUE(log.MaybeRecord(5.0, true, UnitRect(0, 1), TimeInterval(0, 1),
                              2, MakeProfile(3)));
  EXPECT_EQ(log.captured(), 1u);
  const std::vector<SlowQueryEntry> entries = log.Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].sequence, 1u);
  EXPECT_DOUBLE_EQ(entries[0].latency_ms, 5.0);
  EXPECT_EQ(entries[0].results, 2u);
  EXPECT_EQ(entries[0].profile.nodes_visited, 3u);
}

TEST(SlowQueryLogTest, RingDropsOldest) {
  SlowQueryLog log(0.0, 3);
  for (int i = 1; i <= 5; ++i) {
    log.MaybeRecord(static_cast<double>(i), false, UnitRect(0, 1),
                    TimeInterval(0, 10), 0, MakeProfile(1));
  }
  EXPECT_EQ(log.captured(), 5u);
  EXPECT_EQ(log.evicted(), 2u);
  const std::vector<SlowQueryEntry> entries = log.Entries();
  ASSERT_EQ(entries.size(), 3u);
  // Oldest-first: sequences 3, 4, 5 survive.
  EXPECT_EQ(entries.front().sequence, 3u);
  EXPECT_EQ(entries.back().sequence, 5u);
}

TEST(SlowQueryLogTest, JsonlSinkWritesOneValidLinePerCapture) {
  const TempPath path("slow_queries.jsonl");
  {
    SlowQueryLog log(0.0, 4);
    ASSERT_TRUE(log.OpenJsonlSink(path));
    log.MaybeRecord(7.5, true, UnitRect(0.25, 0.75), TimeInterval(42, 43), 3,
                    MakeProfile(2));
    log.MaybeRecord(9.0, false, UnitRect(0.0, 1.0), TimeInterval(0, 100), 0,
                    MakeProfile(1));
  }
  std::FILE* file = std::fopen(path.path().c_str(), "r");
  ASSERT_NE(file, nullptr);
  std::vector<std::string> lines;
  char buffer[4096];
  while (std::fgets(buffer, sizeof(buffer), file) != nullptr) {
    lines.emplace_back(buffer);
  }
  std::fclose(file);
  ASSERT_EQ(lines.size(), 2u);
  for (std::string& line : lines) {
    ASSERT_FALSE(line.empty());
    ASSERT_EQ(line.back(), '\n');
    line.pop_back();
    EXPECT_TRUE(JsonValidator(line).Valid()) << line;
  }
  EXPECT_NE(lines[0].find("\"seq\":1"), std::string::npos);
  EXPECT_NE(lines[0].find("\"kind\":\"snapshot\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"results\":3"), std::string::npos);
  EXPECT_NE(lines[0].find("\"pending_scanned\":6"), std::string::npos);
  EXPECT_NE(lines[1].find("\"kind\":\"interval\""), std::string::npos);
}

TEST(SlowQueryLogTest, RenderStatuszIsValidJson) {
  SlowQueryLog log(1.0, 4);
  log.MaybeRecord(2.0, true, UnitRect(0.1, 0.9), TimeInterval(5, 6), 1,
                  MakeProfile(4));
  JsonWriter json;
  log.RenderStatusz(&json);
  EXPECT_TRUE(JsonValidator(json.str()).Valid()) << json.str();
  EXPECT_NE(json.str().find("\"threshold_ms\""), std::string::npos);
  EXPECT_NE(json.str().find("\"nodes_visited\": 4"), std::string::npos);
  EXPECT_NE(json.str().find("\"pending_scanned\": 12"), std::string::npos);
}

}  // namespace
}  // namespace stindex
