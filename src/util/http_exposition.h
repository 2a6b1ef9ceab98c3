#ifndef STINDEX_UTIL_HTTP_EXPOSITION_H_
#define STINDEX_UTIL_HTTP_EXPOSITION_H_

// A small dependency-free HTTP/1.1 exposition server: the live telemetry
// plane of a long-running stindex process. One dedicated thread accepts
// loopback connections and serves
//
//   /metrics   Prometheus text exposition (util/prom_writer.h): the full
//              cumulative registry plus the sliding-window companion
//              series (<name>_rate gauges, <name>_window summaries with
//              rolling p50/p95/p99) of the server-owned MetricsWindow.
//              Every render first refreshes the process.resident_bytes
//              and process.peak_resident_bytes gauges.
//   /healthz   200 "ok" while the installed health check passes, 503
//              with the check's detail once it fails (e.g. the live tier
//              latched on a WAL I/O error).
//   /statusz   one JSON object (util/json_writer.h): uptime, build info,
//              process memory (the same two gauges, refreshed),
//              scrape/window bookkeeping, trace.dropped_events, plus
//              whatever the installed status source appends (the server
//              driver wires in WAL/checkpoint/pool/live-tier state).
//
// The accept loop doubles as the window publisher: every
// `epoch_seconds` it advances the MetricsWindow, so windowed series
// exist exactly while a server (or soak driver) runs — bench paths never
// construct one, keeping instrumented runs byte-identical (the
// determinism contract of util/metrics.h).
//
// Requests are handled serially on the server thread — scrapes are rare
// and tiny — but any number of clients may connect concurrently; pending
// connections queue in the listen backlog. Each connection gets one
// fixed deadline (2 s) to send its request head and take the response,
// so a slow or stuck client cannot stall the window or Stop(). Handlers only read registry
// snapshots and call the installed callbacks, both of which must be
// thread-safe against the serving process's worker threads.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "util/json_writer.h"
#include "util/metrics.h"
#include "util/status.h"

namespace stindex {

struct HttpExpositionOptions {
  // TCP port to bind; 0 asks the kernel for an ephemeral port (read it
  // back from port() — the test and script path).
  uint16_t port = 0;
  // Loopback by default: the telemetry plane is for a local scraper or
  // an ssh tunnel, not the open network.
  std::string bind_address = "127.0.0.1";
  // Cadence of the window publisher and span of the sliding window:
  // every epoch_seconds the server advances the window, which covers the
  // last window_epochs advances (default 15 x 2 s = rolling 30 s).
  double epoch_seconds = 2.0;
  size_t window_epochs = 15;
};

class HttpExpositionServer {
 public:
  // Returns false for unhealthy; an explanation may be appended to
  // `detail` either way. Called per /healthz request, so it must be
  // cheap and thread-safe.
  using HealthCheck = std::function<bool(std::string* detail)>;
  // Appends key/value members to the open /statusz JSON object (the
  // server owns BeginObject/EndObject and its own standard fields).
  using StatusSource = std::function<void(JsonWriter* json)>;

  explicit HttpExpositionServer(HttpExpositionOptions options = {});
  ~HttpExpositionServer();  // stops and joins if still running

  HttpExpositionServer(const HttpExpositionServer&) = delete;
  HttpExpositionServer& operator=(const HttpExpositionServer&) = delete;

  // Installs the callbacks. Only legal before Start(); without them
  // /healthz always reports healthy and /statusz carries the standard
  // fields only.
  void set_health_check(HealthCheck check);
  void set_status_source(StatusSource source);

  // Binds, listens and spawns the serving thread. The bound port is
  // available from port() afterwards (resolves option port 0).
  Status Start();

  // Stops the serving thread and closes the socket. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  uint16_t port() const { return port_; }

  // The server-owned sliding window, advanced by the serving thread
  // every epoch_seconds. Exposed so drivers and tests can advance or
  // inspect it directly (e.g. a soak driver publishing an interval
  // summary, or a unit test with an effectively-infinite epoch).
  MetricsWindow* window() { return &window_; }

  // Lifetime /metrics requests served (also the telemetry.scrapes
  // registry counter).
  uint64_t scrapes() const { return scrapes_.load(std::memory_order_relaxed); }

 private:
  void Serve();
  void HandleConnection(int fd);
  // Response body builders.
  std::string MetricsBody() const;
  std::string HealthzBody(int* status_code) const;
  std::string StatuszBody() const;

  HttpExpositionOptions options_;
  HealthCheck health_check_;
  StatusSource status_source_;
  MetricsWindow window_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> scrapes_{0};
  std::chrono::steady_clock::time_point started_at_;
  std::thread thread_;
};

}  // namespace stindex

#endif  // STINDEX_UTIL_HTTP_EXPOSITION_H_
