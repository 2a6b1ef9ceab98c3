#include "util/http_exposition.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "util/check.h"
#include "util/prom_writer.h"

namespace stindex {

namespace {

using Clock = std::chrono::steady_clock;

// How long the accept loop sleeps in poll() between checks of the stop
// flag and the window-epoch deadline. Short enough that Stop() and the
// publisher cadence are responsive, long enough to stay idle-cheap.
constexpr int kPollMs = 50;

// The whole budget of one connection: reading the request head and
// writing the response. A scraper is local and fast, so two seconds is
// generous; a client trickling bytes cannot hold the single serving
// thread (and with it window epochs and Stop()) any longer.
constexpr std::chrono::milliseconds kConnectionDeadline(2000);

// Waits until `fd` is ready for `events`; false once `deadline` passes
// or the socket fails.
bool WaitReady(int fd, short events, Clock::time_point deadline) {
  for (;;) {
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) return false;
    pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    const int ready = poll(&pfd, 1, static_cast<int>(left.count()));
    if (ready > 0) return true;
    if (ready < 0 && errno == EINTR) continue;
    if (ready < 0) return false;
  }
}

const char* ReasonPhrase(int code) {
  switch (code) {
    case 200:
      return "OK";
    case 404:
      return "Not Found";
    case 503:
      return "Service Unavailable";
    default:
      return "Internal Server Error";
  }
}

std::string BuildResponse(int code, const std::string& content_type,
                          const std::string& body) {
  std::string response = "HTTP/1.1 " + std::to_string(code) + " " +
                         ReasonPhrase(code) + "\r\n";
  response += "Content-Type: " + content_type + "\r\n";
  response += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  response += "Connection: close\r\n\r\n";
  response += body;
  return response;
}

// Sends the whole buffer before `deadline`, tolerating short writes.
// MSG_NOSIGNAL: a scraper hanging up mid-response must not SIGPIPE the
// process.
void SendAll(int fd, const std::string& data, Clock::time_point deadline) {
  size_t sent = 0;
  while (sent < data.size()) {
    if (!WaitReady(fd, POLLOUT, deadline)) return;
    const ssize_t n = send(fd, data.data() + sent, data.size() - sent,
                           MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      return;  // client went away; nothing to clean up but the fd
    }
    sent += static_cast<size_t>(n);
  }
}

// Reads until the end of the request headers (CRLFCRLF), 16 KiB or
// `deadline`. We only ever need the request line; the body, if a client
// sends one, is ignored.
std::string ReadRequestHead(int fd, Clock::time_point deadline) {
  std::string head;
  char buffer[1024];
  while (head.size() < 16 * 1024) {
    if (!WaitReady(fd, POLLIN, deadline)) break;
    const ssize_t n = recv(fd, buffer, sizeof(buffer), MSG_DONTWAIT);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      break;  // EOF or error — parse whatever we have
    }
    head.append(buffer, static_cast<size_t>(n));
    if (head.find("\r\n\r\n") != std::string::npos) break;
  }
  return head;
}

// "GET /metrics HTTP/1.1\r\n..." -> "/metrics" (query strings stripped;
// the endpoints take no parameters). Empty on anything but a GET.
std::string ParseGetTarget(const std::string& head) {
  if (head.compare(0, 4, "GET ") != 0) return "";
  const size_t start = 4;
  size_t end = head.find(' ', start);
  if (end == std::string::npos) {
    end = head.find('\r', start);
    if (end == std::string::npos) end = head.size();
  }
  std::string target = head.substr(start, end - start);
  const size_t query = target.find('?');
  if (query != std::string::npos) target.resize(query);
  return target;
}

}  // namespace

HttpExpositionServer::HttpExpositionServer(HttpExpositionOptions options)
    : options_(std::move(options)),
      window_(options_.window_epochs == 0 ? 1 : options_.window_epochs) {}

HttpExpositionServer::~HttpExpositionServer() { Stop(); }

void HttpExpositionServer::set_health_check(HealthCheck check) {
  STINDEX_CHECK_MSG(!running(), "set_health_check after Start()");
  health_check_ = std::move(check);
}

void HttpExpositionServer::set_status_source(StatusSource source) {
  STINDEX_CHECK_MSG(!running(), "set_status_source after Start()");
  status_source_ = std::move(source);
}

Status HttpExpositionServer::Start() {
  STINDEX_CHECK_MSG(!running(), "exposition server already running");
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address '" +
                                   options_.bind_address + "'");
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string message = std::string("bind ") + options_.bind_address +
                                ":" + std::to_string(options_.port) + ": " +
                                std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError(message);
  }
  if (listen(listen_fd_, 16) != 0) {
    const std::string message =
        std::string("listen: ") + std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError(message);
  }
  // Resolve the kernel-assigned port when the caller asked for 0.
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                  &bound_len) != 0) {
    const std::string message =
        std::string("getsockname: ") + std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError(message);
  }
  port_ = ntohs(bound.sin_port);

  started_at_ = std::chrono::steady_clock::now();
  // Seed the window so the first WindowSnapshot after one epoch already
  // has its two boundary captures.
  window_.Advance();
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Serve(); });
  return Status::OK();
}

void HttpExpositionServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    // Never started, or a prior Stop already joined.
    if (thread_.joinable()) thread_.join();
    return;
  }
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpExpositionServer::Serve() {
  const auto epoch_period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(options_.epoch_seconds));
  Clock::time_point next_epoch = Clock::now() + epoch_period;

  pollfd pfd;
  pfd.fd = listen_fd_;
  pfd.events = POLLIN;
  while (!stop_.load(std::memory_order_acquire)) {
    pfd.revents = 0;
    const int ready = poll(&pfd, 1, kPollMs);
    if (Clock::now() >= next_epoch) {
      window_.Advance();
      next_epoch += epoch_period;
      // A long scrape stall should not cause a burst of catch-up epochs.
      if (Clock::now() >= next_epoch) next_epoch = Clock::now() + epoch_period;
    }
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int conn = accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    HandleConnection(conn);
    close(conn);
  }
}

void HttpExpositionServer::HandleConnection(int fd) {
  const Clock::time_point deadline = Clock::now() + kConnectionDeadline;
  const std::string target = ParseGetTarget(ReadRequestHead(fd, deadline));
  std::string response;
  if (target == "/metrics") {
    scrapes_.fetch_add(1, std::memory_order_relaxed);
    MetricRegistry::Global().GetCounter("telemetry.scrapes")->Increment();
    response =
        BuildResponse(200, "text/plain; version=0.0.4", MetricsBody());
  } else if (target == "/healthz") {
    int code = 200;
    const std::string body = HealthzBody(&code);
    response = BuildResponse(code, "text/plain", body);
  } else if (target == "/statusz") {
    response = BuildResponse(200, "application/json", StatuszBody());
  } else {
    response = BuildResponse(
        404, "text/plain", "not found; try /metrics, /healthz or /statusz\n");
  }
  SendAll(fd, response, deadline);
}

std::string HttpExpositionServer::MetricsBody() const {
  std::string body = RenderPrometheus(MetricRegistry::Global().Snapshot());
  body += RenderPrometheusWindow(window_.WindowSnapshot());
  return body;
}

std::string HttpExpositionServer::HealthzBody(int* status_code) const {
  std::string detail;
  const bool healthy = health_check_ ? health_check_(&detail) : true;
  *status_code = healthy ? 200 : 503;
  std::string body = healthy ? "ok" : "unhealthy";
  if (!detail.empty()) {
    body += ": ";
    body += detail;
  }
  body += "\n";
  return body;
}

std::string HttpExpositionServer::StatuszBody() const {
  const std::chrono::duration<double> uptime =
      std::chrono::steady_clock::now() - started_at_;
  const WindowedMetricsSnapshot window = window_.WindowSnapshot();
  JsonWriter json;
  json.BeginObject();
  json.Key("server").String("stindex");
  json.Key("build").BeginObject();
#ifdef NDEBUG
  json.Key("config").String("release");
#else
  json.Key("config").String("debug");
#endif
  json.Key("compiled").String(__DATE__ " " __TIME__);
  json.EndObject();
  json.Key("uptime_s").Double(uptime.count());
  json.Key("port").Uint(port_);
  json.Key("scrapes").Uint(scrapes_.load(std::memory_order_relaxed));
  json.Key("trace_dropped_events")
      .Uint(MetricRegistry::Global()
                .GetCounter("trace.dropped_events")
                ->Value());
  json.Key("window").BeginObject();
  json.Key("seconds").Double(window.seconds);
  json.Key("epochs").Uint(window.epochs);
  json.Key("max_epochs").Uint(window_.max_epochs());
  json.EndObject();
  if (status_source_) status_source_(&json);
  json.EndObject();
  std::string body = json.str();
  body += "\n";
  return body;
}

}  // namespace stindex
