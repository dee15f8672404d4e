#include "telemetry/serve.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>

#include "telemetry/export.h"
#include "telemetry/lockdep.h"

namespace cna::telemetry {
namespace {

constexpr std::size_t kMaxRequestBytes = 4096;

struct Response {
  int status = 200;
  const char* content_type = "text/plain; charset=utf-8";
  std::string body;
};

Response Route(const std::string& path, Sampler* sampler) {
  Response r;
  if (path == "/" || path.empty()) {
    r.body =
        "cna telemetry endpoint\n"
        "  /healthz   liveness\n"
        "  /metrics   Prometheus exposition (cumulative)\n"
        "  /json      registry as JSON (cumulative)\n"
        "  /lockstat  /proc/lock_stat-style text\n"
        "  /series    sampler time-series ring as JSON\n"
        "  /lockdep   lock-order graph + inversion witnesses (text)\n"
        "  /lockdep.dot     the dependency graph as a DOT digraph\n"
        "  /lockdep.folded  held-lock folded stacks (flamegraph.pl input)\n";
    return r;
  }
  if (path == "/healthz") {
    r.body = "ok\n";
    return r;
  }
  if (path == "/metrics") {
    // The content-type Prometheus scrapers expect for text exposition.
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = ToPrometheus(Registry::Global().Snapshot());
    return r;
  }
  if (path == "/json") {
    r.content_type = "application/json";
    r.body = ToJson(Registry::Global().Snapshot());
    return r;
  }
  if (path == "/lockstat") {
    r.body = ToLockStatText(Registry::Global().Snapshot());
    return r;
  }
  if (path == "/lockdep") {
    r.body = lockdep::ReportText();
    return r;
  }
  if (path == "/lockdep.dot") {
    r.content_type = "text/vnd.graphviz";
    r.body = lockdep::ReportDot();
    return r;
  }
  if (path == "/lockdep.folded") {
    r.body = lockdep::FoldedStacks();
    return r;
  }
  if (path == "/series") {
    if (sampler == nullptr) {
      r.status = 404;
      r.body = "no sampler attached\n";
      return r;
    }
    r.content_type = "application/json";
    r.body = sampler->SeriesJson();
    return r;
  }
  r.status = 404;
  r.body = "unknown path\n";
  return r;
}

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
  }
  return "Error";
}

void SendAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n <= 0) {
      return;  // peer went away; a scrape endpoint just drops the response
    }
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace

bool TelemetryServer::Start(const ServeOptions& options) {
  if (running()) {
    return true;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return false;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr =
      options.loopback_only ? htonl(INADDR_LOOPBACK) : htonl(INADDR_ANY);
  addr.sin_port = htons(options.port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, /*backlog=*/16) != 0) {
    ::close(fd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd);
    return false;
  }
  port_ = ntohs(bound.sin_port);
  sampler_ = options.sampler;
  recv_timeout_ms_ = options.recv_timeout_ms;
  listen_fd_.store(fd);
  thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void TelemetryServer::Stop() {
  const int fd = listen_fd_.exchange(-1);
  if (fd >= 0) {
    // shutdown wakes the blocking accept; close releases the port.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (thread_.joinable()) {
    thread_.join();
  }
}

void TelemetryServer::AcceptLoop() {
  for (;;) {
    const int fd = listen_fd_.load();
    if (fd < 0) {
      return;
    }
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) {
      if (listen_fd_.load() < 0) {
        return;  // Stop() closed the socket under us
      }
      if (errno == EINTR) {
        continue;
      }
      return;
    }
    HandleConnection(conn);
    ::close(conn);
  }
}

void TelemetryServer::HandleConnection(int fd) {
  // Read until the end of the request head (or the bound); HTTP/1.0 GETs
  // carry no body, so the first CRLFCRLF ends the request.  The whole head
  // must arrive within recv_timeout_ms_: this thread is also the accept
  // loop, so a silent or trickling client must not be able to park here and
  // blackhole every later scrape.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(recv_timeout_ms_);
  std::string req;
  char buf[1024];
  while (req.size() < kMaxRequestBytes &&
         req.find("\r\n\r\n") == std::string::npos &&
         req.find("\n\n") == std::string::npos) {
    if (recv_timeout_ms_ > 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) {
        return;  // out of budget: drop the connection, serve the next one
      }
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLIN;
      const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (ready < 0 && errno == EINTR) {
        continue;
      }
      if (ready <= 0) {
        return;
      }
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      break;
    }
    req.append(buf, static_cast<std::size_t>(n));
    if (req.find('\n') != std::string::npos &&
        req.find("\r\n\r\n") == std::string::npos) {
      // Some minimal clients (curl included) always finish the head in one
      // segment; keep reading only if the head is genuinely incomplete.
      continue;
    }
  }

  Response resp;
  const std::size_t line_end = req.find_first_of("\r\n");
  const std::string line =
      line_end == std::string::npos ? req : req.substr(0, line_end);
  if (line.rfind("GET ", 0) != 0) {
    resp.status = line.empty() ? 400 : 405;
    resp.body = "only GET is served here\n";
  } else {
    std::string path = line.substr(4);
    const std::size_t space = path.find(' ');
    if (space != std::string::npos) {
      path.resize(space);
    }
    const std::size_t query = path.find('?');
    if (query != std::string::npos) {
      path.resize(query);
    }
    resp = Route(path, sampler_);
  }

  std::string head = "HTTP/1.0 " + std::to_string(resp.status) + " " +
                     StatusText(resp.status) +
                     "\r\nContent-Type: " + resp.content_type +
                     "\r\nContent-Length: " + std::to_string(resp.body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  SendAll(fd, head);
  SendAll(fd, resp.body);
  requests_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace cna::telemetry
