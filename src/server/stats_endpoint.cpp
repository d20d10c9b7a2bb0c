#include "server/stats_endpoint.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "proto/raw_frame_io.hpp"

namespace eyw::server {

namespace {

// One operator request is tiny; anything larger is not a request we serve.
constexpr std::size_t kMaxRequestBytes = 4096;
// Poll granularity of the accept loop — the stop() latency bound.
constexpr int kPollMillis = 50;

bool send_str(int fd, const std::string& s) {
  return proto::raw::send_all(
      fd, {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

void respond(int fd, const char* status, const std::string& body) {
  std::string out = "HTTP/1.0 ";
  out += status;
  out +=
      "\r\nContent-Type: application/json\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
  (void)send_str(fd, out);
}

/// Read until the blank line ending the request head (we ignore any body:
/// GET has none, and anything else is refused anyway). False on
/// EOF/error/oversize before the head completes.
bool read_request_head(int fd, std::string& head) {
  char buf[512];
  while (head.find("\r\n\r\n") == std::string::npos) {
    if (head.size() > kMaxRequestBytes) return false;
    struct pollfd p{fd, POLLIN, 0};
    // A stalled client must not wedge the serial accept loop forever.
    const int pr = ::poll(&p, 1, 1000);
    if (pr <= 0) return false;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    head.append(buf, static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace

std::string StatsRegistry::render_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    if (i != 0) out += ',';
    out += '"';
    out += gauges_[i].first;
    out += "\":";
    out += std::to_string(gauges_[i].second());
  }
  out += '}';
  return out;
}

StatsEndpoint::StatsEndpoint(StatsRegistry registry, std::uint16_t port,
                             const std::string& bind_address)
    : registry_(std::move(registry)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("StatsEndpoint: socket failed");
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, bind_address.c_str(), &addr.sin_addr) != 1 ||
      ::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) < 0 ||
      ::listen(listen_fd_, 8) < 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(std::string("StatsEndpoint: bind/listen ") +
                             bind_address + ":" + std::to_string(port) +
                             ": " + std::strerror(saved));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                    &len) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("StatsEndpoint: getsockname failed");
  }
  port_ = ntohs(addr.sin_port);
  thread_ = std::thread([this] {
    pthread_setname_np(pthread_self(), "eyw-stats");
    serve_loop();
  });
}

StatsEndpoint::~StatsEndpoint() { stop(); }

void StatsEndpoint::stop() {
  if (!stopping_.exchange(true) && thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void StatsEndpoint::serve_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    struct pollfd p{listen_fd_, POLLIN, 0};
    const int pr = ::poll(&p, 1, kPollMillis);
    if (pr < 0 && errno != EINTR) return;
    if (pr <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    std::string head;
    if (read_request_head(fd, head)) {
      requests_.fetch_add(1, std::memory_order_relaxed);
      const std::size_t eol = head.find("\r\n");
      const std::string request_line = head.substr(0, eol);
      if (request_line.rfind("GET ", 0) != 0) {
        respond(fd, "405 Method Not Allowed",
                "{\"error\":\"GET only\"}");
      } else {
        const std::size_t sp = request_line.find(' ', 4);
        const std::string path = request_line.substr(
            4, sp == std::string::npos ? std::string::npos : sp - 4);
        if (path == "/stats" || path == "/")
          respond(fd, "200 OK", registry_.render_json());
        else
          respond(fd, "404 Not Found", "{\"error\":\"unknown path\"}");
      }
    }
    ::close(fd);
  }
}

std::string stats_http_get(std::uint16_t port, const std::string& path) {
  const int fd = proto::raw::connect_loopback(port);
  if (fd < 0)
    throw std::runtime_error("stats_http_get: connect to port " +
                             std::to_string(port) + " failed");
  const std::string req =
      "GET " + path + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  if (!send_str(fd, req)) {
    ::close(fd);
    throw std::runtime_error("stats_http_get: send failed");
  }
  std::string response;
  char buf[1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
    if (response.size() > 1u << 20) break;  // runaway guard
  }
  ::close(fd);
  if (response.rfind("HTTP/", 0) != 0)
    throw std::runtime_error("stats_http_get: not an HTTP response");
  const std::size_t sp = response.find(' ');
  if (sp == std::string::npos || response.compare(sp + 1, 3, "200") != 0)
    throw std::runtime_error("stats_http_get: non-200 status: " +
                             response.substr(0, response.find("\r\n")));
  const std::size_t body = response.find("\r\n\r\n");
  if (body == std::string::npos)
    throw std::runtime_error("stats_http_get: missing header terminator");
  return response.substr(body + 4);
}

std::uint64_t stats_value(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const std::size_t at = json.find(key);
  if (at == std::string::npos)
    throw std::out_of_range("stats_value: no counter named " + name);
  std::uint64_t value = 0;
  std::size_t i = at + key.size();
  if (i >= json.size() || json[i] < '0' || json[i] > '9')
    throw std::out_of_range("stats_value: counter " + name +
                            " is not a number");
  for (; i < json.size() && json[i] >= '0' && json[i] <= '9'; ++i)
    value = value * 10 + static_cast<std::uint64_t>(json[i] - '0');
  return value;
}

}  // namespace eyw::server
