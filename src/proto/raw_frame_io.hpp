// Minimal blocking helpers for the TCP length framing: frame a buffer
// with its 4-byte little-endian prefix, push/pull whole framed messages
// over a plain socket fd, open IPv4 connections by address.
//
// Production clients go through proto::ClientReactor. These are for the
// code that must speak the framing below it: hand-rolled peers in tests
// (a pre-Hello server, a deliberately misbehaving one), hostile-byte
// injectors in the scenario harness, the stats endpoint, and the
// prefix both reactors write. Kept header-only and
// allocation-minimal; errors surface as false/empty (the callers are load
// drivers and tests, each with its own failure styles).
//
// process_threads() rides along because every consumer of this header
// asserts or reports the reactor's thread budget (resident threads =
// shards + acceptor, never O(connections)).
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <vector>

namespace eyw::proto::raw {

/// Append `4-byte LE length | frame` to `out` in place, so a writer
/// reuses its grown capacity frame after frame instead of materializing a
/// fresh prefixed vector per message.
inline void append_framed(std::vector<std::uint8_t>& out,
                          std::span<const std::uint8_t> frame) {
  const auto len = static_cast<std::uint32_t>(frame.size());
  const std::uint8_t prefix[4] = {
      static_cast<std::uint8_t>(len), static_cast<std::uint8_t>(len >> 8),
      static_cast<std::uint8_t>(len >> 16),
      static_cast<std::uint8_t>(len >> 24)};
  out.insert(out.end(), prefix, prefix + 4);
  out.insert(out.end(), frame.begin(), frame.end());
}

/// 4-byte LE length prefix + frame, one contiguous buffer.
inline std::vector<std::uint8_t> with_prefix(
    std::span<const std::uint8_t> frame) {
  std::vector<std::uint8_t> out(4 + frame.size());
  const auto len = static_cast<std::uint32_t>(frame.size());
  for (int i = 0; i < 4; ++i)
    out[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(len >> (8 * i));
  if (!frame.empty())
    std::memcpy(out.data() + 4, frame.data(), frame.size());
  return out;
}

/// Write all of `bytes` to a blocking fd. False on any send failure. A
/// signal landing mid-write (EINTR) restarts the send at the current
/// offset — only a real error or a closed peer aborts. The EINTR check is
/// gated on n < 0: errno is only meaningful after a failing call, and a
/// stale EINTR must not turn a zero-progress return into a spin.
inline bool send_all(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Read one length-framed message off a blocking fd. Empty on EOF or
/// error (callers here never exchange legal zero-length frames).
inline std::vector<std::uint8_t> read_framed(int fd) {
  std::uint8_t prefix[4];
  std::size_t got = 0;
  while (got < 4) {
    const ssize_t n = ::recv(fd, prefix + got, 4 - got, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return {};
    got += static_cast<std::size_t>(n);
  }
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i)
    len |= static_cast<std::uint32_t>(prefix[i]) << (8 * i);
  std::vector<std::uint8_t> frame(len);
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::recv(fd, frame.data() + off, len - off, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return {};
    off += static_cast<std::size_t>(n);
  }
  return frame;
}

/// Blocking IPv4 connect to a dotted-quad address; -1 on failure.
inline int connect_ipv4(const char* address, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address, &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

inline int connect_loopback(std::uint16_t port) {
  return connect_ipv4("127.0.0.1", port);
}

/// Resident threads of this process (Linux /proc, like the epoll the
/// reactor is built on); 0 when unreadable.
inline std::size_t process_threads() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t threads = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr)
    if (std::sscanf(line, "Threads: %zu", &threads) == 1) break;
  std::fclose(f);
  return threads;
}

}  // namespace eyw::proto::raw
