#include "util/file_io.hpp"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>

namespace eyw::util {

bool full_write(int fd, std::span<const std::uint8_t> bytes) noexcept {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool full_writev(int fd, std::span<struct iovec> iov) noexcept {
  std::size_t first = 0;  // first entry with bytes left
  for (;;) {
    while (first < iov.size() && iov[first].iov_len == 0) ++first;
    if (first == iov.size()) return true;
    const auto count = static_cast<int>(
        std::min<std::size_t>(iov.size() - first, IOV_MAX));
    const ssize_t n = ::writev(fd, iov.data() + first, count);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    // Consume what the kernel took: whole entries, then a prefix of the
    // entry the write stopped inside.
    auto left = static_cast<std::size_t>(n);
    for (; first < iov.size() && left >= iov[first].iov_len; ++first) {
      left -= iov[first].iov_len;
      iov[first].iov_len = 0;
    }
    if (left > 0) {
      iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + left;
      iov[first].iov_len -= left;
    }
  }
}

std::ptrdiff_t full_read(int fd, std::uint8_t* out, std::size_t size) noexcept {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::read(fd, out + off, size - off);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return -1;
    if (n == 0) break;  // EOF
    off += static_cast<std::size_t>(n);
  }
  return static_cast<std::ptrdiff_t>(off);
}

bool full_fsync(int fd) noexcept {
  while (::fsync(fd) != 0) {
    if (errno != EINTR) return false;
  }
  return true;
}

bool full_fdatasync(int fd) noexcept {
  while (::fdatasync(fd) != 0) {
    if (errno != EINTR) return false;
  }
  return true;
}

bool fsync_dir(const std::string& dir) noexcept {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = full_fsync(fd);
  ::close(fd);
  return ok;
}

}  // namespace eyw::util
