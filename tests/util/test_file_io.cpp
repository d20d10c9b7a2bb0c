// util::full_writev: every byte of every entry lands in order, more than
// IOV_MAX entries split across calls, and a short write resumes inside
// the entry it split — forced with RLIMIT_FSIZE, under which the kernel
// writes up to the limit and then refuses with EFBIG.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <stdlib.h>
#include <sys/resource.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/file_io.hpp"

namespace eyw::util {
namespace {

/// mkstemp under the working directory, unlinked on destruction.
struct ScratchFile {
  std::string path;
  int fd = -1;
  ScratchFile() {
    char tmpl[] = "eyw-file-io-test.XXXXXX";
    fd = ::mkstemp(tmpl);
    if (fd < 0) throw std::runtime_error("mkstemp");
    path = tmpl;
  }
  ~ScratchFile() {
    ::close(fd);
    ::unlink(path.c_str());
  }
  [[nodiscard]] std::vector<std::uint8_t> contents() const {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
  }
};

std::vector<std::uint8_t> pattern(std::size_t len) {
  std::vector<std::uint8_t> out(len);
  for (std::size_t i = 0; i < len; ++i)
    out[i] = static_cast<std::uint8_t>(i * 131 + i / 256);
  return out;
}

/// Entries of the given sizes cut consecutively from `bytes`.
std::vector<struct iovec> cut(std::vector<std::uint8_t>& bytes,
                              const std::vector<std::size_t>& sizes) {
  std::vector<struct iovec> iov;
  std::size_t off = 0;
  for (const std::size_t n : sizes) {
    iov.push_back({bytes.data() + off, n});
    off += n;
  }
  return iov;
}

TEST(FullWritev, WritesEveryEntryInOrderPastIovMax) {
  ScratchFile file;
  std::vector<std::size_t> sizes;
  for (std::size_t i = 0; i < 2 * IOV_MAX + 7; ++i) sizes.push_back(i % 5);
  std::size_t total = 0;
  for (const std::size_t n : sizes) total += n;
  std::vector<std::uint8_t> bytes = pattern(total);
  std::vector<struct iovec> iov = cut(bytes, sizes);

  ASSERT_TRUE(full_writev(file.fd, iov));
  EXPECT_EQ(file.contents(), bytes);
  for (const struct iovec& e : iov) EXPECT_EQ(e.iov_len, 0u);
}

TEST(FullWritev, EmptyEntriesWriteNothing) {
  ScratchFile file;
  std::vector<struct iovec> iov(3, {nullptr, 0});
  EXPECT_TRUE(full_writev(file.fd, iov));
  EXPECT_TRUE(full_writev(file.fd, {}));
  EXPECT_TRUE(file.contents().empty());
}

/// Lowers RLIMIT_FSIZE and ignores SIGXFSZ (whose default action kills
/// the process) for its lifetime.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    if (::getrlimit(RLIMIT_FSIZE, &saved_) != 0)
      throw std::runtime_error("getrlimit");
    struct rlimit lowered = saved_;
    lowered.rlim_cur = bytes;
    if (::setrlimit(RLIMIT_FSIZE, &lowered) != 0)
      throw std::runtime_error("setrlimit");
    saved_handler_ = std::signal(SIGXFSZ, SIG_IGN);
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, saved_handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  struct rlimit saved_ {};
  void (*saved_handler_)(int) = SIG_DFL;
};

TEST(FullWritev, ShortWriteResumesInsideTheSplitEntry) {
  ScratchFile file;
  std::vector<std::uint8_t> bytes = pattern(1200);
  std::vector<struct iovec> iov = cut(bytes, {300, 500, 400});
  {
    // The first writev stops at byte 1000, 200 bytes into the third
    // entry; the resumed call starts there and gets EFBIG.
    FileSizeLimit limit(1000);
    errno = 0;
    EXPECT_FALSE(full_writev(file.fd, iov));
    EXPECT_EQ(errno, EFBIG);
  }
  EXPECT_EQ(file.contents(),
            std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + 1000));
  // What is left to write is exactly the unwritten suffix.
  EXPECT_EQ(iov[0].iov_len, 0u);
  EXPECT_EQ(iov[1].iov_len, 0u);
  EXPECT_EQ(iov[2].iov_base, bytes.data() + 1000);
  EXPECT_EQ(iov[2].iov_len, 200u);

  // With the limit restored, the same entries finish the file.
  ASSERT_TRUE(full_writev(file.fd, iov));
  EXPECT_EQ(file.contents(), bytes);
}

}  // namespace
}  // namespace eyw::util
