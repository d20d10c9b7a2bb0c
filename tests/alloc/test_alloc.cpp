// Heap allocations per operation, counted on the thread that makes them.
// The probe replaces the global operator new for the whole binary, which
// is why these tests live apart from tests/proto (as tests/proto_summary
// does for its largest-allocation probe). Each case warms its path up,
// then asserts that the steady state allocates nothing.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <new>
#include <vector>

#include "proto/reactor.hpp"

namespace {

thread_local std::uint64_t t_allocs = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace eyw::proto {
namespace {

constexpr int kWarmup = 10;
constexpr int kOps = 1000;

/// Counts callbacks that ran on the loop thread; the test thread waits on
/// it between operations, so each one completes before the next starts.
struct Progress {
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;

  void bump() {
    {
      std::lock_guard<std::mutex> lock(mu);
      ++done;
    }
    cv.notify_one();
  }
  void await(int n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done >= n; });
  }
};

TEST(ReactorAllocations, FdEventsAllocateNothingOnTheLoopThread) {
  int fds[2];
  ASSERT_EQ(::pipe2(fds, O_NONBLOCK | O_CLOEXEC), 0);
  Reactor reactor;
  Progress progress;
  // The loop thread's running allocation count at each event. Sized up
  // front: the callback itself must not allocate.
  std::vector<std::uint64_t> seen(kWarmup + kOps);
  const int read_fd = fds[0];
  auto on_readable = [read_fd, seen = seen.data(),
                      progress = &progress](std::uint32_t) {
    char byte = 0;
    (void)!::read(read_fd, &byte, 1);
    seen[progress->done] = t_allocs;
    progress->bump();
  };
  // Above libstdc++'s 16-byte std::function buffer, like FrameServer's
  // per-connection callback: copying it would allocate.
  static_assert(sizeof(on_readable) > 16);
  reactor.add_fd(read_fd, EPOLLIN, on_readable);  // before the loop runs
  reactor.start();

  for (int i = 0; i < kWarmup + kOps; ++i) {
    const char byte = 1;
    ASSERT_EQ(::write(fds[1], &byte, 1), 1);
    progress.await(i + 1);
  }
  reactor.stop();
  ::close(fds[0]);
  ::close(fds[1]);
  EXPECT_EQ(seen[kWarmup + kOps - 1] - seen[kWarmup - 1], 0u)
      << "loop-thread allocations over " << kOps << " fd events";
}

TEST(ReactorAllocations, DrainedPostsAllocateNothingOnThePoster) {
  Reactor reactor;
  reactor.start();
  Progress progress;
  std::uint64_t before = 0;
  bool all_posted = true;
  for (int i = 0; i < kWarmup + kOps; ++i) {
    if (i == kWarmup) before = t_allocs;
    all_posted &= reactor.post([progress = &progress] { progress->bump(); });
    progress.await(i + 1);  // drained before the next post
  }
  const std::uint64_t allocs = t_allocs - before;
  reactor.stop();
  EXPECT_TRUE(all_posted);
  EXPECT_EQ(allocs, 0u) << "poster allocations over " << kOps << " posts";
}

}  // namespace
}  // namespace eyw::proto
