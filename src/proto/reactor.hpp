// A single-threaded epoll event loop: the concurrency primitive under the
// reactor-mode FrameServer. One Reactor = one OS thread multiplexing any
// number of non-blocking fds, so a thousand idle connections cost a
// thousand epoll registrations instead of a thousand blocked threads.
//
// Three facilities, all dispatched on the loop thread:
//   * fd readiness  — add_fd/modify_fd/remove_fd with a per-fd callback
//     receiving the epoll event mask (level-triggered);
//   * cross-thread tasks — post() enqueues a closure and wakes the loop
//     through an eventfd (how the acceptor hands over fresh connections
//     and how async handler completions from other threads marshal
//     replies back);
//   * deadlines — a hashed timing wheel (kWheelSlots × kTickMs) for the
//     per-exchange timeouts: arming and cancelling are O(1), which
//     matters when every in-flight frame on every connection carries one.
//
// Threading contract: add_fd/modify_fd/remove_fd and the deadline calls
// are loop-thread-only (callbacks and posted tasks run there); post(),
// stop() and on_loop_thread() are safe from any thread. post() after
// stop() drops the task and returns false — late completions for a
// torn-down server are no-ops, not use-after-frees.
//
// Steady state allocates nothing on either side: an fd event calls its
// handler through a shared_ptr copy (not a std::function copy, which
// heap-allocates for any capture above 16 bytes), and the drained task
// batch keeps its capacity for the next post() (tests/alloc).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace eyw::proto {

class Reactor {
 public:
  using EventFn = std::function<void(std::uint32_t epoll_events)>;
  using Task = std::function<void()>;
  using TimerId = std::uint64_t;

  Reactor();
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Spawn the loop thread. Call once.
  void start();

  /// Ask the loop to exit and join it. Idempotent; safe from any thread
  /// except the loop thread itself. Registered fds are NOT closed — their
  /// owner closes them after stop() returns.
  void stop();

  /// Register `fd` (already non-blocking) for `events`
  /// (EPOLLIN/EPOLLOUT/...; level-triggered). `fn` runs on the loop
  /// thread with the ready mask.
  void add_fd(int fd, std::uint32_t events, EventFn fn);
  void modify_fd(int fd, std::uint32_t events);
  /// Deregister; does not close the fd.
  void remove_fd(int fd);

  /// Run `task` on the loop thread (FIFO with other posted tasks), waking
  /// the loop if idle. Returns false (dropping the task) once stopped.
  bool post(Task task);

  /// True when the caller is this reactor's loop thread — i.e. inside one
  /// of its fd callbacks, posted tasks or deadlines.
  [[nodiscard]] bool on_loop_thread() const noexcept;

  /// Arm a deadline ~`delay` from now (rounded up to wheel granularity).
  /// Loop-thread-only, like cancel_deadline.
  TimerId add_deadline(std::chrono::milliseconds delay, Task fn);
  void cancel_deadline(TimerId id);

  /// Times the loop was woken through the eventfd (posted tasks and
  /// stop()), i.e. cross-thread wakeups as opposed to fd readiness or
  /// deadline expiry. Exposed so transport stats can show how much
  /// cross-thread marshalling a workload causes.
  [[nodiscard]] std::uint64_t eventfd_wakeups() const noexcept {
    return wakeups_.load(std::memory_order_relaxed);
  }

  static constexpr std::size_t kWheelSlots = 256;
  static constexpr std::chrono::milliseconds kTickMs{10};

 private:
  struct TimerEntry {
    TimerId id;
    std::uint64_t fire_tick;
    Task fn;
  };

  void loop();
  void run_posted();
  void advance_wheel();
  [[nodiscard]] int epoll_timeout_ms() const;

  int epoll_fd_ = -1;
  int event_fd_ = -1;
  std::thread thread_;

  std::mutex task_mu_;  // guards tasks_ and stopped_
  std::vector<Task> tasks_;
  bool stopped_ = false;
  /// The batch run_posted() is draining (loop thread only). Swapped with
  /// tasks_ and cleared, never freed, so both vectors keep their capacity.
  std::vector<Task> running_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> wakeups_{0};

  // Loop-thread-only state. Handlers are shared so the loop can hold the
  // one it is calling while that callback remove_fd()s itself.
  std::unordered_map<int, std::shared_ptr<EventFn>> handlers_;
  std::vector<TimerEntry> wheel_[kWheelSlots];
  std::unordered_set<TimerId> cancelled_;
  /// Fire ticks of every entry still in the wheel (including
  /// cancelled-but-unswept ones): the loop sleeps until the earliest
  /// instead of waking every tick while anything is armed.
  std::multiset<std::uint64_t> live_ticks_;
  std::chrono::steady_clock::time_point wheel_epoch_;
  std::uint64_t ticks_done_ = 0;
  TimerId next_timer_ = 1;
};

}  // namespace eyw::proto
