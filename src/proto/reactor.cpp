#include "proto/reactor.hpp"

#include <pthread.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "proto/wire.hpp"

namespace eyw::proto {

namespace {

[[noreturn]] void throw_io(const char* what) {
  throw ProtoError(ErrorCode::kInternal,
                   std::string(what) + ": " + std::strerror(errno));
}

/// The reactor whose loop runs on this thread (null elsewhere).
thread_local const Reactor* t_loop_reactor = nullptr;

}  // namespace

Reactor::Reactor() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_io("epoll_create1");
  event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (event_fd_ < 0) {
    ::close(epoll_fd_);
    throw_io("eventfd");
  }
  struct epoll_event ev {};
  ev.events = EPOLLIN;
  ev.data.fd = event_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) < 0) {
    ::close(event_fd_);
    ::close(epoll_fd_);
    throw_io("epoll_ctl(eventfd)");
  }
}

Reactor::~Reactor() {
  stop();
  ::close(event_fd_);
  ::close(epoll_fd_);
}

void Reactor::start() {
  wheel_epoch_ = std::chrono::steady_clock::now();
  thread_ = std::thread([this] {
    pthread_setname_np(pthread_self(), "eyw-reactor");
    t_loop_reactor = this;
    loop();
  });
}

void Reactor::stop() {
  {
    std::lock_guard<std::mutex> lock(task_mu_);
    stopped_ = true;
  }
  stopping_.store(true, std::memory_order_relaxed);
  const std::uint64_t one = 1;
  (void)!::write(event_fd_, &one, sizeof(one));
  if (thread_.joinable()) thread_.join();
  // Tasks that raced in before the stop flag but after the loop's last
  // drain are dropped *here*, not at destruction: a dropped closure may
  // carry cleanup in its captures (an fd guard, an exchange completion)
  // that the poster needs to run promptly, inside its own stop sequence.
  std::vector<Task> dropped;
  {
    std::lock_guard<std::mutex> lock(task_mu_);
    dropped.swap(tasks_);
  }
}

void Reactor::add_fd(int fd, std::uint32_t events, EventFn fn) {
  struct epoll_event ev {};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0)
    throw_io("epoll_ctl(add)");
  handlers_[fd] = std::make_shared<EventFn>(std::move(fn));
}

void Reactor::modify_fd(int fd, std::uint32_t events) {
  struct epoll_event ev {};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) < 0)
    throw_io("epoll_ctl(mod)");
}

void Reactor::remove_fd(int fd) {
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

bool Reactor::post(Task task) {
  {
    std::lock_guard<std::mutex> lock(task_mu_);
    if (stopped_) return false;
    tasks_.push_back(std::move(task));
  }
  const std::uint64_t one = 1;
  (void)!::write(event_fd_, &one, sizeof(one));
  return true;
}

bool Reactor::on_loop_thread() const noexcept {
  return t_loop_reactor == this;
}

Reactor::TimerId Reactor::add_deadline(std::chrono::milliseconds delay,
                                       Task fn) {
  if (delay.count() < 0) delay = std::chrono::milliseconds(0);
  // Anchor on the wall clock, not ticks_done_ (which may lag after a busy
  // iteration), and round up: a deadline never fires early, and the
  // minimum is one tick.
  const auto target = std::chrono::steady_clock::now() + delay - wheel_epoch_;
  std::uint64_t fire_tick =
      static_cast<std::uint64_t>((target + kTickMs - target % kTickMs) /
                                 kTickMs);
  if (fire_tick <= ticks_done_) fire_tick = ticks_done_ + 1;
  const TimerId id = next_timer_++;
  wheel_[fire_tick % kWheelSlots].push_back(
      TimerEntry{.id = id, .fire_tick = fire_tick, .fn = std::move(fn)});
  live_ticks_.insert(fire_tick);
  return id;
}

void Reactor::cancel_deadline(TimerId id) { cancelled_.insert(id); }

int Reactor::epoll_timeout_ms() const {
  if (live_ticks_.empty()) return -1;  // nothing timed: sleep until woken
  // Sleep until the earliest armed deadline, not the next wheel tick — a
  // 30 s io_timeout must not cost 3000 idle wakeups.
  const auto wake_at = wheel_epoch_ + *live_ticks_.begin() * kTickMs;
  const auto now = std::chrono::steady_clock::now();
  if (wake_at <= now) return 0;
  const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
                        wake_at - now) +
                    std::chrono::milliseconds(1);
  return static_cast<int>(wait.count());
}

void Reactor::advance_wheel() {
  const auto now = std::chrono::steady_clock::now();
  if (live_ticks_.empty()) {
    // Empty wheel: fast-forward so a long idle period is not replayed
    // tick by tick when the next deadline arms.
    const auto elapsed = now - wheel_epoch_;
    ticks_done_ = static_cast<std::uint64_t>(elapsed / kTickMs);
    return;
  }
  while (wheel_epoch_ + (ticks_done_ + 1) * kTickMs <= now) {
    ++ticks_done_;
    auto& slot = wheel_[ticks_done_ % kWheelSlots];
    for (std::size_t i = 0; i < slot.size();) {
      TimerEntry& entry = slot[i];
      if (const auto it = cancelled_.find(entry.id);
          it != cancelled_.end()) {
        cancelled_.erase(it);
        live_ticks_.erase(live_ticks_.find(entry.fire_tick));
        slot[i] = std::move(slot.back());
        slot.pop_back();
        continue;
      }
      if (entry.fire_tick <= ticks_done_) {
        Task fn = std::move(entry.fn);  // move out: fn may re-enter the wheel
        live_ticks_.erase(live_ticks_.find(entry.fire_tick));
        slot[i] = std::move(slot.back());
        slot.pop_back();
        try {
          fn();
        } catch (...) {
          // Same policy as fd callbacks: a deadline handler's failure
          // never kills the loop.
        }
        continue;
      }
      ++i;
    }
    if (live_ticks_.empty()) break;
  }
}

void Reactor::run_posted() {
  {
    std::lock_guard<std::mutex> lock(task_mu_);
    running_.swap(tasks_);
  }
  for (Task& task : running_) {
    try {
      task();
    } catch (...) {
      // Same policy as fd callbacks: one task's failure never kills the
      // loop.
    }
  }
  running_.clear();  // keeps capacity: the next swap hands it to post()
}

void Reactor::loop() {
  struct epoll_event events[64];
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int n = ::epoll_wait(epoll_fd_, events, 64, epoll_timeout_ms());
    if (n < 0 && errno != EINTR) break;  // epoll fd broken: nothing to do
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == event_fd_) {
        std::uint64_t drain = 0;
        (void)!::read(event_fd_, &drain, sizeof(drain));
        wakeups_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;  // removed earlier in this batch
      // Hold a reference: the callback may remove_fd(fd), dropping the
      // stored handler while it executes.
      const std::shared_ptr<EventFn> fn = it->second;
      try {
        (*fn)(events[i].events);
      } catch (...) {
        // A throwing callback (e.g. bad_alloc on a cap-sized frame
        // buffer) must never take down the loop serving every other
        // connection; callers install their own narrower handlers to
        // drop the offending connection.
      }
    }
    run_posted();
    advance_wheel();
  }
}

}  // namespace eyw::proto
