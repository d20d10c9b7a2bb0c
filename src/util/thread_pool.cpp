#include "util/thread_pool.hpp"

#include <pthread.h>

#include <atomic>
#include <exception>
#include <memory>

namespace eyw::util {

struct ThreadPool::Batch {
  std::size_t n = 0;
  std::size_t grain = 1;
  std::size_t total_chunks = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<std::size_t> done_chunks{0};
  std::mutex done_mu;
  std::condition_variable done_cv;
  std::exception_ptr error;  // first exception; guarded by done_mu
  std::atomic<bool> has_error{false};

  [[nodiscard]] bool exhausted() const noexcept {
    return next_chunk.load(std::memory_order_relaxed) >= total_chunks;
  }

  /// Claim and run chunks until none remain. Safe to call from any number
  /// of threads; each chunk runs exactly once.
  void help() {
    for (;;) {
      const std::size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= total_chunks) return;
      const std::size_t begin = c * grain;
      const std::size_t end = std::min(n, begin + grain);
      try {
        for (std::size_t i = begin; i < end; ++i) (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(done_mu);
        if (!has_error.exchange(true)) error = std::current_exception();
      }
      if (done_chunks.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          total_chunks) {
        std::lock_guard<std::mutex> lock(done_mu);
        done_cv.notify_all();
      }
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this] {
      pthread_setname_np(pthread_self(), "eyw-pool");
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] {
        return stopping_ || (batch_ && !batch_->exhausted());
      });
      if (stopping_) return;
      batch = batch_;
    }
    batch->help();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t grain) {
  if (n == 0) return;
  // One batch in flight at a time: a nested or concurrent call (a job that
  // itself fans out) runs inline instead of corrupting the active batch.
  bool expected = false;
  if (workers_.empty() || n == 1 ||
      !busy_.compare_exchange_strong(expected, true)) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  if (grain == 0) grain = std::max<std::size_t>(1, n / (4 * size()));

  auto batch = std::make_shared<Batch>();
  batch->n = n;
  batch->grain = grain;
  batch->total_chunks = (n + grain - 1) / grain;
  batch->fn = &fn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    batch_ = batch;
  }
  work_cv_.notify_all();

  batch->help();  // the caller is one of the threads
  {
    std::unique_lock<std::mutex> lock(batch->done_mu);
    batch->done_cv.wait(lock, [&batch] {
      return batch->done_chunks.load(std::memory_order_acquire) ==
             batch->total_chunks;
    });
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    batch_.reset();
  }
  busy_.store(false);
  if (batch->has_error) std::rethrow_exception(batch->error);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

}  // namespace eyw::util
