#include "storage/durability_queue.hpp"

#include <pthread.h>

#include <utility>

#include "storage/checkpoint.hpp"

namespace eyw::storage {

DurabilityQueue::DurabilityQueue(std::unique_ptr<Journal> journal,
                                 DurabilityOptions options)
    : journal_(std::move(journal)), options_(options) {
  next_index_ = journal_->next_index();
  durable_index_ = next_index_;  // everything already on disk is durable
  writer_ = std::thread([this] {
    pthread_setname_np(pthread_self(), "eyw-journal");
    journal_->bind_io_thread(std::this_thread::get_id());
    writer_loop();
  });
}

DurabilityQueue::~DurabilityQueue() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    work_cv_.notify_all();
    room_cv_.notify_all();
    durable_cv_.notify_all();
  }
  if (writer_.joinable()) writer_.join();
}

void DurabilityQueue::rethrow_if_failed_locked() const {
  if (error_) std::rethrow_exception(error_);
}

std::uint64_t DurabilityQueue::enqueue_record(
    std::vector<std::uint8_t> payload) {
  std::unique_lock<std::mutex> lock(mu_);
  rethrow_if_failed_locked();
  // An empty queue always admits one record: a payload above
  // max_pending_bytes on its own can never satisfy the byte bound (the
  // journal accepts records up to the larger max_record_bytes), and
  // without this escape its producer would block forever.
  const auto has_room = [&] {
    return queue_.empty() ||
           (queue_.size() < options_.max_pending_records &&
            queued_bytes_ + payload.size() <= options_.max_pending_bytes);
  };
  if (!has_room()) {
    ++stats_.enqueue_stalls;
    room_cv_.wait(lock, [&] { return stopping_ || error_ || has_room(); });
    rethrow_if_failed_locked();
    if (stopping_)
      throw std::runtime_error("durability queue: stopped during enqueue");
  }
  queued_bytes_ += payload.size();
  queue_.push_back({std::move(payload), 0, false});
  ++enqueued_seq_;
  // An idle writer needs the first job; a writer holding a window needs
  // only the record that fills the queue to half its bound. The records
  // in between ride the window without a wakeup each.
  if (window_open_ ? half_full_locked() : queue_.size() == 1)
    work_cv_.notify_one();
  return next_index_++;
}

void DurabilityQueue::enqueue_checkpoint(std::vector<std::uint8_t> encoded,
                                         std::uint64_t covers_next) {
  std::lock_guard<std::mutex> lock(mu_);
  rethrow_if_failed_locked();
  // Checkpoints bypass the backpressure bound: they shrink disk state
  // and there is at most one outstanding per protocol phase.
  queue_.push_back({std::move(encoded), covers_next, true});
  ++enqueued_seq_;
  checkpoint_queued_ = true;  // closes an open window
  work_cv_.notify_one();
}

void DurabilityQueue::flush() {
  std::unique_lock<std::mutex> lock(mu_);
  rethrow_if_failed_locked();
  const std::uint64_t want = enqueued_seq_;
  if (completed_seq_ >= want) return;
  // Registering as a waiter closes the writer's commit window: it must
  // not hold a batch open while a caller is blocked on durability.
  ++waiters_;
  work_cv_.notify_all();
  durable_cv_.wait(lock,
                   [&] { return error_ || completed_seq_ >= want; });
  --waiters_;
  rethrow_if_failed_locked();
}

void DurabilityQueue::wait_durable(std::uint64_t index) {
  std::unique_lock<std::mutex> lock(mu_);
  rethrow_if_failed_locked();
  if (durable_index_ > index) return;
  ++waiters_;
  work_cv_.notify_all();
  durable_cv_.wait(lock, [&] { return error_ || durable_index_ > index; });
  --waiters_;
  rethrow_if_failed_locked();
}

std::uint64_t DurabilityQueue::next_index() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_index_;
}

DurabilityStats DurabilityQueue::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  DurabilityStats out = stats_;
  out.off_writer_io = journal_->off_thread_io();
  return out;
}

bool DurabilityQueue::half_full_locked() const noexcept {
  return 2 * queue_.size() >= options_.max_pending_records ||
         2 * queued_bytes_ >= options_.max_pending_bytes;
}

void DurabilityQueue::fail_locked(std::exception_ptr err) {
  if (!error_) error_ = std::move(err);
  room_cv_.notify_all();
  durable_cv_.notify_all();
}

void DurabilityQueue::writer_loop() {
  for (;;) {
    std::deque<Job> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, nothing left to commit
      // The commit window: let records accumulate until someone needs
      // durability now, the queue nears its bound, or the delay runs out.
      window_open_ = true;
      work_cv_.wait_for(lock, options_.max_commit_delay, [&] {
        return stopping_ || waiters_ > 0 || checkpoint_queued_ ||
               half_full_locked();
      });
      window_open_ = false;
      // Take the whole window in one swap — the ingest threads
      // immediately see a drained queue (backpressure released).
      batch.swap(queue_);
      queued_bytes_ = 0;
      checkpoint_queued_ = false;
      room_cv_.notify_all();
    }

    std::uint64_t publish = 0;          // jobs this cycle proved durable
    std::uint64_t durable_through = 0;  // 1 + last synced record index
    std::uint64_t records = 0;
    std::uint64_t record_bytes = 0;
    std::uint64_t fsyncs = 0;
    std::uint64_t checkpoints = 0;
    std::vector<std::span<const std::uint8_t>> run;
    // Append the records gathered since the last checkpoint and share
    // one fdatasync across them.
    const auto commit_run = [&] {
      if (run.empty()) return;
      journal_->append(run);
      journal_->sync();
      ++fsyncs;
      publish += run.size();
      durable_through = journal_->next_index();
      run.clear();
    };
    try {
      for (const Job& job : batch) {
        if (!job.is_checkpoint) {
          run.emplace_back(job.bytes);
          ++records;
          record_bytes += job.bytes.size();
          continue;
        }
        // Order inside the stream is the order callers enqueued: sync the
        // records in front of this checkpoint first, so an installed
        // checkpoint never covers un-fsynced records.
        commit_run();
        write_checkpoint_file(journal_->dir(), job.bytes);
        journal_->truncate_through(job.covers_next);
        ++checkpoints;
        ++publish;
      }
      commit_run();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      // Jobs proven durable before the failure still count; the failing
      // job and everything after it surface the latched error.
      completed_seq_ += publish;
      if (durable_through > durable_index_) durable_index_ = durable_through;
      stats_.fsyncs += fsyncs;
      stats_.checkpoints += checkpoints;
      fail_locked(std::current_exception());
      return;
    }

    std::lock_guard<std::mutex> lock(mu_);
    completed_seq_ += publish;
    if (durable_through > durable_index_) durable_index_ = durable_through;
    if (records > 0) ++stats_.batches;
    stats_.records += records;
    stats_.record_bytes += record_bytes;
    stats_.fsyncs += fsyncs;
    stats_.checkpoints += checkpoints;
    durable_cv_.notify_all();
  }
}

}  // namespace eyw::storage
