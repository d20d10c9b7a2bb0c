// Bounded single-writer durability queue: the only thing standing between
// the dispatch lanes and the disk.
//
// Ingestion threads (dispatch lanes fed by reactor shards) call
// enqueue_record() with an already-canonical frame — an O(1) push under a
// mutex, bounded by max_pending_records/bytes so a dying disk exerts
// backpressure instead of unbounded memory growth. One writer thread owns
// the Journal and does ALL file I/O, one commit window at a time (group
// commit):
//   1. The first job queued while no window is open wakes the writer,
//      which opens a window and sleeps again. Records enqueued inside the
//      window do not wake it.
//   2. The window closes on the first of: a caller blocked in flush() or
//      wait_durable(), a queued checkpoint, shutdown, the queue reaching
//      half of max_pending_records or max_pending_bytes, or
//      max_commit_delay after it opened.
//   3. The writer swaps the whole queue out, appends each run of records
//      between checkpoints with one Journal::append (one writev per
//      segment-sized stretch), shares one fdatasync across the run, and
//      publishes the window durable.
// No commit state survives a cycle: every window ends with everything it
// took synced. Durability stays off the reactor hot path, and the
// journal's off-thread counter (bound to the writer at start) proves the
// invariant mechanically.
//
// Checkpoints ride the same queue as a job kind: because the writer
// processes jobs strictly in order and syncs appended records before
// installing a checkpoint, "checkpoint on disk" implies "every record it
// covers is on disk" — recovery can always trust journal_next.
//
// Error model: the first I/O failure (disk full, fsync failure) latches
// the queue into a failed state — the error rethrows on every subsequent
// enqueue/flush/wait. There is no retry: after a failed fsync the page
// cache's dirty state is unknowable (see util/file_io.hpp), so the only
// honest answer is to stop claiming durability. docs/durability.md has
// the operator runbook.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "storage/journal.hpp"

namespace eyw::storage {

struct DurabilityOptions {
  /// Backpressure bounds: enqueue_record blocks (counting a stall) once
  /// either is exceeded. An empty queue always admits one record, so a
  /// payload above max_pending_bytes on its own waits for the queue to
  /// drain instead of blocking forever.
  std::size_t max_pending_records = 4096;
  std::size_t max_pending_bytes = std::size_t{32} << 20;
  /// Group-commit window: once a job is queued and nobody is blocked on
  /// durability, the writer lets records accumulate this long before it
  /// appends them in one writev and shares one fdatasync, so trickling
  /// submissions share one commit instead of paying one wakeup, write
  /// and fsync each. A waiter (flush/wait_durable), a checkpoint,
  /// shutdown, or the queue reaching half of either pending bound
  /// commits immediately — the window only ever delays durability of
  /// records whose acks made no durability promise yet (batch mode), and
  /// bounds that staleness. Such a record is durable once its window
  /// commits, at the latest at the next barrier flush; until then it sits
  /// in the queue, so a kill -9 loses it just as a power loss would.
  std::chrono::milliseconds max_commit_delay{10};
};

/// Cumulative counters, readable from any thread.
struct DurabilityStats {
  std::uint64_t records = 0;        // records appended by the writer
  std::uint64_t record_bytes = 0;   // their payload bytes
  std::uint64_t batches = 0;        // writer drain cycles that held records
  std::uint64_t fsyncs = 0;         // group-commit fdatasyncs issued
  std::uint64_t checkpoints = 0;    // checkpoint installs completed
  std::uint64_t enqueue_stalls = 0; // enqueues that hit the bound
  /// Journal I/O calls made off the writer thread — the hot-path
  /// invariant is that this is 0 (see Journal::off_thread_io).
  std::uint64_t off_writer_io = 0;
};

class DurabilityQueue {
 public:
  /// Takes ownership of an already-recovered Journal (recovery reads and
  /// repositions it before any writer exists) and starts the writer
  /// thread. `dir` is where checkpoints install (the journal's own dir).
  DurabilityQueue(std::unique_ptr<Journal> journal,
                  DurabilityOptions options = {});

  /// Flushes best-effort and joins the writer.
  ~DurabilityQueue();

  DurabilityQueue(const DurabilityQueue&) = delete;
  DurabilityQueue& operator=(const DurabilityQueue&) = delete;

  /// Queue one record for append+sync; returns the journal index it will
  /// occupy. Blocks only when the backpressure bound is hit. Throws the
  /// latched error if the writer already failed.
  std::uint64_t enqueue_record(std::vector<std::uint8_t> payload);

  /// Queue an encoded checkpoint (encode_checkpoint) covering journal
  /// records < `covers_next`: the writer installs it atomically after
  /// syncing everything queued before it, then truncates covered journal
  /// segments. Returns without waiting — pair with flush() when the
  /// caller needs the install completed.
  void enqueue_checkpoint(std::vector<std::uint8_t> encoded,
                          std::uint64_t covers_next);

  /// Block until every job enqueued before this call is durable (records
  /// synced, checkpoints installed). Rethrows the latched writer error.
  void flush();

  /// Block until record `index` is durable (its group commit completed).
  /// Rethrows the latched writer error.
  void wait_durable(std::uint64_t index);

  /// Index the next enqueue_record will be assigned.
  [[nodiscard]] std::uint64_t next_index() const;

  [[nodiscard]] DurabilityStats stats() const;

 private:
  struct Job {
    std::vector<std::uint8_t> bytes;
    std::uint64_t covers_next = 0;  // checkpoints only
    bool is_checkpoint = false;
  };

  void writer_loop();
  /// The queue holds half of either backpressure bound.
  [[nodiscard]] bool half_full_locked() const noexcept;
  void fail_locked(std::exception_ptr err);
  void rethrow_if_failed_locked() const;

  std::unique_ptr<Journal> journal_;
  DurabilityOptions options_;

  mutable std::mutex mu_;
  std::condition_variable room_cv_;      // enqueue backpressure
  std::condition_variable work_cv_;      // wakes the writer
  std::condition_variable durable_cv_;   // wakes flush/wait_durable
  std::deque<Job> queue_;
  std::size_t queued_bytes_ = 0;
  std::uint64_t next_index_ = 0;         // mirrors journal_->next_index()
  std::uint64_t durable_index_ = 0;      // records < this are synced
  std::uint64_t enqueued_seq_ = 0;       // jobs accepted
  std::uint64_t completed_seq_ = 0;      // jobs made durable
  std::size_t waiters_ = 0;              // threads blocked in flush/wait
  bool window_open_ = false;             // writer is holding a window
  bool checkpoint_queued_ = false;       // queue_ holds a checkpoint
  bool stopping_ = false;
  std::exception_ptr error_;
  DurabilityStats stats_;
  std::thread writer_;
};

}  // namespace eyw::storage
