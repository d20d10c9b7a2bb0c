// DurableBackend: a RoundBackend decorator that makes the round survive
// kill -9.
//
// It wraps any snapshottable backend (BackendServer or BackendCluster)
// and journals the canonical frame bytes of every submission the inner
// backend ACCEPTS — re-encoding the decoded submission reproduces the
// exact wire envelope (sender == participant is enforced both ways), so
// no endpoint-level frame capture is needed and replay re-enters through
// the same decode/validate path as live traffic. All file I/O happens on
// the DurabilityQueue's single writer thread; the threads calling in here
// (dispatch lane workers, or a reactor thread applying an idle lane's
// submission inline) only encode + enqueue.
//
// Durability semantics (docs/durability.md#group-commit):
//   * construction runs crash recovery: newest valid checkpoint restored
//     into the inner backend, journal tail replayed, appends resume;
//   * begin_round installs a fresh checkpoint (the round anchor — replay
//     needs the roster before any record) and truncates prior segments;
//   * submissions enqueue and return (group commit batches the fsyncs);
//     with sync_each_submit the call waits for its record's group commit,
//     making every ack an on-disk guarantee at ~1 fsync per batch;
//   * the protocol's own phase barriers (missing_participants /
//     finalize_round) flush — the round never advances past a
//     non-durable submission;
//   * finalize installs a post-round checkpoint, shrinking the journal
//     to (almost) nothing between rounds.
//
// Thread model mirrors AsyncDispatcher's phase gate: submissions take the
// phase lock shared (lanes run concurrently, the inner backend's own
// contract handles same-shard serialization), control-plane calls take it
// exclusively. Checkpoint snapshots therefore run with no submission
// mid-flight, and the snapshot/enqueue pair is ordered against every
// record enqueued before it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>

#include "server/backend.hpp"
#include "storage/durability_queue.hpp"
#include "storage/recovery.hpp"

namespace eyw::server {

struct DurabilityConfig {
  /// Journal + checkpoint directory (created if missing).
  std::string dir;
  /// Ack ⇒ on disk: submissions wait for their record's group commit.
  /// Off (default), acks return once enqueued and the phase barriers are
  /// the durability points — the paper's round protocol never trusts an
  /// individual ack beyond the next barrier anyway.
  bool sync_each_submit = false;
  /// Install a mid-round checkpoint every N accepted submissions (caps
  /// replay time after a crash); 0 disables mid-round checkpoints.
  std::size_t checkpoint_every_records = 65536;
  /// Paranoia mode for the captured-frame fast path: re-encode every
  /// captured submission and throw if the bytes differ from the canonical
  /// encoding. Costs exactly the re-encode the capture exists to avoid —
  /// for tests asserting the journal format stayed bit-identical, not for
  /// production.
  bool verify_captured_frames = false;
  storage::JournalOptions journal;
  storage::DurabilityOptions queue;
};

class DurableBackend final : public RoundBackend {
 public:
  /// Opens (or creates) the journal directory and RECOVERS: if `inner`
  /// was mid-round when the previous process died, it resumes that round
  /// bit-identical. `inner` must outlive the backend and must not be
  /// mutated around it.
  DurableBackend(RoundBackend& inner, DurabilityConfig config);

  /// Drains (best-effort) and stops the writer.
  ~DurableBackend() override;

  /// What construction-time recovery found.
  [[nodiscard]] const storage::RecoveryReport& recovery() const noexcept {
    return recovery_;
  }

  [[nodiscard]] const BackendConfig& config() const noexcept override {
    return inner_.config();
  }
  void begin_round(std::uint64_t round, std::size_t roster_size) override;
  [[nodiscard]] std::uint64_t current_round() const noexcept override {
    return inner_.current_round();
  }
  [[nodiscard]] bool round_open() const noexcept override {
    return inner_.round_open();
  }
  void submit_report(std::size_t participant_index,
                     std::vector<crypto::BlindCell> blinded_cells) override;
  [[nodiscard]] std::vector<std::size_t> missing_participants() const override;
  void submit_adjustment(std::size_t participant_index,
                         std::vector<crypto::BlindCell> adjustment) override;
  /// Fast path: journal the endpoint's captured wire bytes (a memcpy into
  /// the queue) instead of re-encoding the submission. Bit-identical to
  /// the re-encode by the canonical-encoding invariant — decode enforces
  /// participant == sender, round == the open round, and no trailing
  /// bytes, so an accepted frame IS its own canonical encoding (checked
  /// live under DurabilityConfig::verify_captured_frames).
  void submit_report_frame(std::size_t participant_index,
                           std::vector<crypto::BlindCell> blinded_cells,
                           std::span<const std::uint8_t> frame) override;
  void submit_adjustment_frame(std::size_t participant_index,
                               std::vector<crypto::BlindCell> adjustment,
                               std::span<const std::uint8_t> frame) override;
  [[nodiscard]] RoundResult finalize_round(
      util::ThreadPool* pool = nullptr) override;
  [[nodiscard]] RoundSnapshot snapshot_round() const override;
  void restore_round(const RoundSnapshot& snapshot) override;

  /// Snapshot + install a checkpoint now and wait until it is on disk.
  void checkpoint_now();

  /// Graceful shutdown: install a final checkpoint (when a round is
  /// open) and flush everything. Idempotent; the destructor runs it
  /// error-swallowing.
  void shutdown();

  [[nodiscard]] storage::DurabilityStats stats() const {
    return queue_->stats();
  }

  /// Submissions journaled through the legacy re-encode path (no captured
  /// frame supplied). The stats endpoint surfaces this as
  /// `journal_reencodes`; with the endpoint capture wired it reads 0.
  [[nodiscard]] std::uint64_t journal_reencodes() const noexcept {
    return reencodes_.load(std::memory_order_relaxed);
  }

 private:
  /// Shared tail of every submit path: enqueue the record, honor
  /// sync_each_submit, pace mid-round checkpoints. Consumes `lock` (the
  /// caller's shared phase lock).
  void journal_submission_locked(std::shared_lock<std::shared_mutex>& lock,
                                 std::vector<std::uint8_t> record);
  /// Enqueue a checkpoint of the inner backend's current state. Caller
  /// holds the phase lock exclusively.
  void enqueue_checkpoint_locked();

  RoundBackend& inner_;
  DurabilityConfig config_;
  storage::RecoveryReport recovery_;
  std::unique_ptr<storage::DurabilityQueue> queue_;
  /// Shared: submissions. Exclusive: begin/missing/finalize/checkpoint.
  mutable std::shared_mutex phase_mu_;
  /// Submissions since the last checkpoint (mid-round checkpoint pacing).
  std::atomic<std::size_t> since_checkpoint_{0};
  std::atomic<std::uint64_t> reencodes_{0};
  std::atomic<bool> shut_down_{false};
};

}  // namespace eyw::server
