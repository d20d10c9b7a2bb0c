// Segmented write-ahead journal of accepted submission frames.
//
// The round's durable log is a directory of append-only segment files.
// Record payloads are the *canonical wire frames* the backend already
// accepted ('EYWP' BlindedReport / Adjustment envelopes — re-encoding a
// decoded submission reproduces the exact bytes, so replay goes through
// the same decode/validate path as live traffic). The journal itself is
// payload-agnostic: length-prefixed records with a per-record CRC-32
// under a versioned segment header.
//
// On-disk layout (all integers little-endian):
//   segment file  wal-<base>.seg   (<base> = 20-digit decimal first
//                                   record index — lexicographic order ==
//                                   numeric order)
//     header   magic   u32  'EYWJ'
//              version u16  (currently 1)
//              hdr_len u16  (16; lets v2 grow the header)
//              base    u64  (index of the segment's first record)
//     records  length  u32  (payload bytes; 0 is illegal — a zeroed
//                            region never parses as an empty record)
//              crc32   u32  (CRC-32 of the payload bytes)
//              payload u8[length]
//
// Torn-tail semantics: a crash mid-append leaves a record whose length,
// payload, or CRC is incomplete. Replay parses each segment's record
// stream and stops at the first invalid record — a torn tail in the
// *last* segment is expected damage (the un-fsynced write the crash
// interrupted) and is truncated away when the journal reopens for
// appending; garbage in any earlier position is reported as unclean.
//
// Threading: none. One thread owns a Journal (the DurabilityQueue's
// writer); bind_io_thread() lets that owner assert the invariant — every
// append/sync/truncate from any other thread bumps a counter the tests
// (and the bench table) check stays zero. Replay is read-only and runs
// before the writer starts.
#pragma once

#include <atomic>
#include <climits>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <vector>

namespace eyw::storage {

inline constexpr std::uint32_t kJournalMagic = 0x4A575945;  // "EYWJ"
inline constexpr std::uint16_t kJournalVersion = 1;
inline constexpr std::size_t kSegmentHeaderBytes = 16;
inline constexpr std::size_t kRecordHeaderBytes = 8;
/// Records per writev: each takes two iovecs (header, payload).
inline constexpr std::size_t kRunRecordsPerWrite = IOV_MAX / 2;

struct JournalOptions {
  /// Rotate to a fresh segment once the current one reaches this size.
  std::size_t segment_bytes = std::size_t{8} << 20;
  /// Per-record payload cap, checked before any replay allocation (a
  /// corrupt length field must not drive a huge allocation). Matches the
  /// proto payload cap's order of magnitude.
  std::size_t max_record_bytes = std::size_t{1} << 28;
};

class Journal {
 public:
  /// Opens `dir` (created if missing) for appending: scans existing
  /// segments, finds the end of the valid record stream, and truncates a
  /// torn tail off the last segment so new appends extend a clean
  /// prefix. Throws std::runtime_error on I/O failure or an unreadable
  /// segment header.
  explicit Journal(std::string dir, JournalOptions options = {});
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// Index the next append() will return.
  [[nodiscard]] std::uint64_t next_index() const noexcept {
    return next_index_;
  }

  /// Append one record per payload, in order; returns the first one's
  /// index. Each stretch of the run that fits the current segment goes
  /// out in one writev (at most kRunRecordsPerWrite records per call),
  /// with the same records, bytes and rotation points as appending the
  /// payloads one at a time. No durability — call sync(). Throws
  /// std::runtime_error on I/O failure and std::invalid_argument on an
  /// empty/oversized payload, after the records before it have landed.
  std::uint64_t append(std::span<const std::span<const std::uint8_t>> run);

  /// Append one record; returns its index. The one-element run.
  std::uint64_t append(std::span<const std::uint8_t> payload) {
    return append({&payload, 1});
  }

  /// fdatasync the segment holding the records appended so far. Throws
  /// std::runtime_error on failure (see util/file_io.hpp on why a failed
  /// fsync is terminal).
  void sync();

  /// Advance next_index() to at least `index` without writing records:
  /// closes the current segment so the next append opens a fresh one
  /// based at the new index. Recovery uses this when a checkpoint covers
  /// records the journal never made durable — new appends must not reuse
  /// indices the checkpoint already accounts for.
  void reserve_through(std::uint64_t index);

  /// Delete segments whose every record index is < `index` (i.e. fully
  /// covered by a checkpoint). The active tail segment survives even
  /// when fully covered, so the on-disk base always reflects
  /// next_index(). Throws std::runtime_error on I/O failure.
  void truncate_through(std::uint64_t index);

  struct ReplayStats {
    std::uint64_t records = 0;      // records delivered to the callback
    std::uint64_t torn_bytes = 0;   // trailing bytes dropped as torn
    bool clean = true;              // false: damage *before* the tail
  };

  /// Visit every record with index >= `from`, in index order. The span is
  /// only valid inside the callback. Read-only (safe before the writer
  /// thread starts). `from` also marks checkpoint coverage for the
  /// cleanliness check: an inter-segment index gap entirely below `from`
  /// is the reserve_through() reservation recovery itself creates, not
  /// mid-stream damage.
  ReplayStats replay(
      std::uint64_t from,
      const std::function<void(std::uint64_t index,
                               std::span<const std::uint8_t> payload)>& fn)
      const;

  /// Declare the one thread allowed to perform journal I/O from now on.
  void bind_io_thread(std::thread::id id) noexcept { io_thread_ = id; }

  /// Appends/syncs/truncates that ran on a thread other than the bound
  /// one (0 until bind_io_thread; the hot-path invariant is that this
  /// stays 0 — reactor and dispatch threads enqueue, they never touch
  /// the journal).
  [[nodiscard]] std::uint64_t off_thread_io() const noexcept {
    return off_thread_io_.load(std::memory_order_relaxed);
  }

  /// Total payload bytes appended through this handle.
  [[nodiscard]] std::uint64_t bytes_appended() const noexcept {
    return bytes_appended_;
  }

  /// fdatasyncs issued through this handle — explicit sync() calls plus
  /// the implicit sync segment rotation performs before retiring an fd
  /// (a retired segment is unreachable by sync(), so rotation must make
  /// it durable itself; tests pin that contract here).
  [[nodiscard]] std::uint64_t data_syncs() const noexcept {
    return data_syncs_;
  }

 private:
  struct Segment {
    std::uint64_t base = 0;
    std::string path;
  };

  void note_io_thread() noexcept;
  /// Sorted segment list from a directory scan.
  [[nodiscard]] std::vector<Segment> scan_segments() const;
  void open_tail_for_append(const std::vector<Segment>& segments);
  void start_segment(std::uint64_t base);
  void close_segment() noexcept;
  /// fdatasync the active segment, then close it. Rotation and index
  /// reservation retire fds through this, never close_segment() alone —
  /// records already appended must be durable before their fd becomes
  /// unreachable. Throws on sync failure.
  void sync_and_retire_segment();

  std::string dir_;
  JournalOptions options_;
  int fd_ = -1;                   // active tail segment (append position)
  std::uint64_t tail_base_ = 0;   // base index of the active segment
  std::size_t tail_bytes_ = 0;    // its current size
  std::uint64_t next_index_ = 0;
  std::uint64_t bytes_appended_ = 0;
  std::uint64_t data_syncs_ = 0;
  std::thread::id io_thread_{};
  std::atomic<std::uint64_t> off_thread_io_{0};
};

}  // namespace eyw::storage
