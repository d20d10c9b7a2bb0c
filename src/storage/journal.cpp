#include "storage/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "util/crc32.hpp"
#include "util/file_io.hpp"

namespace eyw::storage {

namespace {

namespace fs = std::filesystem;

void put_u16(std::uint8_t* out, std::uint16_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
}

void put_u32(std::uint8_t* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void put_u64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint16_t get_u16(const std::uint8_t* in) {
  return static_cast<std::uint16_t>(in[0] | (in[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(in[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return v;
}

[[noreturn]] void io_fail(const std::string& what) {
  throw std::runtime_error("journal: " + what + ": " +
                           std::strerror(errno));
}

std::string segment_name(std::uint64_t base) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "wal-%020llu.seg",
                static_cast<unsigned long long>(base));
  return buf;
}

/// Parse "wal-<20 digits>.seg"; false on anything else (a tmp file, a
/// checkpoint, an editor backup in the directory).
bool parse_segment_name(const std::string& name, std::uint64_t* base) {
  if (name.size() != 4 + 20 + 4 || name.rfind("wal-", 0) != 0 ||
      name.compare(name.size() - 4, 4, ".seg") != 0)
    return false;
  std::uint64_t v = 0;
  for (std::size_t i = 4; i < 24; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *base = v;
  return true;
}

std::vector<std::uint8_t> read_whole_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) io_fail("open " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    io_fail("fstat " + path);
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(st.st_size));
  const std::ptrdiff_t n = util::full_read(fd, bytes.data(), bytes.size());
  ::close(fd);
  if (n < 0 || static_cast<std::size_t>(n) != bytes.size())
    io_fail("read " + path);
  return bytes;
}

/// Validate a segment header; returns the record-stream start offset.
/// Throws std::runtime_error on a header that cannot be v1-parsed (a
/// journal directory whose *headers* are damaged is an operator problem,
/// not a torn tail).
std::size_t validate_header(std::span<const std::uint8_t> file,
                            std::uint64_t expected_base,
                            const std::string& path) {
  if (file.size() < kSegmentHeaderBytes)
    throw std::runtime_error("journal: short segment header in " + path);
  if (get_u32(file.data()) != kJournalMagic)
    throw std::runtime_error("journal: bad magic in " + path);
  if (get_u16(file.data() + 4) != kJournalVersion)
    throw std::runtime_error("journal: unsupported version in " + path);
  const std::size_t hdr_len = get_u16(file.data() + 6);
  if (hdr_len < kSegmentHeaderBytes || hdr_len > file.size())
    throw std::runtime_error("journal: bad header length in " + path);
  if (get_u64(file.data() + 8) != expected_base)
    throw std::runtime_error("journal: base mismatch in " + path);
  return hdr_len;
}

struct ParseResult {
  std::uint64_t records = 0;
  std::size_t valid_end = 0;  // offset just past the last valid record
};

/// Walk the record stream from `offset`; stops at the first record that
/// is incomplete, zero-length, oversized, or CRC-mismatched. `fn` (when
/// non-null) sees each valid payload in order.
ParseResult parse_records(
    std::span<const std::uint8_t> file, std::size_t offset,
    std::size_t max_record_bytes,
    const std::function<void(std::span<const std::uint8_t>)>* fn) {
  ParseResult out;
  out.valid_end = offset;
  while (file.size() - out.valid_end >= kRecordHeaderBytes) {
    const std::uint8_t* rec = file.data() + out.valid_end;
    const std::uint32_t length = get_u32(rec);
    if (length == 0 || length > max_record_bytes) break;
    if (file.size() - out.valid_end - kRecordHeaderBytes < length) break;
    const std::uint32_t want_crc = get_u32(rec + 4);
    const std::span<const std::uint8_t> payload{rec + kRecordHeaderBytes,
                                                length};
    if (util::crc32(payload) != want_crc) break;
    if (fn != nullptr) (*fn)(payload);
    ++out.records;
    out.valid_end += kRecordHeaderBytes + length;
  }
  return out;
}

}  // namespace

Journal::Journal(std::string dir, JournalOptions options)
    : dir_(std::move(dir)), options_(options) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec)
    throw std::runtime_error("journal: cannot create " + dir_ + ": " +
                             ec.message());
  open_tail_for_append(scan_segments());
}

Journal::~Journal() { close_segment(); }

void Journal::note_io_thread() noexcept {
  if (io_thread_ != std::thread::id{} &&
      std::this_thread::get_id() != io_thread_)
    off_thread_io_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<Journal::Segment> Journal::scan_segments() const {
  std::vector<Segment> segments;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    std::uint64_t base = 0;
    if (parse_segment_name(entry.path().filename().string(), &base))
      segments.push_back({base, entry.path().string()});
  }
  if (ec)
    throw std::runtime_error("journal: cannot scan " + dir_ + ": " +
                             ec.message());
  std::sort(segments.begin(), segments.end(),
            [](const Segment& a, const Segment& b) { return a.base < b.base; });
  return segments;
}

void Journal::open_tail_for_append(const std::vector<Segment>& segments) {
  if (segments.empty()) return;  // fresh dir: first append creates wal-0
  const Segment& tail = segments.back();
  const std::vector<std::uint8_t> file = read_whole_file(tail.path);
  const std::size_t hdr_len = validate_header(file, tail.base, tail.path);
  const ParseResult parsed =
      parse_records(file, hdr_len, options_.max_record_bytes, nullptr);

  fd_ = ::open(tail.path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd_ < 0) io_fail("open " + tail.path);
  // Truncate the torn tail a crash mid-append left behind, so new records
  // extend a clean prefix instead of being buried behind garbage.
  if (parsed.valid_end < file.size()) {
    if (::ftruncate(fd_, static_cast<off_t>(parsed.valid_end)) != 0)
      io_fail("ftruncate " + tail.path);
  }
  if (::lseek(fd_, static_cast<off_t>(parsed.valid_end), SEEK_SET) < 0)
    io_fail("lseek " + tail.path);
  tail_base_ = tail.base;
  tail_bytes_ = parsed.valid_end;
  next_index_ = tail.base + parsed.records;
}

void Journal::start_segment(std::uint64_t base) {
  const std::string path = dir_ + "/" + segment_name(base);
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) io_fail("create " + path);
  std::uint8_t header[kSegmentHeaderBytes];
  put_u32(header, kJournalMagic);
  put_u16(header + 4, kJournalVersion);
  put_u16(header + 6, static_cast<std::uint16_t>(kSegmentHeaderBytes));
  put_u64(header + 8, base);
  if (!util::full_write(fd_, header)) io_fail("write header " + path);
  // fdatasync on the fd persists the file's contents, not its directory
  // entry: persist the entry now, so a power loss cannot vanish a whole
  // segment whose records sync() later promises durable.
  if (!util::fsync_dir(dir_)) io_fail("fsync dir " + dir_);
  tail_base_ = base;
  tail_bytes_ = kSegmentHeaderBytes;
}

void Journal::close_segment() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void Journal::sync_and_retire_segment() {
  if (fd_ < 0) return;
  // sync() can only reach the fd it holds: a segment must be made
  // durable *before* it is retired, or a group commit spanning the
  // rotation would publish records that still sit in the page cache.
  if (!util::full_fdatasync(fd_)) io_fail("fdatasync " + dir_);
  ++data_syncs_;
  close_segment();
}

std::uint64_t Journal::append(
    std::span<const std::span<const std::uint8_t>> run) {
  note_io_thread();
  const auto refusal = [&](std::span<const std::uint8_t> payload) {
    return payload.empty()                               ? "empty record"
           : payload.size() > options_.max_record_bytes ? "record above cap"
                                                         : nullptr;
  };
  const std::uint64_t first = next_index_;
  std::uint8_t headers[kRunRecordsPerWrite][kRecordHeaderBytes];
  struct iovec iov[2 * kRunRecordsPerWrite];
  std::size_t i = 0;
  while (i < run.size()) {
    if (const char* why = refusal(run[i]))
      throw std::invalid_argument(std::string("journal: ") + why);
    if (fd_ >= 0 && tail_bytes_ >= options_.segment_bytes)
      sync_and_retire_segment();
    if (fd_ < 0) start_segment(next_index_);

    // Gather records while the segment is below its rotation size — the
    // point where one-at-a-time appends would rotate ends the writev.
    std::size_t n = 0;
    std::size_t bytes = 0;
    do {
      const std::span<const std::uint8_t> payload = run[i + n];
      put_u32(headers[n], static_cast<std::uint32_t>(payload.size()));
      put_u32(headers[n] + 4, util::crc32(payload));
      iov[2 * n] = {headers[n], kRecordHeaderBytes};
      iov[2 * n + 1] = {const_cast<std::uint8_t*>(payload.data()),
                        payload.size()};
      bytes += kRecordHeaderBytes + payload.size();
      ++n;
    } while (i + n < run.size() && n < kRunRecordsPerWrite &&
             tail_bytes_ + bytes < options_.segment_bytes &&
             refusal(run[i + n]) == nullptr);
    // A crash mid-writev leaves a prefix of the gathered records, the
    // last possibly torn — parse_records drops a torn tail either way.
    if (!util::full_writev(fd_, {iov, 2 * n})) io_fail("append to " + dir_);
    tail_bytes_ += bytes;
    bytes_appended_ += bytes - n * kRecordHeaderBytes;
    next_index_ += n;
    i += n;
  }
  return first;
}

void Journal::sync() {
  note_io_thread();
  if (fd_ < 0) return;
  if (!util::full_fdatasync(fd_)) io_fail("fdatasync " + dir_);
  ++data_syncs_;
}

void Journal::reserve_through(std::uint64_t index) {
  note_io_thread();
  if (index <= next_index_) return;
  // The new base has no physical records behind it, so it must open a
  // fresh segment: record indices are implicit (base + position), and a
  // gap inside one segment would shift every later index. Retiring via
  // sync also persists the torn-tail ftruncate open_tail_for_append did.
  sync_and_retire_segment();
  next_index_ = index;
}

void Journal::truncate_through(std::uint64_t index) {
  note_io_thread();
  const std::vector<Segment> segments = scan_segments();
  bool removed = false;
  for (std::size_t s = 0; s < segments.size(); ++s) {
    // A segment's records end where the next one begins; the last runs to
    // next_index(). Only delete fully-covered segments, and never the
    // active tail — it carries the on-disk base for the next append.
    const std::uint64_t end =
        s + 1 < segments.size() ? segments[s + 1].base : next_index_;
    if (end > index) break;
    if (fd_ >= 0 && segments[s].base == tail_base_) break;
    std::error_code ec;
    fs::remove(segments[s].path, ec);
    if (ec)
      throw std::runtime_error("journal: cannot remove " + segments[s].path +
                               ": " + ec.message());
    removed = true;
  }
  // Make the deletions durable: a checkpoint-then-crash must not revive
  // segments whose records the checkpoint already covers (replaying them
  // would double-count).
  if (removed && !util::fsync_dir(dir_)) io_fail("fsync dir " + dir_);
}

Journal::ReplayStats Journal::replay(
    std::uint64_t from,
    const std::function<void(std::uint64_t,
                             std::span<const std::uint8_t>)>& fn) const {
  ReplayStats stats;
  const std::vector<Segment> segments = scan_segments();
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const std::vector<std::uint8_t> file = read_whole_file(segments[s].path);
    const std::size_t hdr_len =
        validate_header(file, segments[s].base, segments[s].path);
    std::uint64_t index = segments[s].base;
    const std::function<void(std::span<const std::uint8_t>)> deliver =
        [&](std::span<const std::uint8_t> payload) {
          if (index >= from) {
            fn(index, payload);
            ++stats.records;
          }
          ++index;
        };
    const ParseResult parsed =
        parse_records(file, hdr_len, options_.max_record_bytes, &deliver);
    if (parsed.valid_end < file.size()) {
      stats.torn_bytes += file.size() - parsed.valid_end;
      // A torn tail is only benign on the final segment: anything after
      // it means records were lost *in the middle* of the stream.
      if (s + 1 < segments.size()) stats.clean = false;
    }
    // Contiguity: the next segment must start exactly where this one's
    // valid records end, or part of the stream is missing. One exception:
    // recovery's reserve_through() legitimately opens a fresh segment
    // past indices only the checkpoint holds, so a *forward* jump whose
    // skipped indices all sit below `from` (i.e. under checkpoint
    // coverage) is that reservation, not damage.
    if (s + 1 < segments.size() &&
        segments[s + 1].base != segments[s].base + parsed.records) {
      const bool reserved_gap =
          segments[s + 1].base > segments[s].base + parsed.records &&
          segments[s + 1].base <= from;
      if (!reserved_gap) stats.clean = false;
    }
  }
  return stats;
}

}  // namespace eyw::storage
