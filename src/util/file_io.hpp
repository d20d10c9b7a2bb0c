// EINTR-hardened POSIX file helpers: the durability layer's only way of
// touching a file descriptor.
//
// Discipline (the same one proto/raw_frame_io.hpp applies to sockets):
// the EINTR check is gated on n < 0 — errno is only meaningful after a
// *failing* call, so a stale EINTR from an earlier syscall must never
// turn a zero-progress return into a spin. A write(2) returning 0 is
// treated as an error (no progress on a regular file means something is
// deeply wrong); a read(2) returning 0 is EOF and ends the loop. A short
// write(2)/writev(2) — a signal, a file-size limit, a full disk — is
// resumed from the first byte it did not write.
//
// fsync helpers restart on EINTR too; note that after fsync fails the
// kernel may have already dropped the dirty pages (the famous
// fsync-retry trap), so callers treat a false return as "this file's
// durability is unknown" and fail the journal hard rather than retrying.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

struct iovec;

namespace eyw::util {

/// Write all of `bytes` at the fd's current offset. False on any error
/// (errno left from the failing call).
[[nodiscard]] bool full_write(int fd, std::span<const std::uint8_t> bytes) noexcept;

/// Gathered full_write: all bytes of `iov`, in order, at most IOV_MAX
/// entries per writev(2). `iov` is consumed — on return it describes the
/// bytes not yet written (empty entries on success), so a short write
/// resumes mid-entry. False on any error (errno left from the failing
/// call).
[[nodiscard]] bool full_writev(int fd, std::span<struct iovec> iov) noexcept;

/// Read up to `size` bytes into `out`, looping until `size` bytes or EOF.
/// Returns bytes read (< size means EOF), or -1 on error.
[[nodiscard]] std::ptrdiff_t full_read(int fd, std::uint8_t* out,
                                       std::size_t size) noexcept;

/// fsync(2) restarted on EINTR. False on failure — see the header note on
/// why a failed fsync must not be retried.
[[nodiscard]] bool full_fsync(int fd) noexcept;

/// fdatasync(2) restarted on EINTR (data + size, not timestamps — what a
/// group commit needs).
[[nodiscard]] bool full_fdatasync(int fd) noexcept;

/// Make a directory entry durable: open(dir, O_RDONLY) + fsync + close.
/// Required after rename(2) or file creation for the *name* to survive a
/// crash — fsync on the file alone only covers its contents.
[[nodiscard]] bool fsync_dir(const std::string& dir) noexcept;

}  // namespace eyw::util
