// The server half of the benchmark: `eyw_bench --serve-child ...` runs the
// production server stack in its own process, and ServerChild is the
// generator's handle on that process.
//
// The child never writes to stdout (the generator's stdout carries the
// metric lines). It reports its bound port over an inherited pipe, serves
// until SIGTERM, then drains the stack in dependency order and writes
// server_stats.txt (and, traced, server_spans.bin) into its out dir.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace eyw::bench {

struct ChildOptions {
  std::uint64_t seed = 1;
  std::uint64_t id_space = 10'000;
  /// Non-empty: DurableBackend with group commit in this (fresh) dir.
  std::string journal_dir;
  /// Where the child writes server_stats.txt / server_spans.bin at exit.
  std::string out_dir;
  /// Wrap the stack with the timing decorators (trace.hpp spans).
  bool trace = false;
  /// Span slots preallocated when tracing (frames past it are counted as
  /// dropped, which shows up as lost join coverage).
  std::size_t span_capacity = 0;
};

/// One running server child. Construction fork/execs it and blocks until
/// it listens; stop() (or destruction) ends it.
class ServerChild {
 public:
  explicit ServerChild(const ChildOptions& options);
  ~ServerChild();

  ServerChild(const ServerChild&) = delete;
  ServerChild& operator=(const ServerChild&) = delete;

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] const ChildOptions& options() const noexcept {
    return options_;
  }

  /// SIGTERM, then wait for the child to drain and exit. Throws unless it
  /// exited 0. Idempotent.
  void stop();

  /// The `name value` pairs of the child's server_stats.txt (after stop).
  [[nodiscard]] std::map<std::string, std::string> stats() const;

 private:
  ChildOptions options_;
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// Entry point of `eyw_bench --serve-child ARGS...` (args after the flag).
int serve_child_main(const std::vector<std::string>& args);

}  // namespace eyw::bench
