// What the benchmark reads off Linux /proc: a process's CPU time, thread
// count, peak RSS and open sockets, plus the machine facts every
// results.json records. pid 0 means this process.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>

namespace eyw::bench {

/// CPU time of the process's live threads in ns: the sum of the first
/// field of /proc/<pid>/task/*/schedstat (nanosecond run time, where
/// /proc/<pid>/stat counts 10 ms ticks). Deltas between two reads are
/// exact as long as no thread exits in between.
[[nodiscard]] std::uint64_t proc_cpu_ns(pid_t pid);

/// "Threads:" of /proc/<pid>/status; 0 when unreadable.
[[nodiscard]] std::size_t proc_threads(pid_t pid);

/// "VmHWM:" (peak resident set) of /proc/<pid>/status in KiB.
[[nodiscard]] std::size_t proc_peak_rss_kib(pid_t pid);

/// Sockets the process opened (descriptors above the standard streams).
[[nodiscard]] std::size_t proc_sockets(pid_t pid);

/// "model name" of the first /proc/cpuinfo entry ("unknown" when absent).
[[nodiscard]] std::string cpu_model();

/// CPUs this process may run on (sched_getaffinity).
[[nodiscard]] std::size_t usable_cpus();

/// HEAD commit of the git checkout at `root`, read from .git directly;
/// "unknown" outside a git checkout.
[[nodiscard]] std::string git_sha(const std::string& root);

}  // namespace eyw::bench
