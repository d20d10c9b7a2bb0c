#include "proc.hpp"

#include <sched.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

namespace eyw::bench {

namespace {

std::string proc_path(pid_t pid, const char* leaf) {
  return pid == 0 ? std::string("/proc/self/") + leaf
                  : "/proc/" + std::to_string(pid) + "/" + leaf;
}

/// First number after `key` on the matching line of /proc/<pid>/status.
std::size_t status_field(pid_t pid, const std::string& key) {
  std::ifstream in(proc_path(pid, "status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    std::istringstream rest(line.substr(key.size()));
    std::size_t value = 0;
    rest >> value;
    return value;
  }
  return 0;
}

std::string read_first_line(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

}  // namespace

std::uint64_t proc_cpu_ns(pid_t pid) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator(proc_path(pid, "task"), ec)) {
    std::ifstream in(task.path() / "schedstat");
    std::uint64_t run_ns = 0;
    if (in >> run_ns) total += run_ns;
  }
  return total;
}

std::size_t proc_threads(pid_t pid) { return status_field(pid, "Threads:"); }

std::size_t proc_peak_rss_kib(pid_t pid) {
  return status_field(pid, "VmHWM:");
}

std::size_t proc_sockets(pid_t pid) {
  std::size_t sockets = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(proc_path(pid, "fd"), ec)) {
    // Standard streams are inherited (a harness may hand over a socket
    // as stdin); only descriptors the process opened itself count.
    if (std::stoi(entry.path().filename().string()) <= 2) continue;
    std::error_code link_ec;
    const auto target = std::filesystem::read_symlink(entry.path(), link_ec);
    if (!link_ec && target.string().rfind("socket:", 0) == 0) ++sockets;
  }
  return sockets;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size())
      return line.substr(colon + 2);
  }
  return "unknown";
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    return static_cast<std::size_t>(sysconf(_SC_NPROCESSORS_ONLN));
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

std::string git_sha(const std::string& root) {
  const std::filesystem::path git = std::filesystem::path(root) / ".git";
  const std::string head = read_first_line(git / "HEAD");
  if (head.rfind("ref: ", 0) != 0) return head.empty() ? "unknown" : head;
  const std::string ref = head.substr(5);
  if (std::string sha = read_first_line(git / ref); !sha.empty()) return sha;
  // Refs packed by gc live in packed-refs as "<sha> <ref>" lines.
  std::ifstream packed(git / "packed-refs");
  std::string line;
  while (std::getline(packed, line)) {
    if (line.size() > 41 && line.compare(41, std::string::npos, ref) == 0)
      return line.substr(0, 40);
  }
  return "unknown";
}

}  // namespace eyw::bench
