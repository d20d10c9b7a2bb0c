// Every thread src/ starts carries a name, so /proc/<pid>/task/*/comm (and
// top -H, perf, gdb) can attribute server CPU to a layer.
#include <gtest/gtest.h>

#include <stdlib.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "proto/tcp.hpp"
#include "server/dispatcher.hpp"
#include "server/stats_endpoint.hpp"
#include "storage/durability_queue.hpp"
#include "storage/journal.hpp"
#include "util/thread_pool.hpp"

namespace eyw::server {
namespace {

std::set<std::string> thread_names() {
  std::set<std::string> names;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(task.path() / "comm");
    std::string name;
    std::getline(comm, name);
    names.insert(name);
  }
  return names;
}

TEST(ThreadNames, EveryComponentNamesItsThreads) {
  char tmpl[] = "eyw-thread-names-test.XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string journal_dir = tmpl;
  {
    const proto::FrameHandler echo = [](std::span<const std::uint8_t> f) {
      return std::vector<std::uint8_t>(f.begin(), f.end());
    };
    proto::FrameServer frames(echo, {.reactor_shards = 1});
    AsyncDispatcher lanes(echo);
    storage::DurabilityQueue writer(
        std::make_unique<storage::Journal>(journal_dir));
    util::ThreadPool pool(2);
    StatsEndpoint stats(StatsRegistry{}, 0);

    // Each thread names itself as it starts; give them a moment.
    const std::vector<std::string> want = {"eyw-reactor", "eyw-accept",
                                           "eyw-lane",    "eyw-journal",
                                           "eyw-pool",    "eyw-stats"};
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    std::set<std::string> names = thread_names();
    while (!std::ranges::all_of(want, [&](const std::string& n) {
             return names.contains(n);
           }) &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      names = thread_names();
    }
    for (const std::string& name : want)
      EXPECT_TRUE(names.contains(name)) << name << " not among the threads";
  }
  std::filesystem::remove_all(journal_dir);
}

}  // namespace
}  // namespace eyw::server
