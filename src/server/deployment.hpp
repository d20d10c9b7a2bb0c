// server::Deployment: the one way to stand up eyeWnder's back end. It
// holds the sharded backend cluster, the optional write-ahead journal in
// front of it, the backend + OPRF endpoints behind a lane-sharded
// AsyncDispatcher, the epoll FrameServer and the operator stats endpoint
// publishing every counter layer (endpoint admission/refusals, reactor,
// dispatcher, durability). `quickstart --serve`, every scenario, the
// socket figure benches and the stack-level tests all construct this
// class, so what they exercise is what an operator runs.
//
// Only five things vary between callers (DeploymentOptions); the overload
// policy and shard layout are deployed constants. The serve loop below
// turns a Deployment into a process: `--serve PORT [--once] [--journal DIR]
// [--port-file PATH]`, shared by quickstart and the crash tests' server
// children.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "crypto/oprf.hpp"
#include "proto/tcp.hpp"
#include "server/cluster.hpp"
#include "server/dispatcher.hpp"
#include "server/durable_backend.hpp"
#include "server/endpoint.hpp"
#include "server/stats_endpoint.hpp"
#include "util/rng.hpp"

namespace eyw::server {

/// The round configuration every TCP mode, scenario and socket bench
/// agrees on out-of-band (in a deployment this is the service config):
/// 4x256 CMS over a 10k id space, Mean rule.
[[nodiscard]] BackendConfig default_config();

struct DeploymentOptions {
  BackendConfig config = default_config();
  /// Admission cap on concurrent connections; the accept backlog is sized
  /// to it, since a reporter swarm connects in one burst and a SYN dropped
  /// off a full accept queue costs that reporter a 1 s retransmit.
  std::size_t max_connections = proto::FrameServerOptions{}.max_connections;
  /// 0 = ephemeral; read the bound ports back with port() / stats_port().
  std::uint16_t port = 0;
  std::uint16_t stats_port = 0;
  /// Set: the write-ahead journal decorates the cluster. Recovery runs in
  /// the constructor, before the first frame can arrive.
  std::optional<DurabilityConfig> journal;
};

class Deployment {
 public:
  /// Backend shards, and so dispatch lanes (one lane per shard).
  static constexpr std::size_t kBackendShards = 2;
  /// Lane bound: deep enough that a well-behaved swarm (the mux driver
  /// keeps ~2k frames in flight) never sheds, shallow enough that a
  /// runaway client meets Error(kUnavailable) + retry-after instead of
  /// unbounded queue growth.
  static constexpr std::size_t kMaxLaneDepth = 8192;
  /// Backoff hint on lane and stream-backlog sheds.
  static constexpr std::uint32_t kRetryAfterMs = 25;

  explicit Deployment(DeploymentOptions options = {});
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return server_.port(); }
  [[nodiscard]] std::uint16_t stats_port() const noexcept {
    return stats_.port();
  }
  [[nodiscard]] const BackendConfig& config() const noexcept {
    return options_.config;
  }
  /// Null unless the deployment is journaled.
  [[nodiscard]] DurableBackend* durable() noexcept {
    return durable_ ? &*durable_ : nullptr;
  }
  [[nodiscard]] AsyncDispatcher& dispatcher() noexcept { return dispatcher_; }
  [[nodiscard]] proto::FrameServer& server() noexcept { return server_; }
  /// A FinalizeRequest was answered with a RoundSummary (a refused
  /// finalize does not count).
  [[nodiscard]] bool finalized() const noexcept {
    return finalized_.load(std::memory_order_relaxed);
  }

  /// Stop in dependency order: reactor, dispatcher (every queued frame is
  /// still applied), journal (final checkpoint), stats. Idempotent; the
  /// destructor calls it.
  void stop();

 private:
  RoundBackend& open_backend();
  std::vector<std::uint8_t> route(std::span<const std::uint8_t> frame);
  [[nodiscard]] StatsRegistry build_registry();

  // Declaration order is construction order; every member outlives the
  // ones declared after it, which stop() shuts down first.
  DeploymentOptions options_;
  util::Rng rng_{7};
  crypto::OprfServer oprf_{rng_, 256};
  BackendCluster cluster_;
  std::optional<DurableBackend> durable_;
  BackendEndpoint backend_ep_;
  OprfEndpoint oprf_ep_{oprf_};
  std::atomic<bool> finalized_{false};
  AsyncDispatcher dispatcher_;
  proto::FrameServer server_;
  StatsEndpoint stats_;
  bool stopped_ = false;
};

/// The serve loop behind `ARGV0 --serve PORT [--once] [--journal DIR]
/// [--port-file PATH]` (argv[1] is "--serve"). Builds a Deployment, prints
/// its ports (and the journal's recovery report), writes "PORT\nSTATS_PORT\n"
/// to PATH atomically once both listeners are bound, then serves until
/// SIGINT/SIGTERM — or, with --once, until a finalize has been answered
/// and every connection has closed — and drains in dependency order.
/// Returns the process exit code: 0 served, 1 failed, 2 bad usage.
int serve_main(int argc, char** argv);

struct ServedPorts {
  std::uint16_t port = 0;
  std::uint16_t stats_port = 0;
};

/// Poll for the port file a serve loop renames into place (10 s budget:
/// sanitizer builds start slowly). Throws std::runtime_error on timeout.
[[nodiscard]] ServedPorts await_port_file(const std::string& port_file);

/// Fork + exec this very binary as `--serve 0 --once --journal DIR
/// --port-file PATH`: a real process image that kill -9 can take down.
/// The host's main() must hand `--serve` to serve_main(). Returns the
/// child's pid; throws std::runtime_error if fork fails.
pid_t spawn_journaled_server(const std::string& journal_dir,
                             const std::string& port_file);

}  // namespace eyw::server
