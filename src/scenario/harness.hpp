// Adversarial-scenario harness: the real server stack (sharded backend +
// optional durability + endpoints + AsyncDispatcher + epoll FrameServer)
// plus the embedded operator stats endpoint, packaged so every scenario —
// churn, mutator, poisoning, soak, crash — drives the exact deployment
// quickstart serves, not a test double.
//
// The harness exists because adversarial tests keep needing the same
// three things: a listening stack on an ephemeral port, the refusal /
// admission counters readable over HTTP (scenarios assert through the
// same surface an operator would curl), and a deterministic teardown
// order (reactor → dispatcher → journal). Everything here is
// deterministic given the scenario's seed: the harness itself holds no
// randomness.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "proto/tcp.hpp"
#include "server/cluster.hpp"
#include "server/dispatcher.hpp"
#include "server/durable_backend.hpp"
#include "server/endpoint.hpp"
#include "server/stats_endpoint.hpp"
#include "util/rng.hpp"

namespace eyw::scenario {

/// The round configuration every scenario (and both quickstart TCP modes)
/// agrees on: 4x256 CMS over a 10k id space, Mean rule.
[[nodiscard]] server::BackendConfig default_config();

struct HarnessOptions {
  server::BackendConfig config = default_config();
  std::size_t backend_shards = 2;
  std::size_t max_connections = 2048;
  /// Non-empty: decorate the cluster with the write-ahead journal
  /// (recovery runs before the first frame can arrive).
  std::string journal_dir;
  /// Serve GET /stats on a second loopback port (0 = ephemeral).
  bool serve_stats = true;
  std::uint16_t port = 0;
  std::uint16_t stats_port = 0;
  /// Overload-shedding knobs (PR 9). `max_lane_depth` 0 keeps the
  /// dispatcher lanes unbounded; a bound sheds past-cap submits with
  /// Error(kUnavailable) + `retry_after_ms`, mirrored onto the endpoint
  /// counters and the stats endpoint. The stream knobs pass through to
  /// FrameServerOptions — churn's shed scenario pins
  /// max_streams_per_connection low to provoke deterministic refusals.
  std::size_t max_lane_depth = 0;
  std::uint32_t retry_after_ms = 25;
  std::uint32_t max_streams_per_connection = 65536;
  std::size_t max_stream_backlog = 16;
};

/// One in-process deployment: backend cluster (+ optional DurableBackend),
/// backend + OPRF endpoints behind a sharded AsyncDispatcher, an epoll
/// FrameServer, and the stats endpoint publishing every counter layer
/// (endpoint admission/refusals, reactor, dispatcher, durability).
/// Declaration order doubles as teardown order, exactly like quickstart's
/// ServerStack.
class ServerHarness {
 public:
  explicit ServerHarness(HarnessOptions options = {});
  ~ServerHarness();

  ServerHarness(const ServerHarness&) = delete;
  ServerHarness& operator=(const ServerHarness&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return server_->port(); }
  [[nodiscard]] std::uint16_t stats_port() const noexcept {
    return stats_ ? stats_->port() : 0;
  }
  [[nodiscard]] const server::BackendConfig& config() const noexcept {
    return options_.config;
  }
  [[nodiscard]] const HarnessOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] server::BackendCluster& cluster() noexcept { return cluster_; }
  [[nodiscard]] server::DurableBackend* durable() noexcept {
    return durable_.get();
  }
  [[nodiscard]] server::AsyncDispatcher& dispatcher() noexcept {
    return *dispatcher_;
  }
  [[nodiscard]] proto::FrameServer& server() noexcept { return *server_; }
  [[nodiscard]] const server::EndpointCounters& counters() const noexcept {
    return backend_ep_->counters();
  }
  /// A FinalizeRequest was answered with a RoundSummary (--once exit
  /// condition for child-process servers).
  [[nodiscard]] bool finalized() const noexcept {
    return finalized_.load(std::memory_order_relaxed);
  }

  /// Stop in dependency order: reactor, dispatcher, journal, stats.
  /// Idempotent; the destructor calls it.
  void stop();

 private:
  std::vector<std::uint8_t> route(std::span<const std::uint8_t> frame);
  [[nodiscard]] server::StatsRegistry build_registry();

  HarnessOptions options_;
  util::Rng rng_{7};
  crypto::OprfServer oprf_{rng_, 256};
  server::BackendCluster cluster_;
  std::unique_ptr<server::DurableBackend> durable_;
  std::unique_ptr<server::BackendEndpoint> backend_ep_;
  server::OprfEndpoint oprf_ep_{oprf_};
  std::atomic<bool> finalized_{false};
  std::unique_ptr<server::AsyncDispatcher> dispatcher_;
  std::unique_ptr<proto::FrameServer> server_;
  std::unique_ptr<server::StatsEndpoint> stats_;
  bool stopped_ = false;
};

/// Bit-for-bit round-result equality: aggregate cells, threshold,
/// #Users histogram, reports and roster must all match exactly — the
/// acceptance bar every scenario holds finalize to.
[[nodiscard]] bool results_identical(const server::RoundResult& want,
                                     const server::RoundResult& got);

/// Fetch + parse one counter off a harness's stats endpoint — the
/// assertion path every scenario uses (goes over real HTTP, not through
/// the object).
[[nodiscard]] std::uint64_t stat(std::uint16_t stats_port,
                                 const std::string& name);

/// Open fds of this process (/proc/self/fd entries) — the soak's leak
/// metric. 0 when unreadable.
[[nodiscard]] std::size_t open_fds();

/// FNV-1a over a little-endian u64 stream: the digest scenarios publish
/// so two seeded runs can be compared without shipping full transcripts.
class Digest {
 public:
  void add(std::uint64_t v) noexcept {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace eyw::scenario
