#include "scenario/harness.hpp"

#include <dirent.h>

#include <algorithm>
#include <utility>

#include "proto/message.hpp"

namespace eyw::scenario {

server::BackendConfig default_config() {
  return {.cms_params = {.depth = 4, .width = 256},
          .cms_hash_seed = 3,
          .id_space = 10'000,
          .users_rule = core::ThresholdRule::kMean};
}

ServerHarness::ServerHarness(HarnessOptions options)
    : options_(std::move(options)),
      cluster_(options_.config, options_.backend_shards) {
  if (!options_.journal_dir.empty()) {
    durable_ = std::make_unique<server::DurableBackend>(
        cluster_, server::DurabilityConfig{.dir = options_.journal_dir});
  }
  backend_ep_ = std::make_unique<server::BackendEndpoint>(
      durable_ ? static_cast<server::RoundBackend&>(*durable_)
               : static_cast<server::RoundBackend&>(cluster_),
      &cluster_, /*serve_control=*/true);
  dispatcher_ = std::make_unique<server::AsyncDispatcher>(
      [this](std::span<const std::uint8_t> frame) { return route(frame); },
      options_.backend_shards, server::cluster_lane_router(cluster_),
      server::control_plane_barrier(),
      server::DispatcherLimits{.max_lane_depth = options_.max_lane_depth,
                               .retry_after_ms = options_.retry_after_ms,
                               .counters = &backend_ep_->counters()});
  server_ = std::make_unique<proto::FrameServer>(
      dispatcher_->handler(),
      proto::FrameServerOptions{
          .port = options_.port,
          .backlog = static_cast<int>(
              std::max<std::size_t>(256, options_.max_connections)),
          .max_connections = options_.max_connections,
          .max_streams_per_connection = options_.max_streams_per_connection,
          .max_stream_backlog = options_.max_stream_backlog,
          .stream_shed_retry_after_ms = options_.retry_after_ms});
  // Close the buffer loop: frames the dispatcher consumes go back to the
  // server's pool, so steady-state ingest recycles instead of allocating.
  dispatcher_->set_frame_recycler(server_->frame_recycler());
  if (options_.serve_stats)
    stats_ = std::make_unique<server::StatsEndpoint>(build_registry(),
                                                     options_.stats_port);
}

ServerHarness::~ServerHarness() { stop(); }

void ServerHarness::stop() {
  if (stopped_) return;
  stopped_ = true;
  server_->stop();
  dispatcher_->stop();
  if (durable_) durable_->shutdown();
  if (stats_) stats_->stop();
}

std::vector<std::uint8_t> ServerHarness::route(
    std::span<const std::uint8_t> frame) {
  const std::optional<proto::MsgKind> kind = proto::peek_kind(frame);
  if (kind == proto::MsgKind::kOprfEvalRequest ||
      kind == proto::MsgKind::kOprfKeyQuery)
    return oprf_ep_.handle(frame);
  auto reply = backend_ep_->handle(frame);
  if (kind == proto::MsgKind::kFinalizeRequest &&
      proto::peek_kind(reply) == proto::MsgKind::kRoundSummary)
    finalized_.store(true, std::memory_order_relaxed);
  return reply;
}

server::StatsRegistry ServerHarness::build_registry() {
  server::StatsRegistry reg;
  // Endpoint admission/refusal counters. The struct outlives the stats
  // thread (declaration order), and every field is an atomic — the one
  // kind of state the stats endpoint is allowed to sample.
  const server::EndpointCounters* c = &backend_ep_->counters();
  const auto u64 = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  reg.add("frames", [c, u64] { return u64(c->frames); });
  reg.add("reports_accepted", [c, u64] { return u64(c->reports_accepted); });
  reg.add("adjustments_accepted",
          [c, u64] { return u64(c->adjustments_accepted); });
  reg.add("control_served", [c, u64] { return u64(c->control_served); });
  reg.add("refusals", [c, u64] { return u64(c->refusals); });
  reg.add("refused_stale_round",
          [c, u64] { return u64(c->refused_stale_round); });
  reg.add("refused_replay", [c, u64] { return u64(c->refused_replay); });
  // Per-ErrorCode refusal buckets under their wire names.
  const auto code_gauge = [c, u64](proto::ErrorCode code) {
    return [c, u64, code] {
      return u64(c->refused_by_code[static_cast<std::size_t>(code)]);
    };
  };
  reg.add("refused_bad_magic", code_gauge(proto::ErrorCode::kBadMagic));
  reg.add("refused_bad_version", code_gauge(proto::ErrorCode::kBadVersion));
  reg.add("refused_unknown_kind", code_gauge(proto::ErrorCode::kUnknownKind));
  reg.add("refused_truncated", code_gauge(proto::ErrorCode::kTruncated));
  reg.add("refused_trailing_bytes",
          code_gauge(proto::ErrorCode::kTrailingBytes));
  reg.add("refused_malformed", code_gauge(proto::ErrorCode::kMalformed));
  reg.add("refused_geometry_mismatch",
          code_gauge(proto::ErrorCode::kGeometryMismatch));
  reg.add("refused_oversized", code_gauge(proto::ErrorCode::kOversized));
  reg.add("refused_rejected", code_gauge(proto::ErrorCode::kRejected));
  reg.add("refused_internal", code_gauge(proto::ErrorCode::kInternal));
  reg.add("refused_unavailable", code_gauge(proto::ErrorCode::kUnavailable));
  // Round gauges: what the open round has admitted so far. round_missing
  // is derived — roster minus reports — so a churn scenario can assert
  // the missing-list width off the same surface.
  reg.add("round_current", [c, u64] { return u64(c->round_current); });
  reg.add("round_roster", [c, u64] { return u64(c->round_roster); });
  reg.add("round_reports", [c, u64] { return u64(c->round_reports); });
  reg.add("round_adjustments",
          [c, u64] { return u64(c->round_adjustments); });
  reg.add("round_missing", [c, u64] {
    const std::uint64_t roster = u64(c->round_roster);
    const std::uint64_t reports = u64(c->round_reports);
    return roster > reports ? roster - reports : 0;
  });
  // Reactor-layer counters (stats()/active_connections() are documented
  // thread-safe).
  proto::FrameServer* srv = server_.get();
  reg.add("connections_accepted",
          [srv] { return srv->connections_accepted(); });
  reg.add("connections_refused", [srv] { return srv->connections_refused(); });
  reg.add("active_connections", [srv] {
    return static_cast<std::uint64_t>(srv->active_connections());
  });
  reg.add("frames_received", [srv] { return srv->stats().messages_received; });
  reg.add("frames_sent", [srv] { return srv->stats().messages_sent; });
  reg.add("deadline_drops", [srv] { return srv->stats().reactor.deadline_drops; });
  // Multiplexing + overload shedding (PR 9): connection-layer mux counts,
  // reactor stream sheds, dispatcher lane admissions/sheds, and the
  // endpoint's shed mirror — one coherent refusal story per layer.
  reg.add("mux_connections",
          [srv] { return srv->stats().reactor.mux_connections; });
  reg.add("streams_shed", [srv] { return srv->stats().reactor.streams_shed; });
  // Zero-copy ingest gauges (PR 10): pool reuse vs. allocation on the
  // frame read path, plus bytes relocated by copying fallbacks. The soak
  // scenario asserts pool_misses and bytes_copied_ingest go flat after
  // warmup, same discipline as the fd/queue gauges.
  reg.add("frames_pooled",
          [srv] { return srv->stats().reactor.frames_pooled; });
  reg.add("pool_misses", [srv] { return srv->stats().reactor.pool_misses; });
  reg.add("bytes_copied_ingest",
          [srv] { return srv->stats().reactor.bytes_copied_ingest; });
  reg.add("shed_ingest", [c, u64] { return u64(c->shed_ingest); });
  server::AsyncDispatcher* disp = dispatcher_.get();
  reg.add("dispatch_pending", [disp] {
    return static_cast<std::uint64_t>(disp->pending());
  });
  reg.add("dispatch_accepted", [disp] { return disp->accepted(); });
  reg.add("dispatch_shed", [disp] { return disp->shed(); });
  if (durable_) {
    server::DurableBackend* d = durable_.get();
    reg.add("journal_records", [d] { return d->stats().records; });
    // Submissions journaled via the legacy re-encode path. With the
    // endpoint's frame capture wired (this harness always is), every
    // accepted submission journals its captured wire bytes instead — the
    // gauge must read 0, and CI's quickstart step enforces that.
    reg.add("journal_reencodes", [d] { return d->journal_reencodes(); });
    reg.add("journal_checkpoints", [d] { return d->stats().checkpoints; });
    reg.add("journal_fsyncs", [d] { return d->stats().fsyncs; });
    // Construction-time recovery facts are immutable after startup.
    const storage::RecoveryReport* rec = &d->recovery();
    reg.add("recovery_checkpoint_loaded",
            [rec] { return rec->checkpoint_loaded ? 1u : 0u; });
    reg.add("recovery_records_replayed",
            [rec] { return rec->records_replayed; });
    reg.add("recovery_records_refused",
            [rec] { return rec->records_refused; });
    reg.add("recovery_torn_bytes", [rec] { return rec->torn_bytes; });
  }
  return reg;
}

bool results_identical(const server::RoundResult& want,
                       const server::RoundResult& got) {
  const auto want_cells = want.aggregate.cells();
  const auto got_cells = got.aggregate.cells();
  bool identical = want_cells.size() == got_cells.size() &&
                   want.users_threshold == got.users_threshold &&
                   want.distribution == got.distribution &&
                   want.reports == got.reports && want.roster == got.roster;
  for (std::size_t i = 0; identical && i < want_cells.size(); ++i)
    identical = want_cells[i] == got_cells[i];
  return identical;
}

std::uint64_t stat(std::uint16_t stats_port, const std::string& name) {
  return server::stats_value(server::stats_http_get(stats_port), name);
}

std::size_t open_fds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  std::size_t count = 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  // Subtract ".", ".." and the dirfd opendir itself holds.
  return count >= 3 ? count - 3 : 0;
}

}  // namespace eyw::scenario
