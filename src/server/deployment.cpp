#include "server/deployment.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "proto/message.hpp"

namespace eyw::server {

BackendConfig default_config() {
  return {.cms_params = {.depth = 4, .width = 256},
          .cms_hash_seed = 3,
          .id_space = 10'000,
          .users_rule = core::ThresholdRule::kMean};
}

Deployment::Deployment(DeploymentOptions options)
    : options_(std::move(options)),
      cluster_(options_.config, kBackendShards),
      // Submissions flow through the durable decorator when present;
      // ShardedSubmit routing validation keys on the cluster either way.
      backend_ep_(open_backend(), &cluster_, /*serve_control=*/true),
      dispatcher_(
          [this](std::span<const std::uint8_t> frame) { return route(frame); },
          kBackendShards, cluster_lane_router(cluster_),
          control_plane_barrier(),
          DispatcherLimits{.max_lane_depth = kMaxLaneDepth,
                           .retry_after_ms = kRetryAfterMs,
                           .counters = &backend_ep_.counters()}),
      server_(dispatcher_.handler(),
              proto::FrameServerOptions{
                  .port = options_.port,
                  .backlog = static_cast<int>(
                      std::max<std::size_t>(256, options_.max_connections)),
                  .max_connections = options_.max_connections,
                  .stream_shed_retry_after_ms = kRetryAfterMs}),
      stats_(build_registry(), options_.stats_port) {
  // Close the buffer loop: frames the dispatcher consumes go back to the
  // server's pool, so steady-state ingest recycles instead of allocating.
  dispatcher_.set_frame_recycler(server_.frame_recycler());
}

Deployment::~Deployment() { stop(); }

RoundBackend& Deployment::open_backend() {
  if (!options_.journal) return cluster_;
  durable_.emplace(cluster_, *options_.journal);
  return *durable_;
}

void Deployment::stop() {
  if (stopped_) return;
  stopped_ = true;
  server_.stop();
  dispatcher_.stop();
  if (durable_) durable_->shutdown();
  stats_.stop();
}

std::vector<std::uint8_t> Deployment::route(
    std::span<const std::uint8_t> frame) {
  // Route on the peeked kind (no payload copy); a frame too broken to peek
  // goes to the backend endpoint, which answers the right Error envelope.
  const std::optional<proto::MsgKind> kind = proto::peek_kind(frame);
  if (kind == proto::MsgKind::kOprfEvalRequest ||
      kind == proto::MsgKind::kOprfKeyQuery)
    return oprf_ep_.handle(frame);
  auto reply = backend_ep_.handle(frame);
  if (kind == proto::MsgKind::kFinalizeRequest &&
      proto::peek_kind(reply) == proto::MsgKind::kRoundSummary)
    finalized_.store(true, std::memory_order_relaxed);
  return reply;
}

StatsRegistry Deployment::build_registry() {
  StatsRegistry reg;
  // Endpoint admission/refusal counters. The struct outlives the stats
  // thread (declaration order), and every field is an atomic — the one
  // kind of state the stats endpoint is allowed to sample.
  const EndpointCounters* c = &backend_ep_.counters();
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
  proto::FrameServer* srv = &server_;
  reg.add("connections_accepted",
          [srv] { return srv->connections_accepted(); });
  reg.add("connections_refused", [srv] { return srv->connections_refused(); });
  reg.add("active_connections", [srv] {
    return static_cast<std::uint64_t>(srv->active_connections());
  });
  reg.add("frames_received", [srv] { return srv->stats().messages_received; });
  reg.add("frames_sent", [srv] { return srv->stats().messages_sent; });
  reg.add("deadline_drops",
          [srv] { return srv->stats().reactor.deadline_drops; });
  // Multiplexing + overload shedding: connection-layer mux counts, reactor
  // stream sheds, dispatcher lane admissions/sheds, and the endpoint's
  // shed mirror — one coherent refusal story per layer.
  reg.add("mux_connections",
          [srv] { return srv->stats().reactor.mux_connections; });
  reg.add("streams_shed", [srv] { return srv->stats().reactor.streams_shed; });
  // Zero-copy ingest gauges: pool reuse vs. allocation on the frame read
  // path, plus bytes relocated by copying fallbacks. The soak scenario
  // asserts pool_misses and bytes_copied_ingest go flat after warmup.
  reg.add("frames_pooled",
          [srv] { return srv->stats().reactor.frames_pooled; });
  reg.add("pool_misses", [srv] { return srv->stats().reactor.pool_misses; });
  reg.add("bytes_copied_ingest",
          [srv] { return srv->stats().reactor.bytes_copied_ingest; });
  reg.add("shed_ingest", [c, u64] { return u64(c->shed_ingest); });
  AsyncDispatcher* disp = &dispatcher_;
  reg.add("dispatch_pending", [disp] {
    return static_cast<std::uint64_t>(disp->pending());
  });
  reg.add("dispatch_accepted", [disp] { return disp->accepted(); });
  reg.add("dispatch_shed", [disp] { return disp->shed(); });
  if (durable_) {
    const DurableBackend* d = &*durable_;
    reg.add("journal_records", [d] { return d->stats().records; });
    // Submissions journaled via the legacy re-encode path. The endpoint's
    // frame capture is always wired here, so every accepted submission
    // journals its captured wire bytes instead — the gauge must read 0.
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

namespace {

/// SIGINT/SIGTERM request graceful shutdown; the serve loop polls this.
/// sig_atomic_t + a plain store is everything an async-signal context may
/// touch.
volatile std::sig_atomic_t g_shutdown_signal = 0;

extern "C" void on_shutdown_signal(int sig) { g_shutdown_signal = sig; }

struct ServeArgs {
  std::uint16_t port = 0;
  bool once = false;
  std::string journal_dir;
  std::string port_file;
};

std::optional<ServeArgs> parse_serve_args(int argc, char** argv) {
  if (argc < 3) return std::nullopt;
  ServeArgs args;
  // The whole token must be a port: "8o80" must not silently bind port 8.
  char* end = nullptr;
  const long port = std::strtol(argv[2], &end, 10);
  if (end == argv[2] || *end != '\0' || port < 0 || port > 65535)
    return std::nullopt;
  args.port = static_cast<std::uint16_t>(port);
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--once") {
      args.once = true;
    } else if (flag == "--journal" && i + 1 < argc) {
      args.journal_dir = argv[++i];
    } else if (flag == "--port-file" && i + 1 < argc) {
      args.port_file = argv[++i];
    } else {
      return std::nullopt;
    }
  }
  return args;
}

/// Written aside and renamed into place only after both listeners are
/// bound: a script polling for the file may connect the moment it appears.
void write_port_file(const std::string& path, const Deployment& deployment) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + tmp);
  std::fprintf(f, "%u\n%u\n", static_cast<unsigned>(deployment.port()),
               static_cast<unsigned>(deployment.stats_port()));
  std::fclose(f);
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("cannot rename " + tmp + " to " + path);
}

int serve(const ServeArgs& args) {
  // Graceful shutdown: the first SIGINT/SIGTERM breaks the serve loop; the
  // handler stays installed so a second signal during the drain is
  // absorbed too (kill -9 is the crash path the journal exists for).
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = on_shutdown_signal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  std::optional<DurabilityConfig> journal;
  if (!args.journal_dir.empty())
    journal = DurabilityConfig{.dir = args.journal_dir};
  Deployment deployment({.port = args.port, .journal = std::move(journal)});
  std::printf("serving back-end (%zu backend shards) + oprf-server on "
              "127.0.0.1:%u, %zu reactor shard(s), %zu dispatch lane(s), "
              "stats on http://127.0.0.1:%u/stats%s\n",
              Deployment::kBackendShards,
              static_cast<unsigned>(deployment.port()),
              deployment.server().shards(), deployment.dispatcher().lanes(),
              static_cast<unsigned>(deployment.stats_port()),
              args.once ? " (exit after one round)" : "");
  if (const DurableBackend* durable = deployment.durable()) {
    const storage::RecoveryReport& rec = durable->recovery();
    std::printf("journal %s: %s round %llu, %llu record(s) replayed "
                "(%llu refused, %llu torn byte(s) discarded)\n",
                args.journal_dir.c_str(),
                rec.checkpoint_loaded ? "recovered" : "fresh",
                static_cast<unsigned long long>(rec.round),
                static_cast<unsigned long long>(rec.records_replayed),
                static_cast<unsigned long long>(rec.records_refused),
                static_cast<unsigned long long>(rec.torn_bytes));
  }
  std::fflush(stdout);
  if (!args.port_file.empty()) write_port_file(args.port_file, deployment);

  // --once: exit after the finalize reply has been read (the client
  // closing its connections is the signal it got everything it asked for).
  // A shutdown signal breaks out either way.
  while (g_shutdown_signal == 0 &&
         (!args.once || !deployment.finalized() ||
          deployment.server().active_connections() != 0)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (g_shutdown_signal != 0)
    std::printf("caught %s: draining...\n",
                g_shutdown_signal == SIGINT ? "SIGINT" : "SIGTERM");

  // Drain: stop accepting + reading, apply every frame already queued,
  // then flush the journal and install the final checkpoint so the next
  // incarnation recovers exactly what was acknowledged.
  deployment.stop();

  const proto::FrameServerStats stats = deployment.server().stats();
  std::printf("served %llu connection(s): %llu frames / %llu B in, "
              "%llu frames / %llu B out\n",
              static_cast<unsigned long long>(
                  deployment.server().connections_accepted()),
              static_cast<unsigned long long>(stats.messages_received),
              static_cast<unsigned long long>(stats.bytes_received),
              static_cast<unsigned long long>(stats.messages_sent),
              static_cast<unsigned long long>(stats.bytes_sent));
  if (const DurableBackend* durable = deployment.durable()) {
    const storage::DurabilityStats dstats = durable->stats();
    std::printf("journal: %llu record(s) / %llu B appended in %llu sync "
                "batch(es), %llu checkpoint(s), %llu fsync(s), "
                "off-writer I/O calls: %llu\n",
                static_cast<unsigned long long>(dstats.records),
                static_cast<unsigned long long>(dstats.record_bytes),
                static_cast<unsigned long long>(dstats.batches),
                static_cast<unsigned long long>(dstats.checkpoints),
                static_cast<unsigned long long>(dstats.fsyncs),
                static_cast<unsigned long long>(dstats.off_writer_io));
  }
  return 0;
}

}  // namespace

int serve_main(int argc, char** argv) {
  const std::optional<ServeArgs> args = parse_serve_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: %s --serve PORT [--once] [--journal DIR] "
                 "[--port-file PATH]\n",
                 argv[0]);
    return 2;
  }
  // Operational failures (port in use, unwritable journal) are expected
  // events for an operator: report and exit nonzero, never abort.
  try {
    return serve(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s --serve: %s\n", argv[0], e.what());
    return 1;
  }
}

ServedPorts await_port_file(const std::string& port_file) {
  for (int i = 0; i < 400; ++i) {
    if (std::FILE* f = std::fopen(port_file.c_str(), "r")) {
      unsigned port = 0;
      unsigned stats = 0;
      const int got = std::fscanf(f, "%u %u", &port, &stats);
      std::fclose(f);
      if (got == 2 && port > 0 && port < 65536 && stats > 0 && stats < 65536)
        return {static_cast<std::uint16_t>(port),
                static_cast<std::uint16_t>(stats)};
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  throw std::runtime_error("server did not write its port file " + port_file +
                           " in time");
}

pid_t spawn_journaled_server(const std::string& journal_dir,
                             const std::string& port_file) {
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::execl("/proc/self/exe", "eyw-server", "--serve", "0", "--once",
            "--journal", journal_dir.c_str(), "--port-file",
            port_file.c_str(), static_cast<char*>(nullptr));
    _exit(127);  // exec failed; nothing else is safe in the child
  }
  return pid;
}

}  // namespace eyw::server
