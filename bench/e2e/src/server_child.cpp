#include "server_child.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <thread>

#include "clock.hpp"
#include "crypto/oprf.hpp"
#include "crypto/rsa.hpp"
#include "kernels.hpp"
#include "proc.hpp"
#include "proto/message.hpp"
#include "proto/tcp.hpp"
#include "server/cluster.hpp"
#include "server/dispatcher.hpp"
#include "server/durable_backend.hpp"
#include "server/endpoint.hpp"
#include "trace.hpp"

namespace eyw::bench {

namespace {

// ------------------------------------------------------------ span capture
// Each frame claims one preallocated ServerSpan slot at the front door
// (reactor thread). Its lane worker stages route/backend intervals in
// thread-local storage while route() runs, and the completion — which the
// dispatcher invokes on that same lane thread right after the handler —
// copies them into the slot. A completion that finds nothing staged on
// its thread is a frame refused before any lane ran it (a shed). Every
// slot field therefore has exactly one writer, and the lane queue's mutex
// orders the front-door writes before the lane's.

thread_local ServerSpan tl_staging;
thread_local ServerSpan* tl_route = nullptr;  // non-null inside route()
thread_local bool tl_pending = false;         // staged, not yet claimed

std::uint64_t peek_round(std::span<const std::uint8_t> frame) {
  // Version-1 header: magic u32, version u16, kind u16, sender u32, then
  // round u64 at offset 12 (everything past the mux boundary is v1).
  if (frame.size() < proto::kEnvelopeHeaderBytes) return 0;
  std::uint64_t round = 0;
  for (int b = 7; b >= 0; --b) round = round << 8 | frame[12 + b];
  return round;
}

class SpanRecorder {
 public:
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  explicit SpanRecorder(std::size_t capacity)
      : capacity_(capacity),
        // Raw storage: pages are only touched when a slot is claimed, so
        // a generous capacity costs address space, not resident memory.
        spans_(static_cast<ServerSpan*>(
            std::malloc(std::max<std::size_t>(capacity, 1) *
                        sizeof(ServerSpan)))) {
    if (spans_ == nullptr) throw std::bad_alloc();
  }

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  std::size_t on_entry(std::span<const std::uint8_t> frame) {
    const std::uint64_t t = now_ns();
    const std::size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
    if (slot >= capacity_) return kNoSlot;
    ServerSpan* s = new (spans_.get() + slot) ServerSpan{};
    s->entry_ns = t;
    s->kind = static_cast<std::uint16_t>(
        proto::peek_kind(frame).value_or(proto::MsgKind{0}));
    s->sender = proto::peek_sender(frame).value_or(0);
    s->round = peek_round(frame);
    return slot;
  }

  void on_done(std::size_t slot) {
    const std::uint64_t t = now_ns();
    ServerSpan& s = spans_.get()[slot];
    if (tl_pending) {
      s.route = tl_staging.route;
      s.storage = tl_staging.storage;
      s.cluster[0] = tl_staging.cluster[0];
      s.cluster[1] = tl_staging.cluster[1];
      s.cluster_calls = tl_staging.cluster_calls;
      s.routed = 1;
      tl_pending = false;
    }
    s.done_ns = t;
  }

  /// Brackets one route() call on a lane thread.
  class RouteScope {
   public:
    RouteScope() {
      tl_staging = ServerSpan{};
      tl_staging.route.start_ns = now_ns();
      tl_route = &tl_staging;
    }
    ~RouteScope() {
      tl_staging.route.end_ns = now_ns();
      tl_route = nullptr;
      tl_pending = true;
    }
    RouteScope(const RouteScope&) = delete;
    RouteScope& operator=(const RouteScope&) = delete;
  };

  [[nodiscard]] std::size_t recorded() const noexcept {
    return std::min(next_.load(std::memory_order_relaxed), capacity_);
  }
  [[nodiscard]] std::size_t dropped() const noexcept {
    const std::size_t seen = next_.load(std::memory_order_relaxed);
    return seen > capacity_ ? seen - capacity_ : 0;
  }

  /// After every stack thread has stopped.
  void write(const std::string& path) const {
    write_spans(path, std::span<const ServerSpan>(spans_.get(), recorded()));
  }

 private:
  struct FreeDeleter {
    void operator()(ServerSpan* p) const noexcept { std::free(p); }
  };
  std::size_t capacity_;
  std::unique_ptr<ServerSpan, FreeDeleter> spans_;
  std::atomic<std::size_t> next_{0};
};

/// Times every call into the backend it decorates, attributing the
/// interval to the frame the calling lane thread is routing (calls made
/// outside route(), e.g. recovery at construction, are not recorded).
/// Forwards the frame-carrying submits unchanged, so a DurableBackend
/// below still journals the captured bytes (journal_reencodes stays 0).
class TimedBackend final : public server::RoundBackend {
 public:
  enum class Level { kStorage, kCluster };

  TimedBackend(server::RoundBackend& inner, Level level)
      : inner_(inner), level_(level) {}

  const server::BackendConfig& config() const noexcept override {
    return inner_.config();
  }
  void begin_round(std::uint64_t round, std::size_t roster) override {
    const Scope s(level_);
    inner_.begin_round(round, roster);
  }
  std::uint64_t current_round() const noexcept override {
    return inner_.current_round();
  }
  bool round_open() const noexcept override { return inner_.round_open(); }
  void submit_report(std::size_t p,
                     std::vector<crypto::BlindCell> cells) override {
    const Scope s(level_);
    inner_.submit_report(p, std::move(cells));
  }
  std::vector<std::size_t> missing_participants() const override {
    const Scope s(level_);
    return inner_.missing_participants();
  }
  void submit_adjustment(std::size_t p,
                         std::vector<crypto::BlindCell> cells) override {
    const Scope s(level_);
    inner_.submit_adjustment(p, std::move(cells));
  }
  void submit_report_frame(std::size_t p,
                           std::vector<crypto::BlindCell> cells,
                           std::span<const std::uint8_t> frame) override {
    const Scope s(level_);
    inner_.submit_report_frame(p, std::move(cells), frame);
  }
  void submit_adjustment_frame(std::size_t p,
                               std::vector<crypto::BlindCell> cells,
                               std::span<const std::uint8_t> frame) override {
    const Scope s(level_);
    inner_.submit_adjustment_frame(p, std::move(cells), frame);
  }
  server::RoundResult finalize_round(util::ThreadPool* pool) override {
    const Scope s(level_);
    return inner_.finalize_round(pool);
  }
  server::RoundSnapshot snapshot_round() const override {
    const Scope s(level_);
    return inner_.snapshot_round();
  }
  void restore_round(const server::RoundSnapshot& snapshot) override {
    const Scope s(level_);
    inner_.restore_round(snapshot);
  }

 private:
  class Scope {
   public:
    explicit Scope(Level level)
        : span_(tl_route), level_(level), start_(span_ ? now_ns() : 0) {}
    ~Scope() {
      if (span_ == nullptr) return;
      const Interval iv{start_, now_ns()};
      if (level_ == Level::kStorage) {
        span_->storage = iv;
      } else if (span_->cluster_calls < 2) {
        span_->cluster[span_->cluster_calls++] = iv;
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ServerSpan* span_;
    Level level_;
    std::uint64_t start_;
  };

  server::RoundBackend& inner_;
  Level level_;
};

// ------------------------------------------------------------ the stack

constexpr std::size_t kBackendShards = 2;
constexpr std::size_t kRsaBits = 1024;  // the OPRF key, as deployed
constexpr std::size_t kLaneDepth = 8192;
constexpr std::uint32_t kRetryAfterMs = 25;

server::BackendConfig backend_config(std::uint64_t id_space) {
  return {.cms_params = {.depth = 4, .width = 256},
          .cms_hash_seed = 3,
          .id_space = id_space,
          .users_rule = core::ThresholdRule::kMean};
}

/// The journal with every setting at quickstart's defaults.
server::DurabilityConfig durability_config(const std::string& dir) {
  server::DurabilityConfig config;
  config.dir = dir;
  return config;
}

/// quickstart's ServerStack, assembled the way `quickstart --serve`
/// wires it: a 2-shard BackendCluster (optionally behind DurableBackend),
/// the control-plane BackendEndpoint plus an RSA-1024 OprfEndpoint behind a
/// 2-lane AsyncDispatcher (cluster_lane_router, control_plane_barrier,
/// DispatcherLimits{8192, 25 ms}), a FrameServer at its default reactor
/// shard count, and the buffer recycler wired. This is the one place the
/// benchmark builds a server; when the repo grows a single server
/// deployment type, switching to it here is a benchmark change of its own.
///
/// With a SpanRecorder the same stack is traced from outside: the
/// front-door handler and the lane handler are wrapped, and TimedBackend
/// decorators sit above the DurableBackend and above the cluster. Without
/// one, no benchmark code runs on the server path beyond route() itself.
class BenchServerStack {
 public:
  BenchServerStack(const ChildOptions& o, SpanRecorder* recorder)
      : recorder_(recorder),
        rng_(o.seed ^ 0x6f7072662d6b6579ULL),
        oprf_(timed_keygen(rng_, kRsaBits, keygen_s_)),
        cluster_(backend_config(o.id_space), kBackendShards),
        timed_cluster_(recorder ? std::make_unique<TimedBackend>(
                                      cluster_, TimedBackend::Level::kCluster)
                                : nullptr),
        durable_(o.journal_dir.empty()
                     ? nullptr
                     : std::make_unique<server::DurableBackend>(
                           timed_cluster_ ? static_cast<server::RoundBackend&>(
                                                *timed_cluster_)
                                          : cluster_,
                           durability_config(o.journal_dir))),
        timed_storage_(recorder && durable_
                           ? std::make_unique<TimedBackend>(
                                 *durable_, TimedBackend::Level::kStorage)
                           : nullptr),
        backend_ep_(front_backend(), &cluster_, /*serve_control=*/true),
        oprf_ep_(oprf_),
        dispatcher_(lane_handler(), kBackendShards,
                    server::cluster_lane_router(cluster_),
                    server::control_plane_barrier(),
                    server::DispatcherLimits{
                        .max_lane_depth = kLaneDepth,
                        .retry_after_ms = kRetryAfterMs,
                        .counters = &backend_ep_.counters()}),
        server_(front_handler(), {.port = 0, .backlog = 256}) {
    dispatcher_.set_frame_recycler(server_.frame_recycler());
  }

  [[nodiscard]] std::uint16_t port() const noexcept { return server_.port(); }

  /// Drain in dependency order: reactor, dispatcher, journal.
  void stop() {
    server_.stop();
    dispatcher_.stop();
    if (durable_) durable_->shutdown();
  }

  /// `name value` lines for server_stats.txt (after stop()).
  void write_stats(std::ostream& out) const {
    const proto::FrameServerStats s = server_.stats();
    const server::EndpointCounters& ep = backend_ep_.counters();
    const Kernels k = active_kernels();
    out << "keygen_s " << keygen_s_ << "\n"
        << "reactor_shards " << server_.shards() << "\n"
        << "dispatch_lanes " << dispatcher_.lanes() << "\n"
        << "frames_in " << s.messages_received << "\n"
        << "eventfd_wakeups " << s.reactor.eventfd_wakeups << "\n"
        << "streams_shed " << s.reactor.streams_shed << "\n"
        << "frames_pooled " << s.reactor.frames_pooled << "\n"
        << "pool_misses " << s.reactor.pool_misses << "\n"
        << "bytes_copied " << s.reactor.bytes_copied_ingest << "\n"
        << "dispatch_shed " << dispatcher_.shed() << "\n"
        << "endpoint_refusals " << ep.refusals.load() << "\n"
        << "kernel_mont " << k.mont << "\n"
        << "kernel_sketch " << k.sketch << "\n"
        << "kernel_sha256 " << k.sha256 << "\n";
    if (durable_) {
      const storage::DurabilityStats d = durable_->stats();
      out << "journal_records " << d.records << "\n"
          << "journal_fsyncs " << d.fsyncs << "\n"
          << "journal_enqueue_stalls " << d.enqueue_stalls << "\n"
          << "journal_off_writer_io " << d.off_writer_io << "\n"
          << "journal_reencodes " << durable_->journal_reencodes() << "\n";
    }
  }

 private:
  static crypto::RsaKeyPair timed_keygen(util::Rng& rng, std::size_t bits,
                                         double& seconds) {
    const std::uint64_t t0 = now_ns();
    crypto::RsaKeyPair key = crypto::rsa_generate(rng, bits);
    seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    return key;
  }

  server::RoundBackend& front_backend() {
    if (timed_storage_) return *timed_storage_;
    if (durable_) return *durable_;
    if (timed_cluster_) return *timed_cluster_;
    return cluster_;
  }

  std::vector<std::uint8_t> route(std::span<const std::uint8_t> frame) {
    // quickstart's routing: OPRF kinds to the oprf-server, everything
    // else (including frames too broken to peek) to the backend endpoint.
    const std::optional<proto::MsgKind> kind = proto::peek_kind(frame);
    if (kind == proto::MsgKind::kOprfEvalRequest ||
        kind == proto::MsgKind::kOprfKeyQuery)
      return oprf_ep_.handle(frame);
    return backend_ep_.handle(frame);
  }

  proto::FrameHandler lane_handler() {
    if (recorder_ == nullptr)
      return [this](std::span<const std::uint8_t> frame) {
        return route(frame);
      };
    return [this](std::span<const std::uint8_t> frame) {
      const SpanRecorder::RouteScope scope;
      return route(frame);
    };
  }

  proto::AsyncFrameHandler front_handler() {
    if (recorder_ == nullptr) return dispatcher_.handler();
    return [this](std::vector<std::uint8_t> frame, proto::CompletionFn done) {
      const std::size_t slot = recorder_->on_entry(frame);
      if (slot == SpanRecorder::kNoSlot) {
        dispatcher_.submit(std::move(frame), std::move(done));
        return;
      }
      dispatcher_.submit(
          std::move(frame),
          [rec = recorder_, slot, done = std::move(done)](
              std::vector<std::uint8_t> reply) {
            rec->on_done(slot);
            if (done) done(std::move(reply));
          });
    };
  }

  SpanRecorder* recorder_;
  double keygen_s_ = 0.0;
  util::Rng rng_;
  crypto::OprfServer oprf_;
  server::BackendCluster cluster_;
  std::unique_ptr<TimedBackend> timed_cluster_;
  std::unique_ptr<server::DurableBackend> durable_;
  std::unique_ptr<TimedBackend> timed_storage_;
  server::BackendEndpoint backend_ep_;
  server::OprfEndpoint oprf_ep_;
  server::AsyncDispatcher dispatcher_;
  proto::FrameServer server_;
};

volatile std::sig_atomic_t g_stop_signal = 0;

extern "C" void on_stop_signal(int sig) { g_stop_signal = sig; }

std::uint64_t parse_u64(const std::string& flag, const std::string& value) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0')
    throw std::invalid_argument("--serve-child: bad " + flag + " " + value);
  return v;
}

std::vector<std::string> child_argv(const ChildOptions& o, int ready_fd) {
  return {"eyw_bench",
          "--serve-child",
          "--seed", std::to_string(o.seed),
          "--id-space", std::to_string(o.id_space),
          "--journal", o.journal_dir.empty() ? "-" : o.journal_dir,
          "--out", o.out_dir,
          "--trace", o.trace ? "1" : "0",
          "--span-capacity", std::to_string(o.span_capacity),
          "--ready-fd", std::to_string(ready_fd)};
}

}  // namespace

// ------------------------------------------------------------ child side

int serve_child_main(const std::vector<std::string>& args) {
  ChildOptions o;
  int ready_fd = -1;
  for (std::size_t i = 0; i + 1 < args.size(); i += 2) {
    const std::string& flag = args[i];
    const std::string& value = args[i + 1];
    if (flag == "--seed") o.seed = parse_u64(flag, value);
    else if (flag == "--id-space") o.id_space = parse_u64(flag, value);
    else if (flag == "--journal") o.journal_dir = value == "-" ? "" : value;
    else if (flag == "--out") o.out_dir = value;
    else if (flag == "--trace") o.trace = value == "1";
    else if (flag == "--span-capacity") o.span_capacity = parse_u64(flag, value);
    else if (flag == "--ready-fd")
      ready_fd = static_cast<int>(parse_u64(flag, value));
    else throw std::invalid_argument("--serve-child: unknown flag " + flag);
  }
  if (args.size() % 2 != 0 || ready_fd < 0 || o.out_dir.empty())
    throw std::invalid_argument("--serve-child: incomplete arguments");

  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = on_stop_signal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  std::unique_ptr<SpanRecorder> recorder =
      o.trace ? std::make_unique<SpanRecorder>(o.span_capacity) : nullptr;
  BenchServerStack stack(o, recorder.get());

  const std::string ready = std::to_string(stack.port()) + "\n";
  if (::write(ready_fd, ready.data(), ready.size()) !=
      static_cast<ssize_t>(ready.size()))
    throw std::runtime_error("--serve-child: cannot report the port");
  ::close(ready_fd);

  while (g_stop_signal == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

  stack.stop();
  std::ofstream stats(o.out_dir + "/server_stats.txt");
  stack.write_stats(stats);
  if (recorder) {
    stats << "spans_dropped " << recorder->dropped() << "\n";
    recorder->write(o.out_dir + "/server_spans.bin");
  }
  stats.close();
  if (!stats) throw std::runtime_error("--serve-child: cannot write stats");
  return 0;
}

// ------------------------------------------------------------ parent side

ServerChild::ServerChild(const ChildOptions& options) : options_(options) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0)
    throw std::runtime_error("ServerChild: pipe failed");
  // Everything exec needs is built before fork: between fork and exec the
  // child may only make async-signal-safe calls.
  const std::vector<std::string> args = child_argv(options_, fds[1]);
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();

  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("ServerChild: fork failed");
  }
  if (pid_ == 0) {
    // Die with the generator, whatever kills it.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(127);
    ::fcntl(fds[1], F_SETFD, 0);  // the ready pipe survives exec
    ::execv("/proc/self/exe", argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);

  // The child reports its port once it listens (after RSA keygen and, for
  // a journaled stack, recovery of the fresh journal directory).
  std::string line;
  pollfd pfd{.fd = fds[0], .events = POLLIN, .revents = 0};
  const std::uint64_t deadline = now_ns() + 120'000'000'000ULL;
  while (line.find('\n') == std::string::npos && now_ns() < deadline) {
    if (::poll(&pfd, 1, 1000) <= 0) continue;
    char buf[32];
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n <= 0) break;
    line.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  const unsigned long port = std::strtoul(line.c_str(), nullptr, 10);
  if (port == 0 || port > 65535) {
    try {
      stop();
    } catch (...) {
    }
    throw std::runtime_error("ServerChild: child did not come up");
  }
  port_ = static_cast<std::uint16_t>(port);
}

ServerChild::~ServerChild() {
  try {
    stop();
  } catch (...) {
    // Already reaped or killed; nothing left to release.
  }
}

void ServerChild::stop() {
  if (pid_ <= 0) return;
  const pid_t pid = pid_;
  pid_ = -1;
  ::kill(pid, SIGTERM);
  int status = 0;
  // Draining flushes the journal and writes the span file; give it time,
  // then make sure nothing outlives the benchmark.
  const std::uint64_t deadline = now_ns() + 60'000'000'000ULL;
  pid_t got = 0;
  while ((got = ::waitpid(pid, &status, WNOHANG)) == 0 && now_ns() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  if (got == 0) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
    throw std::runtime_error("ServerChild: child did not drain in 60 s");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("ServerChild: child exited abnormally (status " +
                             std::to_string(status) + ")");
}

std::map<std::string, std::string> ServerChild::stats() const {
  std::ifstream in(options_.out_dir + "/server_stats.txt");
  if (!in)
    throw std::runtime_error("ServerChild: no server_stats.txt in " +
                             options_.out_dir);
  std::map<std::string, std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t space = line.find(' ');
    if (space != std::string::npos)
      out[line.substr(0, space)] = line.substr(space + 1);
  }
  return out;
}

}  // namespace eyw::bench
