#include "generator.hpp"

#include <sched.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "client/url_mapper.hpp"
#include "clock.hpp"
#include "crypto/blinding.hpp"
#include "crypto/dh.hpp"
#include "proc.hpp"
#include "proto/client_reactor.hpp"
#include "proto/message.hpp"
#include "server/remote_backend.hpp"
#include "server_child.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace eyw::bench {

namespace {

constexpr std::size_t kMuxConnections = 3;
constexpr std::size_t kClientShards = 2;
/// Logical streams the reports are spread over (round-robin across the
/// mux connections). The closed loop's window is one stream per slot.
constexpr std::size_t kStreams = 2048;
constexpr std::uint16_t kReportKind =
    static_cast<std::uint16_t>(proto::MsgKind::kBlindedReport);
constexpr std::uint16_t kAdjustmentKind =
    static_cast<std::uint16_t>(proto::MsgKind::kAdjustment);

const sketch::CmsParams kCms{.depth = 4, .width = 256};

server::BackendConfig backend_config(const WorkloadSpec& spec) {
  return {.cms_params = kCms,
          .cms_hash_seed = 3,
          .id_space = spec.id_space,
          .users_rule = core::ThresholdRule::kMean};
}

/// A reporter's true (unblinded) cells for one round: an arithmetic
/// progression base + c * step, seeded per (seed, round, reporter class)
/// with kRecipes classes (reporter mod kRecipes). Any values exercise the
/// protocol identically, and this shape makes the expected aggregate of
/// any reporter set a closed form: cell c is sum(base) + c * sum(step),
/// wrapping.
constexpr std::uint32_t kRecipes = 16;

struct CellRecipe {
  std::uint32_t base = 0;
  std::uint32_t step = 0;
};

CellRecipe recipe(std::uint64_t seed, std::uint64_t round,
                  std::uint32_t reporter) {
  const std::uint64_t h = util::mix64(
      seed ^ util::mix64(round * 0x9e3779b97f4a7c15ULL ^
                         util::mix64(reporter % kRecipes + 1)));
  return {static_cast<std::uint32_t>(h), static_cast<std::uint32_t>(h >> 32)};
}

std::vector<crypto::BlindCell> cells_of(CellRecipe r) {
  std::vector<crypto::BlindCell> cells(kCms.cells());
  for (std::size_t c = 0; c < cells.size(); ++c)
    cells[c] = r.base + static_cast<std::uint32_t>(c) * r.step;
  return cells;
}

/// One round's unblinded report frames, built by copying an encoded
/// template per recipe class and patching the participant (envelope
/// sender at offset 8, payload participant right after the header).
/// Encoding a 4 KiB report costs ~3 us, over half the generator's work
/// per frame: without templates the generator, not the server, would
/// bound the saturating workload. Every template's patch is checked
/// against a real encode when the round's templates are built.
class ReportTemplates {
 public:
  void build(std::uint64_t seed, std::uint64_t round) {
    templates_.clear();
    for (std::uint32_t k = 0; k < kRecipes; ++k) {
      templates_.push_back(encode(k, round, cells_of(recipe(seed, round, k))));
      const std::uint32_t probe = k + kRecipes;
      if (frame(probe) !=
          encode(probe, round, cells_of(recipe(seed, round, probe))))
        throw RunFailure("report template patch != BlindedReport::encode");
    }
  }

  [[nodiscard]] std::vector<std::uint8_t> frame(std::uint32_t reporter) const {
    const std::vector<std::uint8_t>& t = templates_[reporter % kRecipes];
    std::vector<std::uint8_t> out;
    // Keep the headroom encode_envelope reserves, so the client's mux
    // write path still transforms the frame in place.
    out.reserve(t.size() + proto::kMuxHeadroomBytes);
    out.assign(t.begin(), t.end());
    put_u32(out, 8, reporter);
    put_u32(out, proto::kEnvelopeHeaderBytes, reporter);
    return out;
  }

 private:
  static std::vector<std::uint8_t> encode(
      std::uint32_t reporter, std::uint64_t round,
      std::vector<crypto::BlindCell> cells) {
    return proto::BlindedReport{
        .participant = reporter, .params = kCms, .cells = std::move(cells)}
        .encode(round);
  }
  static void put_u32(std::vector<std::uint8_t>& f, std::size_t at,
                      std::uint32_t v) {
    for (std::size_t b = 0; b < 4; ++b)
      f[at + b] = static_cast<std::uint8_t>(v >> (8 * b));
  }

  std::vector<std::vector<std::uint8_t>> templates_;
};

/// Transport wrapper timing the OPRF link's round trips from outside.
class TimedTransport final : public proto::Transport {
 public:
  explicit TimedTransport(proto::Transport& inner) : inner_(inner) {}

  /// The most recent exchange (read by the thread that made it).
  [[nodiscard]] Interval last() const noexcept { return last_; }

 private:
  std::vector<std::uint8_t> do_exchange(
      std::span<const std::uint8_t> frame) override {
    last_.start_ns = now_ns();
    std::vector<std::uint8_t> reply = inner_.exchange(frame);
    last_.end_ns = now_ns();
    return reply;
  }

  proto::Transport& inner_;
  Interval last_;
};

std::vector<std::string> oprf_urls(std::uint64_t seed, std::size_t batch,
                                   std::size_t size) {
  std::vector<std::string> urls;
  urls.reserve(size);
  for (std::size_t k = 0; k < size; ++k)
    urls.push_back("https://ad.bench/" + std::to_string(seed) + "/" +
                   std::to_string(batch) + "/" + std::to_string(k));
  return urls;
}

/// One server child plus everything the generator connects to it.
class Session {
 public:
  Session(const WorkloadSpec& spec, const PassOptions& opt, std::size_t index)
      : spec_(spec),
        opt_(opt),
        config_(backend_config(spec)),
        block_(spec.roster * (spec.loop == Loop::kBlinded ? 2 : 1)),
        subs_((spec.rounds + 1) * block_),
        t_spawn_(now_ns()),
        child_(child_options(spec, opt, index)),
        pool_(spec.loop == Loop::kBlinded
                  ? std::make_unique<util::ThreadPool>(2)
                  : nullptr),
        reactor_({.shards = kClientShards, .backoff_jitter_seed = opt.seed}) {
    for (std::size_t k = 0; k < kMuxConnections; ++k)
      muxes_.push_back(reactor_.open_mux("127.0.0.1", child_.port()));
    const std::size_t streams =
        spec.loop == Loop::kClosed ? spec.window : kStreams;
    for (std::size_t k = 0; k < streams; ++k)
      streams_.push_back(muxes_[k % kMuxConnections]->open_stream());
    control_ = reactor_.open("127.0.0.1", child_.port());
    remote_.emplace(*control_, config_);

    if (spec.loop == Loop::kBlinded) setup_roster();
    if (spec.oprf_batches > 0) setup_oprf();
    run_round(/*round=*/1, /*data=*/nullptr);  // untimed warm-up
    setup_s_ = static_cast<double>(now_ns() - t_spawn_) * 1e-9;
  }

  ~Session() {
    aborted_.store(true);
    if (oprf_thread_.joinable()) oprf_thread_.join();
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] double setup_s() const noexcept { return setup_s_; }

  /// The measured rounds, then the child's shutdown accounting.
  void run_measured(PassData& out) {
    out.roster_setup_s = roster_setup_s_;
    const double gen_cpu0 = process_cpu_seconds();
    if (spec_.oprf_batches > 0) {
      out.oprf.resize(spec_.oprf_batches);
      const std::uint64_t t0 = now_ns();
      oprf_thread_ = std::thread([this, &out, t0] { oprf_loop(out, t0); });
    }
    for (std::size_t r = 0; r < spec_.rounds; ++r)
      run_round(/*round=*/r + 2, &out);
    if (oprf_thread_.joinable()) oprf_thread_.join();
    out.gen_cpu_s = process_cpu_seconds() - gen_cpu0;
    out.server_peak_rss_kib = proc_peak_rss_kib(child_.pid());
    out.server_threads = proc_threads(child_.pid());
    out.client_retries = reactor_.counters().unavailable_retries;
    out.gen_threads_max = threads_max_;
    out.gen_connections_max = connections_max_;
    // Every exchange has completed, so no callback touches subs_ again.
    subs_.erase(subs_.begin(),
                subs_.begin() + static_cast<std::ptrdiff_t>(block_));
    out.subs = std::move(subs_);

    child_.stop();
    out.server_stats = child_.stats();
    if (opt_.traced)
      out.spans = read_spans(child_.options().out_dir + "/server_spans.bin");
  }

 private:
  static ChildOptions child_options(const WorkloadSpec& spec,
                                    const PassOptions& opt,
                                    std::size_t index) {
    ChildOptions c;
    c.seed = opt.seed;
    c.id_space = spec.id_space;
    c.out_dir = opt.out_dir + "/session-" + std::to_string(index);
    std::filesystem::create_directories(c.out_dir);
    if (spec.journal) c.journal_dir = c.out_dir + "/journal";
    c.trace = opt.traced;
    // Every frame the child will see, with slack for retried attempts.
    const std::size_t per_round = spec.roster * 2 + 3;
    c.span_capacity = (spec.rounds + 1) * per_round + spec.oprf_batches +
                      spec.oprf_batches / 4 + 4096;
    return c;
  }

  [[noreturn]] void throw_failure(const std::string& what) {
    std::string detail;
    {
      std::lock_guard<std::mutex> lock(mu_);
      detail = first_error_;
    }
    throw RunFailure(spec_.name + ": " + what +
                     (detail.empty() ? "" : " (first error: " + detail + ")"));
  }

  // ---------------------------------------------------------------- set-up

  void setup_roster() {
    const std::uint64_t t0 = now_ns();
    util::Rng rng(opt_.seed ^ 0x726f73746572ULL);
    group_.emplace(crypto::DhGroup::generate(rng, spec_.dh_bits));
    const crypto::DhContext dh(*group_);
    std::vector<crypto::DhKeyPair> keys;
    std::vector<crypto::Bignum> publics;
    for (std::size_t i = 0; i < spec_.roster; ++i) {
      keys.push_back(dh.keygen(rng));
      publics.push_back(keys.back().public_key);
    }
    // Churn changes every round, so every member holds its pair keys.
    participants_.resize(spec_.roster);
    for (std::size_t i = 0; i < spec_.roster; ++i)
      participants_[i].emplace(*group_, i, keys[i],
                               std::span<const crypto::Bignum>(publics),
                               pool_.get());
    roster_setup_s_ = static_cast<double>(now_ns() - t0) * 1e-9;
  }

  void setup_oprf() {
    oprf_stream_ = muxes_[0]->open_stream();
    oprf_link_.emplace(*oprf_stream_);
    const proto::OprfKeyAnswer key = proto::OprfKeyAnswer::decode(
        proto::expect_reply(oprf_link_->exchange(proto::encode_oprf_key_query()),
                            proto::MsgKind::kOprfKeyAnswer));
    oprf_timed_.emplace(*oprf_link_);
    mapper_.emplace(*oprf_timed_, crypto::RsaPublicKey{.n = key.n, .e = key.e},
                    spec_.id_space, opt_.seed);
    // Warm-up batch: Montgomery contexts and the OPRF lane path are hot
    // before the first measured batch.
    (void)mapper_->map_batch(
        oprf_urls(opt_.seed, ~std::size_t{0}, spec_.oprf_batch_size));
  }

  // ---------------------------------------------------------------- OPRF

  void oprf_loop(PassData& out, std::uint64_t t0) {
    const auto period =
        static_cast<std::uint64_t>(spec_.oprf_period_ms * 1e6);
    for (std::size_t b = 0; b < out.oprf.size() && !aborted_.load(); ++b) {
      OprfBatch& batch = out.oprf[b];
      batch.due_ns = t0 + b * period;
      sleep_until_ns(batch.due_ns);
      const std::vector<std::string> urls =
          oprf_urls(opt_.seed, b, spec_.oprf_batch_size);
      batch.call.start_ns = now_ns();
      try {
        const std::vector<std::uint64_t> ids = mapper_->map_batch(urls);
        batch.ok = ids.size() == urls.size() ? 1 : 0;
      } catch (const std::exception& e) {
        note_error(std::string("oprf batch: ") + e.what());
      }
      batch.call.end_ns = now_ns();
      batch.exchange = oprf_timed_->last();
    }
  }

  // ---------------------------------------------------------------- rounds

  void note_error(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (first_error_.empty()) first_error_ = what;
  }

  void sample_generator() {
    threads_max_ = std::max(threads_max_, proc_threads(0));
    connections_max_ = std::max(connections_max_, proc_sockets(0));
  }

  /// Completion bookkeeping shared by every submission: stamp the ack,
  /// validate the reply, record the outcome. Runs on a reactor shard.
  std::uint64_t on_ack(std::size_t idx, proto::AsyncResult&& r) {
    const std::uint64_t t = now_ns();
    Submission& s = subs_[idx];
    s.ack_ns = t;
    try {
      if (r.error) std::rethrow_exception(r.error);
      (void)proto::expect_reply(r.reply, proto::MsgKind::kAck);
      s.status = kAcked;
    } catch (const std::exception& e) {
      s.status = kFailed;
      aborted_round_.store(true);
      note_error(e.what());
    }
    return t;
  }

  /// The last statement of every completion: once in_flight_ drains the
  /// waiting main thread may reuse the round state.
  void finish_one() {
    if (in_flight_.fetch_sub(1) == 1) {
      { std::lock_guard<std::mutex> lock(mu_); }
      cv_.notify_all();
    }
  }

  void wait_all() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return in_flight_.load() == 0; });
  }

  void send(std::size_t idx, std::size_t stream, std::uint16_t kind,
            std::uint32_t sender, std::uint64_t due,
            std::vector<std::uint8_t> frame) {
    Submission& s = subs_[idx];
    s = Submission{};
    s.due_ns = due;
    s.round = round_;
    s.sender = sender;
    s.kind = kind;
    in_flight_.fetch_add(1);
    s.send_ns = now_ns();
    streams_[stream]->exchange_async(
        std::move(frame), [this, idx](proto::AsyncResult r) {
          (void)on_ack(idx, std::move(r));
          finish_one();
        });
  }

  /// Closed loop: slot `slot` keeps exactly one exchange in flight; each
  /// ack launches the next reporter on the same stream.
  void launch_closed(std::uint32_t reporter, std::size_t slot,
                     std::uint64_t due) {
    const std::size_t idx = base_ + reporter;
    Submission& s = subs_[idx];
    s = Submission{};
    s.due_ns = due;
    s.round = round_;
    s.sender = reporter;
    s.kind = kReportKind;
    std::vector<std::uint8_t> frame = templates_.frame(reporter);
    s.send_ns = now_ns();
    streams_[slot]->exchange_async(
        std::move(frame), [this, idx, slot](proto::AsyncResult r) {
          const std::uint64_t t = on_ack(idx, std::move(r));
          // Chain first, account last (finish_one releases the waiter).
          const std::size_t next = next_.fetch_add(1);
          if (next < spec_.roster && !aborted_round_.load()) {
            in_flight_.fetch_add(1);
            launch_closed(static_cast<std::uint32_t>(next), slot, t);
          }
          finish_one();
        });
  }

  void reports_closed() {
    const std::size_t window = std::min(spec_.window, spec_.roster);
    next_.store(window);
    in_flight_.store(window);
    const std::uint64_t t0 = now_ns();
    for (std::size_t k = 0; k < window; ++k)
      launch_closed(static_cast<std::uint32_t>(k), k, t0);
    sample_generator();
  }

  void reports_open() {
    // Seeded Poisson arrivals: exponential gaps at the workload's rate,
    // scheduled from just after BeginRound returned.
    util::Rng rng(util::mix64(opt_.seed ^ (round_ << 20) ^ 0x706f6973ULL));
    const double mean_gap_ns = 1e9 / spec_.rate;
    const std::uint64_t t0 = now_ns() + 200'000;
    double offset = 0.0;
    for (std::size_t i = 0; i < spec_.roster; ++i) {
      offset += -std::log(1.0 - rng.uniform()) * mean_gap_ns;
      const std::uint64_t due = t0 + static_cast<std::uint64_t>(offset);
      sleep_until_ns(due);
      const auto reporter = static_cast<std::uint32_t>(i);
      send(base_ + i, i % streams_.size(), kReportKind, reporter, due,
           templates_.frame(reporter));
      if (i == spec_.roster / 2) sample_generator();
    }
  }

  void reports_blinded(const std::vector<std::size_t>& reporters,
                       PassData* data) {
    for (const std::size_t i : reporters) {
      const std::uint64_t t0 = now_ns();
      std::vector<crypto::BlindCell> blinded = participants_[i]->blind(
          cells_of(recipe(opt_.seed, round_, static_cast<std::uint32_t>(i))),
          round_);
      const std::uint64_t t1 = now_ns();
      std::vector<std::uint8_t> frame =
          proto::BlindedReport{.participant = static_cast<std::uint32_t>(i),
                               .params = kCms,
                               .cells = std::move(blinded)}
              .encode(round_);
      const std::uint64_t t2 = now_ns();
      if (data != nullptr) {
        data->blind_ns.push_back(static_cast<double>(t1 - t0));
        data->blind_encode_ns.push_back(static_cast<double>(t2 - t0));
      }
      send(base_ + i, i % streams_.size(), kReportKind,
           static_cast<std::uint32_t>(i), t2, std::move(frame));
    }
    sample_generator();
  }

  void adjustments(const std::vector<std::size_t>& reporters,
                   const std::vector<std::size_t>& missing, PassData* data) {
    for (const std::size_t i : reporters) {
      if (!subs_[base_ + i].acked()) continue;  // not a reporter after all
      const std::uint64_t t0 = now_ns();
      std::vector<crypto::BlindCell> adj =
          participants_[i]->adjustment_for_missing(kCms.cells(), round_,
                                                   missing);
      const std::uint64_t t1 = now_ns();
      if (data != nullptr) data->adjust_ns.push_back(static_cast<double>(t1 - t0));
      std::vector<std::uint8_t> frame =
          proto::Adjustment{.participant = static_cast<std::uint32_t>(i),
                            .params = kCms,
                            .cells = std::move(adj)}
              .encode(round_);
      send(base_ + spec_.roster + i, i % streams_.size(), kAdjustmentKind,
           static_cast<std::uint32_t>(i), now_ns(), std::move(frame));
    }
  }

  /// This round's never-reporting members (blinded churn), ascending.
  std::vector<std::size_t> churn_set() const {
    if (spec_.churn == 0) return {};
    util::Rng rng(util::mix64(opt_.seed ^ (round_ << 24) ^ 0x636875726eULL));
    std::vector<std::size_t> churn =
        rng.sample_indices(spec_.roster, spec_.churn);
    std::sort(churn.begin(), churn.end());
    return churn;
  }

  void run_round(std::uint64_t round, PassData* data) {
    round_ = round;
    base_ = static_cast<std::size_t>(round - 1) * block_;
    aborted_round_.store(false);
    const std::vector<std::size_t> churn = churn_set();
    std::vector<std::size_t> reporters;
    for (std::size_t i = 0, c = 0; i < spec_.roster; ++i) {
      if (c < churn.size() && churn[c] == i) {
        ++c;
      } else {
        reporters.push_back(i);
      }
    }

    if (spec_.loop != Loop::kBlinded) templates_.build(opt_.seed, round_);
    const std::uint64_t server_cpu0 = data ? proc_cpu_ns(child_.pid()) : 0;
    const std::uint64_t t_begin = now_ns();
    remote_->begin_round(round, spec_.roster);
    switch (spec_.loop) {
      case Loop::kClosed: reports_closed(); break;
      case Loop::kOpen: reports_open(); break;
      case Loop::kBlinded: reports_blinded(reporters, data); break;
    }
    wait_all();

    // The missing list must be exactly the churn schedule plus whoever
    // failed to report.
    std::vector<std::size_t> want_missing = churn;
    RoundStat stat;
    std::uint64_t sum_base = 0;
    std::uint64_t sum_step = 0;
    std::uint64_t last_due = 0;
    std::uint64_t last_ack = 0;
    for (const std::size_t i : reporters) {
      const Submission& s = subs_[base_ + i];
      last_due = std::max(last_due, s.due_ns);
      last_ack = std::max(last_ack, s.ack_ns);
      if (!s.acked()) {
        want_missing.push_back(i);
        continue;
      }
      ++stat.reports;
      const CellRecipe r = recipe(opt_.seed, round_, static_cast<std::uint32_t>(i));
      sum_base += r.base;
      sum_step += r.step;
    }
    std::sort(want_missing.begin(), want_missing.end());
    const std::vector<std::size_t> missing = remote_->missing_participants();
    if (missing != want_missing)
      throw_failure("round " + std::to_string(round) + ": missing list has " +
                    std::to_string(missing.size()) + " entries, want " +
                    std::to_string(want_missing.size()));
    if (!missing.empty()) {
      if (spec_.loop != Loop::kBlinded)
        throw_failure("reports failed on a workload without churn");
      adjustments(reporters, missing, data);
      wait_all();
      for (const std::size_t i : reporters)
        if (subs_[base_ + spec_.roster + i].acked()) ++stat.adjustments;
      if (stat.adjustments != stat.reports)
        throw_failure("an adjustment failed; the round cannot finalize");
    }
    const server::RoundResult result = remote_->finalize_round();
    const std::uint64_t t_end = now_ns();
    const std::uint64_t server_cpu1 = data ? proc_cpu_ns(child_.pid()) : 0;
    sample_generator();

    // Pads and adjustments cancel: the aggregate is the wrapping sum of
    // the true cells of exactly the reports the server acked.
    const std::span<const std::uint32_t> got = result.aggregate.cells();
    bool identical = got.size() == kCms.cells() &&
                     result.reports == stat.reports &&
                     result.roster == spec_.roster;
    for (std::size_t c = 0; identical && c < got.size(); ++c)
      identical = got[c] == static_cast<std::uint32_t>(sum_base) +
                                static_cast<std::uint32_t>(c) *
                                    static_cast<std::uint32_t>(sum_step);
    if (!identical)
      throw_failure("round " + std::to_string(round) +
                    ": aggregate != sum of the acked reports' true cells");

    if (data != nullptr) {
      data->control_calls += 3;
      stat.wall_ms = static_cast<double>(t_end - t_begin) * 1e-6;
      stat.server_cpu_ms = static_cast<double>(server_cpu1 - server_cpu0) * 1e-6;
      stat.drain_ms = (static_cast<double>(last_ack) -
                       static_cast<double>(last_due)) * 1e-6;
      data->rounds.push_back(stat);
    }
  }

  const WorkloadSpec& spec_;
  const PassOptions& opt_;
  const server::BackendConfig config_;
  const std::size_t block_;  ///< submission slots per round

  // Round state shared with completions: declared before the reactor so
  // it outlives every callback the reactor may still run at teardown.
  std::vector<Submission> subs_;
  ReportTemplates templates_;
  std::uint64_t round_ = 0;
  std::size_t base_ = 0;
  std::atomic<std::size_t> in_flight_{0};
  std::atomic<std::size_t> next_{0};
  std::atomic<bool> aborted_round_{false};
  std::atomic<bool> aborted_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  std::string first_error_;  // guarded by mu_
  std::size_t threads_max_ = 0;
  std::size_t connections_max_ = 0;
  double setup_s_ = 0.0;
  double roster_setup_s_ = 0.0;

  std::uint64_t t_spawn_;
  ServerChild child_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::optional<crypto::DhGroup> group_;
  std::vector<std::optional<crypto::BlindingParticipant>> participants_;
  std::vector<std::shared_ptr<proto::MuxChannel>> muxes_;
  std::vector<std::shared_ptr<proto::MuxStream>> streams_;
  std::shared_ptr<proto::MuxStream> oprf_stream_;
  proto::ClientReactor reactor_;
  std::shared_ptr<proto::ClientChannel> control_;
  std::optional<server::RemoteBackend> remote_;
  std::optional<proto::SyncTransportAdapter> oprf_link_;
  std::optional<TimedTransport> oprf_timed_;
  std::optional<client::OprfUrlMapper> mapper_;
  std::thread oprf_thread_;
};

/// Make the calling (pacing) thread wake on time: no timer slack, and a
/// short scheduler slice so a wake-up preempts whatever runs on its CPU
/// instead of waiting out that task's slice (EEVDF, Linux >= 6.12). The
/// pacer runs a few microseconds per send, so this costs the server
/// nothing measurable. Best effort: older kernels refuse the slice.
void request_prompt_wakeups() {
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  struct SchedAttr {  // struct sched_attr, which glibc does not declare
    std::uint32_t size;
    std::uint32_t sched_policy;
    std::uint64_t sched_flags;
    std::int32_t sched_nice;
    std::uint32_t sched_priority;
    std::uint64_t sched_runtime;
    std::uint64_t sched_deadline;
    std::uint64_t sched_period;
  } attr{};
  attr.size = sizeof attr;
  attr.sched_policy = SCHED_OTHER;
  attr.sched_runtime = 100'000;  // slice, ns
  (void)::syscall(SYS_sched_setattr, 0, &attr, 0);
}

}  // namespace

PassData run_pass(const WorkloadSpec& spec, const PassOptions& options) {
  PassData data;
  data.gen_kernels = active_kernels();
  if (spec.loop == Loop::kOpen) request_prompt_wakeups();
  for (std::size_t k = 0; k < options.setups; ++k) {
    Session session(spec, options, k);
    data.setup_s.push_back(session.setup_s());
    if (k + 1 == options.setups) session.run_measured(data);
  }
  return data;
}

}  // namespace eyw::bench
