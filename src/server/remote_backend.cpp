#include "server/remote_backend.hpp"

#include <stdexcept>
#include <utility>

#include "proto/message.hpp"
#include "sketch/serialize.hpp"

namespace eyw::server {

RemoteBackend::RemoteBackend(proto::Transport& transport, BackendConfig config)
    : transport_(&transport), config_(std::move(config)) {}

RemoteBackend::RemoteBackend(proto::AsyncTransport& channel,
                             BackendConfig config)
    : channel_(&channel), config_(std::move(config)) {
  barrier_link_.emplace(channel);
}

RemoteBackend::~RemoteBackend() {
  // An in-flight ack completion locks mu_ and writes outstanding_ /
  // first_error_ — it must never find a destroyed backend (e.g. when an
  // exception unwinds past a caller that submitted but never reached a
  // barrier). Channels guarantee every completion fires exactly once
  // (reply, failure, or teardown), so this wait terminates.
  if (channel_ == nullptr) return;
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return outstanding_ == 0; });
}

void RemoteBackend::flush() const {
  if (channel_ == nullptr) return;
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return outstanding_ == 0; });
  if (first_error_) {
    std::exception_ptr err;
    std::swap(err, first_error_);
    std::rethrow_exception(err);
  }
}

std::size_t RemoteBackend::outstanding() const {
  std::lock_guard<std::mutex> lock(mu_);
  return outstanding_;
}

std::vector<std::uint8_t> RemoteBackend::exchange_barrier(
    std::span<const std::uint8_t> frame) const {
  if (channel_ != nullptr) {
    // The barrier round trip must observe every pipelined submission: the
    // server applies frames per connection in arrival order, so flushing
    // *then* exchanging on the same channel is a strict happens-after.
    flush();
    return barrier_link_->exchange(frame);
  }
  return transport_->exchange(frame);
}

void RemoteBackend::submit_frame(std::vector<std::uint8_t> frame) {
  if (channel_ == nullptr) {
    const auto reply = transport_->exchange(frame);
    (void)proto::expect_reply(reply, proto::MsgKind::kAck);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++outstanding_;
  }
  channel_->exchange_async(
      std::move(frame), [this](proto::AsyncResult result) {
        // Runs on the channel's loop thread: validate the ack, record the
        // first failure for the next barrier, release the flush waiter.
        std::exception_ptr err = std::move(result.error);
        if (!err) {
          try {
            (void)proto::expect_reply(result.reply, proto::MsgKind::kAck);
          } catch (...) {
            err = std::current_exception();
          }
        }
        std::lock_guard<std::mutex> lock(mu_);
        if (err && !first_error_) first_error_ = std::move(err);
        --outstanding_;
        cv_.notify_all();
      });
}

void RemoteBackend::begin_round(std::uint64_t round,
                                std::size_t roster_size) {
  const proto::BeginRound begin{
      .roster = static_cast<std::uint32_t>(roster_size)};
  const auto reply = exchange_barrier(begin.encode(round));
  (void)proto::expect_reply(reply, proto::MsgKind::kAck);
  round_ = round;
}

void RemoteBackend::submit_report(std::size_t participant_index,
                                  std::vector<crypto::BlindCell> blinded_cells) {
  const proto::BlindedReport report{
      .participant = static_cast<std::uint32_t>(participant_index),
      .params = config_.cms_params,
      .cells = std::move(blinded_cells)};
  submit_frame(report.encode(round_));
}

std::vector<std::size_t> RemoteBackend::missing_participants() const {
  const auto reply = exchange_barrier(proto::encode_missing_query(round_));
  const proto::MissingList list = proto::MissingList::decode(
      proto::expect_reply(reply, proto::MsgKind::kMissingList));
  return {list.missing.begin(), list.missing.end()};
}

void RemoteBackend::submit_adjustment(std::size_t participant_index,
                                      std::vector<crypto::BlindCell> adjustment) {
  const proto::Adjustment adj{
      .participant = static_cast<std::uint32_t>(participant_index),
      .params = config_.cms_params,
      .cells = std::move(adjustment)};
  submit_frame(adj.encode(round_));
}

RoundResult RemoteBackend::finalize_round(util::ThreadPool* /*pool*/) {
  const auto reply = exchange_barrier(proto::encode_finalize_request(round_));
  proto::RoundSummary summary = proto::RoundSummary::decode(
      proto::expect_reply(reply, proto::MsgKind::kRoundSummary));

  sketch::DecodedFrame frame;
  try {
    frame = sketch::decode_frame(summary.sketch_frame);
  } catch (const std::invalid_argument& e) {
    throw proto::ProtoError(
        proto::ErrorCode::kMalformed,
        std::string("round-summary: bad aggregate frame: ") + e.what());
  }
  if (frame.kind != sketch::FrameKind::kPlainSketch)
    throw proto::ProtoError(proto::ErrorCode::kMalformed,
                            "round-summary: aggregate is not a plain sketch");

  // Every estimate is one of the d·w cells, and the server scans
  // id_space ids: a histogram outside either bound is not this round's.
  if (summary.distribution.histogram().size() > config_.cms_params.cells() ||
      summary.distribution.size() > config_.id_space)
    throw proto::ProtoError(
        proto::ErrorCode::kMalformed,
        "round-summary: histogram larger than the sketch or the id space");

  return {.aggregate = sketch::sketch_from_frame(frame),
          .distribution = std::move(summary.distribution),
          .users_threshold = summary.users_threshold,
          .reports = summary.reports,
          .roster = summary.roster};
}

}  // namespace eyw::server
