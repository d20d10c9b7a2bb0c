#include "server/endpoint.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>

#include "sketch/serialize.hpp"

namespace eyw::server {

namespace {

std::vector<std::uint8_t> error_reply(proto::ErrorCode code,
                                      const std::string& detail) {
  return proto::ErrorReply{.code = code, .detail = detail}.encode();
}

}  // namespace

BackendEndpoint::BackendEndpoint(RoundBackend& backend, bool serve_control)
    : backend_(backend), cluster_(nullptr), serve_control_(serve_control) {}

BackendEndpoint::BackendEndpoint(BackendCluster& cluster, bool serve_control)
    : backend_(cluster), cluster_(&cluster), serve_control_(serve_control) {}

BackendEndpoint::BackendEndpoint(RoundBackend& backend,
                                 const BackendCluster* routing,
                                 bool serve_control)
    : backend_(backend), cluster_(routing), serve_control_(serve_control) {}

std::vector<std::uint8_t> BackendEndpoint::refuse(proto::ErrorCode code,
                                                  const std::string& detail) {
  counters_.refusals.fetch_add(1, std::memory_order_relaxed);
  const auto raw = static_cast<std::size_t>(code);
  const std::size_t slot = std::min(raw, EndpointCounters::kCodeSlots - 1);
  counters_.refused_by_code[slot].fetch_add(1, std::memory_order_relaxed);
  return error_reply(code, detail);
}

std::vector<std::uint8_t> BackendEndpoint::handle(
    std::span<const std::uint8_t> frame) {
  counters_.frames.fetch_add(1, std::memory_order_relaxed);
  try {
    return dispatch(proto::decode_envelope_view(frame));
  } catch (const proto::ProtoError& e) {
    return refuse(e.code(), e.what());
  } catch (const std::invalid_argument& e) {
    // The backend refused a well-formed submission (duplicate, outside
    // roster, non-reporter adjustment…). A duplicate is a replay of an
    // already-accepted frame — kept distinguishable for the operator.
    if (std::string_view(e.what()).find("duplicate") !=
        std::string_view::npos)
      counters_.refused_replay.fetch_add(1, std::memory_order_relaxed);
    return refuse(proto::ErrorCode::kRejected, e.what());
  } catch (const std::exception& e) {
    return refuse(proto::ErrorCode::kInternal, e.what());
  }
}

std::vector<std::uint8_t> BackendEndpoint::dispatch(
    const proto::EnvelopeView& env) {
  switch (env.kind) {
    case proto::MsgKind::kBlindedReport:
      return on_report(env);
    case proto::MsgKind::kAdjustment:
      return on_adjustment(env);
    case proto::MsgKind::kShardedSubmit:
      return on_sharded(env);
    case proto::MsgKind::kBeginRound:
    case proto::MsgKind::kMissingQuery:
    case proto::MsgKind::kFinalizeRequest:
      if (!serve_control_)
        return refuse(proto::ErrorCode::kRejected,
                      "control plane disabled on this endpoint");
      return on_control(env);
    default:
      return refuse(proto::ErrorCode::kUnknownKind,
                    std::string("backend cannot serve ") +
                        proto::to_string(env.kind));
  }
}

std::vector<std::uint8_t> BackendEndpoint::on_control(
    const proto::EnvelopeView& env) {
  switch (env.kind) {
    case proto::MsgKind::kBeginRound: {
      const proto::BeginRound begin = proto::BeginRound::decode(env);
      // begin_round resets every accepted submission, so a replayed (or
      // stale) BeginRound re-applied here would silently wipe the round.
      // Rounds only move forward: once one is open, a begin for the same
      // or an earlier round is a replay and must be refused.
      if (backend_.round_open() && env.round <= backend_.current_round()) {
        counters_.refused_replay.fetch_add(1, std::memory_order_relaxed);
        return refuse(proto::ErrorCode::kRejected,
                      "begin-round replayed for an already-open round");
      }
      backend_.begin_round(env.round, begin.roster);
      counters_.control_served.fetch_add(1, std::memory_order_relaxed);
      counters_.round_current.store(env.round, std::memory_order_relaxed);
      counters_.round_roster.store(begin.roster, std::memory_order_relaxed);
      counters_.round_reports.store(0, std::memory_order_relaxed);
      counters_.round_adjustments.store(0, std::memory_order_relaxed);
      return proto::encode_ack();
    }
    case proto::MsgKind::kMissingQuery: {
      if (!env.payload.empty())
        return refuse(proto::ErrorCode::kMalformed,
                      "missing-query carries no payload");
      proto::MissingList list;
      for (const std::size_t m : backend_.missing_participants())
        list.missing.push_back(static_cast<std::uint32_t>(m));
      counters_.control_served.fetch_add(1, std::memory_order_relaxed);
      return list.encode(env.round);
    }
    case proto::MsgKind::kFinalizeRequest: {
      if (!env.payload.empty())
        return refuse(proto::ErrorCode::kMalformed,
                      "finalize-request carries no payload");
      const RoundResult result = backend_.finalize_round();
      proto::RoundSummary summary;
      summary.users_threshold = result.users_threshold;
      summary.reports = static_cast<std::uint32_t>(result.reports);
      summary.roster = static_cast<std::uint32_t>(result.roster);
      summary.distribution = result.distribution;
      summary.sketch_frame = sketch::encode_sketch(result.aggregate);
      counters_.control_served.fetch_add(1, std::memory_order_relaxed);
      return summary.encode(env.round);
    }
    default:
      return refuse(proto::ErrorCode::kInternal,
                    "on_control: unreachable kind");
  }
}

std::vector<std::uint8_t> BackendEndpoint::on_report(
    const proto::EnvelopeView& env) {
  // Round check before anything is applied: blinded cells only cancel
  // within the round their pads were salted for, so a stale frame — a
  // slow reporter, a delayed retransmit, a submission overtaking a
  // BeginRound on another dispatch lane — must be refused, never
  // aggregated into whichever round happens to be open now.
  if (env.round != backend_.current_round()) {
    counters_.refused_stale_round.fetch_add(1, std::memory_order_relaxed);
    return refuse(proto::ErrorCode::kRejected,
                  "report is for a different round");
  }
  proto::BlindedReport report = proto::BlindedReport::decode(env);
  if (report.params != backend_.config().cms_params)
    return refuse(proto::ErrorCode::kGeometryMismatch,
                  "report geometry != round geometry");
  // env.raw carries the accepted frame's exact wire bytes — a journaling
  // backend persists them directly instead of re-encoding the report.
  backend_.submit_report_frame(report.participant, std::move(report.cells),
                               env.raw);
  counters_.reports_accepted.fetch_add(1, std::memory_order_relaxed);
  counters_.round_reports.fetch_add(1, std::memory_order_relaxed);
  return proto::encode_ack();
}

std::vector<std::uint8_t> BackendEndpoint::on_adjustment(
    const proto::EnvelopeView& env) {
  // Same stale-frame refusal as on_report.
  if (env.round != backend_.current_round()) {
    counters_.refused_stale_round.fetch_add(1, std::memory_order_relaxed);
    return refuse(proto::ErrorCode::kRejected,
                  "adjustment is for a different round");
  }
  proto::Adjustment adj = proto::Adjustment::decode(env);
  if (adj.params != backend_.config().cms_params)
    return refuse(proto::ErrorCode::kGeometryMismatch,
                  "adjustment geometry != round geometry");
  backend_.submit_adjustment_frame(adj.participant, std::move(adj.cells),
                                   env.raw);
  counters_.adjustments_accepted.fetch_add(1, std::memory_order_relaxed);
  counters_.round_adjustments.fetch_add(1, std::memory_order_relaxed);
  return proto::encode_ack();
}

std::vector<std::uint8_t> BackendEndpoint::on_sharded(
    const proto::EnvelopeView& env) {
  if (cluster_ == nullptr)
    return refuse(proto::ErrorCode::kRejected,
                  "sharded-submit to a non-sharded backend");
  // Zero-copy unwrap: the inner envelope is decoded as a view into the
  // wrapper's payload — inner.raw then names the inner frame's own bytes,
  // which is exactly what the journal capture must persist (replay
  // re-applies the submission without its routing wrapper).
  const proto::ShardedSubmitView sub = proto::decode_sharded_view(env);
  const proto::EnvelopeView inner = proto::decode_envelope_view(sub.inner);
  if (inner.kind != proto::MsgKind::kBlindedReport &&
      inner.kind != proto::MsgKind::kAdjustment) {
    return refuse(proto::ErrorCode::kUnknownKind,
                  "sharded-submit must wrap a report or adjustment");
  }
  // The *outer* sender is what routing keys on before the payload is ever
  // decoded (peek_sender — e.g. the sharded dispatcher's lane choice), so
  // a wrapper whose outer sender disagrees with the submission inside
  // would be applied under another participant's serialization. Refuse it
  // before it reaches the shard.
  if (env.sender != inner.sender)
    return refuse(proto::ErrorCode::kRejected,
                  "sharded-submit: wrapper sender != inner sender");
  // The router stamps the shard it computed; the cluster re-derives it
  // from the sender and refuses a misrouted frame instead of silently
  // re-routing (a routing bug upstream should be loud).
  if (sub.shard != cluster_->shard_for(inner.sender))
    return refuse(proto::ErrorCode::kRejected,
                  "sharded-submit routed to the wrong shard");
  return dispatch(inner);
}

OprfEndpoint::OprfEndpoint(const crypto::OprfServer& server)
    : server_(server) {}

std::vector<std::uint8_t> OprfEndpoint::handle(
    std::span<const std::uint8_t> frame) {
  try {
    const proto::Envelope env = proto::decode_envelope(frame);
    if (env.kind == proto::MsgKind::kOprfKeyQuery) {
      if (!env.payload.empty())
        return error_reply(proto::ErrorCode::kMalformed,
                           "oprf-key-query carries no payload");
      const crypto::RsaPublicKey& key = server_.public_key();
      const proto::OprfKeyAnswer answer{
          .element_bytes = static_cast<std::uint32_t>(key.modulus_bytes()),
          .n = key.n,
          .e = key.e};
      return answer.encode();
    }
    if (env.kind != proto::MsgKind::kOprfEvalRequest)
      return error_reply(proto::ErrorCode::kUnknownKind,
                         std::string("oprf-server cannot serve ") +
                             proto::to_string(env.kind));
    const proto::OprfEvalRequest req = proto::OprfEvalRequest::decode(env);
    const crypto::RsaPublicKey& pub = server_.public_key();
    if (req.element_bytes != pub.modulus_bytes())
      return error_reply(proto::ErrorCode::kGeometryMismatch,
                         "element size != server modulus size");
    for (const crypto::Bignum& e : req.elements) {
      if (e >= pub.n || e.is_zero())
        return error_reply(proto::ErrorCode::kMalformed,
                           "blinded element outside Z_N*");
    }
    proto::OprfEvalResponse resp;
    resp.element_bytes = req.element_bytes;
    resp.elements = server_.evaluate_blinded_batch(req.elements);
    return resp.encode();
  } catch (const proto::ProtoError& e) {
    return error_reply(e.code(), e.what());
  } catch (const std::exception& e) {
    return error_reply(proto::ErrorCode::kInternal, e.what());
  }
}

}  // namespace eyw::server
