#include "metrics.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <numeric>

#include "proto/message.hpp"
#include "stats.hpp"

namespace eyw::bench {

namespace {

constexpr auto kind(proto::MsgKind k) { return static_cast<std::uint16_t>(k); }

bool is_submission(std::uint16_t k) {
  return k == kind(proto::MsgKind::kBlindedReport) ||
         k == kind(proto::MsgKind::kAdjustment);
}

/// Measured rounds start at 2; round 1 is every session's warm-up.
bool measured(const ServerSpan& s) { return s.round >= 2; }

double stat_value(const PassData& pass, const std::string& name) {
  const auto it = pass.server_stats.find(name);
  return it == pass.server_stats.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double pct(std::vector<double> xs, double p) {
  return xs.empty() ? 0.0 : percentile(std::move(xs), p);
}

double mean(const std::vector<double>& xs) {
  return xs.empty() ? 0.0
                    : std::accumulate(xs.begin(), xs.end(), 0.0) /
                          static_cast<double>(xs.size());
}

std::uint64_t cluster_ns(const ServerSpan& s) {
  std::uint64_t total = 0;
  for (std::uint8_t k = 0; k < s.cluster_calls; ++k)
    total += s.cluster[k].length();
  return total;
}

std::vector<Interval> cluster_intervals(const ServerSpan& s) {
  return {s.cluster, s.cluster + s.cluster_calls};
}

/// Endpoint self time: route() minus the backend call it made (the
/// storage decorator when journaled, else the cluster's).
double endpoint_self_ns(const ServerSpan& s, bool journal) {
  return static_cast<double>(self_time(
      s.route, journal ? std::vector<Interval>{s.storage} : cluster_intervals(s)));
}

double storage_self_ns(const ServerSpan& s) {
  return static_cast<double>(self_time(s.storage, cluster_intervals(s)));
}

/// Latency of one acked submission as a reporter sees it: from the send
/// call, or from the due time on an open loop.
double ack_latency_ns(const WorkloadSpec& spec, const Submission& s) {
  const std::uint64_t from = spec.loop == Loop::kOpen ? s.due_ns : s.send_ns;
  return static_cast<double>(s.ack_ns - from);
}

std::vector<double> late_ms(const PassData& pass) {
  std::vector<double> out;
  for (const Submission& s : pass.subs)
    if (s.send_ns != 0) out.push_back(static_cast<double>(s.send_ns - s.due_ns) * 1e-6);
  return out;
}

/// Acked-submission latencies (ms) in blocks of consecutive rounds, each
/// holding at least kBlockSamples so that every block supports a p99 with
/// ten samples beyond it (a remainder joins the last block). Reporting
/// the median over blocks keeps one round hit by a host stall from
/// moving a run's percentile the way a pooled tail would.
constexpr std::size_t kBlockSamples = 1000;

std::vector<std::vector<double>> latency_blocks(const WorkloadSpec& spec,
                                                const PassData& p) {
  std::map<std::uint64_t, std::vector<double>> by_round;
  for (const Submission& s : p.subs)
    if (s.acked()) by_round[s.round].push_back(ack_latency_ns(spec, s) * 1e-6);
  std::vector<std::vector<double>> blocks;
  std::vector<double> current;
  for (auto& [round, lat] : by_round) {
    current.insert(current.end(), lat.begin(), lat.end());
    if (current.size() >= kBlockSamples) {
      blocks.push_back(std::move(current));
      current = {};
    }
  }
  if (!current.empty()) {
    if (blocks.empty()) blocks.emplace_back();
    blocks.back().insert(blocks.back().end(), current.begin(), current.end());
  }
  return blocks;
}

double block_median(const std::vector<std::vector<double>>& blocks, double p) {
  std::vector<double> per_block;
  for (const std::vector<double>& b : blocks) per_block.push_back(pct(b, p));
  return per_block.empty() ? 0.0 : median(per_block);
}

JsonObject tail_json(const Tail& t) {
  return JsonObject()
      .num("percentile", t.percentile)
      .num("value", t.value)
      .count("samples", t.samples);
}

}  // namespace

Counts count_operations(const PassData& pass) {
  Counts c;
  for (const Submission& s : pass.subs) {
    if (s.send_ns == 0) continue;  // a churned member's unused slot
    ++c.attempted;
    if (s.status != kAcked) ++c.failed;
  }
  c.attempted += pass.control_calls + pass.oprf.size();
  for (const OprfBatch& b : pass.oprf)
    if (b.ok == 0) ++c.failed;
  return c;
}

std::vector<Metric> e2e_metrics(const WorkloadSpec& spec,
                                const PassData& p, JsonObject& detail) {
  // Per-round values, each metric reported as the median over rounds.
  std::vector<double> walls, rates, cpu_us;
  std::size_t reports = 0;
  std::size_t adjustments = 0;
  double drain_max = 0.0;
  for (const RoundStat& r : p.rounds) {
    walls.push_back(r.wall_ms);
    rates.push_back(ratio(static_cast<double>(r.reports), r.wall_ms * 1e-3));
    cpu_us.push_back(ratio(r.server_cpu_ms * 1e3,
                           static_cast<double>(r.reports + r.adjustments)));
    reports += r.reports;
    adjustments += r.adjustments;
    drain_max = std::max(drain_max, r.drain_ms);
  }
  const std::vector<std::vector<double>> blocks = latency_blocks(spec, p);
  std::vector<double> lat_ms;
  for (const std::vector<double>& b : blocks)
    lat_ms.insert(lat_ms.end(), b.begin(), b.end());

  std::vector<Metric> out = {
      {"setup_s", median(p.setup_s), "s"},
      {"round_wall_ms", median(walls), "ms"},
      {"reports_per_s", median(rates), "1/s"},
      {"ack_p50_ms", block_median(blocks, 50), "ms"},
      {"ack_p99_ms", block_median(blocks, 99), "ms"},
      {"server_cpu_us_per_report", median(cpu_us), "us"},
      {"server_peak_rss_mb", static_cast<double>(p.server_peak_rss_kib) / 1024.0,
       "MB"},
  };
  if (spec.loop == Loop::kBlinded)
    out.push_back({"blind_ms_per_report", median(p.blind_encode_ns) * 1e-6, "ms"});
  if (!p.oprf.empty()) {
    std::vector<double> batch_ms;
    for (const OprfBatch& b : p.oprf)
      if (b.ok != 0) batch_ms.push_back(static_cast<double>(b.call.end_ns - b.due_ns) * 1e-6);
    out.push_back({"oprf_batch_p50_ms", pct(batch_ms, 50), "ms"});
    out.push_back({"oprf_batch_p95_ms", pct(batch_ms, 95), "ms"});
    detail.obj("oprf_batch_tail", tail_json(tail(batch_ms)));
  }
  const Counts counts = count_operations(p);
  out.push_back({"failed_ratio",
                 ratio(static_cast<double>(counts.failed),
                       static_cast<double>(counts.attempted)),
                 "fraction"});

  detail.obj("ack_tail_pooled", tail_json(tail(lat_ms)))
      .count("ack_blocks", blocks.size())
      .count("rounds", p.rounds.size())
      .count("reports", reports)
      .count("adjustments", adjustments)
      .raw("setup_s_samples", json_array(p.setup_s))
      .num("drain_ms_max", drain_max)
      .num("gen_late_p99_ms", pct(late_ms(p), 99));
  if (walls.size() >= 2) {
    const auto q = quartiles(walls);
    detail.raw("round_wall_ms_quartiles", json_array({q[0], q[1], q[2]}));
  }
  detail.raw("round_wall_ms_all", json_array(walls));
  return out;
}

std::vector<Metric> layer_metrics(const WorkloadSpec& spec,
                                  const PassData& p, const PassData& t,
                                  JsonObject& detail) {
  const std::vector<Joined> joined = join_by_key(t.subs, t.spans);
  std::size_t acked = 0;
  std::vector<double> acked_lat;
  for (const Submission& s : t.subs) {
    if (!s.acked()) continue;
    ++acked;
    acked_lat.push_back(static_cast<double>(s.ack_ns - s.due_ns));
  }
  std::vector<double> in_us, out_us;
  Stages sum;
  for (const Joined& j : joined) {
    const Stages st = stages_of(t.subs[j.gen], t.spans[j.srv]);
    in_us.push_back(st.in * 1e-3);
    out_us.push_back(st.out * 1e-3);
    sum.late += st.late;
    sum.in += st.in;
    sum.wait += st.wait;
    sum.route += st.route;
    sum.post += st.post;
    sum.out += st.out;
  }

  // Server-side distributions over the measured rounds.
  std::vector<double> wait_us, report_self_us, storage_self_us,
      cluster_submit_us, cluster_adjust_us, barrier_wait_ms, flush_ms,
      missing_ms, finalize_ms;
  std::vector<double> checkpoint_ms_by_round(t.rounds.size() + 2, 0.0);
  std::vector<std::pair<std::uint64_t, int>> queue_events;
  for (const ServerSpan& s : t.spans) {
    if (s.routed == 0) continue;
    queue_events.emplace_back(s.entry_ns, +1);
    queue_events.emplace_back(s.route.start_ns, -1);
    if (!measured(s)) continue;
    const double wait = static_cast<double>(s.route.start_ns - s.entry_ns);
    if (is_submission(s.kind)) {
      wait_us.push_back(wait * 1e-3);
      if (spec.journal) storage_self_us.push_back(storage_self_ns(s) * 1e-3);
    }
    if (s.kind == kind(proto::MsgKind::kBlindedReport)) {
      report_self_us.push_back(endpoint_self_ns(s, spec.journal) * 1e-3);
      cluster_submit_us.push_back(static_cast<double>(cluster_ns(s)) * 1e-3);
    } else if (s.kind == kind(proto::MsgKind::kAdjustment)) {
      cluster_adjust_us.push_back(static_cast<double>(cluster_ns(s)) * 1e-3);
    } else if (s.kind == kind(proto::MsgKind::kBeginRound) ||
               s.kind == kind(proto::MsgKind::kMissingQuery) ||
               s.kind == kind(proto::MsgKind::kFinalizeRequest)) {
      barrier_wait_ms.push_back(wait * 1e-6);
      const double storage_ms = spec.journal ? storage_self_ns(s) * 1e-6 : 0.0;
      if (s.kind == kind(proto::MsgKind::kMissingQuery)) {
        missing_ms.push_back(static_cast<double>(cluster_ns(s)) * 1e-6);
        flush_ms.push_back(storage_ms);
      } else {
        if (s.kind == kind(proto::MsgKind::kFinalizeRequest))
          finalize_ms.push_back(static_cast<double>(cluster_ns(s)) * 1e-6);
        if (s.round < checkpoint_ms_by_round.size())
          checkpoint_ms_by_round[s.round] += storage_ms;
      }
    }
  }
  std::sort(queue_events.begin(), queue_events.end());
  int depth = 0;
  int depth_max = 0;
  for (const auto& [at, delta] : queue_events) {
    depth += delta;
    depth_max = std::max(depth_max, depth);
  }

  const double frames_in = stat_value(t, "frames_in");
  const double pooled = stat_value(t, "frames_pooled");
  const double misses = stat_value(t, "pool_misses");
  std::size_t reports = 0;
  std::size_t adjustments = 0;
  for (const RoundStat& r : p.rounds) {
    reports += r.reports;
    adjustments += r.adjustments;
  }
  std::vector<double> walls_p, walls_t;
  for (const RoundStat& r : p.rounds) walls_p.push_back(r.wall_ms);
  for (const RoundStat& r : t.rounds) walls_t.push_back(r.wall_ms);

  std::vector<Metric> out = {
      {"proto.in_us_p50", pct(in_us, 50), "us"},
      {"proto.in_us_p99", pct(in_us, 99), "us"},
      {"proto.out_us_p50", pct(out_us, 50), "us"},
      {"proto.frames_per_wakeup",
       ratio(frames_in, stat_value(t, "eventfd_wakeups")), "count"},
      {"proto.pool_miss_ratio", ratio(misses, pooled + misses), "fraction"},
      {"proto.bytes_copied", stat_value(t, "bytes_copied"), "B"},
      {"proto.streams_shed", stat_value(t, "streams_shed"), "count"},
      {"proto.client_retries", static_cast<double>(t.client_retries), "count"},
      {"server.dispatch.wait_us_p50", pct(wait_us, 50), "us"},
      {"server.dispatch.wait_us_p99", pct(wait_us, 99), "us"},
      {"server.dispatch.depth_max", static_cast<double>(depth_max), "count"},
      {"server.dispatch.shed", stat_value(t, "dispatch_shed"), "count"},
      {"server.dispatch.barrier_wait_ms", pct(barrier_wait_ms, 50), "ms"},
      {"server.endpoint.report_us_p50", pct(report_self_us, 50), "us"},
      {"server.endpoint.report_us_p99", pct(report_self_us, 99), "us"},
      {"server.endpoint.refusals", stat_value(t, "endpoint_refusals"), "count"},
      {"storage.enqueue_stalls", stat_value(t, "journal_enqueue_stalls"), "count"},
      {"storage.records_per_fsync",
       ratio(stat_value(t, "journal_records"), stat_value(t, "journal_fsyncs")),
       "count"},
      {"server.cluster.submit_us_p50", pct(cluster_submit_us, 50), "us"},
      {"server.cluster.missing_ms", pct(missing_ms, 50), "ms"},
      {"server.cluster.finalize_ms", pct(finalize_ms, 50), "ms"},
      {"crypto.setup_s", stat_value(t, "keygen_s") + t.roster_setup_s, "s"},
      {"gen.late_p99_ms", pct(late_ms(p), 99), "ms"},
      {"gen.cpu_us_per_report",
       ratio(p.gen_cpu_s * 1e6, static_cast<double>(reports + adjustments)), "us"},
      {"gen.threads_max",
       static_cast<double>(std::max(p.gen_threads_max, t.gen_threads_max)), "count"},
      {"gen.connections",
       static_cast<double>(std::max(p.gen_connections_max, t.gen_connections_max)),
       "count"},
      {"trace.overhead_pct", (median(walls_t) / median(walls_p) - 1.0) * 100.0, "%"},
      {"trace.join_coverage",
       ratio(static_cast<double>(joined.size()), static_cast<double>(acked)),
       "fraction"},
  };

  // Layers only some workloads exercise.
  if (spec.journal) {
    std::vector<double> checkpoint_ms;
    for (std::size_t r = 2; r < checkpoint_ms_by_round.size(); ++r)
      checkpoint_ms.push_back(checkpoint_ms_by_round[r]);
    out.push_back({"storage.submit_us_p50", pct(storage_self_us, 50), "us"});
    out.push_back({"storage.submit_us_p99", pct(storage_self_us, 99), "us"});
    out.push_back({"storage.flush_ms", pct(flush_ms, 50), "ms"});
    out.push_back({"storage.checkpoint_ms", pct(checkpoint_ms, 50), "ms"});
  }
  if (spec.loop == Loop::kBlinded) {
    out.push_back({"server.cluster.adjust_us_p50", pct(cluster_adjust_us, 50), "us"});
    out.push_back({"crypto.blind_us_p50", pct(t.blind_ns, 50) * 1e-3, "us"});
    out.push_back({"crypto.adjust_us_p50", pct(t.adjust_ns, 50) * 1e-3, "us"});
    out.push_back({"crypto.roster_setup_s", t.roster_setup_s, "s"});
  }
  if (!t.oprf.empty()) {
    // The set-up's warm-up batch entered before the first measured one
    // was due; leave it out so the sequence join lines up.
    const std::uint16_t eval = kind(proto::MsgKind::kOprfEvalRequest);
    std::vector<ServerSpan> measured_oprf;
    for (const ServerSpan& s : t.spans)
      if (s.kind == eval && s.entry_ns >= t.oprf.front().due_ns)
        measured_oprf.push_back(s);
    std::vector<double> eval_us, client_ms;
    for (const Joined& j : join_by_sequence(t.oprf.size(), measured_oprf, eval)) {
      eval_us.push_back(static_cast<double>(measured_oprf[j.srv].route.length()) *
                        1e-3 / static_cast<double>(spec.oprf_batch_size));
    }
    for (const OprfBatch& b : t.oprf)
      if (b.ok != 0)
        client_ms.push_back(
            static_cast<double>(b.call.length() - b.exchange.length()) * 1e-6);
    out.push_back({"crypto.oprf_eval_us_per_element", pct(eval_us, 50), "us"});
    out.push_back({"client.oprf_client_ms_per_batch", pct(client_ms, 50), "ms"});
  }

  // The stages partition each joined submission's latency, so their means
  // must add up to the mean latency of every acked submission (the join
  // only drops what it cannot see).
  const double n = static_cast<double>(std::max<std::size_t>(joined.size(), 1));
  const double stage_mean = sum.total() / n;
  const double lat_mean = mean(acked_lat);
  detail
      .obj("stage_mean_us", JsonObject()
                                .num("late", sum.late / n * 1e-3)
                                .num("in", sum.in / n * 1e-3)
                                .num("wait", sum.wait / n * 1e-3)
                                .num("route", sum.route / n * 1e-3)
                                .num("post", sum.post / n * 1e-3)
                                .num("out", sum.out / n * 1e-3))
      .num("ack_mean_us", lat_mean * 1e-3)
      .num("stage_sum_error_pct", ratio(stage_mean - lat_mean, lat_mean) * 100.0)
      .count("joined", joined.size())
      .count("acked", acked)
      .num("spans_dropped", stat_value(t, "spans_dropped"));
  return out;
}

void check_gates(const WorkloadSpec& spec, const PassData& p,
                 std::size_t nproc, bool timing) {
  const auto fail = [&](const std::string& what) {
    throw RunFailure(spec.name + ": gate failed: " + what);
  };
  if (p.gen_threads_max > nproc)
    fail("generator ran " + std::to_string(p.gen_threads_max) +
         " threads > nproc " + std::to_string(nproc));
  if (p.gen_connections_max > nproc)
    fail("generator held " + std::to_string(p.gen_connections_max) +
         " connections > nproc " + std::to_string(nproc));
  if (spec.journal) {
    for (const char* zero :
         {"journal_reencodes", "journal_off_writer_io", "bytes_copied"}) {
      if (p.server_stats.count(zero) == 0 || stat_value(p, zero) != 0.0)
        fail(std::string(zero) + " must be 0 on a journaled round");
    }
  }
  if (!timing) return;
  if (spec.loop == Loop::kOpen) {
    // The generator keeps up with its schedule: the typical send leaves
    // on time. (The p99 is reported, not gated: on a VM, host vCPU
    // preemption delays a sleeping pacer by milliseconds now and then,
    // whatever its priority.)
    const double late = pct(late_ms(p), 50);
    if (late > 1.0)
      fail("open-loop generator ran late: median " + std::to_string(late) +
           " ms > 1 ms");
  }
  std::size_t acked = 0;
  for (const Submission& s : p.subs) acked += s.acked() ? 1 : 0;
  if (tail_percentile_for(acked) < 99.0)
    fail("only " + std::to_string(acked) +
         " acked submissions: too few for a p99 with 10 samples beyond it");
}

}  // namespace eyw::bench
