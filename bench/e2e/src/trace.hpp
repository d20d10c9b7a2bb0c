// Span records of the traced run, and the arithmetic that turns them into
// per-layer numbers.
//
// Both processes record into preallocated memory and write out at exit:
//   * the server child keeps one ServerSpan per frame its front door saw
//     (server_child.cpp) and dumps the array raw to server_spans.bin;
//   * the generator keeps one Submission per report/adjustment it sent and
//     one OprfBatch per OPRF batch.
// Every timestamp is CLOCK_MONOTONIC (clock.hpp), shared by both
// processes, so a generator send and a server entry subtract directly.
//
// Join rules:
//   * submissions join server spans on (round, kind, sender) — a reporter
//     submits one report and at most one adjustment per round;
//   * a frame retried after a shed has several server spans under one key;
//     the join takes the attempt that reached the handler (routed);
//   * OPRF batches all carry sender 0 / round 0, so they join by sequence:
//     the k-th batch the generator exchanged is the k-th OPRF evaluation
//     the server routed (one stream, one lane — both FIFO).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace eyw::bench {

struct Interval {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  [[nodiscard]] bool empty() const noexcept { return end_ns <= start_ns; }
  [[nodiscard]] std::uint64_t length() const noexcept {
    return empty() ? 0 : end_ns - start_ns;
  }
};

/// One frame as the server child saw it. Trivially copyable: written to
/// and read from disk as raw bytes by the same binary.
struct ServerSpan {
  std::uint64_t entry_ns = 0;  ///< front-door AsyncFrameHandler entered
  std::uint64_t done_ns = 0;   ///< completion fired (reply handed back)
  Interval route;              ///< lane FrameHandler: route() start..end
  Interval storage;            ///< TimedBackend above DurableBackend
  Interval cluster[2];         ///< TimedBackend above BackendCluster
  std::uint64_t round = 0;
  std::uint32_t sender = 0;
  std::uint16_t kind = 0;
  std::uint8_t routed = 0;        ///< 1 once the lane handler ran it
  std::uint8_t cluster_calls = 0; ///< entries of cluster[] in use
};

/// One report or adjustment the generator sent.
struct Submission {
  std::uint64_t due_ns = 0;   ///< schedule time (open loop) / slot free
  std::uint64_t send_ns = 0;  ///< exchange_async called
  std::uint64_t ack_ns = 0;   ///< completion callback ran
  std::uint64_t round = 0;
  std::uint32_t sender = 0;
  std::uint16_t kind = 0;
  std::uint8_t status = 0;    ///< SubmissionStatus

  [[nodiscard]] bool acked() const noexcept { return status == 1; }
};

enum SubmissionStatus : std::uint8_t { kPending = 0, kAcked = 1, kFailed = 2 };

/// One OPRF map_batch call of the generator.
struct OprfBatch {
  std::uint64_t due_ns = 0;
  Interval call;      ///< map_batch start..end
  Interval exchange;  ///< the wire round trip inside it
  std::uint8_t ok = 0;
};

/// Self time of `parent`: its length minus the part of it that the union
/// of `children` covers (children are clipped to the parent and may
/// overlap each other).
[[nodiscard]] std::uint64_t self_time(Interval parent,
                                      std::vector<Interval> children);

/// A generator record matched to the server span it produced.
struct Joined {
  std::size_t gen = 0;
  std::size_t srv = 0;
};

/// Join acked submissions to routed server spans on (round, kind,
/// sender). Unacked submissions and submissions whose span is missing are
/// left out; the caller's coverage is joined.size() / acked.
[[nodiscard]] std::vector<Joined> join_by_key(
    std::span<const Submission> gen, std::span<const ServerSpan> srv);

/// Join the first `count` generator-side events of one kind to the routed
/// server spans of `kind` in entry order: pair k is (k, k-th span).
[[nodiscard]] std::vector<Joined> join_by_sequence(
    std::size_t count, std::span<const ServerSpan> srv, std::uint16_t kind);

/// Contiguous stages of one joined submission, in ns. They partition
/// [due, ack], so their sum is the submission's latency as the generator
/// measured it.
struct Stages {
  double late = 0;   ///< due -> send (generator)
  double in = 0;     ///< send -> server front-door entry (proto, in)
  double wait = 0;   ///< entry -> route start (dispatch lane wait)
  double route = 0;  ///< route start -> end (endpoint + storage + cluster)
  double post = 0;   ///< route end -> completion fired
  double out = 0;    ///< completion -> client ack (proto, out)

  [[nodiscard]] double total() const noexcept {
    return late + in + wait + route + post + out;
  }
};

[[nodiscard]] Stages stages_of(const Submission& g, const ServerSpan& s);

/// Raw span file I/O (server_spans.bin): a small header, then the array.
void write_spans(const std::string& path, std::span<const ServerSpan> spans);
[[nodiscard]] std::vector<ServerSpan> read_spans(const std::string& path);

}  // namespace eyw::bench
