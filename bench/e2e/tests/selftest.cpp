// Unit tests for the benchmark's own arithmetic: the percentile rule,
// median and quartiles (against Python's statistics.quantiles), span
// self time, the cross-process span join, and the span file format.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace {

using namespace eyw::bench;

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentile_rule() {
  CHECK(tail_percentile_for(0) == 0.0);
  CHECK(tail_percentile_for(19) == 0.0);
  CHECK(tail_percentile_for(20) == 50.0);
  CHECK(tail_percentile_for(99) == 50.0);
  CHECK(tail_percentile_for(100) == 90.0);
  CHECK(tail_percentile_for(999) == 90.0);
  CHECK(tail_percentile_for(1000) == 99.0);
  CHECK(tail_percentile_for(9999) == 99.0);
  CHECK(tail_percentile_for(10'000) == 99.9);
  CHECK(tail_percentile_for(100'000) == 99.99);
  CHECK(tail_percentile_for(1'000'000) == 99.999);

  std::vector<double> xs;
  for (int i = 1; i <= 1000; ++i) xs.push_back(i);
  const Tail t = tail(xs);
  CHECK(t.percentile == 99.0);
  CHECK(t.samples == 1000);
  CHECK(near(t.value, percentile(xs, 99.0)));
  const Tail small = tail({1.0, 2.0, 3.0});
  CHECK(small.percentile == 0.0 && small.samples == 3 && small.value == 0.0);
}

void test_median_and_percentiles() {
  CHECK(near(median({3.0, 1.0, 2.0}), 2.0));
  CHECK(near(median({4.0, 1.0, 3.0, 2.0}), 2.5));
  CHECK(near(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.0), 1.0));
  CHECK(near(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 100.0), 5.0));
  CHECK(near(percentile({10.0, 20.0}, 25.0), 12.5));
  bool threw = false;
  try {
    (void)percentile({}, 50.0);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
}

void test_quartiles_match_python() {
  // Reference values: statistics.quantiles(xs, n=4) on CPython 3.11.
  const auto q1 = quartiles({1.0, 2.0});
  CHECK(near(q1[0], 0.75) && near(q1[1], 1.5) && near(q1[2], 2.25));
  const auto q2 = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  CHECK(near(q2[0], 2.75) && near(q2[1], 5.5) && near(q2[2], 8.25));
  const auto q3 = quartiles({5.0, 1.0, 3.0});
  CHECK(near(q3[0], 1.0) && near(q3[1], 3.0) && near(q3[2], 5.0));
  const auto q4 = quartiles({3.2, 1.1, 9.9, 4.4, 2.2, 8.8, 7.7});
  CHECK(near(q4[0], 2.2) && near(q4[1], 4.4) && near(q4[2], 8.8));
}

void test_self_time() {
  const Interval parent{100, 200};
  CHECK(self_time(parent, {}) == 100);
  CHECK(self_time(parent, {{120, 150}}) == 70);
  // Sequential children (finalize then checkpoint snapshot).
  CHECK(self_time(parent, {{110, 120}, {150, 170}}) == 70);
  // Overlapping children count their union once.
  CHECK(self_time(parent, {{110, 140}, {130, 160}}) == 50);
  // Children are clipped to the parent.
  CHECK(self_time(parent, {{50, 120}, {190, 300}}) == 70);
  CHECK(self_time(parent, {{0, 1000}}) == 0);
  // An empty child (never ran) covers nothing.
  CHECK(self_time(parent, {{0, 0}}) == 100);
}

ServerSpan span(std::uint64_t round, std::uint32_t sender, std::uint16_t kind,
                std::uint64_t entry, bool routed) {
  ServerSpan s;
  s.round = round;
  s.sender = sender;
  s.kind = kind;
  s.entry_ns = entry;
  s.routed = routed ? 1 : 0;
  if (routed) s.route = {entry + 10, entry + 20};
  s.done_ns = entry + 25;
  return s;
}

Submission sub(std::uint64_t round, std::uint32_t sender, std::uint16_t kind,
               std::uint8_t status) {
  Submission g;
  g.round = round;
  g.sender = sender;
  g.kind = kind;
  g.status = status;
  g.due_ns = 1;
  g.send_ns = 5;
  g.ack_ns = 100;
  return g;
}

void test_join() {
  const std::vector<Submission> gen = {
      sub(2, 7, 2, kAcked),   // joins its routed span
      sub(2, 8, 2, kAcked),   // shed once, then accepted: joins the retry
      sub(2, 9, 2, kAcked),   // no server span at all: missing
      sub(2, 10, 2, kFailed), // failed: never joined
      sub(3, 7, 2, kAcked),   // same sender, next round
      sub(2, 7, 4, kAcked),   // adjustment of sender 7: kind differs
  };
  const std::vector<ServerSpan> srv = {
      span(2, 7, 2, 10, true),
      span(2, 8, 2, 11, false),  // the shed attempt
      span(2, 8, 2, 40, true),   // the attempt that reached the handler
      span(2, 10, 2, 12, false),
      span(3, 7, 2, 50, true),
      span(2, 7, 4, 60, true),
  };
  const std::vector<Joined> joined = join_by_key(gen, srv);
  CHECK(joined.size() == 4);
  CHECK(joined[0].gen == 0 && joined[0].srv == 0);
  CHECK(joined[1].gen == 1 && joined[1].srv == 2);
  CHECK(joined[2].gen == 4 && joined[2].srv == 4);
  CHECK(joined[3].gen == 5 && joined[3].srv == 5);

  // Sequence join: routed spans of the kind, in entry order.
  const std::vector<ServerSpan> oprf = {
      span(0, 0, 6, 300, true), span(0, 0, 6, 100, true),
      span(0, 0, 6, 200, false), span(0, 0, 2, 150, true)};
  const std::vector<Joined> seq = join_by_sequence(5, oprf, 6);
  CHECK(seq.size() == 2);
  CHECK(seq[0].gen == 0 && seq[0].srv == 1);
  CHECK(seq[1].gen == 1 && seq[1].srv == 0);
}

void test_stages_partition_latency() {
  Submission g = sub(2, 1, 2, kAcked);
  g.due_ns = 1000;
  g.send_ns = 1010;
  g.ack_ns = 1500;
  ServerSpan s = span(2, 1, 2, 1100, true);
  s.route = {1150, 1300};
  s.done_ns = 1320;
  const Stages st = stages_of(g, s);
  CHECK(near(st.late, 10) && near(st.in, 90) && near(st.wait, 50));
  CHECK(near(st.route, 150) && near(st.post, 20) && near(st.out, 180));
  CHECK(near(st.total(), static_cast<double>(g.ack_ns - g.due_ns)));
}

void test_span_file_round_trip() {
  const std::string path = "eyw_bench_selftest_spans.bin";
  std::vector<ServerSpan> spans = {span(2, 3, 2, 10, true),
                                   span(4, 5, 11, 20, false)};
  spans[0].cluster[0] = {12, 18};
  spans[0].cluster_calls = 1;
  write_spans(path, spans);
  const std::vector<ServerSpan> back = read_spans(path);
  CHECK(back.size() == 2);
  CHECK(back[0].cluster[0].end_ns == 18 && back[0].cluster_calls == 1);
  CHECK(back[1].kind == 11 && back[1].routed == 0 && back[1].round == 4);
  std::filesystem::remove(path);
}

}  // namespace

int main() {
  test_percentile_rule();
  test_median_and_percentiles();
  test_quartiles_match_python();
  test_self_time();
  test_join();
  test_stages_partition_latency();
  test_span_file_round_trip();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("all checks passed\n");
  return 0;
}
