#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <unordered_map>

namespace eyw::bench {

namespace {

struct Key {
  std::uint64_t round;
  std::uint32_t sender;
  std::uint16_t kind;
  bool operator==(const Key&) const = default;
};

struct KeyHash {
  std::size_t operator()(const Key& k) const noexcept {
    std::uint64_t h = k.round * 0x9e3779b97f4a7c15ULL;
    h ^= (static_cast<std::uint64_t>(k.sender) << 16 | k.kind) +
         0x632be59bd9b4e019ULL + (h << 6) + (h >> 2);
    return static_cast<std::size_t>(h);
  }
};

double diff(std::uint64_t later, std::uint64_t earlier) {
  return static_cast<double>(static_cast<std::int64_t>(later - earlier));
}

constexpr char kSpanMagic[8] = {'E', 'Y', 'W', 'S', 'P', 'A', 'N', '1'};

}  // namespace

std::uint64_t self_time(Interval parent, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.start_ns = std::max(c.start_ns, parent.start_ns);
    c.end_ns = std::min(c.end_ns, parent.end_ns);
  }
  std::erase_if(children, [](const Interval& c) { return c.empty(); });
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start_ns < b.start_ns;
            });
  std::uint64_t covered = 0;
  std::uint64_t reach = parent.start_ns;  // end of the union so far
  for (const Interval& c : children) {
    const std::uint64_t from = std::max(c.start_ns, reach);
    if (c.end_ns > from) covered += c.end_ns - from;
    reach = std::max(reach, c.end_ns);
  }
  return parent.length() - covered;
}

std::vector<Joined> join_by_key(std::span<const Submission> gen,
                                std::span<const ServerSpan> srv) {
  std::unordered_map<Key, std::size_t, KeyHash> routed;
  routed.reserve(srv.size());
  for (std::size_t i = 0; i < srv.size(); ++i) {
    if (srv[i].routed == 0) continue;  // a shed attempt: never handled
    routed.emplace(Key{srv[i].round, srv[i].sender, srv[i].kind}, i);
  }
  std::vector<Joined> out;
  out.reserve(gen.size());
  for (std::size_t g = 0; g < gen.size(); ++g) {
    if (!gen[g].acked()) continue;
    const auto it = routed.find(Key{gen[g].round, gen[g].sender, gen[g].kind});
    if (it != routed.end()) out.push_back({g, it->second});
  }
  return out;
}

std::vector<Joined> join_by_sequence(std::size_t count,
                                     std::span<const ServerSpan> srv,
                                     std::uint16_t kind) {
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < srv.size(); ++i)
    if (srv[i].kind == kind && srv[i].routed != 0) order.push_back(i);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return srv[a].entry_ns < srv[b].entry_ns;
                   });
  std::vector<Joined> out;
  for (std::size_t k = 0; k < std::min(count, order.size()); ++k)
    out.push_back({k, order[k]});
  return out;
}

Stages stages_of(const Submission& g, const ServerSpan& s) {
  Stages st;
  st.late = diff(g.send_ns, g.due_ns);
  st.in = diff(s.entry_ns, g.send_ns);
  st.wait = diff(s.route.start_ns, s.entry_ns);
  st.route = diff(s.route.end_ns, s.route.start_ns);
  st.post = diff(s.done_ns, s.route.end_ns);
  st.out = diff(g.ack_ns, s.done_ns);
  return st;
}

void write_spans(const std::string& path, std::span<const ServerSpan> spans) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "wb"), &std::fclose);
  if (!f) throw std::runtime_error("cannot write " + path);
  const std::uint64_t header[2] = {spans.size(), sizeof(ServerSpan)};
  if (std::fwrite(kSpanMagic, 1, sizeof kSpanMagic, f.get()) !=
          sizeof kSpanMagic ||
      std::fwrite(header, sizeof header, 1, f.get()) != 1 ||
      (!spans.empty() &&
       std::fwrite(spans.data(), sizeof(ServerSpan), spans.size(), f.get()) !=
           spans.size()))
    throw std::runtime_error("short write to " + path);
}

std::vector<ServerSpan> read_spans(const std::string& path) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (!f) throw std::runtime_error("cannot read " + path);
  char magic[sizeof kSpanMagic];
  std::uint64_t header[2] = {0, 0};
  if (std::fread(magic, 1, sizeof magic, f.get()) != sizeof magic ||
      std::memcmp(magic, kSpanMagic, sizeof magic) != 0 ||
      std::fread(header, sizeof header, 1, f.get()) != 1 ||
      header[1] != sizeof(ServerSpan) || header[0] > (std::uint64_t{1} << 32))
    throw std::runtime_error(path + ": not a span file of this build");
  std::vector<ServerSpan> spans(static_cast<std::size_t>(header[0]));
  if (!spans.empty() &&
      std::fread(spans.data(), sizeof(ServerSpan), spans.size(), f.get()) !=
          spans.size())
    throw std::runtime_error(path + ": truncated");
  return spans;
}

}  // namespace eyw::bench
