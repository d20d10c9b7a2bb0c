// eyw_bench: the end-to-end benchmark of one blinded reporting round over
// TCP. See README.md for the workloads, metrics and how to compare runs.
//
//   eyw_bench [--workload NAME] [--seed N] [--seconds S] [--trace]
//             [--smoke] [--out DIR]
//
// Prints `workload metric value unit` lines and writes DIR/results.json.
// Exits 1 when any workload's output was wrong (that workload then
// reports no metrics), 2 on bad usage.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "generator.hpp"
#include "json.hpp"
#include "metrics.hpp"
#include "proc.hpp"
#include "server_child.hpp"
#include "workloads.hpp"

namespace {

using namespace eyw::bench;

struct Options {
  std::vector<std::string> workloads = workload_names();
  std::uint64_t seed = 1;
  double seconds = 5.0;  // BENCHMARK.json's run_seconds
  bool trace = false;
  bool smoke = false;
  std::string out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "eyw_bench: %s\nusage: eyw_bench [--workload NAME] [--seed N] "
               "[--seconds S] [--trace] [--smoke] [--out DIR]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(flag + " needs a value");
      return argv[++i];
    };
    char* end = nullptr;
    if (flag == "--workload") {
      const std::string name = value();
      bool known = false;
      for (const std::string& w : workload_names()) known |= w == name;
      if (!known) usage("unknown workload " + name);
      o.workloads = {name};
    } else if (flag == "--seed") {
      const std::string v = value();
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("bad --seed " + v);
    } else if (flag == "--seconds") {
      const std::string v = value();
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds >= 1 && o.seconds <= 60))
        usage("--seconds must be in [1, 60]");
    } else if (flag == "--trace") {
      o.trace = true;
    } else if (flag == "--smoke") {
      o.smoke = true;
    } else if (flag == "--out") {
      o.out = value();
    } else {
      usage("unknown argument " + flag);
    }
  }
  if (o.out.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    o.out = std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") +
            "/eyw-bench-" + std::to_string(::getpid());
  }
  return o;
}

JsonObject metrics_json(const std::vector<Metric>& metrics) {
  JsonObject out;
  for (const Metric& m : metrics)
    out.obj(m.name, JsonObject().num("value", m.value).str("unit", m.unit));
  return out;
}

JsonObject kernels_json(const Kernels& k) {
  return JsonObject().str("mont", k.mont).str("sketch", k.sketch).str("sha256",
                                                                      k.sha256);
}

JsonObject params_json(const WorkloadSpec& w) {
  static const char* const kLoops[] = {"closed", "open", "blinded"};
  return JsonObject()
      .str("loop", kLoops[static_cast<int>(w.loop)])
      .count("reporters_per_round", w.roster)
      .count("rounds", w.rounds)
      .count("window", w.window)
      .num("rate_per_s", w.rate)
      .flag("journal", w.journal)
      .count("id_space", w.id_space)
      .count("churn", w.churn)
      .count("dh_bits", w.dh_bits)
      .count("oprf_batches", w.oprf_batches)
      .count("oprf_batch_size", w.oprf_batch_size)
      .str("why", w.why);
}

void print(const std::string& workload, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("%s %s %s %s\n", workload.c_str(), m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str());
  std::fflush(stdout);
}

/// One workload: untraced pass (and traced pass), gates, metrics.
JsonObject run_workload(const Options& o, const std::string& name,
                        std::size_t nproc, bool& correct) {
  const WorkloadSpec spec = make_workload(name, o.seconds, o.smoke);
  const std::string dir = o.out + "/" + name;
  JsonObject w;
  w.obj("params", params_json(spec));
  try {
    // setup_s is the median of three set-ups; a traced invocation reports
    // per-layer numbers only, and a smoke run only checks correctness.
    const PassData plain = run_pass(
        spec, {.seed = o.seed, .traced = false,
               .setups = o.trace || o.smoke ? 1u : 3u,
               .out_dir = dir + "/untraced"});
    check_gates(spec, plain, nproc, /*timing=*/!o.smoke);
    JsonObject detail;
    const std::vector<Metric> e2e = e2e_metrics(spec, plain, detail);
    Counts counts = count_operations(plain);
    JsonObject layers_json;
    std::vector<Metric> layers;
    PassData traced;
    if (o.trace) {
      traced = run_pass(spec, {.seed = o.seed, .traced = true, .setups = 1,
                               .out_dir = dir + "/traced"});
      check_gates(spec, traced, nproc, /*timing=*/false);
      layers = layer_metrics(spec, plain, traced, detail);
      layers_json = metrics_json(layers);
      const Counts more = count_operations(traced);
      counts.attempted += more.attempted;
      counts.failed += more.failed;
    }
    print(name, e2e);
    print(name, layers);
    w.flag("correct", true)
        .count("attempted", counts.attempted)
        .count("failed", counts.failed)
        .obj("metrics", metrics_json(e2e));
    if (o.trace) w.obj("layers", layers_json);
    w.obj("detail", detail)
        .obj("kernels",
             JsonObject()
                 .obj("generator", kernels_json(plain.gen_kernels))
                 .obj("server",
                      kernels_json({plain.server_stats.at("kernel_mont"),
                                    plain.server_stats.at("kernel_sketch"),
                                    plain.server_stats.at("kernel_sha256")})))
        .obj("observed",
             JsonObject()
                 .count("generator_threads_max", plain.gen_threads_max)
                 .count("generator_connections_max", plain.gen_connections_max)
                 .count("server_threads", plain.server_threads)
                 .str("server_reactor_shards",
                      plain.server_stats.at("reactor_shards"))
                 .str("server_dispatch_lanes",
                      plain.server_stats.at("dispatch_lanes")));
  } catch (const RunFailure& e) {
    std::fprintf(stderr, "eyw_bench: %s\n", e.what());
    correct = false;
    w.flag("correct", false).str("error", e.what());
  }
  // Session scratch (journals, span files) is not part of the result.
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return w;
}

int run(const Options& o) {
  std::filesystem::create_directories(o.out);
  const std::size_t nproc = usable_cpus();
  JsonObject workloads;
  bool correct = true;
  for (const std::string& name : o.workloads)
    workloads.obj(name, run_workload(o, name, nproc, correct));

  const JsonObject meta =
      JsonObject()
          .str("git_sha", git_sha(EYW_BENCH_ROOT))
          .str("cpu_model", cpu_model())
          .count("nproc", nproc)
          .count("seed", o.seed)
          .num("seconds", o.seconds)
          .flag("trace", o.trace)
          .flag("smoke", o.smoke);
  std::ofstream out(o.out + "/results.json");
  out << JsonObject()
             .obj("meta", meta)
             .flag("correct", correct)
             .obj("workloads", workloads)
             .dump()
      << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "eyw_bench: cannot write %s/results.json\n",
                 o.out.c_str());
    return 1;
  }
  std::fprintf(stderr, "eyw_bench: wrote %s/results.json\n", o.out.c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::string(argv[1]) == "--serve-child")
      return serve_child_main(std::vector<std::string>(argv + 2, argv + argc));
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "eyw_bench: %s\n", e.what());
    return 1;
  }
}
