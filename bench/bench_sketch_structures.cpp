// Sketch-structure ablation: count-min sketch vs spectral bloom filter —
// update/query cost and, via counters, estimation error at equal memory.
// The CMS is the structure the paper deploys because cell-wise addition
// composes with additive blinding.
//
// `--json <path>` additionally writes the PR-over-PR trajectory rows:
// scalar-vs-AVX2 ns/cell for the sketch kernels (merge, min-scan gather)
// and the measured heap allocations per accepted submission on the
// server's ingest path (docs/perf.md, "Zero-copy ingest + SIMD kernels").
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <unistd.h>

#include "bench_json.hpp"
#include "proto/buffer_pool.hpp"
#include "proto/message.hpp"
#include "server/backend.hpp"
#include "server/durable_backend.hpp"
#include "server/endpoint.hpp"
#include "sketch/count_min.hpp"
#include "sketch/sketch_kernel.hpp"
#include "sketch/spectral_bloom.hpp"
#include "util/rng.hpp"

// Heap-allocation probe for the ingest measurement: count operator-new
// calls on the measuring thread only, so the journal writer thread and
// google-benchmark's own bookkeeping stay out of the numbers.
namespace {
thread_local std::uint64_t g_thread_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_thread_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_thread_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {
using namespace eyw;

void BM_CmsUpdate(benchmark::State& state) {
  sketch::CountMinSketch cms(
      sketch::CmsParams::from_error_bounds(10'000, 0.001, 0.001), 1);
  util::Rng rng(2);
  for (auto _ : state) cms.update(rng.below(10'000));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CmsUpdate);

void BM_CmsQuery(benchmark::State& state) {
  sketch::CountMinSketch cms(
      sketch::CmsParams::from_error_bounds(10'000, 0.001, 0.001), 1);
  util::Rng rng(3);
  for (int i = 0; i < 10'000; ++i) cms.update(rng.below(10'000));
  for (auto _ : state) benchmark::DoNotOptimize(cms.query(rng.below(10'000)));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CmsQuery);

void BM_SbfUpdateMinIncrease(benchmark::State& state) {
  sketch::SpectralBloom sbf(sketch::SbfParams::from_capacity(10'000, 0.001),
                            1);
  util::Rng rng(4);
  for (auto _ : state) sbf.update(rng.below(10'000));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SbfUpdateMinIncrease);

void BM_ServerIdSpaceEnumeration(benchmark::State& state) {
  // The back-end's finalize step queries every id in [0, |A|).
  sketch::CountMinSketch cms(
      sketch::CmsParams::from_error_bounds(10'000, 0.001, 0.001), 1);
  util::Rng rng(5);
  for (int i = 0; i < 3'500; ++i) cms.update(rng.below(10'000));
  const auto id_space = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    std::uint64_t nonzero = 0;
    for (std::uint64_t id = 0; id < id_space; ++id)
      nonzero += cms.query(id) > 0;
    benchmark::DoNotOptimize(nonzero);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ServerIdSpaceEnumeration)->Arg(10'000)->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

/// Error-at-equal-memory comparison, reported through counters.
void BM_ErrorAtEqualMemory(benchmark::State& state) {
  const auto cms_params =
      sketch::CmsParams::from_error_bounds(2'000, 0.005, 0.01);
  // SBF gets the same number of 4-byte cells.
  const sketch::SbfParams sbf_params{.cells = cms_params.cells(), .hashes = 5};
  double cms_err = 0.0, sbf_err = 0.0;
  for (auto _ : state) {
    sketch::CountMinSketch cms(cms_params, 7);
    sketch::SpectralBloom sbf(sbf_params, 7);
    std::map<std::uint64_t, std::uint32_t> truth;
    util::Rng rng(8);
    for (int i = 0; i < 50'000; ++i) {
      const std::uint64_t k = rng.below(5'000);
      cms.update(k);
      sbf.update(k);
      ++truth[k];
    }
    cms_err = sbf_err = 0.0;
    for (const auto& [k, c] : truth) {
      cms_err += cms.query(k) - c;
      sbf_err += sbf.query(k) - c;
    }
    benchmark::DoNotOptimize(cms_err);
  }
  state.counters["cms_total_overcount"] = cms_err;
  state.counters["sbf_total_overcount"] = sbf_err;
}
BENCHMARK(BM_ErrorAtEqualMemory)->Unit(benchmark::kMillisecond);

// --------------------------------------------------- trajectory artifact
// Self-timed (not via google-benchmark) so the record layout is exactly
// the BENCH_*.json schema: {op, modulus_bits, ns_per_op, backend, cores}.

template <typename F>
double time_ns_per_op(F&& fn, int iters) {
  fn();  // warm caches (and, for the AVX2 rows, the dispatch decision)
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / iters;
}

/// Scalar-vs-AVX2 ns/cell for the two kernel primitives the round
/// pipeline leans on: merge (cell-wise wrapping add — finalize and the
/// cluster reduce) and min-scan gather (query over the id space). Timed on
/// the paper geometry, 17 x 2719 cells. The blinding pad fold is a SHA-256
/// kernel now; bench_crypto_primitives --json times it.
void add_kernel_rows(bench::JsonWriter& writer) {
  constexpr std::size_t kCells = 17 * 2719;
  constexpr std::size_t kWidth = 2719;
  constexpr std::size_t kKeys = 256;
  util::Rng rng(21);
  std::vector<std::uint32_t> dst(kCells), src(kCells), row(kWidth);
  for (std::uint32_t& c : src) c = static_cast<std::uint32_t>(rng.next());
  for (std::uint32_t& c : dst) c = static_cast<std::uint32_t>(rng.next());
  for (std::uint32_t& c : row) c = static_cast<std::uint32_t>(rng.next());
  std::vector<std::uint32_t> idx(kKeys), out(kKeys, 0xffffffffu);
  for (std::uint32_t& i : idx)
    i = static_cast<std::uint32_t>(rng.next() % kWidth);

  const sketch::SketchKernel* kernels[] = {&sketch::portable_sketch_kernel(),
                                           sketch::avx2_sketch_kernel()};
  for (const sketch::SketchKernel* k : kernels) {
    if (k == nullptr) continue;  // no AVX2 on this host: portable rows only
    writer.add({.op = "sketch_merge_cells",
                .modulus_bits = 0,
                .ns_per_op = time_ns_per_op(
                                 [&] { k->add_cells(dst.data(), src.data(),
                                                    kCells); },
                                 400) /
                             kCells,
                .backend = k->name,
                .cores = 1});
    // Per key, not per row cell: a query touches `depth` gathers.
    writer.add({.op = "sketch_row_min",
                .modulus_bits = 0,
                .ns_per_op = time_ns_per_op(
                                 [&] {
                                   k->row_min(out.data(), row.data(),
                                              idx.data(), kKeys);
                                 },
                                 20'000) /
                             kKeys,
                .backend = k->name,
                .cores = 1});
  }
}

/// Heap allocations per accepted submission across the full ingest chain
/// (mux frame bytes off the wire -> strip -> decode -> durable submit ->
/// ack), measured with the operator-new probe above. Reporters submit on
/// multiplexed (version-2) connections, so both sides see v2 frames. The
/// chain is the server's: pooled frame buffer, in-place stream strip,
/// span-based envelope view, wire-byte journal capture.
double ingest_allocs_per_submission() {
  namespace fs = std::filesystem;
  char tmpl[] = "bench-ingest-XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  if (dir == nullptr) return -1.0;

  constexpr std::size_t kRoster = 512;
  constexpr std::size_t kWarm = 128;
  constexpr std::uint64_t kRound = 1;
  double per_submission = -1.0;
  {
    const server::BackendConfig config{
        .cms_params = {.depth = 4, .width = 256},
        .cms_hash_seed = 3,
        .id_space = 10'000};
    server::BackendServer inner(config);
    server::DurableBackend durable(inner, {.dir = dir});
    server::BackendEndpoint endpoint(durable, nullptr,
                                     /*serve_control=*/true);
    (void)endpoint.handle(
        proto::BeginRound{.roster = kRoster}.encode(kRound));

    const std::size_t cell_count =
        static_cast<std::size_t>(config.cms_params.depth) *
        config.cms_params.width;
    util::Rng rng(31);
    std::vector<std::vector<std::uint8_t>> frames;
    frames.reserve(kRoster);
    for (std::size_t i = 0; i < kRoster; ++i) {
      std::vector<std::uint32_t> cells(cell_count);
      for (std::uint32_t& c : cells)
        c = static_cast<std::uint32_t>(rng.next());
      std::vector<std::uint8_t> frame = proto::BlindedReport{
          .participant = static_cast<std::uint32_t>(i),
          .params = config.cms_params,
          .cells = std::move(cells)}
                                            .encode(kRound);
      // What the server actually receives from a mux reporter.
      proto::add_stream_inplace(frame, static_cast<std::uint32_t>(i) + 1);
      frames.push_back(std::move(frame));
    }

    proto::BufferPool pool;
    const auto submit_one = [&](const std::vector<std::uint8_t>& wire) {
      // The reactor's read path: socket bytes land in a pooled buffer,
      // the stream id is patched out in place, the endpoint sees a span
      // over the same buffer, and the buffer goes back.
      std::vector<std::uint8_t> body = pool.acquire(wire.size());
      std::memcpy(body.data(), wire.data(), wire.size());
      (void)proto::strip_stream_inplace(body);
      (void)endpoint.handle(body);
      pool.release(std::move(body));
    };

    for (std::size_t i = 0; i < kWarm; ++i) submit_one(frames[i]);
    const std::uint64_t before = g_thread_allocs;
    for (std::size_t i = kWarm; i < kRoster; ++i) submit_one(frames[i]);
    per_submission = static_cast<double>(g_thread_allocs - before) /
                     static_cast<double>(kRoster - kWarm);
    durable.shutdown();
  }
  fs::remove_all(dir);
  return per_submission;
}

void write_trajectory(const std::string& path) {
  bench::JsonWriter writer;
  add_kernel_rows(writer);
  // The acceptance metric: allocation count rides in ns_per_op (the
  // schema is fixed; the op name disambiguates the unit).
  writer.add({.op = "ingest_allocs_per_submission",
              .modulus_bits = 0,
              .ns_per_op = ingest_allocs_per_submission(),
              .backend = "zero_copy",
              .cores = 1});
  if (!writer.write(path))
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = eyw::bench::extract_json_path(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty()) write_trajectory(json_path);
  return 0;
}
