// Micro-benchmarks of the cryptographic substrate (google-benchmark).
// These quantify the primitives behind Section 7.1's overhead numbers at
// full parameter sizes. `--json <path>` additionally writes the
// machine-readable kernel trajectory (see bench_json.hpp) from self-timed
// runs of the tracked operations.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "crypto/blinding.hpp"
#include "crypto/mont_kernel.hpp"
#include "crypto/montgomery.hpp"
#include "crypto/oprf.hpp"
#include "crypto/prime.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_kernel.hpp"
#include "sketch/count_min.hpp"

namespace {
using namespace eyw;

void BM_Sha256Throughput(benchmark::State& state) {
  const std::vector<std::uint8_t> buf(
      static_cast<std::size_t>(state.range(0)), 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::sha256(std::span<const std::uint8_t>(buf.data(), buf.size())));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256Throughput)->Arg(64)->Arg(1024)->Arg(65536);

// Counter-mode expansion of a 32-byte seed on the active kernel: 144 bytes
// (5 blocks) is the OPRF's hash_to_zn stream at RSA-1024.
void BM_Sha256Expand(benchmark::State& state) {
  std::array<std::uint8_t, 32> seed{};
  for (std::size_t i = 0; i < seed.size(); ++i)
    seed[i] = static_cast<std::uint8_t>(7 * i + 1);
  const auto len = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256_expand(seed, len));
  }
  state.SetLabel(crypto::active_sha256_kernel().name);
}
BENCHMARK(BM_Sha256Expand)->Arg(144);

// The seed's naive square-and-multiply with full divmod reduction per step.
// Kept as the before-side of the Montgomery speedup comparison.
void BM_BignumModexpReference(benchmark::State& state) {
  util::Rng rng(1);
  const auto bits = static_cast<std::size_t>(state.range(0));
  crypto::Bignum m = crypto::Bignum::random_bits(rng, bits);
  if (!m.is_odd()) m = m.add(crypto::Bignum(1));
  const crypto::Bignum b = crypto::Bignum::random_bits(rng, bits - 1);
  const crypto::Bignum e = crypto::Bignum::random_bits(rng, bits - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Bignum::modexp_basic(b, e, m));
  }
}
BENCHMARK(BM_BignumModexpReference)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

// The production path: Bignum::modexp dispatching to the Montgomery CIOS
// core (context built per call, as one-shot callers do).
void BM_BignumModexp(benchmark::State& state) {
  util::Rng rng(1);
  const auto bits = static_cast<std::size_t>(state.range(0));
  crypto::Bignum m = crypto::Bignum::random_bits(rng, bits);
  if (!m.is_odd()) m = m.add(crypto::Bignum(1));
  const crypto::Bignum b = crypto::Bignum::random_bits(rng, bits - 1);
  const crypto::Bignum e = crypto::Bignum::random_bits(rng, bits - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Bignum::modexp(b, e, m));
  }
}
BENCHMARK(BM_BignumModexp)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

// Montgomery exponentiation with the context amortized across calls, as the
// OPRF server / DH roster loops run it.
void BM_MontgomeryModexp(benchmark::State& state) {
  util::Rng rng(1);
  const auto bits = static_cast<std::size_t>(state.range(0));
  crypto::Bignum m = crypto::Bignum::random_bits(rng, bits);
  if (!m.is_odd()) m = m.add(crypto::Bignum(1));
  const crypto::Bignum b = crypto::Bignum::random_bits(rng, bits - 1);
  const crypto::Bignum e = crypto::Bignum::random_bits(rng, bits - 1);
  const crypto::Montgomery mont(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mont.modexp(b, e));
  }
}
BENCHMARK(BM_MontgomeryModexp)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

// The same ladder pinned to each kernel: the portable/adx speedup at a
// glance, independent of what CPUID picked for the process.
void modexp_kernel_bench(benchmark::State& state,
                         const crypto::MontKernel& kernel) {
  util::Rng rng(1);
  const auto bits = static_cast<std::size_t>(state.range(0));
  crypto::Bignum m = crypto::Bignum::random_bits(rng, bits);
  if (!m.is_odd()) m = m.add(crypto::Bignum(1));
  const crypto::Bignum b = crypto::Bignum::random_bits(rng, bits - 1);
  const crypto::Bignum e = crypto::Bignum::random_bits(rng, bits - 1);
  const crypto::Montgomery mont(m, kernel);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mont.modexp(b, e));
  }
}

void BM_ModexpKernelPortable(benchmark::State& state) {
  modexp_kernel_bench(state, crypto::portable_mont_kernel());
}
BENCHMARK(BM_ModexpKernelPortable)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

void BM_ModexpKernelAdx(benchmark::State& state) {
  const crypto::MontKernel* adx = crypto::adx_mont_kernel();
  if (adx == nullptr) {
    state.SkipWithError("ADX kernel unavailable on this CPU/toolchain");
    return;
  }
  modexp_kernel_bench(state, *adx);
}
BENCHMARK(BM_ModexpKernelAdx)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

// One exponent shared across a batch, per backend: portable and adx run
// one scalar ladder per base, ifma runs kMontLanes lanes per vector
// pass (a partial group padded from kMontLadderMinLanes live lanes,
// scalar below). Reported per element; the lane counts below one group
// are what the partial-group choice is measured on.
void modexp_batch_bench(benchmark::State& state,
                        const crypto::MontKernel* kernel) {
  if (kernel == nullptr) {
    state.SkipWithError("kernel unavailable on this CPU/toolchain");
    return;
  }
  util::Rng rng(1);
  const auto bits = static_cast<std::size_t>(state.range(0));
  const auto lanes = static_cast<std::size_t>(state.range(1));
  crypto::Bignum m = crypto::Bignum::random_bits(rng, bits);
  if (!m.is_odd()) m = m.add(crypto::Bignum(1));
  const crypto::Montgomery mont(m, *kernel);
  std::vector<crypto::Bignum> bases;
  for (std::size_t i = 0; i < lanes; ++i)
    bases.push_back(crypto::Bignum::random_below(rng, m));
  const crypto::Bignum e = crypto::Bignum::random_bits(rng, bits - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mont.modexp_batch(bases, e));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lanes));
  state.SetLabel(kernel->name);
}

void BM_ModexpBatchPortable(benchmark::State& state) {
  modexp_batch_bench(state, &crypto::portable_mont_kernel());
}
void BM_ModexpBatchAdx(benchmark::State& state) {
  modexp_batch_bench(state, crypto::adx_mont_kernel());
}
void BM_ModexpBatchIfma(benchmark::State& state) {
  modexp_batch_bench(state, crypto::ifma_mont_kernel());
}
BENCHMARK(BM_ModexpBatchPortable)
    ->ArgsProduct({{256, 512, 1024, 2048}, {8}});
BENCHMARK(BM_ModexpBatchAdx)
    ->ArgsProduct({{256, 512, 1024, 2048}, {1, 2, 3, 4, 8}});
BENCHMARK(BM_ModexpBatchIfma)
    ->ArgsProduct({{256, 512, 1024, 2048}, {1, 2, 3, 4, 8}});

/// A 256-member roster at `bits`: what the blinded round's reporters hold.
struct PairSecretRoster {
  crypto::DhGroup group;
  std::vector<crypto::DhKeyPair> keys;
  std::vector<crypto::Bignum> publics;
};

PairSecretRoster make_pair_secret_roster(std::size_t bits) {
  util::Rng rng(6);
  PairSecretRoster r{crypto::DhGroup::generate(rng, bits), {}, {}};
  const crypto::DhContext dh(r.group);
  for (int i = 0; i < 256; ++i) {
    r.keys.push_back(dh.keygen(rng));
    r.publics.push_back(r.keys.back().public_key);
  }
  return r;
}

/// Member 0's 255 pair keys on one core: peer chunks of kMontLanes
/// through modexp_batch, the 32 ladder passes the BlindingParticipant
/// constructor runs for a 256-member roster.
void derive_pair_keys(const crypto::Montgomery& mont,
                      const PairSecretRoster& r) {
  const std::span<const crypto::Bignum> peers =
      std::span<const crypto::Bignum>(r.publics).subspan(1);
  for (std::size_t off = 0; off < peers.size(); off += crypto::kMontLanes) {
    const auto chunk = peers.subspan(
        off, std::min(crypto::kMontLanes, peers.size() - off));
    for (const crypto::Bignum& s :
         mont.modexp_batch(chunk, r.keys[0].private_key))
      benchmark::DoNotOptimize(crypto::dh_secret_to_key(s));
  }
}

void BM_PairSecrets255(benchmark::State& state) {
  static const PairSecretRoster roster = make_pair_secret_roster(256);
  const crypto::Montgomery mont(roster.group.p);
  for (auto _ : state) derive_pair_keys(mont, roster);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          255);
  state.SetLabel(mont.kernel_name());
}
BENCHMARK(BM_PairSecrets255)->Unit(benchmark::kMillisecond);

// Fixed-base window table vs the plain ladder for the DH keygen shape.
void BM_DhKeygenFixedBase(benchmark::State& state) {
  util::Rng rng(4);
  const crypto::DhGroup group =
      crypto::DhGroup::generate(rng, static_cast<std::size_t>(state.range(0)));
  const crypto::DhContext ctx(group);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.keygen(rng));
  }
}
BENCHMARK(BM_DhKeygenFixedBase)->Arg(256)->Arg(512);

void BM_DhKeygenPlain(benchmark::State& state) {
  util::Rng rng(4);
  const crypto::DhGroup group =
      crypto::DhGroup::generate(rng, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::dh_keygen(group, rng));
  }
}
BENCHMARK(BM_DhKeygenPlain)->Arg(256)->Arg(512);

// RSA private operation — the protocol's per-report modexp at full modulus
// size — measured three ways: the seed path (naive square-and-multiply with
// divmod reduction), plain d-exponentiation through the Montgomery core,
// and CRT (two half-size Montgomery exponentiations + Garner).
void BM_RsaPrivateSeedPath(benchmark::State& state) {
  util::Rng rng(21);
  const auto key = crypto::rsa_generate(
      rng, static_cast<std::size_t>(state.range(0)));
  const crypto::Bignum x = crypto::Bignum::random_below(rng, key.pub.n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::Bignum::modexp_basic(x, key.d, key.pub.n));
  }
}
BENCHMARK(BM_RsaPrivateSeedPath)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

void BM_RsaPrivatePlain(benchmark::State& state) {
  util::Rng rng(21);
  const auto key = crypto::rsa_generate(
      rng, static_cast<std::size_t>(state.range(0)));
  crypto::RsaKeyPair plain{.pub = key.pub, .d = key.d};  // no CRT fields
  const crypto::RsaPrivateContext ctx(std::move(plain));
  const crypto::Bignum x = crypto::Bignum::random_below(rng, key.pub.n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.private_apply(x));
  }
}
BENCHMARK(BM_RsaPrivatePlain)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

void BM_RsaPrivateCrt(benchmark::State& state) {
  util::Rng rng(21);
  const crypto::RsaPrivateContext ctx(crypto::rsa_generate(
      rng, static_cast<std::size_t>(state.range(0))));
  const crypto::Bignum x =
      crypto::Bignum::random_below(rng, ctx.pub().n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.private_apply(x));
  }
}
BENCHMARK(BM_RsaPrivateCrt)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

// The back-end's id-space scan: per-id query() vs batched row-major
// query_many with hoisted coefficients and multiply-shift reduction.
void BM_CmsQueryLoop(benchmark::State& state) {
  sketch::CountMinSketch cms({.depth = 17, .width = 2719}, 7);
  util::Rng rng(3);
  for (int i = 0; i < 10'000; ++i) cms.update(rng.below(100'000));
  const auto ids = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t sum = 0;
  for (auto _ : state) {
    for (std::uint64_t id = 0; id < ids; ++id) sum += cms.query(id);
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CmsQueryLoop)->Arg(100'000);

void BM_CmsQueryMany(benchmark::State& state) {
  sketch::CountMinSketch cms({.depth = 17, .width = 2719}, 7);
  util::Rng rng(3);
  for (int i = 0; i < 10'000; ++i) cms.update(rng.below(100'000));
  const auto ids = static_cast<std::uint64_t>(state.range(0));
  std::vector<std::uint32_t> out(ids);
  for (auto _ : state) {
    cms.query_range(0, ids, std::span<std::uint32_t>(out));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CmsQueryMany)->Arg(100'000);

void BM_MillerRabin(benchmark::State& state) {
  util::Rng rng(2);
  const crypto::Bignum p =
      crypto::generate_prime(rng, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::is_probable_prime(p, rng, 8));
  }
}
BENCHMARK(BM_MillerRabin)->Arg(128)->Arg(256)->Arg(512);

void BM_OprfRoundTrip(benchmark::State& state) {
  util::Rng rng(3);
  const crypto::OprfServer server(rng,
                                  static_cast<std::size_t>(state.range(0)));
  const crypto::OprfClient client(server.public_key());
  std::uint64_t i = 0;
  for (auto _ : state) {
    const std::string url = "https://ads.test/" + std::to_string(i++);
    const auto blinded = client.blind(url, rng);
    const auto resp = server.evaluate_blinded(blinded.blinded_element);
    benchmark::DoNotOptimize(client.finalize(url, blinded, resp));
  }
}
BENCHMARK(BM_OprfRoundTrip)->Arg(256)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_DhSharedSecret(benchmark::State& state) {
  util::Rng rng(4);
  const crypto::DhGroup group =
      crypto::DhGroup::generate(rng, static_cast<std::size_t>(state.range(0)));
  const auto a = crypto::dh_keygen(group, rng);
  const auto b = crypto::dh_keygen(group, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::dh_shared_secret(group, a.private_key, b.public_key));
  }
}
BENCHMARK(BM_DhSharedSecret)->Arg(256)->Arg(512);

void BM_BlindingVector(benchmark::State& state) {
  util::Rng rng(5);
  static const crypto::DhGroup group = crypto::DhGroup::generate(rng, 256);
  const auto peers = static_cast<std::size_t>(state.range(0));
  const auto cells = static_cast<std::size_t>(state.range(1));
  std::vector<crypto::DhKeyPair> keys;
  std::vector<crypto::Bignum> publics;
  for (std::size_t i = 0; i < peers; ++i) {
    keys.push_back(crypto::dh_keygen(group, rng));
    publics.push_back(keys.back().public_key);
  }
  const crypto::BlindingParticipant participant(
      group, 0, keys[0], std::span<const crypto::Bignum>(publics));
  std::uint64_t round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(participant.blinding_vector(cells, round++));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cells));
}
BENCHMARK(BM_BlindingVector)
    ->Args({16, 5000})
    ->Args({64, 5000})
    ->Args({64, 46223})  // the T=10k paper sketch geometry (17 x 2719)
    ->Unit(benchmark::kMillisecond);

// --------------------------------------------------- trajectory artifact
// Self-timed (not via google-benchmark) so the record layout is exactly
// the BENCH_*.json schema: {op, modulus_bits, ns_per_op, backend, cores}.

template <typename F>
double time_ns_per_op(F&& fn, int iters) {
  fn();  // warm caches and the shared Montgomery cache
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / iters;
}

void write_trajectory(const std::string& path) {
  bench::JsonWriter writer;
  util::Rng rng(1);

  for (const std::size_t bits : {256, 512, 1024, 2048}) {
    crypto::Bignum m = crypto::Bignum::random_bits(rng, bits);
    if (!m.is_odd()) m = m.add(crypto::Bignum(1));
    const crypto::Bignum b = crypto::Bignum::random_bits(rng, bits - 1);
    const crypto::Bignum e = crypto::Bignum::random_bits(rng, bits - 1);
    const int iters = bits >= 2048 ? 20 : bits >= 1024 ? 60 : 200;

    const crypto::Montgomery portable(m, crypto::portable_mont_kernel());
    writer.add({.op = "modexp",
                .modulus_bits = bits,
                .ns_per_op = time_ns_per_op(
                    [&] { benchmark::DoNotOptimize(portable.modexp(b, e)); },
                    iters),
                .backend = "portable",
                .cores = 1});
    if (const crypto::MontKernel* adx = crypto::adx_mont_kernel()) {
      const crypto::Montgomery fast(m, *adx);
      writer.add({.op = "modexp",
                  .modulus_bits = bits,
                  .ns_per_op = time_ns_per_op(
                      [&] { benchmark::DoNotOptimize(fast.modexp(b, e)); },
                      iters),
                  .backend = "adx",
                  .cores = 1});
    }

    // A full ladder group sharing one exponent, per element, per backend.
    std::vector<crypto::Bignum> bases;
    for (std::size_t i = 0; i < crypto::kMontLanes; ++i)
      bases.push_back(crypto::Bignum::random_below(rng, m));
    const crypto::MontKernel* batch_kernels[] = {
        &crypto::portable_mont_kernel(), crypto::adx_mont_kernel(),
        crypto::ifma_mont_kernel()};
    for (const crypto::MontKernel* k : batch_kernels) {
      if (k == nullptr) continue;  // not compiled in, or not on this CPU
      const crypto::Montgomery mont(m, *k);
      writer.add(
          {.op = "modexp_batch8",
           .modulus_bits = bits,
           .ns_per_op = time_ns_per_op(
                            [&] {
                              benchmark::DoNotOptimize(
                                  mont.modexp_batch(bases, e));
                            },
                            std::max(1, iters / 8)) /
                        static_cast<double>(crypto::kMontLanes),
           .backend = k->name,
           .cores = 1});
    }
  }

  // Member 0's 255 pair secrets against a 256-member 256-bit roster, per
  // backend, on one core: ns per whole derivation.
  {
    const PairSecretRoster roster = make_pair_secret_roster(256);
    const crypto::MontKernel* kernels[] = {&crypto::portable_mont_kernel(),
                                           crypto::adx_mont_kernel(),
                                           crypto::ifma_mont_kernel()};
    for (const crypto::MontKernel* k : kernels) {
      if (k == nullptr) continue;
      const crypto::Montgomery mont(roster.group.p, *k);
      writer.add({.op = "pair_secrets_255",
                  .modulus_bits = 256,
                  .ns_per_op = time_ns_per_op(
                      [&] { derive_pair_keys(mont, roster); }, 5),
                  .backend = k->name,
                  .cores = 1});
    }
  }

  // OPRF round trip (blind + evaluate + finalize) at protocol sizes.
  for (const std::size_t bits : {512, 1024}) {
    util::Rng orng(3);
    const crypto::OprfServer server(orng, bits);
    const crypto::OprfClient client(server.public_key());
    std::uint64_t i = 0;
    writer.add({.op = "oprf_roundtrip",
                .modulus_bits = bits,
                .ns_per_op = time_ns_per_op(
                    [&] {
                      const std::string url =
                          "https://ads.test/" + std::to_string(i++);
                      const auto blinded = client.blind(url, orng);
                      const auto resp =
                          server.evaluate_blinded(blinded.blinded_element);
                      benchmark::DoNotOptimize(
                          client.finalize(url, blinded, resp));
                    },
                    bits >= 1024 ? 10 : 40),
                .backend = crypto::active_mont_kernel().name,
                .cores = 1});
  }

  // Blinding pad fold, per backend: ns per cell·peer (one pad of `cells`
  // folded into an accumulator) at the quickstart sketch (4 x 256) and
  // the paper's (17 x 2719). Then the OPRF's 144-byte sha256_expand
  // stream (36 cells, 5 blocks), ns per whole stream: the avx512 kernel
  // hands streams this short to its single-message fold.
  const crypto::Sha256Kernel* pad_kernels[] = {
      &crypto::portable_sha256_kernel(), crypto::shani_sha256_kernel(),
      crypto::avx512_sha256_kernel()};
  std::uint8_t seed[32];
  for (std::uint8_t& b : seed) b = static_cast<std::uint8_t>(rng.next());
  for (const crypto::Sha256Kernel* k : pad_kernels) {
    if (k == nullptr) continue;  // not compiled in, or not on this CPU
    for (const auto& [op, cells] :
         {std::pair<const char*, std::size_t>{"pad_fold_4x256", 4 * 256},
          std::pair<const char*, std::size_t>{"pad_fold_17x2719",
                                              17 * 2719}}) {
      std::vector<std::uint32_t> acc(cells);
      const int iters = static_cast<int>(std::max<std::size_t>(
          20, (std::size_t{4} << 20) / cells));
      writer.add({.op = op,
                  .modulus_bits = 0,
                  .ns_per_op = time_ns_per_op(
                                   [&] {
                                     k->pad_fold(acc.data(), seed, cells,
                                                 true);
                                     benchmark::DoNotOptimize(acc.data());
                                   },
                                   iters) /
                               static_cast<double>(cells),
                  .backend = k->name,
                  .cores = 1});
    }
    std::vector<std::uint32_t> cells(144 / 4);
    writer.add({.op = "sha256_expand_144",
                .modulus_bits = 0,
                .ns_per_op = time_ns_per_op(
                    [&] {
                      std::fill(cells.begin(), cells.end(), 0u);
                      k->pad_fold(cells.data(), seed, cells.size(), true);
                      benchmark::DoNotOptimize(cells.data());
                    },
                    20000),
                .backend = k->name,
                .cores = 1});
  }

  if (!writer.write(path)) {
    fprintf(stderr, "bench_crypto_primitives: cannot write %s\n",
            path.c_str());
  } else {
    printf("wrote trajectory to %s\n", path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  // google-benchmark rejects flags it does not know, so --json comes out
  // of argv before Initialize sees it.
  const std::string json_path = eyw::bench::extract_json_path(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty()) write_trajectory(json_path);
  return 0;
}
