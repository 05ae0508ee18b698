// E13 — Crypto/PRNG microbenchmarks (google-benchmark): the per-transition
// draw cost bounds how cheap a cloaking step can be, and the SHA-256
// compression bounds every key chain, KeyedPrng context and HMAC. The
// context line "sha256_compression" names the compression Sha256 runs.
#include <benchmark/benchmark.h>

#include "crypto/chacha20.h"
#include "crypto/keyed_prng.h"
#include "crypto/sha256.h"
#include "crypto/siphash.h"

namespace {

using namespace rcloak;
using namespace rcloak::crypto;

void BM_Sha256(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

// One 64-byte block through each compression: the portable one and the
// SHA-extension one (skipped where the CPU lacks the extensions).
void Compress(benchmark::State& state, sha256::Compression compress) {
  std::uint32_t words[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  std::uint8_t block[64] = {};
  for (auto _ : state) {
    compress(words, block);
    benchmark::DoNotOptimize(words);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
void BM_Sha256CompressPortable(benchmark::State& state) {
  Compress(state, &sha256::CompressPortable);
}
BENCHMARK(BM_Sha256CompressPortable);
void BM_Sha256CompressAccelerated(benchmark::State& state) {
  const sha256::Compression accelerated = sha256::AcceleratedCompression();
  if (accelerated == nullptr) {
    state.SkipWithError("no SHA extensions on this CPU");
    return;
  }
  Compress(state, accelerated);
}
BENCHMARK(BM_Sha256CompressAccelerated);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key(32, 0x11);
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HmacSha256(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024);

void BM_HmacSha256Key(benchmark::State& state) {
  const HmacSha256Key key(Bytes(32, 0x11));
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.Mac(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256Key)->Arg(64)->Arg(1024);

void BM_HkdfExpand(benchmark::State& state) {
  const Bytes ikm(32, 0x22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HkdfSha256(ikm, {}, {'l', 'v', 'l'}, 32));
  }
}
BENCHMARK(BM_HkdfExpand);

// One per first sighting or epoch roll: AccessKey::FromSeed, one HKDF
// extract, one expand per level.
void BM_KeyChainFromSeed(benchmark::State& state) {
  const int levels = static_cast<int>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(KeyChain::FromSeed(seed++, levels));
  }
}
BENCHMARK(BM_KeyChainFromSeed)->Arg(2)->Arg(3);

void BM_ChaCha20Block(benchmark::State& state) {
  std::array<std::uint8_t, 32> key{};
  std::array<std::uint8_t, 12> nonce{};
  std::uint32_t counter = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ChaCha20::Block(key, nonce, counter++));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_ChaCha20Block);

void BM_SipHash(benchmark::State& state) {
  SipKey key{};
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0x33);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SipHash24(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SipHash)->Arg(8)->Arg(64);

void BM_KeyedPrngSequentialDraws(benchmark::State& state) {
  const KeyedPrng prng(AccessKey::FromSeed(1), "bench");
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(prng.Draw(i++));
  }
}
BENCHMARK(BM_KeyedPrngSequentialDraws);

void BM_KeyedPrngRandomAccessDraws(benchmark::State& state) {
  const KeyedPrng prng(AccessKey::FromSeed(1), "bench");
  std::uint64_t i = 0;
  for (auto _ : state) {
    // Stride 9 defeats the single-block cache: worst case.
    benchmark::DoNotOptimize(prng.Draw(i += 9));
  }
}
BENCHMARK(BM_KeyedPrngRandomAccessDraws);

// One per level per request: the context's nonce and PRF key are one
// SHA-256 over (label, key, context), two compressions.
void BM_KeyedPrngConstruction(benchmark::State& state) {
  const AccessKey key = AccessKey::FromSeed(2);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(KeyedPrng(key, "ctx" + std::to_string(++i)));
  }
}
BENCHMARK(BM_KeyedPrngConstruction);

}  // namespace

int main(int argc, char** argv) {
  benchmark::AddCustomContext("sha256_compression",
                              sha256::ActiveCompressionName());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
