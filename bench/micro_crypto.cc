/**
 * @file
 * Crypto primitive micro-benchmarks (google-benchmark): block
 * ciphers, hashes, one-time-pad generation, RSA — the functional
 * substrate's raw software throughput. These numbers justify why
 * the *timing* simulator models crypto as a latency parameter
 * instead of running functional crypto inline.
 */

#include <benchmark/benchmark.h>

#include "crypto/aes128.hh"
#include "crypto/bigint.hh"
#include "crypto/block_cipher.hh"
#include "crypto/des.hh"
#include "crypto/rsa.hh"
#include "crypto/sha.hh"
#include "crypto/triple_des.hh"
#include "util/random.hh"

namespace
{

using namespace secproc;

template <typename Cipher>
void
benchCipherBlock(benchmark::State &state)
{
    util::Rng rng(1);
    std::vector<uint8_t> key(Cipher().keySize());
    rng.fillBytes(key.data(), key.size());
    Cipher cipher;
    cipher.setKey(key.data(), key.size());
    std::vector<uint8_t> block(cipher.blockSize());
    rng.fillBytes(block.data(), block.size());

    for (auto _ : state) {
        cipher.encryptBlock(block.data(), block.data());
        benchmark::DoNotOptimize(block.data());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(block.size()));
}

void
benchDes(benchmark::State &state)
{
    benchCipherBlock<crypto::Des>(state);
}

void
benchTripleDes(benchmark::State &state)
{
    benchCipherBlock<crypto::TripleDes>(state);
}

void
benchAes128(benchmark::State &state)
{
    benchCipherBlock<crypto::Aes128>(state);
}

void
benchPadGeneration(benchmark::State &state)
{
    crypto::Des des(uint64_t{0x0123456789ABCDEFull});
    std::vector<uint8_t> pad(static_cast<size_t>(state.range(0)));
    uint64_t seed = 0;
    for (auto _ : state) {
        crypto::generatePad(des, seed++, pad.data(), pad.size());
        benchmark::DoNotOptimize(pad.data());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(pad.size()));
}

void
benchLineEcb(benchmark::State &state)
{
    crypto::Des des(uint64_t{0x0123456789ABCDEFull});
    std::vector<uint8_t> line(128);
    for (auto _ : state) {
        crypto::ecbEncrypt(des, line.data(), line.size());
        benchmark::DoNotOptimize(line.data());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) * 128);
}

void
benchSha256(benchmark::State &state)
{
    std::vector<uint8_t> data(static_cast<size_t>(state.range(0)));
    util::Rng rng(2);
    rng.fillBytes(data.data(), data.size());
    for (auto _ : state) {
        auto digest = crypto::Sha256::digest(data.data(), data.size());
        benchmark::DoNotOptimize(digest);
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(data.size()));
}

void
benchHmacLine(benchmark::State &state)
{
    const std::vector<uint8_t> key(16, 0x5A);
    std::vector<uint8_t> line(128, 0x3C);
    for (auto _ : state) {
        auto mac = crypto::hmacSha256(key.data(), key.size(),
                                      line.data(), line.size());
        benchmark::DoNotOptimize(mac);
    }
}

/**
 * base^exp mod an odd modulus (the Montgomery path RSA runs). Args:
 * modulus bits, exponent bits. A 17-bit exponent is verify-shaped;
 * a full-length one is a Miller-Rabin witness round of key
 * generation (256 bits: the primes of a 512-bit key).
 */
void
benchBigIntModExp(benchmark::State &state)
{
    util::Rng rng(3);
    const auto bits = static_cast<unsigned>(state.range(0));
    crypto::BigInt m = crypto::BigInt::randomBits(bits, rng);
    if (!m.isOdd())
        m = m + crypto::BigInt(1);
    const crypto::BigInt base = crypto::BigInt::randomBits(bits - 1,
                                                           rng);
    const crypto::BigInt exp = crypto::BigInt::randomBits(
        static_cast<unsigned>(state.range(1)), rng);
    for (auto _ : state) {
        auto r = base.modExp(exp, m);
        benchmark::DoNotOptimize(r);
    }
}

/** One 512-bit key pair from a fixed seed: the same candidates,
 *  witness rounds and draws every iteration. */
void
benchRsaGenerate(benchmark::State &state)
{
    for (auto _ : state) {
        util::Rng rng(0x5EC0A7A);
        auto pair = crypto::rsaGenerate(512, rng);
        benchmark::DoNotOptimize(pair);
    }
}

void
benchRsaUnwrap(benchmark::State &state)
{
    util::Rng rng(4);
    const auto pair = crypto::rsaGenerate(384, rng);
    const std::vector<uint8_t> key(8, 0x77);
    const auto capsule = crypto::rsaWrap(pair.pub, key, rng);
    for (auto _ : state) {
        auto opened = crypto::rsaUnwrap(pair.priv, capsule);
        benchmark::DoNotOptimize(opened);
    }
}

BENCHMARK(benchDes);
BENCHMARK(benchTripleDes);
BENCHMARK(benchAes128);
BENCHMARK(benchPadGeneration)->Arg(128)->Arg(4096);
BENCHMARK(benchLineEcb);
BENCHMARK(benchSha256)->Arg(128)->Arg(4096);
BENCHMARK(benchHmacLine);
BENCHMARK(benchBigIntModExp)
    ->Args({256, 17})
    ->Args({512, 17})
    ->Args({256, 256});
BENCHMARK(benchRsaUnwrap);
BENCHMARK(benchRsaGenerate)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
