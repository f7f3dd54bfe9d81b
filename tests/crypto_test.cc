/**
 * @file
 * Known-answer and property tests for the crypto substrate:
 * DES/3DES/AES-128 FIPS vectors, SHA-1/SHA-256 vectors, HMAC,
 * BigInt arithmetic, RSA round trips, one-time-pad helpers and the
 * crypto engine latency model.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "crypto/aes128.hh"
#include "crypto/bigint.hh"
#include "crypto/block_cipher.hh"
#include "crypto/des.hh"
#include "crypto/latency.hh"
#include "crypto/rsa.hh"
#include "crypto/sha.hh"
#include "crypto/triple_des.hh"
#include "util/bitops.hh"
#include "util/random.hh"
#include "util/strutil.hh"

namespace
{

using namespace secproc::crypto;
using secproc::util::fromHex;
using secproc::util::Rng;
using secproc::util::toHex;

// -------------------------------------------------------------------- DES

struct DesVector
{
    const char *key;
    const char *plain;
    const char *cipher;
};

/** Classic published single-DES known-answer vectors. */
const DesVector kDesVectors[] = {
    // Textbook vector (Stallings).
    {"133457799bbcdff1", "0123456789abcdef", "85e813540f0ab405"},
    // "Their" famous all-zero-output vector.
    {"0e329232ea6d0d73", "8787878787878787", "0000000000000000"},
    // Weak-key identity checks are separate; these are standard KATs.
    {"0101010101010101", "95f8a5e5dd31d900", "8000000000000000"},
    {"8001010101010101", "0000000000000000", "95a8d72813daa94d"},
    {"7ca110454a1a6e57", "01a1d6d039776742", "690f5b0d9a26939b"},
};

class DesKnownAnswer : public ::testing::TestWithParam<DesVector>
{};

TEST_P(DesKnownAnswer, EncryptMatchesVector)
{
    const auto &[key_hex, plain_hex, cipher_hex] = GetParam();
    Des des(fromHex(key_hex).data());
    const auto plain = fromHex(plain_hex);
    uint8_t out[8];
    des.encryptBlock(plain.data(), out);
    EXPECT_EQ(toHex(out, 8), cipher_hex);
}

TEST_P(DesKnownAnswer, DecryptInvertsVector)
{
    const auto &[key_hex, plain_hex, cipher_hex] = GetParam();
    Des des(fromHex(key_hex).data());
    const auto cipher = fromHex(cipher_hex);
    uint8_t out[8];
    des.decryptBlock(cipher.data(), out);
    EXPECT_EQ(toHex(out, 8), plain_hex);
}

INSTANTIATE_TEST_SUITE_P(FipsVectors, DesKnownAnswer,
                         ::testing::ValuesIn(kDesVectors));

TEST(Des, RoundTripRandomBlocks)
{
    Rng rng(101);
    uint8_t key[8];
    rng.fillBytes(key, 8);
    Des des(key);
    for (int i = 0; i < 200; ++i) {
        uint8_t plain[8], cipher[8], back[8];
        rng.fillBytes(plain, 8);
        des.encryptBlock(plain, cipher);
        des.decryptBlock(cipher, back);
        ASSERT_EQ(std::memcmp(plain, back, 8), 0);
        ASSERT_NE(std::memcmp(plain, cipher, 8), 0)
            << "ciphertext must differ from plaintext";
    }
}

TEST(Des, Uint64Interface)
{
    Des des(uint64_t{0x133457799BBCDFF1ull});
    EXPECT_EQ(des.encrypt64(0x0123456789ABCDEFull),
              0x85E813540F0AB405ull);
    EXPECT_EQ(des.decrypt64(0x85E813540F0AB405ull),
              0x0123456789ABCDEFull);
}

TEST(Des, InPlaceBlockAliasing)
{
    Des des(uint64_t{0x133457799BBCDFF1ull});
    auto buf = fromHex("0123456789abcdef");
    des.encryptBlock(buf.data(), buf.data());
    EXPECT_EQ(toHex(buf.data(), 8), "85e813540f0ab405");
    des.decryptBlock(buf.data(), buf.data());
    EXPECT_EQ(toHex(buf.data(), 8), "0123456789abcdef");
}

TEST(Des, AvalancheOnePlaintextBit)
{
    Des des(uint64_t{0x133457799BBCDFF1ull});
    const uint64_t c0 = des.encrypt64(0);
    const uint64_t c1 = des.encrypt64(1);
    const int flipped = std::popcount(c0 ^ c1);
    EXPECT_GT(flipped, 16) << "DES avalanche should flip ~32 bits";
    EXPECT_LT(flipped, 48);
}

// ------------------------------------------------------------------- 3DES

TEST(TripleDes, DegeneratesToSingleDesWithEqualKeys)
{
    const auto key = fromHex("133457799bbcdff1");
    std::vector<uint8_t> triple_key;
    for (int i = 0; i < 3; ++i)
        triple_key.insert(triple_key.end(), key.begin(), key.end());
    TripleDes tdes(triple_key.data());
    Des des(key.data());

    Rng rng(7);
    for (int i = 0; i < 50; ++i) {
        uint8_t plain[8], c1[8], c2[8];
        rng.fillBytes(plain, 8);
        tdes.encryptBlock(plain, c1);
        des.encryptBlock(plain, c2);
        ASSERT_EQ(std::memcmp(c1, c2, 8), 0);
    }
}

TEST(TripleDes, RoundTripDistinctKeys)
{
    Rng rng(8);
    uint8_t key[24];
    rng.fillBytes(key, 24);
    TripleDes tdes(key);
    for (int i = 0; i < 100; ++i) {
        uint8_t plain[8], cipher[8], back[8];
        rng.fillBytes(plain, 8);
        tdes.encryptBlock(plain, cipher);
        tdes.decryptBlock(cipher, back);
        ASSERT_EQ(std::memcmp(plain, back, 8), 0);
    }
}

// ------------------------------------------------------ batched DES paths

/** Block counts around every batch edge of the bitsliced kernel. */
const size_t kBatchEdgeCounts[] = {0, 1, 255, 256, 257, 511, 512, 4097};

/** The four DES weak keys: every round key equal, E_K = D_K. */
const char *const kDesWeakKeys[] = {
    "0101010101010101",
    "fefefefefefefefe",
    "e0e0e0e0f1f1f1f1",
    "1f1f1f1f0e0e0e0e",
};

/** Known-answer keys, the weak keys and a few random ones. */
std::vector<std::vector<uint8_t>>
batchTestKeys()
{
    std::vector<std::vector<uint8_t>> keys;
    for (const DesVector &vector : kDesVectors)
        keys.push_back(fromHex(vector.key));
    for (const char *weak : kDesWeakKeys)
        keys.push_back(fromHex(weak));
    Rng rng(0xB175);
    for (int i = 0; i < 4; ++i) {
        keys.emplace_back(8);
        rng.fillBytes(keys.back().data(), 8);
    }
    return keys;
}

/**
 * The bitsliced kernel against the 8-lane table path, on every batch
 * edge, out of place and in place, in both directions. Skipped on
 * hosts without AVX2, where nothing calls the kernel.
 */
TEST(DesBitsliced, MatchesTablePath)
{
    if (!detail::desCpuHasAvx2())
        GTEST_SKIP() << "no AVX2 on this host";

    Rng rng(0x51CE);
    for (const std::vector<uint8_t> &key : batchTestKeys()) {
        const Des des(key.data());
        for (const size_t count : kBatchEdgeCounts) {
            std::vector<uint8_t> in(8 * count);
            rng.fillBytes(in.data(), in.size());
            for (const bool decrypt : {false, true}) {
                std::vector<uint8_t> want(in.size());
                detail::desBlocksTable(des, in.data(), want.data(),
                                       count, decrypt);
                std::vector<uint8_t> got(in.size());
                detail::desBlocksBitsliced(des, in.data(), got.data(),
                                           count, decrypt);
                ASSERT_EQ(got, want)
                    << "key " << toHex(key.data(), 8) << " count "
                    << count << (decrypt ? " decrypt" : " encrypt");
                std::vector<uint8_t> in_place = in;
                detail::desBlocksBitsliced(des, in_place.data(),
                                           in_place.data(), count,
                                           decrypt);
                ASSERT_EQ(in_place, want)
                    << "in place, key " << toHex(key.data(), 8)
                    << " count " << count;
            }
        }
    }
}

/**
 * Every lane of a batch reproduces the published vectors, and under
 * a weak key encryption undoes itself.
 */
TEST(DesBitsliced, KnownAnswersInEveryLane)
{
    if (!detail::desCpuHasAvx2())
        GTEST_SKIP() << "no AVX2 on this host";

    for (const DesVector &vector : kDesVectors) {
        const Des des(fromHex(vector.key).data());
        const std::vector<uint8_t> plain = fromHex(vector.plain);
        std::vector<uint8_t> batch;
        for (int lane = 0; lane < 256; ++lane)
            batch.insert(batch.end(), plain.begin(), plain.end());
        detail::desBlocksBitsliced(des, batch.data(), batch.data(), 256,
                                   false);
        for (int lane = 0; lane < 256; ++lane)
            ASSERT_EQ(toHex(batch.data() + 8 * lane, 8), vector.cipher)
                << "lane " << lane;
    }

    Rng rng(0x3EA7);
    std::vector<uint8_t> in(8 * 512);
    rng.fillBytes(in.data(), in.size());
    for (const char *weak : kDesWeakKeys) {
        const Des des(fromHex(weak).data());
        std::vector<uint8_t> twice = in;
        detail::desBlocksBitsliced(des, twice.data(), twice.data(), 512,
                                   false);
        EXPECT_NE(twice, in);
        detail::desBlocksBitsliced(des, twice.data(), twice.data(), 512,
                                   false);
        EXPECT_EQ(twice, in) << "weak key " << weak;
    }
}

/**
 * The batched calls, whichever path this host dispatches to, give
 * the bytes of one-block-at-a-time calls: single DES and 3DES, whose
 * EDE stages run in place.
 */
TEST(DesBatches, MatchPerBlockCalls)
{
    Rng rng(0xBA7C);
    uint8_t triple_key[24];
    rng.fillBytes(triple_key, sizeof triple_key);
    const TripleDes tdes(triple_key);
    const Des des(triple_key);
    for (const BlockCipher *cipher :
         {static_cast<const BlockCipher *>(&des),
          static_cast<const BlockCipher *>(&tdes)}) {
        for (const size_t count : kBatchEdgeCounts) {
            std::vector<uint8_t> in(8 * count);
            rng.fillBytes(in.data(), in.size());
            std::vector<uint8_t> want_enc(in.size());
            std::vector<uint8_t> want_dec(in.size());
            for (size_t i = 0; i < count; ++i) {
                cipher->encryptBlock(in.data() + 8 * i,
                                     want_enc.data() + 8 * i);
                cipher->decryptBlock(in.data() + 8 * i,
                                     want_dec.data() + 8 * i);
            }
            std::vector<uint8_t> enc(in.size());
            cipher->encryptBlocks(in.data(), enc.data(), count);
            EXPECT_EQ(enc, want_enc)
                << cipher->name() << " count " << count;
            std::vector<uint8_t> dec = in;
            cipher->decryptBlocks(dec.data(), dec.data(), count);
            EXPECT_EQ(dec, want_dec)
                << cipher->name() << " in place, count " << count;
        }
    }
}

// -------------------------------------------------------------------- AES

TEST(Aes128, Fips197AppendixC)
{
    const auto key = fromHex("000102030405060708090a0b0c0d0e0f");
    const auto plain = fromHex("00112233445566778899aabbccddeeff");
    Aes128 aes(key.data());
    uint8_t out[16];
    aes.encryptBlock(plain.data(), out);
    EXPECT_EQ(toHex(out, 16), "69c4e0d86a7b0430d8cdb78070b4c55a");
    uint8_t back[16];
    aes.decryptBlock(out, back);
    EXPECT_EQ(toHex(back, 16), toHex(plain.data(), 16));
}

TEST(Aes128, Fips197AppendixBVector)
{
    const auto key = fromHex("2b7e151628aed2a6abf7158809cf4f3c");
    const auto plain = fromHex("3243f6a8885a308d313198a2e0370734");
    Aes128 aes(key.data());
    uint8_t out[16];
    aes.encryptBlock(plain.data(), out);
    EXPECT_EQ(toHex(out, 16), "3925841d02dc09fbdc118597196a0b32");
}

TEST(Aes128, RoundTripRandomBlocks)
{
    Rng rng(303);
    uint8_t key[16];
    rng.fillBytes(key, 16);
    Aes128 aes(key);
    for (int i = 0; i < 200; ++i) {
        uint8_t plain[16], cipher[16], back[16];
        rng.fillBytes(plain, 16);
        aes.encryptBlock(plain, cipher);
        aes.decryptBlock(cipher, back);
        ASSERT_EQ(std::memcmp(plain, back, 16), 0);
    }
}

TEST(Aes128, KeySensitivity)
{
    const auto key1 = fromHex("000102030405060708090a0b0c0d0e0f");
    auto key2 = key1;
    key2[15] ^= 1;
    Aes128 a(key1.data()), b(key2.data());
    uint8_t plain[16] = {}, c1[16], c2[16];
    a.encryptBlock(plain, c1);
    b.encryptBlock(plain, c2);
    EXPECT_NE(std::memcmp(c1, c2, 16), 0);
}

// ------------------------------------------------------------------ modes

TEST(Modes, EcbLeaksRepeatedBlocksOtpDoesNot)
{
    // This is the paper's Section 3.4 observation in miniature: the
    // memory holds many repeated values; ECB (XOM direct encryption)
    // preserves the repetition, OTP with per-address seeds removes it.
    Des des(uint64_t{0x0123456789ABCDEFull});
    std::vector<uint8_t> repeated(128, 0); // a zero-filled cache line

    auto ecb = repeated;
    ecbEncrypt(des, ecb.data(), ecb.size());
    EXPECT_EQ(countRepeatedBlocks(ecb.data(), ecb.size(), 8), 15u)
        << "16 identical plaintext blocks leave 15 repeats under ECB";

    auto otp = repeated;
    otpTransform(des, /*seed=*/0x1000, otp.data(), otp.size());
    EXPECT_EQ(countRepeatedBlocks(otp.data(), otp.size(), 8), 0u)
        << "counter-mode pads de-correlate identical blocks";
}

TEST(Modes, EcbRoundTrip)
{
    Des des(uint64_t{0xA5A5A5A55A5A5A5Aull});
    Rng rng(5);
    std::vector<uint8_t> data(256);
    rng.fillBytes(data.data(), data.size());
    auto copy = data;
    ecbEncrypt(des, data.data(), data.size());
    EXPECT_NE(data, copy);
    ecbDecrypt(des, data.data(), data.size());
    EXPECT_EQ(data, copy);
}

TEST(Modes, OtpIsAnInvolution)
{
    Aes128 aes(fromHex("000102030405060708090a0b0c0d0e0f").data());
    Rng rng(6);
    std::vector<uint8_t> data(128);
    rng.fillBytes(data.data(), data.size());
    auto copy = data;
    otpTransform(aes, 42, data.data(), data.size());
    EXPECT_NE(data, copy);
    otpTransform(aes, 42, data.data(), data.size());
    EXPECT_EQ(data, copy);
}

TEST(Modes, DifferentSeedsGiveUnrelatedPads)
{
    Des des(uint64_t{0x1122334455667788ull});
    uint8_t pad1[128], pad2[128];
    generatePad(des, 1000, pad1, sizeof(pad1));
    generatePad(des, 1001, pad2, sizeof(pad2));
    EXPECT_NE(std::memcmp(pad1, pad2, sizeof(pad1)), 0);
    // Sequential seeds must not shift-align either (paper Section 3.4:
    // E(addr) and E(addr+1) are completely unrelated).
    EXPECT_NE(std::memcmp(pad1 + 8, pad2, sizeof(pad1) - 8), 0);
}

TEST(Modes, PadIsDeterministicPerSeed)
{
    Des des(uint64_t{0x1122334455667788ull});
    uint8_t pad1[64], pad2[64];
    generatePad(des, 77, pad1, sizeof(pad1));
    generatePad(des, 77, pad2, sizeof(pad2));
    EXPECT_EQ(std::memcmp(pad1, pad2, sizeof(pad1)), 0);
}

/**
 * A pad run is the pads of its lines, one line at a time: the block
 * cursor carries across staging chunks in both directions (lines
 * shorter and longer than a chunk), for an 8-byte and a 16-byte
 * block, in both output modes. The reference encrypts each tweaked
 * counter block alone.
 */
TEST(Modes, PadRunMatchesPerLinePads)
{
    const Des des(uint64_t{0x0123456789ABCDEFull});
    const Aes128 aes(fromHex("2b7e151628aed2a6abf7158809cf4f3c").data());
    const auto seed_of = [](size_t line) {
        return 0x400000ull + line * 0x1000001ull;
    };
    Rng rng(0x9AD5);
    for (const BlockCipher *cipher :
         {static_cast<const BlockCipher *>(&des),
          static_cast<const BlockCipher *>(&aes)}) {
        const size_t bs = cipher->blockSize();
        for (const size_t line_len :
             {bs, size_t{128}, size_t{1040}, kPadStageBytes + 2 * bs}) {
            for (const size_t lines : {1, 3, 37}) {
                std::vector<uint8_t> want(line_len * lines);
                for (size_t line = 0; line < lines; ++line) {
                    for (size_t b = 0; b < line_len / bs; ++b) {
                        std::vector<uint8_t> block(bs, 0);
                        secproc::util::storeBe64(
                            block.data(),
                            seed_of(line) ^ (b * kPadBlockTweak));
                        cipher->encryptBlock(
                            block.data(),
                            want.data() + line * line_len + b * bs);
                    }
                }
                const std::string where = cipher->name() + " line " +
                                          std::to_string(line_len) +
                                          " x " + std::to_string(lines);

                std::vector<uint8_t> run(want.size());
                padLines(*cipher, line_len, lines, seed_of, run.data(),
                         PadOutput::Store);
                EXPECT_EQ(run, want) << where;

                std::vector<uint8_t> one_by_one(want.size());
                for (size_t line = 0; line < lines; ++line) {
                    generatePad(*cipher, seed_of(line),
                                one_by_one.data() + line * line_len,
                                line_len);
                }
                EXPECT_EQ(one_by_one, want) << where;

                std::vector<uint8_t> data(want.size());
                rng.fillBytes(data.data(), data.size());
                std::vector<uint8_t> xored = data;
                padLines(*cipher, line_len, lines, seed_of, xored.data(),
                         PadOutput::Xor);
                std::vector<uint8_t> transformed = data;
                for (size_t line = 0; line < lines; ++line) {
                    otpTransform(*cipher, seed_of(line),
                                 transformed.data() + line * line_len,
                                 line_len);
                }
                xorPad(data.data(), want.data(), data.size());
                EXPECT_EQ(xored, data) << where;
                EXPECT_EQ(transformed, data) << where;
            }
        }
    }
}

// -------------------------------------------------------------------- SHA

TEST(Sha1, KnownVectors)
{
    auto d = Sha1::digest(reinterpret_cast<const uint8_t *>("abc"), 3);
    EXPECT_EQ(toHex(d.data(), d.size()),
              "a9993e364706816aba3e25717850c26c9cd0d89d");

    const std::string empty;
    d = Sha1::digest(reinterpret_cast<const uint8_t *>(empty.data()), 0);
    EXPECT_EQ(toHex(d.data(), d.size()),
              "da39a3ee5e6b4b0d3255bfef95601890afd80709");

    const std::string msg =
        "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
    d = Sha1::digest(reinterpret_cast<const uint8_t *>(msg.data()),
                     msg.size());
    EXPECT_EQ(toHex(d.data(), d.size()),
              "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha256, KnownVectors)
{
    auto d = Sha256::digest(reinterpret_cast<const uint8_t *>("abc"), 3);
    EXPECT_EQ(toHex(d.data(), d.size()),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");

    d = Sha256::digest(nullptr, 0);
    EXPECT_EQ(toHex(d.data(), d.size()),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
}

struct ShaVector
{
    const char *message_hex;
    const char *digest_hex;
};

/** NIST CAVP SHA-256 short-message known answers (byte-oriented). */
const ShaVector kSha256ShortMessages[] = {
    {"d3", "28969cdfa74a12c82f3bad960b0b000aca2ac329deea5c2328ebc6f2ba9802c1"},
    {"11af", "5ca7133fa735326081558ac312c620eeca9970d1e70a4b95533d956f072d1f98"},
    {"b4190e", "dff2e73091f6c05e528896c4c831b9448653dc2ff043528f6769437bc7b975c2"},
    {"74ba2521", "b16aa56be3880d18cd41e68384cf1ec8c17680c45a02b1575dc1518923ae8b0e"},
    {"c299209682", "f0887fe961c9cd3beab957e8222494abb969b1ce4c6557976df8b0f6d20e9166"},
    {"e1dc724d5621", "eca0a060b489636225b4fa64d267dabbe44273067ac679f20820bddc6b6a90ac"},
    {"06e076f5a442d5", "3fd877e27450e6bbd5d74bb82f9870c64c66e109418baa8e6bbcff355e287926"},
    {"5738c929c4f4ccb6", "963bb88f27f512777aab6c8b1a02c70ec0ad651d428f870036e1917120fb48bf"},
    {"3334c58075d3f4139e", "078da3d77ed43bd3037a433fd0341855023793f9afd08b4b08ea1e5597ceef20"},
    {"74cb9381d89f5aa73368", "73d6fad1caaa75b43b21733561fd3958bdc555194a037c2addec19dc2d7a52bd"},
};

class Sha256ShortMessage : public ::testing::TestWithParam<ShaVector>
{};

TEST_P(Sha256ShortMessage, MatchesNistVector)
{
    const auto &[message_hex, digest_hex] = GetParam();
    const auto message = fromHex(message_hex);
    const auto d = Sha256::digest(message.data(), message.size());
    EXPECT_EQ(toHex(d.data(), d.size()), digest_hex);
}

INSTANTIATE_TEST_SUITE_P(NistCavp, Sha256ShortMessage,
                         ::testing::ValuesIn(kSha256ShortMessages));

TEST(Sha256, IncrementalMatchesOneShot)
{
    Rng rng(9);
    std::vector<uint8_t> data(1000);
    rng.fillBytes(data.data(), data.size());
    const auto expect = Sha256::digest(data.data(), data.size());

    Sha256 hasher;
    size_t off = 0;
    const size_t chunks[] = {1, 63, 64, 65, 500, 307};
    for (size_t chunk : chunks) {
        hasher.update(data.data() + off, chunk);
        off += chunk;
    }
    ASSERT_EQ(off, data.size());
    std::array<uint8_t, Sha256::kDigestSize> got;
    hasher.final(got.data());
    EXPECT_EQ(got, expect);
}

/**
 * Differential pin for the SHA-NI compression path: on hardware that
 * has it, the vectorized multi-block compressor must transform
 * arbitrary chaining states exactly like the portable scalar code,
 * for every block count the bulk update() path can issue.
 */
TEST(Sha256, HardwareCompressMatchesScalar)
{
    if (!detail::sha256CpuHasShaNi())
        GTEST_SKIP() << "no SHA-NI on this host";

    Rng rng(0x5AA5);
    for (size_t blocks = 1; blocks <= 8; ++blocks) {
        for (int trial = 0; trial < 25; ++trial) {
            uint32_t state_scalar[8];
            for (uint32_t &word : state_scalar)
                word = static_cast<uint32_t>(rng.next64());
            uint32_t state_hw[8];
            std::memcpy(state_hw, state_scalar, sizeof state_hw);

            std::vector<uint8_t> data(blocks * 64);
            rng.fillBytes(data.data(), data.size());

            detail::sha256CompressScalar(state_scalar, data.data(),
                                         blocks);
            detail::sha256CompressHw(state_hw, data.data(), blocks);
            ASSERT_EQ(std::memcmp(state_scalar, state_hw,
                                  sizeof state_scalar),
                      0)
                << "diverged at blocks=" << blocks
                << " trial=" << trial;
        }
    }
}

/** The dispatch follows the CPU probe and nothing else. */
TEST(Sha256, DispatchMatchesProbe)
{
    EXPECT_EQ(sha256HardwareAvailable(), detail::sha256CpuHasShaNi());
}

TEST(Hmac, Rfc4231Case1)
{
    std::vector<uint8_t> key(20, 0x0b);
    const std::string msg = "Hi There";
    const auto mac = hmacSha256(
        key.data(), key.size(),
        reinterpret_cast<const uint8_t *>(msg.data()), msg.size());
    EXPECT_EQ(toHex(mac.data(), mac.size()),
              "b0344c61d8db38535ca8afceaf0bf12b"
              "881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2)
{
    const std::string key = "Jefe";
    const std::string msg = "what do ya want for nothing?";
    const auto mac = hmacSha256(
        reinterpret_cast<const uint8_t *>(key.data()), key.size(),
        reinterpret_cast<const uint8_t *>(msg.data()), msg.size());
    EXPECT_EQ(toHex(mac.data(), mac.size()),
              "5bdcc146bf60754e6a042426089575c7"
              "5a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3CombinedKeyAndData)
{
    const std::vector<uint8_t> key(20, 0xaa);
    const std::vector<uint8_t> msg(50, 0xdd);
    const auto mac =
        hmacSha256(key.data(), key.size(), msg.data(), msg.size());
    EXPECT_EQ(toHex(mac.data(), mac.size()),
              "773ea91e36800e46854db8ebd09181a7"
              "2959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case4TwentyFiveByteKey)
{
    const auto key =
        fromHex("0102030405060708090a0b0c0d0e0f10111213141516171819");
    const std::vector<uint8_t> msg(50, 0xcd);
    const auto mac =
        hmacSha256(key.data(), key.size(), msg.data(), msg.size());
    EXPECT_EQ(toHex(mac.data(), mac.size()),
              "82558a389a443c0ea4cc819899f2083a"
              "85f0faa3e578f8077a2e3ff46729665b");
}

TEST(Hmac, Rfc4231Case6KeyLargerThanBlock)
{
    // 131-byte key: exercises the hash-the-key-down path.
    const std::vector<uint8_t> key(131, 0xaa);
    const std::string msg =
        "Test Using Larger Than Block-Size Key - Hash Key First";
    const auto mac = hmacSha256(
        key.data(), key.size(),
        reinterpret_cast<const uint8_t *>(msg.data()), msg.size());
    EXPECT_EQ(toHex(mac.data(), mac.size()),
              "60e431591ee0b67f0d8a26aacbf5b77f"
              "8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, Rfc4231Case7KeyAndDataLargerThanBlock)
{
    const std::vector<uint8_t> key(131, 0xaa);
    const std::string msg =
        "This is a test using a larger than block-size key and a "
        "larger than block-size data. The key needs to be hashed "
        "before being used by the HMAC algorithm.";
    const auto mac = hmacSha256(
        key.data(), key.size(),
        reinterpret_cast<const uint8_t *>(msg.data()), msg.size());
    EXPECT_EQ(toHex(mac.data(), mac.size()),
              "9b09ffa71b942fcb27635fbcd5b0e944"
              "bfdc63644f0713938a7f51535c3a35e2");
}

// ----------------------------------------------------------------- BigInt

TEST(BigInt, HexRoundTrip)
{
    const std::string hex = "123456789abcdef0fedcba9876543210";
    EXPECT_EQ(BigInt::fromHex(hex).toHex(), hex);
    EXPECT_EQ(BigInt().toHex(), "0");
    EXPECT_EQ(BigInt(0xABCDu).toHex(), "abcd");
}

TEST(BigInt, AddSubProperty)
{
    Rng rng(21);
    for (int i = 0; i < 100; ++i) {
        const BigInt a = BigInt::randomBits(200, rng);
        const BigInt b = BigInt::randomBits(150, rng);
        EXPECT_EQ((a + b) - b, a);
        EXPECT_EQ((a + b) - a, b);
        EXPECT_TRUE(a + b >= a);
    }
}

TEST(BigInt, MulDivProperty)
{
    Rng rng(22);
    for (int i = 0; i < 50; ++i) {
        const BigInt a = BigInt::randomBits(180, rng);
        const BigInt b = BigInt::randomBits(90, rng);
        const auto [q, r] = a.divmod(b);
        EXPECT_TRUE(r < b);
        EXPECT_EQ(q * b + r, a);
    }
}

TEST(BigInt, ShiftConsistency)
{
    Rng rng(23);
    for (int i = 0; i < 50; ++i) {
        const BigInt a = BigInt::randomBits(100, rng);
        for (unsigned s : {1u, 13u, 64u, 65u, 127u}) {
            EXPECT_EQ((a << s) >> s, a);
            EXPECT_EQ(a << s, a * (BigInt(1) << s));
        }
    }
}

TEST(BigInt, BitLength)
{
    EXPECT_EQ(BigInt().bitLength(), 0u);
    EXPECT_EQ(BigInt(1).bitLength(), 1u);
    EXPECT_EQ(BigInt(255).bitLength(), 8u);
    EXPECT_EQ(BigInt(256).bitLength(), 9u);
    EXPECT_EQ((BigInt(1) << 200).bitLength(), 201u);
}

TEST(BigInt, ModExpSmallKnownValues)
{
    // 4^13 mod 497 = 445 (classic example).
    EXPECT_EQ(BigInt(4).modExp(BigInt(13), BigInt(497)), BigInt(445));
    // Fermat: a^(p-1) = 1 mod p.
    EXPECT_EQ(BigInt(7).modExp(BigInt(1000002), BigInt(1000003)),
              BigInt(1));
}

TEST(BigInt, ModInverse)
{
    Rng rng(24);
    const BigInt m = BigInt::randomPrime(64, rng);
    for (int i = 0; i < 20; ++i) {
        const BigInt a = BigInt(2) + BigInt::randomBelow(m - BigInt(3),
                                                         rng);
        const BigInt inv = a.modInverse(m);
        EXPECT_EQ((a * inv) % m, BigInt(1));
    }
}

TEST(BigInt, PrimalityKnownValues)
{
    Rng rng(25);
    EXPECT_TRUE(BigInt(2).isProbablePrime(rng));
    EXPECT_TRUE(BigInt(97).isProbablePrime(rng));
    EXPECT_TRUE(BigInt(1000003).isProbablePrime(rng));
    EXPECT_FALSE(BigInt(1000001).isProbablePrime(rng)); // 101*9901
    EXPECT_FALSE(BigInt(561).isProbablePrime(rng)); // Carmichael
    EXPECT_FALSE(BigInt(1).isProbablePrime(rng));
    EXPECT_FALSE(BigInt().isProbablePrime(rng));
    // 2^61 - 1 is a Mersenne prime.
    EXPECT_TRUE(BigInt((1ull << 61) - 1).isProbablePrime(rng));
}

TEST(BigInt, RandomPrimeHasExactBitLength)
{
    Rng rng(26);
    for (unsigned bits : {32u, 48u, 96u}) {
        const BigInt p = BigInt::randomPrime(bits, rng);
        EXPECT_EQ(p.bitLength(), bits);
        EXPECT_TRUE(p.isProbablePrime(rng));
    }
}

// ------------------------------------------- BigInt fast-path differentials
//
// The optimized paths (Knuth-D divmod, Montgomery modExp) must be
// bit-identical to the retained schoolbook reference implementations,
// and the one product must invert under the reference division.
// Together these loops cross-check well over 1000 randomized cases
// spanning 512/1024/2048-bit (and larger) operands.

TEST(BigIntDifferential, ProductDividesBackUnderRestoringDivision)
{
    Rng rng(41);
    for (int i = 0; i < 100; ++i) {
        // From one limb to well past 2048-bit keys' 32 limbs,
        // including asymmetric operand sizes.
        const unsigned abits =
            64 + static_cast<unsigned>(rng.next64() % 4100);
        const unsigned bbits =
            64 + static_cast<unsigned>(rng.next64() % 4100);
        const BigInt a = BigInt::randomBits(abits, rng);
        const BigInt b = BigInt::randomBits(bbits, rng);
        const auto [q, r] = (a * b).divmodSchoolbook(b);
        ASSERT_EQ(q, a) << "abits=" << abits << " bbits=" << bbits;
        ASSERT_TRUE(r.isZero()) << "abits=" << abits << " bbits=" << bbits;
    }
    // A power of two is the sparsest operand: every limb below its
    // bit is zero, on either side of the product.
    for (unsigned k : {0u, 1u, 63u, 64u, 65u, 2047u, 3072u, 4159u}) {
        const BigInt a = BigInt::randomBits(
            64 + static_cast<unsigned>(rng.next64() % 4100), rng);
        const BigInt power = BigInt(1) << k;
        EXPECT_EQ(a * power, a << k) << "k=" << k;
        EXPECT_EQ(power * a, a << k) << "k=" << k;
    }
}

TEST(BigIntDifferential, DivmodMatchesSchoolbook)
{
    Rng rng(43);
    for (int i = 0; i < 400; ++i) {
        const unsigned abits =
            64 + static_cast<unsigned>(rng.next64() % 2100);
        const unsigned bbits =
            1 + static_cast<unsigned>(rng.next64() % abits);
        const BigInt a = BigInt::randomBits(abits, rng);
        const BigInt b = BigInt::randomBits(bbits, rng);
        const auto [q, r] = a.divmod(b);
        const auto [qs, rs] = a.divmodSchoolbook(b);
        ASSERT_EQ(q, qs) << "abits=" << abits << " bbits=" << bbits;
        ASSERT_EQ(r, rs);
        ASSERT_EQ(q * b + r, a);
        ASSERT_TRUE(r < b);
    }
}

TEST(BigIntDifferential, DivmodQuotientCorrectionPath)
{
    // The base-2^32 add-back case from the classic Algorithm D test
    // suites, widened to 64-bit limbs: the two-limb trial quotient
    // overestimates and the quotient-correction (add-back) branch
    // must fire. No panic machinery may run on this path.
    const BigInt u = BigInt::fromHex(
        "8000000000000000" "fffffffffffffffe" "0000000000000000");
    const BigInt v =
        BigInt::fromHex("8000000000000000" "ffffffffffffffff");
    const auto [q, r] = u.divmod(v);
    const auto [qs, rs] = u.divmodSchoolbook(v);
    EXPECT_EQ(q, qs);
    EXPECT_EQ(r, rs);
    EXPECT_EQ(q * v + r, u);
    EXPECT_TRUE(r < v);

    // Divisors just below a power of two keep the estimate maximally
    // optimistic; sweep dividends around multiples of the divisor.
    Rng rng(44);
    for (int i = 0; i < 64; ++i) {
        const BigInt d =
            (BigInt(1) << 192) - BigInt(1 + (rng.next64() & 0xFF));
        const BigInt k = BigInt::randomBits(130, rng);
        for (const BigInt &a :
             {d * k, d * k + BigInt(1), d * k - BigInt(1),
              d * k + d - BigInt(1)}) {
            const auto [q2, r2] = a.divmod(d);
            const auto [q2s, r2s] = a.divmodSchoolbook(d);
            ASSERT_EQ(q2, q2s);
            ASSERT_EQ(r2, r2s);
        }
    }
}

TEST(BigIntDifferential, MontgomeryMulMatchesPlainReduction)
{
    Rng rng(45);
    for (unsigned bits : {512u, 1024u, 2048u}) {
        for (int i = 0; i < 100; ++i) {
            BigInt n = BigInt::randomBits(bits, rng);
            if (!n.isOdd())
                n = n + BigInt(1);
            const MontgomeryCtx ctx(n);
            const BigInt a = BigInt::randomBelow(n, rng);
            const BigInt b = BigInt::randomBelow(n, rng);
            ASSERT_EQ(ctx.fromMont(ctx.mul(ctx.toMont(a),
                                           ctx.toMont(b))),
                      (a * b) % n)
                << "bits=" << bits;
            ASSERT_EQ(ctx.fromMont(ctx.toMont(a)), a);
        }
    }
}

TEST(BigIntDifferential, ModExpMatchesSchoolbook)
{
    Rng rng(46);
    for (unsigned bits : {512u, 1024u, 2048u}) {
        for (int i = 0; i < 12; ++i) {
            const BigInt m = BigInt::randomBits(bits, rng);
            const BigInt base = BigInt::randomBits(bits + 13, rng);
            const BigInt exp = BigInt::randomBits(
                1 + static_cast<unsigned>(rng.next64() % 48), rng);
            // Covers both parities of m: the Montgomery path for odd
            // moduli and the windowed divmod fallback for even ones.
            ASSERT_EQ(base.modExp(exp, m),
                      base.modExpSchoolbook(exp, m))
                << "bits=" << bits << " odd=" << m.isOdd();
        }
    }
}

TEST(BigInt, ModExpEdgeCases)
{
    const BigInt m = BigInt::fromHex("facefeed12345677");
    const BigInt even = BigInt::fromHex("facefeed12345678");
    // Zero exponent is 1 mod m on every path.
    EXPECT_EQ(BigInt(5).modExp(BigInt(0), m), BigInt(1));
    EXPECT_EQ(BigInt(5).modExp(BigInt(0), even), BigInt(1));
    EXPECT_EQ(BigInt(5).modExpSchoolbook(BigInt(0), m), BigInt(1));
    // Modulus 1 collapses everything to zero.
    EXPECT_EQ(BigInt(5).modExp(BigInt(12345), BigInt(1)), BigInt());
    EXPECT_EQ(BigInt(5).modExp(BigInt(0), BigInt(1)), BigInt());
    EXPECT_EQ(BigInt(5).modExpSchoolbook(BigInt(12345), BigInt(1)),
              BigInt());
    // Zero base with a non-zero exponent.
    EXPECT_EQ(BigInt(0).modExp(BigInt(977), m), BigInt());
    EXPECT_EQ(BigInt(0).modExp(BigInt(977), even), BigInt());
    // Base larger than the modulus is reduced first.
    Rng rng(47);
    const BigInt big = BigInt::randomBits(300, rng);
    EXPECT_EQ(big.modExp(BigInt(3), m), (big % m).modExp(BigInt(3), m));
    // Power-of-two modulus exercises the even fallback's trims.
    const BigInt pow2 = BigInt(1) << 128;
    EXPECT_EQ(BigInt(3).modExp(BigInt(129), pow2),
              BigInt(3).modExpSchoolbook(BigInt(129), pow2));
    // Exponent bit lengths around the 4-bit window boundaries.
    for (unsigned ebits : {1u, 3u, 4u, 5u, 8u, 9u, 63u, 64u, 65u}) {
        const BigInt e = BigInt::randomBits(ebits, rng);
        EXPECT_EQ(BigInt(7).modExp(e, m),
                  BigInt(7).modExpSchoolbook(e, m))
            << "ebits=" << ebits;
    }
}

TEST(BigIntDeath, ExplicitFailureModes)
{
    const BigInt x = BigInt::fromHex("1234567890abcdef00");
    EXPECT_DEATH_IF_SUPPORTED(x.divmod(BigInt(0)),
                              "division by zero");
    EXPECT_DEATH_IF_SUPPORTED(x.divmodSchoolbook(BigInt(0)),
                              "division by zero");
    EXPECT_DEATH_IF_SUPPORTED(x.modExp(BigInt(3), BigInt(0)),
                              "modulus must be non-zero");
    EXPECT_DEATH_IF_SUPPORTED(x.modExpSchoolbook(BigInt(3), BigInt(0)),
                              "modulus must be non-zero");
    EXPECT_DEATH_IF_SUPPORTED(BigInt(1) - BigInt(2),
                              "subtraction underflow");
    EXPECT_DEATH_IF_SUPPORTED(MontgomeryCtx(BigInt(10)), "odd");
    EXPECT_DEATH_IF_SUPPORTED(MontgomeryCtx(BigInt(1)), "odd");
}

TEST(BigIntDeath, PrimalityNeedsAWitnessRound)
{
    // 127 * 131 has no factor up to 113, so only a witness round can
    // tell it from a prime; with none it must not answer at all.
    Rng rng(49);
    const BigInt n(127 * 131);
    EXPECT_DEATH_IF_SUPPORTED(n.isProbablePrime(rng, 0),
                              "at least one witness round");
    EXPECT_DEATH_IF_SUPPORTED(n.isProbablePrime(rng, -1),
                              "at least one witness round");
}

TEST(BigInt, FromBytesMatchesShiftAndAdd)
{
    Rng rng(50);
    for (size_t len : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u, 256u}) {
        for (size_t zeros : {0u, 1u, 9u}) {
            std::vector<uint8_t> bytes(len);
            rng.fillBytes(bytes.data(), bytes.size());
            std::fill_n(bytes.begin(), std::min(zeros, len), 0);
            BigInt want;
            for (uint8_t b : bytes)
                want = (want << 8) + BigInt(b);
            ASSERT_EQ(BigInt::fromBytes(bytes.data(), bytes.size()), want)
                << "len=" << len << " leading zeros=" << zeros;
            ASSERT_EQ(want.toBytes(len), bytes);
        }
    }
}

// ------------------------------------------------ Montgomery kernel widths
//
// Key generation runs the kernel at the limb counts of its primes
// (1-8 limbs for keys up to 1024 bits), RSA at those of its moduli.
// Widths up to 8 compile as constants and 9 is the first run-time
// width, so every width is checked against plain BigInt arithmetic.

const unsigned kKernelWidths[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 32};

/**
 * Odd k-limb moduli: two random ones, one whose top limb is small
 * (1, or 3 at one limb), and 2^(64k) - 1, where the kernel's final
 * subtract fires most often.
 */
std::vector<BigInt>
kernelModuli(unsigned k, Rng &rng)
{
    std::vector<BigInt> moduli;
    for (int i = 0; i < 2; ++i) {
        BigInt n = BigInt::randomBits(64 * k, rng);
        if (!n.isOdd())
            n = n + BigInt(1);
        moduli.push_back(n);
    }
    if (k == 1) {
        moduli.emplace_back(3);
    } else {
        BigInt low = BigInt::randomBits(64 * (k - 1), rng);
        if (!low.isOdd())
            low = low + BigInt(1);
        moduli.push_back((BigInt(1) << (64 * (k - 1))) + low);
    }
    moduli.push_back((BigInt(1) << (64 * k)) - BigInt(1));
    return moduli;
}

/** base^exp mod n by right-to-left square-and-multiply over * and %. */
BigInt
plainModExp(BigInt base, const BigInt &exp, const BigInt &n)
{
    BigInt result = BigInt(1) % n;
    base = base % n;
    for (unsigned i = 0; i < exp.bitLength(); ++i) {
        if (exp.bit(i))
            result = (result * base) % n;
        base = (base * base) % n;
    }
    return result;
}

TEST(MontgomeryCtx, EveryKernelWidthMatchesReferences)
{
    Rng rng(51);
    for (unsigned k : kKernelWidths) {
        const unsigned bits = 64 * k;
        const BigInt r = BigInt(1) << bits;
        for (const BigInt &n : kernelModuli(k, rng)) {
            SCOPED_TRACE("k=" + std::to_string(k) + " n=" + n.toHex());
            const MontgomeryCtx ctx(n);
            const BigInt r_inv = (r % n).modInverse(n);

            // Products against (a * b) % n, over the edge operands.
            const std::vector<BigInt> operands = {
                BigInt(0), BigInt(1), n - BigInt(1),
                BigInt::randomBelow(n, rng), BigInt::randomBelow(n, rng)};
            for (const BigInt &a : operands) {
                ASSERT_EQ(ctx.toMont(a), (a * r) % n);
                ASSERT_EQ(ctx.fromMont(a), (a * r_inv) % n);
                ASSERT_EQ(ctx.fromMont(ctx.toMont(a)), a);
                for (const BigInt &b : operands) {
                    ASSERT_EQ(ctx.mul(a, b), (a * b * r_inv) % n);
                    ASSERT_EQ(ctx.fromMont(ctx.mul(ctx.toMont(a),
                                                   ctx.toMont(b))),
                              (a * b) % n);
                }
            }
            // Operands at or above n: toMont reduces any base first,
            // and a first operand below R still leaves a result < n.
            const BigInt big = n + BigInt::randomBits(bits + 7, rng);
            ASSERT_EQ(ctx.toMont(big), (big * r) % n);
            ASSERT_EQ(ctx.fromMont(r - BigInt(1)),
                      ((r - BigInt(1)) * r_inv) % n);

            // Exponents: 0, 1, the last square-and-multiply length
            // (32 bits), the first windowed one (33), windows of all
            // ones, and full length up to 512 bits (every witness
            // exponent of key generation up to 1024-bit keys). Bases
            // 0, 1 and n - 1 have closed forms; the schoolbook
            // reference is slow at wide widths, so it checks the
            // 33-bit case only.
            const BigInt base = BigInt::randomBelow(n, rng);
            const BigInt e33 = BigInt::randomBits(33, rng);
            ASSERT_EQ(ctx.modExp(base, e33),
                      base.modExpSchoolbook(e33, n));
            for (const BigInt &e :
                 {BigInt(0), BigInt(1), BigInt::randomBits(32, rng), e33,
                  (BigInt(1) << 36) - BigInt(1),
                  BigInt::randomBits(std::min(bits, 512u), rng)}) {
                SCOPED_TRACE("exp=" + e.toHex());
                ASSERT_EQ(ctx.modExp(base, e), plainModExp(base, e, n));
                if (e.bitLength() > 36)
                    continue;
                ASSERT_EQ(ctx.modExp(big, e), plainModExp(big, e, n));
                ASSERT_EQ(ctx.modExp(BigInt(0), e),
                          BigInt(e.isZero() ? 1 : 0));
                ASSERT_EQ(ctx.modExp(BigInt(1), e), BigInt(1));
                ASSERT_EQ(ctx.modExp(n - BigInt(1), e),
                          e.isOdd() ? n - BigInt(1) : BigInt(1));
            }
        }
    }
}

TEST(BigInt, PrimalityVerdictsAtEveryWidth)
{
    Rng rng(52);
    // One limb: Carmichael numbers, strong pseudoprimes to base 2,
    // and 127 * 131, the smallest composite trial division passes.
    for (uint64_t composite :
         {561ull, 41041ull, 825265ull, 2047ull, 3215031751ull,
          127ull * 131ull}) {
        EXPECT_FALSE(BigInt(composite).isProbablePrime(rng))
            << composite;
    }
    EXPECT_TRUE(BigInt(127).isProbablePrime(rng));
    EXPECT_TRUE(BigInt(131).isProbablePrime(rng));

    // Products of two random primes at every kernel width up to 16
    // limbs (the factors themselves run at about half of it); 1024-bit
    // primes would cost a third of a second, so 32 limbs take the
    // Mersenne primes 2^1279-1, 2^607-1 and 2^127-1, whose product
    // has 2013 bits. 2^521-1 and 2^607-1 are primes at 9 and 10 limbs.
    for (unsigned k : kKernelWidths) {
        if (k > 16)
            continue;
        const unsigned bits = 64 * k;
        const BigInt p = BigInt::randomPrime(bits / 2, rng);
        const BigInt q = BigInt::randomPrime(bits - bits / 2, rng);
        EXPECT_TRUE(p.isProbablePrime(rng)) << "k=" << k;
        EXPECT_TRUE(q.isProbablePrime(rng)) << "k=" << k;
        EXPECT_FALSE((p * q).isProbablePrime(rng)) << "k=" << k;
    }
    const auto mersenne = [](unsigned exponent) {
        return (BigInt(1) << exponent) - BigInt(1);
    };
    EXPECT_TRUE(mersenne(521).isProbablePrime(rng));
    EXPECT_TRUE(mersenne(607).isProbablePrime(rng));
    const BigInt wide = mersenne(1279) * mersenne(607) * mersenne(127);
    ASSERT_EQ((wide.bitLength() + 63) / 64, 32u);
    EXPECT_FALSE(wide.isProbablePrime(rng));
}

TEST(MontgomeryCtx, KnownValuesAndDomainRoundTrip)
{
    const BigInt n = BigInt::fromHex("10000000000000000000000001");
    const MontgomeryCtx ctx(n);
    EXPECT_EQ(ctx.modulus(), n);
    // 4^13 mod 497 via a context on a different modulus size.
    const MontgomeryCtx small(BigInt(497));
    EXPECT_EQ(small.modExp(BigInt(4), BigInt(13)), BigInt(445));
    // Multiplying by the Montgomery form of 1 is the identity.
    Rng rng(48);
    for (int i = 0; i < 20; ++i) {
        const BigInt a = BigInt::randomBelow(n, rng);
        const BigInt am = ctx.toMont(a);
        EXPECT_EQ(ctx.mul(am, ctx.toMont(BigInt(1))), am);
        EXPECT_EQ(ctx.modExp(a, BigInt(1)), a);
    }
}

// -------------------------------------------------------------------- RSA

TEST(Rsa, RoundTripRaw)
{
    Rng rng(31);
    const auto pair = rsaGenerate(384, rng);
    for (int i = 0; i < 5; ++i) {
        const BigInt m = BigInt::randomBelow(pair.pub.n, rng);
        const BigInt c = rsaEncryptRaw(pair.pub, m);
        EXPECT_NE(c, m);
        EXPECT_EQ(rsaDecryptRaw(pair.priv, c), m);
    }
}

TEST(Rsa, WrapUnwrapKeyCapsule)
{
    Rng rng(32);
    const auto pair = rsaGenerate(384, rng);
    const std::vector<uint8_t> des_key =
        fromHex("133457799bbcdff1");
    const auto capsule = rsaWrap(pair.pub, des_key, rng);
    const auto back = rsaUnwrap(pair.priv, capsule);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, des_key);
}

TEST(Rsa, WrongProcessorCannotUnwrap)
{
    // The core XOM property: software keyed to CPU A does not run on
    // CPU B because B's private key cannot unwrap the capsule.
    Rng rng(33);
    const auto cpu_a = rsaGenerate(384, rng);
    const auto cpu_b = rsaGenerate(384, rng);
    const std::vector<uint8_t> key = fromHex("0123456789abcdef");
    const auto capsule = rsaWrap(cpu_a.pub, key, rng);
    const auto result = rsaUnwrap(cpu_b.priv, capsule);
    if (result.has_value()) {
        EXPECT_NE(*result, key) << "capsule must not open to the key";
    }
}

TEST(Rsa, TamperedCapsuleRejectedOrGarbage)
{
    Rng rng(34);
    const auto pair = rsaGenerate(384, rng);
    const std::vector<uint8_t> key = fromHex("00112233445566778899aabb");
    auto capsule = rsaWrap(pair.pub, key, rng);
    capsule[capsule.size() / 2] ^= 0x40;
    const auto result = rsaUnwrap(pair.priv, capsule);
    if (result.has_value()) {
        EXPECT_NE(*result, key);
    }
}

TEST(Rsa, SignVerifyDigest)
{
    Rng rng(35);
    const auto pair = rsaGenerate(384, rng);
    std::vector<uint8_t> digest(32);
    rng.fillBytes(digest.data(), digest.size());

    const auto signature = rsaSignDigest(pair.priv, digest);
    EXPECT_TRUE(rsaVerifyDigest(pair.pub, digest, signature));

    // Signatures are deterministic (type-01 padding, no salt).
    EXPECT_EQ(rsaSignDigest(pair.priv, digest), signature);
}

TEST(Rsa, SignatureRejectsTampering)
{
    Rng rng(36);
    const auto pair = rsaGenerate(384, rng);
    std::vector<uint8_t> digest(32);
    rng.fillBytes(digest.data(), digest.size());
    const auto signature = rsaSignDigest(pair.priv, digest);

    auto other_digest = digest;
    other_digest[0] ^= 1;
    EXPECT_FALSE(rsaVerifyDigest(pair.pub, other_digest, signature));

    auto broken_signature = signature;
    broken_signature[7] ^= 0x20;
    EXPECT_FALSE(rsaVerifyDigest(pair.pub, digest, broken_signature));

    EXPECT_FALSE(rsaVerifyDigest(pair.pub, digest, {}));
}

TEST(Rsa, SignatureBoundToKey)
{
    Rng rng(37);
    const auto alice = rsaGenerate(384, rng);
    const auto mallory = rsaGenerate(384, rng);
    std::vector<uint8_t> digest(32);
    rng.fillBytes(digest.data(), digest.size());

    const auto signature = rsaSignDigest(mallory.priv, digest);
    EXPECT_FALSE(rsaVerifyDigest(alice.pub, digest, signature))
        << "a signature under another key must not verify";
}

// Known-answer vector generated independently with Python's pow()
// (pure-python Miller-Rabin key generation, seed 20260730): a fixed
// 1024-bit key, digest, and the expected deterministic type-01
// signature. Pins the Montgomery path to an external reference, not
// just to our own schoolbook code.
TEST(Rsa, SignKnownAnswer1024)
{
    RsaPrivateKey priv(
        BigInt::fromHex(
            "d7dcfa22c2a489ff1718d6c02f3a85c73a3aeaae980842da4005d19a"
            "cbb44304490341050cfc6092290c55271ca117f7ea23d6b1132b541a"
            "f5d58c1d9073478893db15004f46df6bedbb3fac5508e768467de0c0"
            "4ed0610087c83a57991724cff793e08f3787c1c4e0d75d9a910d86e4"
            "107d97321bdc30125bb11a49aaf6f9a3"),
        BigInt::fromHex(
            "1527e41ffa019440baebc5484a98aab9cedc2d59f52e8216cfc58238"
            "70947728f95ae7496e6f61ab917852f4255b287534ae54814046b3d4"
            "7c997445057e36d95eb7c1792e90bf4bd1db39639c09cef92875201b"
            "c01b93f24faafb1800ccb6ce986e35c67360f6bed6cab0bee1f79e24"
            "148db94904089601159f3ca236452171"));
    const RsaPublicKey pub(priv.n, BigInt(0x10001));
    const auto digest = fromHex(
        "2ecd23bd1b95c236a642ddb3f10ad2694bfc0b293c8e4b8c9b74eed1"
        "3136250f");
    const auto expected = fromHex(
        "c03a9aa161d9ef0d7ac2e0a37539247819c8ccccef92e9ef1ea6bdee"
        "3528b985c1224aaca66bf4dc493083c7be5a422584cb40bd574d0910"
        "925d9e7e9ee0a0aa9875f75c17626f03802c0871685b75575533b725"
        "ea50fcae934fe6056856097a566990f9c429ad013933a99eefa3b7f2"
        "4107fd2b5f5426a69ff89ae144b425bd");

    EXPECT_EQ(rsaSignDigest(priv, digest), expected);
    EXPECT_TRUE(rsaVerifyDigest(pub, digest, expected));

    auto wrong = digest;
    wrong[31] ^= 1;
    EXPECT_FALSE(rsaVerifyDigest(pub, wrong, expected));

    // The schoolbook engine reproduces the same signature bits.
    const size_t k = (pub.n.bitLength() + 7) / 8;
    const auto block = rsaType01Block(digest, k);
    const BigInt m = BigInt::fromBytes(block.data(), block.size());
    EXPECT_EQ(m.modExpSchoolbook(priv.d, priv.n).toBytes(k), expected);
}

TEST(Rsa, MontgomeryContextIsCachedPerKey)
{
    Rng rng(38);
    const auto pair = rsaGenerate(384, rng);
    const auto ctx = pair.priv.montCtx();
    ASSERT_NE(ctx, nullptr);
    EXPECT_EQ(pair.priv.montCtx(), ctx) << "second use must reuse";
    EXPECT_EQ(ctx->modulus(), pair.priv.n);

    // Copies start with a cold cache (so copying never races a lazy
    // init of the source) and rebuild their own context on first use.
    const RsaPrivateKey copy = pair.priv;
    const auto copy_ctx = copy.montCtx();
    ASSERT_NE(copy_ctx, nullptr);
    EXPECT_NE(copy_ctx, ctx);
    EXPECT_EQ(copy_ctx->modulus(), pair.priv.n);
    EXPECT_EQ(copy.montCtx(), copy_ctx);

    // An even (invalid) modulus yields no context rather than a bad
    // one; modExp callers fall back to the generic path.
    const RsaPublicKey even_key(BigInt(0x10000), BigInt(3));
    EXPECT_EQ(even_key.montCtx(), nullptr);
}

// Every consumer (fleet vendor, perfbench live set-up, update_tool,
// the benches) draws two key pairs from one stream, so each case
// hashes both pairs' n and d, then the stream's next draw: a change
// to how many draws a witness round or a candidate consumes moves
// the digest even when the keys happen to survive it.
struct PinnedKeys
{
    uint64_t seed;
    unsigned bits;
    const char *sha256;
};

const PinnedKeys kPinnedKeys[] = {
    // perfbench's live key seed.
    {0x5EC0A7A, 128,
     "260f06bc7519380442db2fa348690ed197cb7f78e4ca20b3c51fda9e5d8aa859"},
    {0x5EC0A7A, 384,
     "0b8dba904478835ffcd12f4bb3521172972b71f646b334b6d74ecd674d9697c0"},
    {0x5EC0A7A, 512,
     "4fb476df25f2a618e6879f60c91d00ad8d6de2519e58164021dc149e77d595ec"},
    {0x5EC0A7A, 768,
     "0eed0834841ff700986ce4b0c749ffee1d6e84d81efac3dcd810a06e1db16fe6"},
    {0x5EC0A7A, 1024,
     "b3fabd09febe1ae81ff2a578c5da3db5ae0c8422371fdc23b812c6efe89bf79e"},
    // fleet::VendorService's stream: mixSeed(0xF1EE7, 0x5E11E12).
    {0x5E9152EA3DDD5C9Eull, 128,
     "bbf9d662ed3d6244e9483be466d31439ea1834265ff5bef4627c7d397cae2483"},
    {0x5E9152EA3DDD5C9Eull, 384,
     "39e9ca4c0b756e9e0e92af8042e8ac8f3a1631bb05550dd372c51223be5c3a02"},
    {0x5E9152EA3DDD5C9Eull, 512,
     "b311809a23f260aa85c64c5fd55045e5d822adc99f375c34bf48dcb7614933ee"},
    {0x5E9152EA3DDD5C9Eull, 768,
     "a6e845f19de9336c375183885af16d14b1ce802ae32acaa13b833b221f1695d8"},
    {0x5E9152EA3DDD5C9Eull, 1024,
     "a664bbd869e3dbcb02581ad0d62099fae686c92e10a74854325c7ac2012130ec"},
    // update_tool keygen --seed=7 / --seed=8 (the CI smoke's keys).
    {7, 128,
     "25cf84eb22847ddce10c27172b0faa6dbe969ac6fe410eac85d36b3ea8e5c81b"},
    {7, 384,
     "1c5a812b2a81a4c6eff868dd5d2bf97f875b48fabf6a710e0bb956ec92d5ba56"},
    {7, 512,
     "a290e52daed20d90fa350794b820538549346024117e8d60f812f59630a26031"},
    {7, 768,
     "2f85b1418203fc7d0b44e80d40901ab26eac62394ba0e7287618ae7bca125eec"},
    {8, 128,
     "727345fc2ba5643c728e5112fb05f94569be74184258c22c479c8af166c2a548"},
    {8, 384,
     "58d2025881561fffeef678c94793931bae4929c3174576b46eee8856f9ae16b3"},
    {8, 512,
     "7cfd3ca3c6c36dda465df5a670c390d70bf3ab207728d3530e06bec9392b5056"},
    {8, 768,
     "1b14e6596f3e7800cf069172b952dfc6f3ee9fcf95c34bd2d3fe9bf512cd3921"},
};

TEST(Rsa, GeneratedKeysArePinned)
{
    for (const PinnedKeys &pin : kPinnedKeys) {
        Rng rng(pin.seed);
        Sha256 hash;
        for (int key = 0; key < 2; ++key) {
            const auto pair = rsaGenerate(pin.bits, rng);
            for (const BigInt *v : {&pair.priv.n, &pair.priv.d}) {
                const auto bytes = v->toBytes();
                hash.update(bytes.data(), bytes.size());
            }
        }
        const uint64_t next = rng.next64();
        hash.update(reinterpret_cast<const uint8_t *>(&next),
                    sizeof(next));
        uint8_t digest[Sha256::kDigestSize];
        hash.final(digest);
        EXPECT_EQ(toHex(digest, sizeof(digest)), pin.sha256)
            << "seed=0x" << std::hex << pin.seed << std::dec
            << " bits=" << pin.bits;
    }
}

// ---------------------------------------------------------- latency model

TEST(CryptoLatency, FlatLatency)
{
    CryptoEngineModel model({.latency = kPaperCryptoLatency,
                             .initiation_interval = 1});
    EXPECT_EQ(model.schedule(100), 150u);
    EXPECT_EQ(model.latency(), 50u);
}

TEST(CryptoLatency, PipelinedBackToBack)
{
    CryptoEngineModel model({.latency = kPaperCryptoLatency,
                             .initiation_interval = 1});
    // Fully pipelined engine: requests in consecutive cycles complete
    // in consecutive cycles.
    EXPECT_EQ(model.schedule(10), 60u);
    EXPECT_EQ(model.schedule(10), 61u);
    EXPECT_EQ(model.schedule(10), 62u);
    EXPECT_EQ(model.operations(), 3u);
}

TEST(CryptoLatency, NonPipelinedSerializes)
{
    CryptoEngineModel model({.latency = kPaperCryptoLatency,
                             .initiation_interval = 50});
    EXPECT_EQ(model.schedule(0), 50u);
    EXPECT_EQ(model.schedule(0), 100u);
    EXPECT_EQ(model.schedule(200), 250u);
}

TEST(CryptoLatency, ReserveOccupiesWholeOperation)
{
    CryptoEngineModel model({.latency = kPaperCryptoLatency,
                             .initiation_interval = 1});
    // A bulk reservation holds the engine for the full latency, not
    // just an issue slot.
    EXPECT_EQ(model.reserve(100), 150u);
    EXPECT_EQ(model.busyUntil(), 150u);
    // Pipelined work issued meanwhile queues behind the reservation.
    EXPECT_EQ(model.schedule(120), 200u);
    EXPECT_EQ(model.reservedOperations(), 1u);
    EXPECT_EQ(model.operations(), 2u);
}

TEST(CryptoLatency, ReserveBatchesBackToBack)
{
    CryptoEngineModel model({.latency = 10, .initiation_interval = 1});
    EXPECT_EQ(model.reserve(0, 4), 40u);
    EXPECT_EQ(model.reserve(15, 2), 60u); // queues behind the first
    EXPECT_EQ(model.reservedOperations(), 6u);
}

TEST(CryptoLatency, ResetClearsOccupancy)
{
    CryptoEngineModel model({.latency = 10, .initiation_interval = 10});
    model.schedule(0);
    model.reset();
    EXPECT_EQ(model.schedule(0), 10u);
    EXPECT_EQ(model.operations(), 1u);
}

} // namespace
