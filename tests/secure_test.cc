/**
 * @file
 * Tests for the secure layer: SNC policies and statistics, the three
 * protection engines' timing equations (the paper's core claims),
 * functional encrypt/decrypt round trips, and plan/apply coherence.
 */

#include <gtest/gtest.h>

#include "mem/memory_channel.hh"
#include "secure/engines.hh"
#include "secure/key_table.hh"
#include "secure/protection_engine.hh"
#include "secure/snc.hh"
#include "util/random.hh"

namespace
{

using namespace secproc::secure;
using secproc::mem::ChannelConfig;
using secproc::mem::MemoryChannel;
using secproc::mem::RegionKind;
using secproc::mem::Traffic;
using secproc::util::Rng;

constexpr uint32_t kLine = 128;

// -------------------------------------------------------------------- SNC

SncConfig
tinySnc(bool lru = true, uint32_t assoc = 0)
{
    SncConfig config;
    config.capacity_bytes = 16; // 8 entries
    config.bytes_per_entry = 2;
    config.assoc = assoc;
    config.allow_replacement = lru;
    config.l2_line_size = kLine;
    return config;
}

TEST(Snc, GeometryMatchesPaper)
{
    SncConfig config;
    config.capacity_bytes = 64 * 1024;
    config.bytes_per_entry = 2;
    EXPECT_EQ(config.entries(), 32u * 1024) << "64KB / 2B = 32K numbers";
    EXPECT_EQ(config.coverageBytes(), 4ull * 1024 * 1024)
        << "covering 32K L2 lines = 4MB (paper Section 5.1)";
    EXPECT_EQ(config.maxSeqnum(), 0xFFFFu);
}

TEST(Snc, QueryMissThenInstallThenHit)
{
    SequenceNumberCache snc(tinySnc());
    EXPECT_FALSE(snc.query(0x1000).has_value());
    EXPECT_EQ(snc.queryMisses(), 1u);
    const auto install = snc.install(0x1000, 5);
    EXPECT_TRUE(install.installed);
    EXPECT_TRUE(install.victims.empty());
    const auto seqnum = snc.query(0x1000);
    ASSERT_TRUE(seqnum.has_value());
    EXPECT_EQ(*seqnum, 5u);
    EXPECT_EQ(snc.queryHits(), 1u);
}

TEST(Snc, IncrementAdvancesSeqnum)
{
    SequenceNumberCache snc(tinySnc());
    snc.install(0x2000, 0);
    EXPECT_EQ(*snc.increment(0x2000), 1u);
    EXPECT_EQ(*snc.increment(0x2000), 2u);
    EXPECT_EQ(*snc.query(0x2000), 2u);
    EXPECT_EQ(snc.updateHits(), 2u);
}

TEST(Snc, IncrementMissCounts)
{
    SequenceNumberCache snc(tinySnc());
    EXPECT_FALSE(snc.increment(0x3000).has_value());
    EXPECT_EQ(snc.updateMisses(), 1u);
}

TEST(Snc, LruSpillsVictim)
{
    SequenceNumberCache snc(tinySnc()); // 8 entries, fully assoc
    for (uint64_t i = 0; i < 8; ++i)
        snc.install(i * kLine, static_cast<uint32_t>(i));
    // Touch entry 0 so entry for line 1 is LRU.
    snc.query(0);
    const auto install = snc.install(100 * kLine, 42);
    EXPECT_TRUE(install.installed);
    ASSERT_EQ(install.victims.size(), 1u);
    EXPECT_EQ(install.victims[0].line_va, 1u * kLine);
    EXPECT_EQ(install.victims[0].seqnum, 1u);
    EXPECT_EQ(snc.spills(), 1u);
}

TEST(Snc, NoReplacementRefusesWhenFull)
{
    SequenceNumberCache snc(tinySnc(/*lru=*/false));
    for (uint64_t i = 0; i < 8; ++i)
        EXPECT_TRUE(snc.install(i * kLine, 1).installed);
    EXPECT_FALSE(snc.install(99 * kLine, 1).installed);
    EXPECT_EQ(snc.rejectedInstalls(), 1u);
    // All original entries intact.
    for (uint64_t i = 0; i < 8; ++i)
        EXPECT_TRUE(snc.contains(i * kLine));
}

TEST(Snc, OverflowWrapsAndCounts)
{
    SncConfig config = tinySnc();
    config.bytes_per_entry = 1; // max seqnum 255
    SequenceNumberCache snc(config);
    snc.install(0, 255);
    EXPECT_EQ(*snc.increment(0), 1u) << "wraps to 1, not 0";
    EXPECT_EQ(snc.overflows(), 1u);
}

TEST(Snc, FlushReturnsAllEntries)
{
    SequenceNumberCache snc(tinySnc());
    snc.install(0 * kLine, 3);
    snc.install(1 * kLine, 7);
    const auto entries = snc.flush();
    EXPECT_EQ(entries.size(), 2u);
    EXPECT_EQ(snc.occupancy(), 0u);
    EXPECT_FALSE(snc.contains(0));
}

TEST(Snc, SetAssociativeConflicts)
{
    // 8 entries, 2-way -> 4 sets. Lines spaced 4 lines apart share a
    // set; the third conflicting install evicts under LRU.
    SequenceNumberCache snc(tinySnc(/*lru=*/true, /*assoc=*/2));
    snc.install(0 * 4 * kLine, 1);
    snc.install(1 * 4 * kLine, 2);
    const auto install = snc.install(2 * 4 * kLine, 3);
    EXPECT_TRUE(install.installed);
    EXPECT_FALSE(install.victims.empty())
        << "conflict in a 2-way set must spill";
    // A fully associative SNC with the same pattern has no victim.
    SequenceNumberCache full(tinySnc(/*lru=*/true, /*assoc=*/0));
    full.install(0 * 4 * kLine, 1);
    full.install(1 * 4 * kLine, 2);
    EXPECT_TRUE(full.install(2 * 4 * kLine, 3).victims.empty());
}

// -------------------------------------------------------------- key table

TEST(KeyTableValidation, AcceptsCorrectKeyLengths)
{
    KeyTable keys;
    keys.install(1, CipherKind::Des, std::vector<uint8_t>(8, 0x11));
    keys.install(2, CipherKind::TripleDes,
                 std::vector<uint8_t>(24, 0x22));
    keys.install(3, CipherKind::Aes128,
                 std::vector<uint8_t>(16, 0x33));
    EXPECT_EQ(keys.size(), 3u);
    EXPECT_NE(keys.cipher(1), nullptr);
    EXPECT_NE(keys.cipher(2), nullptr);
    EXPECT_NE(keys.cipher(3), nullptr);
}

TEST(KeyTableValidation, RejectsMalformedKeyLengths)
{
    // A key of the wrong length (e.g. a truncated RSA capsule
    // payload) must die at the boundary, not build a bad cipher.
    KeyTable keys;
    EXPECT_EXIT(keys.install(1, CipherKind::Des,
                             std::vector<uint8_t>(7, 0x11)),
                ::testing::ExitedWithCode(1), "needs 8");
    EXPECT_EXIT(keys.install(1, CipherKind::Des,
                             std::vector<uint8_t>(16, 0x11)),
                ::testing::ExitedWithCode(1), "needs 8");
    EXPECT_EXIT(keys.install(1, CipherKind::TripleDes,
                             std::vector<uint8_t>(8, 0x11)),
                ::testing::ExitedWithCode(1), "needs 24");
    EXPECT_EXIT(keys.install(1, CipherKind::Aes128,
                             std::vector<uint8_t>(0)),
                ::testing::ExitedWithCode(1), "needs 16");
}

TEST(KeyTableValidation, RejectsReservedNullCompartment)
{
    KeyTable keys;
    EXPECT_EXIT(keys.install(0, CipherKind::Des,
                             std::vector<uint8_t>(8, 0x11)),
                ::testing::ExitedWithCode(1), "reserved");
}

// ---------------------------------------------------------------- engines

struct EngineHarness
{
    MemoryChannel channel;
    KeyTable keys;
    std::unique_ptr<ProtectionEngine> engine;

    explicit EngineHarness(SecurityModel model,
                           bool allow_replacement = true,
                           uint32_t crypto_latency =
                               secproc::crypto::kPaperCryptoLatency)
        : channel(ChannelConfig{})
    {
        keys.install(1, CipherKind::Des,
                     {0x13, 0x34, 0x57, 0x79, 0x9B, 0xBC, 0xCD, 0xFF});
        ProtectionConfig config;
        config.model = model;
        config.crypto.latency = crypto_latency;
        config.line_size = kLine;
        config.snc.l2_line_size = kLine;
        config.snc.capacity_bytes = 1024; // 512 entries
        config.snc.allow_replacement = allow_replacement;
        engine = makeProtectionEngine(config, channel, keys);
    }
};

// The paper's headline timing equations, stated as exact tests
// (100-cycle memory, 16-cycle transfer already inside the 100,
// 50-cycle crypto, 1-cycle XOR):

TEST(EngineTiming, BaselineFillIsMemoryLatency)
{
    EngineHarness h(SecurityModel::Baseline);
    const auto result =
        h.engine->lineFill(0x1000 * kLine, 0, false,
                           RegionKind::Protected);
    EXPECT_EQ(result.ready_cycle, 100u);
}

TEST(EngineTiming, XomFillSerializesCrypto)
{
    EngineHarness h(SecurityModel::Xom);
    // Make the line encrypted first (evict it once).
    h.engine->lineEvict(0x1000 * kLine, 0, RegionKind::Protected);
    const auto result = h.engine->lineFill(0x1000 * kLine, 1000, false,
                                           RegionKind::Protected);
    EXPECT_EQ(result.ready_cycle, 1000u + 100 + 50)
        << "XOM: memory + crypto (paper Section 3.1)";
}

TEST(EngineTiming, XomInstructionFetchAlsoPaysCrypto)
{
    EngineHarness h(SecurityModel::Xom);
    const auto result = h.engine->lineFill(0x4000 * kLine, 0, true,
                                           RegionKind::Protected);
    EXPECT_EQ(result.ready_cycle, 150u);
}

TEST(EngineTiming, OtpInstructionFetchIsFast)
{
    EngineHarness h(SecurityModel::OtpSnc);
    const auto result = h.engine->lineFill(0x4000 * kLine, 0, true,
                                           RegionKind::Protected);
    EXPECT_EQ(result.ready_cycle, 101u)
        << "max(100, 50) + 1 (paper Section 3.2)";
    EXPECT_TRUE(result.fast_path);
}

TEST(EngineTiming, OtpQueryHitIsFast)
{
    EngineHarness h(SecurityModel::OtpSnc);
    // Write the line back once so it is OTP-encrypted with its
    // seqnum resident in the SNC.
    h.engine->lineEvict(0x2000 * kLine, 0, RegionKind::Protected);
    const auto result = h.engine->lineFill(0x2000 * kLine, 5000, false,
                                           RegionKind::Protected);
    EXPECT_EQ(result.ready_cycle, 5000u + 101);
    EXPECT_TRUE(result.fast_path);
    EXPECT_FALSE(result.snc_query_miss);
}

TEST(EngineTiming, OtpSlowCryptoStillFastPath)
{
    // Figure 10's central claim: with a 102-cycle crypto unit the
    // OTP fill costs max(100, 102) + 1 = 103, not 202.
    EngineHarness h(SecurityModel::OtpSnc, true, /*crypto=*/102);
    h.engine->lineEvict(0x2000 * kLine, 0, RegionKind::Protected);
    const auto result = h.engine->lineFill(0x2000 * kLine, 5000, false,
                                           RegionKind::Protected);
    EXPECT_EQ(result.ready_cycle, 5000u + 102 + 1);

    EngineHarness x(SecurityModel::Xom, true, /*crypto=*/102);
    x.engine->lineEvict(0x2000 * kLine, 0, RegionKind::Protected);
    const auto xom = x.engine->lineFill(0x2000 * kLine, 5000, false,
                                        RegionKind::Protected);
    EXPECT_EQ(xom.ready_cycle, 5000u + 100 + 102);
}

TEST(EngineTiming, OtpQueryMissPaysSeqnumFetch)
{
    EngineHarness h(SecurityModel::OtpSnc);
    auto *otp = dynamic_cast<OtpEngine *>(h.engine.get());
    ASSERT_NE(otp, nullptr);

    // Fill the 512-entry SNC with other lines to evict our target.
    h.engine->lineEvict(0x9000 * kLine, 0, RegionKind::Protected);
    for (uint64_t i = 1; i <= 512; ++i)
        h.engine->lineEvict((0x9000 + i) * kLine, 0,
                            RegionKind::Protected);
    EXPECT_FALSE(otp->snc().contains(0x9000 * kLine));

    const uint64_t start = 100000;
    const auto result = h.engine->lineFill(0x9000 * kLine, start, false,
                                           RegionKind::Protected);
    EXPECT_TRUE(result.snc_query_miss);
    // Serial policy (Algorithm 1): seqnum fetch (100) + decrypt (50),
    // then line fetch (100) overlapping pad generation (50), + XOR.
    EXPECT_EQ(result.ready_cycle, start + 100 + 50 + 100 + 1);
}

TEST(EngineTiming, OtpNoReplacementFallsBackToXomPath)
{
    EngineHarness h(SecurityModel::OtpSnc, /*allow_replacement=*/false);
    // Exhaust the 512 SNC entries.
    for (uint64_t i = 0; i < 512; ++i)
        h.engine->lineEvict(i * kLine, 0, RegionKind::Protected);
    // This line misses the full SNC: it is direct-encrypted.
    h.engine->lineEvict(0x9000 * kLine, 0, RegionKind::Protected);

    const uint64_t start = 100000;
    const auto result = h.engine->lineFill(0x9000 * kLine, start, false,
                                           RegionKind::Protected);
    EXPECT_EQ(result.ready_cycle, start + 100 + 50)
        << "no-replacement overflow lines take the XOM path";

    // A line that did get an entry stays on the fast path.
    const auto fast = h.engine->lineFill(0 * kLine, start + 1000, false,
                                         RegionKind::Protected);
    EXPECT_EQ(fast.ready_cycle, start + 1000 + 101);
}

TEST(EngineTiming, UnwrittenLinesFillPlain)
{
    for (SecurityModel model :
         {SecurityModel::Baseline, SecurityModel::Xom,
          SecurityModel::OtpSnc}) {
        EngineHarness h(model);
        const auto result = h.engine->lineFill(
            0x7777 * kLine, 0, false, RegionKind::Protected);
        EXPECT_EQ(result.ready_cycle, 100u)
            << "first touch (OS zero-fill) is plain under "
            << h.engine->name();
    }
}

TEST(EngineTiming, PlaintextRegionSkipsCrypto)
{
    EngineHarness h(SecurityModel::OtpSnc);
    h.engine->lineEvict(0x100 * kLine, 0, RegionKind::Plaintext);
    const auto result = h.engine->lineFill(0x100 * kLine, 1000, false,
                                           RegionKind::Plaintext);
    EXPECT_EQ(result.ready_cycle, 1100u);
    EXPECT_EQ(h.engine->plainFills(), 1u);
}

TEST(EngineTiming, SharedRegionUsesDirectEncryption)
{
    EngineHarness h(SecurityModel::OtpSnc);
    h.engine->lineEvict(0x200 * kLine, 0, RegionKind::Shared);
    const auto result = h.engine->lineFill(0x200 * kLine, 1000, false,
                                           RegionKind::Shared);
    EXPECT_EQ(result.ready_cycle, 1000u + 150)
        << "synonym data is excluded from OTP (paper Section 4)";
}

TEST(EngineTraffic, SeqnumSpillsAreAccounted)
{
    EngineHarness h(SecurityModel::OtpSnc);
    // 512-entry SNC; 600 distinct dirty lines force 88 spills.
    for (uint64_t i = 0; i < 600; ++i)
        h.engine->lineEvict((0x100 + i) * kLine, i * 10,
                            RegionKind::Protected);
    EXPECT_EQ(h.channel.transactions(Traffic::SeqnumWriteback), 88u);
    EXPECT_GT(h.channel.seqnumBytes(), 0u);
}

// ------------------------------------------------ functional round trips

TEST(EngineFunctional, OtpEncryptDecryptRoundTrip)
{
    EngineHarness h(SecurityModel::OtpSnc);
    Rng rng(42);
    std::vector<uint8_t> plain(kLine);
    rng.fillBytes(plain.data(), plain.size());

    const uint64_t line_va = 0x5000 * kLine;
    auto image = plain;
    h.engine->encryptLine(line_va, RegionKind::Protected, image);
    EXPECT_NE(image, plain) << "memory image must be ciphertext";

    h.engine->decryptLine(line_va, false, RegionKind::Protected, image);
    EXPECT_EQ(image, plain);
}

TEST(EngineFunctional, OtpSeqnumAdvanceChangesCiphertext)
{
    EngineHarness h(SecurityModel::OtpSnc);
    std::vector<uint8_t> plain(kLine, 0x77);
    const uint64_t line_va = 0x6000 * kLine;

    auto first = plain;
    h.engine->encryptLine(line_va, RegionKind::Protected, first);
    auto second = plain;
    h.engine->encryptLine(line_va, RegionKind::Protected, second);
    EXPECT_NE(first, second)
        << "same data, same address, different write -> different "
           "ciphertext (the paper's Section 3.4 requirement)";
    // And the latest image still decrypts correctly.
    h.engine->decryptLine(line_va, false, RegionKind::Protected, second);
    EXPECT_EQ(second, plain);
}

TEST(EngineFunctional, XomSameDataSameCiphertext)
{
    // The XOM weakness the paper points out: equal plaintext at the
    // same location re-encrypts identically.
    EngineHarness h(SecurityModel::Xom);
    std::vector<uint8_t> plain(kLine, 0x42);
    const uint64_t line_va = 0x6000 * kLine;
    auto first = plain;
    h.engine->encryptLine(line_va, RegionKind::Protected, first);
    auto second = plain;
    h.engine->encryptLine(line_va, RegionKind::Protected, second);
    EXPECT_EQ(first, second);
}

TEST(EngineFunctional, XomRoundTrip)
{
    EngineHarness h(SecurityModel::Xom);
    Rng rng(43);
    std::vector<uint8_t> plain(kLine);
    rng.fillBytes(plain.data(), plain.size());
    const uint64_t line_va = 0x5100 * kLine;
    auto image = plain;
    h.engine->encryptLine(line_va, RegionKind::Protected, image);
    EXPECT_NE(image, plain);
    h.engine->decryptLine(line_va, false, RegionKind::Protected, image);
    EXPECT_EQ(image, plain);
}

TEST(EngineFunctional, InstructionDecryptionUsesVaSeed)
{
    // The loader encrypts text with seqnum 0 seeds; an ifetch plan
    // must reproduce the identical pad.
    EngineHarness h(SecurityModel::OtpSnc);
    Rng rng(44);
    std::vector<uint8_t> text(kLine);
    rng.fillBytes(text.data(), text.size());
    const uint64_t line_va = 0x400000;

    // Vendor side: OTP with seed(line, 0).
    auto image = text;
    h.engine->applyEvict(
        [&] {
            EvictPlan plan;
            plan.line_va = line_va;
            plan.state = LineCipherState::Otp;
            plan.seqnum = 0;
            return plan;
        }(),
        image);
    EXPECT_NE(image, text);

    // Processor side: ifetch fill.
    h.engine->decryptLine(line_va, /*ifetch=*/true,
                          RegionKind::Protected, image);
    EXPECT_EQ(image, text);
}

TEST(EngineFunctional, CompartmentKeysIsolatePrograms)
{
    EngineHarness h(SecurityModel::OtpSnc);
    h.keys.install(2, CipherKind::Des,
                   {0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF});
    std::vector<uint8_t> plain(kLine, 0x5A);
    const uint64_t line_va = 0x8000 * kLine;

    auto image = plain;
    h.engine->encryptLine(line_va, RegionKind::Protected, image);

    // Another compartment reading the same image decodes garbage.
    h.engine->setCompartment(2);
    auto stolen = image;
    // Direct apply with the same plan shape but the wrong key.
    FillPlan plan;
    plan.line_va = line_va;
    plan.state = LineCipherState::Otp;
    plan.seqnum = 1;
    h.engine->applyFill(plan, stolen);
    EXPECT_NE(stolen, plain)
        << "program data must not decrypt under another compartment";
}

TEST(EngineState, LineStateTransitions)
{
    EngineHarness h(SecurityModel::OtpSnc);
    const uint64_t line_va = 0xA000 * kLine;
    EXPECT_EQ(h.engine->lineState(line_va), LineCipherState::Unwritten);
    h.engine->lineEvict(line_va, 0, RegionKind::Protected);
    EXPECT_EQ(h.engine->lineState(line_va), LineCipherState::Otp);

    EngineHarness x(SecurityModel::Xom);
    x.engine->lineEvict(line_va, 0, RegionKind::Protected);
    EXPECT_EQ(x.engine->lineState(line_va), LineCipherState::Direct);
}

TEST(EngineState, ResetClearsEverything)
{
    EngineHarness h(SecurityModel::OtpSnc);
    auto *otp = dynamic_cast<OtpEngine *>(h.engine.get());
    h.engine->lineEvict(0xB000 * kLine, 0, RegionKind::Protected);
    EXPECT_EQ(otp->snc().occupancy(), 1u);
    h.engine->reset();
    EXPECT_EQ(otp->snc().occupancy(), 0u);
    EXPECT_EQ(h.engine->lineState(0xB000 * kLine),
              LineCipherState::Unwritten);
}

TEST(EngineState, FlushSncSpillsToMemoryTable)
{
    EngineHarness h(SecurityModel::OtpSnc);
    auto *otp = dynamic_cast<OtpEngine *>(h.engine.get());
    h.engine->lineEvict(0xC000 * kLine, 0, RegionKind::Protected);
    EXPECT_EQ(otp->flushSnc(100), 1u);
    EXPECT_EQ(otp->snc().occupancy(), 0u);

    // The line is still decryptable: query miss fetches the spilled
    // sequence number from the in-memory table.
    const auto result = h.engine->lineFill(0xC000 * kLine, 1000, false,
                                           RegionKind::Protected);
    EXPECT_TRUE(result.snc_query_miss);
    EXPECT_EQ(result.ready_cycle, 1000u + 251);
}

} // namespace
