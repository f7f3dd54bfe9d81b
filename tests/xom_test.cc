/**
 * @file
 * Tests for the software-protection toolchain: image serialization,
 * the vendor -> processor flow (the paper's Section 2 lifecycle),
 * the secure loader, and the attack suite — including the paper's
 * security arguments as executable checks.
 */

#include <gtest/gtest.h>

#include "crypto/rsa.hh"
#include "crypto/sha.hh"
#include "mem/main_memory.hh"
#include "mem/virtual_memory.hh"
#include "secure/engines.hh"
#include "secure/integrity.hh"
#include "secure/key_table.hh"
#include "util/bitops.hh"
#include "xom/attack_sim.hh"
#include "xom/program_image.hh"
#include "xom/secure_loader.hh"
#include "xom/vendor_tool.hh"

namespace
{

using namespace secproc;
using namespace secproc::xom;

constexpr uint32_t kLine = 128;

/** A complete simulated platform: one processor + its loader. */
struct Platform
{
    util::Rng rng;
    crypto::RsaKeyPair processor;
    mem::MainMemory memory;
    mem::VirtualMemory vm;
    secure::KeyTable keys;
    mem::MemoryChannel channel;
    std::unique_ptr<secure::ProtectionEngine> engine;
    std::unique_ptr<SecureLoader> loader;

    explicit Platform(uint64_t seed,
                      secure::SecurityModel model =
                          secure::SecurityModel::OtpSnc)
        : rng(seed)
    {
        processor = crypto::rsaGenerate(384, rng);
        secure::ProtectionConfig config;
        config.model = model;
        config.line_size = kLine;
        config.snc.l2_line_size = kLine;
        engine = secure::makeProtectionEngine(config, channel, keys);
        loader = std::make_unique<SecureLoader>(processor.priv, keys);
    }
};

PlainProgram
demoProgram(util::Rng &rng)
{
    PlainProgram program;
    program.title = "demo";
    program.entry_point = 0x400000;

    PlainProgram::PlainSection text;
    text.name = ".text";
    text.vaddr = 0x400000;
    text.bytes.resize(4 * kLine);
    rng.fillBytes(text.bytes.data(), text.bytes.size());

    PlainProgram::PlainSection data;
    data.name = ".data";
    data.vaddr = 0x600000;
    data.bytes.resize(2 * kLine);
    rng.fillBytes(data.bytes.data(), data.bytes.size());

    PlainProgram::PlainSection lib;
    lib.name = ".sharedlib";
    lib.vaddr = 0x7000000;
    lib.bytes.resize(kLine);
    rng.fillBytes(lib.bytes.data(), lib.bytes.size());
    lib.shared = true;

    program.sections = {text, data, lib};
    return program;
}

// ------------------------------------------------------------- image I/O

TEST(ProgramImage, SerializeRoundTrip)
{
    util::Rng rng(1);
    Platform platform(2);
    const ProgramImage image =
        vendorProtect(demoProgram(rng), VendorScheme::Otp,
                      secure::CipherKind::Des, platform.processor.pub,
                      rng, kLine);

    const auto bytes = image.serialize();
    const std::optional<ProgramImage> parsed =
        ProgramImage::tryDeserialize(bytes);
    ASSERT_TRUE(parsed.has_value());
    const ProgramImage &back = *parsed;
    EXPECT_EQ(back.title, image.title);
    EXPECT_EQ(back.entry_point, image.entry_point);
    EXPECT_EQ(back.key_capsule, image.key_capsule);
    ASSERT_EQ(back.sections.size(), image.sections.size());
    for (size_t i = 0; i < image.sections.size(); ++i) {
        EXPECT_EQ(back.sections[i].name, image.sections[i].name);
        EXPECT_EQ(back.sections[i].vaddr, image.sections[i].vaddr);
        EXPECT_EQ(back.sections[i].bytes, image.sections[i].bytes);
    }
}

TEST(ProgramImage, VendorEncryptsProtectedSectionsOnly)
{
    util::Rng rng(3);
    Platform platform(4);
    const PlainProgram plain = demoProgram(rng);
    const ProgramImage image =
        vendorProtect(plain, VendorScheme::Otp,
                      secure::CipherKind::Des, platform.processor.pub,
                      rng, kLine);

    EXPECT_NE(image.sections[0].bytes, plain.sections[0].bytes)
        << "text must be ciphertext";
    EXPECT_NE(image.sections[1].bytes, plain.sections[1].bytes)
        << "data must be ciphertext";
    EXPECT_EQ(image.sections[2].bytes, plain.sections[2].bytes)
        << "shared library stays plaintext (paper Section 4.3)";
}

// ---------------------------------------------------- vendor -> processor

TEST(Lifecycle, LoadAndFetchRoundTrip)
{
    util::Rng rng(5);
    Platform platform(6);
    const PlainProgram plain = demoProgram(rng);
    const ProgramImage image =
        vendorProtect(plain, VendorScheme::Otp,
                      secure::CipherKind::Des, platform.processor.pub,
                      rng, kLine);

    const LoadResult result = platform.loader->load(
        image, 1, platform.memory, platform.vm, 1, *platform.engine);
    ASSERT_TRUE(result.success) << result.error;
    EXPECT_EQ(result.entry_point, 0x400000u);

    // Instruction fetch decrypts the first text line back to the
    // plaintext the vendor started from.
    const auto line = platform.loader->fetchLine(
        0x400000, platform.memory, platform.vm, 1, *platform.engine,
        /*ifetch=*/true);
    const std::vector<uint8_t> expected(
        plain.sections[0].bytes.begin(),
        plain.sections[0].bytes.begin() + kLine);
    EXPECT_EQ(line, expected);

    // Data fetch decrypts the initialized data.
    const auto data_line = platform.loader->fetchLine(
        0x600000, platform.memory, platform.vm, 1, *platform.engine,
        /*ifetch=*/false);
    const std::vector<uint8_t> expected_data(
        plain.sections[1].bytes.begin(),
        plain.sections[1].bytes.begin() + kLine);
    EXPECT_EQ(data_line, expected_data);

    // Plaintext shared library reads back unchanged.
    const auto lib_line = platform.loader->fetchLine(
        0x7000000, platform.memory, platform.vm, 1, *platform.engine,
        /*ifetch=*/false);
    EXPECT_EQ(lib_line, plain.sections[2].bytes);
}

TEST(Lifecycle, WrongProcessorCannotLoad)
{
    // The anti-piracy core of XOM: an image keyed to processor A
    // fails to load on processor B.
    util::Rng rng(7);
    Platform processor_a(8);
    Platform processor_b(9);
    const ProgramImage image =
        vendorProtect(demoProgram(rng), VendorScheme::Otp,
                      secure::CipherKind::Des,
                      processor_a.processor.pub, rng, kLine);

    const LoadResult result = processor_b.loader->load(
        image, 1, processor_b.memory, processor_b.vm, 1,
        *processor_b.engine);
    EXPECT_FALSE(result.success);
    EXPECT_FALSE(result.error.empty());
}

TEST(Lifecycle, TamperedCapsuleRejected)
{
    util::Rng rng(10);
    Platform platform(11);
    ProgramImage image =
        vendorProtect(demoProgram(rng), VendorScheme::Otp,
                      secure::CipherKind::Des, platform.processor.pub,
                      rng, kLine);
    image.key_capsule[4] ^= 0x80;
    const LoadResult result = platform.loader->load(
        image, 1, platform.memory, platform.vm, 1, *platform.engine);
    EXPECT_FALSE(result.success);
}

TEST(Lifecycle, XomSchemeAlsoRoundTrips)
{
    util::Rng rng(12);
    Platform platform(13, secure::SecurityModel::Xom);
    const PlainProgram plain = demoProgram(rng);
    const ProgramImage image =
        vendorProtect(plain, VendorScheme::Xom,
                      secure::CipherKind::Des, platform.processor.pub,
                      rng, kLine);
    const LoadResult result = platform.loader->load(
        image, 1, platform.memory, platform.vm, 1, *platform.engine);
    ASSERT_TRUE(result.success) << result.error;
    const auto line = platform.loader->fetchLine(
        0x400000, platform.memory, platform.vm, 1, *platform.engine,
        /*ifetch=*/true);
    const std::vector<uint8_t> expected(
        plain.sections[0].bytes.begin(),
        plain.sections[0].bytes.begin() + kLine);
    EXPECT_EQ(line, expected);
}

TEST(Lifecycle, AesImagesSupported)
{
    util::Rng rng(14);
    Platform platform(15);
    const PlainProgram plain = demoProgram(rng);
    const ProgramImage image =
        vendorProtect(plain, VendorScheme::Otp,
                      secure::CipherKind::Aes128,
                      platform.processor.pub, rng, kLine);
    const LoadResult result = platform.loader->load(
        image, 1, platform.memory, platform.vm, 1, *platform.engine);
    ASSERT_TRUE(result.success) << result.error;
    const auto line = platform.loader->fetchLine(
        0x400000, platform.memory, platform.vm, 1, *platform.engine,
        true);
    EXPECT_EQ(line, std::vector<uint8_t>(
                        plain.sections[0].bytes.begin(),
                        plain.sections[0].bytes.begin() + kLine));
}

TEST(Lifecycle, VendorSeedMatchesEngineSeed)
{
    // The vendor must pre-compute exactly the pads the processor
    // regenerates; this pins the seed layout contract.
    EXPECT_EQ(vendorSeed(0x400000, 0, 128),
              (uint64_t{0x400000 / 128} << 24));
    EXPECT_EQ(vendorSeed(0x400000, 7, 128),
              (uint64_t{0x400000 / 128} << 24) | (7u << 8));
}

/** First eight bytes of SHA-256 over the serialized image. */
uint64_t
imageHash(const ProgramImage &image)
{
    const std::vector<uint8_t> bytes = image.serialize();
    return util::loadBe64(
        crypto::Sha256::digest(bytes.data(), bytes.size()).data());
}

/**
 * Sections whose line counts straddle every batch edge of the
 * vendor's pad staging: one line, a 4 KB page minus and plus one
 * line, 2 MB plus three lines, and a ragged tail the vendor pads
 * with zeros — each at its own vaddr.
 */
PlainProgram
pinnedProgram(uint32_t line_size)
{
    util::Rng rng(0x7E57 + line_size);
    PlainProgram program;
    program.title = "pinned";
    program.entry_point = 0x10000;
    const std::pair<uint64_t, uint64_t> layout[] = {
        {0x10000, line_size},
        {0x20000, 4096 - line_size},
        {0x40000, 4096 + line_size},
        {0x1000000, (2u << 20) + 3 * line_size},
        {0x3000000, 1000},
    };
    for (const auto &[vaddr, size] : layout) {
        PlainProgram::PlainSection section;
        section.name = ".s" + std::to_string(program.sections.size());
        section.vaddr = vaddr;
        section.bytes.resize(size);
        rng.fillBytes(section.bytes.data(), section.bytes.size());
        program.sections.push_back(std::move(section));
    }
    return program;
}

/**
 * The vendor's ciphertext, byte for byte: every cipher, both
 * schemes, both line sizes. Pad generation may be restructured
 * freely, but these images are what devices already hold.
 */
TEST(VendorImage, BytesArePinned)
{
    util::Rng key_rng(0x9E7);
    const crypto::RsaKeyPair processor =
        crypto::rsaGenerate(384, key_rng);

    struct Case
    {
        secure::CipherKind cipher;
        VendorScheme scheme;
        uint32_t line_size;
        uint64_t want;
    };
    const Case cases[] = {
        {secure::CipherKind::Des, VendorScheme::Otp, 64,
         0xb8506a51b5636128},
        {secure::CipherKind::Des, VendorScheme::Otp, 128,
         0x0d55d5cca0c424e4},
        {secure::CipherKind::Des, VendorScheme::Xom, 64,
         0x72900d7c4d05c855},
        {secure::CipherKind::Des, VendorScheme::Xom, 128,
         0x4eab8007e344f383},
        {secure::CipherKind::TripleDes, VendorScheme::Otp, 64,
         0x5d5ce805aa754cc8},
        {secure::CipherKind::TripleDes, VendorScheme::Otp, 128,
         0x734c7aa85b7b6dcf},
        {secure::CipherKind::TripleDes, VendorScheme::Xom, 64,
         0x1727bb660aa68a96},
        {secure::CipherKind::TripleDes, VendorScheme::Xom, 128,
         0x5d4bac141d7651c1},
        {secure::CipherKind::Aes128, VendorScheme::Otp, 64,
         0x22298c2214d40012},
        {secure::CipherKind::Aes128, VendorScheme::Otp, 128,
         0x58a43e9f1ddb0c43},
        {secure::CipherKind::Aes128, VendorScheme::Xom, 64,
         0x18f804db4212ace5},
        {secure::CipherKind::Aes128, VendorScheme::Xom, 128,
         0x9165d8a96ec4ab84},
    };
    for (const Case &c : cases) {
        util::Rng rng(0x5EC7 + c.line_size);
        const ProgramImage image =
            vendorProtect(pinnedProgram(c.line_size), c.scheme,
                          c.cipher, processor.pub, rng, c.line_size);
        EXPECT_EQ(imageHash(image), c.want)
            << "cipher " << static_cast<int>(c.cipher) << " "
            << (c.scheme == VendorScheme::Otp ? "Otp" : "Xom")
            << " line " << c.line_size << std::hex << " got 0x"
            << imageHash(image);
    }
}

/**
 * A line size the pad arithmetic cannot split evenly is refused at
 * entry: not a power of two (alignUp() would leave a 96-byte line
 * hanging past its section's end), zero (a divide by zero), or
 * narrower than the cipher block (8 bytes under AES-128).
 */
TEST(VendorImageDeathTest, RejectsUnusableLineSizes)
{
    util::Rng key_rng(0x9E7);
    const crypto::RsaKeyPair processor =
        crypto::rsaGenerate(384, key_rng);
    PlainProgram program;
    program.sections.push_back({".text", 0, std::vector<uint8_t>(1024),
                                false});
    const auto protect = [&](secure::CipherKind cipher,
                             uint32_t line_size) {
        util::Rng rng(1);
        (void)vendorProtect(program, VendorScheme::Otp, cipher,
                            processor.pub, rng, line_size);
    };
    EXPECT_DEATH_IF_SUPPORTED(protect(secure::CipherKind::Des, 96),
                              "line size 96");
    EXPECT_DEATH_IF_SUPPORTED(protect(secure::CipherKind::Des, 0),
                              "line size 0");
    EXPECT_DEATH_IF_SUPPORTED(protect(secure::CipherKind::Aes128, 8),
                              "line size 8");
}

// ----------------------------------------------------------------- attacks

struct AttackRig
{
    Platform platform;
    mem::Asid asid = 1;

    explicit AttackRig(uint64_t seed,
                       secure::SecurityModel model =
                           secure::SecurityModel::OtpSnc)
        : platform(seed, model)
    {
        platform.keys.install(
            1, secure::CipherKind::Des,
            {0x13, 0x34, 0x57, 0x79, 0x9B, 0xBC, 0xCD, 0xFF});
    }
};

TEST(Attacks, SplicingDefeatedByOtp)
{
    AttackRig rig(20);
    const auto outcome = splicingAttack(
        *rig.platform.engine, rig.platform.memory, rig.platform.vm,
        rig.asid, 0x10000, 0x20000);
    EXPECT_FALSE(outcome.succeeded) << outcome.detail;
}

TEST(Attacks, SplicingSucceedsAgainstEcbXom)
{
    // The paper's Section 3.4 motivation: under direct encryption,
    // ciphertext is position-independent, so splicing transplants
    // valid plaintext.
    AttackRig rig(21, secure::SecurityModel::Xom);
    const auto outcome = splicingAttack(
        *rig.platform.engine, rig.platform.memory, rig.platform.vm,
        rig.asid, 0x10000, 0x20000);
    EXPECT_TRUE(outcome.succeeded) << outcome.detail;
}

TEST(Attacks, ReplayCorruptedByFreshSeqnum)
{
    AttackRig rig(22);
    const auto outcome = replayAttack(
        *rig.platform.engine, rig.platform.memory, rig.platform.vm,
        rig.asid, 0x30000);
    EXPECT_FALSE(outcome.succeeded) << outcome.detail;
}

TEST(Attacks, ReplaySucceedsAgainstXom)
{
    // Without sequence numbers, restoring stale ciphertext restores
    // stale plaintext undetected (the replay attack the paper defers
    // to Gassend et al.).
    AttackRig rig(23, secure::SecurityModel::Xom);
    const auto outcome = replayAttack(
        *rig.platform.engine, rig.platform.memory, rig.platform.vm,
        rig.asid, 0x30000);
    EXPECT_TRUE(outcome.succeeded) << outcome.detail;
}

TEST(Attacks, SpoofingCorruptsSilentlyWithoutIntegrity)
{
    AttackRig rig(24);
    const auto outcome = spoofingAttack(
        *rig.platform.engine, rig.platform.memory, rig.platform.vm,
        rig.asid, 0x40000);
    EXPECT_FALSE(outcome.succeeded)
        << "corruption must change the plaintext";
}

TEST(Attacks, PatternLeakEcbVsOtp)
{
    // A memory full of repeated values: ECB leaks the repetition,
    // OTP does not (paper Section 3.4).
    AttackRig otp_rig(25);
    AttackRig xom_rig(26, secure::SecurityModel::Xom);

    const std::vector<uint8_t> repeated(kLine, 0x00);
    for (uint64_t i = 0; i < 16; ++i) {
        const uint64_t line_va = 0x50000 + i * kLine;
        for (AttackRig *rig : {&otp_rig, &xom_rig}) {
            auto bytes = repeated;
            rig->platform.engine->encryptLine(
                line_va, mem::RegionKind::Protected, bytes);
            rig->platform.memory.write(
                rig->platform.vm.translate(rig->asid, line_va),
                bytes.data(), bytes.size());
        }
    }
    const uint64_t xom_repeats = patternLeak(
        xom_rig.platform.memory,
        xom_rig.platform.vm.translate(xom_rig.asid, 0x50000) , 0, 8);
    (void)xom_repeats;

    // Compare across the whole region (contiguous physical pages).
    uint64_t otp_leak = 0, xom_leak = 0;
    for (uint64_t i = 0; i < 16; ++i) {
        const uint64_t line_va = 0x50000 + i * kLine;
        otp_leak += patternLeak(
            otp_rig.platform.memory,
            otp_rig.platform.vm.translate(otp_rig.asid, line_va),
            kLine, 8);
        xom_leak += patternLeak(
            xom_rig.platform.memory,
            xom_rig.platform.vm.translate(xom_rig.asid, line_va),
            kLine, 8);
    }
    EXPECT_EQ(otp_leak, 0u) << "OTP ciphertext must have no repeats";
    EXPECT_GT(xom_leak, 200u)
        << "ECB of a zero-filled region repeats massively";
}

// ------------------------------------------------- integrity composition

TEST(Integrity, MacDetectsSpoofing)
{
    secure::IntegrityConfig config;
    config.mode = secure::IntegrityMode::MacBlocking;
    secure::IntegrityEngine integrity(config);
    integrity.setMacKey({0x01, 0x02, 0x03, 0x04});

    std::vector<uint8_t> ciphertext(kLine, 0x77);
    integrity.storeMac(0x1000,
                       integrity.computeMac(0x1000, 3, ciphertext));
    EXPECT_TRUE(integrity.verifyMac(0x1000, 3, ciphertext));

    ciphertext[5] ^= 1;
    EXPECT_FALSE(integrity.verifyMac(0x1000, 3, ciphertext))
        << "one flipped ciphertext bit must be detected";
}

TEST(Integrity, MacDetectsReplayViaSeqnum)
{
    // Stale ciphertext + stale MAC still fail because the verifier
    // uses the *current* sequence number from inside the boundary.
    secure::IntegrityConfig config;
    config.mode = secure::IntegrityMode::MacBlocking;
    secure::IntegrityEngine integrity(config);
    integrity.setMacKey({0xAA, 0xBB});

    const std::vector<uint8_t> v1(kLine, 0x11);
    const auto stale_mac = integrity.computeMac(0x2000, 1, v1);
    integrity.storeMac(0x2000, stale_mac);

    // Program writes v2 with seqnum 2.
    const std::vector<uint8_t> v2(kLine, 0x22);
    integrity.storeMac(0x2000, integrity.computeMac(0x2000, 2, v2));

    // Adversary restores stale data AND stale MAC.
    integrity.corruptStoredMac(0x2000, stale_mac);
    EXPECT_FALSE(integrity.verifyMac(0x2000, 2, v1))
        << "verification against seqnum 2 rejects the seqnum-1 pair";
}

TEST(Integrity, MacDetectsSplicing)
{
    secure::IntegrityConfig config;
    config.mode = secure::IntegrityMode::MacBlocking;
    secure::IntegrityEngine integrity(config);
    integrity.setMacKey({0x42});

    const std::vector<uint8_t> line_a(kLine, 0xA0);
    integrity.storeMac(0xA000, integrity.computeMac(0xA000, 1, line_a));
    // Copy A's data and MAC to address B: address binding fails.
    integrity.storeMac(0xB000, *integrity.storedMac(0xA000));
    EXPECT_FALSE(integrity.verifyMac(0xB000, 1, line_a));
}

TEST(Integrity, TimingModesOrdering)
{
    mem::MemoryChannel channel;
    auto run = [&channel](secure::IntegrityMode mode) {
        secure::IntegrityConfig config;
        config.mode = mode;
        secure::IntegrityEngine engine(config);
        channel.reset();
        uint64_t total = 0;
        for (int i = 0; i < 50; ++i) {
            const uint64_t cycle = static_cast<uint64_t>(i) * 500;
            const uint64_t arrival = cycle + 100;
            total += engine.verifyFill(0x1000 + i * 128, cycle,
                                       arrival, channel) -
                     arrival;
        }
        return total;
    };

    const uint64_t none = run(secure::IntegrityMode::None);
    const uint64_t speculative =
        run(secure::IntegrityMode::MacSpeculative);
    const uint64_t blocking = run(secure::IntegrityMode::MacBlocking);
    EXPECT_EQ(none, 0u);
    EXPECT_EQ(speculative, 0u)
        << "speculative MACs keep data off the critical path";
    EXPECT_GT(blocking, 0u);
}

TEST(Integrity, MerkleNodeCacheTruncatesWalks)
{
    secure::IntegrityConfig config;
    config.mode = secure::IntegrityMode::MerkleCached;
    config.node_cache_bytes = 64 * 1024;
    secure::IntegrityEngine engine(config);
    mem::MemoryChannel channel;

    // Repeated fills of nearby lines share tree paths: after the
    // first walk, verification terminates at cached nodes.
    uint64_t first = 0, later = 0;
    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 8; ++i) {
            const uint64_t cycle =
                static_cast<uint64_t>(round * 8 + i) * 1000;
            const uint64_t arrival = cycle + 100;
            const uint64_t done = engine.verifyFill(
                0x1000 + i * 128, cycle, arrival, channel);
            if (round == 0)
                first += done - arrival;
            else if (round == 9)
                later += done - arrival;
        }
    }
    EXPECT_LT(later, first)
        << "a warm node cache must shorten verification";
    EXPECT_GT(engine.nodeCacheHits(), 0u);
}

} // namespace
