/**
 * @file
 * Tests for the secure software-update and attestation subsystem:
 * manifest/bundle serialization, the vendor build -> processor
 * verify/install round trip, the rejection family (tampered image,
 * downgrade, wrong processor, bad signature, interrupted staging),
 * rollback counter monotonicity and attestation quotes.
 */

#include <gtest/gtest.h>

#include "crypto/rsa.hh"
#include "mem/main_memory.hh"
#include "mem/virtual_memory.hh"
#include "secure/engines.hh"
#include "secure/key_table.hh"
#include "update/attestation.hh"
#include "update/image_builder.hh"
#include "update/manifest.hh"
#include "update/rollback_store.hh"
#include "update/update_engine.hh"
#include "util/serialize.hh"
#include "xom/secure_loader.hh"
#include "xom/vendor_tool.hh"

namespace
{

using namespace secproc;
using namespace secproc::update;

constexpr uint32_t kLine = 128;

/** A fielded device: processor identity + update machinery. */
struct Device
{
    util::Rng rng;
    crypto::RsaKeyPair processor;
    crypto::RsaKeyPair attestation;
    mem::MainMemory memory;
    mem::VirtualMemory vm;
    secure::KeyTable keys;
    mem::MemoryChannel channel;
    std::unique_ptr<secure::ProtectionEngine> engine;
    RollbackStore rollback;
    std::unique_ptr<UpdateEngine> updater;

    Device(uint64_t seed, const crypto::RsaPublicKey &vendor_key)
        : rng(seed)
    {
        processor = crypto::rsaGenerate(512, rng);
        attestation = crypto::rsaGenerate(512, rng);
        secure::ProtectionConfig config;
        config.model = secure::SecurityModel::OtpSnc;
        config.line_size = kLine;
        config.snc.l2_line_size = kLine;
        engine = secure::makeProtectionEngine(config, channel, keys);
        updater = std::make_unique<UpdateEngine>(vendor_key, processor,
                                                 keys, rollback);
        updater->setAttestationKey(attestation);
    }
};

/** The vendor: signing identity + release pipeline. */
struct Vendor
{
    util::Rng rng;
    ImageBuilder builder;

    explicit Vendor(uint64_t seed)
        : rng(seed), builder(crypto::rsaGenerate(512, rng))
    {}

    UpdateBundle
    release(const crypto::RsaPublicKey &processor, uint32_t version,
            uint64_t counter, const std::string &title = "firmware",
            const Digest &base_digest = {})
    {
        return build(program(version, title), processor, version,
                     counter, base_digest);
    }

    /** release()'s plaintext program: .text and .data. */
    xom::PlainProgram
    program(uint32_t version, const std::string &title = "firmware")
    {
        xom::PlainProgram program;
        program.title = title;
        program.entry_point = 0x400000;
        xom::PlainProgram::PlainSection text;
        text.name = ".text";
        text.vaddr = 0x400000;
        // Version-dependent payload so every release differs.
        text.bytes.resize(4 * kLine,
                          static_cast<uint8_t>(0xC0 + version));
        rng.fillBytes(text.bytes.data(), 2 * kLine);
        xom::PlainProgram::PlainSection data;
        data.name = ".data";
        data.vaddr = 0x600000;
        data.bytes.resize(2 * kLine,
                          static_cast<uint8_t>(version));
        program.sections = {text, data};
        return program;
    }

    UpdateBundle
    build(const xom::PlainProgram &program,
          const crypto::RsaPublicKey &processor, uint32_t version,
          uint64_t counter, const Digest &base_digest = {})
    {
        UpdateSpec spec;
        spec.image_version = version;
        spec.rollback_counter = counter;
        spec.base_digest = base_digest;
        return builder.build(program, spec, processor, rng);
    }
};

// ------------------------------------------------------------ round trip

TEST(UpdateRoundTrip, BuildVerifyInstallRun)
{
    Vendor vendor(1);
    Device device(2, vendor.builder.publicKey());

    const UpdateBundle bundle =
        vendor.release(device.processor.pub, 1, 1);
    const VerifyResult admission = device.updater->verify(bundle);
    ASSERT_TRUE(admission.ok()) << admission.detail;

    const InstallResult installed = device.updater->install(
        bundle, 1, device.memory, device.vm, 1, *device.engine);
    ASSERT_TRUE(installed.ok()) << installed.detail;
    EXPECT_EQ(installed.entry_point, 0x400000u);
    EXPECT_EQ(installed.slot, 0u) << "first install lands in slot A";

    // The program must actually run under the protection engine:
    // demand fetches through the loader path decrypt to plaintext.
    xom::SecureLoader loader(device.processor.priv, device.keys);
    const auto line =
        loader.fetchLine(0x400000 + 2 * kLine, device.memory,
                         device.vm, 1, *device.engine, true);
    EXPECT_EQ(line, std::vector<uint8_t>(kLine, 0xC0 + 1))
        << "fetched text must decrypt to the vendor's plaintext";

    EXPECT_EQ(device.rollback.current("firmware"), 1u);
    ASSERT_NE(device.updater->compartmentManifest(1), nullptr);
    EXPECT_EQ(device.updater->compartmentManifest(1)->image_version,
              1u);
}

TEST(UpdateRoundTrip, SequentialUpdatesAlternateSlots)
{
    Vendor vendor(3);
    Device device(4, vendor.builder.publicKey());

    xom::SecureLoader loader(device.processor.priv, device.keys);
    auto fetch_text = [&] {
        return loader.fetchLine(0x400000 + 2 * kLine, device.memory,
                                device.vm, 1, *device.engine, true);
    };

    const auto v1 = device.updater->install(
        vendor.release(device.processor.pub, 1, 1), 1, device.memory,
        device.vm, 1, *device.engine);
    ASSERT_TRUE(v1.ok()) << v1.detail;
    EXPECT_EQ(v1.slot, 0u);
    EXPECT_EQ(fetch_text(), std::vector<uint8_t>(kLine, 0xC0 + 1));

    const auto v2 = device.updater->install(
        vendor.release(device.processor.pub, 2, 2), 1, device.memory,
        device.vm, 1, *device.engine);
    ASSERT_TRUE(v2.ok()) << v2.detail;
    EXPECT_EQ(v2.slot, 1u) << "second install lands in slot B";
    EXPECT_EQ(device.rollback.current("firmware"), 2u);

    // The new text is what fetches decrypt to now: v2 re-keyed the
    // compartment, so a pad made under v1's key must not be reused
    // for a line whose address and sequence number did not change.
    EXPECT_EQ(fetch_text(), std::vector<uint8_t>(kLine, 0xC0 + 2));
}

TEST(UpdateRoundTrip, PlaintextSectionsFollowTheImage)
{
    constexpr uint64_t kText = 0x400000;
    constexpr uint64_t kLibA = 0x700000;
    constexpr uint64_t kLibB = 0x800000;
    constexpr uint64_t kLibBytes = 4 * kLine;

    // One device per case, each installing v1 and then v2 into
    // compartment 1 / asid 1; each release carries a shared library.
    struct Case
    {
        Vendor vendor{80};
        Device device{81, vendor.builder.publicKey()};

        InstallResult
        install(uint32_t version, uint64_t text_vaddr, uint64_t lib_vaddr)
        {
            xom::PlainProgram program = vendor.program(version);
            program.sections[0].vaddr = text_vaddr;
            xom::PlainProgram::PlainSection lib;
            lib.name = ".lib";
            lib.vaddr = lib_vaddr;
            lib.bytes.assign(kLibBytes, 0x5A);
            lib.shared = true;
            program.sections.push_back(lib);
            return device.updater->install(
                vendor.build(program, device.processor.pub, version,
                             version),
                1, device.memory, device.vm, 1, *device.engine);
        }

        mem::RegionKind
        kind(uint64_t vaddr) const
        {
            return device.vm.regionKind(1, vaddr);
        }
    };

    {
        SCOPED_TRACE("text moved over the old library range");
        Case c;
        ASSERT_TRUE(c.install(1, kText, kLibA).ok());
        ASSERT_TRUE(c.install(2, kLibA, kLibB).ok());
        // v2's text line 2 lies inside v1's library range; a stale
        // Plaintext attribute would hand back the ciphertext.
        xom::SecureLoader loader(c.device.processor.priv,
                                 c.device.keys);
        EXPECT_EQ(loader.fetchLine(kLibA + 2 * kLine, c.device.memory,
                                   c.device.vm, 1, *c.device.engine,
                                   true),
                  std::vector<uint8_t>(kLine, 0xC0 + 2));
    }
    {
        SCOPED_TRACE("library moved");
        Case c;
        ASSERT_TRUE(c.install(1, kText, kLibA).ok());
        ASSERT_TRUE(c.install(2, kText, kLibB).ok());
        EXPECT_EQ(c.kind(kLibA), mem::RegionKind::Protected);
        EXPECT_EQ(c.kind(kLibA + kLibBytes - 1),
                  mem::RegionKind::Protected);
        EXPECT_EQ(c.kind(kLibB), mem::RegionKind::Plaintext);
        EXPECT_EQ(c.kind(kLibB + kLibBytes - 1),
                  mem::RegionKind::Plaintext);
    }
    {
        SCOPED_TRACE("same layout installed twice");
        Case c;
        ASSERT_TRUE(c.install(1, kText, kLibA).ok());
        const InstallResult v2 = c.install(2, kText, kLibA);
        ASSERT_TRUE(v2.ok()) << v2.detail;
        EXPECT_EQ(v2.slot, 1u);
        EXPECT_EQ(c.kind(kLibA), mem::RegionKind::Plaintext);
        EXPECT_EQ(c.kind(kLibA + kLibBytes - 1),
                  mem::RegionKind::Plaintext);
        EXPECT_EQ(c.kind(kLibA + kLibBytes), mem::RegionKind::Protected);
    }
}

TEST(UpdateRoundTrip, BundleSerializationRoundTrips)
{
    Vendor vendor(5);
    util::Rng rng(6);
    const auto processor = crypto::rsaGenerate(512, rng);
    const UpdateBundle bundle = vendor.release(processor.pub, 7, 9);

    const auto back = UpdateBundle::deserialize(bundle.serialize());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->manifest.serialize(), bundle.manifest.serialize());
    EXPECT_EQ(back->signature, bundle.signature);
    EXPECT_EQ(back->image.serialize(), bundle.image.serialize());
    EXPECT_EQ(back->manifest.image_version, 7u);
    EXPECT_EQ(back->manifest.rollback_counter, 9u);
}

TEST(UpdateRoundTrip, ManifestDescribesImage)
{
    Vendor vendor(7);
    util::Rng rng(8);
    const auto processor = crypto::rsaGenerate(512, rng);
    const UpdateBundle bundle = vendor.release(processor.pub, 1, 1);
    const UpdateManifest &m = bundle.manifest;

    EXPECT_EQ(m.processor_id, processorId(processor.pub));
    ASSERT_EQ(m.sections.size(), bundle.image.sections.size());
    for (size_t i = 0; i < m.sections.size(); ++i) {
        EXPECT_EQ(m.sections[i].digest,
                  sha256Digest(bundle.image.sections[i].bytes));
    }
    EXPECT_EQ(m.image_digest, sha256Digest(bundle.image.serialize()));
}

// ------------------------------------------------------ rejection family

TEST(UpdateRejection, TamperedSectionIsDigestMismatch)
{
    Vendor vendor(10);
    Device device(11, vendor.builder.publicKey());

    UpdateBundle bundle = vendor.release(device.processor.pub, 1, 1);
    bundle.image.sections[0].bytes[17] ^= 0x01; // one flipped bit

    const VerifyResult result = device.updater->verify(bundle);
    EXPECT_EQ(result.status, UpdateStatus::DigestMismatch)
        << result.detail;

    const InstallResult installed = device.updater->install(
        bundle, 1, device.memory, device.vm, 1, *device.engine);
    EXPECT_EQ(installed.status, UpdateStatus::DigestMismatch);
    EXPECT_EQ(device.rollback.current("firmware"), 0u)
        << "a rejected update must not burn the counter";
}

TEST(UpdateRejection, TamperedCapsuleIsDigestMismatch)
{
    Vendor vendor(12);
    Device device(13, vendor.builder.publicKey());
    UpdateBundle bundle = vendor.release(device.processor.pub, 1, 1);
    bundle.image.key_capsule[3] ^= 0x80;
    EXPECT_EQ(device.updater->verify(bundle).status,
              UpdateStatus::DigestMismatch);
}

TEST(UpdateRejection, ResignedDowngradeIsRollback)
{
    Vendor vendor(14);
    Device device(15, vendor.builder.publicKey());

    // Take v2 (counter 2) live first.
    const auto v2 = device.updater->install(
        vendor.release(device.processor.pub, 2, 2), 1, device.memory,
        device.vm, 1, *device.engine);
    ASSERT_TRUE(v2.ok()) << v2.detail;

    // A *correctly signed* release with a lower counter — the
    // strongest downgrade attempt: nothing is forged, it is simply
    // old. The counter, not the signature, must kill it.
    const UpdateBundle old_release =
        vendor.release(device.processor.pub, 1, 1);
    const VerifyResult result = device.updater->verify(old_release);
    EXPECT_EQ(result.status, UpdateStatus::Rollback) << result.detail;

    // Equal counter (replay of the installed release) also fails.
    const UpdateBundle replay =
        vendor.release(device.processor.pub, 2, 2);
    EXPECT_EQ(device.updater->verify(replay).status,
              UpdateStatus::Rollback);
}

TEST(UpdateRejection, OtherProcessorsImageIsWrongProcessor)
{
    Vendor vendor(16);
    Device device_a(17, vendor.builder.publicKey());
    Device device_b(18, vendor.builder.publicKey());

    const UpdateBundle for_b =
        vendor.release(device_b.processor.pub, 1, 1);
    const VerifyResult result = device_a.updater->verify(for_b);
    EXPECT_EQ(result.status, UpdateStatus::WrongProcessor)
        << result.detail;
}

TEST(UpdateRejection, ForgedSignatureIsBadSignature)
{
    Vendor vendor(19);
    Vendor impostor(20);
    Device device(21, vendor.builder.publicKey());

    // An impostor with its own key signs an image for our processor.
    UpdateBundle forged =
        impostor.release(device.processor.pub, 1, 1);
    EXPECT_EQ(device.updater->verify(forged).status,
              UpdateStatus::BadSignature);

    // A manifest edited after genuine signing also fails.
    UpdateBundle edited = vendor.release(device.processor.pub, 1, 1);
    edited.manifest.rollback_counter = 99;
    EXPECT_EQ(device.updater->verify(edited).status,
              UpdateStatus::BadSignature);

    // A corrupted signature fails.
    UpdateBundle corrupted =
        vendor.release(device.processor.pub, 1, 1);
    corrupted.signature[5] ^= 0x10;
    EXPECT_EQ(device.updater->verify(corrupted).status,
              UpdateStatus::BadSignature);
}

TEST(UpdateRejection, TruncatedBundleIsMalformed)
{
    Vendor vendor(22);
    util::Rng rng(23);
    const auto processor = crypto::rsaGenerate(512, rng);
    auto bytes = vendor.release(processor.pub, 1, 1).serialize();
    bytes.resize(bytes.size() / 2);
    EXPECT_FALSE(UpdateBundle::deserialize(bytes).has_value());
}

TEST(UpdateRejection, SelfConsistentGarbageImageIsMalformedNotFatal)
{
    // An attacker who controls the whole bundle can make the
    // manifest's image digest match arbitrary non-image bytes (no
    // signature needed for self-consistency). Parsing must reject
    // this cleanly rather than dying in the image parser.
    util::Rng rng(24);
    std::vector<uint8_t> garbage(256);
    rng.fillBytes(garbage.data(), garbage.size());

    UpdateManifest manifest;
    manifest.title = "evil";
    manifest.image_digest = sha256Digest(garbage);

    // Hand-frame the bundle exactly as serialize() would, but with
    // the garbage bytes where the image blob belongs.
    std::vector<uint8_t> crafted;
    const auto manifest_bytes = manifest.serialize();
    auto put_u32 = [&crafted](uint32_t v) {
        for (int i = 0; i < 4; ++i)
            crafted.push_back(static_cast<uint8_t>(v >> (8 * i)));
    };
    put_u32(0x53505542); // "SPUB"
    put_u32(static_cast<uint32_t>(manifest_bytes.size()));
    crafted.insert(crafted.end(), manifest_bytes.begin(),
                   manifest_bytes.end());
    put_u32(2);
    crafted.push_back(0xAA);
    crafted.push_back(0xBB);
    put_u32(static_cast<uint32_t>(garbage.size()));
    crafted.insert(crafted.end(), garbage.begin(), garbage.end());

    EXPECT_FALSE(UpdateBundle::deserialize(crafted).has_value());
}

TEST(UpdateRejection, TamperedEntryPointIsDigestMismatch)
{
    // The per-section digests do not cover image-level fields; the
    // whole-image digest must catch edits to them.
    Vendor vendor(25);
    Device device(26, vendor.builder.publicKey());
    UpdateBundle bundle = vendor.release(device.processor.pub, 1, 1);
    bundle.image.entry_point = 0xDEAD0000;
    EXPECT_EQ(device.updater->verify(bundle).status,
              UpdateStatus::DigestMismatch);

    // Flipping a section's encryption mode (e.g. to Plaintext) is
    // also caught even though section digests cover only the bytes.
    UpdateBundle downgraded =
        vendor.release(device.processor.pub, 1, 1);
    downgraded.image.sections[0].encryption =
        xom::SectionEncryption::Plaintext;
    EXPECT_EQ(device.updater->verify(downgraded).status,
              UpdateStatus::DigestMismatch);
}

TEST(UpdateRejection, AbsurdLineSizeIsMalformed)
{
    Vendor vendor(27);
    Device device(28, vendor.builder.publicKey());
    UpdateBundle bundle = vendor.release(device.processor.pub, 1, 1);
    bundle.manifest.line_size = 0;
    EXPECT_EQ(device.updater->verify(bundle).status,
              UpdateStatus::MalformedBundle);
    bundle.manifest.line_size = 96; // not a power of two
    EXPECT_EQ(device.updater->verify(bundle).status,
              UpdateStatus::MalformedBundle);
}

TEST(UpdateRejection, UnknownCipherKindIsMalformedNotFatal)
{
    // Regression: the cipher field used to be cast straight from the
    // untrusted u32 into secure::CipherKind, surviving parse with an
    // out-of-range value and panicking later inside makeCipher().
    // It must die at deserialize as a malformed manifest.
    Vendor vendor(53);
    util::Rng rng(54);
    const auto processor = crypto::rsaGenerate(512, rng);
    const UpdateBundle bundle = vendor.release(processor.pub, 1, 1);

    std::vector<uint8_t> bytes = bundle.manifest.serialize();
    // Manifest layout: magic u32 | format u32 | title (u32 len +
    // bytes) | image_version u32 | rollback u64 | processor_id[32] |
    // cipher u32 | ...
    const size_t cipher_off =
        4 + 4 + 4 + bundle.manifest.title.size() + 4 + 8 + 32;
    ASSERT_LT(cipher_off + 4, bytes.size());
    ASSERT_TRUE(UpdateManifest::deserialize(bytes).has_value())
        << "the unpatched manifest must parse";

    for (const uint32_t evil : {99u, 3u, 0xFFFF'FFFFu}) {
        std::vector<uint8_t> patched = bytes;
        for (int i = 0; i < 4; ++i)
            patched[cipher_off + i] =
                static_cast<uint8_t>(evil >> (8 * i));
        EXPECT_FALSE(UpdateManifest::deserialize(patched).has_value())
            << "cipher kind " << evil << " parsed";
    }
}

TEST(UpdateRejection, ImageLengthPastU32IsNotTruncated)
{
    // Regression: the image blob's length used to be framed as a u32
    // cast of a u64 size, so a crafted length of 2^32 + N read back
    // as N and "parsed" with silent wraparound. The u64 framing must
    // reject any claimed length the buffer cannot back.
    Vendor vendor(55);
    util::Rng rng(56);
    const auto processor = crypto::rsaGenerate(512, rng);
    const UpdateBundle bundle = vendor.release(processor.pub, 1, 1);

    const std::vector<uint8_t> manifest_bytes =
        bundle.manifest.serialize();
    const std::vector<uint8_t> tail(16, 0xEE);

    auto craft = [&](uint64_t claimed_image_len) {
        std::vector<uint8_t> out;
        util::putU32(out, 0x53505542); // "SPUB"
        util::putBlob(out, manifest_bytes);
        util::putBlob(out, bundle.signature);
        util::putU64(out, claimed_image_len);
        out.insert(out.end(), tail.begin(), tail.end());
        return out;
    };

    // The wraparound probe: 2^32 + 16 with 16 bytes present. A u32
    // frame would have read this as a 16-byte image.
    EXPECT_FALSE(UpdateBundle::deserialize(
                     craft((1ull << 32) + tail.size()))
                     .has_value());
    // Boundary neighbours on both sides of the u32 range.
    EXPECT_FALSE(UpdateBundle::deserialize(craft(1ull << 32))
                     .has_value());
    EXPECT_FALSE(UpdateBundle::deserialize(craft(0xFFFF'FFFFull))
                     .has_value());

    // Control: a genuine bundle still frames and parses, and its
    // size query matches the serializer exactly.
    EXPECT_EQ(bundle.serializedSize(), bundle.serialize().size());
    EXPECT_TRUE(
        UpdateBundle::deserialize(bundle.serialize()).has_value());
}

// ------------------------------------------------- interrupted install

TEST(UpdateStaging, InterruptedStagingKeepsOldImageLive)
{
    Vendor vendor(30);
    Device device(31, vendor.builder.publicKey());

    const auto v1 = device.updater->install(
        vendor.release(device.processor.pub, 1, 1), 1, device.memory,
        device.vm, 1, *device.engine);
    ASSERT_TRUE(v1.ok()) << v1.detail;

    // Stage v2 but "lose power" mid-write: corrupt the staged copy
    // in untrusted memory before activation.
    const UpdateBundle v2 = vendor.release(device.processor.pub, 2, 2);
    const VerifyResult staged =
        device.updater->stage(v2, device.memory);
    ASSERT_TRUE(staged.ok()) << staged.detail;

    const uint64_t slot_base = 0x4000'0000 +
                               device.updater->stagingSlot() *
                                   (8ull << 20);
    for (uint64_t off = 200; off < 260; ++off)
        device.memory.corruptByte(slot_base + off, 0xFF);

    const InstallResult activated = device.updater->activate(
        1, device.memory, device.vm, 1, *device.engine);
    EXPECT_EQ(activated.status, UpdateStatus::StagingCorrupt)
        << activated.detail;

    // Old image still active, counter not burned, v1 still runs.
    EXPECT_EQ(device.updater->activeSlot(), 0u);
    EXPECT_EQ(device.rollback.current("firmware"), 1u);
    ASSERT_TRUE(device.updater->activeManifest().has_value());
    EXPECT_EQ(device.updater->activeManifest()->image_version, 1u);

    // Recovery: re-stage the same bundle cleanly and activate.
    ASSERT_TRUE(device.updater->stage(v2, device.memory).ok());
    const InstallResult retried = device.updater->activate(
        1, device.memory, device.vm, 1, *device.engine);
    ASSERT_TRUE(retried.ok()) << retried.detail;
    EXPECT_EQ(device.rollback.current("firmware"), 2u);
}

/**
 * The slot header (magic | u64 length) is read from untrusted memory
 * by framedExtent(), which activate() and reconstructDelta() both
 * rely on. Forge each boundary header on the staged slot, then on
 * the active slot: a refused header is a damaged slot, and the
 * largest accepted length (the whole slot) still has to parse.
 */
TEST(UpdateEngine, SlotHeaderBoundaries)
{
    constexpr uint64_t kSlot = 1ull << 20;
    Vendor vendor(37);
    Device device(38, vendor.builder.publicKey());
    RollbackStore rollback;
    UpdateEngine updater(vendor.builder.publicKey(), device.processor,
                         device.keys, rollback,
                         StagingConfig{0x4000'0000, kSlot});

    const UpdateBundle v1 = vendor.release(device.processor.pub, 1, 1);
    ASSERT_TRUE(updater
                    .install(v1, 1, device.memory, device.vm, 1,
                             *device.engine)
                    .ok());
    const UpdateBundle v2 =
        vendor.release(device.processor.pub, 2, 2, "firmware",
                       sha256DigestOfImage(v1.image));
    const DeltaBundle delta = vendor.builder.buildDelta(v1, v2);

    const uint32_t active = updater.activeSlot();
    const uint32_t staged = updater.stagingSlot();
    std::vector<uint8_t> active_header(kSlotHeaderBytes);
    device.memory.read(updater.slotBase(active), active_header.data(),
                       active_header.size());
    const uint32_t magic = util::ByteReader(active_header).u32();
    auto forge = [&](uint32_t slot, uint32_t forged_magic, uint64_t len) {
        std::vector<uint8_t> header;
        util::putU32(header, forged_magic);
        util::putU64(header, len);
        device.memory.write(updater.slotBase(slot), header.data(),
                            header.size());
    };

    struct Case
    {
        const char *name;
        uint32_t magic;
        uint64_t len;
        bool accepted;
    };
    const Case cases[] = {
        {"wrong magic", magic ^ 1u, 64, false},
        {"zero length", magic, 0, false},
        {"whole slot", magic, kSlot - kSlotHeaderBytes, true},
        {"one past the slot", magic, kSlot - kSlotHeaderBytes + 1, false},
        {"u64 max", magic, UINT64_MAX, false},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        const std::optional<uint64_t> extent =
            c.accepted ? std::optional<uint64_t>(kSlot) : std::nullopt;

        ASSERT_TRUE(updater.stage(v2, device.memory).ok());
        forge(staged, c.magic, c.len);
        EXPECT_EQ(updater.framedExtent(staged, device.memory), extent);
        const InstallResult activated = updater.activate(
            1, device.memory, device.vm, 1, *device.engine);
        EXPECT_EQ(activated.status, UpdateStatus::StagingCorrupt);
        EXPECT_EQ(activated.detail,
                  c.accepted ? "staged bundle bytes no longer parse"
                             : "staged slot header is damaged "
                               "(interrupted staging write?)");
        EXPECT_EQ(updater.activeSlot(), active);
        EXPECT_EQ(updater.activeManifest()->image_version, 1u);

        forge(active, c.magic, c.len);
        EXPECT_EQ(updater.framedExtent(active, device.memory), extent);
        const auto rec = updater.reconstructDelta(delta, device.memory);
        EXPECT_EQ(rec.result.status, UpdateStatus::BaseMismatch);
        EXPECT_EQ(rec.result.detail,
                  c.accepted ? "active slot bundle no longer parses"
                             : "active slot holds no readable base "
                               "bundle");
        device.memory.write(updater.slotBase(active),
                            active_header.data(), active_header.size());
    }

    // Control: with honest headers both paths go through.
    EXPECT_TRUE(updater.reconstructDelta(delta, device.memory).result.ok());
    ASSERT_TRUE(updater.stage(v2, device.memory).ok());
    EXPECT_TRUE(updater
                    .activate(1, device.memory, device.vm, 1,
                              *device.engine)
                    .ok());

    // The in-memory framing has the same upper bound: the length may
    // claim every byte after the header, and not one more.
    std::vector<uint8_t> framed = frameBundleBytes({1, 2, 3});
    EXPECT_EQ(unframeBundleView(framed)->size(), 3u);
    std::vector<uint8_t> len;
    util::putU64(len, 4);
    std::copy(len.begin(), len.end(), framed.begin() + 4);
    EXPECT_FALSE(unframeBundleView(framed).has_value());
}

TEST(UpdateStaging, ActivateWithoutStageIsNothingStaged)
{
    Vendor vendor(32);
    Device device(33, vendor.builder.publicKey());
    const InstallResult result = device.updater->activate(
        1, device.memory, device.vm, 1, *device.engine);
    EXPECT_EQ(result.status, UpdateStatus::NothingStaged);
}

// ------------------------------------------------------- rollback store

TEST(RollbackStoreTest, CountersAreMonotonic)
{
    RollbackStore store;
    EXPECT_EQ(store.current("app"), 0u);
    EXPECT_TRUE(store.wouldAccept("app", 1));
    EXPECT_FALSE(store.wouldAccept("app", 0));

    store.commit("app", 5);
    EXPECT_EQ(store.current("app"), 5u);
    EXPECT_FALSE(store.wouldAccept("app", 5));
    EXPECT_FALSE(store.wouldAccept("app", 4));
    EXPECT_TRUE(store.wouldAccept("app", 6));

    // Independent titles do not interfere.
    EXPECT_TRUE(store.wouldAccept("other", 1));
}

TEST(UpdateRejection, FullCounterBankIsItsOwnStatus)
{
    Vendor vendor(29);
    Device device(34, vendor.builder.publicKey());
    // Shrink the device's fuse bank to one slot.
    RollbackStore tiny(1);
    UpdateEngine updater(vendor.builder.publicKey(), device.processor,
                         device.keys, tiny);

    const auto first = updater.install(
        vendor.release(device.processor.pub, 1, 1, "app-one"), 1,
        device.memory, device.vm, 1, *device.engine);
    ASSERT_TRUE(first.ok()) << first.detail;

    // A fresh title with a perfectly fine counter must be reported
    // as bank exhaustion, not as a (nonsensical) rollback.
    const VerifyResult second = updater.verify(
        vendor.release(device.processor.pub, 1, 1, "app-two"));
    EXPECT_EQ(second.status, UpdateStatus::CounterBankFull)
        << second.detail;

    // The existing title still upgrades.
    EXPECT_TRUE(updater
                    .verify(vendor.release(device.processor.pub, 2, 2,
                                           "app-one"))
                    .ok());
}

TEST(UpdateRejection, OversizedBundleIsTooLargeNotFatal)
{
    Vendor vendor(35);
    Device device(36, vendor.builder.publicKey());
    // A staging slot too small for even a minimal bundle.
    RollbackStore rollback;
    UpdateEngine updater(vendor.builder.publicKey(), device.processor,
                         device.keys, rollback,
                         StagingConfig{0x4000'0000, 512});

    const VerifyResult result = updater.verify(
        vendor.release(device.processor.pub, 1, 1));
    EXPECT_EQ(result.status, UpdateStatus::TooLarge) << result.detail;
}

TEST(RollbackStoreTest, CapacityBoundsFreshTitles)
{
    RollbackStore store(2);
    store.commit("a", 1);
    store.commit("b", 1);
    EXPECT_FALSE(store.wouldAccept("c", 1))
        << "fuse bank is full for new titles";
    EXPECT_TRUE(store.wouldAccept("a", 2))
        << "existing titles still advance";
}

TEST(RollbackStoreTest, SerializationSurvivesReboot)
{
    RollbackStore store(16);
    store.commit("boot", 3);
    store.commit("app", 41);

    const auto rebooted = RollbackStore::deserialize(store.serialize());
    ASSERT_TRUE(rebooted.has_value());
    EXPECT_EQ(rebooted->current("boot"), 3u);
    EXPECT_EQ(rebooted->current("app"), 41u);
    EXPECT_EQ(rebooted->capacity(), 16u);

    // Corrupt persistence is refused, not trusted.
    auto bytes = store.serialize();
    bytes.resize(bytes.size() - 3);
    EXPECT_FALSE(RollbackStore::deserialize(bytes).has_value());
}

// --------------------------------------------------------- attestation

TEST(Attestation, QuoteProvesActiveImage)
{
    Vendor vendor(40);
    Device device(41, vendor.builder.publicKey());
    const auto installed = device.updater->install(
        vendor.release(device.processor.pub, 3, 7), 1, device.memory,
        device.vm, 1, *device.engine);
    ASSERT_TRUE(installed.ok()) << installed.detail;

    Digest nonce = {};
    device.rng.fillBytes(nonce.data(), nonce.size());
    const AttestationQuote quote = attest(*device.updater, 1, nonce);

    EXPECT_TRUE(verifyQuote(device.attestation.pub, quote, nonce));
    EXPECT_EQ(quote.report.image_version, 3u);
    EXPECT_EQ(quote.report.rollback_counter, 7u);
    EXPECT_EQ(quote.report.title, "firmware");
}

TEST(Attestation, StaleNonceAndTamperedReportRejected)
{
    Vendor vendor(42);
    Device device(43, vendor.builder.publicKey());
    ASSERT_TRUE(device.updater
                    ->install(vendor.release(device.processor.pub, 1,
                                             1),
                              1, device.memory, device.vm, 1,
                              *device.engine)
                    .ok());

    Digest nonce = {};
    nonce[0] = 0xAB;
    AttestationQuote quote = attest(*device.updater, 1, nonce);

    Digest other_nonce = nonce;
    other_nonce[0] ^= 1;
    EXPECT_FALSE(verifyQuote(device.attestation.pub, quote, other_nonce))
        << "replayed quote must fail a fresh challenge";

    // Claiming a different version breaks the signature.
    quote.report.image_version = 99;
    EXPECT_FALSE(verifyQuote(device.attestation.pub, quote, nonce));
}

TEST(Attestation, QuoteBindsToProcessorIdentity)
{
    Vendor vendor(44);
    Device device_a(45, vendor.builder.publicKey());
    Device device_b(46, vendor.builder.publicKey());
    ASSERT_TRUE(device_a.updater
                    ->install(vendor.release(device_a.processor.pub, 1,
                                             1),
                              1, device_a.memory, device_a.vm, 1,
                              *device_a.engine)
                    .ok());

    const Digest nonce = {};
    const AttestationQuote quote = attest(*device_a.updater, 1, nonce);
    EXPECT_TRUE(verifyQuote(device_a.attestation.pub, quote, nonce));
    EXPECT_FALSE(verifyQuote(device_b.attestation.pub, quote, nonce))
        << "a quote must not verify as another processor";
}

TEST(Attestation, QuoteSignedByAttestationKeyNotUnwrapKey)
{
    // Sign/decrypt key separation: the capsule-unwrap key pair's
    // padding check is an observable decryption oracle, so quotes
    // must never verify under it.
    Vendor vendor(49);
    Device device(52, vendor.builder.publicKey());
    ASSERT_TRUE(device.updater
                    ->install(vendor.release(device.processor.pub, 1,
                                             1),
                              1, device.memory, device.vm, 1,
                              *device.engine)
                    .ok());

    const Digest nonce = {};
    const AttestationQuote quote = attest(*device.updater, 1, nonce);
    EXPECT_TRUE(verifyQuote(device.attestation.pub, quote, nonce));
    EXPECT_FALSE(verifyQuote(device.processor.pub, quote, nonce))
        << "quote must not be a signature under the unwrap key";
    // Identity in the report remains the capsule-key fingerprint.
    EXPECT_EQ(quote.report.processor_id,
              processorId(device.processor.pub));
}

TEST(Attestation, HmacBindingWorksWithSharedKey)
{
    Vendor vendor(47);
    Device device(48, vendor.builder.publicKey());
    ASSERT_TRUE(device.updater
                    ->install(vendor.release(device.processor.pub, 1,
                                             1),
                              1, device.memory, device.vm, 1,
                              *device.engine)
                    .ok());

    const std::vector<uint8_t> session_key = {0x01, 0x02, 0x03, 0x04};
    const Digest nonce = {};
    const AttestationQuote quote =
        attest(*device.updater, 1, nonce, session_key);

    EXPECT_TRUE(verifyQuoteMac(session_key, quote, nonce));
    const std::vector<uint8_t> wrong_key = {0x0A, 0x0B};
    EXPECT_FALSE(verifyQuoteMac(wrong_key, quote, nonce));
}

// ------------------------------------------------- multi-compartment

TEST(MultiCompartment, IndependentTitlesUpdateIndependently)
{
    Vendor vendor(50);
    Device device(51, vendor.builder.publicKey());

    const auto app1 = device.updater->install(
        vendor.release(device.processor.pub, 1, 1, "app-one"), 1,
        device.memory, device.vm, 1, *device.engine);
    ASSERT_TRUE(app1.ok()) << app1.detail;
    const auto app2 = device.updater->install(
        vendor.release(device.processor.pub, 4, 4, "app-two"), 2,
        device.memory, device.vm, 2, *device.engine);
    ASSERT_TRUE(app2.ok()) << app2.detail;

    EXPECT_EQ(device.rollback.current("app-one"), 1u);
    EXPECT_EQ(device.rollback.current("app-two"), 4u);
    EXPECT_EQ(device.keys.size(), 2u);

    // app-one can still move 1 -> 2 even though app-two is at 4.
    const auto upgraded = device.updater->install(
        vendor.release(device.processor.pub, 2, 2, "app-one"), 1,
        device.memory, device.vm, 1, *device.engine);
    ASSERT_TRUE(upgraded.ok()) << upgraded.detail;

    // Per-compartment attestation sees the right images.
    const Digest nonce = {};
    EXPECT_EQ(attest(*device.updater, 1, nonce).report.title,
              "app-one");
    EXPECT_EQ(attest(*device.updater, 2, nonce).report.title,
              "app-two");
    EXPECT_EQ(attest(*device.updater, 1, nonce).report.image_version,
              2u);
}

} // namespace
