/**
 * @file
 * Delta-update tests (DFU-grade OTA).
 *
 * The headline property is differential: a delta-reconstructed
 * install must leave the device byte-identical to a full-bundle
 * install of the same release — slot bytes, active manifest and
 * rollback counter — on both the pure functional engine and the
 * unified cycle plane. Around it: wire-format round trips, the
 * shipping-size win deltas exist for, BaseMismatch as a clean
 * fall-back-to-full signal (never a crash), tampered patch ops dying
 * at the signed-manifest checks, the serializer-derived framed-size
 * gate, the staging journal's resume semantics (and a refused
 * install retiring its record), and per-phase cycle accounting that
 * adds up to the whole install on every path.
 */

#include <gtest/gtest.h>

#include "crypto/latency.hh"
#include "ota/transport.hh"
#include "sim/profiles.hh"
#include "sim/system.hh"
#include "update/delta.hh"
#include "update/image_builder.hh"
#include "update/live_install.hh"
#include "update/staging_journal.hh"
#include "update/update_engine.hh"
#include "util/serialize.hh"

namespace
{

using namespace secproc;
using namespace secproc::update;

constexpr uint32_t kLine = 128;
constexpr uint64_t kStagingBase = 0x4000'0000;
constexpr uint64_t kSlotSize = 2ull << 20;
constexpr uint64_t kImageBase = 0x0800'0000;

/** Vendor + processor key material shared by every rig of a test. */
struct KeyRing
{
    util::Rng rng;
    ImageBuilder vendor;
    crypto::RsaKeyPair processor;

    explicit KeyRing(uint64_t seed)
        : rng(seed), vendor(crypto::rsaGenerate(512, rng)),
          processor(crypto::rsaGenerate(512, rng))
    {}
};

/**
 * Program bytes of payload generation @p generation: generation 1 is
 * fresh random, each later generation rewrites @p change_fraction of
 * its predecessor's 64-byte blocks — the similarity a delta exploits.
 */
xom::PlainProgram
makeProgram(uint64_t seed, uint64_t image_bytes, uint32_t generation,
            double change_fraction)
{
    constexpr uint64_t kBlock = 64;
    xom::PlainProgram program;
    program.title = "fw";
    program.entry_point = kImageBase;
    xom::PlainProgram::PlainSection text;
    text.name = ".text";
    text.vaddr = kImageBase;
    text.bytes.resize(image_bytes);
    util::Rng fill(seed ^ 0xF111);
    for (auto &byte : text.bytes)
        byte = static_cast<uint8_t>(fill.nextRange(256));

    const uint64_t blocks = (image_bytes + kBlock - 1) / kBlock;
    const auto changed = static_cast<uint64_t>(
        static_cast<double>(blocks) * change_fraction);
    for (uint32_t gen = 2; gen <= generation; ++gen) {
        util::Rng mutate(seed ^ (0xD1FFull + gen));
        for (uint64_t c = 0; c < changed; ++c) {
            const uint64_t block = mutate.nextRange(blocks);
            for (uint64_t i = block * kBlock;
                 i < std::min(block * kBlock + kBlock, image_bytes);
                 ++i)
                text.bytes[i] =
                    static_cast<uint8_t>(mutate.nextRange(256));
        }
    }
    program.sections = {text};
    return program;
}

/** A base release, its successor, and the delta between them. */
struct ReleasePair
{
    UpdateBundle base;
    UpdateBundle next;
    DeltaBundle delta;
};

/**
 * Build a delta-friendly release pair: the successor reuses the
 * base's RNG stream (same symmetric key, so unchanged plaintext
 * lines keep their ciphertext) and signs the base image's digest
 * into its manifest.
 */
ReleasePair
makePair(KeyRing &ring, uint64_t image_bytes, double change_fraction,
         uint64_t key_seed)
{
    UpdateSpec spec;
    spec.image_version = 1;
    spec.rollback_counter = 1;
    spec.cipher = secure::CipherKind::Des;
    spec.line_size = kLine;

    ReleasePair pair;
    util::Rng rng_base(key_seed);
    pair.base = ring.vendor.build(
        makeProgram(key_seed, image_bytes, 1, change_fraction), spec,
        ring.processor.pub, rng_base);

    spec.image_version = 2;
    spec.rollback_counter = 2;
    spec.base_digest = sha256DigestOfImage(pair.base.image);
    util::Rng rng_next(key_seed);
    pair.next = ring.vendor.build(
        makeProgram(key_seed, image_bytes, 2, change_fraction), spec,
        ring.processor.pub, rng_next);

    pair.delta = ring.vendor.buildDelta(pair.base, pair.next);
    return pair;
}

/** The pure-functional device (zero simulated cycles). */
struct FunctionalRig
{
    secure::KeyTable keys;
    mem::MemoryChannel channel;
    std::unique_ptr<secure::ProtectionEngine> engine;
    mem::MainMemory memory;
    mem::VirtualMemory vm;
    RollbackStore rollback{64};
    std::unique_ptr<UpdateEngine> updater;

    explicit FunctionalRig(KeyRing &ring)
    {
        secure::ProtectionConfig config;
        config.line_size = kLine;
        config.snc.l2_line_size = kLine;
        engine = secure::makeProtectionEngine(config, channel, keys);
        updater = std::make_unique<UpdateEngine>(
            ring.vendor.publicKey(), ring.processor, keys, rollback,
            StagingConfig{kStagingBase, kSlotSize});
    }

    bool install(const UpdateBundle &bundle)
    {
        return updater->install(bundle, 1, memory, vm, 1, *engine)
            .ok();
    }

    /** Framed slot contents of the active slot. */
    std::vector<uint8_t> activeSlotBytes(uint64_t framed_size)
    {
        std::vector<uint8_t> bytes(framed_size);
        memory.read(updater->slotBase(updater->activeSlot()),
                    bytes.data(), bytes.size());
        return bytes;
    }
};

// ------------------------------------------------------- wire format

TEST(DeltaBundle, SerializeRoundTrips)
{
    KeyRing ring(0xDE17A);
    const ReleasePair pair = makePair(ring, 32ull << 10, 0.10, 0xAB);

    const std::vector<uint8_t> bytes = pair.delta.serialize();
    EXPECT_EQ(bytes.size(), pair.delta.serializedSize());

    const auto parsed = DeltaBundle::deserialize(bytes);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->serialize(), bytes);
    EXPECT_EQ(parsed->manifest.serialize(),
              pair.delta.manifest.serialize());
    EXPECT_EQ(parsed->signature, pair.delta.signature);
}

TEST(DeltaBundle, TruncationIsRejectedNotFatal)
{
    KeyRing ring(0xDE17B);
    const ReleasePair pair = makePair(ring, 8ull << 10, 0.10, 0xAC);
    const std::vector<uint8_t> bytes = pair.delta.serialize();

    // Every prefix must parse to nullopt or to a structurally valid
    // bundle — never crash. Stride keeps the loop fast; the first and
    // last few bytes are the interesting edges, so cover them exactly.
    for (size_t cut = 0; cut < bytes.size();
         cut += (cut < 64 || cut + 64 > bytes.size()) ? 1 : 997) {
        const std::vector<uint8_t> prefix(bytes.begin(),
                                          bytes.begin() + cut);
        EXPECT_FALSE(DeltaBundle::deserialize(prefix).has_value())
            << "truncated delta at " << cut << " bytes parsed";
    }
}

TEST(DeltaBundle, ShipsFarFewerBytesForSmallChanges)
{
    KeyRing ring(0xDE17C);
    const ReleasePair pair = makePair(ring, 256ull << 10, 0.10, 0xAD);

    // A 10%-changed release must ship well under half the full
    // bundle (in practice ~15%: literals + manifest + capsule + op
    // framing).
    EXPECT_LT(pair.delta.serializedSize(),
              pair.next.serializedSize() / 2)
        << "delta=" << pair.delta.serializedSize()
        << " full=" << pair.next.serializedSize();
    EXPECT_GT(pair.delta.literalBytes(), 0u);
}

// ----------------------------------------------- satellite: framing

TEST(UpdateEngine, FramedSizeDerivesFromTheSerializer)
{
    KeyRing ring(0xDE17D);
    const ReleasePair pair = makePair(ring, 16ull << 10, 0.10, 0xAE);

    // The slot-fit gate in verify() must cost exactly what the
    // serializer produces — for full bundles and for a
    // delta-reconstructed bundle alike.
    EXPECT_EQ(pair.next.serializedSize(),
              pair.next.serialize().size());
    EXPECT_EQ(frameBundle(pair.next).size(),
              kSlotHeaderBytes + pair.next.serializedSize());
    EXPECT_EQ(frameBundle(pair.next),
              frameBundleBytes(pair.next.serialize()));

    FunctionalRig rig(ring);
    ASSERT_TRUE(rig.install(pair.base));
    const auto rec =
        rig.updater->reconstructDelta(pair.delta, rig.memory);
    ASSERT_TRUE(rec.result.ok()) << rec.result.detail;
    EXPECT_EQ(rec.bundle->serializedSize(),
              rec.bundle->serialize().size());
    EXPECT_EQ(frameBundle(*rec.bundle).size(),
              kSlotHeaderBytes + rec.bundle->serializedSize());
}

// ------------------------------------------------------ differential

TEST(Delta, ReconstructionIsByteIdenticalToFullInstall)
{
    KeyRing ring(0xDE17E);
    const ReleasePair pair = makePair(ring, 64ull << 10, 0.10, 0xAF);

    FunctionalRig full(ring);
    ASSERT_TRUE(full.install(pair.base));
    ASSERT_TRUE(full.install(pair.next));

    FunctionalRig delta(ring);
    ASSERT_TRUE(delta.install(pair.base));
    const VerifyResult staged =
        delta.updater->stageDelta(pair.delta, delta.memory);
    ASSERT_TRUE(staged.ok()) << staged.detail;
    ASSERT_TRUE(delta.updater
                    ->activate(1, delta.memory, delta.vm, 1,
                               *delta.engine)
                    .ok());

    // The reconstructed device is indistinguishable from the
    // full-bundle one: same active slot, same slot bytes, same
    // manifest, same counter.
    const uint64_t framed_size =
        kSlotHeaderBytes + pair.next.serializedSize();
    EXPECT_EQ(delta.updater->activeSlot(), full.updater->activeSlot());
    EXPECT_EQ(delta.activeSlotBytes(framed_size),
              full.activeSlotBytes(framed_size));
    EXPECT_EQ(delta.updater->activeManifest()->serialize(),
              full.updater->activeManifest()->serialize());
    EXPECT_EQ(delta.rollback.current("fw"),
              full.rollback.current("fw"));
}

// ----------------------------------------------- fallback + tampering

TEST(Delta, BaseMismatchIsACleanFallbackSignal)
{
    KeyRing ring(0xDE17F);
    const ReleasePair pair = makePair(ring, 16ull << 10, 0.10, 0xB0);

    // No active image at all: the device needs the full bundle.
    FunctionalRig fresh(ring);
    EXPECT_EQ(fresh.updater->stageDelta(pair.delta, fresh.memory)
                  .status,
              UpdateStatus::BaseMismatch);

    // Wrong base installed (a different generation's bytes).
    FunctionalRig wrong(ring);
    UpdateSpec spec;
    spec.image_version = 1;
    spec.rollback_counter = 1;
    spec.cipher = secure::CipherKind::Des;
    spec.line_size = kLine;
    util::Rng other_rng(0xCAFE);
    const UpdateBundle other = ring.vendor.build(
        makeProgram(0xCAFE, 16ull << 10, 1, 0.10), spec,
        ring.processor.pub, other_rng);
    ASSERT_TRUE(wrong.install(other));
    EXPECT_EQ(wrong.updater->stageDelta(pair.delta, wrong.memory)
                  .status,
              UpdateStatus::BaseMismatch);

    // The defined fallback always works: the full bundle installs on
    // the very device that just refused the delta.
    EXPECT_TRUE(wrong.install(pair.next));
}

TEST(Delta, TamperedPatchInputIsRejectedNotTrusted)
{
    KeyRing ring(0xDE180);
    const ReleasePair pair = makePair(ring, 16ull << 10, 0.10, 0xB1);

    FunctionalRig rig(ring);
    ASSERT_TRUE(rig.install(pair.base));

    // A flipped literal byte survives the bounds checks but dies on
    // the signed digests of the reconstructed image.
    {
        DeltaBundle tampered = pair.delta;
        bool flipped = false;
        for (auto &section : tampered.sections) {
            for (auto &op : section.ops) {
                if (op.kind == DeltaOp::Kind::Literal &&
                    !op.literal.empty()) {
                    op.literal[op.literal.size() / 2] ^= 0xFF;
                    flipped = true;
                    break;
                }
            }
            if (flipped)
                break;
        }
        ASSERT_TRUE(flipped);
        EXPECT_EQ(rig.updater->reconstructDelta(tampered, rig.memory)
                      .result.status,
                  UpdateStatus::DigestMismatch);
    }

    // A copy range pushed past the base section is caught by the
    // bounds checks before any bytes move.
    {
        DeltaBundle tampered = pair.delta;
        bool bent = false;
        for (auto &section : tampered.sections) {
            for (auto &op : section.ops) {
                if (op.kind == DeltaOp::Kind::Copy) {
                    op.src_offset = ~0ull - op.length;
                    bent = true;
                    break;
                }
            }
            if (bent)
                break;
        }
        ASSERT_TRUE(bent);
        EXPECT_EQ(rig.updater->reconstructDelta(tampered, rig.memory)
                      .result.status,
                  UpdateStatus::MalformedBundle);
    }

    // A forged signature never reaches the patch ops at all.
    {
        DeltaBundle tampered = pair.delta;
        tampered.signature[0] ^= 0x01;
        EXPECT_EQ(rig.updater->reconstructDelta(tampered, rig.memory)
                      .result.status,
                  UpdateStatus::BadSignature);
    }

    // The untampered delta still installs after all those refusals —
    // nothing above changed device state.
    EXPECT_TRUE(rig.updater->stageDelta(pair.delta, rig.memory).ok());
}

// -------------------------------------------------- staging journal

TEST(StagingJournal, ResumeKeepsOnlyMatchingRecords)
{
    StagingJournal journal;
    Digest digest{};
    digest[0] = 0xAA;

    // Fresh record: nothing marked.
    EXPECT_FALSE(journal.begin(0, digest, 10'000, 1024));
    EXPECT_EQ(journal.chunkCount(0), 10u);
    EXPECT_EQ(journal.completedBytes(0), 0u);

    journal.markChunk(0, 0);
    journal.markChunk(0, 3);
    journal.markChunk(0, 9); // tail chunk: 10'000 - 9*1024 bytes
    EXPECT_TRUE(journal.chunkDone(0, 3));
    EXPECT_FALSE(journal.chunkDone(0, 4));
    EXPECT_EQ(journal.completedBytes(0),
              1024u + 1024u + (10'000u - 9u * 1024u));

    // Same identity resumes with the bitmap intact...
    EXPECT_TRUE(journal.begin(0, digest, 10'000, 1024));
    EXPECT_TRUE(journal.chunkDone(0, 0));

    // ...and survives a simulated reboot.
    const auto rebooted =
        StagingJournal::deserialize(journal.serialize());
    ASSERT_TRUE(rebooted.has_value());
    EXPECT_TRUE(rebooted->chunkDone(0, 3));
    EXPECT_EQ(rebooted->completedBytes(0),
              journal.completedBytes(0));

    // Any identity mismatch resets: different payload digest...
    Digest other = digest;
    other[1] = 0xBB;
    StagingJournal fresh = *rebooted;
    EXPECT_FALSE(fresh.begin(0, other, 10'000, 1024));
    EXPECT_FALSE(fresh.chunkDone(0, 0));

    // ...different size or granularity.
    StagingJournal resized = *rebooted;
    EXPECT_FALSE(resized.begin(0, digest, 12'000, 1024));
    StagingJournal rechunked = *rebooted;
    EXPECT_FALSE(rechunked.begin(0, digest, 10'000, 512));

    // Slots are independent; clear() drops one record only.
    journal.begin(1, other, 4'000, 1024);
    journal.clear(1);
    EXPECT_FALSE(journal.active(1));
    EXPECT_TRUE(journal.active(0));
}

TEST(StagingJournal, RejectsGeometryWhoseChunkCountWraps)
{
    // An active slot-0 record with an empty bitmap, as untrusted NVRAM
    // could hold it; slot 1 is inactive.
    const auto journal_bytes = [](uint64_t total_bytes,
                                  uint32_t chunk_bytes) {
        std::vector<uint8_t> out;
        util::putU32(out, 0x53504A4C); // "SPJL"
        util::putU32(out, 1);          // version
        util::putU32(out, 2);          // slots
        util::putU32(out, 1);          // slot 0 active
        util::putArray(out, Digest{});
        util::putU64(out, total_bytes);
        util::putU32(out, chunk_bytes);
        util::putBlob(out, {});
        util::putU32(out, 0); // slot 1 inactive
        util::putArray(out, Digest{});
        util::putU64(out, 0);
        util::putU32(out, 0);
        util::putBlob(out, {});
        return out;
    };
    // The layout is the real one: an empty payload parses.
    EXPECT_TRUE(StagingJournal::deserialize(journal_bytes(0, 2)));

    // 2^64 - 1 bytes claim 2^63 chunks at 2 bytes each, 2^64 - 1
    // chunks at 1 byte each; a wrapping ceil-divide made either count
    // look like zero chunks, which matches the empty bitmap.
    const uint64_t huge = ~uint64_t{0};
    EXPECT_FALSE(StagingJournal::deserialize(journal_bytes(huge, 2)));
    EXPECT_FALSE(StagingJournal::deserialize(journal_bytes(huge, 1)));
}

// ------------------------------------------------------ cycle plane

/** A full machine with a LiveInstall agent attached. */
struct LiveRig
{
    sim::SystemConfig config;
    sim::WorkloadProfile profile;
    std::unique_ptr<sim::SyntheticWorkload> workload;
    std::unique_ptr<sim::System> system;
    secure::KeyTable update_keys;
    RollbackStore rollback{64};
    StagingJournal journal;
    std::unique_ptr<UpdateEngine> updater;
    std::unique_ptr<LiveInstall> live;

    explicit LiveRig(KeyRing &ring)
        : config(sim::paperConfig(secure::SecurityModel::OtpSnc)),
          profile(sim::benchmarkProfile("gcc"))
    {
        workload = std::make_unique<sim::SyntheticWorkload>(
            profile, config.l2.line_size);
        system = std::make_unique<sim::System>(config, *workload);
        updater = std::make_unique<UpdateEngine>(
            ring.vendor.publicKey(), ring.processor, update_keys,
            rollback, StagingConfig{kStagingBase, kSlotSize});
        updater->setJournal(&journal);

        LiveInstallConfig live_config;
        live_config.line_bytes = kLine;
        live_config.pacing = InstallPacing::Arbiter;
        live_config.transport.chunk_bytes = 1024;
        live_config.transport.cycles_per_chunk = 64;
        live = std::make_unique<LiveInstall>(live_config, *system,
                                             *updater, 1);
        system->attachAgent(live.get());
    }

    bool runToCompletion()
    {
        for (int chunk = 0; chunk < 600 && !live->done(); ++chunk)
            system->run(25'000);
        return live->done();
    }
};

TEST(Delta, LiveDeltaInstallLandsIdenticalBytes)
{
    KeyRing ring(0xDE181);
    const ReleasePair pair = makePair(ring, 64ull << 10, 0.10, 0xB2);

    // Functional full-bundle reference.
    FunctionalRig reference(ring);
    ASSERT_TRUE(reference.install(pair.base));
    ASSERT_TRUE(reference.install(pair.next));

    // Live machine: base installed functionally, successor shipped
    // as a delta through the unified plane.
    LiveRig rig(ring);
    ASSERT_TRUE(rig.updater
                    ->install(pair.base, 1, rig.system->mainMemory(),
                              rig.system->virtualMemory(), 1,
                              rig.system->engine())
                    .ok());
    rig.live->startDelta(pair.delta, rig.system->core().cycles());
    ASSERT_TRUE(rig.runToCompletion());
    ASSERT_EQ(rig.live->phase(), LiveInstallPhase::Done)
        << (rig.live->result() ? rig.live->result()->detail
                               : rig.live->admission()->detail);

    // The delta stream on the wire is the small thing; the staged
    // slot holds the full reconstructed bundle.
    const uint64_t framed_full =
        kSlotHeaderBytes + pair.next.serializedSize();
    const uint64_t framed_delta =
        kSlotHeaderBytes + pair.delta.serializedSize();
    EXPECT_LT(framed_delta, framed_full / 2);
    EXPECT_EQ(rig.live->stagedBytesWritten(), framed_full);

    EXPECT_EQ(rig.updater->activeSlot(),
              reference.updater->activeSlot());
    std::vector<uint8_t> got(framed_full);
    rig.system->mainMemory().read(
        rig.updater->slotBase(rig.updater->activeSlot()), got.data(),
        got.size());
    EXPECT_EQ(got, reference.activeSlotBytes(framed_full));
    EXPECT_EQ(rig.updater->activeManifest()->serialize(),
              reference.updater->activeManifest()->serialize());
    EXPECT_EQ(rig.rollback.current("fw"),
              reference.rollback.current("fw"));

    // Activation success retired the journal record for the slot.
    EXPECT_FALSE(rig.journal.active(rig.updater->activeSlot()));
}

TEST(Delta, LiveBaseMismatchFailsSoCallerCanFallBack)
{
    KeyRing ring(0xDE182);
    const ReleasePair pair = makePair(ring, 16ull << 10, 0.10, 0xB3);

    // Nothing installed: the delta admission must render
    // BaseMismatch and fail the install without touching state.
    LiveRig rig(ring);
    rig.live->startDelta(pair.delta, 0);
    ASSERT_TRUE(rig.runToCompletion());
    EXPECT_EQ(rig.live->phase(), LiveInstallPhase::Failed);
    ASSERT_TRUE(rig.live->admission().has_value());
    EXPECT_EQ(rig.live->admission()->status,
              UpdateStatus::BaseMismatch);
    EXPECT_EQ(rig.live->stagedBytesWritten(), 0u);

    // The fallback the verdict asks for: the full bundle lands on
    // the same machine (base first — the counter is monotonic).
    rig.live->start(pair.base, rig.system->core().cycles());
    ASSERT_TRUE(rig.runToCompletion());
    ASSERT_EQ(rig.live->phase(), LiveInstallPhase::Done);
    rig.live->start(pair.next, rig.system->core().cycles());
    ASSERT_TRUE(rig.runToCompletion());
    EXPECT_EQ(rig.live->phase(), LiveInstallPhase::Done);
}

/** The five live phases' cycles add up to the whole install. */
void
expectPhasesSumToInstall(const LiveInstall &live)
{
    uint64_t sum = 0;
    for (const LiveInstallPhase phase :
         {LiveInstallPhase::Admission, LiveInstallPhase::Stage,
          LiveInstallPhase::Reverify, LiveInstallPhase::Load,
          LiveInstallPhase::Attest})
        sum += live.phaseCycles(phase);
    EXPECT_GT(live.installCycles(), 0u);
    EXPECT_EQ(sum, live.installCycles())
        << "phase " << liveInstallPhaseName(live.phase());
}

TEST(Delta, PhaseCyclesSumToInstallCycles)
{
    KeyRing ring(0xDE183);
    const ReleasePair pair = makePair(ring, 16ull << 10, 0.10, 0xB4);

    // Admission-refused: a delta against a device with no base.
    LiveRig rig(ring);
    rig.live->startDelta(pair.delta, 0);
    ASSERT_TRUE(rig.runToCompletion());
    ASSERT_EQ(rig.live->phase(), LiveInstallPhase::Failed);
    EXPECT_EQ(rig.live->phaseCycles(LiveInstallPhase::Stage), 0u);
    expectPhasesSumToInstall(*rig.live);

    // A full install, then a delta against it.
    rig.live->start(pair.base, rig.system->core().cycles());
    ASSERT_TRUE(rig.runToCompletion());
    ASSERT_EQ(rig.live->phase(), LiveInstallPhase::Done);
    expectPhasesSumToInstall(*rig.live);
    rig.live->startDelta(pair.delta, rig.system->core().cycles());
    ASSERT_TRUE(rig.runToCompletion());
    ASSERT_EQ(rig.live->phase(), LiveInstallPhase::Done);
    expectPhasesSumToInstall(*rig.live);

    // A journal-resumed install: cut power mid-stage, then re-attempt
    // the same bundle on the rebooted machine.
    LiveRig cut(ring);
    cut.live->start(pair.base, 0);
    while (cut.live->stagedBytesWritten() == 0 && !cut.live->done())
        cut.system->run(100);
    ASSERT_FALSE(cut.live->done()) << "the cut must land mid-stage";
    cut.system->reset();
    cut.live->start(pair.base, cut.system->core().cycles());
    ASSERT_TRUE(cut.runToCompletion());
    ASSERT_EQ(cut.live->phase(), LiveInstallPhase::Done);
    EXPECT_GT(cut.live->transport().chunksSkipped(), 0u)
        << "the re-attempt must resume, not restart";
    expectPhasesSumToInstall(*cut.live);
}

// ------------------------- staging journal: a refusal retires it

/** Step @p rig's install until it reaches @p phase (or ends). */
void
runUntilPhase(LiveRig &rig, LiveInstallPhase phase)
{
    while (!rig.live->done() && rig.live->phase() != phase)
        rig.system->run(10);
}

/** Flip one byte of staged line 2 of @p slot: slot memory rots. */
void
rotSlotLine(LiveRig &rig, uint32_t slot)
{
    const uint64_t addr = rig.updater->slotBase(slot) + 2 * kLine + 5;
    uint8_t byte = 0;
    rig.system->mainMemory().read(addr, &byte, 1);
    byte ^= 0x01;
    rig.system->mainMemory().write(addr, &byte, 1);
}

TEST(StagingJournal, RotCaughtAtActivationRetiresTheRecord)
{
    KeyRing ring(0xDE184);
    const ReleasePair pair = makePair(ring, 32ull << 10, 0.10, 0xB5);
    LiveRig rig(ring);
    rig.live->start(pair.base, 0);
    ASSERT_TRUE(rig.runToCompletion());
    ASSERT_EQ(rig.live->phase(), LiveInstallPhase::Done);
    const uint32_t slot = rig.updater->stagingSlot();

    // The stage completes, then a staged line rots before activation
    // reads it back: refused, and the record that vouched for the
    // line is gone.
    rig.live->start(pair.next, rig.system->core().cycles());
    runUntilPhase(rig, LiveInstallPhase::Reverify);
    ASSERT_EQ(rig.live->phase(), LiveInstallPhase::Reverify);
    rotSlotLine(rig, slot);
    ASSERT_TRUE(rig.runToCompletion());
    ASSERT_EQ(rig.live->phase(), LiveInstallPhase::Failed);
    EXPECT_EQ(rig.live->result()->status, UpdateStatus::StagingCorrupt);
    EXPECT_FALSE(rig.journal.active(slot));

    // The next attempt downloads and stages afresh, and lands.
    rig.live->start(pair.next, rig.system->core().cycles());
    ASSERT_TRUE(rig.runToCompletion());
    EXPECT_EQ(rig.live->phase(), LiveInstallPhase::Done)
        << rig.live->result()->detail;
    EXPECT_EQ(rig.live->transport().chunksSkipped(), 0u);
    EXPECT_EQ(rig.rollback.current("fw"), 2u);
}

TEST(StagingJournal, RotWhilePoweredOffIsRefusedOnceThenLands)
{
    KeyRing ring(0xDE185);
    const ReleasePair pair = makePair(ring, 32ull << 10, 0.10, 0xB6);
    LiveRig rig(ring);
    rig.live->start(pair.base, 0);
    ASSERT_TRUE(rig.runToCompletion());
    ASSERT_EQ(rig.live->phase(), LiveInstallPhase::Done);
    const uint32_t slot = rig.updater->stagingSlot();

    // Power dies once the stage is complete, and a staged line rots
    // while the device is off.
    rig.live->start(pair.next, rig.system->core().cycles());
    runUntilPhase(rig, LiveInstallPhase::Reverify);
    ASSERT_EQ(rig.live->phase(), LiveInstallPhase::Reverify);
    rig.system->reset();
    rotSlotLine(rig, slot);

    // The first retry resumes from the journal, copies the rotted
    // line back out of the slot, and is refused at admission; the
    // refusal retires the record.
    rig.live->start(pair.next, rig.system->core().cycles());
    ASSERT_TRUE(rig.runToCompletion());
    EXPECT_GT(rig.live->transport().chunksSkipped(), 0u);
    ASSERT_EQ(rig.live->phase(), LiveInstallPhase::Failed);
    EXPECT_FALSE(rig.live->admission()->ok());
    EXPECT_FALSE(rig.journal.active(slot));

    // The second retry downloads and stages afresh, and lands.
    rig.live->start(pair.next, rig.system->core().cycles());
    ASSERT_TRUE(rig.runToCompletion());
    EXPECT_EQ(rig.live->phase(), LiveInstallPhase::Done)
        << rig.live->admission()->detail;
    EXPECT_EQ(rig.live->transport().chunksSkipped(), 0u);
    EXPECT_EQ(rig.rollback.current("fw"), 2u);
}

TEST(StagingJournal, RefusedDeltaRestagesEveryLine)
{
    KeyRing ring(0xDE186);
    const ReleasePair pair = makePair(ring, 32ull << 10, 0.10, 0xB7);
    LiveRig rig(ring);
    ASSERT_TRUE(rig.updater
                    ->install(pair.base, 1, rig.system->mainMemory(),
                              rig.system->virtualMemory(), 1,
                              rig.system->engine())
                    .ok());
    const uint32_t slot = rig.updater->stagingSlot();

    rig.live->startDelta(pair.delta, rig.system->core().cycles());
    runUntilPhase(rig, LiveInstallPhase::Reverify);
    ASSERT_EQ(rig.live->phase(), LiveInstallPhase::Reverify);
    rotSlotLine(rig, slot);
    ASSERT_TRUE(rig.runToCompletion());
    ASSERT_EQ(rig.live->phase(), LiveInstallPhase::Failed);
    EXPECT_EQ(rig.live->result()->status, UpdateStatus::StagingCorrupt);
    EXPECT_FALSE(rig.journal.active(slot));

    // A delta stream carries no slot bytes, so a retry that resumed
    // would skip every stage write and activate the rotted slot
    // again; with the record retired it writes every line.
    rig.live->startDelta(pair.delta, rig.system->core().cycles());
    ASSERT_TRUE(rig.runToCompletion());
    EXPECT_EQ(rig.live->phase(), LiveInstallPhase::Done)
        << rig.live->result()->detail;
    EXPECT_EQ(rig.live->stagedBytesWritten(),
              kSlotHeaderBytes + pair.next.serializedSize());
    EXPECT_EQ(rig.rollback.current("fw"), 2u);
}

} // namespace
