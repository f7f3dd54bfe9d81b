/**
 * @file
 * Tests for the cycle-plane install pipeline: plan derivation from
 * real bundles, idle-machine replay timing (pinned), per-step cycle
 * accounting, and — the point of the whole subsystem — foreground
 * interference that scales with the crypto engine's latency because
 * install and workload share one engine and one memory channel.
 */

#include <gtest/gtest.h>

#include "crypto/latency.hh"
#include "obs/metrics.hh"
#include "sim/profiles.hh"
#include "sim/system.hh"
#include "update/image_builder.hh"
#include "update/install_timing.hh"
#include "update/update_engine.hh"
#include "util/random.hh"

namespace
{

using namespace secproc;
using namespace secproc::update;

constexpr uint32_t kLine = 128;

InstallTimingConfig
timingConfig()
{
    InstallTimingConfig config;
    config.line_bytes = kLine;
    return config;
}

// ------------------------------------------------------------------ plans

TEST(InstallPlan, FromImageBytes)
{
    const InstallPlan plan =
        InstallPlan::fromImageBytes(64 * kLine, kLine);
    EXPECT_EQ(plan.load_lines, 64u);
    EXPECT_EQ(plan.stage_lines, 65u) << "one line of framing overhead";
    EXPECT_EQ(plan.verify_lines, plan.stage_lines);
}

TEST(InstallPlan, FromBundleMatchesSerializedSize)
{
    util::Rng rng(7);
    const crypto::RsaKeyPair vendor = crypto::rsaGenerate(512, rng);
    const crypto::RsaKeyPair processor = crypto::rsaGenerate(512, rng);
    ImageBuilder builder(vendor);

    xom::PlainProgram program;
    program.title = "fw";
    program.entry_point = 0x400000;
    xom::PlainProgram::PlainSection text;
    text.name = ".text";
    text.vaddr = 0x400000;
    text.bytes.resize(32 * kLine, 0x5A);
    program.sections = {text};

    UpdateSpec spec;
    spec.image_version = 1;
    spec.rollback_counter = 1;
    const UpdateBundle bundle =
        builder.build(program, spec, processor.pub, rng);

    const InstallPlan plan = InstallPlan::fromBundle(bundle, kLine);
    const uint64_t bundle_lines =
        (bundle.serialize().size() + kSlotHeaderBytes + kLine - 1) /
        kLine;
    EXPECT_EQ(plan.stage_lines, bundle_lines);
    EXPECT_EQ(plan.verify_lines, bundle_lines);
    EXPECT_EQ(plan.load_lines,
              (bundle.image.totalBytes() + kLine - 1) / kLine);
    EXPECT_GE(plan.stage_lines, plan.load_lines)
        << "the staged bundle wraps the image";
}

// ----------------------------------------------------------- idle replay

TEST(InstallTiming, IdleReplayScalesWithImageSize)
{
    mem::ChannelConfig channel_config;
    crypto::CryptoEngineConfig engine_config;

    auto replayCycles = [&](uint64_t image_bytes) {
        mem::MemoryChannel channel(channel_config);
        crypto::CryptoEngineModel engine(engine_config);
        InstallTiming timing(timingConfig(), channel, engine);
        timing.start(InstallPlan::fromImageBytes(image_bytes, kLine),
                     0);
        const uint64_t end = timing.replay();
        EXPECT_TRUE(timing.done());
        EXPECT_EQ(timing.installsCompleted(), 1u);
        EXPECT_EQ(timing.lastInstallCycles(), end);
        return end;
    };

    const uint64_t small = replayCycles(64 * kLine);
    const uint64_t large = replayCycles(512 * kLine);
    EXPECT_GT(small, 0u);
    EXPECT_GT(large, 4 * small)
        << "8x the image must cost well over 4x the cycles";
}

TEST(InstallTiming, ReplayMovesAttributedTraffic)
{
    mem::MemoryChannel channel{mem::ChannelConfig{}};
    crypto::CryptoEngineModel engine{crypto::CryptoEngineConfig{}};
    InstallTiming timing(timingConfig(), channel, engine);

    const InstallPlan plan = InstallPlan::fromImageBytes(64 * kLine,
                                                        kLine);
    timing.start(plan, 0);
    timing.replay();

    // Two verification passes read the staged lines; stage + load
    // write them.
    EXPECT_EQ(channel.transactions(mem::Traffic::UpdateFill),
              2 * plan.verify_lines);
    EXPECT_EQ(channel.transactions(mem::Traffic::UpdateWriteback),
              plan.stage_lines + plan.load_lines);
    EXPECT_EQ(channel.agentBytes(timing.agent()),
              channel.updateBytes());
    EXPECT_EQ(channel.agentBytes(mem::kCoreAgent), 0u);
    channel.assertFullyAttributed();

    // Digest per verified line + three signature-class reservations
    // (admission, re-verify, capsule unwrap) + the attestation quote.
    EXPECT_EQ(engine.reservedOperations(),
              2 * plan.verify_lines + 3 * kSignatureEngineOps +
                  kAttestEngineOps);
}

TEST(InstallTiming, IdleReplayCyclesArePinned)
{
    // Completion cycles of the idle paper machine's replay, recorded
    // before LiveInstall and InstallTiming shared one phase machine
    // and one replay loop: merging them must not move a cycle. An
    // idle bus grants every arbiter request at once, so both pacings
    // land on the same cycle with no stall.
    struct Case
    {
        uint64_t image_bytes;
        uint32_t latency;
        uint64_t cycles;
    };
    const Case cases[] = {
        {256ull << 10, crypto::kPaperCryptoLatency, 683'452},
        {256ull << 10, crypto::kStrongCipherLatency, 899'876},
        {2ull << 20, crypto::kPaperCryptoLatency, 5'443'004},
        {2ull << 20, crypto::kStrongCipherLatency, 7'150'372},
    };
    const sim::SystemConfig machine =
        sim::paperConfig(secure::SecurityModel::OtpSnc);
    for (const Case &c : cases) {
        for (const InstallPacing pacing :
             {InstallPacing::Fixed, InstallPacing::Arbiter}) {
            mem::MemoryChannel channel(machine.channel);
            crypto::CryptoEngineConfig engine_config =
                machine.protection.crypto;
            engine_config.latency = c.latency;
            crypto::CryptoEngineModel engine(engine_config);
            InstallTimingConfig config = timingConfig();
            config.pacing = pacing;
            InstallTiming timing(config, channel, engine);
            timing.start(InstallPlan::fromImageBytes(c.image_bytes, kLine),
                         0);
            EXPECT_EQ(timing.replay(), c.cycles)
                << (c.image_bytes >> 10) << "KB c" << c.latency << " "
                << installPacingName(pacing);
            EXPECT_EQ(channel.agentStallCycles(timing.agent()), 0u);
        }
    }
}

TEST(InstallTiming, StepCyclesSumToTheInstall)
{
    mem::MemoryChannel channel{mem::ChannelConfig{}};
    crypto::CryptoEngineModel engine{crypto::CryptoEngineConfig{}};
    InstallTiming timing(timingConfig(), channel, engine);
    timing.start(InstallPlan::fromImageBytes(64 * kLine, kLine), 100);
    const uint64_t end = timing.replay();

    uint64_t sum = 0;
    for (size_t i = 0; i < kInstallSteps; ++i)
        sum += timing.stepCycles(static_cast<InstallStep>(i));
    EXPECT_EQ(sum, end - 100);
    EXPECT_EQ(timing.lastInstallCycles(), end - 100);
    EXPECT_EQ(timing.stepCycles(InstallStep::AdmissionSig),
              kSignatureEngineOps * crypto::kPaperCryptoLatency);

    // The registered install.* family reads the same accounting.
    obs::MetricsRegistry registry;
    timing.registerMetrics(registry);
    const obs::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.u64("install.stage_write_cycles"),
              timing.stepCycles(InstallStep::StageWrite));
    EXPECT_EQ(snap.u64("install.completed"), 1u);
}

TEST(InstallTiming, AdvanceIsSelfPacedAndMonotonic)
{
    mem::MemoryChannel channel{mem::ChannelConfig{}};
    crypto::CryptoEngineModel engine{crypto::CryptoEngineConfig{}};
    InstallTiming timing(timingConfig(), channel, engine);
    timing.start(InstallPlan::fromImageBytes(16 * kLine, kLine), 0);

    // Advancing a little at a time must make monotonic progress and
    // finish; transactions issued so far never exceed what the
    // elapsed cycles allow.
    uint64_t issued_at_half = 0;
    for (uint64_t now = 0; !timing.done() && now < 1'000'000;
         now += 100) {
        timing.advance(now);
        if (now == 5'000)
            issued_at_half = channel.agentTransactions(timing.agent());
    }
    EXPECT_TRUE(timing.done());
    EXPECT_GT(issued_at_half, 0u);
    EXPECT_LT(issued_at_half,
              channel.agentTransactions(timing.agent()))
        << "work must still be pending mid-replay";
}

// ------------------------------------------------------- interference

uint64_t
foregroundCycles(uint32_t crypto_latency, bool background_install)
{
    sim::SystemConfig config =
        sim::paperConfig(secure::SecurityModel::OtpSnc);
    config.protection.crypto.latency = crypto_latency;

    sim::WorkloadProfile profile = sim::benchmarkProfile("gcc");
    sim::SyntheticWorkload workload(profile, config.l2.line_size);
    sim::System system(config, workload);

    InstallTimingConfig itc;
    itc.line_bytes = config.l2.line_size;
    InstallTiming timing(itc, system.channel(), system.cryptoEngine());
    if (background_install) {
        timing.start(InstallPlan::fromImageBytes(1ull << 20,
                                                 config.l2.line_size),
                     0, /*repeat=*/true);
        system.attachAgent(&timing);
    }

    system.run(50'000);
    system.beginMeasurement();
    system.run(200'000);
    return system.stats().cycles;
}

TEST(InstallTiming, BackgroundInstallSlowsForeground)
{
    const uint64_t alone =
        foregroundCycles(crypto::kPaperCryptoLatency, false);
    const uint64_t contended =
        foregroundCycles(crypto::kPaperCryptoLatency, true);
    EXPECT_GT(contended, alone)
        << "a streaming install must cost the foreground something";
}

TEST(InstallTiming, InterferenceGrowsWithEngineLatency)
{
    // The acceptance criterion of the cycle-plane refactor: because
    // install digesting holds the *shared* engine for a whole line
    // time, a 102-cycle engine hurts the foreground more than the
    // 50-cycle engine — the contention is engine-latency sensitive,
    // not just bus sensitive.
    const double slow50 = 100.0 *
        (static_cast<double>(foregroundCycles(
             crypto::kPaperCryptoLatency, true)) /
             static_cast<double>(foregroundCycles(
                 crypto::kPaperCryptoLatency, false)) -
         1.0);
    const double slow102 = 100.0 *
        (static_cast<double>(foregroundCycles(
             crypto::kStrongCipherLatency, true)) /
             static_cast<double>(foregroundCycles(
                 crypto::kStrongCipherLatency, false)) -
         1.0);
    EXPECT_GT(slow50, 0.0);
    EXPECT_GT(slow102, slow50)
        << "102-cycle engine: slowdown " << slow102
        << "% must exceed the 50-cycle engine's " << slow50 << "%";
}

TEST(InstallTiming, CoreOnlyRunsAreUntouchedByAttachableAgents)
{
    // Constructing a System after the refactor, with no agent
    // attached, must behave exactly like the pre-refactor machine:
    // same cycles, same channel traffic split.
    sim::SystemConfig config =
        sim::paperConfig(secure::SecurityModel::OtpSnc);
    sim::WorkloadProfile profile = sim::benchmarkProfile("mcf");

    auto runOnce = [&]() {
        sim::SyntheticWorkload workload(profile, config.l2.line_size);
        sim::System system(config, workload);
        system.run(20'000);
        system.beginMeasurement();
        system.run(80'000);
        return system.stats();
    };
    const sim::RunStats a = runOnce();
    const sim::RunStats b = runOnce();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.data_bytes, b.data_bytes);
    EXPECT_EQ(a.seqnum_bytes, b.seqnum_bytes);
}

} // namespace
