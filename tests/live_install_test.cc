/**
 * @file
 * Unified-plane install tests.
 *
 * The tentpole property: one System run advances real bytes and real
 * cycles together, and the two planes can never disagree — for every
 * (image size x cipher x engine latency) cell, LiveInstall's final
 * slot bytes, active manifest and rollback counter are byte-identical
 * to a pure functional UpdateEngine run of the same bundle. On the
 * cycle side, the arbiter-paced install must cost the foreground
 * strictly less than the PR-4 fixed pacing at both engine latencies.
 * Every install verifies once per trust boundary — at admission and
 * at activation — so a slot line damaged after its stage write is
 * refused, never repaired.
 */

#include <gtest/gtest.h>

#include "crypto/latency.hh"
#include "exp/runner.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "ota/transport.hh"
#include "sim/profiles.hh"
#include "sim/system.hh"
#include "update/image_builder.hh"
#include "update/install_timing.hh"
#include "update/live_install.hh"
#include "update/update_engine.hh"
#include "util/json.hh"

namespace
{

using namespace secproc;
using namespace secproc::update;

constexpr uint32_t kLine = 128;
constexpr uint64_t kStagingBase = 0x4000'0000;
constexpr uint64_t kSlotSize = 1ull << 20;
/** Installed image lives far above every workload footprint, so
 *  activation's line-state registration cannot perturb the
 *  foreground's fill timing. */
constexpr uint64_t kImageBase = 0x0800'0000;

secure::CipherKind
cipherFor(const std::string &bench)
{
    return bench == "aes128" ? secure::CipherKind::Aes128
                             : secure::CipherKind::Des;
}

/** Vendor + processor key material, shared by both planes' rigs. */
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

/** A signed release whose image is @p image_bytes of @p version. With
 *  @p base, the manifest names @p base's image, so a delta against it
 *  can be cut (ImageBuilder::buildDelta). */
UpdateBundle
makeBundle(KeyRing &keys, uint32_t version, uint64_t image_bytes,
           secure::CipherKind cipher,
           const UpdateBundle *base = nullptr)
{
    xom::PlainProgram program;
    program.title = "fw";
    program.entry_point = kImageBase;
    xom::PlainProgram::PlainSection text;
    text.name = ".text";
    text.vaddr = kImageBase;
    text.bytes.resize(image_bytes, static_cast<uint8_t>(version));
    program.sections = {text};

    UpdateSpec spec;
    spec.image_version = version;
    spec.rollback_counter = version;
    spec.cipher = cipher;
    if (base != nullptr)
        spec.base_digest = sha256DigestOfImage(base->image);
    return keys.vendor.build(program, spec, keys.processor.pub,
                             keys.rng);
}

/** The pure-functional reference device (zero simulated cycles). */
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
};

/** A full machine with a LiveInstall agent attached. */
struct LiveRig
{
    sim::SystemConfig config;
    sim::WorkloadProfile profile;
    std::unique_ptr<sim::SyntheticWorkload> workload;
    std::unique_ptr<sim::System> system;
    secure::KeyTable update_keys;
    RollbackStore rollback{64};
    std::unique_ptr<UpdateEngine> updater;
    std::unique_ptr<LiveInstall> live;

    LiveRig(KeyRing &ring, uint32_t crypto_latency,
            const LiveInstallConfig &live_config)
        : config(sim::paperConfig(secure::SecurityModel::OtpSnc)),
          profile(sim::benchmarkProfile("gcc"))
    {
        config.protection.crypto.latency = crypto_latency;
        workload = std::make_unique<sim::SyntheticWorkload>(
            profile, config.l2.line_size);
        system = std::make_unique<sim::System>(config, *workload);
        updater = std::make_unique<UpdateEngine>(
            ring.vendor.publicKey(), ring.processor, update_keys,
            rollback, StagingConfig{kStagingBase, kSlotSize});
        live = std::make_unique<LiveInstall>(live_config, *system,
                                             *updater, 1);
        system->attachAgent(live.get());
    }

    /** Run until the install lands (or a generous cap trips). */
    bool
    runToCompletion()
    {
        for (int chunk = 0; chunk < 600 && !live->done(); ++chunk)
            system->run(25'000);
        return live->done();
    }
};

LiveInstallConfig
liveConfig(ota::TransportConfig transport,
           InstallPacing pacing = InstallPacing::Arbiter)
{
    LiveInstallConfig config;
    config.line_bytes = kLine;
    config.pacing = pacing;
    config.transport = transport;
    return config;
}

ota::TransportConfig
lossyTransport()
{
    ota::TransportConfig transport;
    transport.chunk_bytes = 1024;
    transport.cycles_per_chunk = 256;
    transport.loss_rate = 0.10;
    transport.burst_length = 2.0;
    transport.reorder_rate = 0.15;
    transport.retransmit_delay = 4096;
    transport.seed = 0xD15C;
    return transport;
}

ota::TransportConfig
fastTransport()
{
    ota::TransportConfig transport;
    transport.chunk_bytes = 1024;
    transport.cycles_per_chunk = 64;
    return transport;
}

// -------------------------------------------------------- differential

/**
 * One differential cell: a live (timed, lossy-transport,
 * arbiter-paced) install and a pure functional install of the same
 * bundle must land byte-identical device state.
 */
exp::CellOutput
differentialCell(uint64_t image_bytes, uint32_t crypto_latency,
                 const std::string &bench, uint64_t key_seed)
{
    KeyRing ring(key_seed);
    const secure::CipherKind cipher = cipherFor(bench);
    const UpdateBundle bundle =
        makeBundle(ring, 2, image_bytes, cipher);

    // Pure functional reference: install v1 then v2.
    FunctionalRig reference(ring);
    exp::CellOutput cell;
    cell.measured = 0.0;
    if (!reference.updater
             ->install(makeBundle(ring, 1, image_bytes, cipher), 1,
                       reference.memory, reference.vm, 1,
                       *reference.engine)
             .ok())
        return cell;
    if (!reference.updater
             ->install(bundle, 1, reference.memory, reference.vm, 1,
                       *reference.engine)
             .ok())
        return cell;

    // Live machine: same v1 baseline functionally, then v2 through
    // the unified plane while the foreground runs.
    LiveRig rig(ring, crypto_latency, liveConfig(lossyTransport()));
    if (!rig.updater
             ->install(makeBundle(ring, 1, image_bytes, cipher), 1,
                       rig.system->mainMemory(),
                       rig.system->virtualMemory(), 1,
                       rig.system->engine())
             .ok())
        return cell;
    rig.live->start(bundle, rig.system->core().cycles());
    if (!rig.runToCompletion())
        return cell;
    cell.extras.emplace_back(
        "install_ok",
        rig.live->phase() == LiveInstallPhase::Done ? 1.0 : 0.0);
    cell.extras.emplace_back(
        "retransmit_passes",
        static_cast<double>(rig.live->transport().retransmitPasses()));
    if (rig.live->phase() != LiveInstallPhase::Done)
        return cell;

    // The planes can never disagree: slot bytes, manifest, counter.
    const uint64_t framed_size =
        kSlotHeaderBytes + bundle.serialize().size();
    const uint32_t slot = reference.updater->activeSlot();
    if (rig.updater->activeSlot() != slot)
        return cell;
    std::vector<uint8_t> want(framed_size);
    std::vector<uint8_t> got(framed_size);
    reference.memory.read(reference.updater->slotBase(slot),
                          want.data(), want.size());
    rig.system->mainMemory().read(rig.updater->slotBase(slot),
                                  got.data(), got.size());
    const bool bytes_match = want == got;
    const bool manifest_match =
        rig.updater->activeManifest().has_value() &&
        reference.updater->activeManifest().has_value() &&
        rig.updater->activeManifest()->serialize() ==
            reference.updater->activeManifest()->serialize();
    const bool counter_match =
        rig.rollback.current("fw") ==
        reference.rollback.current("fw");
    cell.extras.emplace_back("bytes_match", bytes_match ? 1.0 : 0.0);
    cell.extras.emplace_back("manifest_match",
                             manifest_match ? 1.0 : 0.0);
    cell.extras.emplace_back("counter_match",
                             counter_match ? 1.0 : 0.0);
    cell.measured =
        bytes_match && manifest_match && counter_match ? 100.0 : 0.0;
    return cell;
}

TEST(LiveInstallDifferential, PlanesNeverDisagree)
{
    struct Variant
    {
        const char *label;
        uint64_t image_bytes;
        uint32_t crypto_latency;
    };
    const Variant variants[] = {
        {"8KB-c50", 8ull << 10, crypto::kPaperCryptoLatency},
        {"8KB-c102", 8ull << 10, crypto::kStrongCipherLatency},
        {"32KB-c50", 32ull << 10, crypto::kPaperCryptoLatency},
        {"32KB-c102", 32ull << 10, crypto::kStrongCipherLatency},
    };

    exp::ExperimentSpec spec;
    spec.name = "live_install_differential";
    spec.title = "Unified-plane vs pure-functional installs";
    spec.subtitle = "% of device state identical (must be 100)";
    spec.benchmarks = {"des", "aes128"};
    uint64_t seed = 0x11FE;
    for (const Variant &variant : variants) {
        const uint64_t key_seed = seed++;
        spec.addCustom(
            variant.label,
            [variant, key_seed](const std::string &bench,
                                const exp::RunOptions &) {
                return differentialCell(variant.image_bytes,
                                        variant.crypto_latency, bench,
                                        key_seed);
            });
    }

    exp::RunnerOptions runner;
    runner.threads = 2;
    const exp::Report report = exp::Runner(runner).run(spec);
    size_t checked = 0;
    for (const exp::CellResult &cell : report.cells()) {
        ASSERT_TRUE(cell.measured.has_value());
        EXPECT_DOUBLE_EQ(*cell.measured, 100.0)
            << cell.variant << "/" << cell.bench
            << ": the functional and cycle planes disagree";
        ++checked;
    }
    EXPECT_EQ(checked, 8u);
}

// ------------------------------------------------- unified verdicts

TEST(LiveInstall, OneRunRendersBothVerdicts)
{
    KeyRing ring(0x77AA);
    const UpdateBundle bundle =
        makeBundle(ring, 1, 16ull << 10, secure::CipherKind::Des);

    // Baseline: the same machine with nothing installing.
    sim::SystemConfig config =
        sim::paperConfig(secure::SecurityModel::OtpSnc);
    sim::SyntheticWorkload alone_workload(
        sim::benchmarkProfile("gcc"), config.l2.line_size);
    sim::System alone(config, alone_workload);
    alone.run(400'000);

    LiveRig rig(ring, crypto::kPaperCryptoLatency,
                liveConfig(lossyTransport()));
    rig.live->start(bundle, 0);
    rig.system->run(400'000);

    // Functional verdict from the very same run...
    ASSERT_EQ(rig.live->phase(), LiveInstallPhase::Done)
        << "install did not land within the run";
    ASSERT_TRUE(rig.live->result().has_value());
    EXPECT_TRUE(rig.live->result()->ok());
    EXPECT_TRUE(rig.live->admission()->ok());
    EXPECT_EQ(rig.rollback.current("fw"), 1u);
    EXPECT_GT(rig.live->activatedAt(), 0u);
    EXPECT_EQ(rig.live->stagedBytesWritten(),
              kSlotHeaderBytes + bundle.serialize().size());

    // ...and the cycle verdict: the install cost the foreground
    // cycles, attributed to the installer's channel agents.
    EXPECT_GT(rig.system->core().cycles(), alone.core().cycles());
    EXPECT_GT(rig.system->channel().agentBytes(rig.live->agent()), 0u);
    EXPECT_GT(rig.system->channel().agentBytes(rig.live->dmaAgent()),
              0u);
    EXPECT_GT(rig.system->channel().agentStallCycles(
                  rig.live->agent()),
              0u)
        << "an arbiter-paced install must have queued behind the "
           "foreground at least once";
    rig.system->channel().assertFullyAttributed();
}

/** Foreground cycles for a 400k-instruction gcc run under a given
 *  install regime. */
uint64_t
foregroundCycles(uint32_t crypto_latency, const char *mode)
{
    sim::SystemConfig config =
        sim::paperConfig(secure::SecurityModel::OtpSnc);
    config.protection.crypto.latency = crypto_latency;
    sim::SyntheticWorkload workload(sim::benchmarkProfile("gcc"),
                                    config.l2.line_size);
    sim::System system(config, workload);

    // Fixed pacing: the PR-4 InstallTiming replay, repeating 256KB
    // installs for the whole run.
    InstallTimingConfig itc;
    itc.line_bytes = config.l2.line_size;
    InstallTiming fixed(itc, system.channel(), system.cryptoEngine());

    // Self-throttled: the unified-plane agent, same 256KB image.
    KeyRing ring(0x5EED);
    secure::KeyTable update_keys;
    RollbackStore rollback(64);
    UpdateEngine updater(ring.vendor.publicKey(), ring.processor,
                         update_keys, rollback,
                         StagingConfig{kStagingBase, kSlotSize});
    LiveInstall live(liveConfig(fastTransport()), system, updater, 1);

    const uint64_t image_bytes = 256ull << 10;
    const bool live_mode = std::string(mode) == "live";
    uint32_t version = 1;
    if (std::string(mode) == "fixed") {
        fixed.start(InstallPlan::fromImageBytes(
                        image_bytes, config.l2.line_size),
                    0, /*repeat=*/true);
        system.attachAgent(&fixed);
    } else if (live_mode) {
        live.start(makeBundle(ring, version++, image_bytes,
                              secure::CipherKind::Des),
                   0);
        system.attachAgent(&live);
    }

    // Continuous pressure on both sides: the fixed replay repeats by
    // itself; the live agent is restarted with the next version the
    // moment an install lands, so the comparison is steady-state
    // against steady-state.
    auto run = [&](uint64_t instructions) {
        for (uint64_t ran = 0; ran < instructions; ran += 10'000) {
            system.run(10'000);
            if (live_mode && live.done()) {
                EXPECT_EQ(live.phase(), LiveInstallPhase::Done);
                live.start(makeBundle(ring, version++, image_bytes,
                                      secure::CipherKind::Des),
                           system.core().cycles());
            }
        }
    };
    run(100'000);
    system.beginMeasurement();
    run(400'000);
    return system.stats().cycles;
}

TEST(LiveInstall, ArbiterThrottlesBelowFixedPace)
{
    // The acceptance criterion: at both engine latencies, the
    // self-throttled 256KB install costs the foreground strictly
    // less than PR 4's fixed pacing.
    for (const uint32_t latency :
         {crypto::kPaperCryptoLatency, crypto::kStrongCipherLatency}) {
        const uint64_t alone = foregroundCycles(latency, "none");
        const uint64_t fixed = foregroundCycles(latency, "fixed");
        const uint64_t live = foregroundCycles(latency, "live");
        const double fixed_slowdown =
            100.0 * (static_cast<double>(fixed) /
                         static_cast<double>(alone) -
                     1.0);
        const double live_slowdown =
            100.0 * (static_cast<double>(live) /
                         static_cast<double>(alone) -
                     1.0);
        EXPECT_GT(fixed_slowdown, 0.0) << "c" << latency;
        EXPECT_GE(live_slowdown, 0.0) << "c" << latency;
        EXPECT_LT(live_slowdown, fixed_slowdown)
            << "c" << latency
            << ": the arbiter-paced install must undercut fixed "
               "pacing";
    }
}

TEST(LiveInstall, TwoInstallersOnOneChannelKeepDistinctNames)
{
    sim::SystemConfig config =
        sim::paperConfig(secure::SecurityModel::OtpSnc);
    sim::SyntheticWorkload workload(sim::benchmarkProfile("gcc"),
                                    config.l2.line_size);
    sim::System system(config, workload);

    InstallTimingConfig itc;
    itc.line_bytes = kLine;
    InstallTiming timing(itc, system.channel(), system.cryptoEngine());
    KeyRing ring(0x5EED);
    secure::KeyTable update_keys;
    RollbackStore rollback(64);
    UpdateEngine updater(ring.vendor.publicKey(), ring.processor,
                         update_keys, rollback,
                         StagingConfig{kStagingBase, kSlotSize});
    LiveInstall live(liveConfig(fastTransport()), system, updater, 1);

    // Both installers carry the one installer name; the channel keeps
    // the second distinguishable, and the DMA agent only exists for
    // the payload, registered right after its installer.
    const mem::MemoryChannel &channel = system.channel();
    EXPECT_EQ(channel.agentName(timing.agent()), kInstallerAgentName);
    EXPECT_NE(channel.agentName(live.agent()),
              channel.agentName(timing.agent()));
    EXPECT_EQ(live.dmaAgent(), live.agent() + 1);
    EXPECT_EQ(channel.agentCount(), 4u);

    // Per-agent metrics are keyed by those names: no collision.
    obs::MetricsRegistry registry;
    system.registerMetrics(registry);
    const obs::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.u64("channel.agent.installer.bytes"), 0u);
    EXPECT_EQ(snap.u64("channel.agent." +
                       channel.agentName(live.agent()) + ".bytes"),
              0u);
}

TEST(LiveInstall, SystemResetDropsInFlightWork)
{
    KeyRing ring(0xABCD);
    const UpdateBundle bundle =
        makeBundle(ring, 1, 32ull << 10, secure::CipherKind::Des);
    LiveRig rig(ring, crypto::kPaperCryptoLatency,
                liveConfig(fastTransport()));
    rig.live->start(bundle, 0);

    // Run until the slot is partially written: 500-instruction steps
    // cannot cover the whole stage stream's bus time, so the cut
    // lands mid-stage with a genuinely torn slot.
    while (rig.live->stagedBytesWritten() == 0 &&
           rig.system->core().cycles() < 2'000'000)
        rig.system->run(500);
    ASSERT_FALSE(rig.live->done());
    ASSERT_EQ(rig.live->phase(), LiveInstallPhase::Stage);
    ASSERT_LT(rig.live->stagedBytesWritten(),
              kSlotHeaderBytes + bundle.serialize().size())
        << "the cut must leave a torn slot";

    rig.system->reset();
    EXPECT_TRUE(rig.live->done()) << "reset abandons the install";
    EXPECT_EQ(rig.system->channel().backgroundQueued(), 0u);
    EXPECT_EQ(rig.system->channel().busyUntil(), 0u);
    EXPECT_EQ(rig.system->cryptoEngine().busyUntil(), 0u);
    rig.system->channel().assertFullyAttributed();

    // The device recovers: a clean functional re-install of the
    // same bundle (nothing was committed) succeeds.
    EXPECT_FALSE(rig.updater->stagedPending());
    EXPECT_TRUE(rig.updater
                    ->install(bundle, 1, rig.system->mainMemory(),
                              rig.system->virtualMemory(), 1,
                              rig.system->engine())
                    .ok());

    // And the agent can start a fresh install afterwards.
    rig.live->start(makeBundle(ring, 2, 8ull << 10,
                               secure::CipherKind::Des),
                    rig.system->core().cycles());
    EXPECT_TRUE(rig.runToCompletion());
    EXPECT_EQ(rig.live->phase(), LiveInstallPhase::Done);
}

// ------------------------------------------ one check per boundary

TEST(LiveInstall, SlotTamperedAfterItsStageWriteIsRefused)
{
    // The stage's line writes are the stage: nothing rewrites the
    // slot before activation, so a line damaged after its write
    // reaches activation's re-verify as it is, and is refused.
    for (const bool delta : {false, true}) {
        SCOPED_TRACE(delta ? "delta install" : "full install");
        KeyRing ring(0x7A3F);
        const UpdateBundle v1 =
            makeBundle(ring, 1, 32ull << 10, secure::CipherKind::Des);
        const UpdateBundle v2 = makeBundle(
            ring, 2, 32ull << 10, secure::CipherKind::Des, &v1);
        LiveRig rig(ring, crypto::kPaperCryptoLatency,
                    liveConfig(fastTransport()));
        rig.live->start(v1, 0);
        ASSERT_TRUE(rig.runToCompletion());
        ASSERT_EQ(rig.live->phase(), LiveInstallPhase::Done);
        const uint32_t v1_slot = rig.updater->activeSlot();
        const uint32_t slot = rig.updater->stagingSlot();

        const uint64_t now = rig.system->core().cycles();
        if (delta)
            rig.live->startDelta(ring.vendor.buildDelta(v1, v2), now);
        else
            rig.live->start(v2, now);
        constexpr uint64_t kWrittenLines = 4;
        while (!rig.live->done() &&
               (rig.live->phase() != LiveInstallPhase::Stage ||
                rig.live->stagedBytesWritten() < kWrittenLines * kLine))
            rig.system->run(10);
        ASSERT_EQ(rig.live->phase(), LiveInstallPhase::Stage);

        // Flip one byte of slot line 2, already written.
        const uint64_t addr = rig.updater->slotBase(slot) + 2 * kLine + 5;
        uint8_t byte = 0;
        rig.system->mainMemory().read(addr, &byte, 1);
        byte ^= 0x01;
        rig.system->mainMemory().write(addr, &byte, 1);

        ASSERT_TRUE(rig.runToCompletion());
        EXPECT_EQ(rig.live->phase(), LiveInstallPhase::Failed);
        ASSERT_TRUE(rig.live->result().has_value());
        EXPECT_EQ(rig.live->result()->status,
                  UpdateStatus::StagingCorrupt)
            << rig.live->result()->detail;
        EXPECT_EQ(rig.updater->activeSlot(), v1_slot);
        ASSERT_TRUE(rig.updater->activeManifest().has_value());
        EXPECT_EQ(rig.updater->activeManifest()->image_version, 1u);
        EXPECT_EQ(rig.rollback.current("fw"), 1u);
    }
}

/** {manifest checks, activation re-verifies}: the instants on
 *  @p sink's "update_engine" track. */
std::pair<size_t, size_t>
engineDecisions(const obs::TraceSink &sink)
{
    const util::Json doc = sink.toChromeJson();
    const util::Json &events = doc.at("traceEvents");
    uint64_t tid = 0; // no real track renders as tid 0
    for (size_t i = 0; i < events.size(); ++i) {
        const util::Json &event = events[i];
        if (event.at("ph").str() == "M" &&
            event.at("name").str() == "thread_name" &&
            event.at("args").at("name").str() == "update_engine")
            tid = event.at("tid").asU64();
    }
    std::pair<size_t, size_t> count{0, 0};
    for (size_t i = 0; i < events.size(); ++i) {
        const util::Json &event = events[i];
        if (tid == 0 || event.at("ph").str() != "i" ||
            event.at("tid").asU64() != tid)
            continue;
        count.first += event.at("name").str() == "decision.sequence_check";
        count.second +=
            event.at("name").str() == "decision.reverify_at_activation";
    }
    return count;
}

/**
 * engineDecisions() per install, counted by difference: the sink is
 * never reset.
 */
class DecisionTally
{
  public:
    explicit DecisionTally(const obs::TraceSink &sink)
        : sink_(sink), last_(engineDecisions(sink))
    {}

    /** engineDecisions() since the last take(). */
    std::pair<size_t, size_t>
    take()
    {
        const std::pair<size_t, size_t> now = engineDecisions(sink_);
        const std::pair<size_t, size_t> since{now.first - last_.first,
                                              now.second - last_.second};
        last_ = now;
        return since;
    }

  private:
    const obs::TraceSink &sink_;
    std::pair<size_t, size_t> last_;
};

TEST(LiveInstall, OneManifestCheckPerTrustBoundary)
{
    // Every install checks the signed manifest twice: at admission,
    // over the bytes that arrived, and at activation, over the slot.
    const std::pair<size_t, size_t> kTwoChecksOneReverify{2, 1};
    KeyRing ring(0x0B0D);
    const UpdateBundle v1 =
        makeBundle(ring, 1, 16ull << 10, secure::CipherKind::Des);
    const UpdateBundle v2 =
        makeBundle(ring, 2, 16ull << 10, secure::CipherKind::Des, &v1);
    const DeltaBundle delta = ring.vendor.buildDelta(v1, v2);

    LiveRig live(ring, crypto::kPaperCryptoLatency,
                 liveConfig(fastTransport()));
    obs::TraceSink live_sink;
    live.system->setTraceSink(&live_sink);
    DecisionTally live_tally(live_sink);
    live.live->start(v1, 0);
    ASSERT_TRUE(live.runToCompletion());
    ASSERT_EQ(live.live->phase(), LiveInstallPhase::Done);
    EXPECT_EQ(live_tally.take(), kTwoChecksOneReverify)
        << "live full install";
    live.live->startDelta(delta, live.system->core().cycles());
    ASSERT_TRUE(live.runToCompletion());
    ASSERT_EQ(live.live->phase(), LiveInstallPhase::Done);
    EXPECT_EQ(live_tally.take(), kTwoChecksOneReverify)
        << "live delta install";

    FunctionalRig functional(ring);
    obs::TraceSink functional_sink;
    functional.updater->setTrace(&functional_sink);
    DecisionTally functional_tally(functional_sink);
    ASSERT_TRUE(functional.updater
                    ->install(v1, 1, functional.memory, functional.vm,
                              1, *functional.engine)
                    .ok());
    EXPECT_EQ(functional_tally.take(), kTwoChecksOneReverify)
        << "functional install()";
    ASSERT_TRUE(
        functional.updater->stageDelta(delta, functional.memory).ok());
    ASSERT_TRUE(functional.updater
                    ->activate(1, functional.memory, functional.vm, 1,
                               *functional.engine)
                    .ok());
    EXPECT_EQ(functional_tally.take(), kTwoChecksOneReverify)
        << "functional stageDelta() + activate()";
}

} // namespace
