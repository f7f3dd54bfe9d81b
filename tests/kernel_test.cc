/**
 * @file
 * Scheduling-kernel tests: the event kernel against the legacy
 * every-step pump, and the arbiter's starvation-bound event estimate
 * the event kernel's wakeups rely on.
 *
 * Every cell runs one machine twice — once per KernelMode — and
 * requires the two runs to agree on everything observable: the full
 * stats dump, every install step's cycles, the install's timing and
 * staged bytes, a second installer's progress and the bytes left in
 * the active slot. The cells cover both install pacings, clean runs
 * and power cuts, a lone live install and one sharing the channel
 * with a repeating second installer, plus one delta install.
 */

#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "mem/memory_channel.hh"
#include "ota/transport.hh"
#include "sim/profiles.hh"
#include "sim/system.hh"
#include "update/image_builder.hh"
#include "update/install_timing.hh"
#include "update/live_install.hh"
#include "update/update_engine.hh"

namespace
{

using namespace secproc;
using namespace secproc::update;

constexpr uint32_t kLine = 128;
constexpr uint64_t kStagingBase = 0x4000'0000;
constexpr uint64_t kSlotSize = 1ull << 20;
constexpr uint64_t kImageBase = 0x0800'0000;
constexpr uint64_t kImageBytes = 64ull << 10;
/** Instructions per System::run() call while driving a cell. */
constexpr uint64_t kRunChunk = 10'000;
/** Instructions into the install at which a power cut lands. */
constexpr uint64_t kCutAfter = 20'000;

/** Vendor and processor keys, a base release, its successor and the
 *  delta between them. Built once: RSA keygen dominates otherwise. */
struct Releases
{
    util::Rng rng{0x4E12};
    ImageBuilder vendor{crypto::rsaGenerate(512, rng)};
    crypto::RsaKeyPair processor{crypto::rsaGenerate(512, rng)};
    UpdateBundle base;
    UpdateBundle next;
    DeltaBundle delta;
};

xom::PlainProgram
firmware(uint32_t version)
{
    xom::PlainProgram program;
    program.title = "fw";
    program.entry_point = kImageBase;
    xom::PlainProgram::PlainSection text;
    text.name = ".text";
    text.vaddr = kImageBase;
    text.bytes.resize(kImageBytes);
    util::Rng fill(0xF111);
    for (uint8_t &byte : text.bytes)
        byte = static_cast<uint8_t>(fill.nextRange(256));
    // Each later version rewrites every tenth KB.
    for (uint64_t off = 0; version > 1 && off < kImageBytes;
         off += 10 * 1024) {
        for (uint64_t i = off; i < off + 1024; ++i)
            text.bytes[i] ^= static_cast<uint8_t>(version);
    }
    program.sections = {text};
    return program;
}

const Releases &
releases()
{
    static const Releases built = [] {
        Releases r;
        UpdateSpec spec;
        spec.line_size = kLine;
        // Same key stream for both builds, so the delta stays small.
        util::Rng base_rng(0xBA5E);
        r.base = r.vendor.build(firmware(1), spec, r.processor.pub,
                                base_rng);
        spec.image_version = 2;
        spec.rollback_counter = 2;
        spec.base_digest = sha256DigestOfImage(r.base.image);
        util::Rng next_rng(0xBA5E);
        r.next = r.vendor.build(firmware(2), spec, r.processor.pub,
                                next_rng);
        r.delta = r.vendor.buildDelta(r.base, r.next);
        return r;
    }();
    return built;
}

/** One machine configuration run under both kernels. */
struct Cell
{
    std::string name;
    InstallPacing pacing = InstallPacing::Arbiter;
    bool power_cut = false;
    bool second_installer = false;
    bool delta = false;
};

/** gtest names a failing cell by this instead of its raw bytes. */
void
PrintTo(const Cell &cell, std::ostream *os)
{
    *os << cell.name;
}

/** Everything a cell compares across kernels. */
struct Outcome
{
    std::string stats;
    std::array<uint64_t, kInstallSteps> live_steps{};
    std::array<uint64_t, kInstallSteps> second_steps{};
    uint64_t install_cycles = 0;
    uint64_t activated_at = 0;
    uint64_t staged_bytes = 0;
    uint64_t second_installs = 0;
    std::vector<uint8_t> active_slot;
    LiveInstallPhase phase = LiveInstallPhase::Idle;
};

/** A 64 KB bundle over a downlink with 5% loss in bursts of two. */
ota::TransportConfig
lossyDownlink()
{
    ota::TransportConfig transport;
    transport.chunk_bytes = 1024;
    transport.cycles_per_chunk = 256;
    transport.loss_rate = 0.05;
    transport.burst_length = 2.0;
    transport.seed = 0x10551;
    return transport;
}

Outcome
runCell(const Cell &cell, sim::KernelMode mode)
{
    const Releases &rel = releases();
    const sim::SystemConfig config =
        sim::paperConfig(secure::SecurityModel::OtpSnc);
    sim::SyntheticWorkload workload(sim::benchmarkProfile("mcf"),
                                    config.l2.line_size);
    sim::System system(config, workload);
    system.setKernelMode(mode);

    secure::KeyTable update_keys;
    RollbackStore rollback(64);
    UpdateEngine updater(rel.vendor.publicKey(), rel.processor,
                         update_keys, rollback,
                         StagingConfig{kStagingBase, kSlotSize});

    InstallTimingConfig itc;
    itc.line_bytes = kLine;
    itc.pacing = cell.pacing;
    itc.transport = lossyDownlink();
    LiveInstall live(itc, system, updater, 1);
    system.attachAgent(&live);
    std::optional<InstallTiming> second;
    if (cell.second_installer) {
        second.emplace(itc, system.channel(), system.cryptoEngine());
        system.attachAgent(&*second);
    }

    if (cell.delta) {
        EXPECT_TRUE(updater
                        .install(rel.base, 1, system.mainMemory(),
                                 system.virtualMemory(), 1,
                                 system.engine())
                        .ok());
    }
    const UpdateBundle &target = cell.delta ? rel.next : rel.base;
    auto start = [&] {
        const uint64_t now = system.core().cycles();
        if (cell.delta)
            live.startDelta(rel.delta, now);
        else
            live.start(target, now);
        if (second) {
            second->start(InstallPlan::fromImageBytes(16ull << 10, kLine),
                          now, /*repeat=*/true);
        }
    };

    start();
    if (cell.power_cut) {
        system.run(kCutAfter);
        EXPECT_FALSE(live.done()) << "the cut must land mid-install";
        system.reset();
        start();
    }
    for (int chunk = 0; chunk < 2000 && !live.done(); ++chunk)
        system.run(kRunChunk);

    Outcome out;
    std::ostringstream stats;
    system.dumpStats(stats);
    out.stats = stats.str();
    for (size_t i = 0; i < kInstallSteps; ++i) {
        const auto step = static_cast<InstallStep>(i);
        out.live_steps[i] = live.stepCycles(step);
        if (second)
            out.second_steps[i] = second->stepCycles(step);
    }
    out.install_cycles = live.installCycles();
    out.activated_at = live.activatedAt();
    out.staged_bytes = live.stagedBytesWritten();
    out.second_installs = second ? second->installsCompleted() : 0;
    out.phase = live.phase();
    out.active_slot.resize(kSlotHeaderBytes + target.serializedSize());
    system.mainMemory().read(updater.slotBase(updater.activeSlot()),
                             out.active_slot.data(),
                             out.active_slot.size());
    return out;
}

class KernelEquivalence : public ::testing::TestWithParam<Cell>
{};

TEST_P(KernelEquivalence, EventMatchesLegacy)
{
    const Cell &cell = GetParam();
    const Outcome legacy = runCell(cell, sim::KernelMode::Legacy);
    const Outcome event = runCell(cell, sim::KernelMode::Event);

    EXPECT_EQ(legacy.phase, LiveInstallPhase::Done);
    EXPECT_EQ(event.phase, LiveInstallPhase::Done);
    EXPECT_EQ(event.stats, legacy.stats);
    EXPECT_EQ(event.live_steps, legacy.live_steps);
    EXPECT_EQ(event.second_steps, legacy.second_steps);
    EXPECT_EQ(event.install_cycles, legacy.install_cycles);
    EXPECT_EQ(event.activated_at, legacy.activated_at);
    EXPECT_EQ(event.staged_bytes, legacy.staged_bytes);
    EXPECT_EQ(event.second_installs, legacy.second_installs);
    EXPECT_TRUE(event.active_slot == legacy.active_slot)
        << "active slot bytes differ between kernels";
    if (cell.second_installer) {
        EXPECT_GT(legacy.second_installs, 0u);
    }
}

std::vector<Cell>
cells()
{
    std::vector<Cell> out;
    for (const InstallPacing pacing :
         {InstallPacing::Fixed, InstallPacing::Arbiter}) {
        for (const bool cut : {false, true}) {
            for (const bool second : {false, true}) {
                out.push_back(
                    {std::string(installPacingName(pacing)) +
                         (cut ? "_cut" : "_clean") +
                         (second ? "_second" : "_alone"),
                     pacing, cut, second, false});
            }
        }
    }
    out.push_back({"arbiter_delta", InstallPacing::Arbiter, false, false,
                   true});
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    Cells, KernelEquivalence, ::testing::ValuesIn(cells()),
    [](const ::testing::TestParamInfo<Cell> &info) {
        return info.param.name;
    });

/**
 * The arbiter's event estimate: with the bus saturated by foreground
 * reads, a queued background transaction's only threshold is the
 * starvation bound — nextArbiterEventCycle() must report exactly
 * request_cycle + bg_starvation_bound, polls before that cycle must
 * not grant, and the poll at that cycle must (as a forced grant).
 */
TEST(ArbiterEventTest, StarvationBoundFiresExactly)
{
    mem::ChannelConfig config;
    config.access_latency = 100;
    config.transfer_cycles = 16;
    config.bg_starvation_bound = 512;
    mem::MemoryChannel channel(config);
    const mem::AgentId agent = channel.registerAgent("bg");

    // Saturate the bus far past the horizon of interest so no idle
    // gap ever fits the background transfer.
    for (int i = 0; i < 200; ++i)
        channel.scheduleRead(0, mem::Traffic::DataFill);

    const uint64_t request = 100;
    ASSERT_GT(channel.busyUntil(), request +
                                       config.bg_starvation_bound +
                                       config.transfer_cycles);
    channel.requestBackground(request, mem::Traffic::UpdateFill,
                              /*write=*/false, /*small=*/false, 0,
                              agent);
    const uint64_t deadline = request + config.bg_starvation_bound;
    EXPECT_EQ(channel.nextArbiterEventCycle(), deadline);

    EXPECT_FALSE(channel.pollBackground(agent, deadline - 1).has_value())
        << "granted before the starvation bound expired";
    EXPECT_EQ(channel.backgroundForcedGrants(), 0u);

    const auto done = channel.pollBackground(agent, deadline);
    ASSERT_TRUE(done.has_value())
        << "starvation-bound grant did not fire at the deadline";
    EXPECT_EQ(channel.backgroundForcedGrants(), 1u);
    EXPECT_GE(*done, deadline);
}

} // namespace
