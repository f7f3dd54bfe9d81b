/**
 * @file
 * Fleet-scale staged-rollout tests: the shared OTA schedule and the
 * calibrated cost models pinned, ground-truth agreement of the
 * install cost model and the idle machine it runs on, canary halt +
 * rollback mechanics,
 * thread-count determinism, reports and ledgers pinned to recorded
 * hashes, the rollout's peak heap per device, and a million-device
 * convergence run.
 */

#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <span>
#include <string_view>
#include <vector>

#include "fleet/device.hh"
#include "fleet/rollout.hh"
#include "fleet/vendor.hh"
#include "ota/transport.hh"
#include "secure/key_table.hh"
#include "sim/profiles.hh"
#include "sim/system.hh"
#include "update/live_install.hh"
#include "update/rollback_store.hh"
#include "update/update_engine.hh"

namespace
{

/** Live heap bytes allocated through global operator new while
 *  g_heap_counting is set, and their peak. */
std::atomic<bool> g_heap_counting{false};
std::atomic<int64_t> g_heap_live{0};
std::atomic<int64_t> g_heap_peak{0};

void
countHeap(void *p, int64_t sign)
{
    if (p == nullptr || !g_heap_counting.load(std::memory_order_relaxed))
        return;
    const int64_t bytes =
        sign * static_cast<int64_t>(malloc_usable_size(p));
    const int64_t live = g_heap_live.fetch_add(bytes) + bytes;
    int64_t peak = g_heap_peak.load();
    while (live > peak && !g_heap_peak.compare_exchange_weak(peak, live)) {
    }
}

} // namespace

// The replacements stay out of line: inlined, the compiler pairs the
// malloc() and free() inside them with new and delete call sites and
// warns about mismatched allocation functions. The nothrow pair
// (std::stable_sort's buffer) is replaced too: under AddressSanitizer
// the runtime's own version would otherwise allocate what these
// deletes free.

[[gnu::noinline]] void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    void *p = std::malloc(size == 0 ? 1 : size);
    countHeap(p, 1);
    return p;
}

[[gnu::noinline]] void *
operator new(std::size_t size)
{
    if (void *p = operator new(size, std::nothrow))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    countHeap(p, -1);
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    operator delete(p);
}

[[gnu::noinline]] void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    operator delete(p);
}

using namespace secproc;
using namespace secproc::fleet;

namespace
{

/** Peak live heap bytes, above the level at entry, while @p fn runs. */
template <typename Fn>
int64_t
peakHeapDuring(Fn &&fn)
{
    g_heap_live = 0;
    g_heap_peak = 0;
    g_heap_counting = true;
    fn();
    g_heap_counting = false;
    return g_heap_peak.load();
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/** FNV-1a-64 of @p n bytes at @p data, continuing from @p hash. */
uint64_t
fnv1a(const void *data, size_t n, uint64_t hash = kFnvOffset)
{
    const auto *bytes = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < n; ++i)
        hash = (hash ^ bytes[i]) * 0x100000001b3ull;
    return hash;
}

uint64_t
fnv1a(std::string_view text)
{
    return fnv1a(text.data(), text.size());
}

/** FNV-1a-64 over every record's fields, in declaration order, at
 *  their native widths. */
uint64_t
ledgerHash(const std::vector<LedgerRecord> &ledger)
{
    uint64_t hash = kFnvOffset;
    const auto field = [&hash](const auto &value) {
        hash = fnv1a(&value, sizeof(value), hash);
    };
    for (const LedgerRecord &r : ledger) {
        field(r.device);
        field(r.release_version);
        field(r.wave);
        field(r.outcome);
        field(r.power_cut_retries);
        field(r.completed_cycle);
    }
    return hash;
}

exp::Runner
serialRunner()
{
    exp::RunnerOptions options;
    options.threads = 1;
    return exp::Runner(options);
}

exp::Runner
threadedRunner(unsigned threads)
{
    exp::RunnerOptions options;
    options.threads = threads;
    return exp::Runner(options);
}

} // namespace

// The fleet's downloads and ota::Transport run one schedule routine
// (ota::scheduleArrivals). Pin one lossy schedule per link class at
// the values recorded before the fleet's draw-for-draw replica was
// folded into it, through both the real transport and the fleet's
// clean-install prediction (a zero cost model predicts exactly the
// download, which the fleet starts at cycle 0).
TEST(FleetDevice, LinkSchedulesArePinned)
{
    struct Case
    {
        LinkClass link;
        uint64_t seed;
        uint64_t completion;
        uint64_t sent;
        uint64_t lost;
        uint64_t reordered;
        uint64_t retransmit_passes;
    };
    const Case cases[] = {
        {LinkClass::Fiber, 15, 2'336'321, 42, 2, 0, 1},
        {LinkClass::Broadband, 6, 26'720'321, 42, 2, 1, 1},
        {LinkClass::Cellular, 1, 748'000'321, 56, 16, 1, 3},
    };
    const uint64_t payload_bytes = 40'000;
    for (const Case &c : cases) {
        ota::TransportConfig config = linkTransport(c.link);
        config.seed = mixSeed(0xD0D0, c.seed);

        ota::Transport transport(config);
        transport.send(std::vector<uint8_t>(payload_bytes), 321);
        EXPECT_EQ(transport.completionCycle(), c.completion)
            << linkClassName(c.link);
        EXPECT_EQ(transport.chunksSent(), c.sent);
        EXPECT_EQ(transport.chunksLost(), c.lost);
        EXPECT_EQ(transport.chunksReordered(), c.reordered);
        EXPECT_EQ(transport.retransmitPasses(), c.retransmit_passes);

        EXPECT_EQ(predictCleanInstallCycles(InstallCostModel{}, config,
                                            payload_bytes),
                  c.completion - 321)
            << linkClassName(c.link);
    }
}

TEST(FleetDevice, TraitsArePureAndInDistributionRange)
{
    const FleetDistributions dist;
    for (uint64_t id = 0; id < 500; ++id) {
        const DeviceTraits a = deviceTraits(0xABCD, id, dist);
        const DeviceTraits b = deviceTraits(0xABCD, id, dist);
        EXPECT_EQ(deviceVariant(0xABCD, id, dist), a.hw_variant);
        EXPECT_EQ(a.seed, b.seed);
        EXPECT_EQ(a.hw_variant, b.hw_variant);
        EXPECT_EQ(a.engine_latency, b.engine_latency);
        EXPECT_EQ(a.link, b.link);
        EXPECT_EQ(a.mix, b.mix);
        EXPECT_EQ(a.power_cut_rate, b.power_cut_rate);
        EXPECT_LT(a.hw_variant, dist.variant_weights.size());
        EXPECT_TRUE(a.engine_latency == 50 ||
                    a.engine_latency == 102);
        EXPECT_GE(a.power_cut_rate, 0.0);
        EXPECT_LT(a.power_cut_rate, dist.max_power_cut_rate);
    }
}

// Calibration replays each release's plan through the one install
// pipeline on a bare channel and engine. Pin the cost models at the
// values recorded before the pipeline absorbed LiveInstall's phase
// machine: {admission read, admission signature, post-admission}.
TEST(FleetVendor, CalibratedCostModelsArePinned)
{
    VendorConfig config;
    config.image_bytes = 8 << 10;
    VendorService vendor(config);
    vendor.publish(1, 1, 1);
    const ReleaseInfo &release = vendor.publish(2, 2, 2, -1, 0.0, 0, 1);

    const auto expect = [](const InstallCostModel &cost, uint64_t read,
                           uint64_t sig, uint64_t post) {
        EXPECT_EQ(cost.admission_read_cycles, read);
        EXPECT_EQ(cost.admission_sig_cycles, sig);
        EXPECT_EQ(cost.post_admission_cycles, post);
    };
    expect(release.cost(50), 10'200, 800, 14'712);
    expect(release.cost(102), 13'736, 1'632, 20'744);
    expect(release.deltaCost(50), 12'000, 800, 14'712);
    expect(release.deltaCost(102), 16'160, 1'632, 20'744);
}

TEST(FleetVendor, QuirkGateAndLedger)
{
    VendorConfig config;
    config.image_bytes = 8 << 10;
    VendorService vendor(config);
    EXPECT_TRUE(vendor.offersVariant(0));
    EXPECT_TRUE(vendor.offersVariant(4));
    EXPECT_FALSE(vendor.offersVariant(5)); // past the quirk table
    EXPECT_FALSE(vendor.offersVariant(100));

    const ReleaseInfo &release = vendor.publish(2, 2, 2);
    EXPECT_EQ(release.version, 2u);
    EXPECT_GT(release.framed_bytes, release.image_bytes);
    EXPECT_GT(release.cost(50).total(), 0u);
    // The strong-cipher engine is strictly slower per line.
    EXPECT_GT(release.cost(102).total(),
              release.cost(50).total());

    // A wave's records are reserved up front and filled in place;
    // the next wave's land after them.
    const std::span<LedgerRecord> wave = vendor.extendLedger(1);
    ASSERT_EQ(wave.size(), 1u);
    wave[0] = LedgerRecord{7, 2, 0, InstallOutcome::Updated, 1, 12345};
    ASSERT_EQ(vendor.ledger().size(), 1u);
    EXPECT_EQ(vendor.ledger()[0].device, 7u);
    EXPECT_EQ(vendor.extendLedger(2).size(), 2u);
    ASSERT_EQ(vendor.ledger().size(), 3u);
    EXPECT_EQ(vendor.ledger()[0].completed_cycle, 12345u);
    EXPECT_EQ(vendor.ledger()[2].device, 0u);

    // CDN dispatch is a closed form over queue position — shard
    // and thread scheduling cannot reorder it.
    EXPECT_EQ(vendor.dispatchCycle(1000, 0, 5), 1005u);
    EXPECT_EQ(vendor.dispatchCycle(1000, 3, 5),
              1005u + 3 * config.cdn_service_cycles);
}

// Acceptance: the embedded full-machine LiveInstall devices must
// agree with the lightweight cost model within the documented
// tolerance, and their installs must functionally activate.
TEST(FleetRollout, GroundTruthWithinDocumentedTolerance)
{
    FleetConfig config;
    config.devices = 2'000;
    config.vendor.image_bytes = 16 << 10;
    const exp::Runner runner = serialRunner();
    FleetSimulator sim(config, RolloutPolicy::canaryStaged(),
                       runner);
    const RolloutResult result = sim.run();

    ASSERT_EQ(result.ground_truth.size(), 3u);
    for (const GroundTruthReport &gt : result.ground_truth) {
        EXPECT_TRUE(gt.functional_ok)
            << "device " << gt.device << " did not activate";
        EXPECT_GT(gt.predicted_cycles, 0u);
        EXPECT_GT(gt.measured_cycles, 0u);
        EXPECT_LE(gt.rel_error, kGroundTruthTolerance)
            << "device " << gt.device << " ("
            << gt.engine_latency << "c, "
            << linkClassName(gt.link) << "): predicted "
            << gt.predicted_cycles << " vs measured "
            << gt.measured_cycles;
        EXPECT_TRUE(gt.within_tolerance);
    }
}

/** What one ground-truth install leaves behind on its machine. */
struct GroundTruthRun
{
    uint64_t install_cycles = 0;
    std::vector<uint64_t> phase_cycles;
    uint64_t activated_at = 0;
    uint64_t staged_bytes = 0;
    bool ok = false;
    std::vector<uint8_t> active_slot;
    uint64_t update_bytes = 0;
    uint64_t total_bytes = 0;
};

/** Run a ground-truth device's install of @p release on @p system,
 *  with runGroundTruth's settings. */
GroundTruthRun
groundTruthInstall(sim::System &system, const VendorService &vendor,
                   const ReleaseInfo &release, LinkClass link,
                   bool via_delta)
{
    secure::KeyTable keys;
    update::RollbackStore rollback(64);
    update::UpdateEngine updater(
        vendor.vendorPublicKey(), vendor.deviceClassKey(), keys,
        rollback, update::StagingConfig{0x4000'0000, 8ull << 20});

    update::LiveInstallConfig live_config;
    live_config.line_bytes = 128; // paperConfig's L2 line
    live_config.pacing = update::InstallPacing::Fixed;
    live_config.transport = linkTransport(link);
    live_config.transport.seed = 0x6077;
    update::LiveInstall live(live_config, system, updater, 1);
    system.attachAgent(&live);

    if (via_delta) {
        const ReleaseInfo &base =
            vendor.release(release.delta_base_version);
        EXPECT_TRUE(updater.stage(base.bundle, system.mainMemory()).ok());
        EXPECT_TRUE(updater
                        .activate(1, system.mainMemory(),
                                  system.virtualMemory(),
                                  update::kLiveImageAsid, system.engine())
                        .ok());
        live.startDelta(release.delta, 0);
    } else {
        live.start(release.bundle, 0);
    }
    live.replay();

    GroundTruthRun run;
    run.install_cycles = live.installCycles();
    for (const auto phase :
         {update::LiveInstallPhase::Admission,
          update::LiveInstallPhase::Stage,
          update::LiveInstallPhase::Reverify,
          update::LiveInstallPhase::Load,
          update::LiveInstallPhase::Attest})
        run.phase_cycles.push_back(live.phaseCycles(phase));
    run.activated_at = live.activatedAt();
    run.staged_bytes = live.stagedBytesWritten();
    run.ok = live.result().has_value() && live.result()->ok();
    const uint32_t slot = updater.activeSlot();
    run.active_slot.resize(
        updater.framedExtent(slot, system.mainMemory()).value_or(0));
    system.mainMemory().read(updater.slotBase(slot),
                             run.active_slot.data(),
                             run.active_slot.size());
    run.update_bytes = system.channel().updateBytes();
    run.total_bytes = system.channel().totalBytes();
    return run;
}

// A ground-truth install replays on its own clock and the foreground
// never runs, so the idle machine runGroundTruth builds must measure
// exactly what a loaded gcc OTP+SNC machine measures, in every engine
// latency x link x {full bundle, delta} cell.
TEST(FleetRollout, GroundTruthIdleMachineMatchesLoadedMachine)
{
    VendorService vendor(VendorConfig{});
    vendor.publish(1, 1, 1);
    const ReleaseInfo &release = vendor.publish(2, 2, 2, -1, 0.0, 0, 1);

    for (const uint32_t latency : {50u, 102u}) {
        sim::SystemConfig config =
            sim::paperConfig(secure::SecurityModel::OtpSnc);
        config.protection.crypto.latency = latency;
        for (const LinkClass link :
             {LinkClass::Fiber, LinkClass::Broadband,
              LinkClass::Cellular}) {
            for (const bool via_delta : {false, true}) {
                SCOPED_TRACE(::testing::Message()
                             << latency << "c " << linkClassName(link)
                             << (via_delta ? " delta" : " full"));
                sim::SyntheticWorkload gcc(sim::benchmarkProfile("gcc"),
                                           config.l2.line_size);
                sim::System loaded(config, gcc);
                sim::System idle(config, std::vector<sim::TaskSpec>{});
                const GroundTruthRun want = groundTruthInstall(
                    loaded, vendor, release, link, via_delta);
                const GroundTruthRun got = groundTruthInstall(
                    idle, vendor, release, link, via_delta);

                EXPECT_TRUE(want.ok);
                EXPECT_TRUE(got.ok);
                EXPECT_GT(got.install_cycles, 0u);
                EXPECT_EQ(got.install_cycles, want.install_cycles);
                EXPECT_EQ(got.phase_cycles, want.phase_cycles);
                EXPECT_EQ(got.activated_at, want.activated_at);
                EXPECT_EQ(got.staged_bytes, want.staged_bytes);
                EXPECT_FALSE(got.active_slot.empty());
                EXPECT_EQ(got.active_slot, want.active_slot);
                EXPECT_EQ(got.update_bytes, want.update_bytes);
                EXPECT_EQ(got.total_bytes, want.total_bytes);
            }
        }
    }
}

// Delta shipping: devices still on the factory firmware ride the
// small delta stream, so the rollout's downlink total must shrink
// against the everyone-gets-the-full-bundle counterfactual — and the
// embedded ground-truth machines prove the delta cost model against
// a real delta LiveInstall, to the same tolerance as the full path.
TEST(FleetRollout, DeltaWavesShipFewerBytesAndStayGrounded)
{
    FleetConfig config;
    config.devices = 2'000;
    config.vendor.image_bytes = 16 << 10;
    config.ship_deltas = true;
    const exp::Runner runner = serialRunner();
    FleetSimulator sim(config, RolloutPolicy::canaryStaged(),
                       runner);
    const RolloutResult result = sim.run();

    EXPECT_TRUE(result.converged);
    EXPECT_GT(result.delta_installs, 0u);
    EXPECT_LT(result.transport_bytes, result.transport_bytes_full)
        << "the delta stream saved nothing over full bundles";
    for (const WaveStats &wave : result.waves) {
        if (wave.delta_installs == 0)
            continue;
        EXPECT_LT(wave.transport_bytes, wave.transport_bytes_full)
            << "a delta-serving wave must carry fewer bytes";
    }

    ASSERT_EQ(result.ground_truth.size(), 3u);
    bool any_via_delta = false;
    for (const GroundTruthReport &gt : result.ground_truth) {
        EXPECT_TRUE(gt.functional_ok)
            << "device " << gt.device << " did not activate";
        EXPECT_TRUE(gt.within_tolerance)
            << "device " << gt.device << ": predicted "
            << gt.predicted_cycles << " vs measured "
            << gt.measured_cycles;
        any_via_delta |= gt.via_delta;
    }
    EXPECT_TRUE(any_via_delta)
        << "no ground-truth machine exercised the delta path";

    // The flag off reproduces the classic full-bundle rollout: no
    // delta traffic, and the same devices land on the release.
    FleetConfig classic = config;
    classic.ship_deltas = false;
    const RolloutResult full =
        FleetSimulator(classic, RolloutPolicy::canaryStaged(), runner)
            .run();
    EXPECT_EQ(full.delta_installs, 0u);
    EXPECT_EQ(full.transport_bytes, full.transport_bytes_full);
    EXPECT_TRUE(full.converged);
    EXPECT_EQ(full.updated, result.updated);
}

// Acceptance: a fault-heavy release must trip the automatic canary
// halt and the rollback wave must clear every device off the pulled
// release.
TEST(FleetRollout, FaultyReleaseHaltsCanaryAndRollsBack)
{
    const FleetScenario scenario = fleetScenarioFaulty();
    FleetConfig config;
    config.devices = 60'000;
    config.vendor.image_bytes = 16 << 10;
    config.dist = scenario.dist;
    const exp::Runner runner = threadedRunner(4);
    FleetSimulator sim(config, RolloutPolicy::canaryStaged(),
                       runner);
    const RolloutResult result = sim.run(
        scenario.defective_variant, scenario.defect_rate);

    // The canary wave itself must have tripped the halt...
    ASSERT_GE(result.waves.size(), 2u);
    EXPECT_TRUE(result.waves.front().halted_after);
    EXPECT_GE(result.waves.front().failure_rate,
              RolloutPolicy::canaryStaged().failure_threshold);
    EXPECT_EQ(result.halts, 1u);

    // ...the rollout must never have expanded past it...
    EXPECT_EQ(result.waves.size(), 2u);
    const WaveStats &rollback = result.waves.back();
    EXPECT_EQ(rollback.kind, "rollback");
    EXPECT_EQ(result.rollback_waves, 1u);
    // ...and the rollback wave re-targets exactly the devices the
    // pulled release reached.
    EXPECT_EQ(rollback.offered, result.waves.front().offered);
    EXPECT_EQ(rollback.failed, 0u);

    // Nobody is left on the pulled release (version 2), and the
    // rollback counter marched forward (version 3, counter 3 — not
    // a re-offer of version 1).
    EXPECT_EQ(result.final_version_counts.count(2), 0u);
    EXPECT_EQ(result.final_version_counts.at(3),
              rollback.offered);
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(sim.vendor().release(3).rollback_counter, 3u);
    EXPECT_EQ(sim.vendor().release(3).rollback_of, 2u);
    EXPECT_EQ(sim.vendor().release(3).payload_version, 1u);
}

TEST(FleetRollout, BitIdenticalAcrossThreadCountsAndRuns)
{
    const auto rollout = [](unsigned threads) {
        FleetConfig config;
        config.devices = 20'000;
        config.vendor.image_bytes = 16 << 10;
        const exp::Runner runner = threadedRunner(threads);
        FleetSimulator sim(config, RolloutPolicy::canaryStaged(),
                           runner);
        const RolloutResult result = sim.run();
        return std::make_pair(result.toJson().dump(2),
                              sim.vendor().ledger());
    };

    const auto serial = rollout(1);
    const auto threaded = rollout(4);
    const auto repeat = rollout(4);

    // Same seed, any thread count, any run: byte-identical report.
    EXPECT_EQ(serial.first, threaded.first);
    EXPECT_EQ(threaded.first, repeat.first);

    // The install-history ledger is part of the guarantee too.
    ASSERT_EQ(serial.second.size(), threaded.second.size());
    for (size_t i = 0; i < serial.second.size(); ++i) {
        const LedgerRecord &a = serial.second[i];
        const LedgerRecord &b = threaded.second[i];
        EXPECT_EQ(a.device, b.device);
        EXPECT_EQ(a.release_version, b.release_version);
        EXPECT_EQ(a.wave, b.wave);
        EXPECT_EQ(a.outcome, b.outcome);
        EXPECT_EQ(a.power_cut_retries, b.power_cut_retries);
        EXPECT_EQ(a.completed_cycle, b.completed_cycle);
    }
}

// The determinism test above compares a build only with itself. Pin
// the report and the install-history ledger of two rollouts — a
// faulty one that halts and rolls back, a healthy one shipping
// deltas — at the values recorded before the population stopped
// being stored, so a change that shifts every run alike shows too.
TEST(FleetRollout, ReportsAndLedgersArePinned)
{
    struct Case
    {
        FleetScenario scenario;
        bool ship_deltas;
        uint64_t report_hash;
        uint64_t ledger_hash;
        size_t records;
    };
    const Case cases[] = {
        {fleetScenarioFaulty(), false, 0xf1a5970287dbd44c,
         0x5d0e6d1aadf699db, 194},
        {fleetScenarioHealthy(), true, 0xc7090f27034558c1,
         0xed3187619746b9e3, 19386},
    };
    const exp::Runner runner = threadedRunner(4);
    for (const Case &c : cases) {
        FleetConfig config;
        config.devices = 20'000;
        config.vendor.image_bytes = 16 << 10;
        config.dist = c.scenario.dist;
        config.ship_deltas = c.ship_deltas;
        FleetSimulator sim(config, RolloutPolicy::canaryStaged(),
                           runner);
        const RolloutResult result = sim.run(
            c.scenario.defective_variant, c.scenario.defect_rate);
        EXPECT_EQ(fnv1a(result.toJson().dump()), c.report_hash)
            << c.scenario.name;
        EXPECT_EQ(sim.vendor().ledger().size(), c.records)
            << c.scenario.name;
        EXPECT_EQ(ledgerHash(sim.vendor().ledger()), c.ledger_hash)
            << c.scenario.name;
    }
}

// The population is a pure function of (fleet seed, device id): a
// rollout stores per device only its 8-byte DeviceState, its eligible
// id and, once a wave serves it, its 24-byte ledger record. The bounds
// on run()'s peak heap per device sit above that (55.9 B faulty, 88.7 B
// healthy-delta; mostly the per-shard histograms, 4 MB per wave) and
// below storing each device's traits and copying every wave into
// member and per-shard ledger lists (118.6 B and 167.4 B).
TEST(FleetRollout, PeakHeapPerDeviceIsBounded)
{
    struct Case
    {
        FleetScenario scenario;
        bool ship_deltas;
        double max_bytes_per_device;
    };
    const Case cases[] = {
        {fleetScenarioFaulty(), false, 80.0},
        {fleetScenarioHealthy(), true, 120.0},
    };
    const exp::Runner runner = serialRunner();
    for (const Case &c : cases) {
        FleetConfig config;
        config.devices = 100'000;
        config.dist = c.scenario.dist;
        config.ship_deltas = c.ship_deltas;
        config.ground_truth_devices = 0;
        FleetSimulator sim(config, RolloutPolicy::canaryStaged(),
                           runner);
        const int64_t peak = peakHeapDuring([&] {
            EXPECT_TRUE(sim.run(c.scenario.defective_variant,
                                c.scenario.defect_rate)
                            .converged);
        });
        const double per_device = static_cast<double>(peak) /
                                  static_cast<double>(config.devices);
        EXPECT_LE(per_device, c.max_bytes_per_device)
            << c.scenario.name << " peaked at " << peak << " B";
    }
}

// Device ids are 32-bit throughout the rollout: a larger fleet is
// refused before anything is built, and the largest one that fits is
// accepted.
TEST(FleetRolloutDeathTest, RejectsFleetsWhoseIdsDoNotFit32Bits)
{
    const exp::Runner runner = serialRunner();
    FleetConfig config;
    config.devices = (uint64_t{1} << 32) + 1;
    EXPECT_DEATH_IF_SUPPORTED(
        {
            FleetSimulator sim(config, RolloutPolicy::canaryStaged(),
                               runner);
            (void)sim;
        },
        "32-bit");

    config.devices = uint64_t{1} << 32;
    FleetSimulator largest(config, RolloutPolicy::canaryStaged(),
                           runner);
    (void)largest;
}

// Acceptance: a million-device staged rollout completes on one
// machine through the sharded Runner.
TEST(FleetRollout, MillionDeviceRolloutConverges)
{
    FleetConfig config;
    config.devices = 1'000'000;
    config.vendor.image_bytes = 32 << 10;
    const exp::Runner runner = threadedRunner(4);
    FleetSimulator sim(config, RolloutPolicy::canaryStaged(),
                       runner);
    const RolloutResult result = sim.run();

    EXPECT_EQ(result.devices, 1'000'000u);
    EXPECT_EQ(result.eligible + result.skipped_no_quirk,
              result.devices);
    // ~3% of the population is past the vendor's quirk table.
    EXPECT_GT(result.skipped_no_quirk, 0u);

    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.updated, result.eligible);
    EXPECT_EQ(result.failed_health, 0u);
    EXPECT_EQ(result.halts, 0u);
    // 0.5% canary at x4 growth needs at least 5 waves to cover the
    // fleet.
    EXPECT_GE(result.waves.size(), 5u);
    EXPECT_EQ(result.device_hours.totalSamples(), result.updated);
    EXPECT_GT(result.device_hours.percentile(0.99), 0.0);
    EXPECT_EQ(
        result.final_version_counts.at(2) +
            result.final_version_counts.at(1),
        result.devices);
    EXPECT_EQ(sim.vendor().ledger().size(), result.eligible);
}
