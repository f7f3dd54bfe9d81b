/**
 * @file
 * Fleet-scale staged-rollout tests: the shared OTA schedule and the
 * calibrated cost models pinned, the device sampler's draws against
 * the per-device double comparisons it replaced, ground-truth
 * agreement of the install cost model and the idle machine it runs
 * on, canary halt + rollback mechanics,
 * thread-count determinism, reports and ledgers pinned to recorded
 * hashes, the rollout's peak heap per device, and a million-device
 * convergence run.
 */

#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <limits>
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
    const DeviceSampler sampler(dist);
    for (uint64_t id = 0; id < 500; ++id) {
        const DeviceTraits a = sampler.traits(0xABCD, id);
        const DeviceTraits b = DeviceSampler(dist).traits(0xABCD, id);
        EXPECT_EQ(sampler.variant(0xABCD, id), a.hw_variant);
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

namespace
{

/** The variant pick before DeviceSampler: @p u (a nextDouble() draw)
 *  times the weight total, minus each weight in turn until it goes
 *  negative. */
uint32_t
referenceVariant(double u, const FleetDistributions &dist)
{
    double total = 0.0;
    for (const double w : dist.variant_weights)
        total += w;
    double pick = u * total;
    for (size_t i = 0; i < dist.variant_weights.size(); ++i) {
        pick -= dist.variant_weights[i];
        if (pick < 0.0)
            return static_cast<uint32_t>(i);
    }
    return static_cast<uint32_t>(dist.variant_weights.size()) - 1;
}

/** A device's traits as drawn before DeviceSampler: each trait a
 *  nextDouble() comparison against the distributions' doubles. */
DeviceTraits
referenceTraits(uint64_t fleet_seed, uint64_t device_id,
                const FleetDistributions &dist)
{
    util::Rng rng(mixSeed(fleet_seed, device_id));

    DeviceTraits traits;
    traits.seed = mixSeed(fleet_seed ^ 0xF1EE7DEC1CEull, device_id);
    traits.hw_variant = referenceVariant(rng.nextDouble(), dist);
    traits.engine_latency =
        rng.chance(dist.strong_cipher_fraction) ? 102u : 50u;

    const double link = rng.nextDouble();
    traits.link = link < dist.fiber_fraction ? LinkClass::Fiber
                  : link < dist.fiber_fraction + dist.cellular_fraction
                      ? LinkClass::Cellular
                      : LinkClass::Broadband;

    const double mix = rng.nextDouble();
    traits.mix = mix < dist.idle_fraction ? WorkloadMix::Idle
                 : mix < dist.idle_fraction + dist.heavy_fraction
                     ? WorkloadMix::Heavy
                     : WorkloadMix::Office;

    traits.power_cut_rate = rng.nextDouble() * dist.max_power_cut_rate;
    return traits;
}

/** Distributions whose variant starts and thresholds sit at edges:
 *  zero-weight variants, one variant, a tiny weight, subnormal-scale
 *  and huge weights, fractions of 0 and 1, and the lossy scenario. */
std::vector<FleetDistributions>
edgeDistributions()
{
    std::vector<FleetDistributions> dists(7);
    dists[1].variant_weights = {0, 1, 0, 2, 0};
    dists[2].variant_weights = {1};
    dists[3].variant_weights = {3, 1e-9, 7};
    dists[3].strong_cipher_fraction = 0.0;
    dists[4].variant_weights = {1e-300, 1e-300, 5e-301};
    dists[4].strong_cipher_fraction = 1.0;
    dists[4].fiber_fraction = 0.0;
    dists[4].cellular_fraction = 1.0;
    dists[5] = fleetScenarioLossy().dist;
    dists[6].variant_weights = {1e300, 1e300};
    return dists;
}

} // namespace

// The sampler draws against precomputed integer starts and
// thresholds; every trait of every device must be the one the
// per-device double comparisons drew.
TEST(FleetDevice, SamplerMatchesReferenceDraws)
{
    constexpr uint64_t kSeed = 0xF1EE7'5EED;
    constexpr uint64_t kDevices = 200'000;
    const std::vector<FleetDistributions> dists = edgeDistributions();
    for (size_t d = 0; d < dists.size(); ++d) {
        const DeviceSampler sampler(dists[d]);
        uint64_t mismatches = 0;
        uint64_t first = 0;
        for (uint64_t id = 0; id < kDevices; ++id) {
            const DeviceTraits want = referenceTraits(kSeed, id, dists[d]);
            const DeviceTraits got = sampler.traits(kSeed, id);
            const bool same =
                got.seed == want.seed &&
                got.hw_variant == want.hw_variant &&
                got.engine_latency == want.engine_latency &&
                got.link == want.link && got.mix == want.mix &&
                got.power_cut_rate == want.power_cut_rate &&
                sampler.variant(kSeed, id) == want.hw_variant;
            if (!same && mismatches++ == 0)
                first = id;
        }
        EXPECT_EQ(mismatches, 0u)
            << "distribution " << d << ", first at device " << first;
    }
}

// Each documented variant start s is the least 53-bit draw selecting
// a variant of at least i: the reference pick is below i at s - 1
// and at least i at s.
TEST(FleetDevice, VariantStartsAreTheLeastSelectingDraws)
{
    for (const FleetDistributions &dist : edgeDistributions()) {
        const DeviceSampler sampler(dist);
        const std::span<const uint64_t> starts = sampler.variantStarts();
        ASSERT_EQ(starts.size(), dist.variant_weights.size() - 1);
        for (size_t i = 1; i <= starts.size(); ++i) {
            const uint64_t s = starts[i - 1];
            ASSERT_LE(s, util::Rng::kDrawSpan);
            if (i > 1) {
                EXPECT_GE(s, starts[i - 2]);
            }
            if (s > 0) {
                EXPECT_LT(referenceVariant(
                              static_cast<double>(s - 1) * 0x1.0p-53,
                              dist),
                          i)
                    << "start " << i << " = " << s;
            }
            if (s < util::Rng::kDrawSpan) {
                EXPECT_GE(referenceVariant(
                              static_cast<double>(s) * 0x1.0p-53, dist),
                          i)
                    << "start " << i << " = " << s;
            }
        }
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

// Distributions no fleet can be drawn from are refused by the
// simulator's constructor, before the vendor service is built; the
// worked scenarios' distributions are accepted.
TEST(FleetRolloutDeathTest, RejectsDistributionsNoFleetCanBeDrawnFrom)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    struct Case
    {
        FleetDistributions dist;
        const char *message;
    };
    std::vector<Case> cases;
    const auto add = [&cases](const char *message, auto &&edit) {
        FleetDistributions dist;
        edit(dist);
        cases.push_back({dist, message});
    };
    const char *weights = "variant weights";
    add(weights, [&](FleetDistributions &d) { d.variant_weights = {nan, 1}; });
    add(weights, [](FleetDistributions &d) { d.variant_weights = {1, -0.5}; });
    add(weights, [&](FleetDistributions &d) { d.variant_weights = {inf, 1}; });
    add(weights, [](FleetDistributions &d) { d.variant_weights = {0, 0}; });
    add(weights, [](FleetDistributions &d) { d.variant_weights = {}; });
    add(weights,
        [](FleetDistributions &d) { d.variant_weights = {1e308, 1e308}; });
    const char *strong = "strong-cipher fraction";
    add(strong, [](FleetDistributions &d) { d.strong_cipher_fraction = -0.1; });
    add(strong, [](FleetDistributions &d) { d.strong_cipher_fraction = 1.5; });
    add(strong, [&](FleetDistributions &d) { d.strong_cipher_fraction = nan; });
    const char *link = "link fractions";
    add(link, [](FleetDistributions &d) { d.fiber_fraction = -0.1; });
    add(link, [&](FleetDistributions &d) { d.cellular_fraction = nan; });
    add(link, [](FleetDistributions &d) {
        d.fiber_fraction = 0.6;
        d.cellular_fraction = 0.5;
    });
    const char *mix = "workload-mix fractions";
    add(mix, [](FleetDistributions &d) { d.heavy_fraction = 1.5; });
    add(mix, [&](FleetDistributions &d) { d.idle_fraction = nan; });
    add(mix, [](FleetDistributions &d) {
        d.idle_fraction = 0.7;
        d.heavy_fraction = 0.4;
    });
    const char *cut = "power-cut rate";
    add(cut, [](FleetDistributions &d) { d.max_power_cut_rate = -0.01; });
    add(cut, [](FleetDistributions &d) { d.max_power_cut_rate = 1.5; });
    add(cut, [&](FleetDistributions &d) { d.max_power_cut_rate = nan; });

    const exp::Runner runner = serialRunner();
    for (size_t i = 0; i < cases.size(); ++i) {
        FleetConfig config;
        config.dist = cases[i].dist;
        EXPECT_DEATH_IF_SUPPORTED(
            {
                FleetSimulator sim(config, RolloutPolicy::canaryStaged(),
                                   runner);
                (void)sim;
            },
            cases[i].message)
            << "case " << i;
    }

    for (const FleetScenario &scenario :
         {fleetScenarioHealthy(), fleetScenarioFaulty(),
          fleetScenarioLossy()}) {
        const DeviceSampler sampler(scenario.dist);
        EXPECT_EQ(sampler.variantStarts().size(),
                  scenario.dist.variant_weights.size() - 1)
            << scenario.name;
    }
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
