/**
 * @file
 * Staged-rollout simulator implementation.
 */

#include "fleet/rollout.hh"

#include <algorithm>
#include <cmath>

#include "secure/key_table.hh"
#include "sim/system.hh"
#include "update/live_install.hh"
#include "update/rollback_store.hh"
#include "update/update_engine.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

namespace secproc::fleet
{

namespace
{

/** Device-hours histogram geometry (shared by every shard so the
 *  per-shard histograms merge; 0.02 h buckets out to ~82 h). */
constexpr double kHoursBucket = 0.02;
constexpr size_t kHoursBuckets = 4096;

/** The pushed release is always version 2 over factory firmware 1;
 *  a rollback re-ships payload 1 as version 3, counter 3. */
constexpr uint32_t kFactoryVersion = 1;
constexpr uint32_t kTargetVersion = 2;
constexpr uint32_t kRollbackVersion = 3;

} // namespace

RolloutPolicy
RolloutPolicy::canaryStaged()
{
    RolloutPolicy p;
    p.name = "canary-staged";
    return p;
}

RolloutPolicy
RolloutPolicy::conservative()
{
    RolloutPolicy p;
    p.name = "conservative";
    p.canary_fraction = 0.001;
    p.growth_factor = 2.0;
    p.failure_threshold = 0.02;
    p.min_failure_sample = 50;
    p.wave_gap_cycles =
        static_cast<uint64_t>(kCyclesPerHour / 2.0);
    return p;
}

RolloutPolicy
RolloutPolicy::bigBang()
{
    RolloutPolicy p;
    p.name = "big-bang";
    p.canary_fraction = 1.0;
    p.growth_factor = 1.0;
    p.failure_threshold = 1.1; // telemetry never halts it
    p.wave_gap_cycles = 0;
    return p;
}

RolloutPolicy
rolloutPolicyByName(const std::string &name)
{
    if (name == "canary-staged")
        return RolloutPolicy::canaryStaged();
    if (name == "conservative")
        return RolloutPolicy::conservative();
    if (name == "big-bang")
        return RolloutPolicy::bigBang();
    fatal("unknown rollout policy '", name,
          "' (canary-staged, conservative, big-bang)");
}

FleetScenario
fleetScenarioHealthy()
{
    FleetScenario s;
    s.name = "healthy";
    return s;
}

FleetScenario
fleetScenarioFaulty()
{
    FleetScenario s;
    s.name = "faulty";
    s.defective_variant = 0;
    s.defect_rate = 0.6;
    return s;
}

FleetScenario
fleetScenarioLossy()
{
    FleetScenario s;
    s.name = "lossy";
    s.dist.fiber_fraction = 0.05;
    s.dist.cellular_fraction = 0.75;
    s.dist.max_power_cut_rate = 0.08;
    return s;
}

FleetScenario
fleetScenarioByName(const std::string &name)
{
    if (name == "healthy")
        return fleetScenarioHealthy();
    if (name == "faulty")
        return fleetScenarioFaulty();
    if (name == "lossy")
        return fleetScenarioLossy();
    fatal("unknown fleet scenario '", name,
          "' (healthy, faulty, lossy)");
}

util::Json
RolloutResult::toJson() const
{
    util::Json json = util::Json::object();
    json.set("schema_version", uint64_t{1});
    json.set("kind", "fleet_rollout");

    util::Json pol = util::Json::object();
    pol.set("name", policy.name);
    pol.set("canary_fraction", policy.canary_fraction);
    pol.set("growth_factor", policy.growth_factor);
    pol.set("failure_threshold", policy.failure_threshold);
    pol.set("min_failure_sample", policy.min_failure_sample);
    pol.set("wave_gap_cycles", policy.wave_gap_cycles);
    pol.set("rollback_on_halt", policy.rollback_on_halt);
    json.set("policy", std::move(pol));

    util::Json fleet = util::Json::object();
    fleet.set("devices", devices);
    fleet.set("seed", fleet_seed);
    fleet.set("shards", uint64_t{shards});
    fleet.set("eligible", eligible);
    fleet.set("skipped_no_quirk", skipped_no_quirk);
    fleet.set("ground_truth_devices",
              static_cast<uint64_t>(ground_truth.size()));
    fleet.set("tolerance", kGroundTruthTolerance);
    json.set("fleet", std::move(fleet));

    json.set("releases", releases);

    util::Json wave_list = util::Json::array();
    for (const WaveStats &w : waves) {
        util::Json wave = util::Json::object();
        wave.set("index", uint64_t{w.index});
        wave.set("kind", w.kind);
        wave.set("release", uint64_t{w.release});
        wave.set("open_cycle", w.open_cycle);
        wave.set("close_cycle", w.close_cycle);
        wave.set("offered", w.offered);
        wave.set("updated", w.updated);
        wave.set("failed", w.failed);
        wave.set("failure_rate", w.failure_rate);
        wave.set("p50_device_hours", w.p50_device_hours);
        wave.set("p99_device_hours", w.p99_device_hours);
        wave.set("mean_queue_delay_cycles",
                 w.mean_queue_delay_cycles);
        wave.set("delta_installs", w.delta_installs);
        wave.set("full_installs", w.full_installs);
        wave.set("transport_bytes", w.transport_bytes);
        wave.set("transport_bytes_full", w.transport_bytes_full);
        wave.set("halted_after", w.halted_after);
        wave_list.push(std::move(wave));
    }
    json.set("waves", std::move(wave_list));

    util::Json tot = util::Json::object();
    tot.set("updated", updated);
    tot.set("failed_health", failed_health);
    tot.set("rolled_back", rolled_back);
    tot.set("skipped", skipped_no_quirk);
    tot.set("attempts", attempts);
    tot.set("power_cut_retries", power_cut_retries);
    tot.set("halts", halts);
    tot.set("rollback_waves", rollback_waves);
    tot.set("delta_installs", delta_installs);
    tot.set("full_installs", full_installs);
    tot.set("transport_bytes", transport_bytes);
    tot.set("transport_bytes_full", transport_bytes_full);
    json.set("totals", std::move(tot));

    util::Json gt_list = util::Json::array();
    for (const GroundTruthReport &gt : ground_truth) {
        util::Json dev = util::Json::object();
        dev.set("device", gt.device);
        dev.set("engine_latency", uint64_t{gt.engine_latency});
        dev.set("link", linkClassName(gt.link));
        dev.set("predicted_cycles", gt.predicted_cycles);
        dev.set("measured_cycles", gt.measured_cycles);
        dev.set("rel_error", gt.rel_error);
        dev.set("within_tolerance", gt.within_tolerance);
        dev.set("functional_ok", gt.functional_ok);
        dev.set("via_delta", gt.via_delta);
        gt_list.push(std::move(dev));
    }
    json.set("ground_truth", std::move(gt_list));

    json.set("converged", converged);
    json.set("convergence_cycle", convergence_cycle);
    json.set("convergence_hours", convergence_hours);

    util::Json hours = util::Json::object();
    hours.set("p50", device_hours.percentile(0.50));
    hours.set("p90", device_hours.percentile(0.90));
    hours.set("p99", device_hours.percentile(0.99));
    hours.set("mean", device_hours.mean());
    hours.set("samples", device_hours.totalSamples());
    json.set("device_hours", std::move(hours));

    util::Json versions = util::Json::object();
    for (const auto &[version, count] : final_version_counts)
        versions.set(std::to_string(version), count);
    json.set("final_version_counts", std::move(versions));
    return json;
}

FleetSimulator::FleetSimulator(const FleetConfig &config,
                               const RolloutPolicy &policy,
                               const exp::Runner &runner)
    : config_(config), policy_(policy), runner_(runner),
      sampler_(config.dist),
      links_{LinkSchedule(LinkClass::Fiber),
             LinkSchedule(LinkClass::Broadband),
             LinkSchedule(LinkClass::Cellular)},
      vendor_(config.vendor)
{
    fatal_if(config_.devices == 0, "fleet needs devices");
    fatal_if(config_.devices > (uint64_t{1} << 32),
             "fleet device ids are 32-bit: at most 2^32 devices, not ",
             config_.devices);
    fatal_if(config_.shards == 0, "fleet needs at least one shard");
    totals_.policy = policy_;
    totals_.devices = config_.devices;
    totals_.fleet_seed = config_.fleet_seed;
    totals_.shards = config_.shards;
}

void
FleetSimulator::registerMetrics(obs::MetricsRegistry &reg)
{
    reg.counterFn("fleet.devices_total",
                  [this] { return totals_.devices; });
    reg.counterFn("fleet.eligible",
                  [this] { return totals_.eligible; });
    reg.counterFn("fleet.skipped_no_quirk",
                  [this] { return totals_.skipped_no_quirk; });
    reg.counterFn("fleet.updated",
                  [this] { return totals_.updated; });
    reg.counterFn("fleet.failed_health",
                  [this] { return totals_.failed_health; });
    reg.counterFn("fleet.rolled_back",
                  [this] { return totals_.rolled_back; });
    reg.counterFn("fleet.attempts",
                  [this] { return totals_.attempts; });
    reg.counterFn("fleet.power_cut_retries",
                  [this] { return totals_.power_cut_retries; });
    reg.counterFn("fleet.waves", [this] {
        return static_cast<uint64_t>(totals_.waves.size());
    });
    reg.counterFn("fleet.halts", [this] { return totals_.halts; });
    reg.counterFn("fleet.rollback_waves",
                  [this] { return totals_.rollback_waves; });
    reg.counterFn("fleet.delta_installs",
                  [this] { return totals_.delta_installs; });
    reg.counterFn("fleet.full_installs",
                  [this] { return totals_.full_installs; });
    reg.counterFn("fleet.transport_bytes",
                  [this] { return totals_.transport_bytes; });
    reg.counterFn("fleet.transport_bytes_full",
                  [this] { return totals_.transport_bytes_full; });
    reg.gaugeFn("fleet.convergence_hours",
                [this] { return totals_.convergence_hours; });
    reg.histogram("fleet.device_hours", &totals_.device_hours);
    reg.accumulator("fleet.wave_queue_delay", &queue_delay_);
}

void
FleetSimulator::buildPopulation()
{
    const uint64_t per = util::ceilDiv(config_.devices, config_.shards);

    // The quirk gate needs only each device's variant.
    std::vector<std::vector<uint32_t>> shard_ids(config_.shards);
    runner_.forEach(config_.shards, [&](size_t s) {
        const uint64_t begin = std::min(config_.devices, s * per);
        const uint64_t end = std::min(config_.devices, begin + per);
        std::vector<uint32_t> &ids = shard_ids[s];
        ids.reserve(end - begin);
        for (uint64_t id = begin; id < end; ++id) {
            if (vendor_.offersVariant(
                    sampler_.variant(config_.fleet_seed, id)))
                ids.push_back(static_cast<uint32_t>(id));
        }
    });

    // Shard s covers a contiguous id range, so appending in shard
    // order keeps eligible_ in device-id order.
    size_t eligible = 0;
    for (const std::vector<uint32_t> &ids : shard_ids)
        eligible += ids.size();
    eligible_.reserve(eligible);
    for (const std::vector<uint32_t> &ids : shard_ids)
        eligible_.insert(eligible_.end(), ids.begin(), ids.end());
    totals_.eligible = eligible;
    totals_.skipped_no_quirk = config_.devices - eligible;
    states_.assign(config_.devices, DeviceState{});
}

WaveStats
FleetSimulator::runWave(uint32_t index, const std::string &kind,
                        const ReleaseInfo &release,
                        std::span<const uint32_t> ids,
                        uint64_t open_cycle)
{
    WaveStats wave;
    wave.index = index;
    wave.kind = kind;
    wave.release = release.version;
    wave.open_cycle = open_cycle;
    wave.close_cycle = open_cycle;
    wave.offered = ids.size();

    struct ShardOut
    {
        uint64_t failed = 0;
        uint64_t attempts = 0;
        uint64_t retries = 0;
        uint64_t target_updated = 0;
        uint64_t rolled_back = 0;
        uint64_t max_completion = 0;
        uint64_t delta_installs = 0;
        uint64_t transport_bytes = 0;
        util::Histogram hours{kHoursBucket, kHoursBuckets};
        util::Histogram healthy_hours{kHoursBucket, kHoursBuckets};
    };
    std::vector<ShardOut> shards(config_.shards);

    // Shard s fills ledger records [s * per, ...) in place: queue
    // order, as a shard-by-shard append would produce.
    const std::span<LedgerRecord> ledger =
        vendor_.extendLedger(ids.size());
    const uint64_t per = util::ceilDiv(ids.size(), config_.shards);

    // Every draw a device makes in this wave comes off one stream
    // keyed by (device, release, wave) — never by execution order.
    const uint64_t wave_key =
        mixSeed(release.version, 0xA11CEull + index);

    runner_.forEach(config_.shards, [&](size_t s) {
        const size_t begin = s * per;
        const size_t end = std::min(ids.size(), begin + per);
        ShardOut &out = shards[s];
        for (size_t j = begin; j < end; ++j) {
            const uint32_t id = ids[j];
            const DeviceTraits traits =
                sampler_.traits(config_.fleet_seed, id);
            util::Rng rng(mixSeed(traits.seed, wave_key));

            const uint64_t jitter = static_cast<uint64_t>(
                rng.nextDouble() *
                static_cast<double>(
                    config_.vendor.cdn_jitter_cycles));
            // Queue position is the wave-global index j, so CDN
            // serialization is independent of sharding.
            const uint64_t dispatch =
                vendor_.dispatchCycle(open_cycle, j, jitter);

            // A device running exactly the delta's base version
            // downloads the delta stream; everyone else — and every
            // release without a delta — takes the full bundle.
            const bool via_delta =
                release.delta_base_version != 0 &&
                states_[id].version == release.delta_base_version;
            const InstallCostModel &cost =
                via_delta ? release.deltaCost(traits.engine_latency)
                          : release.cost(traits.engine_latency);
            const uint64_t downlink_bytes =
                via_delta ? release.delta_framed_bytes
                          : release.framed_bytes;

            const InstallSim sim = simulateInstall(
                traits, cost, links_[static_cast<size_t>(traits.link)],
                mixSeed(traits.seed, release.version), downlink_bytes,
                rng);
            const uint64_t completion = dispatch + sim.cycles;

            if (via_delta)
                ++out.delta_installs;
            out.transport_bytes += downlink_bytes;

            const bool failed =
                release.defective_variant >= 0 &&
                traits.hw_variant ==
                    static_cast<uint32_t>(
                        release.defective_variant) &&
                rng.chance(release.defect_rate);

            InstallOutcome outcome;
            if (failed)
                outcome = InstallOutcome::FailedHealth;
            else if (release.rollback_of != 0)
                outcome = InstallOutcome::RolledBack;
            else
                outcome = InstallOutcome::Updated;

            DeviceState &state = states_[id];
            state.version = release.version;
            state.failed_health = failed ? 1 : 0;

            const double hours =
                static_cast<double>(completion) / kCyclesPerHour;
            out.hours.sample(hours);
            if (outcome == InstallOutcome::Updated) {
                out.healthy_hours.sample(hours);
                ++out.target_updated;
            }
            if (outcome == InstallOutcome::RolledBack)
                ++out.rolled_back;
            if (failed)
                ++out.failed;
            out.attempts += 1 + sim.power_cut_retries;
            out.retries += sim.power_cut_retries;
            out.max_completion =
                std::max(out.max_completion, completion);

            LedgerRecord &record = ledger[j];
            record.device = id;
            record.release_version = release.version;
            record.wave = static_cast<uint16_t>(index);
            record.outcome = outcome;
            record.power_cut_retries = static_cast<uint8_t>(
                std::min<uint32_t>(sim.power_cut_retries, 255));
            record.completed_cycle = completion;
        }
    });

    util::Histogram wave_hours(kHoursBucket, kHoursBuckets);
    for (const ShardOut &out : shards) {
        wave.failed += out.failed;
        wave.close_cycle =
            std::max(wave.close_cycle, out.max_completion);
        wave_hours.merge(out.hours);
        totals_.device_hours.merge(out.healthy_hours);
        totals_.updated += out.target_updated;
        totals_.failed_health += out.failed;
        totals_.rolled_back += out.rolled_back;
        totals_.attempts += out.attempts;
        totals_.power_cut_retries += out.retries;
        wave.delta_installs += out.delta_installs;
        wave.transport_bytes += out.transport_bytes;
    }
    // Each offered device installs once: whoever did not fail is
    // updated, whoever took no delta took the full bundle.
    wave.updated = wave.offered - wave.failed;
    wave.full_installs = wave.offered - wave.delta_installs;
    wave.transport_bytes_full = wave.offered * release.framed_bytes;
    totals_.delta_installs += wave.delta_installs;
    totals_.full_installs += wave.full_installs;
    totals_.transport_bytes += wave.transport_bytes;
    totals_.transport_bytes_full += wave.transport_bytes_full;

    if (wave.offered > 0) {
        wave.failure_rate =
            static_cast<double>(wave.failed) /
            static_cast<double>(wave.offered);
        wave.p50_device_hours = wave_hours.percentile(0.50);
        wave.p99_device_hours = wave_hours.percentile(0.99);
        // The CDN queue-delay sum over positions 0..n-1 is closed
        // form: service * n*(n-1)/2.
        wave.mean_queue_delay_cycles =
            static_cast<double>(
                config_.vendor.cdn_service_cycles) *
            static_cast<double>(wave.offered - 1) / 2.0;
        queue_delay_.sample(wave.mean_queue_delay_cycles);
    }

    wave.halted_after =
        policy_.failure_threshold <= 1.0 &&
        wave.offered >= policy_.min_failure_sample &&
        wave.failure_rate >= policy_.failure_threshold;

    if (trace_ != nullptr) {
        trace_->duration(
            track_, "wave " + std::to_string(index) + " " + kind,
            wave.open_cycle, wave.close_cycle,
            {{"release", release.version},
             {"offered", wave.offered},
             {"failed", wave.failed}});
        if (wave.halted_after)
            trace_->instant(track_, "halt", wave.close_cycle,
                            {{"wave", index}});
    }
    return wave;
}

void
FleetSimulator::runGroundTruth(const ReleaseInfo &release)
{
    struct Combo
    {
        uint32_t engine_latency;
        LinkClass link;
    };
    // One device per engine-latency/link corner the lightweight
    // model has to hold on.
    constexpr Combo kCombos[] = {
        {50, LinkClass::Fiber},
        {102, LinkClass::Broadband},
        {50, LinkClass::Cellular},
    };
    constexpr size_t kComboCount =
        sizeof(kCombos) / sizeof(kCombos[0]);

    for (uint32_t i = 0; i < config_.ground_truth_devices; ++i) {
        const Combo &combo = kCombos[i % kComboCount];
        GroundTruthReport gt;
        gt.device = config_.devices + i; // embedded past the fleet
        gt.engine_latency = combo.engine_latency;
        gt.link = combo.link;

        const uint64_t device_seed = mixSeed(
            config_.fleet_seed ^ 0x6077ull, gt.device);

        ota::TransportConfig link = linkTransport(combo.link);
        link.seed = mixSeed(device_seed, release.version);

        gt.via_delta = release.delta_base_version != 0;
        gt.predicted_cycles = predictCleanInstallCycles(
            gt.via_delta ? release.deltaCost(combo.engine_latency)
                         : release.cost(combo.engine_latency),
            link,
            gt.via_delta ? release.delta_framed_bytes
                         : release.framed_bytes);

        // The full machine: same calibration pacing (Fixed), idle
        // machine (the install replays on its own clock, so no
        // program needs to have run), the real signed bundle over the
        // real lossy transport.
        sim::SystemConfig config =
            sim::paperConfig(secure::SecurityModel::OtpSnc);
        config.protection.crypto.latency = combo.engine_latency;
        fatal_if(config.l2.line_size != config_.vendor.line_bytes,
                 "ground-truth line size diverged from the "
                 "vendor calibration");
        sim::System system(config, std::vector<sim::TaskSpec>{});

        secure::KeyTable keys;
        update::RollbackStore rollback(64);
        update::UpdateEngine updater(
            vendor_.vendorPublicKey(), vendor_.deviceClassKey(),
            keys, rollback,
            update::StagingConfig{0x4000'0000, 8ull << 20});

        update::LiveInstallConfig live_config;
        live_config.line_bytes = config.l2.line_size;
        live_config.pacing = update::InstallPacing::Fixed;
        live_config.transport = link;
        update::LiveInstall live(live_config, system, updater, 1);
        system.attachAgent(&live);

        if (gt.via_delta) {
            // The delta reconstructs against the device's active
            // slot: pre-install the base release functionally (zero
            // cycles — the device shipped from the factory with it)
            // so the live install measures only the delta path.
            const ReleaseInfo &base =
                vendor_.release(release.delta_base_version);
            const update::VerifyResult staged =
                updater.stage(base.bundle, system.mainMemory());
            fatal_if(!staged.ok(),
                     "ground-truth base release refused to stage");
            const update::InstallResult activated = updater.activate(
                1, system.mainMemory(), system.virtualMemory(),
                update::kLiveImageAsid, system.engine());
            fatal_if(!activated.ok(),
                     "ground-truth base release refused to activate");
            live.startDelta(release.delta, 0);
        } else {
            live.start(release.bundle, 0);
        }
        live.replay();

        gt.measured_cycles = live.installCycles();
        gt.functional_ok =
            live.phase() == update::LiveInstallPhase::Done;
        fatal_if(gt.measured_cycles == 0,
                 "ground-truth install measured zero cycles");
        gt.rel_error =
            std::abs(static_cast<double>(gt.predicted_cycles) -
                     static_cast<double>(gt.measured_cycles)) /
            static_cast<double>(gt.measured_cycles);
        gt.within_tolerance =
            gt.rel_error <= kGroundTruthTolerance;

        if (trace_ != nullptr) {
            trace_->instant(track_, "ground-truth device", 0,
                            {{"device", gt.device},
                             {"predicted", gt.predicted_cycles},
                             {"measured", gt.measured_cycles}});
        }
        totals_.ground_truth.push_back(gt);
    }
}

RolloutResult
FleetSimulator::run(int32_t defective_variant, double defect_rate)
{
    fatal_if(ran_, "FleetSimulator is single-shot");
    ran_ = true;

    if (trace_ != nullptr)
        track_ = trace_->track("fleet");

    buildPopulation();

    // Shipping deltas means the factory firmware must exist as a
    // real published release — the delta is cut against its signed
    // bundle, and ground-truth devices pre-install it so their
    // active slot holds the base to reconstruct from.
    if (config_.ship_deltas) {
        vendor_.publish(kFactoryVersion,
                        /*rollback_counter=*/kFactoryVersion,
                        /*payload_version=*/kFactoryVersion);
    }
    const ReleaseInfo &target = vendor_.publish(
        kTargetVersion, /*rollback_counter=*/kTargetVersion,
        /*payload_version=*/kTargetVersion, defective_variant,
        defect_rate, /*rollback_of=*/0,
        /*delta_base_version=*/
        config_.ship_deltas ? kFactoryVersion : 0);
    if (trace_ != nullptr)
        trace_->instant(track_, "publish", 0,
                        {{"release", target.version}});

    runGroundTruth(target);

    // Staged waves over the eligible population, in device-id order.
    double fraction =
        std::min(1.0, std::max(policy_.canary_fraction, 0.0));
    fatal_if(fraction <= 0.0, "policy needs a canary fraction");
    size_t cursor = 0;
    uint64_t next_open = 0;
    uint32_t wave_index = 0;
    bool halted = false;

    while (cursor < eligible_.size() && !halted) {
        const uint64_t want = static_cast<uint64_t>(std::ceil(
            static_cast<double>(eligible_.size()) * fraction));
        const size_t size = static_cast<size_t>(
            std::min<uint64_t>(std::max<uint64_t>(want, 1),
                               eligible_.size() - cursor));

        const WaveStats wave = runWave(
            wave_index, wave_index == 0 ? "canary" : "expansion",
            target, std::span(eligible_).subspan(cursor, size),
            next_open);
        totals_.waves.push_back(wave);

        cursor += size;
        ++wave_index;
        if (wave.halted_after) {
            halted = true;
            ++totals_.halts;
        } else {
            next_open = wave.close_cycle + policy_.wave_gap_cycles;
            fraction = std::min(1.0,
                                fraction * policy_.growth_factor);
        }
    }

    // Emergency rollback: re-ship the previous image as a *newer*
    // release (higher rollback counter — fielded anti-rollback will
    // not accept the old bundle itself) to every device the pulled
    // release reached.
    if (halted && policy_.rollback_on_halt) {
        const ReleaseInfo &rollback = vendor_.publish(
            kRollbackVersion, /*rollback_counter=*/kRollbackVersion,
            /*payload_version=*/kFactoryVersion, -1, 0.0,
            /*rollback_of=*/kTargetVersion);

        const uint64_t open = totals_.waves.back().close_cycle +
                              policy_.wave_gap_cycles;
        if (trace_ != nullptr)
            trace_->instant(track_, "publish rollback", open,
                            {{"release", rollback.version}});

        std::vector<uint32_t> ids;
        for (const uint32_t id : std::span(eligible_).first(cursor)) {
            if (states_[id].version == kTargetVersion)
                ids.push_back(id);
        }

        const WaveStats wave =
            runWave(wave_index, "rollback", rollback, ids, open);
        totals_.waves.push_back(wave);
        ++totals_.rollback_waves;
    }

    // Final fleet state and the convergence verdict.
    for (const DeviceState &state : states_)
        ++totals_.final_version_counts[state.version];

    for (const WaveStats &wave : totals_.waves)
        totals_.convergence_cycle = std::max(
            totals_.convergence_cycle, wave.close_cycle);
    totals_.convergence_hours =
        static_cast<double>(totals_.convergence_cycle) /
        kCyclesPerHour;

    // Converged: every eligible device healthy on the target release
    // or — after a halt — the rollback left nobody on the pulled
    // release and nobody unhealthy.
    const auto settled = [&](uint32_t id) {
        const DeviceState &state = states_[id];
        return state.failed_health == 0 &&
               (halted ? state.version != kTargetVersion
                       : state.version == kTargetVersion);
    };
    totals_.converged =
        (halted ? policy_.rollback_on_halt
                : cursor == eligible_.size()) &&
        std::all_of(eligible_.begin(), eligible_.end(), settled);

    totals_.releases = util::Json::array();
    for (const auto &[version, info] : vendor_.releases()) {
        util::Json rel = util::Json::object();
        rel.set("version", uint64_t{version});
        rel.set("rollback_counter", info.rollback_counter);
        rel.set("payload_version", uint64_t{info.payload_version});
        rel.set("image_bytes", info.image_bytes);
        rel.set("framed_bytes", info.framed_bytes);
        rel.set("defective_variant",
                static_cast<int64_t>(info.defective_variant));
        rel.set("defect_rate", info.defect_rate);
        rel.set("rollback_of", uint64_t{info.rollback_of});
        rel.set("delta_base_version",
                uint64_t{info.delta_base_version});
        rel.set("delta_framed_bytes", info.delta_framed_bytes);
        totals_.releases.push(std::move(rel));
    }

    return totals_;
}

} // namespace secproc::fleet
