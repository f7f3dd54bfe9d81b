/**
 * @file
 * Staged rollout of one release across a simulated fleet.
 *
 * The FleetSimulator is the control loop a vendor's update service
 * runs when it pushes a release to a million fielded secure
 * processors: a canary wave, geometric wave expansion while failure
 * telemetry stays under the policy threshold, an automatic halt when
 * it does not, and an emergency rollback wave (a re-ship of the old
 * image under a *higher* rollback counter — fielded processors
 * enforce anti-rollback, so the vendor cannot simply re-offer the
 * old bundle).
 *
 * Devices are lightweight DeviceModels (device.hh); a handful of
 * full update::LiveInstall machines are embedded in the population
 * as ground truth and must agree with the lightweight cost model
 * within kGroundTruthTolerance. The population is sharded over a
 * fixed shard count (independent of thread count) and executed by
 * exp::Runner::forEach, with per-shard results merged in shard-index
 * order — a rollout at --threads=4 is bit-identical to the serial
 * run.
 */

#ifndef SECPROC_FLEET_ROLLOUT_HH
#define SECPROC_FLEET_ROLLOUT_HH

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "exp/runner.hh"
#include "fleet/device.hh"
#include "fleet/vendor.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/json.hh"
#include "util/stats.hh"

namespace secproc::fleet
{

/** Staged-rollout control policy. */
struct RolloutPolicy
{
    std::string name;

    /** Fraction of the eligible fleet in the first (canary) wave. */
    double canary_fraction = 0.005;

    /** Wave-over-wave growth of that fraction. */
    double growth_factor = 4.0;

    /**
     * Failure telemetry that halts the rollout: a wave whose
     * failure rate reaches this (with at least min_failure_sample
     * installs reporting) stops expansion. > 1.0 never halts.
     */
    double failure_threshold = 0.05;
    uint64_t min_failure_sample = 25;

    /** Soak time between a wave closing and the next opening. */
    uint64_t wave_gap_cycles =
        static_cast<uint64_t>(kCyclesPerHour / 4.0);

    /** Push an emergency rollback wave after a halt. */
    bool rollback_on_halt = true;

    /** 0.5% canary, x4 growth, 5% halt threshold. */
    static RolloutPolicy canaryStaged();

    /** 0.1% canary, x2 growth, 2% halt threshold, longer soaks. */
    static RolloutPolicy conservative();

    /** Everyone in wave one, no halt — the cautionary baseline. */
    static RolloutPolicy bigBang();
};

/** Named policy lookup for CLIs; fatal() on an unknown name. */
RolloutPolicy rolloutPolicyByName(const std::string &name);

/** The fleet a rollout runs against. */
struct FleetConfig
{
    /** Lightweight population size (at most 2^32: ids are 32-bit). */
    uint64_t devices = 100'000;

    /** Root seed of the whole fleet (traits, jitter, faults). */
    uint64_t fleet_seed = 0xF1EE7'5EED;

    /**
     * Fixed shard count the population is split into. Work is
     * distributed shard-per-task and merged in shard order, so the
     * result depends on this number but never on the thread count.
     */
    uint32_t shards = 64;

    FleetDistributions dist;
    VendorConfig vendor;

    /** Full LiveInstall machines embedded as ground truth. */
    uint32_t ground_truth_devices = 3;

    /**
     * Ship the target release as a delta against the factory
     * firmware: the vendor publishes the factory image as a real
     * release, cuts a signed delta, and every device still running
     * the factory version downloads the (much smaller) delta stream;
     * devices on any other version — and the rollback wave — fall
     * back to the full bundle. Off by default: the classic
     * full-bundle rollout stays byte-identical.
     */
    bool ship_deltas = false;
};

/**
 * A named (fleet shape, release quality) pairing — the worked
 * examples the bench, tool and tests all draw from.
 */
struct FleetScenario
{
    std::string name;
    FleetDistributions dist;

    /** Defect the pushed release ships with (-1 = healthy). @{ */
    int32_t defective_variant = -1;
    double defect_rate = 0.0;
    /** @} */
};

/** Clean release, default population. */
FleetScenario fleetScenarioHealthy();

/** Release that bricks variant 0's health check 60% of the time —
 *  the canary-halt-and-rollback demonstration. */
FleetScenario fleetScenarioFaulty();

/** Clean release into a cellular-heavy, power-cut-prone fleet. */
FleetScenario fleetScenarioLossy();

/** Scenario lookup for CLIs; fatal() on an unknown name. */
FleetScenario fleetScenarioByName(const std::string &name);

/** Telemetry of one rollout wave. */
struct WaveStats
{
    uint32_t index = 0;

    /** "canary", "expansion" or "rollback". */
    std::string kind;

    /** Release version this wave offered. */
    uint32_t release = 0;

    uint64_t open_cycle = 0;

    /** Last install completion in the wave. */
    uint64_t close_cycle = 0;

    uint64_t offered = 0;
    uint64_t updated = 0;
    uint64_t failed = 0;

    double failure_rate = 0.0;

    /** Hours from rollout start to install completion. @{ */
    double p50_device_hours = 0.0;
    double p99_device_hours = 0.0;
    /** @} */

    /** Mean CDN queueing delay of the wave's dispatches. */
    double mean_queue_delay_cycles = 0.0;

    /** Devices served by the delta stream vs the full bundle. @{ */
    uint64_t delta_installs = 0;
    uint64_t full_installs = 0;
    /** @} */

    /** Bytes the wave's downlinks actually carried (clean-attempt
     *  payloads; retries re-stream), and what the same wave would
     *  have carried shipping full bundles to everyone. */
    uint64_t transport_bytes = 0;
    uint64_t transport_bytes_full = 0;

    /** This wave's telemetry tripped the halt threshold. */
    bool halted_after = false;
};

/** One embedded ground-truth device's verdict. */
struct GroundTruthReport
{
    uint64_t device = 0;
    uint32_t engine_latency = 0;
    LinkClass link = LinkClass::Broadband;

    /** Lightweight model's clean-install prediction. */
    uint64_t predicted_cycles = 0;

    /** The full LiveInstall machine's measured install. */
    uint64_t measured_cycles = 0;

    double rel_error = 0.0;
    bool within_tolerance = false;

    /** The functional plane activated the image (phase Done). */
    bool functional_ok = false;

    /** The install consumed the delta stream (base pre-installed). */
    bool via_delta = false;
};

/** Everything one rollout produced. */
struct RolloutResult
{
    RolloutPolicy policy;

    uint64_t devices = 0;
    uint64_t fleet_seed = 0;
    uint32_t shards = 0;

    /** Quirk-gate split of the population. @{ */
    uint64_t eligible = 0;
    uint64_t skipped_no_quirk = 0;
    /** @} */

    std::vector<WaveStats> waves;
    std::vector<GroundTruthReport> ground_truth;

    /** Rollout-wide totals. @{ */
    uint64_t updated = 0;
    uint64_t failed_health = 0;
    uint64_t rolled_back = 0;
    uint64_t attempts = 0;
    uint64_t power_cut_retries = 0;
    uint64_t halts = 0;
    uint64_t rollback_waves = 0;
    uint64_t delta_installs = 0;
    uint64_t full_installs = 0;
    uint64_t transport_bytes = 0;
    uint64_t transport_bytes_full = 0;
    /** @} */

    /**
     * The fleet reached a coherent end state: every eligible device
     * healthy on the target release, or — after a halt — the
     * rollback wave left no device on the pulled release.
     */
    bool converged = false;
    uint64_t convergence_cycle = 0;
    double convergence_hours = 0.0;

    /** Hours-to-healthy-install distribution (the headline p99). */
    util::Histogram device_hours{0.02, 4096};

    /** Active image version -> device count, whole population. */
    std::map<uint32_t, uint64_t> final_version_counts;

    /** Release feed summary (version order). */
    util::Json releases = util::Json::array();

    /** Full machine-readable report (schema_version 1). */
    util::Json toJson() const;
};

/**
 * Runs one staged rollout. Single-shot: construct, optionally attach
 * metrics/trace, run() once, read the result.
 */
class FleetSimulator
{
  public:
    FleetSimulator(const FleetConfig &config,
                   const RolloutPolicy &policy,
                   const exp::Runner &runner);

    /**
     * Publish the target release (with the scenario's defect, if
     * any) and drive waves until the fleet converges or the policy
     * halts (then rolls back, when configured).
     */
    RolloutResult run(int32_t defective_variant = -1,
                      double defect_rate = 0.0);

    /** Per-wave spans and publish/halt instants on a "fleet" track. */
    void setTraceSink(obs::TraceSink *sink) { trace_ = sink; }

    /** Bind fleet.* counters and the device-hours histogram. */
    void registerMetrics(obs::MetricsRegistry &reg);

    /** The vendor service (release feed + install ledger). */
    const VendorService &vendor() const { return vendor_; }

  private:
    FleetConfig config_;
    RolloutPolicy policy_;
    const exp::Runner &runner_;

    /** Draws every device's traits; validates config_.dist before
     *  the vendor service is built. */
    DeviceSampler sampler_;

    /** Schedule constants per LinkClass, indexed by its value. */
    std::array<LinkSchedule, 3> links_;

    VendorService vendor_;
    bool ran_ = false;

    obs::TraceSink *trace_ = nullptr;
    obs::TrackId track_ = 0;

    /** Quirk-gate-eligible device ids in id order (forward waves
     *  are spans of it); traits are recomputed, never stored. */
    std::vector<uint32_t> eligible_;

    std::vector<DeviceState> states_;

    /** Live metric sources (registerMetrics binds these). @{ */
    RolloutResult totals_;
    util::Accumulator queue_delay_;
    /** @} */

    void buildPopulation();

    /** Run one wave over @p ids (in CDN queue order), updating
     *  states, telemetry and the ledger; @return its WaveStats. */
    WaveStats runWave(uint32_t index, const std::string &kind,
                      const ReleaseInfo &release,
                      std::span<const uint32_t> ids,
                      uint64_t open_cycle);

    void runGroundTruth(const ReleaseInfo &release);
};

} // namespace secproc::fleet

#endif // SECPROC_FLEET_ROLLOUT_HH
