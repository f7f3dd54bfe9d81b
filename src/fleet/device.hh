/**
 * @file
 * Lightweight device models for fleet-scale rollout simulation.
 *
 * A million fielded secure processors cannot each be a full
 * sim::System — but a fleet simulation degenerates to a counter if
 * devices have no per-unit verification state (the HOST 2020
 * secure-boot critique). The middle ground modeled here: every
 * device has immutable *traits* drawn from seeded distributions
 * (hardware variant, crypto-engine latency class, downlink quality,
 * foreground workload mix, power-cut propensity) and compact mutable
 * *state* (active image version, health), and the cycle cost of one
 * install is predicted from
 *
 *  - ota::scheduleArrivals, the routine ota::Transport itself
 *    schedules with, run with a visitor that keeps only the latest
 *    arrival (no payload bytes, no allocation) against its link
 *    class's LinkSchedule, so a lightweight download completes on
 *    exactly the cycle the full transport model delivers its last
 *    chunk; and
 *  - an InstallCostModel calibrated per (release, engine-latency
 *    class) by replaying the real bundle's plan through the one
 *    install pipeline, update::InstallTiming, on an idle channel and
 *    engine (vendor.hh does the calibration), with the admission
 *    read overlapped against the download and the post-admission
 *    pipeline stretched by the device's workload contention factor.
 *
 * A handful of full update::LiveInstall devices embedded in the
 * population (rollout.hh) pin this prediction to the unified-plane
 * ground truth within kGroundTruthTolerance.
 *
 * Traits are recomputed from (fleet seed, device id) whenever they
 * are needed, never stored. A DeviceSampler, built once per fleet,
 * draws them against thresholds precomputed from the distributions:
 * integer starts for the hardware variant, integer cut-offs for the
 * cipher, link and mix fractions. Every draw is the one the
 * distributions' doubles would make.
 */

#ifndef SECPROC_FLEET_DEVICE_HH
#define SECPROC_FLEET_DEVICE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "ota/transport.hh"
#include "util/random.hh"

namespace secproc::fleet
{

/** Simulated device clock: a nominal 1 GHz part. Converts install
 *  completion cycles into the fleet's device-hours headline. */
inline constexpr double kCyclesPerHour = 3.6e12;

/**
 * Documented agreement bound between the lightweight cost model and
 * an embedded LiveInstall ground-truth device installing the same
 * release over the same downlink: |predicted - measured| /
 * measured <= this. The download half of the prediction is exact by
 * construction; the slack covers the pipeline half (fixed-pace
 * calibration vs the live agent's per-line transport step-locking).
 */
inline constexpr double kGroundTruthTolerance = 0.25;

/** Foreground activity of a device while an install runs. */
enum class WorkloadMix : uint8_t
{
    Idle,   ///< screensaver fleet: install has the machine to itself
    Office, ///< light interactive foreground
    Heavy,  ///< bus-saturating foreground (the paper's art-like mix)
};

/**
 * Install-pipeline stretch factor under the mix's bus contention,
 * applied to the post-download pipeline only (the downlink is not
 * contended by the foreground). Values follow the arbiter-paced
 * slowdown bands the live_install bench measured: idle buses grant
 * immediately, heavy foregrounds starve the installer toward the
 * channel's starvation bound.
 */
double workloadContentionFactor(WorkloadMix mix);

/** Downlink quality tier a device is provisioned on. */
enum class LinkClass : uint8_t
{
    Fiber,     ///< fast, near-lossless
    Broadband, ///< mid-rate, mild burst loss
    Cellular,  ///< slow, bursty loss, long NACK round trip
};

const char *linkClassName(LinkClass link);

/** Transport knobs of @p link (seed left for the caller to set). */
ota::TransportConfig linkTransport(LinkClass link);

/** A link class's transport knobs and the schedule constants built
 *  from them, once per fleet; each install sets its own seed. */
struct LinkSchedule
{
    explicit LinkSchedule(LinkClass link);

    ota::TransportConfig transport; ///< linkTransport(link)
    ota::ScheduleOdds odds;         ///< built from transport
};

/** Per-device immutable traits drawn from the fleet distributions. */
struct DeviceTraits
{
    /** Root of every RNG stream this device consumes. */
    uint64_t seed = 0;

    /** Hardware variant; the vendor only offers updates to variants
     *  its quirk table covers (fwupd-style matching). */
    uint32_t hw_variant = 0;

    /** Crypto-engine latency class (50 or 102 cycles per line). */
    uint32_t engine_latency = 0;

    LinkClass link = LinkClass::Broadband;
    WorkloadMix mix = WorkloadMix::Idle;

    /** Probability one install attempt is cut by a power loss. */
    double power_cut_rate = 0.0;
};

/** Seeded distributions the population is drawn from. */
struct FleetDistributions
{
    /**
     * Relative weight per hardware variant (index = variant id).
     * Variants past the vendor's quirk table exist in the field but
     * are never offered an update.
     */
    std::vector<double> variant_weights =
        {0.35, 0.25, 0.20, 0.12, 0.05, 0.03};

    /** Fraction of the fleet with the 102-cycle strong-cipher
     *  engine; the rest run the paper's 50-cycle engine. */
    double strong_cipher_fraction = 0.3;

    /** Link-class mix; the remainder is Broadband. @{ */
    double fiber_fraction = 0.2;
    double cellular_fraction = 0.3;
    /** @} */

    /** Workload mix; the remainder is Office. @{ */
    double idle_fraction = 0.5;
    double heavy_fraction = 0.15;
    /** @} */

    /** Per-attempt power-cut probability is uniform in
     *  [0, max_power_cut_rate); half the fleet draws ~0. */
    double max_power_cut_rate = 0.02;
};

/**
 * Draws device traits from one FleetDistributions. A device's traits
 * stream makes five draws: variant, strong cipher, link, workload
 * mix, power-cut rate. The first four compare the 53-bit draw
 * k = Rng::next53() with integers the constructor precomputes:
 *
 *  - the variant is the number of variant starts at or below k. The
 *    weighted pick (k * 2^-53 * total, then each weight subtracted
 *    in turn until the pick goes negative) never decreases as k
 *    grows, because every step is a monotone rounding. So variant i
 *    starts at the least k whose pick is at least i, found by binary
 *    search over [0, 2^53] evaluating exactly that pick;
 *  - the cipher, link and mix draws compare k with
 *    util::Rng::threshold of the doubles (and double sums) a
 *    nextDouble() comparison would use.
 *
 * Traits are a pure function of (fleet seed, device id): any shard
 * recomputes any device's traits in a few RNG draws.
 */
class DeviceSampler
{
  public:
    /**
     * fatal() on distributions no fleet can be drawn from: a variant
     * weight that is negative, infinite or NaN, or weights whose sum
     * is not finite and positive; a fraction or max_power_cut_rate
     * outside [0, 1] or NaN; fiber + cellular or idle + heavy above 1.
     */
    explicit DeviceSampler(const FleetDistributions &dist);

    /** The traits of device @p device_id in the fleet seeded by
     *  @p fleet_seed. */
    DeviceTraits traits(uint64_t fleet_seed, uint64_t device_id) const;

    /** traits(...).hw_variant alone: the first draw of the same
     *  stream, all the quirk-gate eligibility scan needs. */
    uint32_t variant(uint64_t fleet_seed, uint64_t device_id) const;

    /**
     * Entry i - 1 is the least 53-bit draw that selects a variant of
     * at least i (util::Rng::kDrawSpan when none does), for i in
     * [1, variant count). Non-decreasing.
     */
    std::span<const uint64_t> variantStarts() const { return starts_; }

  private:
    std::vector<uint64_t> starts_;
    util::Rng::Odds strong_cipher_;
    uint64_t fiber_ = 0;             ///< threshold(fiber)
    uint64_t fiber_or_cellular_ = 0; ///< threshold(fiber + cellular)
    uint64_t idle_ = 0;              ///< threshold(idle)
    uint64_t idle_or_heavy_ = 0;     ///< threshold(idle + heavy)
    double max_power_cut_rate_ = 0.0;

    /** The variant the 53-bit draw @p k selects. */
    uint32_t variantOf(uint64_t k) const;
};

/** splitmix64 of @p a ^ @p b; never returns 0 (Rng-safe). The same
 *  stream-splitting idiom exp::cellSeed uses for grid cells. */
uint64_t mixSeed(uint64_t a, uint64_t b);

/** Mutable per-device rollout state: 8 bytes, 8 MB for a million
 *  devices. Traits are recomputed, never stored beside it. */
struct DeviceState
{
    /** Active image version (factory firmware is version 1). */
    uint32_t version = 1;

    /** Running a release whose post-reboot health check failed. */
    uint8_t failed_health = 0;
};
static_assert(sizeof(DeviceState) == 8);

/**
 * Calibrated cycle cost of one clean, uncontended install of a
 * release on one engine-latency class (from a standalone
 * update::InstallTiming replay of the real bundle's plan).
 */
struct InstallCostModel
{
    /** Per-line fetch + digest of the arriving bundle; overlapped
     *  with the download (a line cannot verify before it arrives). */
    uint64_t admission_read_cycles = 0;

    /** Manifest signature check at admission. */
    uint64_t admission_sig_cycles = 0;

    /** Everything after admission: stage, re-verify, load, capsule
     *  unwrap, attestation quote. */
    uint64_t post_admission_cycles = 0;

    uint64_t total() const
    {
        return admission_read_cycles + admission_sig_cycles +
               post_admission_cycles;
    }
};

/** Outcome of one device's install attempt chain. */
struct InstallSim
{
    /** Cycles from dispatch to the install landing. */
    uint64_t cycles = 0;

    /** Attempts abandoned to a power cut before the one that
     *  succeeded. */
    uint32_t power_cut_retries = 0;
};

/**
 * Predict the cycles one device spends installing a release:
 * download overlapped with the admission read, signature and
 * post-admission pipeline stretched by the device's workload
 * contention, power cuts retrying the whole attempt (conservative:
 * a cut download restarts from scratch). @p rng is the device's
 * per-wave stream; @p link is the device's link class and
 * @p transport_seed its per-device downlink seed.
 */
InstallSim simulateInstall(const DeviceTraits &traits,
                           const InstallCostModel &cost,
                           const LinkSchedule &link,
                           uint64_t transport_seed,
                           uint64_t framed_bytes, util::Rng &rng);

/**
 * The clean-attempt prediction simulateInstall converges to with no
 * power cuts and an idle foreground — what an embedded LiveInstall
 * ground-truth device is compared against.
 */
uint64_t predictCleanInstallCycles(const InstallCostModel &cost,
                                   const ota::TransportConfig &transport,
                                   uint64_t framed_bytes);

} // namespace secproc::fleet

#endif // SECPROC_FLEET_DEVICE_HH
